"""Two-cursor zip fusion: lockstep draining of two fused pipelines.

``Stream.zip`` / ``Stream.zip_with`` pair two streams elementwise.  A
naive implementation pulls both sides through per-element iterators —
every element pays Python call overhead twice before the combiner even
runs.  Here each side becomes a :class:`_ZipCursor`: its op chain is
stage-fused (:mod:`repro.streams.fusion`) and driven through the chunked
bulk path, parking *output* chunks in a pending queue.  The enclosing
:class:`ZipSpliterator` then advances both cursors in lockstep —
``next_chunk(k)`` takes ``min(k, left available, right available)``
elements from each side in one slice — so the pair stream itself rides
the chunked path end to end.

Three combine forms, decided per chunk:

* no combiner → ``list(zip(a, b))`` pairs (one C-level call per chunk);
* a :class:`numpy.ufunc` combiner over two ndarray chunks → one
  vectorized call, keeping an all-numpy pipeline allocation-free in
  Python terms;
* any other combiner → ``list(map(combine, a, b))``.

Cursor fill modes (``_ZipCursor.mode``, surfaced by ``explain()``):

* ``direct`` — no ops: source chunks pass straight to the queue
  (zero-copy for ndarray/range sources);
* ``chunked`` — the fused chain is chunk-eligible (`select_mode` says
  so): source chunks push through ``accept_chunk`` and transformed
  chunks land in the queue.  Counted kernels participate: a fused
  ``limit`` reports exhaustion through ``cancellation_requested`` and
  the cursor stops filling at the cut;
* ``element`` — stateful/short-circuit chains that cannot chunk fall
  back to a lazy ``pull_iterator`` drain.

``try_split`` is supported only when both sides are op-free cursors over
equal-size midpoint-splitting sources (list/range): both prefixes then
cover exactly ``floor(n/2)`` elements, so the split stays aligned.
Anything else stays sequential — a zip of *transformed* sides must drain
in lockstep and cannot be partitioned without materializing.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.streams.config import EngineConfig
from repro.streams.ops import (
    CHUNK_SIZE,
    BufferSink,
    Op,
    Sink,
    pull_iterator,
    select_mode,
    wrap_ops,
)
from repro.streams.spliterator import (
    UNKNOWN_SIZE,
    Characteristics,
    Spliterator,
)
from repro.streams.spliterators import ListSpliterator, RangeSpliterator


class _PendingSink(Sink):
    """Terminal of a cursor's fused chain: parks output in the queue."""

    __slots__ = ("_cursor",)

    def __init__(self, cursor: "_ZipCursor") -> None:
        self._cursor = cursor

    def accept(self, item: Any) -> None:
        cursor = self._cursor
        cursor._pending.append([item])
        cursor._buffered += 1

    def accept_chunk(self, chunk: Sequence) -> None:
        if len(chunk):
            cursor = self._cursor
            cursor._pending.append(chunk)
            cursor._buffered += len(chunk)


class _ZipCursor:
    """One side of a zip: a fused pipeline drained on demand.

    ``available(k)`` buffers until at least ``k`` outputs are pending (or
    the side is exhausted) and returns the buffered count; ``take(n)``
    removes exactly ``n`` outputs as one sequence, slicing queued chunks
    without per-element copies where possible (ndarray views, range
    slices).
    """

    __slots__ = (
        "_spliterator", "ops", "mode", "_pending", "_buffered",
        "_exhausted", "_sink", "_iter", "_chunk_size",
    )

    def __init__(
        self,
        spliterator: Spliterator,
        ops: list[Op] | None = None,
        config: EngineConfig | None = None,
        chunk_size: int = CHUNK_SIZE,
    ) -> None:
        """``config`` — the zipping stream's — fuses ``ops`` and picks
        the fill mode; an op-free side needs none."""
        from repro.streams.fusion import maybe_fuse

        self._spliterator = spliterator
        self.ops = maybe_fuse(list(ops), config) if ops else []
        self._pending: deque = deque()
        self._buffered = 0
        self._exhausted = False
        self._sink: Sink | None = None
        self._iter = None
        self._chunk_size = chunk_size
        if not self.ops:
            self.mode = "direct"
        elif select_mode(self.ops, config) == "chunked":
            self.mode = "chunked"
            self._sink = wrap_ops(self.ops, _PendingSink(self))
            self._sink.begin(spliterator.get_exact_size_if_known())
        else:
            self.mode = "element"
            buffer: deque = deque()
            sink = wrap_ops(self.ops, BufferSink(buffer))
            sink.begin(spliterator.get_exact_size_if_known())
            self._iter = pull_iterator(spliterator, sink, buffer)

    def available(self, k: int) -> int:
        while self._buffered < k and not self._exhausted:
            self._fill_once(k)
        return self._buffered

    def _fill_once(self, k: int) -> None:
        if self.mode == "direct":
            chunk = self._spliterator.next_chunk(max(k, self._chunk_size))
            if chunk is None or len(chunk) == 0:
                self._exhausted = True
                return
            self._pending.append(chunk)
            self._buffered += len(chunk)
        elif self.mode == "chunked":
            sink = self._sink
            if sink.cancellation_requested():
                # A counted kernel (fused limit) hit its cut.
                self._exhausted = True
                sink.end()
                return
            chunk = self._spliterator.next_chunk(self._chunk_size)
            if chunk is None or len(chunk) == 0:
                self._exhausted = True
                sink.end()  # flush terminal barriers (e.g. sorted)
                return
            sink.accept_chunk(chunk)
        else:
            batch = list(itertools.islice(self._iter, k - self._buffered))
            if not batch:
                self._exhausted = True
                return
            self._pending.append(batch)
            self._buffered += len(batch)

    def take(self, n: int) -> Sequence:
        if n <= 0:
            return ()
        parts = []
        need = n
        pending = self._pending
        while need:
            chunk = pending[0]
            size = len(chunk)
            if size <= need:
                parts.append(chunk)
                need -= size
                pending.popleft()
            else:
                parts.append(chunk[:need])
                pending[0] = chunk[need:]
                need = 0
        self._buffered -= n
        if len(parts) == 1:
            return parts[0]
        if all(isinstance(p, np.ndarray) for p in parts):
            return np.concatenate(parts)
        flat: list = []
        for p in parts:
            flat.extend(p)
        return flat

    def splittable(self) -> bool:
        return (
            self.mode == "direct"
            and not self._pending
            and not self._exhausted
            and isinstance(
                self._spliterator, (ListSpliterator, RangeSpliterator)
            )
        )

    def projected_size(self) -> int:
        """Remaining output count, or ``UNKNOWN_SIZE``.

        Folds the source's exact size through each kernel's size algebra
        (maps/peeks keep it, limit/skip clamp it); any other stage makes
        the side unknown.
        """
        from repro.streams.fusion import FusedOp

        size = self._spliterator.get_exact_size_if_known()
        if size < 0:
            return UNKNOWN_SIZE
        for op in self.ops:
            size = op._project_size(size) if isinstance(op, FusedOp) else -1
            if size < 0:
                return UNKNOWN_SIZE
        return size + self._buffered

    def describe(self) -> dict:
        """Plan entry for ``Stream.explain()``."""
        stages: list = []
        for op in self.ops:
            if hasattr(op, "describe"):
                d = op.describe()
                stages.append(
                    {"fused": d["stages"], "kernel": d["kernel"]}
                )
            else:
                stages.append(type(op).__name__.removesuffix("Op").lower())
        return {"mode": self.mode, "stages": stages}


class ZipSpliterator(Spliterator):
    """Lockstep pair source over two :class:`_ZipCursor` sides."""

    __slots__ = ("_left", "_right", "_combine", "_is_ufunc")

    def __init__(
        self,
        left: _ZipCursor,
        right: _ZipCursor,
        combine: Callable | None = None,
    ) -> None:
        self._left = left
        self._right = right
        self._combine = combine
        self._is_ufunc = isinstance(combine, np.ufunc)

    def next_chunk(self, max_size: int) -> Sequence:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        n = min(
            self._left.available(max_size),
            self._right.available(max_size),
            max_size,
        )
        if n <= 0:
            return ()
        a = self._left.take(n)
        b = self._right.take(n)
        combine = self._combine
        if combine is None:
            return list(zip(a, b))
        if (
            self._is_ufunc
            and isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
        ):
            return combine(a, b)
        return list(map(combine, a, b))

    def try_advance(self, action: Callable) -> bool:
        if self._left.available(1) < 1 or self._right.available(1) < 1:
            return False
        a = self._left.take(1)[0]
        b = self._right.take(1)[0]
        action((a, b) if self._combine is None else self._combine(a, b))
        return True

    def for_each_remaining(self, action: Callable) -> None:
        # Chunked drain: one take-pair per CHUNK_SIZE window instead of
        # two queue operations per element.
        while True:
            chunk = self.next_chunk(CHUNK_SIZE)
            if len(chunk) == 0:
                return
            for item in chunk:
                action(item)

    def splittable(self) -> bool:
        """Whether :meth:`try_split` splits: two op-free midpoint cursors
        of one size (≥ 2).  The parallel planner makes any other zip one
        leaf."""
        left, right = self._left, self._right
        if not left.splittable() or not right.splittable():
            return False
        size = left._spliterator.estimate_size()
        return size == right._spliterator.estimate_size() and size >= 2

    def try_split(self) -> "ZipSpliterator | None":
        if not self.splittable():
            return None
        # Equal sizes + midpoint splitters → both prefixes are exactly
        # floor(size/2) elements, so the pairing stays aligned.
        left, right = self._left, self._right
        ls = left._spliterator.try_split()
        rs = right._spliterator.try_split()
        if ls is None or rs is None:
            return None
        return ZipSpliterator(_ZipCursor(ls), _ZipCursor(rs), self._combine)

    def estimate_size(self) -> int:
        a = self._left.projected_size()
        b = self._right.projected_size()
        if a == UNKNOWN_SIZE or b == UNKNOWN_SIZE:
            return UNKNOWN_SIZE
        return min(a, b)

    def characteristics(self) -> Characteristics:
        flags = Characteristics.ORDERED | Characteristics.IMMUTABLE
        if self.estimate_size() != UNKNOWN_SIZE:
            flags |= Characteristics.SIZED | Characteristics.SUBSIZED
        return flags

    def describe(self) -> dict:
        """Plan entry for ``Stream.explain()``."""
        if self._combine is None:
            combine = "pairs"
        elif self._is_ufunc:
            combine = "ufunc"
        else:
            combine = getattr(self._combine, "__name__", "callable")
        return {
            "kind": "zip",
            "combine": combine,
            "left": self._left.describe(),
            "right": self._right.describe(),
        }
