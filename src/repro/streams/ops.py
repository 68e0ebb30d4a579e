"""Pipeline stages and the fused sink chain.

Java streams fuse intermediate operations into a chain of ``Sink`` objects:
each stage wraps the downstream sink so that a single traversal of the
source pushes every element through the whole chain (``map`` → ``filter`` →
… → terminal) without intermediate collections.  We reproduce that design:

* :class:`Sink` — receiver protocol with ``begin``/``accept``/``end`` and
  short-circuit polling (``cancellation_requested``);
* :class:`Op` subclasses — one per intermediate operation, each able to
  wrap a downstream sink; *stateful* ops additionally expose
  ``apply_to_buffer`` used by parallel execution as a barrier.

Bulk execution (the paper's §V sublist observation, pushed through the
whole chain): when every stage of a non-short-circuiting pipeline is
*chunkable*, traversal switches from one Python call per element per
stage to one call per **chunk** per stage — ``map`` becomes a C-level
``map()``, ``filter`` a comprehension, ``to_list`` an ``extend``.  The
selection is automatic and semantics-preserving; stateful or
short-circuiting stages fall back to the per-element path.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.common import IllegalArgumentError
from repro.obs.profile import current_profiler
from repro.streams.config import EngineConfig
from repro.streams.spliterator import Spliterator

try:  # numpy is a hard dependency of the repo, but keep ops importable without it
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

T = TypeVar("T")
U = TypeVar("U")


class Sink(Generic[T]):
    """Consumer of a stream stage's output.

    ``begin(size)`` announces the (possibly unknown, -1) number of elements
    to come; ``accept`` receives each element; ``end`` flushes; a True
    ``cancellation_requested`` asks upstream to stop sending (used by
    ``limit`` and the matching terminal ops).
    """

    def begin(self, size: int) -> None:
        """Prepare to receive up to ``size`` elements (-1 when unknown)."""

    def accept(self, item: T) -> None:
        """Receive one element."""

    def accept_chunk(self, chunk: Sequence[T]) -> None:
        """Receive a whole sublist in encounter order.

        The default loops over :meth:`accept`, so any sink is chunk-safe;
        chunk-aware stages override this with a bulk rewrite and forward a
        transformed chunk downstream in a single call.
        """
        accept = self.accept
        for item in chunk:
            accept(item)

    def end(self) -> None:
        """Flush after the last element."""

    def cancellation_requested(self) -> bool:
        """True when no further elements are wanted."""
        return False


class ChainedSink(Sink[T]):
    """A sink stage that forwards (possibly transformed) output downstream."""

    __slots__ = ("downstream",)

    def __init__(self, downstream: Sink) -> None:
        self.downstream = downstream

    def begin(self, size: int) -> None:
        self.downstream.begin(size)

    def end(self) -> None:
        self.downstream.end()

    def cancellation_requested(self) -> bool:
        return self.downstream.cancellation_requested()


class TerminalSink(Sink[T]):
    """A sink that also yields a result once traversal finishes."""

    def get(self) -> Any:
        """The terminal operation's result."""
        raise NotImplementedError


class Op(abc.ABC):
    """An intermediate operation (one pipeline stage)."""

    #: Stateful ops need the whole (prefix) result before emitting and act
    #: as barriers in parallel execution.
    stateful: bool = False
    #: Short-circuiting ops may stop the traversal early.
    short_circuit: bool = False
    #: Chunkable ops have a bulk ``accept_chunk`` rewrite; a pipeline whose
    #: stages are all chunkable (and none short-circuiting) is eligible for
    #: the chunked fast path.
    chunkable: bool = False
    #: Short-circuiting stages that manage their own cut point at chunk
    #: granularity (counted fused kernels: ``limit``/``skip`` compiled into
    #: a run).  ``select_mode`` lets a pipeline whose only short-circuit
    #: stages absorb their cut ride the chunked path — the per-chunk
    #: ``cancellation_requested`` poll of ``copy_into_chunked`` stops the
    #: traversal at the exact chunk the kernel cut.
    absorbs_short_circuit: bool = False

    @abc.abstractmethod
    def wrap_sink(self, downstream: Sink) -> Sink:
        """Fuse this op in front of ``downstream``."""

    def apply_to_buffer(self, buffer: list) -> list:
        """Barrier semantics for parallel execution (stateful ops only)."""
        raise NotImplementedError(f"{type(self).__name__} is stateless")


# --------------------------------------------------------------------------- #
# Stateless ops
# --------------------------------------------------------------------------- #


class MapOp(Op):
    """``map(f)`` — transform each element."""

    chunkable = True

    def __init__(self, f: Callable[[T], U]) -> None:
        self.f = f

    def wrap_sink(self, downstream: Sink) -> Sink:
        f = self.f
        # A numpy ufunc applied to an ndarray chunk is a single vectorized
        # call with per-element semantics; arbitrary callables are mapped
        # element-wise (C-level ``map``) so chunked results match the
        # per-element path exactly.
        is_ufunc = _np is not None and isinstance(f, _np.ufunc)

        class _MapSink(ChainedSink):
            def accept(self, item):
                self.downstream.accept(f(item))

            def accept_chunk(self, chunk):
                if is_ufunc and isinstance(chunk, _np.ndarray):
                    self.downstream.accept_chunk(f(chunk))
                else:
                    self.downstream.accept_chunk(list(map(f, chunk)))

        return _MapSink(downstream)


class FilterOp(Op):
    """``filter(predicate)`` — keep only matching elements."""

    chunkable = True

    def __init__(self, predicate: Callable[[T], bool]) -> None:
        self.predicate = predicate

    def wrap_sink(self, downstream: Sink) -> Sink:
        predicate = self.predicate

        class _FilterSink(ChainedSink):
            def begin(self, size):
                # Filtering invalidates any size promise.
                self.downstream.begin(-1)

            def accept(self, item):
                if predicate(item):
                    self.downstream.accept(item)

            def accept_chunk(self, chunk):
                self.downstream.accept_chunk([x for x in chunk if predicate(x)])

        return _FilterSink(downstream)


class FlatMapOp(Op):
    """``flat_map(f)`` — explode each element into an iterable of outputs."""

    chunkable = True

    def __init__(self, f: Callable[[T], Iterable[U]]) -> None:
        self.f = f

    def wrap_sink(self, downstream: Sink) -> Sink:
        f = self.f

        class _FlatMapSink(ChainedSink):
            def begin(self, size):
                self.downstream.begin(-1)

            def accept(self, item):
                down = self.downstream
                for out in f(item):
                    if down.cancellation_requested():
                        break
                    down.accept(out)

            def accept_chunk(self, chunk):
                # The chunked path never runs in a short-circuiting
                # pipeline, so the per-output cancellation poll of
                # ``accept`` is unnecessary here.
                out: list = []
                extend = out.extend
                for item in chunk:
                    extend(f(item))
                self.downstream.accept_chunk(out)

        return _FlatMapSink(downstream)


class PeekOp(Op):
    """``peek(action)`` — observe elements without changing them."""

    chunkable = True

    def __init__(self, action: Callable[[T], None]) -> None:
        self.action = action

    def wrap_sink(self, downstream: Sink) -> Sink:
        action = self.action

        class _PeekSink(ChainedSink):
            def accept(self, item):
                action(item)
                self.downstream.accept(item)

            def accept_chunk(self, chunk):
                for item in chunk:
                    action(item)
                self.downstream.accept_chunk(chunk)

        return _PeekSink(downstream)


class MapMultiOp(Op):
    """``map_multi(f)`` (Java 16): ``f(item, emit)`` pushes 0..n outputs.

    A consumer-driven flat map — cheaper than building an intermediate
    iterable when most elements expand to zero or one output.
    """

    chunkable = True

    def __init__(self, f: Callable[[T, Callable[[U], None]], None]) -> None:
        self.f = f

    def wrap_sink(self, downstream: Sink) -> Sink:
        f = self.f

        class _MapMultiSink(ChainedSink):
            def begin(self, size):
                self.downstream.begin(-1)

            def accept(self, item):
                f(item, self.downstream.accept)

            def accept_chunk(self, chunk):
                out: list = []
                emit = out.append
                for item in chunk:
                    f(item, emit)
                self.downstream.accept_chunk(out)

        return _MapMultiSink(downstream)


# --------------------------------------------------------------------------- #
# Stateful ops
# --------------------------------------------------------------------------- #


class SortedOp(Op):
    """``sorted(key=..., reverse=...)`` — emit elements in sorted order.

    Chunkable as a *terminal barrier with a fused prefix*: the buffering
    phase accepts whole chunks (one ``extend`` per chunk), so a stateless
    run feeding ``sorted`` still compiles and rides the bulk path; the
    ordered emission in ``end`` stays per-element with cancellation polls.
    """

    stateful = True
    chunkable = True

    def __init__(self, key: Callable[[T], Any] | None = None, reverse: bool = False) -> None:
        self.key = key
        self.reverse = reverse

    def wrap_sink(self, downstream: Sink) -> Sink:
        op = self

        class _SortedSink(ChainedSink):
            def begin(self, size):
                self.buffer: list = []

            def accept(self, item):
                self.buffer.append(item)

            def accept_chunk(self, chunk):
                self.buffer.extend(chunk)

            def end(self):
                out = sorted(self.buffer, key=op.key, reverse=op.reverse)
                down = self.downstream
                down.begin(len(out))
                for item in out:
                    if down.cancellation_requested():
                        break
                    down.accept(item)
                down.end()

            def cancellation_requested(self):
                # Must see every element before sorting; never cancel upstream.
                return False

        return _SortedSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        return sorted(buffer, key=self.key, reverse=self.reverse)


class DistinctOp(Op):
    """``distinct()`` — drop duplicates, keeping first occurrences."""

    stateful = True

    def wrap_sink(self, downstream: Sink) -> Sink:
        class _DistinctSink(ChainedSink):
            def begin(self, size):
                self.seen: set = set()
                self.downstream.begin(-1)

            def accept(self, item):
                if item not in self.seen:
                    self.seen.add(item)
                    self.downstream.accept(item)

        return _DistinctSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        return list(dict.fromkeys(buffer))


class LimitOp(Op):
    """``limit(n)`` — truncate after the first ``n`` elements."""

    stateful = True
    short_circuit = True

    def __init__(self, n: int) -> None:
        if n < 0:
            raise IllegalArgumentError(f"limit must be >= 0, got {n}")
        self.n = n

    def wrap_sink(self, downstream: Sink) -> Sink:
        n = self.n

        class _LimitSink(ChainedSink):
            def begin(self, size):
                self.remaining = n
                self.downstream.begin(min(size, n) if size >= 0 else -1)

            def accept(self, item):
                if self.remaining > 0:
                    self.remaining -= 1
                    self.downstream.accept(item)

            def cancellation_requested(self):
                return self.remaining <= 0 or self.downstream.cancellation_requested()

        return _LimitSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        return buffer[: self.n]


class SkipOp(Op):
    """``skip(n)`` — drop the first ``n`` elements."""

    stateful = True

    def __init__(self, n: int) -> None:
        if n < 0:
            raise IllegalArgumentError(f"skip must be >= 0, got {n}")
        self.n = n

    def wrap_sink(self, downstream: Sink) -> Sink:
        n = self.n

        class _SkipSink(ChainedSink):
            def begin(self, size):
                self.to_skip = n
                self.downstream.begin(max(size - n, 0) if size >= 0 else -1)

            def accept(self, item):
                if self.to_skip > 0:
                    self.to_skip -= 1
                else:
                    self.downstream.accept(item)

        return _SkipSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        return buffer[self.n :]


class TakeWhileOp(Op):
    """``take_while(predicate)`` — longest matching prefix (Java 9)."""

    stateful = True
    short_circuit = True

    def __init__(self, predicate: Callable[[T], bool]) -> None:
        self.predicate = predicate

    def wrap_sink(self, downstream: Sink) -> Sink:
        predicate = self.predicate

        class _TakeWhileSink(ChainedSink):
            def begin(self, size):
                self.taking = True
                self.downstream.begin(-1)

            def accept(self, item):
                if self.taking:
                    if predicate(item):
                        self.downstream.accept(item)
                    else:
                        self.taking = False

            def cancellation_requested(self):
                return not self.taking or self.downstream.cancellation_requested()

        return _TakeWhileSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        out = []
        for item in buffer:
            if not self.predicate(item):
                break
            out.append(item)
        return out


class DropWhileOp(Op):
    """``drop_while(predicate)`` — complement of ``take_while`` (Java 9)."""

    stateful = True

    def __init__(self, predicate: Callable[[T], bool]) -> None:
        self.predicate = predicate

    def wrap_sink(self, downstream: Sink) -> Sink:
        predicate = self.predicate

        class _DropWhileSink(ChainedSink):
            def begin(self, size):
                self.dropping = True
                self.downstream.begin(-1)

            def accept(self, item):
                if self.dropping:
                    if predicate(item):
                        return
                    self.dropping = False
                self.downstream.accept(item)

        return _DropWhileSink(downstream)

    def apply_to_buffer(self, buffer: list) -> list:
        out = []
        dropping = True
        for item in buffer:
            if dropping:
                if self.predicate(item):
                    continue
                dropping = False
            out.append(item)
        return out


# --------------------------------------------------------------------------- #
# Terminal sinks
# --------------------------------------------------------------------------- #


class AccumulatorSink(TerminalSink):
    """Terminal sink folding elements into a mutable container.

    Shared by every executor's ``collect`` leaves.  When the
    collector supplies a chunk accumulator (``to_list`` → ``extend``,
    ``counting`` → ``+= len``, …) whole chunks fold in one call; otherwise
    chunks fall back to an in-sink per-element loop.
    """

    __slots__ = ("container", "_accumulate", "_accumulate_chunk", "_cancel")

    def __init__(
        self,
        container: Any,
        accumulate: Callable[[Any, Any], None],
        accumulate_chunk: Callable[[Any, Sequence], None] | None = None,
        cancel: Any = None,
    ) -> None:
        self.container = container
        self._accumulate = accumulate
        self._accumulate_chunk = accumulate_chunk
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        self._accumulate(self.container, item)

    def accept_chunk(self, chunk: Sequence) -> None:
        if self._accumulate_chunk is not None:
            self._accumulate_chunk(self.container, chunk)
        else:
            accumulate, container = self._accumulate, self.container
            for item in chunk:
                accumulate(container, item)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def get(self) -> Any:
        return self.container


class ReducingSink(TerminalSink):
    """Terminal sink for immutable reduction (``Stream.reduce``).

    Keeps ``(value, seen_any)``; chunks fold through ``functools.reduce``
    (one C-level loop) instead of one sink call per element.  Like
    :class:`AccumulatorSink`, it stops when the ``cancel`` token is set.
    """

    __slots__ = ("value", "seen", "_op", "_cancel")

    def __init__(self, op: Callable[[Any, Any], Any], identity: Any = None,
                 has_identity: bool = False, cancel: Any = None) -> None:
        self.value = identity
        self.seen = has_identity
        self._op = op
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        if self.seen:
            self.value = self._op(self.value, item)
        else:
            self.value = item
            self.seen = True

    def accept_chunk(self, chunk: Sequence) -> None:
        it = iter(chunk)
        if not self.seen:
            for first in it:
                self.value = first
                self.seen = True
                break
            else:
                return
        self.value = functools.reduce(self._op, it, self.value)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def get(self) -> Any:
        return self.value


# --------------------------------------------------------------------------- #
# Traversal
# --------------------------------------------------------------------------- #

#: Maximum number of elements handed to the sink chain per chunk.  Bounds
#: the transient per-stage buffers while amortizing per-chunk dispatch.
CHUNK_SIZE = 1 << 16

_bulk_stats = {"chunked": 0, "element": 0}


def bulk_stats(reset: bool = False) -> dict[str, int]:
    """Counts of traversals taken by each path (advisory; used by tests and
    benches to prove the fast path engaged)."""
    snapshot = dict(_bulk_stats)
    if reset:
        _bulk_stats["chunked"] = 0
        _bulk_stats["element"] = 0
    return snapshot


def wrap_ops(ops: list[Op], terminal: Sink) -> Sink:
    """Fuse ``ops`` (pipeline order) in front of the terminal sink."""
    sink = terminal
    for op in reversed(ops):
        sink = op.wrap_sink(sink)
    return sink


def copy_into(spliterator: Spliterator, sink: Sink, short_circuit: bool) -> None:
    """Push every element of ``spliterator`` through ``sink``.

    ``short_circuit`` selects element-at-a-time traversal with cancellation
    polling; otherwise the bulk ``for_each_remaining`` fast path is used.
    """
    size = spliterator.get_exact_size_if_known()
    sink.begin(size)
    if short_circuit:
        if not sink.cancellation_requested():
            while spliterator.try_advance(sink.accept):
                if sink.cancellation_requested():
                    break
    else:
        spliterator.for_each_remaining(sink.accept)
    sink.end()


def copy_into_chunked(
    spliterator: Spliterator, sink: Sink, max_chunk: int = CHUNK_SIZE
) -> None:
    """Drain ``spliterator`` into ``sink`` chunk-at-a-time.

    Each ``next_chunk`` sublist crosses the fused chain in O(stages) Python
    calls; correctness requires a non-short-circuiting pipeline (the only
    cancellation polling is one ``cancellation_requested`` call per chunk,
    which lets a fork/join leaf abort promptly when a sibling leaf has
    failed — see the fail-fast contract in ``repro.streams.parallel``).
    """
    sink.begin(spliterator.get_exact_size_if_known())
    next_chunk = spliterator.next_chunk
    accept_chunk = sink.accept_chunk
    cancelled = sink.cancellation_requested
    while not cancelled():
        chunk = next_chunk(max_chunk)
        if chunk is None or len(chunk) == 0:
            break
        accept_chunk(chunk)
    sink.end()


def pipeline_is_short_circuit(ops: list[Op]) -> bool:
    """True if any stage may cancel the traversal early."""
    return any(op.short_circuit for op in ops)


def pipeline_supports_chunks(ops: list[Op]) -> bool:
    """True if every stage has a bulk ``accept_chunk`` rewrite."""
    return all(op.chunkable for op in ops)


def pipeline_absorbs_short_circuit(ops: list[Op]) -> bool:
    """True if every short-circuiting stage manages its own cut point.

    Counted fused kernels (``limit``/``skip`` compiled into a run) slice
    their chunks at the exact cut and report exhaustion through
    ``cancellation_requested``, so the chunked traversal — which polls once
    per chunk — terminates at the right chunk and the kernel discards the
    overshoot within it.  Raw ``LimitOp`` / ``take_while`` do not, and keep
    the per-element path.
    """
    return all(
        not op.short_circuit or op.absorbs_short_circuit for op in ops
    )


def select_mode(
    ops: list[Op], config: EngineConfig, force_short_circuit: bool = False
) -> str:
    """The single mode-selection decision for a (fused) op chain.

    Returns ``"short_circuit"`` (per-element with polling), ``"chunked"``
    (bulk path, only while ``config.bulk``), or ``"element"``.  Shared
    verbatim by :func:`run_pipeline` and ``Stream.explain()``.
    """
    if force_short_circuit:
        return "short_circuit"
    if pipeline_is_short_circuit(ops):
        if (
            config.bulk
            and pipeline_supports_chunks(ops)
            and pipeline_absorbs_short_circuit(ops)
        ):
            return "chunked"
        return "short_circuit"
    if config.bulk and pipeline_supports_chunks(ops):
        return "chunked"
    return "element"


def run_pipeline(
    spliterator: Spliterator,
    ops: list[Op],
    terminal: Sink,
    config: EngineConfig,
    force_short_circuit: bool = False,
    chunk_size: int | None = None,
) -> Sink:
    """The single traversal entry point for sequential terminals and
    fork/join leaves, under the run's ``config``.

    First rewrites ``ops`` through the stage-fusion optimizer (runs of
    adjacent stateless ops collapse into single compiled stages — see
    :mod:`repro.streams.fusion`), then wraps the chain around ``terminal``
    and picks the execution mode:

    * short-circuiting pipeline (or a cancelling terminal, signalled by
      ``force_short_circuit``) → per-element traversal with polling;
    * all stages chunkable and ``config.bulk`` → chunked traversal;
    * otherwise (stateful stages in the chain) → per-element bulk
      ``for_each_remaining``.

    ``chunk_size`` overrides the default ``next_chunk`` granularity on the
    chunked path (the adaptive split policy derives it from observed
    per-element cost); None keeps :data:`CHUNK_SIZE`.

    Returns ``terminal`` so callers can read its result.
    """
    ops = _fusion.maybe_fuse(ops, config)
    mode = select_mode(ops, config, force_short_circuit)
    _bulk_stats["chunked" if mode == "chunked" else "element"] += 1
    profiler = current_profiler()
    probes = labels = None
    if profiler is not None and profiler.sample():
        sink, probes, labels = profiler.instrument(ops, terminal)
    else:
        sink = wrap_ops(ops, terminal)
    if mode == "chunked":
        copy_into_chunked(spliterator, sink, chunk_size or CHUNK_SIZE)
    else:
        copy_into(spliterator, sink, mode == "short_circuit")
    if profiler is not None:
        fused = sum(1 for op in ops if type(op) is _fusion.FusedOp)
        profiler.profile.record_traversal(mode, probes, labels, fused)
    return terminal


def pull_iterator(spliterator: Spliterator, sink: Sink, buffer) -> "Iterable":
    """Lazily drive ``spliterator`` into ``sink``, yielding from ``buffer``.

    The generator behind ``Stream.iterator()``: per-element by design —
    chunk prefetch would eagerly run side effects (``peek``) and break
    laziness over infinite sources.  Lives here so every sequential
    traversal loop is owned by this module.
    """
    popleft = buffer.popleft
    while True:
        while buffer:
            yield popleft()
        if sink.cancellation_requested():
            # A satisfied short-circuit still ends the chain: a barrier
            # downstream of the limit (e.g. ``sorted``) holds admitted
            # elements it only emits on ``end()`` — same contract as the
            # chunked driver.
            sink.end()
            while buffer:
                yield popleft()
            break
        if not spliterator.try_advance(sink.accept):
            sink.end()
            while buffer:
                yield popleft()
            break


# Imported last: ``fusion`` depends on the Op/Sink vocabulary above, and
# ``run_pipeline`` resolves ``_fusion.maybe_fuse`` at call time, so the
# circular module reference is harmless in either import order.
from repro.streams import fusion as _fusion  # noqa: E402
