"""Pipeline stage fusion: collapse runs of adjacent stateless ops.

The sink-chain design (one ``Op`` → one ``Sink`` per stage) is faithful to
Java but pays one Python dispatch *per stage* per element — and, on the
chunked bulk path, one intermediate list *per stage* per chunk.  That
per-stage dispatch is exactly the cost "Stream Fusion, to Completeness"
(Kiselyov et al.) and the ``mapMulti``-fusion line of work identify as the
dominant overhead of streaming APIs.

This module rewrites the op chain once, at terminal time (before mode
selection in :func:`repro.streams.ops.run_pipeline`): every maximal run of
adjacent *fusible* ops (``map`` / ``filter`` / ``peek`` / ``flat_map`` /
``map_multi`` / ``limit`` / ``skip`` / ``distinct``) collapses into a
single :class:`FusedOp` whose kernels are **generated and compiled** from
the run (see :func:`_kernel_class` for the kernel taxonomy):

* the per-element kernel emits straight-line code — nested calls, an
  early-out per filter, a loop per expander, budget guards per counted
  stage — so one sink dispatch covers the whole run;
* the chunk kernel emits one comprehension (or one statement loop when the
  run contains ``peek`` / ``map_multi`` / stateful stages) that crosses
  the run in a single pass, with **zero** intermediate per-stage lists —
  stacking with the bulk-execution path of PR 2 instead of bypassing it;
* counted ops (``limit``/``skip``) compile to *counted kernels*:
  over a pure-map run they hoist to one source-index window sliced off
  each chunk (``counted-window``); in a general run a statement loop cuts
  at the exact element (``counted-loop``).  Either way the fused sink
  reports exhaustion via ``cancellation_requested``, so short-circuit
  chains ride the chunked path end to end;
* a prefix of numpy-ufunc maps applied to an ndarray chunk stays
  vectorized; when the run is ufunc-only end to end it compiles to a
  single whole-array numpy expression (``whole-array``).

Fusion is semantics-preserving by construction:

* the stateful ops without a kernel form (``sorted``, ``take_while``,
  ``drop_while``) are **fusion barriers** — runs never cross them;
* encounter order is preserved (stages compose in pipeline order);
* short-circuiting still works: the fused kernel polls the downstream
  ``cancellation_requested`` between the outputs of an expander, exactly
  where the unfused ``FlatMapSink`` polls, so ``flat_map`` over an
  infinite iterable under ``limit`` still terminates;
* ``begin(size)`` forwards the size through the run's size algebra
  (identity for ``map``/``peek``, clamped by ``limit``/``skip``, unknown
  past ``filter``/expanders/``distinct``), mirroring the unfused chain;
* per-traversal kernel state (budgets, seen-sets) is created in the
  sink's ``begin``, so one compiled ``FusedOp`` is shared safely across
  fork/join leaves.

The rewrite runs when the run's :class:`~repro.streams.config.EngineConfig`
has ``fusion`` set (``with engine(fusion=False):`` turns it off), and
:func:`fusion_stats` counts rewritten pipelines and collapsed stages.
Each rewrite emits a ``fuse`` span through :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache
from typing import Callable, Sequence

from repro.obs.tracer import EXTERNAL_WORKER, current_tracer
from repro.streams.config import EngineConfig
from repro.streams.ops import (
    ChainedSink,
    DistinctOp,
    FilterOp,
    FlatMapOp,
    LimitOp,
    MapMultiOp,
    MapOp,
    Op,
    PeekOp,
    Sink,
    SkipOp,
)
from repro.streams.spliterators import slice_source

try:  # numpy is a hard dependency of the repo, but keep fusion importable
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Stage kinds a fused run may contain, in dispatch order.  Counted ops
#: (``limit``/``skip``) and ``distinct`` join runs since PR 10: their
#: per-traversal state lives in a kernel state vector created per sink, so
#: the compiled kernels stay shareable across fork/join leaves.
_FUSIBLE_TYPES = (
    MapOp, FilterOp, PeekOp, FlatMapOp, MapMultiOp,
    LimitOp, SkipOp, DistinctOp,
)

#: Counted ops force emission of a FusedOp even for a length-1 run: a lone
#: compiled ``limit`` rides the chunked path (window slicing + per-chunk
#: cancellation), which a raw ``LimitOp`` cannot.
_COUNTED_TYPES = (LimitOp, SkipOp)

#: Stage kinds that carry per-traversal kernel state.
_STATEFUL_KINDS = ("limit", "skip", "distinct")

#: Minimum run length worth collapsing — wrapping a single stateless op in
#: a ``FusedOp`` would only add indirection (counted runs are exempt).
MIN_RUN = 2


# --------------------------------------------------------------------------- #
# Kernel code generation
# --------------------------------------------------------------------------- #
#
# A fused run compiles to at most three functions:
#
#   element kernel   k(item, _accept, _cancelled)   — per-element path
#   chunk kernel     k(chunk) -> list               — bulk path
#   ufunc prefix     applied before the chunk kernel on ndarray chunks
#
# Sources depend only on the *shape* of the run (the sequence of stage
# kinds), so compiled code objects are cached by source; the stage
# callables are bound per-``FusedOp`` through the exec namespace.


def _stage_kind(op: Op) -> str:
    if type(op) is MapOp:
        return "map"
    if type(op) is FilterOp:
        return "filter"
    if type(op) is PeekOp:
        return "peek"
    if type(op) is FlatMapOp:
        return "flat_map"
    if type(op) is MapMultiOp:
        return "map_multi"
    if type(op) is LimitOp:
        return "limit"
    if type(op) is SkipOp:
        return "skip"
    if type(op) is DistinctOp:
        return "distinct"
    raise AssertionError(f"not a fusible op: {type(op).__name__}")


def _stage_fn(op: Op) -> Callable | None:
    """The stage callable bound into the kernel namespace (None for the
    stateful kinds, whose parameters live in the kernel state vector)."""
    if type(op) is PeekOp:
        return op.action
    if type(op) is FilterOp:
        return op.predicate
    if type(op) in (LimitOp, SkipOp, DistinctOp):
        return None
    return op.f


def _state_slots(kinds: Sequence[str]) -> dict[int, int]:
    """Map stage index -> state-vector slot for the stateful kinds."""
    slots: dict[int, int] = {}
    for i, kind in enumerate(kinds):
        if kind in _STATEFUL_KINDS:
            slots[i] = len(slots)
    return slots


@lru_cache(maxsize=256)
def _compiled(source: str, name: str):
    """Compile generated kernel source once per run shape."""
    return compile(source, f"<fused:{name}>", "exec")


def _bind(source: str, name: str, fns: Sequence[Callable | None]) -> Callable:
    """Exec a cached code object with this run's stage callables bound."""
    namespace = {
        f"_f{i}": fn for i, fn in enumerate(fns) if fn is not None
    }
    exec(_compiled(source, name), namespace)
    return namespace[name]


def _gen_element_kernel(kinds: Sequence[str]) -> str:
    """Straight-line per-element kernel for the run.

    ``map``/``peek``/``filter`` compile to assignments and early-outs; an
    expander (``flat_map`` / ``map_multi``) opens a loop over its outputs,
    polling ``_cancelled()`` before each downstream emission exactly as
    the unfused ``FlatMapSink`` does.  Stateful stages read/write the
    per-traversal ``_state`` vector: ``limit`` decrements its budget,
    ``skip`` drops while its counter lasts, ``distinct`` keeps a seen-set.
    A limit exhausted before the element enters drops it (as
    ``_LimitSink.accept`` would); a limit downstream of an expander cuts
    the expansion at the exact output the unfused chain would, via the
    per-output budget guard.
    """
    slots = _state_slots(kinds)
    limit_slots = [slots[i] for i, k in enumerate(kinds) if k == "limit"]
    lines = ["def _element(_v0, _accept, _cancelled, _state):"]
    indent = "    "
    var, expanded = "_v0", False
    for j in limit_slots:
        lines.append(f"{indent}if _state[{j}] <= 0:")
        lines.append(f"{indent}    return")
    for i, kind in enumerate(kinds):
        if kind == "map":
            lines.append(f"{indent}_v{i + 1} = _f{i}({var})")
            var = f"_v{i + 1}"
        elif kind == "peek":
            lines.append(f"{indent}_f{i}({var})")
        elif kind == "filter":
            lines.append(f"{indent}if not _f{i}({var}):")
            lines.append(f"{indent}    return" if not expanded
                         else f"{indent}    continue")
        elif kind == "limit":
            lines.append(f"{indent}_state[{slots[i]}] -= 1")
        elif kind == "skip":
            j = slots[i]
            lines.append(f"{indent}if _state[{j}] > 0:")
            lines.append(f"{indent}    _state[{j}] -= 1")
            lines.append(f"{indent}    return" if not expanded
                         else f"{indent}    continue")
        elif kind == "distinct":
            j = slots[i]
            lines.append(f"{indent}if {var} in _state[{j}]:")
            lines.append(f"{indent}    return" if not expanded
                         else f"{indent}    continue")
            lines.append(f"{indent}_state[{j}].add({var})")
        elif kind == "flat_map":
            lines.append(f"{indent}for _v{i + 1} in _f{i}({var}):")
            lines.append(f"{indent}    if _cancelled():")
            lines.append(f"{indent}        break")
            # Only limits *downstream* of this expander can exhaust
            # mid-expansion; an upstream limit already admitted the
            # element and must not clip its outputs.
            for k_i, k in enumerate(kinds):
                if k == "limit" and k_i > i:
                    lines.append(f"{indent}    if _state[{slots[k_i]}] <= 0:")
                    lines.append(f"{indent}        break")
            indent += "    "
            var, expanded = f"_v{i + 1}", True
        else:  # map_multi: buffer the callback-driven outputs, then loop
            lines.append(f"{indent}_b{i} = []")
            lines.append(f"{indent}_f{i}({var}, _b{i}.append)")
            lines.append(f"{indent}for _v{i + 1} in _b{i}:")
            lines.append(f"{indent}    if _cancelled():")
            lines.append(f"{indent}        break")
            for k_i, k in enumerate(kinds):
                if k == "limit" and k_i > i:
                    lines.append(f"{indent}    if _state[{slots[k_i]}] <= 0:")
                    lines.append(f"{indent}        break")
            indent += "    "
            var, expanded = f"_v{i + 1}", True
    lines.append(f"{indent}_accept({var})")
    return "\n".join(lines)


def _gen_chunk_comprehension(kinds: Sequence[str]) -> str:
    """Single-pass comprehension kernel (runs without peek/map_multi).

    ``map`` stages nest as calls inside the output expression, ``filter``
    stages become ``if`` clauses (binding the value so far via ``:=`` when
    it is not yet a bare name), ``flat_map`` stages become nested ``for``
    clauses — one list, zero per-stage intermediates.
    """
    clauses = ["for _v0 in _chunk"]
    expr = "_v0"
    for i, kind in enumerate(kinds):
        if kind == "map":
            expr = f"_f{i}({expr})"
        elif kind == "filter":
            if expr.startswith("_v") and expr[2:].isdigit():
                clauses.append(f"if _f{i}({expr})")
            else:
                clauses.append(f"if _f{i}((_v{i + 1} := {expr}))")
                expr = f"_v{i + 1}"
        else:  # flat_map
            clauses.append(f"for _v{i + 1} in _f{i}({expr})")
            expr = f"_v{i + 1}"
    body = f"[{expr} {' '.join(clauses)}]"
    return f"def _chunk_kernel(_chunk):\n    return {body}"


def _gen_chunk_loop(kinds: Sequence[str]) -> str:
    """Statement-loop chunk kernel for runs containing peek/map_multi or
    stateful stages.

    Stateful runs take a ``_state`` vector parameter; a ``limit`` cuts the
    chunk at the exact element via ``return _out`` — from the per-element
    guard between source elements, or the per-output guard inside an
    expander — so the emitted prefix matches the unfused per-element path
    element for element.
    """
    slots = _state_slots(kinds)
    limit_slots = [slots[i] for i, k in enumerate(kinds) if k == "limit"]
    head = (
        "def _chunk_kernel(_chunk, _state):" if slots
        else "def _chunk_kernel(_chunk):"
    )
    lines = [
        head,
        "    _out = []",
        "    _append = _out.append",
        "    for _v0 in _chunk:",
    ]
    indent = "        "
    var = "_v0"
    for j in limit_slots:
        lines.append(f"{indent}if _state[{j}] <= 0:")
        lines.append(f"{indent}    return _out")
    for i, kind in enumerate(kinds):
        if kind == "map":
            lines.append(f"{indent}_v{i + 1} = _f{i}({var})")
            var = f"_v{i + 1}"
        elif kind == "peek":
            lines.append(f"{indent}_f{i}({var})")
        elif kind == "filter":
            lines.append(f"{indent}if not _f{i}({var}):")
            lines.append(f"{indent}    continue")
        elif kind == "limit":
            lines.append(f"{indent}_state[{slots[i]}] -= 1")
        elif kind == "skip":
            j = slots[i]
            lines.append(f"{indent}if _state[{j}] > 0:")
            lines.append(f"{indent}    _state[{j}] -= 1")
            lines.append(f"{indent}    continue")
        elif kind == "distinct":
            j = slots[i]
            lines.append(f"{indent}if {var} in _state[{j}]:")
            lines.append(f"{indent}    continue")
            lines.append(f"{indent}_state[{j}].add({var})")
        elif kind == "flat_map":
            lines.append(f"{indent}for _v{i + 1} in _f{i}({var}):")
            for k_i, k in enumerate(kinds):
                if k == "limit" and k_i > i:
                    lines.append(f"{indent}    if _state[{slots[k_i]}] <= 0:")
                    lines.append(f"{indent}        return _out")
            indent += "    "
            var = f"_v{i + 1}"
        else:  # map_multi
            lines.append(f"{indent}_b{i} = []")
            lines.append(f"{indent}_f{i}({var}, _b{i}.append)")
            lines.append(f"{indent}for _v{i + 1} in _b{i}:")
            for k_i, k in enumerate(kinds):
                if k == "limit" and k_i > i:
                    lines.append(f"{indent}    if _state[{slots[k_i]}] <= 0:")
                    lines.append(f"{indent}        return _out")
            indent += "    "
            var = f"_v{i + 1}"
    lines.append(f"{indent}_append({var})")
    lines.append("    return _out")
    return "\n".join(lines)


def _gen_whole_array(n: int) -> str:
    """Single-expression kernel composing ``n`` ufunc maps over one ndarray
    chunk — the whole run is one numpy call chain, no Python tail."""
    expr = "_chunk"
    for i in range(n):
        expr = f"_f{i}({expr})"
    return f"def _whole_array(_chunk):\n    return {expr}"


# --------------------------------------------------------------------------- #
# The fused op
# --------------------------------------------------------------------------- #


def _kernel_class(kinds: Sequence[str], fns: Sequence[Callable | None]) -> str:
    """The kernel-class decision — the single function behind both
    execution dispatch (``FusedOp.wrap_sink``) and ``describe()`` /
    ``Stream.explain()``, so plans can never drift from what runs.

    * ``counted-window`` — limit/skip over a pure-map run: the counted ops
      hoist to one source-index window sliced off each chunk;
    * ``counted-loop`` — limit/skip in a general run: a statement loop
      with exact budget cuts;
    * ``stateful-loop`` — ``distinct`` (seen-set state) without counting;
    * ``whole-array`` — ufunc-only maps end to end: one compiled numpy
      expression per ndarray chunk;
    * ``loop`` / ``comprehension`` — the stateless kernels of PR 5.
    """
    if any(k in ("limit", "skip") for k in kinds):
        if all(k in ("map", "limit", "skip") for k in kinds):
            return "counted-window"
        return "counted-loop"
    if "distinct" in kinds:
        return "stateful-loop"
    if (
        _np is not None
        and kinds
        and all(k == "map" for k in kinds)
        and all(isinstance(f, _np.ufunc) for f in fns)
    ):
        return "whole-array"
    if any(k in ("peek", "map_multi") for k in kinds):
        return "loop"
    return "comprehension"


def counted_window(ops: Sequence[Op]) -> tuple[int, int | None] | None:
    """The source-index window ``[lo, hi)`` a ``counted-window`` run keeps.

    Every ``map`` is 1:1, so the counted ops of a run made only of
    ``map``/``limit``/``skip`` compose to one window over the *source*
    positions: ``skip(n)`` advances ``lo``, ``limit(n)`` clamps ``hi``
    (None = unbounded).  Returns None for any other run, including one
    without a counted op.  The single window computation behind the fused
    kernel and the parallel planner (``parallel.plan_segment``).
    """
    lo, hi = 0, None
    counted = False
    for op in ops:
        kind = type(op)
        if kind is SkipOp:
            lo += op.n
            if hi is not None and lo > hi:
                lo = hi
        elif kind is LimitOp:
            hi = lo + op.n if hi is None else min(hi, lo + op.n)
        elif kind is not MapOp:
            return None
        counted = counted or kind is not MapOp
    return (lo, hi) if counted else None


class FusedOp(Op):
    """A run of adjacent fusible ops collapsed into one pipeline stage.

    Supports both traversal modes: per-element ``accept`` runs the
    compiled straight-line kernel (one sink dispatch for the whole run),
    and ``accept_chunk`` crosses the run in a single generated pass.  The
    kernel class (see :func:`_kernel_class`) is decided once at
    construction; counted runs carry their limit/skip budgets in a
    per-traversal state vector created in ``begin``, so one ``FusedOp``
    instance is safely shared across fork/join leaves.
    """

    chunkable = True
    # Counted kernels slice their chunks at the exact cut and surface
    # exhaustion via ``cancellation_requested`` — the per-chunk poll of
    # ``copy_into_chunked`` suffices, so ``select_mode`` may keep a
    # short-circuiting pipeline on the chunked path.
    absorbs_short_circuit = True

    __slots__ = (
        "source_ops", "kinds", "kernel_class", "short_circuit",
        "_element_kernel", "_chunk_kernel", "_ufunc_prefix", "_tail_kernel",
        "_whole_kernel", "_window", "_window_kernel", "_state_spec",
        "_limit_slots", "_size_preserving",
    )

    def __init__(self, source_ops: Sequence[Op]) -> None:
        if not source_ops:
            raise ValueError("FusedOp needs at least one source op")
        self.source_ops = tuple(source_ops)
        self.kinds = tuple(_stage_kind(op) for op in self.source_ops)
        fns = [_stage_fn(op) for op in self.source_ops]
        self.kernel_class = _kernel_class(self.kinds, fns)

        state_spec = []
        for op, kind in zip(self.source_ops, self.kinds):
            if kind in ("limit", "skip"):
                state_spec.append((kind, op.n))
            elif kind == "distinct":
                state_spec.append((kind, 0))
        self._state_spec = tuple(state_spec)
        slots = _state_slots(self.kinds)
        self._limit_slots = tuple(
            slots[i] for i, k in enumerate(self.kinds) if k == "limit"
        )
        self.short_circuit = bool(self._limit_slots)
        self._size_preserving = all(
            k in ("map", "peek") for k in self.kinds
        )
        self._element_kernel = _bind(
            _gen_element_kernel(self.kinds), "_element", fns
        )

        self._chunk_kernel = None
        self._ufunc_prefix: tuple = ()
        self._tail_kernel = None
        self._whole_kernel = None
        self._window = None
        self._window_kernel = None

        kc = self.kernel_class
        if kc == "counted-window":
            # The chunk path slices the source-index window off each chunk
            # and only then applies the map kernel.
            self._window = counted_window(self.source_ops)
            map_fns = [f for f in fns if f is not None]
            if map_fns:
                self._window_kernel = _bind(
                    _gen_chunk_comprehension(("map",) * len(map_fns)),
                    "_chunk_kernel", map_fns,
                )
                if _np is not None and all(
                    isinstance(f, _np.ufunc) for f in map_fns
                ):
                    self._whole_kernel = _bind(
                        _gen_whole_array(len(map_fns)),
                        "_whole_array", map_fns,
                    )
                    self._ufunc_prefix = tuple(map_fns)
        elif kc in ("counted-loop", "stateful-loop"):
            self._chunk_kernel = _bind(
                _gen_chunk_loop(self.kinds), "_chunk_kernel", fns
            )
        else:
            if kc == "loop":
                chunk_src = _gen_chunk_loop(self.kinds)
            else:
                chunk_src = _gen_chunk_comprehension(self.kinds)
            self._chunk_kernel = _bind(chunk_src, "_chunk_kernel", fns)

            # Vectorized prefix: the longest leading run of ufunc maps.
            # On an ndarray chunk those apply as chained array ops; the
            # compiled kernel for the remaining tail (if any) handles the
            # rest.  When the prefix covers the whole run the composition
            # compiles to a single whole-array expression.
            n_ufunc = 0
            if _np is not None:
                for op in self.source_ops:
                    if type(op) is MapOp and isinstance(op.f, _np.ufunc):
                        n_ufunc += 1
                    else:
                        break
            self._ufunc_prefix = tuple(fns[:n_ufunc])
            if kc == "whole-array":
                self._whole_kernel = _bind(
                    _gen_whole_array(len(fns)), "_whole_array", fns
                )
            elif 0 < n_ufunc < len(self.kinds):
                tail_kinds = self.kinds[n_ufunc:]
                if any(k in ("peek", "map_multi") for k in tail_kinds):
                    tail_src = _gen_chunk_loop(tail_kinds)
                else:
                    tail_src = _gen_chunk_comprehension(tail_kinds)
                self._tail_kernel = _bind(
                    tail_src, "_chunk_kernel", fns[n_ufunc:]
                )

    def __repr__(self) -> str:
        return f"FusedOp({' | '.join(self.kinds)})"

    def _make_state(self) -> list:
        """A fresh per-traversal state vector (one slot per stateful
        stage: remaining budget for limit/skip, seen-set for distinct)."""
        return [
            set() if kind == "distinct" else n
            for kind, n in self._state_spec
        ]

    def _project_size(self, size: int) -> int:
        """Forward ``begin(size)`` through the run's size algebra."""
        if size < 0:
            return -1
        it = iter(self._state_spec)
        for kind in self.kinds:
            if kind in ("map", "peek"):
                continue
            if kind == "limit":
                size = min(size, next(it)[1])
            elif kind == "skip":
                size = max(size - next(it)[1], 0)
            else:
                return -1
        return size

    def describe(self) -> dict:
        """Kernel-shape summary for ``Stream.explain()`` / tooling.

        ``kernel`` is :attr:`kernel_class` — the very value execution
        dispatches on, not a re-derivation.
        """
        out = {
            "stages": list(self.kinds),
            "kernel": self.kernel_class,
            "ufunc_prefix": len(self._ufunc_prefix),
            "size_preserving": self._size_preserving,
        }
        if self._window is not None:
            out["window"] = [self._window[0], self._window[1]]
        return out

    def wrap_sink(self, downstream: Sink) -> Sink:
        element_kernel = self._element_kernel
        down_accept = downstream.accept
        down_accept_chunk = downstream.accept_chunk
        down_cancelled = downstream.cancellation_requested

        if not self._state_spec:
            chunk_kernel = self._chunk_kernel
            ufunc_prefix = self._ufunc_prefix
            tail_kernel = self._tail_kernel
            whole_kernel = self._whole_kernel
            size_preserving = self._size_preserving

            class _FusedSink(ChainedSink):
                def begin(self, size):
                    self.downstream.begin(size if size_preserving else -1)

                def accept(self, item):
                    element_kernel(item, down_accept, down_cancelled, None)

                def accept_chunk(self, chunk):
                    if ufunc_prefix and isinstance(chunk, _np.ndarray):
                        if whole_kernel is not None:
                            down_accept_chunk(whole_kernel(chunk))
                            return
                        for ufunc in ufunc_prefix:
                            chunk = ufunc(chunk)
                        if tail_kernel is not None:
                            chunk = tail_kernel(chunk)
                        down_accept_chunk(chunk)
                        return
                    down_accept_chunk(chunk_kernel(chunk))

            return _FusedSink(downstream)

        make_state = self._make_state
        limit_slots = self._limit_slots
        project = self._project_size

        if self._window is not None:
            wlo, whi = self._window
            window_kernel = self._window_kernel
            whole_kernel = self._whole_kernel

            class _CountedWindowSink(ChainedSink):
                def __init__(self, downstream):
                    super().__init__(downstream)
                    self._pos = 0
                    self._state = make_state()

                def begin(self, size):
                    self._pos = 0
                    self._state = make_state()
                    self.downstream.begin(project(size))

                def accept(self, item):
                    element_kernel(
                        item, down_accept, down_cancelled, self._state
                    )

                def accept_chunk(self, chunk):
                    pos = self._pos
                    ln = len(chunk)
                    self._pos = pos + ln
                    lo = wlo - pos
                    if lo < 0:
                        lo = 0
                    hi = ln if whi is None else whi - pos
                    if hi > ln:
                        hi = ln
                    if lo >= hi:
                        return
                    if lo > 0 or hi < ln:
                        # ndarray/range slices are views — the window cut
                        # costs O(1), and the map kernel only ever touches
                        # elements inside the window.
                        chunk = slice_source(chunk, lo, hi)
                    if whole_kernel is not None and isinstance(
                        chunk, _np.ndarray
                    ):
                        chunk = whole_kernel(chunk)
                    elif window_kernel is not None:
                        chunk = window_kernel(chunk)
                    down_accept_chunk(chunk)

                def cancellation_requested(self):
                    if whi is not None and self._pos >= whi:
                        return True
                    state = self._state
                    for j in limit_slots:
                        if state[j] <= 0:
                            return True
                    return down_cancelled()

            return _CountedWindowSink(downstream)

        chunk_kernel = self._chunk_kernel

        class _StatefulFusedSink(ChainedSink):
            def __init__(self, downstream):
                super().__init__(downstream)
                self._state = make_state()

            def begin(self, size):
                self._state = make_state()
                self.downstream.begin(project(size))

            def accept(self, item):
                element_kernel(
                    item, down_accept, down_cancelled, self._state
                )

            def accept_chunk(self, chunk):
                down_accept_chunk(chunk_kernel(chunk, self._state))

            def cancellation_requested(self):
                state = self._state
                for j in limit_slots:
                    if state[j] <= 0:
                        return True
                return down_cancelled()

        return _StatefulFusedSink(downstream)


# --------------------------------------------------------------------------- #
# The rewrite
# --------------------------------------------------------------------------- #


def fuse_ops(ops: list[Op]) -> tuple[list[Op], int]:
    """Collapse every maximal run of adjacent fusible ops.

    A run is emitted as a :class:`FusedOp` when it has >= MIN_RUN stages,
    or when it contains a counted op (``limit``/``skip``) — compiling even
    a lone ``limit`` moves the pipeline from per-element polling to the
    chunked counted kernel.  Returns ``(rewritten_ops, stages_fused)`` —
    the original list object is returned (with 0) when nothing fuses.
    Remaining stateful kinds (``sorted``, ``take_while``, ``drop_while``)
    and unknown ops are barriers and pass through unchanged;
    already-:class:`FusedOp` stages are barriers too, making the rewrite
    idempotent.
    """
    out: list[Op] = []
    run: list[Op] = []
    fused_stages = 0

    def flush() -> None:
        nonlocal fused_stages
        if len(run) >= MIN_RUN or any(
            type(op) in _COUNTED_TYPES for op in run
        ):
            out.append(FusedOp(run))
            fused_stages += len(run)
        else:
            out.extend(run)
        run.clear()

    for op in ops:
        if type(op) in _FUSIBLE_TYPES:
            run.append(op)
        else:
            flush()
            out.append(op)
    flush()
    if fused_stages == 0:
        return ops, 0
    return out, fused_stages


# --------------------------------------------------------------------------- #
# Stats, memo
# --------------------------------------------------------------------------- #

_fusion_stats = {
    "pipelines_fused": 0,   # pipelines rewritten (>= one run collapsed)
    "stages_fused": 0,      # source stages collapsed into FusedOps
    "kernels": 0,           # FusedOp instances created
    "unfused": 0,           # scans that found nothing to collapse
    "memo_hits": 0,         # rewrites answered from the memo
}

#: Identity-keyed memo: parallel terminals hand the *same* ops list to
#: every fork/join leaf, so the rewrite (and kernel compilation) happens
#: once per terminal, not once per leaf.  Values keep strong references
#: to the source ops, so a live entry's ids cannot be recycled.
_MEMO_CAPACITY = 128
_memo: dict[tuple[int, ...], tuple[tuple[Op, ...], list[Op]]] = {}
_memo_lock = threading.Lock()


def fusion_stats(reset: bool = False) -> dict[str, int]:
    """Counts of fusion activity (advisory; pinned by tests and benches)."""
    snapshot = dict(_fusion_stats)
    if reset:
        for key in _fusion_stats:
            _fusion_stats[key] = 0
    return snapshot


def maybe_fuse(ops: list[Op], config: EngineConfig) -> list[Op]:
    """The terminal-time entry point: rewrite ``ops`` if ``config.fusion``.

    Memoized by the identity of the op objects; a rewritten list is also
    memoized to itself, so fork/join leaves re-entering
    ``run_pipeline`` with an already-fused chain resolve in one lookup.
    Emits a ``fuse`` span per actual rewrite when tracing is enabled.
    """
    if not config.fusion or not ops:
        return ops
    key = tuple(map(id, ops))
    entry = _memo.get(key)
    if entry is not None and all(
        a is b for a, b in zip(entry[0], ops)
    ):
        _fusion_stats["memo_hits"] += 1
        return entry[1]

    start = time.perf_counter_ns()
    fused, stages = fuse_ops(ops)
    if stages == 0:
        _fusion_stats["unfused"] += 1
        return ops
    kernels = sum(1 for op in fused if isinstance(op, FusedOp))
    _fusion_stats["pipelines_fused"] += 1
    _fusion_stats["stages_fused"] += stages
    _fusion_stats["kernels"] += kernels

    with _memo_lock:
        if len(_memo) >= _MEMO_CAPACITY:
            _memo.clear()  # tiny, regenerable cache: wholesale reset is fine
        _memo[key] = (tuple(ops), fused)
        # Idempotence fast path for leaves re-submitting the fused list.
        _memo[tuple(map(id, fused))] = (tuple(fused), fused)

    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            "fuse",
            worker=EXTERNAL_WORKER,
            start_ns=start,
            end_ns=time.perf_counter_ns(),
            stages=stages,
            kernels=kernels,
        )
    return fused
