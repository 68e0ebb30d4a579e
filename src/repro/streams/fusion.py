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
the run (see :func:`_kernel_class` for the four kernel classes):

* the per-element kernel emits straight-line code — nested calls, an
  early-out per filter, a loop per expander, budget guards per counted
  stage — so one sink dispatch covers the whole run;
* the chunk kernel crosses the run in a single pass with **zero**
  intermediate per-stage lists: one comprehension (``comprehension``),
  or the per-element kernel's statement loop when the run contains
  ``peek`` / ``map_multi`` / stateful stages (``loop``) — stacking with
  the bulk-execution path instead of bypassing it;
* ``limit``/``skip`` over a pure-map run hoist to one source-index window
  sliced off each chunk (``counted-window``); in any other run the loop
  cuts at the exact element.  Either way the fused sink reports
  exhaustion via ``cancellation_requested``, so short-circuit chains ride
  the chunked path end to end;
* a run's maps are all numpy ufuncs or none (the rewrite splits runs
  where that changes); an all-ufunc run compiles to one whole-array
  numpy expression per ndarray chunk (``whole-array``).

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
  fork/join leaves, terminals and threads.

The rewrite runs when the run's :class:`~repro.streams.config.EngineConfig`
has ``fusion`` set (``with engine(fusion=False):`` turns it off), and is
memoized per chain shape (:data:`_memo`), so a repeated shape compiles
once.  :func:`fusion_stats` counts rewritten pipelines and collapsed
stages; each rewrite that compiles emits a ``fuse`` span through
:mod:`repro.obs`.
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
    chain_key,
    remember,
)
from repro.streams.spliterators import slice_source

try:  # numpy is a hard dependency of the repo, but keep fusion importable
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: The stage kind of each op type a fused run may contain.  Counted ops
#: (``limit``/``skip``) and ``distinct`` keep their per-traversal state in
#: a kernel state vector created per sink, so the compiled kernels stay
#: shareable across fork/join leaves.
_FUSIBLE_TYPES = {
    MapOp: "map",
    FilterOp: "filter",
    PeekOp: "peek",
    FlatMapOp: "flat_map",
    MapMultiOp: "map_multi",
    LimitOp: "limit",
    SkipOp: "skip",
    DistinctOp: "distinct",
}

#: Counted ops force emission of a FusedOp even for a length-1 run: a lone
#: compiled ``limit`` rides the chunked path (window slicing + per-chunk
#: cancellation), which a raw ``LimitOp`` cannot.  They join runs of
#: either ufunc-ness.
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
# A fused run compiles to two functions, both named ``_kernel``:
#
#   element kernel   (_v0, _accept, _cancelled, _state)   — per-element path
#   chunk kernel     (_chunk, _state) -> chunk            — bulk path
#
# ``_state`` is the per-traversal state vector (empty for stateless runs).
# Sources depend only on the *shape* of the run (the sequence of stage
# kinds), so compiled code objects are cached by source; the stage
# callables are bound per-``FusedOp`` through the exec namespace.


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


def _all_ufuncs(fns: Sequence[Callable | None]) -> bool:
    return _np is not None and all(isinstance(f, _np.ufunc) for f in fns)


def _state_slots(kinds: Sequence[str]) -> dict[int, int]:
    """Map stage index -> state-vector slot for the stateful kinds."""
    slots: dict[int, int] = {}
    for i, kind in enumerate(kinds):
        if kind in _STATEFUL_KINDS:
            slots[i] = len(slots)
    return slots


@lru_cache(maxsize=256)
def _compiled(source: str):
    """Compile generated kernel source once per run shape."""
    return compile(source, "<fused>", "exec")


def _bind(source: str, fns: Sequence[Callable | None]) -> Callable:
    """Exec a cached code object with this run's stage callables bound."""
    namespace = {
        f"_f{i}": fn for i, fn in enumerate(fns) if fn is not None
    }
    if _np is not None:
        namespace["_ndarray"] = _np.ndarray
    exec(_compiled(source), namespace)
    return namespace["_kernel"]


def _gen_loop(kinds: Sequence[str], element: bool) -> str:
    """Statement-loop kernel for the run, in element or chunk form.

    ``map``/``peek``/``filter`` compile to assignments and early-outs; an
    expander (``flat_map`` / ``map_multi``) opens a loop over its outputs.
    Stateful stages read/write the per-traversal ``_state`` vector:
    ``limit`` decrements its budget, ``skip`` drops while its counter
    lasts, ``distinct`` keeps a seen-set.  A limit exhausted before the
    element enters stops the kernel (as ``_LimitSink`` would stop the
    traversal); a limit downstream of an expander cuts the expansion at
    the exact output the unfused chain would, via a per-output guard.

    The two forms differ only in their tokens:

    * element ``(_v0, _accept, _cancelled, _state)``: a dropped element
      does ``return`` (``continue`` inside an expander), a stop does
      ``return``, and each expander output first polls ``_cancelled()``
      exactly where the unfused ``FlatMapSink`` does;
    * chunk ``(_chunk, _state) -> list``: a dropped element does
      ``continue``, a stop does ``return _out`` — so the emitted prefix
      matches the per-element path element for element.
    """
    slots = _state_slots(kinds)
    limits = [(i, slots[i]) for i, k in enumerate(kinds) if k == "limit"]
    if element:
        lines = ["def _kernel(_v0, _accept, _cancelled, _state):"]
        indent, drop, stop, emit = "    ", "return", "return", "_accept"
    else:
        lines = [
            "def _kernel(_chunk, _state):",
            "    _out = []",
            "    _append = _out.append",
            "    for _v0 in _chunk:",
        ]
        indent, drop, stop, emit = "        ", "continue", "return _out", "_append"

    def guard(j: int) -> None:
        lines.append(f"{indent}if _state[{j}] <= 0:")
        lines.append(f"{indent}    {stop}")

    for _, j in limits:
        guard(j)
    var = "_v0"
    for i, kind in enumerate(kinds):
        if kind == "map":
            lines.append(f"{indent}_v{i + 1} = _f{i}({var})")
            var = f"_v{i + 1}"
        elif kind == "peek":
            lines.append(f"{indent}_f{i}({var})")
        elif kind == "filter":
            lines.append(f"{indent}if not _f{i}({var}):")
            lines.append(f"{indent}    {drop}")
        elif kind == "limit":
            lines.append(f"{indent}_state[{slots[i]}] -= 1")
        elif kind == "skip":
            j = slots[i]
            lines.append(f"{indent}if _state[{j}] > 0:")
            lines.append(f"{indent}    _state[{j}] -= 1")
            lines.append(f"{indent}    {drop}")
        elif kind == "distinct":
            j = slots[i]
            lines.append(f"{indent}if {var} in _state[{j}]:")
            lines.append(f"{indent}    {drop}")
            lines.append(f"{indent}_state[{j}].add({var})")
        else:  # expander: loop over the outputs
            if kind == "flat_map":
                outputs = f"_f{i}({var})"
            else:  # map_multi: buffer the callback-driven outputs
                lines.append(f"{indent}_b{i} = []")
                lines.append(f"{indent}_f{i}({var}, _b{i}.append)")
                outputs = f"_b{i}"
            lines.append(f"{indent}for _v{i + 1} in {outputs}:")
            indent += "    "
            if element:
                lines.append(f"{indent}if _cancelled():")
                lines.append(f"{indent}    {stop}")
            # Only limits *downstream* of this expander can exhaust
            # mid-expansion; an upstream limit already admitted the
            # element and must not clip its outputs.
            for k_i, j in limits:
                if k_i > i:
                    guard(j)
            var, drop = f"_v{i + 1}", "continue"
    lines.append(f"{indent}{emit}({var})")
    if not element:
        lines.append("    return _out")
    return "\n".join(lines)


def _gen_comprehension(kinds: Sequence[str], whole_array: bool) -> str:
    """Single-pass comprehension chunk kernel (map/filter/flat_map runs).

    ``map`` stages nest as calls inside the output expression, ``filter``
    stages become ``if`` clauses (binding the value so far via ``:=`` when
    it is not yet a bare name), ``flat_map`` stages become nested ``for``
    clauses — one list, zero per-stage intermediates.  ``whole_array``
    (all-ufunc map runs) first tries the same composition as one numpy
    expression over an ndarray chunk.  A run with no stages (a counted
    window without maps) returns the chunk as is, so views stay views.
    """
    if not kinds:
        return "def _kernel(_chunk, _state):\n    return _chunk"
    clauses = ["for _v0 in _chunk"]
    expr, whole = "_v0", "_chunk"
    for i, kind in enumerate(kinds):
        if kind == "map":
            expr = f"_f{i}({expr})"
            whole = f"_f{i}({whole})"
        elif kind == "filter":
            if expr.startswith("_v") and expr[2:].isdigit():
                clauses.append(f"if _f{i}({expr})")
            else:
                clauses.append(f"if _f{i}((_v{i + 1} := {expr}))")
                expr = f"_v{i + 1}"
        else:  # flat_map
            clauses.append(f"for _v{i + 1} in _f{i}({expr})")
            expr = f"_v{i + 1}"
    lines = ["def _kernel(_chunk, _state):"]
    if whole_array:
        lines.append("    if isinstance(_chunk, _ndarray):")
        lines.append(f"        return {whole}")
    lines.append(f"    return [{expr} {' '.join(clauses)}]")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The fused op
# --------------------------------------------------------------------------- #


def _kernel_class(kinds: Sequence[str], fns: Sequence[Callable | None]) -> str:
    """The kernel-class decision — the single function behind both
    execution dispatch (``FusedOp``'s chunk kernel) and ``describe()`` /
    ``Stream.explain()``, so plans can never drift from what runs.

    * ``counted-window`` — limit/skip over a pure-map run: the counted ops
      hoist to one source-index window sliced off each chunk;
    * ``whole-array`` — ufunc maps only: one compiled numpy expression per
      ndarray chunk (the comprehension for any other chunk);
    * ``comprehension`` — map/filter/flat_map: one list comprehension;
    * ``loop`` — anything else (``peek``, ``map_multi``, ``distinct``, or
      limit/skip mixed with filters/expanders): a statement loop.
    """
    if all(k in ("map", "limit", "skip") for k in kinds):
        if any(k != "map" for k in kinds):
            return "counted-window"
        if _all_ufuncs(fns):
            return "whole-array"
    if all(k in ("map", "filter", "flat_map") for k in kinds):
        return "comprehension"
    return "loop"


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
    construction; limit/skip budgets and distinct seen-sets live in a
    per-traversal state vector created in ``begin``, so one ``FusedOp``
    instance is safely shared across fork/join leaves, terminals and
    threads.  The per-element kernel compiles on first use: chunked
    traversals never call it.
    """

    chunkable = True
    # Counted kernels slice their chunks at the exact cut and surface
    # exhaustion via ``cancellation_requested`` — the per-chunk poll of
    # ``copy_into_chunked`` suffices, so ``select_mode`` may keep a
    # short-circuiting pipeline on the chunked path.
    absorbs_short_circuit = True

    __slots__ = (
        "source_ops", "kinds", "kernel_class", "short_circuit",
        "_fns", "_element_kernel", "_chunk_kernel", "_window", "_state_spec",
        "_limit_slots",
    )

    def __init__(self, source_ops: Sequence[Op]) -> None:
        if not source_ops:
            raise ValueError("FusedOp needs at least one source op")
        self.source_ops = tuple(source_ops)
        self.kinds = tuple(_FUSIBLE_TYPES[type(op)] for op in self.source_ops)
        self._fns = fns = [_stage_fn(op) for op in self.source_ops]
        self.kernel_class = kc = _kernel_class(self.kinds, fns)

        self._state_spec = tuple(
            (kind, 0 if kind == "distinct" else op.n)
            for op, kind in zip(self.source_ops, self.kinds)
            if kind in _STATEFUL_KINDS
        )
        slots = _state_slots(self.kinds)
        self._limit_slots = tuple(
            slots[i] for i, k in enumerate(self.kinds) if k == "limit"
        )
        self.short_circuit = bool(self._limit_slots)
        self._element_kernel = None

        self._window = None
        if kc == "counted-window":
            # The sink slices the source-index window off each chunk; the
            # chunk kernel then applies only the maps.
            self._window = counted_window(self.source_ops)
            fns = [f for f in fns if f is not None]
            chunk_src = _gen_comprehension(
                ("map",) * len(fns), _all_ufuncs(fns)
            )
        elif kc == "loop":
            chunk_src = _gen_loop(self.kinds, False)
        else:
            chunk_src = _gen_comprehension(self.kinds, kc == "whole-array")
        self._chunk_kernel = _bind(chunk_src, fns)

    def __repr__(self) -> str:
        return f"FusedOp({' | '.join(self.kinds)})"

    def stage_key(self) -> "FusedOp":
        # A compiled run is keyed by the object itself: a chain that
        # already holds it resolves to the memo entry that produced it.
        return self

    def element_kernel(self) -> Callable:
        """The per-element kernel, compiled on first use."""
        kernel = self._element_kernel
        if kernel is None:
            kernel = self._element_kernel = _bind(
                _gen_loop(self.kinds, True), self._fns
            )
        return kernel

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
            "size_preserving": all(
                k in ("map", "peek") for k in self.kinds
            ),
        }
        if self._window is not None:
            out["window"] = [self._window[0], self._window[1]]
        return out

    def wrap_sink(self, downstream: Sink) -> Sink:
        if self._limit_slots:
            return _LimitedFusedSink(self, downstream)
        return _FusedSink(self, downstream)


class _FusedSink(ChainedSink):
    """The sink of one :class:`FusedOp` traversal: the op's kernels, the
    downstream entry points they emit into, the per-traversal state
    vector and, for a ``counted-window`` run, the source position."""

    __slots__ = (
        "_op", "_element", "_chunk_kernel", "_window", "_pos", "_state",
        "_down_accept", "_down_accept_chunk", "_down_cancelled",
    )

    def __init__(self, op: FusedOp, downstream: Sink) -> None:
        self.downstream = downstream
        self._op = op
        self._element = op._element_kernel
        self._chunk_kernel = op._chunk_kernel
        self._window = op._window
        self._pos = 0
        self._state = op._make_state()
        self._down_accept = downstream.accept
        self._down_accept_chunk = downstream.accept_chunk
        self._down_cancelled = downstream.cancellation_requested

    def begin(self, size):
        self._pos = 0
        self._state = self._op._make_state()
        self.downstream.begin(self._op._project_size(size))

    def accept(self, item):
        kernel = self._element
        if kernel is None:
            kernel = self._element = self._op.element_kernel()
        kernel(item, self._down_accept, self._down_cancelled, self._state)

    def accept_chunk(self, chunk):
        window = self._window
        if window is not None:
            pos = self._pos
            ln = len(chunk)
            self._pos = pos + ln
            wlo, whi = window
            lo = max(wlo - pos, 0)
            hi = ln if whi is None else min(whi - pos, ln)
            if lo >= hi:
                return
            if lo > 0 or hi < ln:
                # ndarray/range slices are views — the window cut costs
                # O(1), and the map kernel only ever touches elements
                # inside the window.
                chunk = slice_source(chunk, lo, hi)
        self._down_accept_chunk(self._chunk_kernel(chunk, self._state))


class _LimitedFusedSink(_FusedSink):
    """A run with a ``limit`` also reports its own exhaustion; any other
    run inherits the plain downstream poll."""

    __slots__ = ()

    def cancellation_requested(self):
        window = self._window
        if window is not None and window[1] is not None and (
            self._pos >= window[1]
        ):
            return True
        state = self._state
        for j in self._op._limit_slots:
            if state[j] <= 0:
                return True
        return self._down_cancelled()


# --------------------------------------------------------------------------- #
# The rewrite
# --------------------------------------------------------------------------- #


def fuse_ops(ops: list[Op]) -> tuple[list[Op], int]:
    """Collapse every maximal run of adjacent fusible ops.

    A run is emitted as a :class:`FusedOp` when it has >= MIN_RUN stages,
    or when it contains a counted op (``limit``/``skip``) — compiling even
    a lone ``limit`` moves the pipeline from per-element polling to the
    chunked counted kernel.  A run also ends where a numpy-ufunc map meets
    any other non-counted stage, so a run's maps are all ufuncs or none
    (``limit``/``skip`` join either kind).  Returns
    ``(rewritten_ops, stages_fused)`` — the original list object is
    returned (with 0) when nothing fuses.  Remaining stateful kinds
    (``sorted``, ``take_while``, ``drop_while``) and unknown ops are
    barriers and pass through unchanged; already-:class:`FusedOp` stages
    are barriers too, making the rewrite idempotent.
    """
    out: list[Op] = []
    run: list[Op] = []
    run_ufunc = None  # the run's ufunc-ness; None while only counted ops
    fused_stages = 0

    def flush() -> None:
        nonlocal fused_stages, run_ufunc
        if len(run) >= MIN_RUN or any(
            type(op) in _COUNTED_TYPES for op in run
        ):
            out.append(FusedOp(run))
            fused_stages += len(run)
        else:
            out.extend(run)
        run.clear()
        run_ufunc = None

    for op in ops:
        if type(op) not in _FUSIBLE_TYPES:
            flush()
            out.append(op)
            continue
        if type(op) not in _COUNTED_TYPES:
            ufunc = type(op) is MapOp and _all_ufuncs((op.f,))
            if run_ufunc is not None and ufunc != run_ufunc:
                flush()
            run_ufunc = ufunc
        run.append(op)
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
    "kernels": 0,           # FusedOp stages in those rewrites
    "compiled": 0,          # FusedOp instances created (kernels compiled)
    "unfused": 0,           # scans that found nothing to collapse
    "memo_hits": 0,         # chains the memo answered with no rewrite
}

#: Shape memo: :func:`~repro.streams.ops.chain_key` of an op chain →
#: ``(ops, recipe, stages, kernels)``.  ``FusedOp``\ s hold no
#: per-traversal state, so every terminal of a shape — on any thread —
#: reuses the kernels the first one compiled.  ``recipe`` lists the
#: rewritten chain: a ``FusedOp``, or the index of a stage the rewrite
#: passes through (taken from the chain being rewritten, so a barrier op
#: is always the caller's own).  A chain with nothing to fuse, and a
#: rewritten chain (so fork/join leaves re-entering ``run_pipeline`` with
#: it resolve in one lookup), are memoized with ``stages`` 0.  ``ops``
#: keeps the keyed objects alive, so a live entry's ids cannot be
#: recycled.
_memo: dict[tuple, tuple[tuple[Op, ...], tuple, int, int]] = {}
#: Guards the memo and the stats counters: concurrent terminals and
#: fork/join leaves all reach ``maybe_fuse``, and an unlocked ``+=``
#: loses updates.
_lock = threading.Lock()


def fusion_stats(reset: bool = False) -> dict[str, int]:
    """Counts of fusion activity (advisory; pinned by tests and benches)."""
    with _lock:
        snapshot = dict(_fusion_stats)
        if reset:
            for key in _fusion_stats:
                _fusion_stats[key] = 0
    return snapshot


def _rebuild(recipe: tuple, ops: list[Op]) -> list[Op]:
    return [ops[x] if type(x) is int else x for x in recipe]


def maybe_fuse(ops: list[Op], config: EngineConfig) -> list[Op]:
    """The terminal-time entry point: rewrite ``ops`` if ``config.fusion``.

    Memoized by the chain's identity key, so a shape fuses (and compiles
    its kernels) once, not once per terminal.  A chain with a stage whose
    key does not hash is rewritten without the memo.  Emits a ``fuse``
    span per rewrite that compiled when tracing is enabled.
    """
    if not config.fusion or not ops:
        return ops
    key = chain_key(ops)
    entry = _memo.get(key)
    if entry is not None:
        _, recipe, stages, kernels = entry
        with _lock:
            if not stages:
                _fusion_stats["memo_hits"] += 1
            else:
                _fusion_stats["pipelines_fused"] += 1
                _fusion_stats["stages_fused"] += stages
                _fusion_stats["kernels"] += kernels
        return ops if not stages else _rebuild(recipe, ops)

    start = time.perf_counter_ns()
    fused, stages = fuse_ops(ops)
    if stages == 0:
        with _lock:
            _fusion_stats["unfused"] += 1
            remember(_memo, key, (tuple(ops), (), 0, 0))
        return ops
    kernels = sum(1 for op in fused if isinstance(op, FusedOp))
    # The rewritten chain as stage indices into ``ops`` and the FusedOps
    # this rewrite built.
    position = {id(op): i for i, op in enumerate(ops)}
    recipe = tuple(position.get(id(op), op) for op in fused)

    with _lock:
        _fusion_stats["pipelines_fused"] += 1
        _fusion_stats["stages_fused"] += stages
        _fusion_stats["kernels"] += kernels
        _fusion_stats["compiled"] += sum(type(x) is not int for x in recipe)
        if key is not None:
            remember(_memo, key, (tuple(ops), recipe, stages, kernels))
            remember(_memo, chain_key(fused), (tuple(fused), (), 0, 0))

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
