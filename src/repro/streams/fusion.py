"""Stage kernels: every stage but ``sorted`` compiles from one generator.

The sink-chain design (one ``Op`` → one ``Sink`` per stage) is faithful to
Java but pays one Python dispatch *per stage* per element — and, on the
chunked bulk path, one intermediate list *per stage* per chunk.  That
per-stage dispatch is exactly the cost "Stream Fusion, to Completeness"
(Kiselyov et al.) and the ``mapMulti``-fusion line of work identify as the
dominant overhead of streaming APIs.  Both derive every stage, stateful
ones too, from one producer form; so does this module.

The semantics of every fusible stage (``map`` / ``filter`` / ``peek`` /
``flat_map`` / ``map_multi`` / ``limit`` / ``skip`` / ``distinct`` /
``take_while`` / ``drop_while``) are written once, in the kernel
generators below.  At terminal time (before mode selection in
:func:`repro.streams.ops.run_pipeline`) the op chain is rewritten: every
fusible stage lands in exactly one :class:`FusedOp`, whose kernels are
**generated and compiled** from its stages (see :func:`_kernel_class`
for the four kernel classes).  With ``EngineConfig.fusion`` set, each
maximal run of adjacent fusible stages merges into one ``FusedOp``;
without it, every stage is its own one-stage ``FusedOp`` (no merge
across stages, as in the Java sink chain).  A lone op's ``wrap_sink``
returns its one-stage kernel's sink (:func:`stage_kernel`).

* the per-element kernel emits straight-line code — nested calls, an
  early-out per filter, a loop per expander, a guard per cut — so one
  sink dispatch covers the whole run;
* the chunk kernel crosses the run in a single pass with **zero**
  intermediate per-stage lists: one comprehension (``comprehension``),
  or the per-element kernel's statement loop when the run contains
  ``peek`` / ``map_multi`` / stateful stages (``loop``);
* ``limit``/``skip`` over a pure-map run hoist to one source-index window
  sliced off each chunk (``counted-window``); in any other run the loop
  cuts at the exact element.  ``take_while`` is a cut as well: a flag in
  the state vector that the failing element clears.  Either way the
  fused sink reports the cut via ``cancellation_requested``, so a merged
  chain whose cuts all sit in its first kernel rides the chunked path
  end to end;
* a run's maps are all numpy ufuncs or none (the rewrite splits runs
  where that changes); an all-ufunc run compiles to one whole-array
  numpy expression per ndarray chunk (``whole-array``).

Fusion is semantics-preserving by construction:

* ``sorted`` has no kernel form and is the only **barrier** — runs never
  cross it;
* encounter order is preserved (stages compose in pipeline order);
* short-circuiting still works: the per-element kernel polls the
  downstream ``cancellation_requested`` between the outputs of an
  expander, so ``flat_map`` over an infinite iterable under ``limit``
  still terminates;
* ``begin(size)`` forwards the size through the run's size algebra
  (identity for ``map``/``peek``, clamped by ``limit``/``skip``, unknown
  past every other stage);
* per-traversal kernel state (budgets, flags, seen-sets) is created in
  the sink's ``begin``, so one compiled ``FusedOp`` is shared safely
  across fork/join leaves, terminals and threads.

The rewrite is memoized per chain shape and fusion setting
(:data:`_memo`), so a repeated shape compiles once.  :func:`fusion_stats`
counts merged pipelines and stages (a one-stage kernel merges nothing);
each rewrite that compiles emits a ``fuse`` span through
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
    DropWhileOp,
    FilterOp,
    FlatMapOp,
    LimitOp,
    MapMultiOp,
    MapOp,
    Op,
    PeekOp,
    Sink,
    SkipOp,
    TakeWhileOp,
    chain_key,
    remember,
)
from repro.streams.spliterators import slice_source

try:  # numpy is a hard dependency of the repo, but keep fusion importable
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: The stage kind of each op type with a kernel form.
_FUSIBLE_TYPES = {
    MapOp: "map",
    FilterOp: "filter",
    PeekOp: "peek",
    FlatMapOp: "flat_map",
    MapMultiOp: "map_multi",
    LimitOp: "limit",
    SkipOp: "skip",
    DistinctOp: "distinct",
    TakeWhileOp: "take_while",
    DropWhileOp: "drop_while",
}

#: The attribute holding each kind's stage callable; the other kinds
#: carry only their per-traversal state.
_FN_ATTRS = {
    "map": "f", "flat_map": "f", "map_multi": "f", "peek": "action",
    "filter": "predicate", "take_while": "predicate",
    "drop_while": "predicate",
}

#: Counted ops join runs of either ufunc-ness.
_COUNTED_TYPES = (LimitOp, SkipOp)

#: Stage kinds that carry per-traversal kernel state: a budget
#: (limit/skip), a flag (take_while/drop_while) or a seen-set (distinct).
_STATEFUL_KINDS = ("limit", "skip", "distinct", "take_while", "drop_while")

#: Stage kinds that cut the traversal: their state slot reaching 0 stops
#: the kernel and is reported through ``cancellation_requested``.
_CUT_KINDS = ("limit", "take_while")


# --------------------------------------------------------------------------- #
# Kernel code generation
# --------------------------------------------------------------------------- #
#
# A fused run compiles to two functions:
#
#   element kernel   _make(_accept, _cancelled, _state) -> _kernel(_v0)
#                    — per-element path: each sink binds its own downstream
#                    and state once, and the closure is its ``accept``
#   chunk kernel     _kernel(_chunk, _state) -> chunk     — bulk path
#
# ``_state`` is the per-traversal state vector (empty for stateless runs).
# Sources depend only on the *shape* of the run (the sequence of stage
# kinds), so compiled code objects are cached by source; the stage
# callables are bound per-``FusedOp`` through the exec namespace.


def _stage_fn(op: Op) -> Callable | None:
    """The stage callable bound into the kernel namespace (None for the
    kinds that carry only state)."""
    attr = _FN_ATTRS.get(_FUSIBLE_TYPES[type(op)])
    return None if attr is None else getattr(op, attr)


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


def _bind(
    source: str, fns: Sequence[Callable | None], name: str = "_kernel"
) -> Callable:
    """Exec a cached code object with this run's stage callables bound;
    returns the function ``name`` it defines."""
    namespace = {
        f"_f{i}": fn for i, fn in enumerate(fns) if fn is not None
    }
    if _np is not None:
        namespace["_ndarray"] = _np.ndarray
    exec(_compiled(source), namespace)
    return namespace[name]


@lru_cache(maxsize=256)
def _gen_loop(kinds: tuple[str, ...], element: bool) -> str:
    """Statement-loop kernel for the run, in element or chunk form.

    ``map``/``peek``/``filter`` compile to assignments and early-outs; an
    expander (``flat_map`` / ``map_multi``) opens a loop over its outputs.
    Stateful stages read/write the per-traversal ``_state`` vector:
    ``limit`` decrements its budget, ``skip`` drops while its counter
    lasts, ``distinct`` keeps a seen-set, ``take_while`` clears its flag
    (and stops) on the first failing element, ``drop_while`` drops while
    its flag is set.  A cut (``limit``/``take_while``) already reached
    when the element enters stops the kernel, as it stops the traversal;
    a cut downstream of an expander stops the expansion at the exact
    output, via a per-output guard.

    The two forms differ only in their tokens:

    * element ``_make(_accept, _cancelled, _state)`` returning
      ``_kernel(_v0)``: a dropped element does ``return`` (``continue``
      inside an expander), a stop does ``return``, and each expander
      output first polls ``_cancelled()``;
    * chunk ``(_chunk, _state) -> list``: a dropped element does
      ``continue``, a stop does ``return _out`` — so the emitted prefix
      matches the per-element path element for element.  Each seen-set
      and its ``add`` are bound to locals once per chunk.  A run of
      ``peek`` stages only returns the chunk itself, so views stay views.
    """
    slots = _state_slots(kinds)
    cuts = [(i, slots[i]) for i, k in enumerate(kinds) if k in _CUT_KINDS]
    if element:
        lines = [
            "def _make(_accept, _cancelled, _state):",
            "    def _kernel(_v0):",
        ]
        indent, drop, stop, emit = "        ", "return", "return", "_accept"
    else:
        lines = ["def _kernel(_chunk, _state):"]
        if all(k == "peek" for k in kinds):
            lines += ["    for _v0 in _chunk:"]
            lines += [f"        _f{i}(_v0)" for i in range(len(kinds))]
            lines.append("    return _chunk")
            return "\n".join(lines)
        lines += ["    _out = []", "    _append = _out.append"]
        for i, kind in enumerate(kinds):
            if kind == "distinct":
                j = slots[i]
                lines.append(f"    _s{j} = _state[{j}]")
                lines.append(f"    _add{j} = _s{j}.add")
        lines.append("    for _v0 in _chunk:")
        indent, drop, stop, emit = "        ", "continue", "return _out", "_append"

    def guard(j: int) -> None:
        lines.append(f"{indent}if _state[{j}] <= 0:")
        lines.append(f"{indent}    {stop}")

    for _, j in cuts:
        guard(j)
    var = "_v0"
    for i, kind in enumerate(kinds):
        j = slots.get(i)
        if kind == "map":
            lines.append(f"{indent}_v{i + 1} = _f{i}({var})")
            var = f"_v{i + 1}"
        elif kind == "peek":
            lines.append(f"{indent}_f{i}({var})")
        elif kind == "filter":
            lines.append(f"{indent}if not _f{i}({var}):")
            lines.append(f"{indent}    {drop}")
        elif kind == "limit":
            lines.append(f"{indent}_state[{j}] -= 1")
        elif kind == "skip":
            lines.append(f"{indent}if _state[{j}] > 0:")
            lines.append(f"{indent}    _state[{j}] -= 1")
            lines.append(f"{indent}    {drop}")
        elif kind == "take_while":
            lines.append(f"{indent}if not _f{i}({var}):")
            lines.append(f"{indent}    _state[{j}] = 0")
            lines.append(f"{indent}    {stop}")
        elif kind == "drop_while":
            lines.append(f"{indent}if _state[{j}]:")
            lines.append(f"{indent}    if _f{i}({var}):")
            lines.append(f"{indent}        {drop}")
            lines.append(f"{indent}    _state[{j}] = 0")
        elif kind == "distinct":
            seen, add = (
                (f"_state[{j}]", f"_state[{j}].add") if element
                else (f"_s{j}", f"_add{j}")
            )
            lines.append(f"{indent}if {var} in {seen}:")
            lines.append(f"{indent}    {drop}")
            lines.append(f"{indent}{add}({var})")
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
            # Only cuts *downstream* of this expander can be reached
            # mid-expansion; an upstream cut already admitted the element
            # and must not clip its outputs.
            for k_i, k_j in cuts:
                if k_i > i:
                    guard(k_j)
            var, drop = f"_v{i + 1}", "continue"
    lines.append(f"{indent}{emit}({var})")
    lines.append("    return _kernel" if element else "    return _out")
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
    A lone ``map`` is ``list(map(...))`` and a lone ``flat_map`` an
    ``extend`` loop: both keep the per-element step in C.
    """
    if not kinds:
        return "def _kernel(_chunk, _state):\n    return _chunk"
    if tuple(kinds) == ("flat_map",):
        return "\n".join([
            "def _kernel(_chunk, _state):",
            "    _out = []",
            "    _extend = _out.extend",
            "    for _v0 in _chunk:",
            "        _extend(_f0(_v0))",
            "    return _out",
        ])
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
    if tuple(kinds) == ("map",):
        lines.append("    return list(map(_f0, _chunk))")
    else:
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
    * ``loop`` — anything else (``peek``, ``map_multi``, ``distinct``,
      ``take_while``, ``drop_while``, or limit/skip mixed with
      filters/expanders): a statement loop.
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
    """A run of fusible ops compiled into one pipeline stage.

    Supports both traversal modes: per-element ``accept`` runs the
    compiled straight-line kernel (one sink dispatch for the whole run),
    and ``accept_chunk`` crosses the run in a single generated pass.  The
    kernel class (see :func:`_kernel_class`) is decided once at
    construction; budgets, flags and seen-sets live in a per-traversal
    state vector created in ``begin``, so one ``FusedOp`` instance is
    safely shared across fork/join leaves, terminals and threads.  Both
    kernels' sources and code objects are cached by run shape.  A run is
    ``stateful`` when a stage keeps state and ``short_circuit`` when a
    stage cuts.
    """

    chunkable = True

    __slots__ = (
        "source_ops", "kinds", "kernel_class", "stateful", "short_circuit",
        "_element_make", "_chunk_kernel", "_window", "_state_spec",
        "_cut_slots",
    )

    def __init__(self, source_ops: Sequence[Op]) -> None:
        if not source_ops:
            raise ValueError("FusedOp needs at least one source op")
        self.source_ops = tuple(source_ops)
        self.kinds = tuple(_FUSIBLE_TYPES[type(op)] for op in self.source_ops)
        fns = [_stage_fn(op) for op in self.source_ops]
        self.kernel_class = kc = _kernel_class(self.kinds, fns)

        # One ``(kind, initial)`` per stateful stage: a budget for
        # limit/skip, a set flag for take_while/drop_while (distinct
        # gets a fresh set in ``_make_state``).
        self._state_spec = tuple(
            (kind, getattr(op, "n", 1))
            for op, kind in zip(self.source_ops, self.kinds)
            if kind in _STATEFUL_KINDS
        )
        slots = _state_slots(self.kinds)
        self._cut_slots = tuple(
            slots[i] for i, k in enumerate(self.kinds) if k in _CUT_KINDS
        )
        self.stateful = bool(self._state_spec)
        self.short_circuit = bool(self._cut_slots)
        self._element_make = _bind(_gen_loop(self.kinds, True), fns, "_make")

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

    def _make_state(self) -> list:
        """A fresh per-traversal state vector (one slot per stateful
        stage: a seen-set for distinct, else the initial count/flag)."""
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
        if self._cut_slots:
            return _CutFusedSink(self, downstream)
        return _FusedSink(self, downstream)


class _FusedSink(ChainedSink):
    """The sink of one :class:`FusedOp` traversal: the op's kernels, the
    downstream entry points they emit into, the per-traversal state
    vector and, for a ``counted-window`` run, the source position.

    ``accept`` is the run's element kernel itself, bound to this sink's
    downstream and state vector (``begin`` refills the vector in place)
    and stored on the instance, so a per-element traversal pays one call
    per element for the whole run.  The kernel holds no reference to the
    sink: a finished traversal is freed without the cyclic GC.
    """

    __slots__ = (
        "_op", "_chunk_kernel", "_window", "_pos", "_state",
        "_down_accept_chunk", "_down_cancelled",
    )

    def __init__(self, op: FusedOp, downstream: Sink) -> None:
        self.downstream = downstream
        self._op = op
        self._chunk_kernel = op._chunk_kernel
        self._window = op._window
        self._pos = 0
        self._state = op._make_state()
        self._down_accept_chunk = downstream.accept_chunk
        self._down_cancelled = downstream.cancellation_requested
        self.accept = op._element_make(
            downstream.accept, self._down_cancelled, self._state
        )

    def begin(self, size):
        self._pos = 0
        self._state[:] = self._op._make_state()
        self.downstream.begin(self._op._project_size(size))

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


class _CutFusedSink(_FusedSink):
    """A run with a cut (``limit``/``take_while``) also reports it; any
    other run inherits the plain downstream poll."""

    __slots__ = ()

    def cancellation_requested(self):
        window = self._window
        if window is not None and window[1] is not None and (
            self._pos >= window[1]
        ):
            return True
        state = self._state
        for j in self._op._cut_slots:
            if state[j] <= 0:
                return True
        return self._down_cancelled()


# --------------------------------------------------------------------------- #
# The rewrite
# --------------------------------------------------------------------------- #


def fuse_ops(ops: list[Op], merge: bool = True) -> tuple[list[Op], int]:
    """Compile every fusible stage of ``ops`` into exactly one
    :class:`FusedOp` — the pure rewrite behind :func:`maybe_fuse` and
    ``Stream.explain()``.

    With ``merge`` each maximal run of adjacent fusible ops becomes one
    ``FusedOp``; a run also ends where a numpy-ufunc map meets any other
    non-counted stage, so a run's maps are all ufuncs or none
    (``limit``/``skip`` join either kind).  Without it every fusible op
    is a one-stage ``FusedOp``.  ``sorted``, unknown ops and
    already-:class:`FusedOp` stages pass through unchanged, which makes
    the rewrite idempotent.  Returns ``(rewritten_ops, stages_merged)``
    — the source stages that landed in multi-stage runs; the original
    list object is returned (with 0) when no stage needs compiling.
    """
    if not any(type(op) in _FUSIBLE_TYPES for op in ops):
        return ops, 0
    out: list[Op] = []
    run: list[Op] = []
    run_ufunc = None  # the run's ufunc-ness; None while only counted ops
    merged = 0

    def flush() -> None:
        nonlocal merged, run_ufunc
        if run:
            out.append(FusedOp(run))
            if len(run) > 1:
                merged += len(run)
        run.clear()
        run_ufunc = None

    for op in ops:
        if type(op) not in _FUSIBLE_TYPES:
            flush()
            out.append(op)
            continue
        if not merge:
            flush()
        elif type(op) not in _COUNTED_TYPES:
            ufunc = type(op) is MapOp and _all_ufuncs((op.f,))
            if run_ufunc is not None and ufunc != run_ufunc:
                flush()
            run_ufunc = ufunc
        run.append(op)
    flush()
    return out, merged


# --------------------------------------------------------------------------- #
# Stats, memo
# --------------------------------------------------------------------------- #

_fusion_stats = {
    "pipelines_fused": 0,   # pipelines rewritten with >= one merged run
    "stages_fused": 0,      # source stages merged into multi-stage runs
    "kernels": 0,           # multi-stage FusedOps in those rewrites
    "compiled": 0,          # FusedOp instances created (kernels compiled)
    "unfused": 0,           # scans that found nothing to merge
    "memo_hits": 0,         # chains the memo answered with no merge
}

#: Rewrite memo: ``(merge, chain_key(ops))`` →
#: ``(ops, recipe, stages, kernels)``.  ``FusedOp``\ s hold no
#: per-traversal state, so every terminal of a shape — on any thread —
#: reuses the kernels the first one compiled, under either fusion
#: setting.  ``recipe`` lists the rewritten chain: a ``FusedOp``, or the
#: index of a stage the rewrite passes through (taken from the chain
#: being rewritten, so a barrier op is always the caller's own); it is
#: None when the chain needs no rewrite.  A rewritten chain is memoized
#: too (recipe None), so fork/join leaves re-entering ``run_pipeline``
#: with it resolve in one lookup.  ``ops`` keeps the keyed objects
#: alive, so a live entry's ids cannot be recycled.
_memo: dict[tuple, tuple[tuple[Op, ...], tuple | None, int, int]] = {}
#: Guards the memo and the stats counters: concurrent terminals and
#: fork/join leaves all reach ``maybe_fuse``, and an unlocked ``+=``
#: loses updates.
_lock = threading.Lock()


def fusion_stats(reset: bool = False) -> dict[str, int]:
    """Counts of fusion activity (advisory; pinned by tests and benches).
    Only runs with ``fusion`` set are counted."""
    with _lock:
        snapshot = dict(_fusion_stats)
        if reset:
            for key in _fusion_stats:
                _fusion_stats[key] = 0
    return snapshot


def _rebuild(recipe: tuple, ops: list[Op]) -> list[Op]:
    return [ops[x] if type(x) is int else x for x in recipe]


def _rewrite(
    ops: list[Op], merge: bool
) -> tuple[list[Op], int, int, int | None]:
    """:func:`fuse_ops` through the memo.  Returns ``(chain, stages,
    kernels, built)``: ``built`` counts the FusedOps this call compiled,
    None when the memo answered.  A chain whose key does not hash is
    rewritten without the memo."""
    key = chain_key(ops)
    if key is not None:
        key = (merge, key)
        entry = _memo.get(key)
        if entry is not None:
            _, recipe, stages, kernels = entry
            chain = ops if recipe is None else _rebuild(recipe, ops)
            return chain, stages, kernels, None
    fused, stages = fuse_ops(ops, merge)
    recipe, kernels, built = None, 0, 0
    if fused is not ops:
        position = {id(op): i for i, op in enumerate(ops)}
        recipe = tuple(position.get(id(op), op) for op in fused)
        built = sum(type(x) is not int for x in recipe)
        kernels = sum(
            1 for op in fused if type(op) is FusedOp and len(op.kinds) > 1
        )
    if key is not None:
        fused_key = None if recipe is None else chain_key(fused)
        with _lock:
            remember(_memo, key, (tuple(ops), recipe, stages, kernels))
            if fused_key is not None:
                remember(_memo, (merge, fused_key), (tuple(fused), None, 0, 0))
    return fused, stages, kernels, built


def stage_kernel(op: Op) -> FusedOp:
    """The one-stage :class:`FusedOp` of fusible ``op`` — its unmerged
    rewrite, from the memo (no stats)."""
    return _rewrite([op], False)[0][0]


def maybe_fuse(ops: list[Op], config: EngineConfig) -> list[Op]:
    """The terminal-time entry point: compile ``ops`` into kernels,
    merging adjacent stages when ``config.fusion`` is set.

    Memoized by the chain's identity key and the setting, so a shape
    compiles its kernels once, not once per terminal.  With fusion set,
    counts :func:`fusion_stats` and, when tracing is enabled, emits a
    ``fuse`` span per rewrite that compiled.
    """
    if not ops:
        return ops
    if not config.fusion:
        return _rewrite(ops, False)[0]
    start = time.perf_counter_ns()
    fused, stages, kernels, built = _rewrite(ops, True)
    with _lock:
        if stages:
            _fusion_stats["pipelines_fused"] += 1
            _fusion_stats["stages_fused"] += stages
            _fusion_stats["kernels"] += kernels
        elif built is None:
            _fusion_stats["memo_hits"] += 1
        else:
            _fusion_stats["unfused"] += 1
        if built:
            _fusion_stats["compiled"] += built
    if built:
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
