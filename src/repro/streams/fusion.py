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
generators below.  Once per run, in the caller that starts it (before
mode selection in :func:`repro.streams.ops.select_mode`), the op chain
is rewritten: every fusible stage lands in exactly one :class:`FusedOp`,
whose kernels are **generated and compiled** from its stages (see
:func:`_kernel_class` for the four kernel classes).  With
``EngineConfig.fusion`` set, each maximal run of adjacent fusible
stages merges into one ``FusedOp``; without it, every stage is its own
one-stage ``FusedOp`` (no merge across stages, as in the Java sink
chain).  A lone op's ``wrap_sink`` returns its one-stage kernel's sink.

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
  the sink's ``begin``, so one ``FusedOp`` is shared safely across its
  terminal's fork/join leaves and threads; it pickles as its source ops,
  so a process child binds the same kernels to its own factory.

Code is generated once per pipeline *structure* and each terminal passes
its callables in (:class:`_Shape`), as "Stream Fusion, to Completeness"
does; the rewrite is memoized by structure (:data:`_memo`), so inline
lambdas compile nothing and no cache holds a user callable.
:func:`maybe_fuse` counts merged pipelines and stages (a one-stage
kernel merges nothing) in the ``fusion_*`` counters of the process-wide
metrics registry; each rewrite that builds kernels emits a ``fuse``
span through :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.obs.metrics import global_registry
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
# A fused run compiles to one factory per structure, ``_make(_ops)``: it
# binds the callables of the run's ops to ``_f0, _f1, …`` and returns its
# two kernels as closures over them:
#
#   element kernel   _element(_accept, _cancelled, _state) -> _kernel(_v0)
#                    — per-element path: each sink binds its own downstream
#                    and state once, and the closure is its ``accept``
#   chunk kernel     _chunk_kernel(_chunk, _state) -> chunk     — bulk path
#
# ``_state`` is the per-traversal state vector (empty for stateless runs).

#: A map of a numpy ufunc: the one fact about a callable that changes the
#: rewrite (runs split where it changes) and the kernel (whole-array).
_UFUNC_MAP = "ufunc-map"
_UFUNC = () if _np is None else _np.ufunc


def _tokens(ops: Sequence[Op]) -> list:
    """Each op's structural token: its type, or :data:`_UFUNC_MAP`."""
    return [
        _UFUNC_MAP if type(op) is MapOp and isinstance(op.f, _UFUNC)
        else type(op)
        for op in ops
    ]


def _state_slots(kinds: Sequence[str]) -> dict[int, int]:
    """Map stage index -> state-vector slot for the stateful kinds."""
    slots: dict[int, int] = {}
    for i, kind in enumerate(kinds):
        if kind in _STATEFUL_KINDS:
            slots[i] = len(slots)
    return slots


def _gen_loop(kinds: tuple[str, ...], element: bool) -> list[str]:
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

    * element ``_element(_accept, _cancelled, _state)`` returning
      ``_kernel(_v0)``: a dropped element does ``return`` (``continue``
      inside an expander), a stop does ``return``, and each expander
      output first polls ``_cancelled()``;
    * chunk ``_chunk_kernel(_chunk, _state) -> list``: a dropped element
      does ``continue``, a stop does ``return _out`` — so the emitted
      prefix matches the per-element path element for element.  Each
      seen-set and its ``add`` are bound to locals once per chunk.  A
      run of ``peek`` stages only returns the chunk itself, so views stay
      views.
    """
    slots = _state_slots(kinds)
    cuts = [(i, slots[i]) for i, k in enumerate(kinds) if k in _CUT_KINDS]
    if element:
        lines = [
            "def _element(_accept, _cancelled, _state):",
            "    def _kernel(_v0):",
        ]
        indent, drop, stop, emit = "        ", "return", "return", "_accept"
    else:
        lines = ["def _chunk_kernel(_chunk, _state):"]
        if all(k == "peek" for k in kinds):
            lines += ["    for _v0 in _chunk:"]
            lines += [f"        _f{i}(_v0)" for i in range(len(kinds))]
            lines.append("    return _chunk")
            return lines
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
    return lines


def _gen_comprehension(kinds: Sequence[str], whole_array: bool) -> list[str]:
    """Single-pass comprehension chunk kernel (map/filter/flat_map runs).

    ``map`` stages nest as calls inside the output expression, ``filter``
    stages become ``if`` clauses (binding the value so far via ``:=`` when
    it is not yet a bare name), ``flat_map`` stages become nested ``for``
    clauses — one list, zero per-stage intermediates.  ``limit``/``skip``
    stages are skipped: in a ``counted-window`` run the sink slices their
    window off the chunk first.  ``whole_array`` (all-ufunc map runs)
    first tries the same composition as one numpy expression over an
    ndarray chunk.  A run with no other stage (a counted window without
    maps) returns the chunk as is, so views stay views.  A lone ``map``
    is ``list(map(...))`` and a lone ``flat_map`` an ``extend`` loop: both
    keep the per-element step in C.
    """
    stages = [(i, k) for i, k in enumerate(kinds) if k not in ("limit", "skip")]
    lines = ["def _chunk_kernel(_chunk, _state):"]
    if not stages:
        return lines + ["    return _chunk"]
    if [k for _, k in stages] == ["flat_map"]:
        return lines + [
            "    _out = []",
            "    _extend = _out.extend",
            "    for _v0 in _chunk:",
            f"        _extend(_f{stages[0][0]}(_v0))",
            "    return _out",
        ]
    clauses = ["for _v0 in _chunk"]
    expr, whole = "_v0", "_chunk"
    for i, kind in stages:
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
    if whole_array:
        lines.append("    if isinstance(_chunk, _ndarray):")
        lines.append(f"        return {whole}")
    if [k for _, k in stages] == ["map"]:
        lines.append(f"    return list(map(_f{stages[0][0]}, _chunk))")
    else:
        lines.append(f"    return [{expr} {' '.join(clauses)}]")
    return lines


# --------------------------------------------------------------------------- #
# The fused op
# --------------------------------------------------------------------------- #


def _kernel_class(kinds: Sequence[str], ufunc_maps: bool) -> str:
    """The kernel-class decision — the single function behind both
    execution dispatch (``FusedOp``'s chunk kernel) and ``describe()`` /
    ``Stream.explain()``, so plans can never drift from what runs.
    ``ufunc_maps`` says the run has maps and every one is a numpy ufunc.

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
        if ufunc_maps:
            return "whole-array"
    if all(k in ("map", "filter", "flat_map") for k in kinds):
        return "comprehension"
    return "loop"


class _Shape:
    """What a run's structure fixes, derived and compiled once per
    ``(kinds, kernel class, whole-array)``: the kernel factory ``make``,
    the stages that keep per-traversal state (``state_stages``: index
    and kind) and the state slots that cut.  It holds no callable, so a
    cached shape keeps no user code alive."""

    __slots__ = ("kinds", "kernel_class", "make", "state_stages", "cut_slots")

    def __init__(self, kinds: tuple[str, ...], kernel_class: str, whole: bool):
        self.kinds, self.kernel_class = kinds, kernel_class
        self.state_stages = tuple(
            (i, k) for i, k in enumerate(kinds) if k in _STATEFUL_KINDS
        )
        slots = _state_slots(kinds)
        self.cut_slots = tuple(
            slots[i] for i, k in enumerate(kinds) if k in _CUT_KINDS
        )
        if kernel_class == "loop":
            chunk = _gen_loop(kinds, False)
        else:
            chunk = _gen_comprehension(kinds, whole)
        source = "\n".join(
            ["def _make(_ops):"]
            + [
                f"    _f{i} = _ops[{i}].{_FN_ATTRS[k]}"
                for i, k in enumerate(kinds) if k in _FN_ATTRS
            ]
            + ["    " + line for line in _gen_loop(kinds, True) + chunk]
            + ["    return _element, _chunk_kernel"]
        )
        namespace = {"_ndarray": None if _np is None else _np.ndarray}
        exec(compile(source, "<fused>", "exec"), namespace)
        self.make = namespace["_make"]


#: ``(kinds, kernel class, whole-array)`` → its :class:`_Shape`.
_shapes: dict[tuple, _Shape] = {}


def _shape_for(tokens: Sequence) -> tuple[_Shape, bool]:
    """The shape of a run of fusible stages with these structural
    tokens, and whether this call compiled it."""
    kinds = tuple("map" if t is _UFUNC_MAP else _FUSIBLE_TYPES[t] for t in tokens)
    ufunc_maps = _UFUNC_MAP in tokens and MapOp not in tokens
    kernel_class = _kernel_class(kinds, ufunc_maps)
    whole = ufunc_maps and kernel_class in ("whole-array", "counted-window")
    key = (kinds, kernel_class, whole)
    shape = _shapes.get(key)
    if shape is not None:
        return shape, False
    shape = _Shape(kinds, kernel_class, whole)
    with _lock:
        remember(_shapes, key, shape)
    return shape, True


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
    kernels come from the run's :class:`_Shape` (compiled once per
    structure; ``shape`` may be passed when the caller already knows it),
    bound to this run's callables; budgets, flags and seen-sets live in
    a per-traversal state vector created in ``begin``, so one ``FusedOp``
    instance is safely shared across fork/join leaves and threads.  A run
    is ``stateful`` when a stage keeps state and ``short_circuit`` when a
    stage cuts.
    """

    chunkable = True

    __slots__ = (
        "source_ops", "shape", "kinds", "kernel_class", "stateful",
        "short_circuit", "_element_make", "_chunk_kernel", "_window",
        "_state_spec",
    )

    def __init__(self, source_ops: Sequence[Op], shape: _Shape | None = None) -> None:
        ops = self.source_ops = tuple(source_ops)
        if not ops:
            raise ValueError("FusedOp needs at least one source op")
        if shape is None:
            shape = _shape_for(_tokens(ops))[0]
        self.shape = shape
        self.kinds, self.kernel_class = shape.kinds, shape.kernel_class
        # One ``(kind, initial)`` per stateful stage: a budget for
        # limit/skip, a set flag for take_while/drop_while (distinct
        # gets a fresh set in ``_make_state``).
        stages = shape.state_stages
        self._state_spec = (
            tuple([(kind, getattr(ops[i], "n", 1)) for i, kind in stages])
            if stages else ()
        )
        self.stateful = bool(stages)
        self.short_circuit = bool(shape.cut_slots)
        self._element_make, self._chunk_kernel = shape.make(ops)
        # A ``counted-window`` sink slices the source-index window off
        # each chunk; its chunk kernel then applies only the maps.
        self._window = (
            counted_window(ops) if shape.kernel_class == "counted-window"
            else None
        )

    def __repr__(self) -> str:
        return f"FusedOp({' | '.join(self.kinds)})"

    def __reduce__(self):
        # The kernels are exec-compiled closures: a FusedOp ships as its
        # source ops, and the receiving process binds them to the factory
        # its own shape cache holds for their structure.
        return FusedOp, (self.source_ops,)

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
        if self.short_circuit:
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
        for j in self._op.shape.cut_slots:
            if state[j] <= 0:
                return True
        return self._down_cancelled()


# --------------------------------------------------------------------------- #
# The rewrite
# --------------------------------------------------------------------------- #


def _plan(tokens: tuple, merge: bool) -> tuple[tuple | None, int, int, int]:
    """The structural rewrite of a chain with these tokens: ``(recipe,
    stages, kernels, compiled)``.  ``recipe`` lists the rewritten chain —
    the index of a stage that passes through, or ``(shape, start, stop)``
    for the run ``ops[start:stop]`` — and is None when nothing compiles;
    ``stages`` counts the source stages that landed in multi-stage runs,
    ``kernels`` those runs and ``compiled`` the shapes this call built."""
    runs: list = []  # a pass-through index, or [start, stop, ufunc-ness]
    for i, token in enumerate(tokens):
        if token is not _UFUNC_MAP and token not in _FUSIBLE_TYPES:
            runs.append(i)
            continue
        # Counted ops join runs of either ufunc-ness (None: no opinion).
        ufunc = None if token in _COUNTED_TYPES else token is _UFUNC_MAP
        last = runs[-1] if runs else None
        if merge and type(last) is list and (
            ufunc is None or last[2] in (None, ufunc)
        ):
            last[1:] = [i + 1, last[2] if ufunc is None else ufunc]
        else:
            runs.append([i, i + 1, ufunc])
    if all(type(x) is int for x in runs):
        return None, 0, 0, 0
    recipe, stages, kernels, compiled = [], 0, 0, 0
    for x in runs:
        if type(x) is list:
            lo, hi, _ = x
            shape, built = _shape_for(tokens[lo:hi])
            x, compiled = (shape, lo, hi), compiled + built
            if hi - lo > 1:
                stages, kernels = stages + hi - lo, kernels + 1
        recipe.append(x)
    return tuple(recipe), stages, kernels, compiled


def _rebuild(recipe: tuple, ops: Sequence[Op]) -> list[Op]:
    """Bind ``recipe`` to ``ops``: each run becomes a ``FusedOp`` of its
    shape called with that run's callables."""
    if len(recipe) == 1 and type(recipe[0]) is tuple:  # one run: the chain
        return [FusedOp(ops, recipe[0][0])]
    return [
        ops[x] if type(x) is int else FusedOp(ops[x[1]:x[2]], x[0])
        for x in recipe
    ]


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
    chain, stages, _, _ = _rewrite(ops, merge)
    return chain, stages


# --------------------------------------------------------------------------- #
# Counters, memo
# --------------------------------------------------------------------------- #

_registry = global_registry()
#: Pipelines rewritten with >= one merged run.
_pipelines_fused = _registry.counter("fusion_pipelines_fused")
#: Source stages merged into multi-stage runs.
_stages_fused = _registry.counter("fusion_stages_fused")
#: Multi-stage FusedOps in those rewrites.
_kernels = _registry.counter("fusion_kernels")
#: Kernel factories compiled (new structures).
_factories_compiled = _registry.counter("fusion_factories_compiled")
#: Scans that found nothing to merge.
_unfused = _registry.counter("fusion_unfused")
#: Chains the memo answered with no rewrite.
_memo_hits = _registry.counter("fusion_memo_hits")

#: Rewrite memo: ``(merge, *tokens)`` → :func:`_plan`'s result.  Keyed by
#: structure only, so every terminal of a structure — on any thread,
#: with the same callables or new ones — binds the shapes the first one
#: compiled, and no entry holds a user op.
_memo: dict[tuple, tuple] = {}
#: Guards the memo: concurrent terminals all reach ``maybe_fuse``.
_lock = threading.Lock()


def _rewrite(
    ops: list[Op], merge: bool
) -> tuple[list[Op], int, int, int | None]:
    """The rewrite :func:`fuse_ops` describes, through the memo: returns
    ``(chain, stages, kernels, built)``, where ``built`` counts the kernel
    factories this call compiled, None when the memo answered."""
    key = (merge, *_tokens(ops))
    entry = _memo.get(key)
    built = None
    if entry is None:
        entry = _plan(key[1:], merge)
        built = entry[3]
        with _lock:
            remember(_memo, key, entry)
    recipe, stages, kernels, _ = entry
    chain = ops if recipe is None else _rebuild(recipe, ops)
    return chain, stages, kernels, built


def maybe_fuse(ops: list[Op], config: EngineConfig) -> list[Op]:
    """The run-time entry point, called once per run by the code that
    starts it: compile ``ops`` into kernels, merging adjacent stages when
    ``config.fusion`` is set.

    Memoized by the chain's structure and the setting, so a structure
    compiles its kernel factories once and every later terminal only
    binds its callables.  With fusion set, bumps the ``fusion_*``
    counters and, when tracing is enabled, emits a ``fuse`` span per
    rewrite that built kernels.
    """
    if not ops:
        return ops
    if not config.fusion:
        return _rewrite(ops, False)[0]
    tracer = current_tracer()
    start = time.perf_counter_ns() if tracer.enabled else 0
    fused, stages, kernels, built = _rewrite(ops, True)
    if stages:
        _pipelines_fused.inc()
        _stages_fused.inc(stages)
        _kernels.inc(kernels)
    elif fused is ops and built is None:
        _memo_hits.inc()
    else:
        _unfused.inc()
    if built:
        _factories_compiled.inc(built)
    if fused is not ops and tracer.enabled:
        tracer.emit(
            "fuse",
            worker=EXTERNAL_WORKER,
            start_ns=start,
            end_ns=time.perf_counter_ns(),
            stages=stages,
            kernels=kernels,
        )
    return fused
