"""The split policy: metrics-driven split thresholds and chunk sizing.

Java splits every parallel stream by the static heuristic
``max(size // (parallelism * 4), 1)``, whatever the work costs, and AB4
showed how sensitive the speedup curves are to that knob.  This module
is the engine's only default split policy.  Every parallel terminal
samples its per-leaf span durations, folds them into a small
per-pipeline-shape memo of per-element cost, and the *next* run of the
same shape sizes its leaves from that **observed per-element cost**
instead of the element count:

* the first run of a shape has no observed cost and **bootstraps** with
  Java's rule;
* the **work rule**: once a cost is known, a run whose whole work
  (``size × cost``) fits one leaf span is **one leaf**, run in the
  caller — no split, no pool round trip.  Anything larger gets at most
  ``ceil(size / parallelism)`` elements per leaf, so every worker has a
  leaf;
* between those bounds the policy aims each leaf at the leaf-span target
  (``target = span_target / cost_per_element``), never splitting deeper
  than Java's ``size // (4 × parallelism)`` — more than four leaves per
  worker buys no parallelism, only task overhead;
* the leaf-span target is the constant :data:`TARGET_LEAF_SPAN_NS`
  (32 ms) on every backend: the policy runs no task outside a
  terminal's own split tree, and its decisions do not depend on how
  loaded the pool happened to be;
* ``next_chunk`` granularity for the chunked bulk path is likewise picked
  so one chunk costs ~:data:`TARGET_CHUNK_SPAN_NS`.

A *shape* is (backend, source type, parallelism, op chain with the code
of each user callable) — two pipelines with the same operators but
different functions learn independently, which keeps the policy honest
about fused-kernel per-element cost instead of assuming uniform ops.

An explicit integer ``Stream.with_target_size(n)`` always wins (AB4 and
FIG3 sweep it); ``with_target_size("auto")`` names the default.
``Stream.explain()`` reports the decision (``threshold_source="auto"``)
together with the inputs that drove it: the segment planner
(``parallel.plan_segment``) makes it once per segment through
:func:`decide_threshold`, and explaining walks the same planner.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import global_registry
from repro.streams.spliterator import UNKNOWN_SIZE

#: Number of leaves per worker Java aims for (AbstractTask.LEAF_TARGET).
LEAF_FACTOR = 4

#: Base leaf size for unsized sources, divided by the parallelism so an
#: unknown-size split still deepens with more workers (it used to be a
#: flat ``1 << 10`` regardless of the pool).
UNKNOWN_SIZE_BASE = 1 << 12

#: The sentinel accepted by ``with_target_size`` / ``decide_threshold``.
AUTO = "auto"

#: Wall time one leaf should cost under the adaptive policy, on every
#: backend.  Deliberately coarse: per-task overhead can reach hundreds of
#: µs on a loaded or GIL-contended host, and a ~30ms leaf keeps that
#: below ~2% while a multi-second terminal still yields dozens of leaves.
TARGET_LEAF_SPAN_NS = 32_000_000

#: Wall time one ``next_chunk`` batch should cost on the chunked path —
#: also the cancellation-poll latency of a running leaf, so it stays well
#: under the leaf span target.
TARGET_CHUNK_SPAN_NS = 1_000_000

_MIN_CHUNK = 1 << 10
_MAX_CHUNK = 1 << 16  # repro.streams.ops.CHUNK_SIZE (imported lazily — cycle)

_MEMO_LIMIT = 256

#: ``threshold_source`` labels shared with ``Stream.explain()``.
SOURCE_EXPLICIT = "with_target_size"
SOURCE_AUTO = "auto"

#: ``threshold_inputs["basis"]`` of a shape with no observed cost yet.
BASIS_BOOTSTRAP = "bootstrap (no observed cost)"

_registry = global_registry()
#: ``auto`` decisions segments ran by (:func:`record_decision`).
_decisions = _registry.counter("split_decisions")
#: Those of them made with no observed cost (Java's rule).
_bootstraps = _registry.counter("split_bootstraps")
#: Completed runs folded into the memo.
_observed_runs = _registry.counter("split_observed_runs")


def compute_target_size(size: int, parallelism: int) -> int:
    """Java's split threshold: ``max(size / (parallelism * 4), 1)``.

    Unsized sources get :data:`UNKNOWN_SIZE_BASE` scaled down by the
    parallelism, so a wider pool still splits an iterator-backed stream
    into enough batches to occupy its workers.
    """
    if size == UNKNOWN_SIZE:
        return max(UNKNOWN_SIZE_BASE // parallelism, 1)
    return max(size // (parallelism * LEAF_FACTOR), 1)


# --------------------------------------------------------------------------- #
# Pipeline-shape keys
# --------------------------------------------------------------------------- #


def _callable_key(fn: Any) -> Any:
    """A callable's cost identity: its code object, or the qualified name
    of a callable without one (builtins, ufuncs, callable instances),
    through the wrapped function of a partial."""
    code = getattr(fn, "__code__", None)
    if code is not None:
        return code
    if isinstance(fn, functools.partial):
        return (functools.partial, _callable_key(fn.func))
    name = (
        getattr(fn, "__qualname__", None)
        or getattr(fn, "__name__", None)
        or type(fn).__name__
    )
    return f"{getattr(fn, '__module__', '?')}.{name}"


def shape_key(
    ops: list,
    spliterator: Any,
    parallelism: int,
    backend: str = "threads",
) -> tuple:
    """The memo key for one pipeline shape.

    Includes the code of every user callable an op carries —
    ``map(parse)`` and ``map(hash)`` have very different per-element
    costs and must not share a cost estimate, while an inline lambda
    rebuilt every terminal keeps its learned cost.  The key holds code
    objects and names, never the callables, so it keeps no user closure
    alive.  The element count is deliberately *excluded*:
    cost-per-element transfers across sizes, which is the whole point of
    the memo.
    """
    stages = []
    for op in ops:
        stage = [type(op)]
        for value in getattr(op, "__dict__", {}).values():
            if callable(value):
                stage.append(_callable_key(value))
        stages.append(tuple(stage))
    return (backend, type(spliterator).__name__, parallelism, tuple(stages))


# --------------------------------------------------------------------------- #
# Decisions and observations
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ThresholdDecision:
    """One resolved split threshold, shared by execution and ``explain``."""

    target_size: int
    #: Adaptive ``next_chunk`` granularity, or None for the default.
    chunk_size: int | None
    #: ``threshold_source`` label (see the SOURCE_* constants).
    source: str
    #: For ``auto`` decisions: the measurements that drove the choice.
    inputs: dict | None
    #: True when the adaptive policy chose (and should observe the run).
    adaptive: bool
    key: tuple | None = None


class RunObservation:
    """Per-run sample sheet an ``auto`` terminal fills in while it runs.

    Leaves run by the fork/join template (pool workers or the caller)
    call :meth:`record_leaf` (list appends — safe under the GIL from
    concurrent workers); the process backend calls :meth:`record_batch`
    with child-reported batch durations.  On success the terminal calls
    :meth:`complete`, which feeds the policy memo.
    Cancelled short-circuit runs are simply never completed — a leaf that
    aborted early would poison the per-element cost estimate.
    """

    __slots__ = ("key", "leaf_ns", "leaf_elements", "leaf_sizes")

    def __init__(
        self, key: tuple, leaf_sizes: list[int] | None = None
    ) -> None:
        self.key = key
        self.leaf_ns: list[int] = []
        self.leaf_elements: list[int] = []
        self.leaf_sizes = leaf_sizes

    def record_leaf(self, duration_ns: int, elements: int) -> None:
        self.leaf_ns.append(duration_ns)
        self.leaf_elements.append(max(elements, 0))

    def record_batch(self, lo: int, hi: int, duration_ns: int) -> None:
        """Spread one child batch's duration evenly over its leaf slots."""
        count = hi - lo
        if count <= 0:
            return
        per_leaf = duration_ns // count
        sizes = self.leaf_sizes
        for i in range(lo, hi):
            self.leaf_ns.append(per_leaf)
            self.leaf_elements.append(sizes[i] if sizes is not None else 0)

    def complete(self) -> None:
        """Feed the finished run to the policy."""
        _policy.observe_run(self)


class _ShapeEntry:
    __slots__ = ("cost_ns", "runs")

    def __init__(self) -> None:
        self.cost_ns = 0.0  # EWMA per-element wall cost; 0 = unknown
        self.runs = 0


def _pow2_at_most(value: float, lo: int, hi: int) -> int:
    """Largest power of two ≤ ``value``, clamped to ``[lo, hi]``."""
    if value < lo:
        return lo
    if value >= hi:
        return hi
    return 1 << (int(value).bit_length() - 1)


class SplitPolicy:
    """The adaptive threshold policy: a shape-keyed per-element cost memo.

    Deciding is read-only (``explain()`` may call it freely); only
    :meth:`observe_run` — fed by completed terminals — mutates state.
    All state is process-local; worker children never consult it (they
    receive resolved sizes in payloads).
    """

    def __init__(
        self,
        target_leaf_span_ns: int = TARGET_LEAF_SPAN_NS,
        target_chunk_span_ns: int = TARGET_CHUNK_SPAN_NS,
    ) -> None:
        self.target_leaf_span_ns = target_leaf_span_ns
        self.target_chunk_span_ns = target_chunk_span_ns
        self._lock = threading.Lock()
        self._memo: dict[tuple, _ShapeEntry] = {}

    # -- deciding ----------------------------------------------------------- #

    def decide(
        self, size: int, parallelism: int, key: tuple | None
    ) -> ThresholdDecision:
        with self._lock:
            entry = self._memo.get(key) if key is not None else None
            cost = entry.cost_ns if entry is not None else 0.0
            runs = entry.runs if entry is not None else 0
        span_target = self.target_leaf_span_ns
        inputs = {
            "policy": AUTO,
            "parallelism": parallelism,
            "observed_runs": runs,
            "cost_per_element_ns": round(cost, 1),
            "target_leaf_span_ns": span_target,
        }
        if cost <= 0.0:
            # Nothing observed for this shape yet: bootstrap with Java's
            # rule; the first completed run seeds the cost estimate.
            inputs["basis"] = BASIS_BOOTSTRAP
            return ThresholdDecision(
                compute_target_size(size, parallelism), None,
                SOURCE_AUTO, inputs, True, key,
            )
        chunk = _pow2_at_most(
            self.target_chunk_span_ns / cost, _MIN_CHUNK, _MAX_CHUNK
        )
        if size != UNKNOWN_SIZE and size * cost <= span_target:
            # The work rule: the whole run fits one leaf span, so any
            # split would cost more in dispatch than it could win back.
            inputs["basis"] = "size × cost ≤ target leaf span: one leaf"
            return ThresholdDecision(
                max(size, 1), chunk, SOURCE_AUTO, inputs, True, key
            )
        target = max(int(span_target / cost), 1)
        inputs["basis"] = "target leaf span ÷ observed cost"
        if size != UNKNOWN_SIZE:
            # Cost-derived sizing only ever *coarsens* relative to Java's
            # rule: splitting deeper than 4 leaves per worker already
            # saturates the pool, so a finer cost target would buy pure
            # task overhead.
            floor = compute_target_size(size, parallelism)
            if floor > target:
                target = floor
                inputs["basis"] = "size // (4 × parallelism) floor"
            # The other half of the work rule: work that does not fit one
            # leaf gets at least one leaf per worker.
            per_worker = -(-size // parallelism)
            if target > per_worker:
                target = max(per_worker, 1)
                inputs["basis"] = "ceil(size / parallelism): a leaf per worker"
        return ThresholdDecision(target, chunk, SOURCE_AUTO, inputs, True, key)

    # -- learning ----------------------------------------------------------- #

    def observe_run(self, obs: RunObservation) -> None:
        if not obs.leaf_ns or obs.key is None:
            return
        total_ns = sum(obs.leaf_ns)
        elements = sum(obs.leaf_elements)
        with self._lock:
            entry = self._memo.get(obs.key)
            if entry is None:
                if len(self._memo) >= _MEMO_LIMIT:
                    self._memo.pop(next(iter(self._memo)))
                entry = self._memo[obs.key] = _ShapeEntry()
            if elements > 0 and total_ns > 0:
                cost = total_ns / elements
                entry.cost_ns = (
                    cost if entry.cost_ns <= 0.0
                    else 0.5 * (entry.cost_ns + cost)
                )
            entry.runs += 1
        _observed_runs.inc()

    # -- introspection ------------------------------------------------------ #

    def memo_entry(self, key: tuple) -> dict | None:
        """The learned state for one shape (tests/benchmarks)."""
        with self._lock:
            entry = self._memo.get(key)
            if entry is None:
                return None
            return {
                "cost_per_element_ns": entry.cost_ns,
                "runs": entry.runs,
            }

    def reset(self) -> None:
        with self._lock:
            self._memo.clear()


_policy = SplitPolicy()


# --------------------------------------------------------------------------- #
# The threshold decision
# --------------------------------------------------------------------------- #


def reset_split_policy() -> None:
    """Forget every learned shape (benchmarks and tests isolate runs with
    this)."""
    _policy.reset()


def decide_threshold(
    size: int,
    parallelism: int,
    explicit: Any = None,
    key: tuple | None = None,
) -> ThresholdDecision:
    """The single threshold decision function.

    The segment planner (``parallel.plan_segment``) calls it once per
    segment, for execution and ``Stream.explain()`` alike.
    ``explicit`` is an integer from ``with_target_size`` (it wins), or
    None / ``"auto"`` for the policy.  Deciding counts nothing: a segment
    that runs by the decision counts it (:func:`record_decision`).
    """
    if isinstance(explicit, int):
        return ThresholdDecision(explicit, None, SOURCE_EXPLICIT, None, False, key)
    return _policy.decide(size, parallelism, key)


def record_decision(decision: ThresholdDecision) -> None:
    """Count an ``auto`` decision a segment runs by (``parallel.evaluate``
    calls it; ``Stream.explain()`` never runs a segment, so explaining
    counts nothing)."""
    _decisions.inc()
    if decision.inputs["basis"] == BASIS_BOOTSTRAP:
        _bootstraps.inc()
