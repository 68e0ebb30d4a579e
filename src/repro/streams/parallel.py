"""Fork/join evaluation of stream pipelines, and backend dispatch.

:func:`plan_segment` cuts a parallel terminal's pipeline into segments
at its stateful ops; ``Stream._evaluate`` runs them one by one and
``Stream.explain()`` reports them.  :func:`evaluate` runs any
:class:`~repro.streams.terminal.Terminal` over one segment, on the
backend the planner chose from the run's
:class:`~repro.streams.config.EngineConfig`:
``sequential`` to :func:`~repro.streams.terminal.evaluate_sequential`;
``threads`` (the default) grows a task tree the way
``java.util.stream.AbstractTask`` does: starting from the source
spliterator, ``try_split`` is called repeatedly until a node's
estimated size drops to the *target size* the split policy decides
(:mod:`repro.streams.adaptive`) or the spliterator refuses to split.  A
plan of one leaf runs in the caller, on ``threads`` and ``process``
alike; a wider ``process`` plan goes to
:func:`repro.streams.process_backend.run_segment`.  Each leaf runs the
terminal's one leaf body (:func:`~repro.streams.terminal.run_leaf`: a fresh sink, filled
through the fused op chain), and interior nodes merge the leaves'
partials with the terminal's ``merge`` in encounter order — prefix (the
spliterator returned by ``try_split``) first.

Fail-fast error propagation (``docs/robustness.md``): every terminal runs
its task tree under one :class:`_TerminalContext`.  The first exception
raised by any leaf or combiner is recorded there and trips the run's
cancel token — sibling subtrees stop splitting, skip their leaves,
forked-but-unclaimed tasks are cancelled so workers never claim them, and
in-flight leaves of every terminal family abort at their next poll point
(a chunk boundary on the chunked path).  The root then re-raises the
*original* exception to the caller, instead of burning the remaining
2^k-element workload first.
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from repro.common import CancellationError
from repro.faults.plan import current_fault_plan
from repro.faults.policy import Deadline
from repro.forkjoin.pool import (
    ForkJoinPool,
    common_pool_parallelism,
    current_worker,
)
from repro.forkjoin.task import RecursiveTask
from repro.obs.profile import current_profiler
from repro.obs.tracer import EXTERNAL_WORKER, current_tracer
from repro.streams import adaptive
from repro.streams.adaptive import compute_target_size
from repro.streams.config import EngineConfig
from repro.streams.fusion import counted_window, maybe_fuse
from repro.streams.ops import LimitOp, MapOp, Op, SkipOp
from repro.streams.spliterator import UNKNOWN_SIZE, Spliterator
from repro.streams.spliterators import ListSpliterator, RangeSpliterator
from repro.streams.terminal import Terminal, evaluate_sequential, run_leaf
from repro.streams.zipper import ZipSpliterator

def _worker_id() -> int:
    """Index of the calling pool worker, or EXTERNAL_WORKER outside one."""
    worker = current_worker()
    return worker.index if worker is not None else EXTERNAL_WORKER


def _attach_profiler(pool: ForkJoinPool) -> None:
    """Give an active profiler the pool so it can report counter deltas."""
    profiler = current_profiler()
    if profiler is not None:
        profiler.profile.attach_pool(pool)


class _CancelFlag:
    """The run's cancel token: ``set``/``is_set`` as on a
    ``threading.Event``, without the Event's condition and lock — leaves
    only ever set and poll it, and storing a bool is atomic."""

    __slots__ = ("_set",)

    def __init__(self) -> None:
        self._set = False

    def set(self) -> None:
        self._set = True

    def is_set(self) -> bool:
        return self._set


class _TerminalContext:
    """Shared cancellation state for one parallel terminal's task tree.

    Carries two distinct stop signals:

    * :attr:`cancel` — the run's cancel token, which every leaf sink
      polls.  A witness (match, ``find_any``) or a satisfied ``limit``
      budget sets it as a *success* short-circuit ("the answer is known,
      stop traversing"): leaves still run, but their sinks refuse
      elements immediately.
    * :attr:`failure` — the *error* short-circuit: the first exception
      recorded by :meth:`fail` wins, trips :attr:`cancel` too (stopping
      in-flight leaves at their next poll point), and makes every
      still-unsplit subtree return without touching its data.
    """

    __slots__ = ("cancel", "failure", "_lock", "pool", "observer")

    def __init__(self, pool: ForkJoinPool | None = None) -> None:
        self.cancel = _CancelFlag()
        self.failure: BaseException | None = None
        self._lock = threading.Lock()
        self.pool = pool
        #: RunObservation for an adaptive (``auto``) run, else None; leaves
        #: record their span durations here for the split policy.
        self.observer = None

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and cancel the remaining tree."""
        with self._lock:
            if self.failure is not None:
                return
            self.failure = exc
        self.cancel.set()
        if self.pool is not None:
            self.pool._note_failfast_cancellation()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "cancel", worker=_worker_id(), error=type(exc).__name__
            )


class _CountedBudget:
    """Encounter-order output budget for a parallel ``limit`` prefix.

    Leaves report ``(start, end, produced)`` source-index intervals as
    they complete; the budget is *satisfied* once the contiguous-from-
    origin prefix of completed intervals has produced >= ``n`` outputs.
    Only then may sibling leaves be cancelled: every aborted partial leaf
    lies strictly to the right of the satisfied prefix, so concatenating
    partials in encounter order and truncating to ``n`` still yields
    exactly the stream's first ``n`` outputs.
    """

    __slots__ = ("n", "_origin", "_lock", "_intervals", "satisfied")

    def __init__(self, n: int, origin: int) -> None:
        self.n = n
        self._origin = origin
        self._lock = threading.Lock()
        self._intervals: dict[int, tuple[int, int]] = {}
        self.satisfied = n <= 0

    def note(self, start: int, end: int, produced: int) -> bool:
        """Record a completed leaf; True once the budget is satisfied."""
        if self.satisfied:
            return True
        with self._lock:
            self._intervals[start] = (end, produced)
            frontier = self._origin
            total = 0
            while True:
                entry = self._intervals.get(frontier)
                if entry is None:
                    return self.satisfied
                end_pos, count = entry
                total += count
                if total >= self.n:
                    self.satisfied = True
                    return True
                if end_pos <= frontier:
                    # Zero-width interval (empty source/leaf): the walk
                    # cannot advance past it, and it contributes nothing.
                    return self.satisfied
                frontier = end_pos


def _leaf_origin(spliterator: Spliterator) -> int | None:
    """The absolute source position a leaf starts at, for spliterator
    types whose splits tile the source contiguously (lists, ranges, and
    the ndarray and PowerList sequences a ``ListSpliterator`` wraps);
    None disables cross-leaf budget cancellation and window narrowing."""
    if isinstance(spliterator, ListSpliterator):
        return spliterator._index
    if isinstance(spliterator, RangeSpliterator):
        return spliterator._lo
    return None


# --------------------------------------------------------------------------- #
# Plan: segments, counted windows and in-caller runs
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=4096)
def _walk_split_tree(size: int, target_size: int) -> tuple[int, int]:
    """Predicted ``(leaves, depth)`` of the divide-and-conquer tree.

    Mirrors ``_ReduceTask``: a node at or under the target is a leaf;
    otherwise the prefix takes ``size - size // 2`` elements and the
    suffix ``size // 2`` (``try_split`` halves, prefix gets the extra
    element of an odd split).  Memoized — sibling sizes repeat at every
    level, so the walk is O(depth²) instead of O(leaves).
    """
    if size <= target_size:
        return 1, 0
    suffix = size // 2
    left_leaves, left_depth = _walk_split_tree(size - suffix, target_size)
    right_leaves, right_depth = _walk_split_tree(suffix, target_size)
    return left_leaves + right_leaves, max(left_depth, right_depth) + 1


def backend_parallelism(backend: str, pool: ForkJoinPool | None) -> int:
    """The width a backend splits for, without creating a pool or
    executor as a side effect (``Stream.explain()`` plans with it too)."""
    if backend == "process":
        from repro.streams import process_backend as _pb

        executor = _pb._shared_executor
        return (
            executor.processes if executor is not None
            else _pb.default_process_count()
        )
    return pool.parallelism if pool is not None else common_pool_parallelism()


class Segment(NamedTuple):
    """One stateless stretch of a parallel terminal, as :func:`plan_segment`
    plans it: ``Stream._evaluate`` runs it and ``Stream.explain()``
    reports it.

    ``ops`` is the leaf op chain; ``barrier`` the ops that end the
    segment (none for the last one, a counted window's ``limit``/``skip``
    ops, or one stateful op) and ``rest`` the ops after them.  ``window``
    is a counted window's ``(lo, hi, of)`` source positions, ``budget`` a
    ``limit`` cut's count.  ``source`` is what the leaves split (a
    window's narrowed source), ``decision`` the split threshold and
    ``split_tree`` its ``(leaves, depth)``; all three are None for a
    barrier buffer that is not filled yet, and the last two for the
    ``sequential`` backend, which does not split.
    """

    ops: list
    barrier: tuple
    rest: list
    backend: str
    window: tuple | None = None
    budget: int | None = None
    source: Spliterator | None = None
    decision: adaptive.ThresholdDecision | None = None
    split_tree: tuple[int, int] | None = None


def plan_segment(
    source: Spliterator | None,
    ops: list[Op],
    parallelism: int,
    requested,
    config: EngineConfig,
    record: bool = True,
    after_barrier: bool = False,
) -> Segment:
    """Plan the next segment of a parallel terminal over ``source`` (None:
    a barrier buffer, not yet filled) — the one planner execution runs
    and ``Stream.explain()`` walks with ``record=False``.

    A leading run of ``map``/``limit``/``skip`` with a counted op over a
    contiguous source (:func:`_leaf_origin`; a barrier buffer is one) is
    a *window*: the window is sliced off the source before splitting, as
    the JDK's ``SliceOps`` does for SUBSIZED sources, and only the maps
    run.  Otherwise the segment runs the ops before the first stateful
    one, and a ``limit(n)`` cut appends its ``LimitOp`` to each leaf as
    the *budget* (see :func:`evaluate`).  An op-free tail after a barrier
    on threads is folded in the caller (backend ``sequential``) instead
    of being split just to copy or fold it.  On the ``sequential``
    backend nothing runs in parallel, so the whole chain is one segment:
    one pipeline in the caller, fused as a sequential stream fuses it,
    with no barrier buffers.

    For a known source the threshold is decided once here, keyed by the
    segment's shape.  A window's leaf target is the one the un-narrowed
    source gets: narrowing changes how many elements run, not what one
    costs.  A zip that cannot split is one leaf.
    """
    backend = config.backend
    if after_barrier and backend == "threads" and not ops:
        backend = "sequential"
    if backend == "sequential":
        return Segment(list(ops), (), [], backend, source=source)
    run = 0
    while run < len(ops) and type(ops[run]) in (MapOp, LimitOp, SkipOp):
        run += 1
    window = counted_window(ops[:run])
    origin = None if source is None else _leaf_origin(source)
    budget = None
    if window is not None and (source is None or origin is not None):
        shape = [op for op in ops[:run] if type(op) is MapOp]
        barrier = tuple(op for op in ops[:run] if type(op) is not MapOp)
        leaf_ops, rest = shape, ops[run:]
    else:
        window = None
        cut = next((i for i, op in enumerate(ops) if op.stateful), len(ops))
        shape, barrier = ops[:cut], tuple(ops[cut:cut + 1])
        leaf_ops, rest = shape, ops[cut + 1:]
        if barrier and isinstance(barrier[0], LimitOp):
            budget = barrier[0].n
            leaf_ops = shape + [barrier[0]]
    if source is None:
        if window is not None:
            window = (*window, None)
        return Segment(leaf_ops, barrier, rest, backend, window, budget)
    size = source.estimate_size()
    narrowed = source
    if window is not None:
        lo = min(window[0], size)
        hi = size if window[1] is None else max(lo, min(window[1], size))
        window = (lo, hi, size)
        if isinstance(source, RangeSpliterator):
            narrowed = RangeSpliterator(origin + lo, origin + hi)
        else:
            narrowed = ListSpliterator(
                source._source, origin + lo, origin + hi, source._extra
            )
    decision = adaptive.decide_threshold(
        size, parallelism, explicit=requested, record=record,
        key=adaptive.shape_key(shape, source, parallelism, backend),
    )
    leaf_size = narrowed.estimate_size()
    if leaf_size == UNKNOWN_SIZE:
        tree = None
    elif isinstance(narrowed, ZipSpliterator) and not narrowed.splittable():
        tree = (1, 0)
    else:
        tree = _walk_split_tree(leaf_size, decision.target_size)
    return Segment(
        leaf_ops, barrier, rest, backend, window, budget, narrowed, decision,
        tree,
    )


class _ReduceTask(RecursiveTask):
    """Generic ordered divide-and-conquer over a spliterator.

    Parameterized by a ``leaf`` function (spliterator → partial result) and
    a ``merge`` function (prefix result, suffix result → result), it
    expresses every parallel terminal operation in this module.  All tasks
    of one terminal share a :class:`_TerminalContext` for fail-fast and
    short-circuit cancellation.
    """

    __slots__ = ("spliterator", "target_size", "leaf", "merge", "ctx", "depth")

    def __init__(
        self,
        spliterator: Spliterator,
        target_size: int,
        leaf: Callable[[Spliterator], Any],
        merge: Callable[[Any, Any], Any],
        ctx: _TerminalContext,
        depth: int = 0,
    ) -> None:
        super().__init__()
        self.spliterator = spliterator
        self.target_size = target_size
        self.leaf = leaf
        self.merge = merge
        self.ctx = ctx
        self.depth = depth

    def compute(self) -> Any:
        # The tracer is fetched once per task; with tracing disabled each
        # event site below costs one ``enabled`` attribute check.
        ctx = self.ctx
        tracer = current_tracer()
        spliterator = self.spliterator
        while True:
            if ctx.failure is not None:
                # A sibling already failed: skip this whole subtree.  The
                # value is irrelevant — the root re-raises the failure.
                return None
            if ctx.cancel.is_set():
                # Success short-circuit (match/find): stop splitting; the
                # leaf's sink refuses elements, so this returns instantly
                # with the terminal's identity result.
                return self._leaf(spliterator, tracer)
            size = spliterator.estimate_size()
            if size <= self.target_size:
                return self._leaf(spliterator, tracer)
            if tracer.enabled:
                start = time.perf_counter_ns()
                prefix = spliterator.try_split()
                tracer.emit(
                    "split",
                    worker=_worker_id(),
                    start_ns=start,
                    end_ns=time.perf_counter_ns(),
                    size=size,
                )
            else:
                prefix = spliterator.try_split()
            if prefix is None:
                return self._leaf(spliterator, tracer)
            left = _ReduceTask(
                prefix, self.target_size, self.leaf, self.merge, ctx,
                self.depth + 1,
            )
            left.fork()
            try:
                right_result = _ReduceTask(
                    spliterator, self.target_size, self.leaf, self.merge, ctx,
                    self.depth + 1,
                ).compute()
            except BaseException as exc:
                ctx.fail(exc)
                # The forked sibling would otherwise run to completion on
                # another worker; cancelling it here lets an unclaimed
                # task die on the deque without ever being executed.
                left.cancel()
                raise
            try:
                left_result = left.join()
            except BaseException as exc:
                ctx.fail(exc)
                raise
            if ctx.failure is not None:
                return None  # partials are garbage once the tree failed
            if tracer.enabled:
                start = time.perf_counter_ns()
                result = self._merge(left_result, right_result)
                tracer.emit(
                    "combine",
                    worker=_worker_id(),
                    start_ns=start,
                    end_ns=time.perf_counter_ns(),
                    size=size,
                )
                return result
            return self._merge(left_result, right_result)

    def _merge(self, left_result: Any, right_result: Any) -> Any:
        try:
            plan = current_fault_plan()
            if plan is not None:
                action = plan.fire(
                    "combine", allowed=("raise", "delay", "corrupt"),
                    depth=self.depth, worker=_worker_id(),
                )
                if action is not None:
                    action.apply_before()
                    return action.apply_result(
                        self.merge(left_result, right_result)
                    )
            return self.merge(left_result, right_result)
        except BaseException as exc:  # combiner failure is fail-fast too
            self.ctx.fail(exc)
            raise

    def _leaf(self, spliterator: Spliterator, tracer) -> Any:
        ctx = self.ctx
        try:
            return _run_leaf_body(
                self.leaf, spliterator, self.depth, tracer, ctx.observer,
                ctx.pool,
            )
        except BaseException as exc:
            ctx.fail(exc)
            raise


def _run_leaf_body(
    leaf: Callable[[Spliterator], Any],
    spliterator: Spliterator,
    depth: int,
    tracer,
    observer,
    pool: ForkJoinPool | None,
) -> Any:
    """Run ``leaf`` over ``spliterator`` with everything a leaf carries:
    the ``leaf`` fault point, the ``leaf`` span, the split policy's
    observer and the profiler — for a task-tree leaf and for a one-leaf
    plan run in the caller alike."""
    action = None
    plan = current_fault_plan()
    if plan is not None:
        action = plan.fire(
            "leaf", allowed=("raise", "delay", "corrupt"),
            depth=depth, size=spliterator.estimate_size(),
            worker=_worker_id(),
        )
        if action is not None:
            action.apply_before()
    profiler = current_profiler()
    if not tracer.enabled and profiler is None and observer is None:
        result = leaf(spliterator)
    else:
        size = spliterator.estimate_size()
        start = time.perf_counter_ns()
        result = leaf(spliterator)
        end = time.perf_counter_ns()
        if tracer.enabled:
            tracer.emit(
                "leaf",
                worker=_worker_id(),
                start_ns=start,
                end_ns=end,
                size=size,
            )
        if observer is not None:
            observer.record_leaf(end - start, size)
        if profiler is not None:
            profiler.profile.record_leaf(end - start, size)
            if pool is not None:
                pool._observe_leaf_duration(end - start)
    if action is not None:
        result = action.apply_result(result)
    return result


def _invoke_fail_fast(
    pool: ForkJoinPool,
    root: _ReduceTask,
    ctx: _TerminalContext,
    deadline: Deadline | None = None,
):
    """Run ``root`` on ``pool``, guaranteeing the *original* failure wins.

    Once a leaf has failed, sibling tasks may settle as cancelled; which
    exception reaches the root first is a race.  This entry point pins the
    contract: the caller always sees the first recorded failure, never a
    secondary :class:`CancellationError`.

    A ``deadline`` bounds the external wait: the remaining budget becomes
    ``pool.invoke``'s timeout, so an overrunning terminal surfaces as
    :class:`~repro.common.TaskTimeoutError` instead of blocking forever.
    """
    timeout = None
    if deadline is not None:
        deadline.check("parallel terminal")
        timeout = deadline.remaining()
    try:
        return pool.invoke(root, timeout=timeout)
    except BaseException as exc:
        original = ctx.failure
        if original is not None and exc is not original:
            raise original from None
        raise


def evaluate(
    segment: Segment,
    terminal: Terminal,
    pool: ForkJoinPool,
    config: EngineConfig,
    deadline: Deadline | None = None,
) -> Any:
    """Run ``terminal`` over one planned segment (:func:`plan_segment`) on
    the segment's backend, with ``config`` carried into every leaf.

    On threads this is the paper's template method: each leaf of the
    divide-and-conquer tree builds a fresh sink (the supplier), fills it
    (the accumulator), and interior nodes merge partials (the combiner).
    Runs fail-fast: the first leaf or combiner exception cancels the
    remaining tree and re-raises promptly.

    A plan of one leaf runs in the caller on threads and process alike,
    through the same leaf body (:func:`_run_leaf_body`: fused kernel,
    ``leaf`` span, fault point, observer) with the deadline checked on
    both sides: no task, no pool round trip, no shipping.  The process backend checks that the
    pipeline pickles first, so an unpicklable one fails the same way at
    every size.

    A segment with a ``budget`` (its stateful cut is a ``limit(n)``; the
    terminal is then ``Collect(to_list)``) runs the ``LimitOp(n)`` in
    every leaf (sound — the global first n outputs never need more than
    the first n of any leaf, and the counted fused kernel stops that
    leaf's scan at its cut), and a :class:`_CountedBudget` cancels
    still-running sibling leaves once the contiguous prefix of completed
    leaves has produced ``n`` outputs.  The caller truncates the merged
    buffer.
    """
    spliterator, ops, budget = segment.source, segment.ops, segment.budget
    if segment.backend == "sequential":
        if deadline is not None:
            deadline.check(f"sequential {terminal.label}")
        return evaluate_sequential(terminal, spliterator, ops, config)
    decision = segment.decision
    in_caller = segment.split_tree is not None and segment.split_tree[0] == 1
    if segment.backend == "process":
        from repro.streams import process_backend as _pb

        if not in_caller:
            # Backend dispatch happens on the *raw* op chain: fused
            # kernels are exec-compiled and unpicklable, so the process
            # backend ships unfused ops and each worker re-fuses locally.
            return _pb.run_segment(
                spliterator, ops, terminal, config, decision, deadline,
                budget=budget,
            )
        _pb.shipped_terminal(terminal, ops)
        pool = None
    observer = None
    if decision.adaptive and terminal.observe:
        # Find leaves stop early by design and would poison the
        # per-element cost estimate, so find terminals are not observed.
        observer = adaptive.RunObservation(decision.key)
    ops = maybe_fuse(ops, config)
    if pool is not None:
        _attach_profiler(pool)
    if in_caller:
        # One leaf has no siblings to cancel: no task, no cancel token, no
        # cross-leaf ``limit`` budget.
        if deadline is not None:
            deadline.check("parallel terminal")
        merged = _run_leaf_body(
            lambda leaf_spliterator: run_leaf(
                terminal, leaf_spliterator, ops, config, None,
                decision.chunk_size,
            ),
            spliterator, 0, current_tracer(), observer, pool,
        )
        if deadline is not None:
            deadline.check("parallel terminal")
    else:
        counted_budget = None
        if budget is not None:
            root_origin = _leaf_origin(spliterator)
            if root_origin is not None:
                counted_budget = _CountedBudget(budget, root_origin)
        ctx = _TerminalContext(pool)
        ctx.observer = observer
        cancel = ctx.cancel

        def leaf(leaf_spliterator: Spliterator) -> Any:
            # Each fork/join leaf traverses its sub-spliterator through
            # the shared entry point, so the chunked fast path engages per
            # leaf: O(stages) Python calls instead of O(elements × stages).
            origin = None
            if counted_budget is not None:
                origin = _leaf_origin(leaf_spliterator)
                span = leaf_spliterator.estimate_size()
            partial = run_leaf(
                terminal, leaf_spliterator, ops, config, cancel,
                decision.chunk_size,
            )
            if ctx.failure is not None:
                raise CancellationError("leaf aborted by sibling failure")
            if origin is not None and not cancel.is_set():
                # Only completed leaves may report: a partial (aborted)
                # leaf's interval would break the contiguous-prefix
                # soundness rule.
                if counted_budget.note(origin, origin + span, len(partial)):
                    cancel.set()
            return partial

        root = _ReduceTask(
            spliterator, decision.target_size, leaf, terminal.merge, ctx
        )
        merged = _invoke_fail_fast(pool, root, ctx, deadline)
    if observer is not None and not (terminal.broadcast and terminal.hit(merged)):
        # A decided broadcast run aborted its leaves early, which would
        # skew the per-element cost: only full traversals feed the memo.
        observer.complete()
    return terminal.finish(merged)
