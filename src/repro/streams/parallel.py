"""Fork/join evaluation of stream pipelines, and backend dispatch.

:func:`evaluate` runs any :class:`~repro.streams.terminal.Terminal` on the
backend the run's :class:`~repro.streams.config.EngineConfig` names:
``process`` hands it to :func:`repro.streams.process_backend.evaluate`,
``sequential`` to :func:`~repro.streams.terminal.evaluate_sequential`,
and ``threads`` (the default) grows a task tree the way
``java.util.stream.AbstractTask`` does: starting from the source
spliterator, ``try_split`` is called repeatedly until a node's
estimated size drops to the *target size*
(``source size / (4 × parallelism)``, Java's heuristic) or the
spliterator refuses to split.  Each leaf runs the terminal's one leaf
body (:func:`~repro.streams.terminal.run_leaf`: a fresh sink, filled
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

Only *stateless* ops reach :func:`evaluate`; :mod:`repro.streams.stream`
segments pipelines at stateful operations first.
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
from repro.streams.adaptive import LEAF_FACTOR, compute_target_size
from repro.streams.config import EngineConfig
from repro.streams.fusion import counted_window, maybe_fuse
from repro.streams.ops import LimitOp, MapOp, Op, SkipOp
from repro.streams.spliterator import Spliterator
from repro.streams.spliterators import ListSpliterator, RangeSpliterator
from repro.streams.terminal import Terminal, evaluate_sequential, run_leaf

def _worker_id() -> int:
    """Index of the calling pool worker, or EXTERNAL_WORKER outside one."""
    worker = current_worker()
    return worker.index if worker is not None else EXTERNAL_WORKER


def _attach_profiler(pool: ForkJoinPool) -> None:
    """Give an active profiler the pool so it can report counter deltas."""
    profiler = current_profiler()
    if profiler is not None:
        profiler.profile.attach_pool(pool)


def _resolve_threshold(
    spliterator: Spliterator,
    ops: list[Op],
    pool: ForkJoinPool,
    requested,
    config: EngineConfig,
    observe: bool = True,
) -> tuple[int, int | None, "adaptive.RunObservation | None"]:
    """Resolve one terminal's split threshold through the shared decision
    function (:func:`repro.streams.adaptive.decide_threshold` — the same
    one ``Stream.explain()`` consults, so plans cannot drift).

    Returns ``(target_size, chunk_size, observer)``; the observer is
    non-None only for ``auto`` decisions that should feed the policy memo
    (``observe=False`` for find terminals, whose leaves stop early by
    design and would poison the per-element cost estimate).
    """
    size = spliterator.estimate_size()
    if not adaptive.wants_auto(requested, config):
        # Fixed-policy fast path: skip shape fingerprinting entirely.
        return adaptive.fixed_target(size, pool.parallelism, requested), None, None
    key = adaptive.shape_key(ops, spliterator, pool.parallelism, backend="threads")
    decision = adaptive.decide_threshold(
        size, pool.parallelism, config, explicit=requested, key=key
    )
    observer = None
    if observe:
        observer = adaptive.RunObservation(
            key, pool.parallelism, decision.target_size,
            pool_snapshot=pool.scheduling_snapshot(),
        )
    return decision.target_size, decision.chunk_size, observer


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
        self.cancel = threading.Event()
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
# Plan: counted windows and in-caller runs
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


class WindowPlan(NamedTuple):
    """A ``limit``/``skip`` cut that follows only ``map`` stages.

    ``maps``/``counted``/``rest`` split the op chain; ``[lo, hi)`` is the
    source-index window (``hi`` None = unbounded).  :func:`plan_window`
    fills in the rest against a contiguous sized source; they stay None
    for a barrier buffer whose size ``Stream.explain()`` cannot know.
    """

    maps: list
    counted: list
    rest: list
    lo: int
    hi: int | None
    size: int | None = None
    spliterator: Spliterator | None = None
    target_size: int | None = None
    split_tree: tuple[int, int] | None = None
    in_caller: bool = False


def window_run(ops: list[Op]) -> WindowPlan | None:
    """The leading ``map``/``limit``/``skip`` run of ``ops`` as a window
    plan, or None when it holds no counted op (the run the fuser labels
    ``counted-window``; see :func:`repro.streams.fusion.counted_window`)."""
    run = 0
    while run < len(ops) and type(ops[run]) in (MapOp, LimitOp, SkipOp):
        run += 1
    window = counted_window(ops[:run])
    if window is None:
        return None
    head = ops[:run]
    return WindowPlan(
        [op for op in head if type(op) is MapOp],
        [op for op in head if type(op) is not MapOp],
        ops[run:], window[0], window[1],
    )


def plan_window(
    spliterator: Spliterator,
    ops: list[Op],
    parallelism: int,
    requested,
    config: EngineConfig,
    record: bool = True,
) -> WindowPlan | None:
    """Plan a parallel ``limit``/``skip`` over maps to evaluate only its
    window — the decision ``Stream._barrier_stateful`` executes and
    ``Stream.explain()`` reports.

    Over a contiguous sized source (:func:`_leaf_origin`) the window is
    sliced off the source before splitting, as the JDK's ``SliceOps``
    does for SUBSIZED sources, so no element outside it is evaluated and
    no budget or per-leaf limit is needed.  The leaf target is the one
    the un-narrowed source gets: narrowing changes how many elements run,
    not what one costs, and Java's rule applied to the window's size
    would split a 100-element window into ``4 × parallelism`` slivers.
    On the threads backend a window within that target is one leaf, run
    in the caller.  Returns None where the rule does not apply.
    """
    plan = window_run(ops)
    origin = _leaf_origin(spliterator)
    if plan is None or origin is None:
        return None
    size = spliterator.estimate_size()
    lo = min(plan.lo, size)
    hi = size if plan.hi is None else max(lo, min(plan.hi, size))
    if isinstance(spliterator, RangeSpliterator):
        narrowed = RangeSpliterator(origin + lo, origin + hi)
    else:
        narrowed = ListSpliterator(
            spliterator._source, origin + lo, origin + hi, spliterator._extra
        )
    if adaptive.wants_auto(requested, config):
        # Keyed like the first segment explain() reports: the maps
        # before the first counted op.
        cut = next(i for i, op in enumerate(ops) if op.stateful)
        key = adaptive.shape_key(
            ops[:cut], spliterator, parallelism, config.backend
        )
        target = adaptive.decide_threshold(
            size, parallelism, config, explicit=requested, key=key,
            record=record,
        ).target_size
    else:
        target = adaptive.fixed_target(size, parallelism, requested)
    return plan._replace(
        lo=lo, hi=hi, size=size, spliterator=narrowed, target_size=target,
        split_tree=_walk_split_tree(hi - lo, target),
        in_caller=config.backend == "threads" and hi - lo <= target,
    )


def residual_backend(backend: str, ops: list[Op]) -> str:
    """The backend for the tail after a pipeline's last barrier.

    An op-free tail on threads folds its buffer in the caller (the
    ``sequential`` path) instead of re-splitting it by Java's
    ``size // (4 × parallelism)`` rule just to copy or fold it.
    """
    return "sequential" if backend == "threads" and not ops else backend


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
        try:
            action = None
            plan = current_fault_plan()
            if plan is not None:
                action = plan.fire(
                    "leaf", allowed=("raise", "delay", "corrupt"),
                    depth=self.depth, size=spliterator.estimate_size(),
                    worker=_worker_id(),
                )
                if action is not None:
                    action.apply_before()
            profiler = current_profiler()
            observer = self.ctx.observer
            if not tracer.enabled and profiler is None and observer is None:
                result = self.leaf(spliterator)
            else:
                size = spliterator.estimate_size()
                start = time.perf_counter_ns()
                result = self.leaf(spliterator)
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
                    pool = self.ctx.pool
                    if pool is not None:
                        pool._observe_leaf_duration(end - start)
            if action is not None:
                result = action.apply_result(result)
            return result
        except BaseException as exc:
            self.ctx.fail(exc)
            raise


def _invoke_fail_fast(
    pool: ForkJoinPool,
    root: _ReduceTask,
    ctx: _TerminalContext,
    deadline: Deadline | None = None,
    in_caller: bool = False,
):
    """Run ``root`` on ``pool``, guaranteeing the *original* failure wins.

    Once a leaf has failed, sibling tasks may settle as cancelled; which
    exception reaches the root first is a race.  This entry point pins the
    contract: the caller always sees the first recorded failure, never a
    secondary :class:`CancellationError`.

    A ``deadline`` bounds the external wait: the remaining budget becomes
    ``pool.invoke``'s timeout, so an overrunning terminal surfaces as
    :class:`~repro.common.TaskTimeoutError` instead of blocking forever.

    ``in_caller`` runs a one-leaf root in the calling thread (a planned
    counted window, :func:`plan_window`): the same leaf — fused kernel,
    ``leaf`` span, fault points — with the deadline checked on both sides
    and no pool round trip.
    """
    timeout = None
    if deadline is not None:
        deadline.check("parallel terminal")
        timeout = deadline.remaining()
    if in_caller:
        result = root.compute()
        if deadline is not None:
            deadline.check("parallel terminal")
        return result
    try:
        return pool.invoke(root, timeout=timeout)
    except BaseException as exc:
        original = ctx.failure
        if original is not None and exc is not original:
            raise original from None
        raise


def evaluate(
    spliterator: Spliterator,
    ops: list[Op],
    terminal: Terminal,
    pool: ForkJoinPool,
    config: EngineConfig,
    target_size=None,
    deadline: Deadline | None = None,
    budget: int | None = None,
    in_caller: bool = False,
) -> Any:
    """Run ``terminal`` over the pipeline on ``config.backend``, with
    ``config`` carried into every leaf.

    On threads this is the paper's template method: each leaf of the
    divide-and-conquer tree builds a fresh sink (the supplier), fills it
    (the accumulator), and interior nodes merge partials (the combiner).
    Runs fail-fast: the first leaf or combiner exception cancels the
    remaining tree and re-raises promptly.

    ``budget`` is set by ``Stream._barrier_stateful`` when the stateful
    cut is a ``limit(n)`` (the terminal is then ``Collect(to_list)``):
    each leaf gets a per-leaf ``LimitOp(n)`` appended (sound — the global
    first n outputs never need more than the first n of any leaf, and the
    counted fused kernel stops that leaf's scan at its cut), and a
    :class:`_CountedBudget` cancels still-running sibling leaves once the
    contiguous prefix of completed leaves has produced ``n`` outputs.  The
    caller truncates the merged buffer.

    ``in_caller`` (threads only) runs a one-leaf plan in the calling
    thread; ``Stream._barrier_stateful`` sets it for a counted window
    that :func:`plan_window` found to fit one leaf.
    """
    # Backend dispatch happens on the *raw* op chain: fused kernels are
    # exec-compiled and unpicklable, so the process backend ships unfused
    # ops and lets each worker re-fuse locally.
    if config.backend == "process":
        from repro.streams import process_backend as _pb

        return _pb.evaluate(
            spliterator, ops, terminal, config,
            target_size=target_size, deadline=deadline, budget=budget,
        )
    if config.backend == "sequential":
        if deadline is not None:
            deadline.check(f"sequential {terminal.label}")
        if budget is not None:
            ops = list(ops) + [LimitOp(budget)]
        return evaluate_sequential(terminal, spliterator, ops, config)
    target_size, chunk_size, observer = _resolve_threshold(
        spliterator, ops, pool, target_size, config, observe=terminal.observe
    )
    counted_budget = None
    if budget is not None:
        root_origin = _leaf_origin(spliterator)
        if root_origin is not None:
            counted_budget = _CountedBudget(budget, root_origin)
        ops = list(ops) + [LimitOp(budget)]
    ops = maybe_fuse(ops, config)
    ctx = _TerminalContext(pool)
    ctx.observer = observer
    _attach_profiler(pool)
    cancel = ctx.cancel

    def leaf(leaf_spliterator: Spliterator) -> Any:
        # Each fork/join leaf traverses its sub-spliterator through the
        # shared entry point, so the chunked fast path engages per leaf:
        # O(stages) Python calls instead of O(elements × stages).
        origin = None
        if counted_budget is not None:
            origin = _leaf_origin(leaf_spliterator)
            span = leaf_spliterator.estimate_size()
        partial = run_leaf(
            terminal, leaf_spliterator, ops, config, cancel, chunk_size
        )
        if ctx.failure is not None:
            raise CancellationError("leaf aborted by sibling failure")
        if origin is not None and not cancel.is_set():
            # Only completed leaves may report: a partial (aborted) leaf's
            # interval would break the contiguous-prefix soundness rule.
            if counted_budget.note(origin, origin + span, len(partial)):
                cancel.set()
        return partial

    root = _ReduceTask(spliterator, target_size, leaf, terminal.merge, ctx)
    merged = _invoke_fail_fast(pool, root, ctx, deadline, in_caller)
    if observer is not None and not (terminal.broadcast and terminal.hit(merged)):
        # A decided broadcast run aborted its leaves early, which would
        # skew the per-element cost: only full traversals feed the memo.
        observer.complete(pool)
    return terminal.finish(merged)
