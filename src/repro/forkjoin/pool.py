"""The work-stealing thread pool (``ForkJoinPool``).

Each worker owns a :class:`~repro.forkjoin.deques.WorkStealingDeque` and
runs the scheduling loop *own-deque → steal → external queue → idle wait*.
``join`` from inside a worker never blocks while work exists anywhere —
the worker helps by running other tasks (its own first, then stolen ones),
bounding thread count regardless of recursion depth.

Lifecycle (``docs/robustness.md``): a pool moves RUNNING → SHUTDOWN →
TERMINATED.  :meth:`ForkJoinPool.shutdown` is *graceful* — new submissions
are rejected but workers drain every already-queued task before exiting,
so no joiner is abandoned.  :meth:`ForkJoinPool.shutdown_now` is *abrupt* —
queued tasks are completed exceptionally (``CancellationError``) so their
joiners unblock promptly, and workers stop after their current task.
:meth:`ForkJoinPool.await_termination` bounds the wait for either mode.

Crash containment: an exception escaping the scheduling machinery itself
(a tracer exporter raising mid-emit, a broken metrics backend) no longer
silently kills the worker thread and shrinks effective parallelism — it is
logged, counted in ``stats()["worker_crashes"]``, and the worker keeps
running (or, if the scheduling loop itself died, is respawned on a fresh
thread).

A process-wide *common pool* mirrors Java's ``ForkJoinPool.commonPool()``:
it is what parallel streams use unless told otherwise.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import deque
from typing import Optional

from repro.common import (
    CancellationError,
    IllegalStateError,
    RejectedExecutionError,
    TaskTimeoutError,
)
from repro.faults.plan import current_fault_plan
from repro.forkjoin.deques import WorkStealingDeque
from repro.forkjoin.task import ForkJoinTask
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.tracer import current_tracer

_log = logging.getLogger(__name__)

_tls = threading.local()

#: Fallback timeout for the idle condition-wait.  The predicate re-check
#: under the condition lock makes wakeups reliable; the timeout only
#: bounds the damage of a scheduling edge case, so it can be generous
#: (the old implementation busy-polled every 1 ms).
_IDLE_WAIT_TIMEOUT = 0.05

#: How long a stopping worker sleep-waits on a task another worker is
#: actively executing (the helping join's last resort).
_HELP_JOIN_WAIT = 0.0005


def current_worker() -> "Optional[_Worker]":
    """The :class:`_Worker` the calling thread belongs to, if any."""
    return getattr(_tls, "worker", None)


class _Worker:
    """One pool thread plus its deque and scheduling loop."""

    __slots__ = ("pool", "index", "deque", "thread", "executed", "stolen")

    def __init__(self, pool: "ForkJoinPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.deque: WorkStealingDeque[ForkJoinTask] = WorkStealingDeque()
        # Observability counters from the pool's metrics registry.  A
        # Python-level ``+=`` is not atomic (its LOAD/ADD/STORE can
        # interleave with a concurrent ``stats()`` read), so increments go
        # through locked Counters and ``stats()`` snapshots them all under
        # the registry's single lock.  Labels (pool, worker) make the
        # series scrape-ready for the Prometheus exposition.
        self.executed = pool.metrics.counter(
            "tasks_executed", pool=pool.name, worker=str(index)
        )
        self.stolen = pool.metrics.counter(
            "steals", pool=pool.name, worker=str(index)
        )
        self.thread = self._new_thread()

    def _new_thread(self) -> threading.Thread:
        return threading.Thread(
            target=self._run_loop,
            name=f"{self.pool.name}-worker-{self.index}",
            daemon=True,
        )

    def start(self) -> None:
        self.thread.start()

    def push_local(self, task: ForkJoinTask) -> None:
        """Schedule a forked task on this worker's own deque."""
        self.deque.push(task)
        self.pool._signal_work()

    def _next_task(self) -> ForkJoinTask | None:
        task = self.deque.pop()
        if task is None:
            task = self.pool._steal_for(self)
            if task is not None:
                self.stolen.inc()
                tracer = current_tracer()
                if tracer.enabled:
                    tracer.instant("steal", worker=self.index)
        if task is None:
            task = self.pool._poll_external()
        return task

    def _run_task(self, task: ForkJoinTask) -> None:
        """Run one scheduled task, tracing and counting it.

        Every ``executed`` increment pairs with exactly one ``task`` span
        when tracing is on — the invariant the stats-vs-trace agreement
        test pins down.  A cancelled task's ``run()`` is a no-op returning
        False, so it produces neither an increment nor a span.
        """
        tracer = current_tracer()
        if tracer.enabled:
            start = time.perf_counter_ns()
            if not task.run():
                return
            tracer.emit(
                "task",
                worker=self.index,
                start_ns=start,
                end_ns=time.perf_counter_ns(),
                name=type(task).__name__,
            )
        else:
            if not task.run():
                return
        self.executed.inc()

    def _run_task_contained(self, task: ForkJoinTask) -> None:
        """Run a task, absorbing infrastructure crashes.

        ``task.run()`` already captures the *computation's* exception
        inside the task; anything escaping here comes from the scheduling
        machinery (tracer emit, metrics inc).  Such a crash used to kill
        the worker thread silently — now it is logged and counted, and the
        worker keeps scheduling.
        """
        try:
            self._run_task(task)
        except BaseException as exc:  # noqa: BLE001 — containment boundary
            self.pool._note_worker_crash(self, exc, task=task)

    def _run_loop(self) -> None:
        _tls.worker = self
        pool = self.pool
        try:
            while True:
                if pool._stop:
                    break
                # Fault-injection site: ``worker:<index>:<pool name>``
                # (the name lets a plan strike one of several live pools).
                # A ``kill`` strike raises out of the scheduling loop —
                # exactly the crash-containment path — so the thread dies
                # *between* tasks (no claimed task is lost) and is
                # respawned below.
                plan = current_fault_plan()
                if plan is not None:
                    action = plan.fire(
                        "worker", (str(self.index), pool.name),
                        allowed=("kill", "delay", "raise"), index=self.index,
                    )
                    if action is not None:
                        action.apply_before()
                task = self._next_task()
                if task is not None:
                    self._run_task_contained(task)
                elif pool._shutdown:
                    # Graceful shutdown: exit only once there is nothing
                    # left to drain anywhere.  Re-checked under the
                    # condition lock so a push racing with the empty
                    # ``_next_task`` probe cannot be stranded.
                    with pool._work_available:
                        if not pool._has_queued_work():
                            break
                else:
                    pool._idle_wait(self)
        except BaseException as exc:  # noqa: BLE001 — scheduling loop died
            pool._note_worker_crash(self, exc, task=None)
            pool._respawn_worker(self)
            return  # the respawned thread takes over; skip exit bookkeeping
        finally:
            _tls.worker = None
        pool._note_worker_exit()

    def help_join(self, awaited: ForkJoinTask) -> None:
        """Run other tasks until ``awaited`` completes (helping join)."""
        # Fast path: the awaited task may still be unstarted on our own
        # deque — unfork and run it inline (Java's tryUnfork/exec).  Runs
        # through ``_run_task`` so the execution is counted and traced
        # like any other, preserving the stats-vs-trace invariant.
        pool = self.pool
        if self.deque.remove(awaited):
            self._run_task_contained(awaited)
            return
        while not awaited.is_done():
            task = self._next_task()
            if task is not None:
                # Helping continues even during shutdown_now: this worker
                # is mid-task and must finish its own subtree; progress is
                # guaranteed because shutdown_now cancels queued tasks.
                self._run_task_contained(task)
            else:
                if pool._stop:
                    # Teardown observation: nothing is runnable, so the
                    # awaited task is either executing on another worker
                    # (it will settle) or was orphaned by a race with the
                    # shutdown_now drain — settle it as cancelled so this
                    # join cannot hang the exiting worker.
                    awaited.cancel()
                # Nothing runnable anywhere: the awaited task is being
                # executed by another worker.  Short sleep-wait on it.
                awaited._done_event.wait(_HELP_JOIN_WAIT)


class ForkJoinPool:
    """A fixed-parallelism work-stealing executor.

    Args:
        parallelism: number of worker threads; defaults to ``os.cpu_count()``.
        name: thread-name prefix, useful in debugging.
    """

    def __init__(self, parallelism: int | None = None, name: str = "fjp") -> None:
        if parallelism is None:
            parallelism = os.cpu_count() or 1
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self.name = name
        #: Per-pool metrics (worker counters, idle wakeups); snapshot via
        #: :meth:`stats` or read individual metrics directly.
        self.metrics = MetricsRegistry(name=name)
        self._idle_wakeups = self.metrics.counter("idle_wakeups", pool=name)
        self._worker_crashes = self.metrics.counter("worker_crashes", pool=name)
        self._tasks_cancelled = self.metrics.counter("tasks_cancelled", pool=name)
        self._failfast_cancellations = self.metrics.counter(
            "failfast_cancellations", pool=name
        )
        self._leaf_durations = self.metrics.histogram("leaf_duration_ns", pool=name)
        self._external: deque[ForkJoinTask] = deque()
        self._external_lock = threading.Lock()
        self._work_available = threading.Condition()
        self._shutdown = False   # quiescing: reject submits, drain queues
        self._stop = False       # abrupt: stop after the current task
        self._terminated = threading.Event()
        self._live_workers = parallelism
        self._lifecycle_lock = threading.Lock()
        self._workers = [_Worker(self, i) for i in range(parallelism)]
        for worker in self._workers:
            worker.start()

    # -- submission ------------------------------------------------------- #

    def submit(self, task: ForkJoinTask) -> ForkJoinTask:
        """Enqueue ``task`` for asynchronous execution and return it.

        Raises :class:`~repro.common.RejectedExecutionError` once the pool
        has been shut down (either mode).
        """
        if self._shutdown:
            raise RejectedExecutionError(f"pool {self.name!r} is shut down")
        task._pool = self
        self._push_external(task)
        return task

    def invoke(self, task: ForkJoinTask, timeout: float | None = None):
        """Execute ``task`` and return its result.

        From a worker of this pool the task runs inline (preserving
        fork/join helping); from an external thread it is submitted and
        awaited.  ``timeout`` (seconds) bounds the external wait: on
        expiry the root task is cancelled if still unstarted and
        :class:`~repro.common.TaskTimeoutError` is raised.  (A root that
        already started keeps running in the background — workers are
        never interrupted mid-task.)  ``timeout`` is ignored for the
        inline case, where the caller *is* the executing worker.
        """
        worker = current_worker()
        if worker is not None and worker.pool is self:
            task._pool = self
            return task.invoke()
        self.submit(task)
        try:
            return task.join(timeout=timeout)
        except TaskTimeoutError:
            task.cancel()  # unschedule if nothing claimed it yet
            raise

    # -- internals used by workers/tasks ---------------------------------- #

    def _push_external(self, task: ForkJoinTask) -> None:
        with self._external_lock:
            self._external.append(task)
        self._signal_work()
        # A push that raced past the submit-time rejection check into an
        # already-dead pool would otherwise wait forever: settle it.
        if self._terminated.is_set() or self._stop:
            if task.cancel():
                with self._external_lock:
                    try:
                        self._external.remove(task)
                    except ValueError:
                        pass

    def _poll_external(self) -> ForkJoinTask | None:
        with self._external_lock:
            if self._external:
                return self._external.popleft()
            return None

    def _steal_for(self, thief: _Worker) -> ForkJoinTask | None:
        # Scan the other workers starting just past the thief to spread
        # contention; first non-empty deque yields its oldest task.
        n = len(self._workers)
        for offset in range(1, n):
            victim = self._workers[(thief.index + offset) % n]
            task = victim.deque.steal()
            if task is not None:
                return task
        return None

    def _signal_work(self) -> None:
        with self._work_available:
            self._work_available.notify_all()

    def _has_queued_work(self) -> bool:
        # Called with ``_work_available`` held, so a concurrent push +
        # ``_signal_work`` cannot slip between this check and the wait.
        if self._external:
            return True
        return any(worker.deque for worker in self._workers)

    def _idle_wait(self, worker: "_Worker") -> None:
        """Block until work may be available (or shutdown).

        A real condition-wait with a predicate re-check, replacing the
        old 1 ms busy-poll: a worker that finds no work parks until a
        ``_signal_work`` (every push and shutdown signals) instead of
        waking a thousand times a second.  The timeout is only a safety
        net; idle wakeups are counted so regressions show up in
        ``stats()``.
        """
        tracer = current_tracer()
        start = time.perf_counter_ns() if tracer.enabled else 0
        with self._work_available:
            if self._shutdown or self._stop or self._has_queued_work():
                return
            self._work_available.wait(timeout=_IDLE_WAIT_TIMEOUT)
        self._idle_wakeups.inc()
        if tracer.enabled:
            tracer.emit(
                "idle",
                worker=worker.index,
                start_ns=start,
                end_ns=time.perf_counter_ns(),
            )

    # -- crash containment ------------------------------------------------- #

    def _note_worker_crash(
        self, worker: "_Worker", exc: BaseException, task: ForkJoinTask | None
    ) -> None:
        """Record an exception that escaped the scheduling machinery."""
        self._worker_crashes.inc()
        _log.error(
            "worker %s-%d crashed%s: %r",
            self.name,
            worker.index,
            f" running {type(task).__name__}" if task is not None else "",
            exc,
        )
        try:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.instant("crash", worker=worker.index, error=type(exc).__name__)
        except BaseException:  # the tracer itself may be the crasher
            pass

    def _respawn_worker(self, worker: "_Worker") -> None:
        """Replace a worker whose scheduling loop died.

        The :class:`_Worker` object (deque, counters, index) is reused on
        a fresh thread, so queued tasks and stats survive the crash.  No
        respawn happens during teardown — the exit path handles that.
        """
        with self._lifecycle_lock:
            if self._stop or (self._shutdown and not self._has_pending_work()):
                self._note_worker_exit_locked()
                return
            worker.thread = worker._new_thread()
            worker.start()

    def _has_pending_work(self) -> bool:
        if self._external:
            return True
        return any(w.deque for w in self._workers)

    def _note_worker_exit(self) -> None:
        with self._lifecycle_lock:
            self._note_worker_exit_locked()

    def _note_worker_exit_locked(self) -> None:
        self._live_workers -= 1
        if self._live_workers <= 0:
            self._terminated.set()

    def _note_task_cancelled(self) -> None:
        self._tasks_cancelled.inc()

    def _note_failfast_cancellation(self) -> None:
        """One fail-fast trip: a parallel terminal's first failure has
        cancelled the remaining task tree (wired from repro.streams)."""
        self._failfast_cancellations.inc()

    def _observe_leaf_duration(self, duration_ns: int) -> None:
        """Record one fork/join leaf's wall time (wired from the stream
        profiler; feeds the pool's labeled ``leaf_duration_ns`` series)."""
        self._leaf_durations.observe(duration_ns)

    def scheduling_snapshot(self) -> dict:
        """Cheap point-in-time read of the scheduler feedback counters.

        Unlike :meth:`stats` — a full registry snapshot under the registry
        lock — this reads only three counters, cheap enough to difference
        across every run.
        """
        return {
            "steals": sum(w.stolen.value for w in self._workers),
            "tasks_executed": sum(w.executed.value for w in self._workers),
            "idle_wakeups": self._idle_wakeups.value,
        }

    # -- observability ------------------------------------------------------ #

    def stats(self) -> dict:
        """Counters since pool creation: tasks run, steals, crashes and
        cancellations, per worker and total — the real-pool mirror of
        :class:`~repro.simcore.machine.SimResult`'s metrics.

        ``tasks_executed`` counts tasks whose computation actually ran;
        cancelled tasks (claimed by no worker) are excluded, which keeps
        it in lockstep with the number of ``task`` spans in a traced run.

        The whole dict is one consistent cut: all counters are read in a
        single :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` under
        the registry lock, so totals always equal the sum of the
        per-worker rows even while workers are running.
        """
        snap = self.metrics.snapshot()
        name = self.name
        per_worker = [
            {
                "worker": w.index,
                "executed": snap[
                    metric_key("tasks_executed", pool=name, worker=str(w.index))
                ],
                "stolen": snap[
                    metric_key("steals", pool=name, worker=str(w.index))
                ],
            }
            for w in self._workers
        ]
        return {
            "parallelism": self.parallelism,
            "tasks_executed": sum(row["executed"] for row in per_worker),
            "steals": sum(row["stolen"] for row in per_worker),
            "idle_wakeups": snap[metric_key("idle_wakeups", pool=name)],
            "worker_crashes": snap[metric_key("worker_crashes", pool=name)],
            "tasks_cancelled": snap[metric_key("tasks_cancelled", pool=name)],
            "failfast_cancellations": snap[
                metric_key("failfast_cancellations", pool=name)
            ],
            "per_worker": per_worker,
        }

    # -- lifecycle --------------------------------------------------------- #

    def is_shutdown(self) -> bool:
        """True once either shutdown mode has been initiated."""
        return self._shutdown

    def is_terminated(self) -> bool:
        """True once every worker thread has exited."""
        return self._terminated.is_set()

    def shutdown(self) -> None:
        """Graceful shutdown: reject new work, *drain* queued work, stop.

        Every task already submitted or forked keeps its completion
        guarantee — workers exit only when all queues are empty, so no
        external ``join()`` is left hanging (the old implementation
        abandoned queued tasks).  Idempotent; returns after workers exit
        or a bounded wait elapses (use :meth:`await_termination` for a
        caller-controlled bound).
        """
        self._shutdown = True
        self._signal_work()
        self.await_termination(timeout=2.0, _raise=False)

    def shutdown_now(self) -> list[ForkJoinTask]:
        """Abrupt shutdown: cancel queued work, stop after current tasks.

        Every submitted-but-unstarted task is completed exceptionally
        with :class:`~repro.common.CancellationError`, so any thread
        blocked in its ``join()`` unblocks promptly instead of hanging
        forever.  Tasks already running finish (workers are never
        interrupted).  Returns the list of cancelled tasks.
        """
        self._shutdown = True
        self._stop = True
        self._signal_work()
        cancelled: list[ForkJoinTask] = []
        # Drain the external queue and every worker deque, settling each
        # abandoned task.  steal() is safe against concurrent owners, and
        # workers re-check _stop before claiming anything new.
        while True:
            task = self._poll_external()
            if task is None:
                break
            if task.cancel():
                cancelled.append(task)
        for worker in self._workers:
            while True:
                task = worker.deque.steal()
                if task is None:
                    break
                if task.cancel():
                    cancelled.append(task)
        self._signal_work()
        self.await_termination(timeout=2.0, _raise=False)
        return cancelled

    def await_termination(self, timeout: float | None = None, _raise: bool = True) -> bool:
        """Wait until all workers have exited after a shutdown call.

        Returns True on termination; on expiry raises
        :class:`~repro.common.TaskTimeoutError` (or returns False when
        called with ``_raise=False``, the internal best-effort mode).
        """
        if self._terminated.wait(timeout):
            return True
        if _raise:
            raise TaskTimeoutError(
                f"pool {self.name!r} did not terminate within {timeout}s"
            )
        return False

    def __enter__(self) -> "ForkJoinPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"ForkJoinPool(name={self.name!r}, parallelism={self.parallelism})"


_common_lock = threading.Lock()
_common: ForkJoinPool | None = None
_common_parallelism: int | None = None


def common_pool() -> ForkJoinPool:
    """The lazily created process-wide pool used by parallel streams."""
    global _common
    with _common_lock:
        if _common is None:
            _common = ForkJoinPool(_common_parallelism, name="common")
        return _common


def common_pool_parallelism() -> int:
    """The parallelism the common pool has — or would have if created.

    Lets planning code (``Stream.explain()``) predict split trees without
    instantiating the pool as a side effect.
    """
    with _common_lock:
        if _common is not None:
            return _common.parallelism
        if _common_parallelism is not None:
            return _common_parallelism
    return os.cpu_count() or 1


def set_common_pool_parallelism(parallelism: int) -> None:
    """Configure the common pool's width; only while no common pool exists.

    Mirrors the ``java.util.concurrent.ForkJoinPool.common.parallelism``
    system property.  After first use, call :func:`shutdown_common_pool`
    first to retire the live pool, then reconfigure.
    """
    global _common_parallelism
    with _common_lock:
        if _common is not None:
            raise IllegalStateError(
                "common pool already created; shutdown_common_pool() first"
            )
        _common_parallelism = parallelism


def shutdown_common_pool(now: bool = False) -> ForkJoinPool | None:
    """Retire the process-wide common pool (if one was created).

    Gracefully drains it (or cancels queued work with ``now=True``) and
    clears the singleton so the next :func:`common_pool` call — or a
    fresh :func:`set_common_pool_parallelism` — builds a new one.  Exists
    so tests and benchmarks can reconfigure common-pool width, which used
    to be impossible after first use.  Returns the retired pool, or None.
    """
    global _common
    with _common_lock:
        pool, _common = _common, None
    if pool is not None:
        if now:
            pool.shutdown_now()
        else:
            pool.shutdown()
    return pool
