"""Process-pool execution of PowerFunctions — real parallelism in CPython.

The paper's multithreading maps onto JVM threads; in CPython the GIL
serializes threads, so the engine that actually buys wall-clock speedup on
a multi-core host is **multiprocessing**.  :class:`ProcessExecutor`
descends the function's own deconstruction tree ``log2(processes)`` levels
(cheap views), ships each sub-function to a worker process, and combines
the returned partial results in the parent — structurally the same
scatter/compute/combine pattern as the MPI executor, with real OS
processes instead of a simulated cluster.  The sub-functions ride the
same scatter engine as the stream process backend's leaves,
:meth:`ProcessExecutor.run_leaves`.

Constraints inherited from pickling: the function object and its captured
state must be picklable (named functions or ``operator.*`` instead of
lambdas; the view-based ``PowerList`` pickles fine, though each worker
receives a *copy* of the underlying storage — inter-process shipping is
exactly the copy cost the alpha–beta model charges for MPI).

Robustness (``docs/robustness.md``): the executor follows the same
lifecycle contract as :class:`repro.forkjoin.pool.ForkJoinPool` —
``shutdown()`` is idempotent, ``execute`` after shutdown raises
:class:`~repro.common.RejectedExecutionError`, and the executor is a
context manager.  Fault injection hooks (site ``proc:worker-<i>``, leaf
batch ``i`` of a scatter) let a
:class:`repro.faults.plan.FaultPlan` raise in, delay, or SIGKILL-style
kill a worker mid-run; a killed worker breaks the ``ProcessPoolExecutor``
(``BrokenProcessPool``), which the executor contains by discarding its
owned pool so a retry starts on fresh processes.  Pass ``retry=`` /
``fallback=True`` to recover automatically; degraded runs re-execute
sequentially in the parent and are counted in :meth:`stats`.
"""

from __future__ import annotations

import os
import threading
import time

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.common import (
    IllegalArgumentError,
    RejectedExecutionError,
    TaskTimeoutError,
    exact_log2,
    is_power_of_two,
)
from repro.faults.plan import FaultInjected, current_fault_plan
from repro.faults.policy import run_resilient
from repro.jplf.executors import Executor, SequentialExecutor
from repro.obs.metrics import MetricsRegistry
from repro.jplf.power_function import PowerFunction
from repro.powerlist import shm as _shm

#: Leaf threshold used inside each worker (bulk leaf_case below it).
_WORKER_LEAF_THRESHOLD = 1024

#: How often the scatter wait loop wakes to re-check for a concurrent
#: shutdown().  Completions still wake it immediately; this only bounds
#: the latency of noticing an executor-level cancellation.
_SHUTDOWN_POLL_S = 0.05

#: The cancellation flag for the leaf batch currently running in THIS
#: worker process (None in the parent and between batches).  Leaf runners
#: that want chunk-boundary abort — the stream process backend's sinks —
#: read it via :func:`current_leaf_cancel` and poll ``is_set()``.
_leaf_cancel: "_shm.SharedFlag | None" = None


def current_leaf_cancel():
    """The in-flight batch's shared cancellation flag, or None."""
    return _leaf_cancel


def _run_subfunction(function: PowerFunction):
    """Top-level worker entry point (must be module-level to pickle)."""
    return SequentialExecutor(threshold=_WORKER_LEAF_THRESHOLD).execute(function)


def _run_leaf_batch(runner, payloads, cancel_name: str | None = None,
                    fault: tuple[str, float] | None = None):
    """Top-level worker entry point for every leaf batch.

    One submission carries a whole contiguous batch of leaf payloads —
    stream leaves or JPLF sub-functions — so a 64-leaf terminal costs
    ~``processes`` IPC round trips instead of 64.  Returns
    ``(pid, results, duration_ns)`` — the pid keys the parent's
    per-worker labeled metrics.

    ``fault`` is a ``(mode, delay)`` verdict the parent's fault plan
    decided; the child only enacts it (``kill`` hard-exits like SIGKILL,
    surfacing in the parent as ``BrokenProcessPool``).

    ``cancel_name`` names the run's shared cancellation flag.  It is
    published via :func:`current_leaf_cancel` for the duration of the
    batch so leaf sinks can poll it at chunk boundaries (aborting a
    RUNNING leaf, not just skipping pending ones), and checked between
    leaves here so a cancelled batch stops scanning untouched leaves.
    A flag the parent already unlinked means the run was abandoned
    (failure or deadline) — the batch returns placeholder results.
    """
    global _leaf_cancel
    if fault is not None:
        mode, delay = fault
        if mode == "kill":
            os._exit(13)
        if delay > 0.0:
            time.sleep(delay)
        if mode == "raise":
            raise FaultInjected(
                f"injected fault in process worker (pid {os.getpid()})"
            )
    flag = None
    if cancel_name is not None:
        try:
            flag = _shm.SharedFlag.attach(cancel_name)
        except FileNotFoundError:
            return os.getpid(), [None] * len(payloads), 0
    start = time.perf_counter_ns()
    results: list = []
    _leaf_cancel = flag
    try:
        for payload in payloads:
            if flag is not None and flag.is_set():
                results.append(None)
                continue
            results.append(runner(payload))
    finally:
        _leaf_cancel = None
        if flag is not None:
            flag.close()
    return os.getpid(), results, time.perf_counter_ns() - start


class _ActiveRun:
    """One in-flight ``run_leaves`` scatter, registered so ``shutdown()``
    can reach its cancellation flag and pending futures."""

    __slots__ = ("cancel", "futures")

    def __init__(self, cancel, futures: list) -> None:
        self.cancel = cancel
        self.futures = futures


class ProcessExecutor(Executor):
    """Executes a PowerFunction across OS processes.

    Args:
        processes: number of worker processes; a power of two, since the
            deconstruction tree is binary.
        pool: an optional pre-started ``ProcessPoolExecutor`` to reuse
            (workers are expensive to fork; share one across calls).
        retry: optional :class:`repro.faults.policy.RetryPolicy` — a
            failed scatter is re-executed (on a fresh pool if the old one
            broke).
        fallback: when True, a scatter whose retries are exhausted runs
            its payloads sequentially in the parent process.
    """

    def __init__(
        self,
        processes: int = 2,
        pool: ProcessPoolExecutor | None = None,
        *,
        retry=None,
        fallback: bool = False,
    ) -> None:
        if not is_power_of_two(processes):
            raise IllegalArgumentError(
                f"processes must be a power of two, got {processes}"
            )
        self.processes = processes
        self._pool = pool
        self._owns_pool = pool is None
        self._shutdown = False
        # In-flight run_leaves scatters, so a concurrent shutdown() can
        # cancel their pending futures and wake their wait loops instead
        # of leaving a waiter hanging on abandoned children.
        self._active_lock = threading.Lock()
        self._active_runs: set[_ActiveRun] = set()
        self.retry = retry
        self.fallback = fallback
        # Labeled counters: every ProcessExecutor gets its own registry so
        # scraping (repro.obs.prom.render) can tell executors apart by the
        # ``processes`` label without cross-instance interference.  The
        # ``pool="process"`` label puts these series in the same Prometheus
        # families as the thread pools', so one scrape covers both engines.
        self.metrics = MetricsRegistry(name="procexec")
        labels = {"pool": "process", "processes": str(processes)}
        self._labels = labels
        self._runs = self.metrics.counter("runs", **labels)
        self._retries = self.metrics.counter("retries", **labels)
        self._degraded = self.metrics.counter("degraded_runs", **labels)
        self._broken = self.metrics.counter("broken_pools", **labels)
        self._timeouts = self.metrics.counter("deadline_timeouts", **labels)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.processes)
        return self._pool

    def _discard_broken_pool(self) -> None:
        """Drop a broken owned pool so the next attempt forks fresh workers."""
        self._broken.inc()
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=False)
            self._pool = None
            self._owns_pool = True

    def execute(self, function: PowerFunction):
        """Descend ``log2(processes)`` levels, run the frontier's
        sub-functions through :meth:`run_leaves` (one batch per worker),
        and combine their results in the parent.  ``processes=1`` runs
        the whole function in the caller."""
        if self._shutdown:
            raise RejectedExecutionError(
                "ProcessExecutor has been shut down and no longer accepts work"
            )
        if len(function.data) < self.processes:
            raise IllegalArgumentError(
                f"input of {len(function.data)} elements cannot feed "
                f"{self.processes} processes"
            )
        levels = exact_log2(self.processes)
        if levels == 0:
            self._runs.inc()
            return _run_subfunction(function)

        # Descend: build the 2^levels sub-functions plus the combine plan.
        frontier: list[PowerFunction] = [function]
        parents: list[list[PowerFunction]] = []
        for _ in range(levels):
            parents.append(frontier)
            frontier = [half for fn in frontier for half in fn.subfunctions()]

        results = self.run_leaves(
            _run_subfunction, frontier, label=f"ProcessExecutor[{self.processes}]"
        )

        # Ascend: combine pairwise with each level's parent functions.
        for level_parents in reversed(parents):
            results = [
                parent.combine(results[2 * i], results[2 * i + 1])
                for i, parent in enumerate(level_parents)
            ]
        return results[0]

    # ------------------------------------------------------------------ #
    # Leaf-batch scatter: the one engine behind execute and streams
    # ------------------------------------------------------------------ #

    def _observe_batch(self, pid: int, leaves: int, duration_ns: int) -> None:
        """Per-worker labeled series: which child did how much, how fast."""
        worker = {"worker": str(pid), **self._labels}
        self.metrics.counter("worker_batches", **worker).inc()
        self.metrics.counter("worker_leaves", **worker).inc(leaves)
        self.metrics.histogram("worker_batch_duration_ns", **worker).observe(
            duration_ns
        )

    def _map_leaves_once(self, runner, payloads, deadline, stop, label,
                         observer=None):
        """One scatter of ``payloads`` over the pool, batched and ordered.

        Payloads are grouped into at most ``2 × processes`` contiguous
        batches (amortizing submission overhead while leaving slack for
        load balancing) and the results are returned in payload order.
        Batch ``i`` is fault site ``proc:worker-<i>``.

        Every scatter creates one :class:`repro.powerlist.shm.SharedFlag`
        whose segment name rides along with each batch submission.  The
        flag is the run's cross-process cancellation token: the parent
        sets it on failure, deadline expiry, or early stop, and workers
        poll it both between leaves and — via ``current_leaf_cancel`` —
        inside a leaf at chunk boundaries, so a RUNNING leaf aborts
        instead of scanning to completion after the answer is known.

        * ``deadline`` bounds the whole wait: on expiry, every pending
          batch future is cancelled and :class:`TaskTimeoutError` raised —
          outstanding child work is abandoned, not blocked on.
        * ``stop(lo, hi, batch_results)``: called with each completed
          batch's slot bounds and results; once it returns True, pending
          batches are cancelled and their slots come back as ``None``.
          The match/find terminals stop at a deciding result; the
          counted-``limit`` budget stops once a *contiguous* prefix of
          leaves has produced enough elements.
        * The first batch failure cancels the remaining batches and
          re-raises — the process-side analogue of the thread terminals'
          ``_TerminalContext`` fail-fast contract.  A dead worker
          (``BrokenProcessPool``) additionally discards the owned pool so
          a retry starts on fresh processes.
        * ``observer``: optional adaptive-scheduling
          :class:`repro.streams.adaptive.RunObservation` — fed each
          batch's measured duration, slot-spread over its leaves.
        """
        n = len(payloads)
        if n == 0:
            return []
        if self._shutdown:
            raise RejectedExecutionError(
                "ProcessExecutor has been shut down and no longer accepts work"
            )
        pool = self._ensure_pool()
        plan = current_fault_plan()
        batch_count = min(n, self.processes * 2)
        bounds = [
            (n * i // batch_count, n * (i + 1) // batch_count)
            for i in range(batch_count)
        ]
        futures: list = []
        results: list = [None] * n
        cancel = _shm.SharedFlag.create()
        run = _ActiveRun(cancel, futures)
        with self._active_lock:
            self._active_runs.add(run)
        # Submission itself can raise BrokenProcessPool (an already-killed
        # worker fails the pool before the next submit lands), so it must
        # sit inside the containment block or the broken pool would never
        # be discarded and every later run would inherit it.
        try:
            for i, (lo, hi) in enumerate(bounds):
                fault = None
                if plan is not None:
                    # Strike decisions stay in the parent (deterministic);
                    # the child only enacts the shipped (mode, delay)
                    # verdict.
                    action = plan.fire(
                        "proc", (f"worker-{i}",),
                        allowed=("raise", "delay", "kill"), index=i,
                    )
                    if action is not None:
                        fault = (action.mode, action.delay)
                futures.append(pool.submit(
                    _run_leaf_batch, runner, payloads[lo:hi], cancel.name, fault
                ))

            slot_of = {future: bounds[i] for i, future in enumerate(futures)}
            not_done = set(futures)
            while not_done:
                # Bounded wait: Future.cancel() on a pending process-pool
                # work item never notifies wait() waiters (the manager
                # thread drops cancelled items without the notify-cancel
                # handshake), so a concurrent shutdown() cannot wake this
                # loop through the futures themselves — it must observe
                # ``_shutdown`` on the next poll tick instead.
                timeout = _SHUTDOWN_POLL_S
                if deadline is not None:
                    timeout = min(deadline.remaining(), timeout)
                done, not_done = wait(
                    not_done, timeout=timeout, return_when=FIRST_EXCEPTION
                )
                if self._shutdown:
                    # A concurrent shutdown() cancelled our pending
                    # futures and set the cancel flag; abandon the run
                    # instead of blocking on children that may never
                    # report back (the post-shutdown rejection contract).
                    raise RejectedExecutionError(
                        f"ProcessExecutor was shut down with {label} in "
                        "flight; its leaf batches were cancelled"
                    )
                # A future cancelled by shutdown() lands in ``done`` but
                # raises CancelledError from exception()/result(); skip
                # them here (the shutdown check above owns that path).
                failed = next(
                    (
                        f for f in done
                        if not f.cancelled() and f.exception() is not None
                    ),
                    None,
                )
                if failed is not None:
                    raise failed.exception()
                if not done and not_done:
                    if deadline is None or not deadline.expired:
                        continue  # poll tick, not an expiry
                    self._timeouts.inc()
                    raise TaskTimeoutError(
                        f"{label} exceeded its deadline with "
                        f"{len(not_done)} of {len(futures)} leaf batches "
                        "outstanding"
                    )
                stopped = False
                for future in done:
                    if future.cancelled():
                        continue
                    lo, hi = slot_of[future]
                    pid, batch_results, duration_ns = future.result()
                    results[lo:hi] = batch_results
                    self._observe_batch(pid, hi - lo, duration_ns)
                    if observer is not None:
                        observer.record_batch(lo, hi, duration_ns)
                    if stop is not None and stop(lo, hi, batch_results):
                        stopped = True
                if stopped:
                    # Tell RUNNING leaves in other workers to abort at
                    # their next chunk boundary, then stop collecting.
                    cancel.set()
                    break
        except BrokenProcessPool:
            cancel.set()
            for future in futures:
                future.cancel()
            self._discard_broken_pool()
            raise
        except BaseException:
            cancel.set()
            for future in futures:
                future.cancel()
            raise
        finally:
            with self._active_lock:
                self._active_runs.discard(run)
            cancel.close()
        for future in not_done:
            future.cancel()
        return results

    def run_leaves(self, runner, payloads, *, deadline=None, stop=None,
                   label: str = "leaf batch", observer=None):
        """Run picklable leaf ``payloads`` across the worker pool.

        ``runner`` must be a module-level callable (it crosses the pickle
        boundary); each payload's result comes back in payload order.
        Applies this executor's ``retry``/``fallback`` policies: exhausted
        retries degrade to running the payloads sequentially in the parent
        (counted in :meth:`stats` as a degraded run; the degraded path
        skips ``observer`` — in-parent timings would poison the memo).
        Deadline expiry raises :class:`~repro.common.TaskTimeoutError`
        and is never retried.
        """
        if self._shutdown:
            raise RejectedExecutionError(
                "ProcessExecutor has been shut down and no longer accepts work"
            )
        self._runs.inc()

        def primary():
            return self._map_leaves_once(
                runner, payloads, deadline, stop, label, observer
            )

        if self.retry is None and not self.fallback:
            return primary()

        def sequential():
            out = []
            for i, payload in enumerate(payloads):
                result = runner(payload)
                out.append(result)
                if stop is not None and stop(i, i + 1, [result]):
                    out.extend([None] * (len(payloads) - len(out)))
                    break
            return out

        return run_resilient(
            primary,
            retry=self.retry,
            deadline=deadline,
            fallback=sequential if self.fallback else None,
            label=label,
            on_retry=lambda attempt, exc: self._retries.inc(),
            on_degrade=lambda exc: self._degraded.inc(),
        )

    def stats(self) -> dict:
        """Counters for this executor: runs, retries, degraded runs, broken
        pools discarded after a worker death, plus per-worker batch/leaf
        counts keyed by child pid (fed by every :meth:`run_leaves` scatter;
        a JPLF :meth:`execute` counts one leaf per sub-function)."""
        workers: dict[str, dict] = {}
        for entry in self.metrics.collect():
            pid = entry["labels"].get("worker")
            if pid is None or entry["name"] == "worker_batch_duration_ns":
                continue
            workers.setdefault(pid, {})[entry["name"]] = entry["value"]
        return {
            "runs": self._runs.value,
            "retries": self._retries.value,
            "degraded_runs": self._degraded.value,
            "broken_pools": self._broken.value,
            "deadline_timeouts": self._timeouts.value,
            "workers": workers,
        }

    def shutdown(self) -> None:
        """Stop the worker processes and reject further ``execute`` calls.

        Idempotent; mirrors ``ForkJoinPool.shutdown`` semantics.  A
        borrowed pool is left running (its owner shuts it down) but this
        executor still transitions to the rejecting state.

        A shutdown that races an active :meth:`run_leaves` (or an
        :meth:`execute`, which scatters through it) does not hang
        either side: each in-flight run's cancellation flag is set (so
        RUNNING leaves abort at their next chunk boundary), its pending
        futures are cancelled (waking the FIRST_EXCEPTION wait loop, which
        raises :class:`~repro.common.RejectedExecutionError`), and the
        owned pool is released without blocking on abandoned children.
        """
        self._shutdown = True
        with self._active_lock:
            active = list(self._active_runs)
        for run in active:
            run.cancel.set()
            for future in run.futures:
                future.cancel()
        if self._pool is not None and self._owns_pool:
            # With runs in flight, a blocking shutdown would wait on the
            # very children the waiter just abandoned — hand the pool its
            # cancellations and return; idle executors keep the old
            # synchronous teardown.
            self._pool.shutdown(wait=not active, cancel_futures=bool(active))
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
