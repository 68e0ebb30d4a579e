"""The multi-tenant execution service and its asyncio facade.

:class:`ExecutionService` is the synchronous core: clients register named
datasets and tenants, then submit *pipeline functions* that each receive
a ready-configured parallel :class:`~repro.streams.stream.Stream` over a
dataset.  ``max_workers`` runner threads serve the tenant queues: each
runner takes the next job itself, in weighted deficit-round-robin order,
runs it on the shared :class:`~repro.forkjoin.pool.ForkJoinPool` (or the
process backend, per job) and settles it, then takes the next one on the
same thread — as a fork/join worker takes its next task, with no
dispatcher thread to hand the job across.  The layering is deliberate:

* **admission** (:mod:`repro.serve.queue`) fast-fails with a
  ``Retry-After`` hint while holding one lock for microseconds — an
  overloaded service answers *quickly*, it does not buffer unboundedly;
* **scheduling** (:mod:`repro.serve.scheduler`) decides only which
  tenant's queue a runner serves next; a job whose
  :class:`~repro.faults.policy.Deadline` expired while queued is
  cancelled as the runner takes it, so dead work never occupies the pool;
* **execution** reuses the whole robustness stack underneath: stream
  deadlines, fail-fast cancellation, broken-pool containment — and when
  the compute pool itself is shut down or broken, the job **degrades to
  sequential execution** in its runner thread rather than failing
  (counted per tenant in ``jobs_degraded``);
* **observability**: every counter, gauge and histogram carries a
  ``tenant`` label in the service's own
  :class:`~repro.obs.metrics.MetricsRegistry`; :meth:`metrics_text`
  renders the Prometheus exposition.

:class:`StreamServer` wraps the core for asyncio callers: ``await
server.submit(...)`` resolves on the event loop when the job settles,
while admission failures raise immediately (they are synchronous and
fast by construction).

Fault sites (kind ``serve``): ``serve:admit:<tenant>`` strikes the
admission gate, ``serve:dispatch:<tenant>`` the runner as it takes the
job off the queue — both honor ``raise`` and ``delay``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable

from repro.common import (
    CancellationError,
    IllegalArgumentError,
    RejectedExecutionError,
    TaskTimeoutError,
)
from repro.faults.plan import current_fault_plan
from repro.faults.policy import Deadline
from repro.forkjoin.pool import ForkJoinPool, common_pool
from repro.obs import prom
from repro.obs.metrics import MetricsRegistry
from repro.serve.errors import AdmissionError, JobShedError
from repro.serve.job import CANCELLED, DONE, FAILED, SHED, Job, Ticket
from repro.serve.queue import AdmissionQueue
from repro.serve.scheduler import DeficitRoundRobin
from repro.serve.tenant import Tenant, TenantConfig
from repro.streams.stream import Stream


class _TenantMetrics:
    """One tenant's metric handles, resolved once when it registers: a
    labeled registry lookup sorts its labels on every call, and a job
    would otherwise make half a dozen of them."""

    __slots__ = (
        "queue_depth", "queue_wait", "latency", "submitted", "completed",
        "failed", "shed", "cancelled", "degraded", "breaker_trips",
    )

    def __init__(self, registry: MetricsRegistry, tenant: str) -> None:
        self.queue_depth = registry.gauge("serve_queue_depth", tenant=tenant)
        self.queue_wait = registry.histogram(
            "serve_queue_wait_ns", tenant=tenant
        )
        self.latency = registry.histogram(
            "serve_job_latency_ns", tenant=tenant
        )
        self.submitted = registry.counter("jobs_submitted", tenant=tenant)
        self.completed = registry.counter("jobs_completed", tenant=tenant)
        self.failed = registry.counter("jobs_failed", tenant=tenant)
        self.shed = registry.counter("jobs_shed", tenant=tenant)
        self.cancelled = registry.counter("jobs_cancelled", tenant=tenant)
        self.degraded = registry.counter("jobs_degraded", tenant=tenant)
        self.breaker_trips = registry.counter("breaker_trips", tenant=tenant)


class ExecutionService:
    """A shared stream-execution service for many concurrent tenants.

    Args:
        max_workers: runner threads; each runs one pipeline at a time, so
            this also caps the jobs in flight.
        global_queue_limit: total queued jobs across all tenants before
            admission starts shedding/rejecting.
        pool: the shared :class:`ForkJoinPool` pipelines run on; defaults
            to the common pool.  The service never shuts this pool down.
        default_backend: backend for jobs that don't choose one
            (``threads``/``process``/``sequential``).
        quantum: deficit-round-robin credit per scheduling pass.
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        global_queue_limit: int = 64,
        pool: ForkJoinPool | None = None,
        default_backend: str = "threads",
        quantum: float = 1.0,
    ) -> None:
        if max_workers < 1:
            raise IllegalArgumentError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if global_queue_limit < 1:
            raise IllegalArgumentError(
                f"global_queue_limit must be >= 1, got {global_queue_limit}"
            )
        self.max_workers = max_workers
        self.default_backend = default_backend
        self._pool = pool
        self._tenants: dict[str, Tenant] = {}
        self._tenant_metrics: dict[str, _TenantMetrics] = {}
        self._datasets: dict[str, Any] = {}
        self._queue = AdmissionQueue(global_queue_limit, max_workers)
        self._scheduler = DeficitRoundRobin(quantum=quantum)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._in_flight = 0
        self._shutdown = False
        self._runners: list[threading.Thread] = []
        self.metrics = MetricsRegistry(name="serve")
        self._in_flight_gauge = self.metrics.gauge("serve_in_flight")

    # -- registration ------------------------------------------------------ #

    def register_dataset(self, name: str, data: Iterable) -> None:
        """Publish ``data`` under ``name`` for every tenant to query.

        One-shot iterators are materialized — a dataset is queried many
        times by many jobs.
        """
        if not name:
            raise IllegalArgumentError("dataset name must be non-empty")
        if iter(data) is data:
            data = list(data)
        with self._lock:
            self._datasets[name] = data

    def register_tenant(self, name: str | TenantConfig, **kwargs) -> TenantConfig:
        """Register a tenant by name (policy via keyword arguments — see
        :class:`~repro.serve.tenant.TenantConfig`) or as a prebuilt config."""
        config = (
            name if isinstance(name, TenantConfig)
            else TenantConfig(name=name, **kwargs)
        )
        with self._lock:
            if config.name in self._tenants:
                raise IllegalArgumentError(
                    f"tenant {config.name!r} is already registered"
                )
            self._tenants[config.name] = Tenant(config)
            self._scheduler.add(config.name)
            handles = _TenantMetrics(self.metrics, config.name)
            self._tenant_metrics[config.name] = handles
            handles.queue_depth.set(0)
        return config

    # -- lifecycle --------------------------------------------------------- #

    def start(self) -> "ExecutionService":
        """Start the runner threads (idempotent; ``submit`` starts them
        lazily).  Runners are daemons: a service nobody shuts down does
        not hold up interpreter exit."""
        with self._lock:
            if self._runners or self._shutdown:
                return self
            self._runners = [
                threading.Thread(
                    target=self._run, name=f"serve-runner-{i}", daemon=True
                )
                for i in range(self.max_workers)
            ]
            for runner in self._runners:
                runner.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work.  With ``drain`` (default) the runners run
        every queued job, then exit, and this call joins them; otherwise
        the queues are cancelled at once and the call returns without
        waiting.  In-flight jobs always run to completion — their tickets
        settle either way.  Idempotent."""
        cancelled: list[tuple[Tenant, Ticket]] = []
        with self._work:
            self._shutdown = True
            if not drain:
                for tenant in self._tenants.values():
                    while tenant.queue:
                        cancelled.append(
                            (tenant, self._queue.take_from(tenant))
                        )
                    self._tenant_metrics[tenant.name].queue_depth.set(0)
            self._work.notify_all()
        for tenant, ticket in cancelled:
            self._tenant_metrics[tenant.name].cancelled.inc()
            ticket._finish(
                CANCELLED,
                error=CancellationError(
                    f"{ticket.job.label}: cancelled by service shutdown"
                ),
            )
        if drain:
            for runner in self._runners:
                if runner is not threading.current_thread():
                    runner.join()

    def shutdown_now(self) -> None:
        """``shutdown(drain=False)``: cancel queued jobs, keep in-flight."""
        self.shutdown(drain=False)

    def __enter__(self) -> "ExecutionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission (the fast path) ---------------------------------------- #

    def submit(
        self,
        tenant: str,
        dataset: str,
        pipeline: Callable[[Stream], Any],
        *,
        priority: int | None = None,
        deadline: "Deadline | float | None" = None,
        backend: str | None = None,
        label: str | None = None,
    ) -> Ticket:
        """Queue ``pipeline`` against ``dataset`` on behalf of ``tenant``.

        Fast-fails with an :class:`~repro.serve.errors.AdmissionError`
        (carrying ``retry_after``) when admission refuses the job;
        admission holds the service lock for O(1) work, so rejection
        latency stays in the microseconds.  The ``serve:admit:<tenant>``
        fault site fires before the lock is taken: a delayed admission
        stalls only its own caller.

        ``deadline`` is a :class:`~repro.faults.policy.Deadline` or a
        float of seconds from now; it covers queueing *and* execution —
        a job still queued at expiry is cancelled without ever reaching
        the pool.
        """
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline.after(deadline)
        if not self._runners:
            self.start()
        # Refuse what admission would refuse before the fault site fires;
        # tenants and datasets are never unregistered, and shutdown is
        # re-checked under the lock.
        self._check_open()
        tenant_state = self._tenants.get(tenant)
        if tenant_state is None:
            raise IllegalArgumentError(f"unknown tenant {tenant!r}")
        if dataset not in self._datasets:
            raise IllegalArgumentError(f"unknown dataset {dataset!r}")
        if priority is None:
            priority = tenant_state.config.priority
        try:
            self._queue.strike(tenant, priority)
        except AdmissionError as exc:
            self._count_rejected(tenant, exc)
            raise
        victim: Ticket | None = None
        with self._work:
            self._check_open()
            job = Job(
                tenant, dataset, pipeline,
                priority=priority,
                deadline=deadline,
                backend=backend,
                label=label or f"{tenant}/{dataset}",
            )
            ticket = Ticket(job)
            try:
                victim = self._queue.offer(tenant_state, ticket, self._tenants)
            except AdmissionError as exc:
                self._count_rejected(tenant, exc)
                raise
            self._tenant_metrics[tenant].submitted.inc()
            self._set_depth(tenant_state)
            if victim is not None:
                victim_tenant = self._tenants[victim.job.tenant]
                self._tenant_metrics[victim_tenant.name].shed.inc()
                self._set_depth(victim_tenant)
            self._work.notify()
        if victim is not None:
            victim._finish(
                SHED,
                error=JobShedError(
                    f"{victim.job.label} (priority {victim.job.priority}) "
                    f"shed for priority-{job.priority} work"
                ),
            )
        return ticket

    def _check_open(self) -> None:
        if self._shutdown:
            raise RejectedExecutionError(
                "execution service has been shut down and no longer "
                "accepts work"
            )

    def _count_rejected(self, tenant: str, exc: AdmissionError) -> None:
        self.metrics.counter(
            "jobs_rejected", tenant=tenant, reason=exc.reason
        ).inc()

    def _set_depth(self, tenant: Tenant) -> None:
        self._tenant_metrics[tenant.name].queue_depth.set(len(tenant.queue))

    # -- runners ----------------------------------------------------------- #

    def _run(self) -> None:
        """One runner thread: take the next job in fair order, run it,
        settle it, repeat — until shut down with nothing left queued."""
        while True:
            with self._work:
                while not self._queue.total_queued():
                    if self._shutdown:
                        return
                    self._work.wait()
                tenant = self._scheduler.select(self._tenants)
                ticket = self._queue.take_from(tenant)
                self._set_depth(tenant)
                job = ticket.job
                expired = job.deadline is not None and job.deadline.expired
                if not expired:
                    self._in_flight += 1
                    self._in_flight_gauge.set(self._in_flight)
            if expired:
                # The deadline lapsed between admission and dispatch: the
                # job is cancelled here, at the serve layer — it never
                # reaches the pool, so only ``jobs_cancelled`` (not the
                # pool's ``tasks_cancelled``) accounts for it.
                self._tenant_metrics[tenant.name].cancelled.inc()
                ticket._finish(
                    CANCELLED,
                    error=TaskTimeoutError(
                        f"{job.label} missed its {job.deadline.budget}s "
                        "deadline while queued"
                    ),
                )
                continue
            try:
                self._run_job(ticket, tenant)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._in_flight_gauge.set(self._in_flight)

    # -- execution --------------------------------------------------------- #

    def _resolve_pool(self) -> ForkJoinPool:
        if self._pool is None:
            self._pool = common_pool()
        return self._pool

    def _build_stream(self, job: Job, backend: str) -> Stream:
        stream = (
            Stream.of_iterable(self._datasets[job.dataset])
            .parallel()
            .with_backend(backend)
        )
        if backend == "threads":
            stream = stream.with_pool(self._resolve_pool())
        if job.deadline is not None:
            stream = stream.with_deadline(job.deadline)
        return stream

    def _execute(self, job: Job) -> Any:
        backend = job.backend or self.default_backend
        if backend == "threads" and self._resolve_pool().is_shutdown():
            return self._degrade(job, None)
        try:
            return job.pipeline(self._build_stream(job, backend))
        except (RejectedExecutionError, BrokenProcessPool) as exc:
            if backend == "sequential":
                raise
            return self._degrade(job, exc)

    def _degrade(self, job: Job, cause: BaseException | None) -> Any:
        """Graceful degradation: the compute pool is gone — run the same
        pipeline sequentially in this runner thread (the deadline still
        applies through the stream)."""
        if job.deadline is not None:
            job.deadline.check(job.label)
        self._tenant_metrics[job.tenant].degraded.inc()
        return job.pipeline(self._build_stream(job, "sequential"))

    def _run_job(self, ticket: Ticket, tenant: Tenant) -> None:
        """Fire the dispatch fault site, then run and settle the job.
        Whatever the job raises settles it as failed; the runner lives on."""
        try:
            plan = current_fault_plan()
            if plan is not None:
                action = plan.fire(
                    "serve", ("dispatch", tenant.name),
                    allowed=("raise", "delay"), in_flight=self._in_flight,
                )
                if action is not None:
                    action.apply_before()
            ticket._mark_running()
            self._tenant_metrics[tenant.name].queue_wait.observe(
                ticket.dispatched_ns - ticket.submitted_ns
            )
            result = self._execute(ticket.job)
        except BaseException as exc:
            # Not swallowed: ``Ticket.result`` re-raises it to the caller.
            # Interrupts reach only the main thread, so whatever arrives
            # here came from the job, and the runner must outlive it.
            self._settle_failure(ticket, tenant, exc)
        else:
            self._settle_success(ticket, tenant, result)

    def _settle_success(self, ticket: Ticket, tenant: Tenant,
                        result: Any) -> None:
        ticket._finish(DONE, result=result)
        handles = self._tenant_metrics[tenant.name]
        handles.completed.inc()
        handles.latency.observe(ticket.completed_ns - ticket.submitted_ns)
        with self._work:
            tenant.record_success()
            if ticket.dispatched_ns is not None:
                self._queue.note_job_seconds(
                    (ticket.completed_ns - ticket.dispatched_ns) / 1e9
                )

    def _settle_failure(self, ticket: Ticket, tenant: Tenant,
                        exc: BaseException) -> None:
        handles = self._tenant_metrics[tenant.name]
        handles.failed.inc()
        with self._work:
            opened = tenant.record_failure()
        if opened:
            handles.breaker_trips.inc()
        ticket._finish(FAILED, error=exc)

    # -- observability ------------------------------------------------------ #

    def stats(self) -> dict:
        """Per-tenant service counters plus latency quantile bounds (ms)."""
        per_tenant: dict[str, dict] = {}
        with self._lock:
            names = list(self._tenants)
            queued = {n: len(self._tenants[n].queue) for n in names}
            in_flight = self._in_flight
            total_queued = self._queue.total_queued()
        rejected: dict[str, int] = {n: 0 for n in names}
        for entry in self.metrics.collect():
            if entry["name"] == "jobs_rejected":
                rejected[entry["labels"]["tenant"]] = (
                    rejected.get(entry["labels"]["tenant"], 0)
                    + entry["value"]
                )
        for name in names:
            handles = self._tenant_metrics[name]
            per_tenant[name] = {
                "queued": queued[name],
                "submitted": handles.submitted.value,
                "completed": handles.completed.value,
                "failed": handles.failed.value,
                "rejected": rejected.get(name, 0),
                "shed": handles.shed.value,
                "cancelled": handles.cancelled.value,
                "degraded": handles.degraded.value,
                "breaker_trips": handles.breaker_trips.value,
                "p50_latency_ms": handles.latency.quantile_bound(0.50) / 1e6,
                "p99_latency_ms": handles.latency.quantile_bound(0.99) / 1e6,
            }
        return {
            "in_flight": in_flight,
            "queued": total_queued,
            "tenants": per_tenant,
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the service registry."""
        return prom.render(self.metrics)

    def __repr__(self) -> str:
        return (
            f"ExecutionService(tenants={len(self._tenants)}, "
            f"workers={self.max_workers}, "
            f"queued={self._queue.total_queued()})"
        )


def _resolve_future(future: asyncio.Future, ticket: Ticket) -> None:
    """Settle an asyncio future from a finished ticket (loop thread only)."""
    if future.cancelled():
        return
    if ticket.state == DONE:
        future.set_result(ticket.result())
    else:
        future.set_exception(
            ticket.error
            or CancellationError(f"{ticket.job.label}: {ticket.state}")
        )


class StreamServer:
    """asyncio front-end over an :class:`ExecutionService`.

    ``await server.submit(...)`` suspends the coroutine until the job
    settles; admission failures raise synchronously (they are decided in
    microseconds, before any await).  Many client coroutines can share
    one server — each job's ticket bridges back onto the loop with
    ``call_soon_threadsafe``, so no coroutine ever blocks a thread.
    """

    def __init__(self, service: ExecutionService | None = None,
                 **kwargs) -> None:
        self.service = (
            service if service is not None else ExecutionService(**kwargs)
        )

    # Registration is synchronous and lock-cheap; passthroughs keep the
    # async API surface complete without needless awaits.
    def register_dataset(self, name: str, data: Iterable) -> None:
        self.service.register_dataset(name, data)

    def register_tenant(self, name: str | TenantConfig, **kwargs) -> TenantConfig:
        return self.service.register_tenant(name, **kwargs)

    def enqueue(self, *args, **kwargs) -> Ticket:
        """Synchronous submit: the raw ticket, for callers that poll."""
        return self.service.submit(*args, **kwargs)

    async def submit(
        self,
        tenant: str,
        dataset: str,
        pipeline: Callable[[Stream], Any],
        **kwargs,
    ) -> Any:
        """Submit and await the pipeline's result."""
        loop = asyncio.get_running_loop()
        ticket = self.service.submit(tenant, dataset, pipeline, **kwargs)
        future: asyncio.Future = loop.create_future()
        ticket.add_done_callback(
            lambda t: loop.call_soon_threadsafe(_resolve_future, future, t)
        )
        return await future

    def stats(self) -> dict:
        return self.service.stats()

    def metrics_text(self) -> str:
        return self.service.metrics_text()

    async def __aenter__(self) -> "StreamServer":
        self.service.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        # shutdown() drains queued jobs; keep the loop responsive by
        # parking the blocking wait on a helper thread.
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.shutdown
        )
