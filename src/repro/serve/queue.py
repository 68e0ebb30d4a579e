"""Admission control: bounded queues, fast-fail rejection, priority shed.

:class:`AdmissionQueue` holds the *admission policy* — every check that
decides, in O(tenants) worst case and O(1) typically, whether a submitted
job may queue:

1. **circuit breaker** — a tenant whose jobs keep failing is refused
   outright (:class:`~repro.serve.errors.CircuitOpenError`) until its
   cooldown lapses;
2. **quota** — sliding-window admissions-per-second cap
   (:class:`~repro.serve.errors.QuotaExceededError`);
3. **tenant queue bound** — the tenant's own FIFO is full
   (:class:`~repro.serve.errors.QueueFullError`);
4. **global bound with priority shed** — the service-wide queue is full;
   if the incoming job outranks the lowest-priority queued job anywhere,
   that victim is **shed** (its ticket settles with
   :class:`~repro.serve.errors.JobShedError` — PR 3's cancellation
   contract: the loser learns promptly, never silently) and the newcomer
   takes its slot; otherwise
   :class:`~repro.serve.errors.ServiceOverloadError`.

Every rejection carries a ``retry_after`` hint derived from the queue
depth and an EWMA of recent job durations — the service's honest estimate
of when a slot frees up.

The ``serve:admit:<tenant>`` fault site lets a
:class:`~repro.faults.plan.FaultPlan` strike the admission gate itself
(``raise`` to model a failing front-end, ``delay`` to model a slow one).

All methods but :meth:`AdmissionQueue.strike` (the fault site, which runs
before the lock so a slow gate stalls only its own caller) must be called
under the owning service's admission lock; this class adds no locking of
its own.
"""

from __future__ import annotations

import time

from repro.faults.plan import current_fault_plan
from repro.serve.errors import (
    CircuitOpenError,
    QueueFullError,
    QuotaExceededError,
    ServiceOverloadError,
)
from repro.serve.job import Ticket
from repro.serve.tenant import Tenant

#: Fallback per-job seconds before any job has completed (retry hints only).
_DEFAULT_JOB_SECONDS = 0.05


class AdmissionQueue:
    """The admission gate over every tenant's bounded queue."""

    __slots__ = ("global_limit", "workers", "_total", "_avg_job_seconds")

    def __init__(self, global_limit: int, workers: int) -> None:
        self.global_limit = global_limit
        self.workers = max(workers, 1)
        self._total = 0
        self._avg_job_seconds = _DEFAULT_JOB_SECONDS

    # -- sizing ------------------------------------------------------------ #

    def total_queued(self) -> int:
        return self._total

    def note_job_seconds(self, seconds: float) -> None:
        """Fold one completed job's duration into the retry-hint EWMA."""
        if seconds > 0:
            self._avg_job_seconds = 0.8 * self._avg_job_seconds + 0.2 * seconds

    def retry_after_hint(self, queued_ahead: int | None = None) -> float:
        """Estimated seconds until a slot frees: jobs ahead spread over the
        workers, at the observed average job duration."""
        depth = self._total if queued_ahead is None else queued_ahead
        return (max(depth, 1) / self.workers) * self._avg_job_seconds

    # -- the admission decision -------------------------------------------- #

    def strike(self, tenant: str, priority: int) -> None:
        """Offer one admission to the ``serve:admit:<tenant>`` fault site
        and apply its action: a ``delay`` sleeps, a ``raise`` refuses the
        job before it is queued.  Called without the admission lock, so a
        delayed admission blocks no other tenant and no runner, and only
        for a submit that passed the service's shutdown, tenant and
        dataset checks; the service counts an ``AdmissionError`` raised
        here in ``jobs_rejected`` like admission's own refusals."""
        plan = current_fault_plan()
        if plan is not None:
            action = plan.fire(
                "serve", ("admit", tenant),
                allowed=("raise", "delay"),
                queued=self._total, priority=priority,
            )
            if action is not None:
                action.apply_before()

    def offer(self, tenant: Tenant, ticket: Ticket,
              tenants: dict[str, Tenant]) -> Ticket | None:
        """Admit ``ticket`` into ``tenant``'s queue or raise an
        :class:`~repro.serve.errors.AdmissionError`.

        Returns the shed victim's ticket when admission displaced a
        lower-priority queued job (the caller settles it and adjusts its
        tenant's gauges), else ``None``.
        """
        now = time.monotonic()
        open_for = tenant.breaker_open(now)
        if open_for > 0:
            raise CircuitOpenError(
                f"tenant {tenant.name!r}: circuit open for another "
                f"{open_for:.3f}s after repeated job failures",
                retry_after=open_for,
            )
        quota_wait = tenant.quota_remaining_wait(now)
        if quota_wait is not None:
            raise QuotaExceededError(
                f"tenant {tenant.name!r}: quota of {tenant.config.quota} "
                f"jobs per {tenant.config.quota_window}s exhausted",
                retry_after=quota_wait,
            )
        if len(tenant.queue) >= tenant.config.queue_limit:
            raise QueueFullError(
                f"tenant {tenant.name!r}: queue full "
                f"({tenant.config.queue_limit} jobs waiting)",
                retry_after=self.retry_after_hint(len(tenant.queue)),
            )
        victim = None
        if self._total >= self.global_limit:
            victim = self._shed_candidate(ticket, tenants)
            if victim is None:
                raise ServiceOverloadError(
                    f"service overloaded: {self._total} jobs queued "
                    f"(global limit {self.global_limit})",
                    retry_after=self.retry_after_hint(),
                )
            tenants[victim.job.tenant].queue.remove(victim)
            self._total -= 1
        tenant.count_admission(now)
        tenant.queue.append(ticket)
        self._total += 1
        return victim

    def _shed_candidate(self, incoming: Ticket,
                        tenants: dict[str, Tenant]) -> Ticket | None:
        """The queued ticket to displace: strictly lower priority than the
        incoming job; among those, the lowest-priority, latest-submitted
        one (newest work loses first, like a LIFO overflow drop)."""
        victim: Ticket | None = None
        for tenant in tenants.values():
            for queued in tenant.queue:
                if queued.job.priority >= incoming.job.priority:
                    continue
                if (
                    victim is None
                    or queued.job.priority < victim.job.priority
                    or (
                        queued.job.priority == victim.job.priority
                        and queued.submitted_ns > victim.submitted_ns
                    )
                ):
                    victim = queued
        return victim

    # -- dequeue ----------------------------------------------------------- #

    def take_from(self, tenant: Tenant) -> Ticket:
        """Pop the tenant's oldest queued ticket (FIFO within a tenant)."""
        ticket = tenant.queue.popleft()
        self._total -= 1
        return ticket

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(queued={self._total}, "
            f"global_limit={self.global_limit})"
        )
