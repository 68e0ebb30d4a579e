"""``repro.serve`` — the multi-tenant execution service layer.

The "millions of users" layer over the stream/fork-join compute core
(ROADMAP item 3; design in ``docs/serving.md``):

* :mod:`repro.serve.server`    — :class:`ExecutionService` (sync core:
  datasets, tenants, and the runner threads that take each next job off
  the fair scheduler themselves) and :class:`StreamServer` (asyncio
  facade);
* :mod:`repro.serve.queue`     — admission control: bounded per-tenant
  queues, a global cap with priority-ordered load shedding, fast-fail
  rejections with ``Retry-After`` hints;
* :mod:`repro.serve.scheduler` — weighted deficit-round-robin fairness
  across tenant queues;
* :mod:`repro.serve.tenant`    — per-tenant policy and runtime state:
  quotas, circuit breaker, DRR credit;
* :mod:`repro.serve.job`       — :class:`Job` / :class:`Ticket`, the
  queued unit of work and its future-like handle;
* :mod:`repro.serve.errors`    — the
  :class:`~repro.common.RejectedExecutionError`-rooted admission errors.
"""

from repro.serve.errors import (
    AdmissionError,
    CircuitOpenError,
    JobShedError,
    QueueFullError,
    QuotaExceededError,
    ServiceOverloadError,
)
from repro.serve.job import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    Job,
    Ticket,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.scheduler import DeficitRoundRobin
from repro.serve.server import ExecutionService, StreamServer
from repro.serve.tenant import Tenant, TenantConfig

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "SHED",
    "AdmissionError",
    "AdmissionQueue",
    "CircuitOpenError",
    "DeficitRoundRobin",
    "ExecutionService",
    "Job",
    "JobShedError",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceOverloadError",
    "StreamServer",
    "Tenant",
    "TenantConfig",
    "Ticket",
]
