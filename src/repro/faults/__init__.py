"""Deterministic fault injection and resilience policies.

Two layers (see ``docs/robustness.md`` for the model):

* :mod:`repro.faults.plan` — a seeded :class:`FaultPlan` of site-keyed
  injectors (``raise`` / ``delay`` / ``corrupt`` / ``kill`` / ``lose`` /
  ``duplicate``) matched by patterns like ``leaf:*``,
  ``combine:depth<3``, ``proc:worker-2``, ``mpi:send:0->1``.  Injection
  hooks are threaded through every execution engine: the parallel stream
  terminals, ``power_collect`` leaves and combiners, ``ForkJoinPool``
  worker dispatch, ``ProcessExecutor`` leaf-batch shipping, ``SimComm``
  message delivery, and the ``repro.serve`` admission/dispatch path
  (``serve:admit:<tenant>`` / ``serve:dispatch:<tenant>``).  With no
  plan installed every hook is a single ``is None`` check.

* :mod:`repro.faults.policy` — :class:`RetryPolicy` (bounded attempts,
  exponential backoff, deterministic jitter), :class:`Deadline`
  propagation into parallel terminals, and graceful degradation: a
  failed / rejected / timed-out parallel run transparently re-executes
  sequentially when ``fallback=True``, counted in ``degraded_runs`` and
  traced as a ``degraded`` instant.
"""

from repro.faults.plan import (
    MODES,
    FaultAction,
    FaultInjected,
    FaultPlan,
    Injector,
    WorkerKilledError,
    current_fault_plan,
    fault_injection,
    set_fault_plan,
)
from repro.faults.policy import Deadline, RetryPolicy, run_resilient, stats
from repro.faults.sites import SitePattern, site_string

__all__ = [
    "MODES",
    "Deadline",
    "FaultAction",
    "FaultInjected",
    "FaultPlan",
    "Injector",
    "RetryPolicy",
    "SitePattern",
    "WorkerKilledError",
    "current_fault_plan",
    "fault_injection",
    "run_resilient",
    "set_fault_plan",
    "site_string",
    "stats",
]
