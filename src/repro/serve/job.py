"""Jobs and tickets — the unit of work the service queues and runs.

A :class:`Job` is a named dataset plus a *pipeline function*: a callable
that receives a ready-configured :class:`~repro.streams.stream.Stream`
over the dataset and runs whatever terminal it likes.  The service owns
stream construction (pool, backend, deadline), so a tenant cannot smuggle
in an unbounded pool or dodge its deadline.

A :class:`Ticket` is the caller's handle: a tiny future that resolves to
the pipeline's result.  It records the job's whole lifecycle with
monotonic timestamps (submitted → dispatched → completed), which is where
the per-tenant queue-wait and latency histograms come from.  Done
callbacks fire exactly once, from the thread that finished the ticket —
the asyncio facade bridges them onto the event loop with
``call_soon_threadsafe``.  A callback that raises is logged, not
propagated: the finishing thread is usually a service runner, which must
go on to its next job.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable

from repro.common import IllegalStateError
from repro.faults.policy import Deadline

_log = logging.getLogger(__name__)

#: Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
SHED = "shed"

#: States a ticket can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED, SHED)


class Job:
    """One submitted pipeline: what to run, against what, under what limits."""

    __slots__ = ("tenant", "dataset", "pipeline", "priority", "deadline",
                 "backend", "label")

    def __init__(
        self,
        tenant: str,
        dataset: str,
        pipeline: Callable[[Any], Any],
        *,
        priority: int = 0,
        deadline: Deadline | None = None,
        backend: str | None = None,
        label: str = "job",
    ) -> None:
        self.tenant = tenant
        self.dataset = dataset
        self.pipeline = pipeline
        self.priority = priority
        self.deadline = deadline
        self.backend = backend
        self.label = label

    def __repr__(self) -> str:
        return (
            f"Job({self.label!r}, tenant={self.tenant!r}, "
            f"dataset={self.dataset!r}, priority={self.priority})"
        )


class Ticket:
    """The caller's handle on one queued/running/finished job."""

    __slots__ = (
        "job", "state", "submitted_ns", "dispatched_ns", "completed_ns",
        "_result", "_error", "_event", "_lock", "_callbacks",
    )

    def __init__(self, job: Job) -> None:
        self.job = job
        self.state = QUEUED
        self.submitted_ns = time.perf_counter_ns()
        self.dispatched_ns: int | None = None
        self.completed_ns: int | None = None
        self._result: Any = None
        self._error: BaseException | None = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list[Callable[["Ticket"], None]] = []

    # -- state transitions (service-internal) ------------------------------ #

    def _mark_running(self) -> None:
        self.dispatched_ns = time.perf_counter_ns()
        self.state = RUNNING

    def _finish(self, state: str, result: Any = None,
                error: BaseException | None = None) -> None:
        """Move to a terminal state exactly once; later calls are no-ops
        (a shed racing a dispatch must not overwrite the winner)."""
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self._result = result
            self._error = error
            self.completed_ns = time.perf_counter_ns()
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                _log.exception("done callback of %r raised", self)

    # -- caller API -------------------------------------------------------- #

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def error(self) -> BaseException | None:
        """The failure/cancellation cause, or None."""
        return self._error

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the ticket settles; False on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The pipeline's result; re-raises the job's failure or the
        cancellation/shed cause.  Raises :class:`TimeoutError` if the
        ticket has not settled within ``timeout`` seconds."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"{self.job.label}: ticket not settled within {timeout}s"
            )
        if self.state == DONE:
            return self._result
        if self._error is not None:
            raise self._error
        raise IllegalStateError(
            f"{self.job.label}: ticket settled as {self.state} with no cause"
        )

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Run ``callback(ticket)`` when the ticket settles (immediately if
        it already has).  Called from the finishing thread."""
        with self._lock:
            if self.state not in TERMINAL_STATES:
                self._callbacks.append(callback)
                return
        callback(self)

    def __repr__(self) -> str:
        return (
            f"Ticket({self.job.label!r}, tenant={self.job.tenant!r}, "
            f"state={self.state!r})"
        )
