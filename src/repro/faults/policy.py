"""Resilience policies: retry with deterministic backoff, deadlines, and
graceful degradation.

:func:`run_resilient` is the one driver every engine shares:

* a :class:`RetryPolicy` re-runs a failed attempt up to ``max_attempts``
  times with exponential backoff and **deterministic jitter** (a pure
  function of the policy seed and the attempt number — two runs of the
  same policy sleep the same schedule);
* a :class:`Deadline` bounds the whole operation; parallel terminals
  propagate it into ``ForkJoinPool.invoke(timeout=…)`` so an overrunning
  task tree surfaces as :class:`~repro.common.TaskTimeoutError`;
* a *fallback* callable — typically the sequential execution of the same
  workload — runs when attempts are exhausted, the failure is not
  retryable, or the deadline expired.  Degraded runs are counted
  (``degraded_runs``) and traced (``degraded`` instants), never silent.

``TaskTimeoutError`` is deliberately **not retryable**: re-running an
operation that just overran its deadline cannot beat the same deadline,
so a timeout skips straight to the fallback (or re-raises).
"""

from __future__ import annotations

import random
import time
from typing import Callable, TypeVar

from repro.common import IllegalArgumentError, TaskTimeoutError, check_positive
from repro.obs.metrics import global_registry
from repro.obs.tracer import current_tracer

R = TypeVar("R")

_retries_attempted = global_registry().counter("retries_attempted")
_degraded_runs = global_registry().counter("degraded_runs")


class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Args:
        max_attempts: total attempts, including the first (>= 1).
        base_delay: backoff before attempt 2, in seconds.
        multiplier: backoff growth factor per further attempt.
        max_delay: cap on any single backoff sleep.
        jitter: fraction of the delay randomized (0 disables; 0.1 means
            each sleep is scaled into ``[1, 1 + 0.1)`` of its nominal
            value).  The draw is seeded per ``(seed, attempt)`` so the
            schedule is reproducible.
        retry_on: exception classes considered transient.
        seed: jitter seed.
    """

    __slots__ = (
        "max_attempts", "base_delay", "multiplier", "max_delay", "jitter",
        "retry_on", "seed",
    )

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.0,
        multiplier: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.0,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        seed: int = 0,
    ) -> None:
        check_positive(max_attempts, "max_attempts")
        if base_delay < 0 or max_delay < 0:
            raise IllegalArgumentError("delays must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise IllegalArgumentError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.retry_on = retry_on
        self.seed = seed

    def retryable(self, exc: BaseException) -> bool:
        """True when ``exc`` is transient under this policy.

        Timeouts are never retryable — the deadline that produced them
        still stands (degrade or re-raise instead).
        """
        if isinstance(exc, TaskTimeoutError):
            return False
        return isinstance(exc, self.retry_on)

    def delay_for(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` >= 1).

        Deterministic: the jitter draw depends only on the policy seed
        and the attempt number.
        """
        check_positive(attempt, "attempt")
        delay = self.base_delay * (self.multiplier ** (attempt - 1))
        delay = min(delay, self.max_delay)
        if self.jitter > 0 and delay > 0:
            u = random.Random(self.seed * 7_368_787 + attempt).random()
            delay *= 1.0 + self.jitter * u
        return min(delay, self.max_delay)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, multiplier={self.multiplier})"
        )


class Deadline:
    """A wall-clock budget shared down a call chain.

    Built on ``time.monotonic``; ``remaining()`` never goes negative.
    """

    __slots__ = ("expires_at", "budget")

    def __init__(self, expires_at: float, budget: float) -> None:
        self.expires_at = expires_at
        self.budget = budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        if seconds <= 0:
            raise IllegalArgumentError(f"deadline must be > 0s, got {seconds}")
        return cls(time.monotonic() + seconds, seconds)

    def remaining(self) -> float:
        """Seconds left; 0.0 once expired."""
        return max(self.expires_at - time.monotonic(), 0.0)

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`~repro.common.TaskTimeoutError` when expired."""
        if self.expired:
            raise TaskTimeoutError(
                f"{what} missed its {self.budget}s deadline"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


def run_resilient(
    primary: Callable[[], R],
    *,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    fallback: Callable[[], R] | None = None,
    label: str = "operation",
    on_retry: Callable[[int, BaseException], None] | None = None,
    on_degrade: Callable[[BaseException], None] | None = None,
) -> R:
    """Run ``primary`` under the given policies.

    Order of events: attempt → (retryable failure? backoff, re-attempt,
    up to ``retry.max_attempts``) → (still failing and ``fallback``
    given? run the fallback once, counting a degraded run) → re-raise
    the last failure.  ``on_retry(attempt, exc)`` / ``on_degrade(exc)``
    let callers keep local counters (e.g. ``ProcessExecutor.stats()``).
    """
    attempts = retry.max_attempts if retry is not None else 1
    failure: BaseException | None = None
    for attempt in range(1, attempts + 1):
        if deadline is not None and deadline.expired:
            failure = TaskTimeoutError(
                f"{label} missed its {deadline.budget}s deadline "
                f"before attempt {attempt}"
            )
            break
        try:
            return primary()
        except BaseException as exc:  # noqa: BLE001 — policy boundary
            failure = exc
            if retry is None or attempt >= attempts or not retry.retryable(exc):
                break
            _retries_attempted.inc()
            if on_retry is not None:
                on_retry(attempt, exc)
            tracer = current_tracer()
            if tracer.enabled:
                tracer.instant(
                    "retry", name=label, attempt=attempt,
                    error=type(exc).__name__,
                )
            backoff = retry.delay_for(attempt)
            if deadline is not None:
                backoff = min(backoff, deadline.remaining())
            if backoff > 0:
                time.sleep(backoff)
    assert failure is not None
    if not isinstance(failure, Exception):
        # KeyboardInterrupt / SystemExit must propagate, not degrade.
        raise failure
    if fallback is not None:
        _degraded_runs.inc()
        if on_degrade is not None:
            on_degrade(failure)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "degraded", name=label, error=type(failure).__name__
            )
        return fallback()
    raise failure

