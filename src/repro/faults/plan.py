"""``FaultPlan`` — seeded, deterministic fault injection.

A plan is an ordered list of :class:`Injector` rules.  Each execution
engine calls :meth:`FaultPlan.fire` at its instrumentation sites (the
*site* taxonomy lives in :mod:`repro.faults.sites`); ``fire`` returns a
:class:`FaultAction` when an injector elects to strike, or ``None``.

Determinism
-----------

Whether an injector strikes at a given site occurrence is a **pure
function of** ``(plan seed, injector position, occurrence index)`` — no
wall clock, no shared global RNG.  For structurally deterministic sites
(``leaf``/``combine`` trees of a fixed workload, ``proc`` sub-function
shipping, ``mpi`` messages of a deterministic program) the multiset of
injected faults is therefore identical across runs with the same seed,
regardless of thread scheduling: threads may *reach* occurrences in a
different order, but occurrence *k* of a site always gets the same
verdict.  ``worker`` dispatch sites fire per scheduling-loop iteration,
which is inherently timing-dependent; cap those with ``times=`` for
reproducible counts.

Cost when disabled
------------------

No plan installed means :func:`current_fault_plan` returns ``None`` and
every instrumentation site pays a single module-global read plus one
``is None`` check — the same discipline as
:func:`repro.obs.tracer.current_tracer`.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.common import IllegalArgumentError, ReproError
from repro.faults.sites import SitePattern, site_string
from repro.obs.metrics import global_registry
from repro.obs.tracer import current_tracer

#: Injection modes.  Sites declare which they honor via ``fire(allowed=)``:
#: ``raise``/``delay``/``corrupt`` at stream leaves and combiners,
#: ``kill``/``delay``/``raise`` at worker-dispatch and process sites,
#: ``lose``/``delay``/``duplicate``/``raise`` at SimComm message sites.
MODES = ("raise", "delay", "corrupt", "kill", "lose", "duplicate")

#: Process-wide count of struck injectors (see also ``FaultPlan.stats()``).
_faults_injected = global_registry().counter("faults_injected")


class FaultInjected(ReproError):
    """The default exception raised by ``raise``-mode injectors."""


class WorkerKilledError(FaultInjected):
    """A ``kill``-mode injector struck a worker dispatch site."""


class FaultAction:
    """One injector strike, to be interpreted by the site that drew it."""

    __slots__ = ("mode", "site", "delay", "exc", "mutate")

    def __init__(
        self,
        mode: str,
        site: str,
        delay: float = 0.0,
        exc: type[BaseException] | BaseException | None = None,
        mutate: Callable[[Any], Any] | None = None,
    ) -> None:
        self.mode = mode
        self.site = site
        self.delay = delay
        self.exc = exc
        self.mutate = mutate

    def make_exception(self) -> BaseException:
        """The exception a ``raise``/``kill`` strike should throw."""
        if isinstance(self.exc, BaseException):
            return self.exc
        if self.exc is not None:
            return self.exc(f"fault injected at {self.site}")
        if self.mode == "kill":
            return WorkerKilledError(f"worker killed by fault plan at {self.site}")
        return FaultInjected(f"fault injected at {self.site}")

    def apply_before(self) -> None:
        """Real-time interpretation: sleep for ``delay``, throw for
        ``raise``/``kill``.  Virtual-time engines (SimComm) read the
        fields directly instead."""
        if self.mode == "delay":
            if self.delay > 0:
                time.sleep(self.delay)
        elif self.mode in ("raise", "kill"):
            raise self.make_exception()

    def apply_result(self, result: Any) -> Any:
        """``corrupt`` interpretation: pass the site's result through the
        injector's ``mutate`` callable."""
        if self.mode == "corrupt" and self.mutate is not None:
            return self.mutate(result)
        return result

    def __repr__(self) -> str:
        return f"FaultAction({self.mode!r}, site={self.site!r})"


class Injector:
    """One site-keyed injection rule inside a :class:`FaultPlan`."""

    __slots__ = (
        "pattern", "mode", "times", "probability", "exc", "delay", "mutate",
        "seen", "fired",
    )

    def __init__(
        self,
        site: str,
        mode: str,
        *,
        times: int | None = None,
        probability: float = 1.0,
        exc: type[BaseException] | BaseException | None = None,
        delay: float = 0.0,
        mutate: Callable[[Any], Any] | None = None,
    ) -> None:
        if mode not in MODES:
            raise IllegalArgumentError(
                f"unknown fault mode {mode!r}; expected one of {MODES}"
            )
        if not 0.0 <= probability <= 1.0:
            raise IllegalArgumentError(
                f"probability must be in [0, 1], got {probability}"
            )
        if times is not None and times < 1:
            raise IllegalArgumentError(f"times must be >= 1, got {times}")
        if delay < 0:
            raise IllegalArgumentError(f"delay must be >= 0, got {delay}")
        if mode == "corrupt" and mutate is None:
            raise IllegalArgumentError(
                "corrupt-mode injectors need a mutate= callable"
            )
        self.pattern = SitePattern(site)
        self.mode = mode
        self.times = times
        self.probability = probability
        self.exc = exc
        self.delay = delay
        self.mutate = mutate
        #: Matching site occurrences observed / strikes delivered.
        self.seen = 0
        self.fired = 0

    def __repr__(self) -> str:
        return (
            f"Injector({self.pattern.text!r}, {self.mode!r}, "
            f"fired={self.fired}/{self.seen})"
        )


def _decides_to_fire(seed: int, injector_index: int, occurrence: int,
                     probability: float) -> bool:
    """The deterministic coin: pure in (seed, injector, occurrence)."""
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    draw = random.Random(
        (seed * 1_000_003 + injector_index) * 2_147_483_647 + occurrence
    ).random()
    return draw < probability


class FaultPlan:
    """An installable, seeded set of injectors.

    >>> plan = (FaultPlan(seed=7)
    ...         .inject("leaf:*", "raise", times=1)
    ...         .inject("combine:depth<3", "delay", delay=0.001))
    >>> with fault_injection(plan):
    ...     run_workload()
    >>> plan.stats()["injected"]
    2
    """

    def __init__(self, seed: int = 0, name: str = "faultplan") -> None:
        self.seed = seed
        self.name = name
        self._injectors: list[Injector] = []
        self._lock = threading.Lock()
        self._by_site: dict[str, int] = {}

    # -- construction ----------------------------------------------------- #

    def inject(
        self,
        site: str,
        mode: str,
        *,
        times: int | None = None,
        probability: float = 1.0,
        exc: type[BaseException] | BaseException | None = None,
        delay: float = 0.0,
        mutate: Callable[[Any], Any] | None = None,
    ) -> "FaultPlan":
        """Append an injector; returns ``self`` for chaining."""
        self._injectors.append(
            Injector(
                site, mode, times=times, probability=probability,
                exc=exc, delay=delay, mutate=mutate,
            )
        )
        return self

    @property
    def injectors(self) -> tuple[Injector, ...]:
        return tuple(self._injectors)

    # -- the hot path ------------------------------------------------------ #

    def fire(
        self,
        kind: str,
        qualifiers: Sequence[str] = (),
        allowed: Sequence[str] | None = None,
        **attrs: float,
    ) -> FaultAction | None:
        """Offer one site occurrence to the plan.

        The first injector that (a) is allowed at this site, (b) matches
        the site pattern, (c) has strikes left, and (d) wins its
        deterministic coin toss returns a :class:`FaultAction`; otherwise
        ``None``.  Occurrence counters advance for every *match*, fired
        or not, so probability draws stay aligned across runs.
        """
        for index, injector in enumerate(self._injectors):
            if allowed is not None and injector.mode not in allowed:
                continue
            if not injector.pattern.matches(kind, qualifiers, attrs):
                continue
            with self._lock:
                occurrence = injector.seen
                injector.seen += 1
                if injector.times is not None and injector.fired >= injector.times:
                    continue
                if not _decides_to_fire(
                    self.seed, index, occurrence, injector.probability
                ):
                    continue
                injector.fired += 1
                site = site_string(kind, qualifiers)
                self._by_site[site] = self._by_site.get(site, 0) + 1
            _faults_injected.inc()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.instant(
                    "fault", name=injector.mode, site=site,
                    pattern=injector.pattern.text,
                )
            return FaultAction(
                injector.mode, site,
                delay=injector.delay, exc=injector.exc, mutate=injector.mutate,
            )
        return None

    # -- observability ----------------------------------------------------- #

    def stats(self) -> dict:
        """Per-plan injection counters (the process-wide total is the
        ``faults_injected`` counter of the global metrics registry)."""
        with self._lock:
            return {
                "injected": sum(i.fired for i in self._injectors),
                "matched": sum(i.seen for i in self._injectors),
                "by_site": dict(self._by_site),
                "by_injector": [
                    {"pattern": i.pattern.text, "mode": i.mode,
                     "seen": i.seen, "fired": i.fired}
                    for i in self._injectors
                ],
            }

    def reset_counts(self) -> None:
        """Rewind occurrence/strike counters so the plan can replay."""
        with self._lock:
            for injector in self._injectors:
                injector.seen = 0
                injector.fired = 0
            self._by_site.clear()

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, injectors={len(self._injectors)})"
        )


# -- the active plan -------------------------------------------------------- #

_active: FaultPlan | None = None


def current_fault_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` (the zero-cost common case)."""
    return _active


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; ``None`` disables injection."""
    global _active
    _active = plan
    return _active


@contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Enable ``plan`` for the dynamic extent of the ``with`` block."""
    previous = _active
    set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)
