"""Weighted deficit round-robin over the tenant queues.

Classic DRR (Shreedhar & Varghese) adapted to unit-cost jobs: tenants sit
on a ring; each pass over the ring credits every *backlogged* tenant
``weight × quantum`` of deficit, and a tenant whose deficit reaches one
job's cost (1.0) pays it down and dispatches.  A tenant that drains its
queue forfeits its remaining deficit — credit never accumulates while
idle, so a returning tenant cannot burst past the others.

Long-run throughput under contention is therefore proportional to
weight: with quantum 1.0 and weights (2, 1), the first tenant dispatches
twice per ring pass and the second once.  Starvation is impossible —
every backlogged tenant's deficit grows by at least ``weight × quantum``
per pass, so it dispatches within ``⌈1 / (weight × quantum)⌉`` passes.

The scheduler only picks *which* queue to serve; popping the ticket and
running it belong to the service runner that asked.  Each idle runner
calls :meth:`DeficitRoundRobin.select` for its own next job, so the
picks of all runners together follow one DRR order.  Calls must hold the
service's admission lock (tenant queues and deficits are shared state).
"""

from __future__ import annotations

from repro.common import IllegalArgumentError
from repro.serve.tenant import Tenant


class DeficitRoundRobin:
    """Pick the next tenant to serve, weight-fairly."""

    __slots__ = ("quantum", "_ring", "_last")

    def __init__(self, quantum: float = 1.0) -> None:
        if quantum <= 0:
            raise IllegalArgumentError(f"quantum must be > 0, got {quantum}")
        self.quantum = quantum
        self._ring: list[str] = []
        self._last = -1

    def add(self, name: str) -> None:
        """Append a newly registered tenant to the ring."""
        self._ring.append(name)

    def select(self, tenants: dict[str, Tenant]) -> Tenant | None:
        """The next tenant with queued work, or None when all are idle.

        Deficits are credited as the ring is walked; the walk resumes
        after the last-served tenant, so one hot tenant cannot shadow the
        others between calls.
        """
        n = len(self._ring)
        if n == 0:
            return None
        backlogged = sum(1 for t in tenants.values() if t.queue)
        if backlogged == 0:
            return None
        # Classic DRR serves the queue at the head of the ring until its
        # deficit is spent *before* advancing — that is where the weighted
        # share comes from (a weight-2 tenant banks 2.0 of credit per pass
        # and pays for two jobs).  Only then does the walk move on and
        # credit the next backlogged tenant.
        current = tenants[self._ring[self._last]] if self._last >= 0 else None
        if current is not None and current.queue and current.deficit >= 1.0:
            current.deficit -= 1.0
            return current
        # Each full pass credits every backlogged tenant weight × quantum,
        # so the smallest-weight tenant crosses 1.0 within a bounded number
        # of passes; the scan below cannot spin forever.
        while True:
            for step in range(1, n + 1):
                position = (self._last + step) % n
                tenant = tenants[self._ring[position]]
                if not tenant.queue:
                    tenant.deficit = 0.0
                    continue
                tenant.deficit += tenant.config.weight * self.quantum
                if tenant.deficit >= 1.0:
                    tenant.deficit -= 1.0
                    self._last = position
                    return tenant

    def __repr__(self) -> str:
        return f"DeficitRoundRobin(tenants={len(self._ring)}, quantum={self.quantum})"
