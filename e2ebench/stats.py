"""Small order statistics shared by the runner and the ledger."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))
