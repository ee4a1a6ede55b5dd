"""Small statistics used by the harness: percentiles with a support rule,
geometric mean, quartile spread."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence

#: A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-quantile (nearest rank), or ``None`` when fewer than
    ``min_beyond`` samples lie strictly beyond its rank.

    With the default rule a median needs 20 samples and a p95 needs 200: a
    tail estimated from a handful of samples is noise, not a latency.
    """

    if not 0.0 < q < 1.0:
        raise ValueError("q must be strictly between 0 and 1")
    n = len(samples)
    if n == 0:
        return None
    rank = max(math.ceil(q * n), 1)  # 1-based nearest rank
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs: List[float] = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the driver checks."""

    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0
