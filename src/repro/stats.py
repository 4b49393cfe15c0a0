"""Statistics helpers shared across every observability layer.

:mod:`repro.runtime.stats` (per-batch worker reports),
:mod:`repro.service.stats` (service-level request reports), and the
benchmarks all summarize latency distributions the same way; the shared
implementation lives here so every layer's percentiles agree to the
bit.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (numpy's default).

    ``q`` is in [0, 100].  An empty sequence yields 0.0 so callers can
    report on a run that produced no records without special-casing.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    >>> percentile([10], 99)
    10.0
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
