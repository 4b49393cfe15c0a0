"""Trend checks over simulator series.

The catalog's frontier experiment asserts that latency and throughput
never rise as stages fuse; :func:`monotone_nonincreasing` is that check.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SimulationError


def monotone_nonincreasing(values: Sequence[float], tolerance: float = 1e-9) -> bool:
    """True iff the series never increases (within ``tolerance``)."""
    if not values:
        raise SimulationError("empty series")
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))
