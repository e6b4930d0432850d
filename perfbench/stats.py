"""Order statistics that always travel with their sample counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Percentile:
    q: float  # in percent
    value: float
    samples: int  # how many values it was taken from
    beyond: int  # how many of them are strictly greater than ``value``


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile by linear interpolation between order statistics.

    Matches numpy's default method. Raises ValueError on no values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered if v > value)
    return Percentile(q, value, len(ordered), beyond)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50).value
