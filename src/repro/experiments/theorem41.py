"""Experiment E6 — Theorem 4.1: the L* competitive ratio is 4, and tightly so.

Theorem 4.1 states that the L* estimator is 4-competitive on every
monotone estimation problem with a finite-variance estimator, and that the
constant 4 cannot be improved: on the family

    f(v) = (1 - v^{1-p}) / (1 - p),   V = [0, 1],   PPS  tau(u) = u,

the ratio at the data point ``v = 0`` equals ``2 / (1 - p)`` and thus
approaches 4 as ``p -> 1/2``.  This experiment measures the ratio
numerically for a sweep of exponents (L* numerator by quadrature over the
generic estimator, v-optimal denominator in closed form) and reports it
against the theoretical curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.competitiveness import (
    tight_family_measured_ratio,
    tight_family_theoretical_ratio,
)

__all__ = ["RatioPoint", "DEFAULT_EXPONENTS", "run", "compute"]

DEFAULT_EXPONENTS: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49)


@dataclass(frozen=True)
class RatioPoint:
    """Measured vs theoretical L* ratio for one exponent of the family."""

    p: float
    measured: float
    theoretical: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured - self.theoretical) / self.theoretical


def run(exponents: Sequence[float] = DEFAULT_EXPONENTS) -> List[RatioPoint]:
    """Measure the ratio for each exponent."""
    points = []
    for p in exponents:
        points.append(
            RatioPoint(
                p=p,
                measured=tight_family_measured_ratio(p),
                theoretical=tight_family_theoretical_ratio(p),
            )
        )
    return points


def compute(params=None):
    """Spec task: measured vs theoretical ratios of the tight family."""
    params = params or {}
    exponents = tuple(params.get("exponents", DEFAULT_EXPONENTS))
    points = run(exponents)
    records = [
        {
            "p": pt.p,
            "measured": pt.measured,
            "theoretical": pt.theoretical,
            "relative_error": pt.relative_error,
            "upper_bound": 4.0,
        }
        for pt in points
    ]
    notes = ["theoretical = 2/(1-p), the L* ratio at v = 0 on the tight "
             "family; it approaches the upper bound 4 as p -> 1/2."]
    return records, {"notes": notes}
