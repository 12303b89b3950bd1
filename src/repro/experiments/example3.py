"""Experiment E3 — Example 3: lower-bound functions and their lower hulls.

Example 3 plots, for the one-sided range ``RG_p+`` under coordinated PPS
with ``tau* = 1``, the lower-bound function ``RG_p+^{(v)}(u)`` ("LB") and
its lower convex hull ("CH") for the data vectors ``(0.6, 0.2)`` and
``(0.6, 0)`` at exponents ``p in {0.5, 1, 2}``.  This experiment produces
the same curves as numeric series and verifies the structural claims made
in the example's caption:

* for ``u > 0.2`` the two vectors have identical lower bounds (their
  outcomes coincide);
* for ``p <= 1`` the lower bound is concave on ``(0, v1]`` so its hull is
  linear there; for ``p > 1`` hull and function coincide near ``v1``;
* for ``v2 = 0`` the lower bound equals its own hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.functions import OneSidedRange
from ..core.lower_bound import VectorLowerBound
from ..core.lower_hull import hull_of_curve
from ..core.schemes import pps_scheme
from .report import format_series

__all__ = [
    "CurvePair", "run", "compute", "closed_form_lower_bound",
]

#: The configurations plotted in the paper's Example 3.
PAPER_VECTORS: Tuple[Tuple[float, float], ...] = ((0.6, 0.2), (0.6, 0.0))
PAPER_EXPONENTS: Tuple[float, ...] = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CurvePair:
    """The LB and CH series of one (p, vector) configuration."""

    p: float
    vector: Tuple[float, float]
    seeds: np.ndarray
    lower_bound: np.ndarray
    lower_hull: np.ndarray

    def max_hull_gap(self) -> float:
        """``max_u (LB(u) - CH(u))`` — zero when the function is convex."""
        return float(np.max(self.lower_bound - self.lower_hull))


def closed_form_lower_bound(p: float, vector: Sequence[float], u: float) -> float:
    """The paper's closed form ``max(0, v1 - max(v2, u))**p`` (tau* = 1)."""
    v1, v2 = float(vector[0]), float(vector[1])
    if u > v1:
        return 0.0
    return max(0.0, v1 - max(v2, u)) ** p


def run(
    exponents: Sequence[float] = PAPER_EXPONENTS,
    vectors: Sequence[Tuple[float, float]] = PAPER_VECTORS,
    grid: int = 200,
) -> List[CurvePair]:
    """Trace the lower-bound function and its hull for every configuration."""
    scheme = pps_scheme([1.0, 1.0])
    seeds = np.linspace(1e-3, 0.8, grid)
    results: List[CurvePair] = []
    for p in exponents:
        target = OneSidedRange(p=p)
        for vector in vectors:
            curve = VectorLowerBound(scheme, target, vector)
            lb = np.array([curve(float(u)) for u in seeds])
            hull = hull_of_curve(curve, limit_at_zero=target(vector), grid=2048)
            ch = np.array([hull.value(float(u)) for u in seeds])
            results.append(
                CurvePair(
                    p=p,
                    vector=tuple(vector),
                    seeds=seeds,
                    lower_bound=lb,
                    lower_hull=ch,
                )
            )
    return results


def structural_checks(pairs: List[CurvePair] = None) -> Dict[str, bool]:
    """The caption claims of Example 3, evaluated on the traced curves."""
    pairs = pairs if pairs is not None else run()
    by_key = {(pair.p, pair.vector): pair for pair in pairs}
    checks: Dict[str, bool] = {}
    # Same lower bound above u = 0.2 for the two vectors.
    for p in PAPER_EXPONENTS:
        a = by_key[(p, (0.6, 0.2))]
        b = by_key[(p, (0.6, 0.0))]
        mask = a.seeds > 0.2 + 1e-9
        checks[f"p={p}: LB agrees above u=0.2"] = bool(
            np.allclose(a.lower_bound[mask], b.lower_bound[mask], atol=1e-12)
        )
    # v2 = 0 and p >= 1 make the lower bound convex (equal to its hull);
    # for p < 1 the curve (v1 - u)^p is concave, so the hull is strictly
    # below even at v2 = 0 (the p = 0.5 panel of the paper's figure shows
    # LB and CH as distinct curves for that vector).
    for p in (1.0, 2.0):
        pair = by_key[(p, (0.6, 0.0))]
        checks[f"p={p}: LB equals hull when v2=0"] = pair.max_hull_gap() <= 1e-6
    pair = by_key[(0.5, (0.6, 0.0))]
    checks["p=0.5: hull strictly below LB even when v2=0"] = (
        pair.max_hull_gap() > 1e-4
    )
    # p <= 1 with v2 > 0 has a strictly positive hull gap (concave region).
    for p in (0.5, 1.0):
        pair = by_key[(p, (0.6, 0.2))]
        checks[f"p={p}: hull strictly below LB when v2>0"] = pair.max_hull_gap() > 1e-4
    return checks


def _series_lines(pairs: List[CurvePair], points: int) -> List[str]:
    """The spec task's notes: the subsampled LB/CH series plus the
    caption-check lines."""
    lines = []
    for pair in pairs:
        idx = np.linspace(0, len(pair.seeds) - 1, points).astype(int)
        label = f"p={pair.p} v={pair.vector}"
        lines.append(format_series(f"{label} LB", pair.seeds[idx], pair.lower_bound[idx]))
        lines.append(format_series(f"{label} CH", pair.seeds[idx], pair.lower_hull[idx]))
    lines.append("")
    for name, passed in structural_checks(pairs).items():
        lines.append(f"[{'ok' if passed else 'FAIL'}] {name}")
    return lines


def compute(params=None):
    """Spec task: per-configuration hull gaps, caption checks, and the
    figure series (subsampled) as notes."""
    params = params or {}
    pairs = run(grid=int(params.get("grid", 200)))
    records = [
        {
            "p": pair.p,
            "vector": str(pair.vector),
            "max_hull_gap": pair.max_hull_gap(),
        }
        for pair in pairs
    ]
    notes = _series_lines(pairs, int(params.get("points", 9)))
    return records, {"checks": dict(structural_checks(pairs)), "notes": notes}
