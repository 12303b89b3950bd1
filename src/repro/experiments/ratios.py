"""Experiment E7 — competitive ratios of L* (and friends) for RG_p+.

The paper states that although the universal bound on the L* ratio is 4,
the ratio for specific functions is lower: it quotes roughly 2 and 2.5 for
the exponentiated range at ``p = 1`` and ``p = 2`` (the introduction and
the conclusion disagree on which value belongs to which exponent, so we
simply report what we measure).  This experiment sweeps data vectors of
the unit square for ``RG_p+`` under PPS (``tau* = 1``), computes the
per-vector ratio of L* — and, for context, of U* and HT where defined —
and reports the supremum per estimator and exponent.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..analysis.competitiveness import (
    RatioReport,
    expected_squares,
    minimal_expected_square,
)
from ..core.functions import OneSidedRange
from ..core.schemes import pps_scheme
from ..estimators.base import Estimator
from ..estimators.horvitz_thompson import HorvitzThompsonEstimator
from ..estimators.lstar import LStarOneSidedRangePPS
from ..estimators.ustar import UStarOneSidedRangePPS

__all__ = [
    "default_vector_grid",
    "sweep_points",
    "sweep",
    "finalize",
]


def default_vector_grid(points: int = 7) -> List[Tuple[float, float]]:
    """A grid of (v1, v2) vectors with v1 > v2 (positive one-sided range).

    Includes the v2 = 0 boundary, where the L* estimate is unbounded and
    the ratio is typically largest.
    """
    v1_values = np.linspace(0.15, 0.95, points)
    vectors: List[Tuple[float, float]] = []
    for v1 in v1_values:
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
            vectors.append((float(v1), float(v1 * fraction)))
    return vectors


def _estimators_for(p: float, include_baselines: bool) -> List[Estimator]:
    """The estimator panel at exponent ``p`` (L*, plus U*/HT as baselines)."""
    estimators: List[Estimator] = [LStarOneSidedRangePPS(p=p)]
    if include_baselines:
        estimators.append(UStarOneSidedRangePPS(p=p))
        estimators.append(HorvitzThompsonEstimator(OneSidedRange(p=p)))
    return estimators


def _applies(estimator: Estimator, vector: Tuple[float, float]) -> bool:
    """HT is undefined (zero revelation probability) on the ``v2 = 0``
    boundary; every other estimator of the panel covers the whole grid."""
    return not isinstance(estimator, HorvitzThompsonEstimator) or vector[1] > 0.0


def sweep_points(params=None) -> List[List[float]]:
    """SweepPlan hook: the (exponent, v1, v2) grid, one unit per point.

    A pure function of the parameters (grid points and exponents), so the
    scheduler and every continued run enumerate the identical list.
    """
    params = params or {}
    grid = default_vector_grid(int(params.get("grid_points", 7)))
    return [
        [float(p), float(v1), float(v2)]
        for p in params.get("exponents", (1.0, 2.0))
        for (v1, v2) in grid
    ]


def sweep(params, points, start) -> List[dict]:
    """Sweep-shard task: per-vector competitive ratios for ``points``.

    Each point yields one record per applicable estimator (HT is skipped
    on the ``v2 = 0`` boundary, where its revelation probability is
    zero).  The computation is deterministic per point, so records are
    independent of the shard boundaries.
    """
    include_baselines = bool(params.get("include_baselines", True))
    scheme = pps_scheme([1.0, 1.0])
    records: List[dict] = []
    for p, v1, v2 in points:
        p = float(p)
        vector = (float(v1), float(v2))
        target = OneSidedRange(p=p)
        # The denominator depends on the vector only: one hull per point.
        denominator = minimal_expected_square(scheme, target, vector, grid=4096)
        for estimator in _estimators_for(p, include_baselines):
            if not _applies(estimator, vector):
                continue
            (numerator,) = expected_squares(estimator, scheme, target, [vector])
            report = RatioReport(estimator.name, vector, numerator, denominator)
            records.append(
                {
                    "estimator": estimator.name,
                    "p": p,
                    "v1": vector[0],
                    "v2": vector[1],
                    "ratio": float(report.ratio),
                }
            )
    return records


def finalize(params, records):
    """Reduce per-vector ratio records to the E7 supremum table."""
    sup: dict = {}
    for record in records:
        key = (record["estimator"], record["p"])
        entry = sup.setdefault(
            key, {"ratio": float("-inf"), "vector": None, "count": 0}
        )
        entry["count"] += 1
        if record["ratio"] > entry["ratio"]:
            entry["ratio"] = record["ratio"]
            entry["vector"] = (record["v1"], record["v2"])
    rows = [
        {
            "estimator": estimator,
            "p": p,
            "sup_ratio": entry["ratio"],
            "worst_vector": str(entry["vector"]),
            "n_vectors": entry["count"],
        }
        for (estimator, p), entry in sup.items()
    ]
    notes = ["The paper quotes L* ratios of about 2 and 2.5 for RG_p+ "
             "(its introduction and conclusion disagree on which p is which)."]
    return rows, {"notes": notes}
