"""Experiment E11 — ablation: which estimator wins where, and at what risk.

The paper's case for *customisation* is that the admissible Pareto front
is wide: different admissible estimators are better on different data
patterns, and the right choice depends on what you expect to see.  Its
case for *competitiveness* is that when you do not know what to expect,
the L* estimator is the safe default.  This ablation maps both claims on a
controlled family of workloads: pairs of instances whose similarity is
swept from identical to independent, estimated with L*, U*, HT and the
bounded dyadic baseline.  The expected picture:

* L* wins (lowest error) at high similarity, U* at low similarity;
* among unbiased estimators HT never beats L* (L* dominates it
  vector-by-vector); in MSE terms HT can look artificially good on the
  vectors where it is *inapplicable* — its forced zero estimate is biased
  but small — which is exactly the failure mode the paper criticises;
* the worst-case penalty of L* across the sweep is small (its
  4-competitiveness at work), while U*'s worst case is much larger.

The per-item error moments are exact seed integrals.  They are computed
through :func:`repro.engine.moments.batch_moments` — one kernel-backed
quadrature batch per (similarity, estimator) instead of one adaptive
scalar quadrature per item — under the shared
:class:`~repro.api.backend.BackendPolicy`; ``backend="scalar"`` restores
the original per-item loop (the reference the parity tests compare
against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..api.backend import BackendSpec
from ..core.functions import OneSidedRange
from ..core.schemes import pps_scheme
from ..datasets.synthetic import similarity_controlled_pairs
from ..engine.moments import batch_moments
from ..estimators.dyadic import DyadicEstimator
from ..estimators.horvitz_thompson import HorvitzThompsonEstimator
from ..estimators.lstar import LStarOneSidedRangePPS
from ..estimators.ustar import UStarOneSidedRangePPS

__all__ = ["AblationRow", "run", "compute"]


@dataclass(frozen=True)
class AblationRow:
    """Total sum-estimator error of one estimator at one similarity level.

    The error measure is the exact mean squared error of the sum estimate
    (sum of per-item ``E[(est - f(v))^2]``): for the unbiased estimators it
    equals the variance, and for Horvitz–Thompson on vectors where it is
    inapplicable (zero revelation probability) it correctly charges the
    bias instead of rewarding it.
    """

    similarity: float
    estimator: str
    total_mse: float
    total_value: float

    @property
    def normalised_mse(self) -> float:
        """MSE divided by the squared query value (scale-free)."""
        if self.total_value <= 0:
            return float("nan")
        return self.total_mse / self.total_value ** 2


def run(
    similarities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99),
    num_items: int = 60,
    p: float = 1.0,
    seed: int = 5,
    backend: BackendSpec = None,
) -> List[AblationRow]:
    """Exact per-item errors summed over a similarity-controlled workload.

    Item seeds are independent, so the mean squared error of the sum
    estimate is the sum of per-item mean squared errors — no Monte Carlo
    needed; each per-item moment is an exact quadrature, batched through
    the engine under ``backend`` (default: the process policy).
    """
    scheme = pps_scheme([1.0, 1.0])
    target = OneSidedRange(p=p)
    estimators = {
        "L*": LStarOneSidedRangePPS(p=p),
        "U*": UStarOneSidedRangePPS(p=p),
        "HT": HorvitzThompsonEstimator(target),
        "dyadic": DyadicEstimator(target),
    }
    rows: List[AblationRow] = []
    rng = np.random.default_rng(seed)
    for similarity in similarities:
        dataset = similarity_controlled_pairs(num_items, similarity, rng=rng)
        tuples = [dataset.tuple_for(key) for key in dataset.items]
        total_value = sum(target(t) for t in tuples)
        for name, estimator in estimators.items():
            if isinstance(estimator, HorvitzThompsonEstimator):
                # HT's scalar tolerance machinery is pathological in a
                # measure-~tolerance sliver near seed 0 on vectors where
                # it is *inapplicable*; keep those on the scalar
                # reference path so the batched quadrature reproduces
                # the scalar numbers instead of resolving the sliver.
                usable = [
                    t for t in tuples if estimator.is_applicable(scheme, t)
                ]
                skipped = [
                    t for t in tuples if not estimator.is_applicable(scheme, t)
                ]
                reports = batch_moments(
                    estimator, scheme, target, usable, backend=backend
                ) + batch_moments(
                    estimator, scheme, target, skipped, backend="scalar"
                )
            else:
                reports = batch_moments(
                    estimator, scheme, target, tuples, backend=backend
                )
            # E[(est - f)^2] = E[est^2] - 2 f E[est] + f^2, summed.
            total_mse = sum(
                r.second_moment
                - 2.0 * r.true_value * r.mean
                + r.true_value ** 2
                for r in reports
            )
            rows.append(
                AblationRow(
                    similarity=similarity,
                    estimator=name,
                    total_mse=total_mse,
                    total_value=total_value,
                )
            )
    return rows


def winners_by_similarity(rows: List[AblationRow]) -> Dict[float, str]:
    """Lowest-error estimator at each similarity level."""
    grouped: Dict[float, Dict[str, float]] = {}
    for row in rows:
        grouped.setdefault(row.similarity, {})[row.estimator] = row.total_mse
    return {s: min(scores, key=scores.get) for s, scores in grouped.items()}


def worst_case_penalty(rows: List[AblationRow]) -> Dict[str, float]:
    """Per estimator: max over similarity levels of MSE / best MSE.

    This is the empirical analogue of the competitiveness story: a small
    number means the estimator is never far from the best choice.
    """
    grouped: Dict[float, Dict[str, float]] = {}
    for row in rows:
        grouped.setdefault(row.similarity, {})[row.estimator] = row.total_mse
    penalties: Dict[str, float] = {}
    for scores in grouped.values():
        best = min(scores.values())
        for name, value in scores.items():
            ratio = value / best if best > 0 else 1.0
            penalties[name] = max(penalties.get(name, 1.0), ratio)
    return penalties


def compute(params=None):
    """Spec task: the estimator ablation across similarity regimes."""
    params = params or {}
    rows = run(
        similarities=tuple(float(s) for s in params.get(
            "similarities", (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
        )),
        num_items=int(params.get("num_items", 60)),
        p=float(params.get("p", 1.0)),
        seed=int(params.get("seed", 5)),
    )
    records = [
        {
            "similarity": r.similarity,
            "estimator": r.estimator,
            "total_mse": r.total_mse,
            "normalised_mse": r.normalised_mse,
        }
        for r in rows
    ]
    won = winners_by_similarity(rows)
    penalties = worst_case_penalty(rows)
    notes = ["Winner by similarity:"]
    notes.extend(f"  similarity={s}: {name}" for s, name in sorted(won.items()))
    notes.append("Worst-case penalty vs the best estimator at each level:")
    notes.extend(
        f"  {name}: {penalty:.3g}x" for name, penalty in sorted(penalties.items())
    )
    metadata = {
        "winners": {str(s): name for s, name in sorted(won.items())},
        "worst_case_penalty": {
            name: penalties[name] for name in sorted(penalties)
        },
        "notes": notes,
    }
    return records, metadata
