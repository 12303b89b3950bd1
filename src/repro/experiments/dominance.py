"""Experiment E8 — L* dominates Horvitz–Thompson (and is monotone).

Theorem 4.2 of the paper shows that L* is the unique admissible monotone
estimator and therefore dominates every monotone estimator — in
particular the classical HT estimator, which is monotone, unbiased and
nonnegative but discards the partial information carried by
non-revealing outcomes.  This experiment quantifies the domination: for a
sweep of data vectors it compares the exact variances of L* and HT (and of
the bounded dyadic baseline, which is *not* monotone and is dominated on
some vectors but not uniformly), reporting the variance ratio and checking
that L* never loses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..api.backend import BackendSpec
from ..core.functions import OneSidedRange
from ..core.schemes import pps_scheme
from ..engine.moments import batch_variances
from ..estimators.dyadic import DyadicEstimator
from ..estimators.horvitz_thompson import HorvitzThompsonEstimator
from ..estimators.lstar import LStarOneSidedRangePPS

__all__ = ["DominanceRow", "run", "compute"]


@dataclass(frozen=True)
class DominanceRow:
    """Exact variances of L*, HT and the dyadic baseline on one vector."""

    vector: Tuple[float, float]
    true_value: float
    lstar_variance: float
    ht_variance: float
    ht_applicable: bool
    dyadic_variance: float

    @property
    def lstar_dominates_ht(self) -> bool:
        if not self.ht_applicable:
            # HT is biased (towards zero) here; domination in the paper's
            # sense is about comparable unbiased estimators, so we flag
            # the row rather than compare variances of different means.
            return True
        return self.lstar_variance <= self.ht_variance + 1e-9

    @property
    def ht_over_lstar(self) -> float:
        if self.lstar_variance <= 0:
            return float("inf") if self.ht_variance > 0 else 1.0
        return self.ht_variance / self.lstar_variance


def default_vectors() -> List[Tuple[float, float]]:
    grid = []
    for v1 in (0.3, 0.5, 0.7, 0.9):
        for fraction in (0.0, 0.2, 0.5, 0.8):
            grid.append((v1, round(v1 * fraction, 6)))
    return grid


def run(
    p: float = 1.0,
    vectors: Sequence[Tuple[float, float]] = None,
    backend: BackendSpec = None,
) -> List[DominanceRow]:
    """Compare exact variances of L*, HT and dyadic on each vector.

    The exact variances are seed integrals, evaluated in one
    kernel-backed quadrature batch per estimator
    (:func:`repro.engine.moments.batch_variances`) under ``backend``;
    HT's variance on the vectors where it is *inapplicable* stays on the
    scalar reference path (its tolerance machinery is pathological in a
    measure-~tolerance sliver near seed 0 there, which the batched rule
    would resolve while the scalar quadrature does not).
    """
    scheme = pps_scheme([1.0, 1.0])
    target = OneSidedRange(p=p)
    lstar = LStarOneSidedRangePPS(p=p)
    ht = HorvitzThompsonEstimator(target)
    dyadic = DyadicEstimator(target)
    chosen = [tuple(v) for v in (
        vectors if vectors is not None else default_vectors()
    )]
    applicable = [ht.is_applicable(scheme, v) for v in chosen]
    lstar_vars = batch_variances(lstar, scheme, target, chosen, backend=backend)
    dyadic_vars = batch_variances(dyadic, scheme, target, chosen, backend=backend)
    ht_usable = [v for v, ok in zip(chosen, applicable) if ok]
    ht_skipped = [v for v, ok in zip(chosen, applicable) if not ok]
    ht_vars = iter(
        batch_variances(ht, scheme, target, ht_usable, backend=backend)
    )
    ht_fallback = iter(
        batch_variances(ht, scheme, target, ht_skipped, backend="scalar")
    )
    rows: List[DominanceRow] = []
    for vector, ok, lstar_var, dyadic_var in zip(
        chosen, applicable, lstar_vars, dyadic_vars
    ):
        rows.append(
            DominanceRow(
                vector=vector,
                true_value=target(vector),
                lstar_variance=lstar_var,
                ht_variance=next(ht_vars) if ok else next(ht_fallback),
                ht_applicable=ok,
                dyadic_variance=dyadic_var,
            )
        )
    return rows


def all_dominated(rows: List[DominanceRow] = None) -> bool:
    """Whether L* variance is at most HT variance on every applicable vector."""
    rows = rows if rows is not None else run()
    return all(row.lstar_dominates_ht for row in rows)


def compute(params=None):
    """Spec task: the exact-variance domination table."""
    params = params or {}
    vectors = params.get("vectors")
    if vectors is not None:
        vectors = [tuple(v) for v in vectors]
    rows = run(p=float(params.get("p", 1.0)), vectors=vectors)
    records = [
        {
            "vector": str(row.vector),
            "f": row.true_value,
            "var_lstar": row.lstar_variance,
            "var_ht": row.ht_variance if row.ht_applicable else None,
            "ht_over_lstar": row.ht_over_lstar if row.ht_applicable else None,
            "var_dyadic": row.dyadic_variance,
            "ht_applicable": row.ht_applicable,
        }
        for row in rows
    ]
    metadata = {"lstar_dominates_everywhere": all_dominated(rows)}
    return records, metadata
