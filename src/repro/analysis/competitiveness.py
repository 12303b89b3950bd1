"""Variance competitiveness: ratios, sweeps, and the Theorem 4.1 family.

An estimator is ``c``-competitive when, for every data vector, its
expected square is at most ``c`` times the minimum expected square
attainable by *any* nonnegative unbiased estimator on that vector.  The
minimum is realised by the v-optimal estimates (negated lower-hull
slopes), so the ratio is directly computable:

    ratio(v) = E[fhat(S(u, v))^2] / ∫_0^1 vopt_v(u)^2 du .

This module provides the per-vector ratio, sweeps over vector grids (used
to approximate the supremum over the domain), and the closed-form worst
case family of Theorem 4.1, for which

    f(v) = (1 − v^{1−p}) / (1 − p),   V = [0, 1],   PPS tau(u) = u,

yields (on the vector ``v = 0``) a v-optimal expected square of
``1 / (1 − 2p)``, an L* expected square of ``2 / ((1 − 2p)(1 − p))`` and
therefore a ratio of exactly ``2 / (1 − p)`` — approaching the tight
constant 4 as ``p → 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence

from ..core.functions import EstimationTarget
from ..core.schemes import CoordinatedScheme, LinearThreshold, MonotoneSamplingScheme
from ..estimators.base import Estimator
from ..estimators.lstar import LStarEstimator
from ..estimators.vopt import VOptimalOracle
from .variance import expected_square

__all__ = [
    "minimal_expected_square",
    "competitive_ratio",
    "RatioReport",
    "ratio_sweep",
    "expected_squares",
    "supremum_ratio",
    "TightFamilyTarget",
    "tight_family_problem",
    "tight_family_theoretical_ratio",
    "tight_family_measured_ratio",
]


def minimal_expected_square(
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vector: Sequence[float],
    grid: int = 2048,
) -> float:
    """Minimum attainable ``E[estimate^2]`` for ``vector`` (the denominator)."""
    oracle = VOptimalOracle(scheme, target, vector, grid=grid)
    return oracle.minimal_expected_square()


def competitive_ratio(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vector: Sequence[float],
    rtol: float = 1e-7,
    grid: int = 2048,
) -> float:
    """The paper's competitive ratio of ``estimator`` on ``vector``."""
    numerator = expected_square(estimator, scheme, vector, rtol=rtol)
    denominator = minimal_expected_square(scheme, target, vector, grid=grid)
    if denominator <= 0.0:
        # f(v) = 0 forces a zero estimator on all consistent outcomes; any
        # in-range estimator matches it, so the ratio is 1 by convention.
        return 1.0
    return numerator / denominator


@dataclass(frozen=True)
class RatioReport:
    """Competitive ratio of one estimator on one vector."""

    estimator: str
    vector: tuple
    expected_square: float
    minimal_expected_square: float

    @property
    def ratio(self) -> float:
        if self.minimal_expected_square <= 0.0:
            return 1.0
        return self.expected_square / self.minimal_expected_square


def ratio_sweep(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vectors: Iterable[Sequence[float]],
    rtol: float = 1e-7,
    grid: int = 2048,
    backend=None,
) -> List[RatioReport]:
    """Competitive ratios over a collection of data vectors.

    The numerators ``E[est^2]`` batch through the engine's quadrature
    (:func:`repro.engine.moments.batch_moments`) when ``backend`` — by
    default the process-wide policy — allows it and a kernel covers the
    estimator; the scalar adaptive quadrature remains the fallback and
    the reference.  The denominators come from the v-optimal hull, whose
    curve tracing is vectorized independently of the policy.
    """
    vectors = [tuple(float(x) for x in vector) for vector in vectors]
    numerators = expected_squares(
        estimator, scheme, target, vectors, rtol=rtol, backend=backend
    )
    reports = []
    for vector, numerator in zip(vectors, numerators):
        denominator = minimal_expected_square(scheme, target, vector, grid=grid)
        reports.append(
            RatioReport(
                estimator=estimator.name,
                vector=vector,
                expected_square=numerator,
                minimal_expected_square=denominator,
            )
        )
    return reports


def expected_squares(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vectors: Sequence[Sequence[float]],
    rtol: float = 1e-7,
    backend=None,
) -> List[float]:
    """The ratio numerators ``E[est^2]``, one per vector.

    Batched through the engine when the policy and a kernel allow it,
    otherwise by the scalar adaptive quadrature.  Separate from
    :func:`ratio_sweep` so a caller pairing several estimators with the
    same vectors builds each vector's v-optimal hull only once.
    """
    numerators = _batched_expected_squares(
        estimator, scheme, target, vectors, backend
    )
    if numerators is None:
        numerators = [
            expected_square(estimator, scheme, vector, rtol=rtol)
            for vector in vectors
        ]
    return numerators


def _batched_expected_squares(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vectors: Sequence[Sequence[float]],
    backend,
) -> "List[float] | None":
    """``E[est^2]`` per vector through the engine, or ``None`` to fall
    back to the scalar quadrature (policy says scalar, or no kernel)."""
    from ..api.backend import BackendPolicy
    from ..core.schemes import CoordinatedScheme

    if not isinstance(scheme, CoordinatedScheme) or not vectors:
        return None
    from ..engine.kernels import resolve_kernel
    from ..engine.moments import batch_moments

    if BackendPolicy.coerce(backend).mode == "scalar":
        return None
    if resolve_kernel(estimator, scheme) is None:
        return None
    reports = batch_moments(
        estimator, scheme, target, vectors, backend="vectorized"
    )
    return [r.second_moment for r in reports]


def supremum_ratio(reports: Iterable[RatioReport]) -> float:
    """Largest ratio in a sweep (the empirical competitiveness constant)."""
    return max((r.ratio for r in reports), default=0.0)


# ----------------------------------------------------------------------
# Theorem 4.1: the family on which the L* ratio approaches 4.
# ----------------------------------------------------------------------
class TightFamilyTarget(EstimationTarget):
    """``f(v) = (1 − v^{1−p}) / (1 − p)`` on single-entry data in ``[0, 1]``.

    The function is decreasing in ``v``; its lower-bound function for the
    all-revealing-at-zero PPS scheme is convex, so the v-optimal estimate
    at ``v = 0`` is the negated derivative ``u^{-p}``, which is square
    integrable exactly when ``p < 1/2``.
    """

    dimension = 1

    def __init__(self, p: float) -> None:
        if not 0.0 <= p < 0.5:
            raise ValueError("the tight family needs p in [0, 0.5)")
        self._p = float(p)
        self._exponent = 1.0 - self._p

    @property
    def p(self) -> float:
        return self._p

    def __call__(self, vector: Sequence[float]) -> float:
        (v,) = vector
        v = min(max(float(v), 0.0), 1.0)
        return (1.0 - v ** self._exponent) / self._exponent

    def infimum_over_box(
        self, known: Mapping[int, float], upper: Mapping[int, float]
    ) -> float:
        # E6 evaluates this once per node of a nested quadrature, so
        # __call__ is written out here: the same clamp (the comparisons of
        # min(max(v, 0.0), 1.0)) and the same float operations.
        if 0 in known:
            v = float(known[0])
        else:
            # f is decreasing, so the infimum over v < bound is the value
            # at the bound (approached from below), capped at 1.
            v = upper[0]
            v = float(v if v < 1.0 else 1.0)
        if 0.0 > v:
            v = 0.0
        if 1.0 < v:
            v = 1.0
        exponent = self._exponent
        return (1.0 - v ** exponent) / exponent

    def supremum_over_box(
        self, known: Mapping[int, float], upper: Mapping[int, float]
    ) -> float:
        if 0 in known:
            return self((known[0],))
        return self((0.0,))


def tight_family_problem(p: float):
    """Scheme and target of the Theorem 4.1 family (PPS with tau* = 1)."""
    scheme = CoordinatedScheme([LinearThreshold(1.0)])
    target = TightFamilyTarget(p)
    return scheme, target


def tight_family_theoretical_ratio(p: float) -> float:
    """The closed-form ratio ``2 / (1 − p)`` of Theorem 4.1 at ``v = 0``."""
    if not 0.0 < p < 0.5:
        raise ValueError("p must be in (0, 0.5)")
    return 2.0 / (1.0 - p)


def tight_family_theoretical_moments(p: float):
    """Closed-form (v-optimal E[sq], L* E[sq]) at ``v = 0``."""
    vopt = 1.0 / (1.0 - 2.0 * p)
    lstar = 2.0 / ((1.0 - 2.0 * p) * (1.0 - p))
    return vopt, lstar


def tight_family_measured_ratio(p: float, rtol: float = 1e-7) -> float:
    """Numerically measured L* ratio at ``v = 0`` for the tight family.

    Uses the closed form of the v-optimal denominator (``1 / (1 − 2p)``)
    and quadrature for the L* numerator; the two should agree with
    :func:`tight_family_theoretical_ratio` to quadrature accuracy, which
    is what experiment E6 demonstrates.
    """
    scheme, target = tight_family_problem(p)
    estimator = LStarEstimator(target)
    numerator = expected_square(estimator, scheme, (0.0,), rtol=rtol)
    denominator = 1.0 / (1.0 - 2.0 * p)
    return numerator / denominator


def lstar_ratio_bound() -> float:
    """The universal competitiveness constant of the L* estimator."""
    return 4.0


def approaches_four(ps: Sequence[float]) -> List[float]:
    """Theoretical ratios for a sequence of exponents (convenience)."""
    return [tight_family_theoretical_ratio(p) for p in ps]
