"""v-optimal (oracle) estimates.

For a fixed data vector ``v`` the *v-optimal* estimates (eq. 15,
Theorem 2.1) are the negated slopes of the lower convex hull of the
lower-bound function ``f^{(v)}``.  They minimise the expected square — and
hence the variance — *for that particular vector*, among all nonnegative
unbiased estimators.  No single estimator can be v-optimal for every
vector simultaneously (there is no UMVUE), which is precisely why the
paper studies competitiveness: the denominator of the competitive ratio is
the v-optimal expected square computed here.

:class:`VOptimalOracle` is not a legal estimator (it peeks at ``v``); it
exists for analysis, for the figures of Examples 3–4, and as the
building block of the order-optimal construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.functions import EstimationTarget
from ..core.lower_bound import VectorLowerBound
from ..core.lower_hull import PiecewiseLinearHull, hull_of_curve
from ..core.outcome import Outcome
from ..core.schemes import MonotoneSamplingScheme
from .base import Estimator

__all__ = ["VOptimalOracle"]


class VOptimalOracle(Estimator):
    """Minimum-variance estimates for one known data vector.

    Parameters
    ----------
    scheme, target, vector:
        The monotone estimation problem instance and the data vector the
        oracle is optimal for.
    grid:
        Resolution used to trace the lower-bound curve when building the
        hull.  Closed-form hulls are not needed: the curves involved are
        monotone and piecewise smooth, so a breakpoint-aware grid of a few
        hundred points reproduces them to high accuracy.
    """

    name = "v-optimal"

    def __init__(
        self,
        scheme: MonotoneSamplingScheme,
        target: EstimationTarget,
        vector: Sequence[float],
        grid: int = 1024,
    ) -> None:
        self._scheme = scheme
        self._target = target
        self._vector = tuple(float(x) for x in vector)
        self._curve = VectorLowerBound(scheme, target, self._vector)
        self._hull: Optional[PiecewiseLinearHull] = None
        self._grid = grid

    @property
    def vector(self):
        return self._vector

    @property
    def hull(self) -> PiecewiseLinearHull:
        """The lower hull of ``f^{(v)}`` (built lazily and cached)."""
        if self._hull is None:
            self._hull = hull_of_curve(
                self._curve,
                limit_at_zero=self._curve.true_value(),
                grid=self._grid,
            )
        return self._hull

    def estimate_at_seed(self, u: float) -> float:
        """The v-optimal estimate on the outcome obtained at seed ``u``."""
        if not 0.0 < u <= 1.0:
            raise ValueError(f"seed must be in (0, 1], got {u}")
        return self.hull.negated_slope(u)

    def estimate(self, outcome: Outcome) -> float:
        """Oracle estimate for an outcome *of the oracle's own vector*.

        The outcome must be consistent with the vector the oracle was
        built for; otherwise the notion of v-optimality does not apply and
        a ``ValueError`` is raised.
        """
        if not outcome.consistent_with(self._vector):
            raise ValueError(
                "outcome is not consistent with the oracle's data vector"
            )
        return self.estimate_at_seed(outcome.seed)

    def minimal_expected_square(self) -> float:
        """``inf ∫ estimate(u)^2 du`` over nonnegative unbiased estimators.

        This is the denominator of the paper's competitive ratio for this
        data vector.
        """
        return self.hull.squared_slope_integral()

    def minimal_variance(self) -> float:
        """The minimum attainable variance for this data vector."""
        return self.minimal_expected_square() - self._curve.true_value() ** 2
