"""Lower-bound functions ``f^{(v)}(u)`` — the engine behind every estimator.

For data ``v`` and seed ``u`` the paper defines the lower-bound function
``f^{(v)}(u) = inf { f(z) : z in S*(u, v) }`` — the smallest value of the
target that is still consistent with the outcome obtained at seed ``u``.
The L* estimator (eq. 31), the U* estimator, the v-optimal estimates and
the existence characterisations are all expressed in terms of this
function, so the library gives it a first-class representation.

Two views are provided:

* :class:`OutcomeLowerBound` — built from a single observed outcome; it
  can evaluate ``f^{(v)}(u)`` for any ``u >= rho`` (every such value is
  determined by the outcome, which is exactly why the estimators are
  well defined).
* :class:`VectorLowerBound` — the oracle view, built from the true data
  vector; it evaluates ``f^{(v)}(u)`` for every ``u in (0, 1]`` and is
  used by the analysis code (variance, competitiveness, v-optimal
  estimates).
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

from .functions import EstimationTarget, OneSidedRange
from .outcome import Outcome
from .schemes import CoordinatedScheme, LinearThreshold, MonotoneSamplingScheme

__all__ = ["LowerBoundCurve", "OutcomeLowerBound", "VectorLowerBound"]


class LowerBoundCurve:
    """Common interface of lower-bound functions on an interval of seeds."""

    #: Smallest seed at which the curve may be evaluated.
    lower_limit: float = 0.0

    def __call__(self, u: float) -> float:
        raise NotImplementedError

    def breakpoints(self) -> Tuple[float, ...]:
        """Seeds (inside the evaluation interval) where the curve may jump.

        Between consecutive breakpoints the curve is continuous, which
        lets the integration helpers split integrals into smooth pieces.
        """
        raise NotImplementedError

    def values_at(self, us: Sequence[float]) -> np.ndarray:
        """The curve at every seed of ``us`` (vectorized where possible).

        The base implementation is the per-seed loop; subclasses with a
        closed form (e.g. :class:`VectorLowerBound` for the one-sided
        range under PPS) override the hot path, which is what lets the
        hull construction behind the v-optimal oracle trace a curve with
        a few array expressions instead of thousands of Python calls.
        """
        return np.array([self(float(u)) for u in us])

    def limit_at_zero(self) -> float:
        """``lim_{u -> 0+} f^{(v)}(u)`` (equals ``f(v)`` whenever an
        unbiased nonnegative estimator exists, eq. 9)."""
        raise NotImplementedError


class OutcomeLowerBound(LowerBoundCurve):
    """Lower-bound function derived from a single observed outcome.

    Only seeds ``u >= rho`` (the observed seed) can be queried — those are
    precisely the values an estimator is allowed to use.
    """

    def __init__(self, outcome: Outcome, target: EstimationTarget) -> None:
        self._outcome = outcome
        self._target = target
        self.lower_limit = outcome.seed
        # The curve is evaluated once per quadrature node, so each entry's
        # threshold callable is resolved here rather than per call.
        scheme = outcome.scheme
        self._entries = tuple(
            (i, value, _threshold_callable(scheme, i))
            for i, value in enumerate(outcome.values)
        )
        # The bounds Outcome._check_seed enforces, computed the same way.
        self._seed_floor = outcome.seed - 1e-12
        self._seed_ceiling = 1.0 + 1e-12

    @property
    def outcome(self) -> Outcome:
        return self._outcome

    def __call__(self, u: float) -> float:
        """``target.infimum_over_box(outcome.known_at(u),
        outcome.upper_bounds_at(u))``, built in one pass.

        Each threshold is evaluated once and the seed is range-checked
        once; the dictionaries, their order and the floats are exactly the
        ones the two ``Outcome`` methods build.
        """
        if u < self._seed_floor or u > self._seed_ceiling:
            self._outcome._check_seed(u)
        known = {}
        upper = {}
        for i, value, threshold in self._entries:
            t = threshold(u)
            if value is None:
                upper[i] = t
            elif value >= t:
                known[i] = value
            elif value < t:
                upper[i] = t
        return self._target.infimum_over_box(known, upper)

    def breakpoints(self) -> Tuple[float, ...]:
        return self._outcome.information_breakpoints()

    def limit_at_zero(self) -> float:
        # From an outcome alone the limit at zero is not observable in
        # general; the value at the observed seed is the tightest
        # available lower bound.
        return self(self._outcome.seed)


def _threshold_callable(scheme: MonotoneSamplingScheme, index: int):
    """``u -> scheme.threshold(index, u)``, without the per-call dispatch
    when the scheme is a plain :class:`CoordinatedScheme`."""
    if type(scheme).threshold is CoordinatedScheme.threshold:
        return scheme.thresholds[index]
    return functools.partial(scheme.threshold, index)


class VectorLowerBound(LowerBoundCurve):
    """Oracle lower-bound function for a known data vector.

    This is what the paper denotes ``f^{(v)}``: for each seed ``u`` it
    reports the infimum of the target over the consistency set of the
    outcome that *would* be obtained when sampling ``v`` with seed ``u``.
    """

    def __init__(
        self,
        scheme: MonotoneSamplingScheme,
        target: EstimationTarget,
        vector: Sequence[float],
    ) -> None:
        self._scheme = scheme
        self._target = target
        self._vector = tuple(float(x) for x in vector)
        self.lower_limit = 0.0

    @property
    def vector(self) -> Tuple[float, ...]:
        return self._vector

    def true_value(self) -> float:
        """The quantity being estimated, ``f(v)``."""
        return self._target(self._vector)

    def __call__(self, u: float) -> float:
        if not 0.0 < u <= 1.0:
            raise ValueError(f"seed must be in (0, 1], got {u}")
        known = {}
        upper = {}
        for i, value in enumerate(self._vector):
            threshold = self._scheme.threshold(i, u)
            if value >= threshold:
                known[i] = value
            else:
                upper[i] = threshold
        return self._target.infimum_over_box(known, upper)

    def breakpoints(self) -> Tuple[float, ...]:
        points = set()
        for i, value in enumerate(self._vector):
            if value > 0:
                p = self._scheme.inclusion_probability(i, value)
                if 0.0 < p < 1.0:
                    points.add(p)
        return tuple(sorted(points))

    def values_at(self, us: Sequence[float]) -> np.ndarray:
        """Vectorized curve evaluation (see the base class).

        The closed form covers the setting of the paper's figures — the
        two-entry one-sided range under coordinated PPS — and evaluates
        exactly the expressions :meth:`__call__` evaluates (known entry
        iff its value is at or above the linear threshold, hidden entry
        anchored at the threshold), so the two agree to the last ulp of
        the power function.  Other targets and schemes fall back to the
        per-seed loop.
        """
        us = np.asarray(us, dtype=float)
        if (
            isinstance(self._target, OneSidedRange)
            and isinstance(self._scheme, CoordinatedScheme)
            and len(self._vector) == 2
            and all(
                isinstance(t, LinearThreshold) for t in self._scheme.thresholds
            )
        ):
            v1, v2 = self._vector
            t1 = us * self._scheme.thresholds[0].tau_star
            t2 = us * self._scheme.thresholds[1].tau_star
            anchor = np.where(v2 >= t2, v2, t2)
            gap = np.where(v1 >= t1, np.maximum(0.0, v1 - anchor), 0.0)
            return gap ** self._target.p
        return super().values_at(us)

    def limit_at_zero(self, tolerance: float = 1e-9) -> float:
        """Numerically approach ``lim_{u->0+} f^{(v)}(u)``."""
        u = min(1.0, max(tolerance, 1e-6))
        previous = self(u)
        while u > tolerance:
            u /= 4.0
            current = self(u)
            if abs(current - previous) <= 1e-12 * max(1.0, abs(current)):
                return current
            previous = current
        return previous
