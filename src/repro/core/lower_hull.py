"""Lower convex hulls of lower-bound functions.

The paper's v-optimal estimates (Theorem 2.1, eq. 15) are the *negated
slopes of the lower convex hull* of the lower-bound function
``f^{(v)}(u)`` on ``(0, 1]``.  This module provides:

* :func:`lower_hull_points` — the lower convex hull of a finite point set;
* :class:`PiecewiseLinearHull` — evaluation and slope queries on a hull;
* :func:`hull_of_curve` — build the hull of a :class:`LowerBoundCurve`
  by sampling it on a breakpoint-aware grid (including left-limits of
  jumps, since lower-bound functions are left-continuous step-like
  curves).

The hull is anchored on the left at ``(0, limit_at_zero)``: by eq. (9)
this limit equals ``f(v)`` whenever a nonnegative unbiased estimator
exists, and the v-optimal estimator "spends" the full expectation budget
``f(v)`` as the seed approaches zero.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence, Tuple

import numpy as np

from .lower_bound import LowerBoundCurve

__all__ = [
    "lower_hull_points",
    "PiecewiseLinearHull",
    "hull_of_curve",
    "sample_curve",
]


def lower_hull_points(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Lower convex hull of the points ``(xs[i], ys[i])``.

    Returns the hull vertices sorted by ``x``.  Ties in ``x`` keep only
    the lowest ``y``.  The classic monotone-chain construction is used.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        raise ValueError("at least one point is required")
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    # Deduplicate x keeping the minimum y (the hull only sees the lowest
    # point above each abscissa).  Traced curves have distinct abscissae,
    # where the plain mapping is the same dictionary.
    best = dict(zip(xs, ys))
    if len(best) < len(xs):
        best = {}
        for x, y in zip(xs, ys):
            if x not in best or y < best[x]:
                best[x] = y
    # This loop runs once per traced point of every v-optimal hull, so the
    # chain lives in two preallocated float lists (its length in ``size``)
    # with its last two vertices mirrored in locals: no tuple is built and
    # no list is indexed unless a vertex is dropped.
    hull_x = [0.0] * len(best)
    hull_y = [0.0] * len(best)
    size = 0
    x1 = y1 = x2 = y2 = 0.0  # the chain's last two vertices, once size >= 2
    for x, y in sorted(best.items()):
        while size >= 2:
            # Keep the chain convex: the middle point must lie strictly
            # below the segment joining its neighbours.  Collinear (or
            # above-the-chord) middle points are dropped; the comparison is
            # exact so that extremely skewed point spacings are still
            # handled correctly.
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0.0:
                size -= 1
                x2 = x1
                y2 = y1
                if size >= 2:
                    x1 = hull_x[size - 2]
                    y1 = hull_y[size - 2]
            else:
                break
        hull_x[size] = x
        hull_y[size] = y
        size += 1
        x1 = x2
        y1 = y2
        x2 = x
        y2 = y
    return tuple(hull_x[:size]), tuple(hull_y[:size])


class PiecewiseLinearHull:
    """A lower convex hull represented by its vertices.

    Provides evaluation, (one-sided) slope queries and the "negated slope"
    view that equals the v-optimal estimate of the paper.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        if len(xs) < 1:
            raise ValueError("a hull needs at least one vertex")
        self._xs = tuple(float(x) for x in xs)
        self._ys = tuple(float(y) for y in ys)
        for a, b in zip(self._xs, self._xs[1:]):
            if b <= a:
                raise ValueError("hull vertices must have increasing x")

    @property
    def vertices(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        return self._xs, self._ys

    def value(self, x: float) -> float:
        """Evaluate the hull (linear interpolation, clamped at the ends)."""
        xs, ys = self._xs, self._ys
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        idx = bisect.bisect_right(xs, x) - 1
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = ys[idx], ys[idx + 1]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    def slope_left_of(self, x: float) -> float:
        """Slope of the hull segment immediately to the left of ``x``.

        The v-optimal estimate at seed ``u`` is ``-slope_left_of(u)``: the
        estimate governs the outcomes with seeds *below* ``u`` down to the
        previous hull vertex.
        """
        xs, ys = self._xs, self._ys
        if len(xs) == 1:
            return 0.0
        if x <= xs[0]:
            idx = 0
        elif x > xs[-1]:
            idx = len(xs) - 2
        else:
            idx = bisect.bisect_left(xs, x) - 1
            idx = max(0, min(idx, len(xs) - 2))
            # When x coincides with a vertex, the segment to its left is
            # wanted, which bisect_left already gives us.
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = ys[idx], ys[idx + 1]
        return (y1 - y0) / (x1 - x0)

    def negated_slope(self, x: float) -> float:
        """The v-optimal estimate at seed ``x`` (nonnegative by convexity)."""
        return max(0.0, -self.slope_left_of(x))

    def squared_slope_integral(self) -> float:
        """``∫_0^1 (hull slope)^2 du`` — the minimum attainable
        ``E[estimate^2]`` for the corresponding data vector.

        The hull is piecewise linear, so the integral is a finite sum.
        The leftmost vertex is treated as the limit point at ``x -> 0``;
        if it sits at ``x > 0`` the slope is constant on ``(0, x]``.
        """
        xs, ys = self._xs, self._ys
        if len(xs) == 1:
            return 0.0
        total = 0.0
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
            slope = (y1 - y0) / (x1 - x0)
            total += slope * slope * (x1 - x0)
        # Left of the first vertex the hull is flat (slope 0) because the
        # construction anchors the first vertex at the x -> 0 limit.
        return total


def sample_curve(
    curve: LowerBoundCurve,
    lower: float,
    upper: float = 1.0,
    grid: int = 512,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``curve`` on ``[lower, upper]`` with breakpoint refinement.

    Lower-bound functions are left-continuous and may jump at the
    breakpoints; we therefore evaluate both a hair to the left and a hair
    to the right of every breakpoint so the hull sees the jump.
    """
    if not 0.0 <= lower < upper <= 1.0 + 1e-12:
        raise ValueError("need 0 <= lower < upper <= 1")
    lo = max(lower, 1e-9)
    # Mix linearly and geometrically spaced abscissae: lower-bound curves
    # (and their hulls) often change fastest near u -> 0, where the
    # geometric points provide the resolution the linear grid lacks.
    xs = set(np.linspace(lo, upper, grid).tolist())
    xs.update(np.geomspace(lo, upper, grid).tolist())
    eps = 1e-9
    for b in curve.breakpoints():
        if lo < b < upper:
            xs.add(b)
            xs.add(max(lo, b - eps))
            xs.add(min(upper, b + eps))
    xs_sorted = np.array(sorted(xs))
    ys = curve.values_at(xs_sorted)
    return xs_sorted, ys


def hull_of_curve(
    curve: LowerBoundCurve,
    limit_at_zero: float = None,
    grid: int = 512,
) -> PiecewiseLinearHull:
    """Lower convex hull of a lower-bound curve on ``(0, 1]``.

    Parameters
    ----------
    curve:
        The lower-bound curve (typically a :class:`VectorLowerBound`).
    limit_at_zero:
        Value to anchor the hull at ``u = 0``.  Defaults to
        ``curve.limit_at_zero()``; pass ``f(v)`` explicitly when known.
    grid:
        Number of sample points (plus breakpoints) used to trace the curve.
    """
    if limit_at_zero is None:
        limit_at_zero = curve.limit_at_zero()
    xs, ys = sample_curve(curve, lower=0.0, upper=1.0, grid=grid)
    all_x = np.concatenate(([0.0], xs))
    all_y = np.concatenate(([float(limit_at_zero)], ys))
    hull_x, hull_y = lower_hull_points(all_x.tolist(), all_y.tolist())
    if math.isinf(hull_y[0]) or math.isnan(hull_y[0]):
        raise ValueError("lower-bound curve produced a non-finite value")
    return PiecewiseLinearHull(hull_x, hull_y)
