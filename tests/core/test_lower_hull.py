"""Tests for lower convex hulls and v-optimal slope extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.functions import OneSidedRange
from repro.core.lower_bound import VectorLowerBound
from repro.core.lower_hull import (
    PiecewiseLinearHull,
    hull_of_curve,
    lower_hull_points,
    sample_curve,
)
from repro.core.schemes import pps_scheme


class TestLowerHullPoints:
    def test_drops_interior_point_above_chord(self):
        xs, ys = lower_hull_points([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert xs == (0.0, 2.0)
        assert ys == (0.0, 0.0)

    def test_keeps_point_below_chord(self):
        xs, ys = lower_hull_points([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
        assert xs == (0.0, 1.0, 2.0)

    def test_duplicate_x_keeps_lowest(self):
        xs, ys = lower_hull_points([0.0, 0.0, 1.0], [2.0, 1.0, 0.0])
        assert xs == (0.0, 1.0)
        assert ys == (1.0, 0.0)

    def test_single_point(self):
        assert lower_hull_points([0.5], [1.0]) == ((0.5,), (1.0,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            lower_hull_points([0.0, 1.0], [0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lower_hull_points([], [])

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_hull_is_convex_and_below_points(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hull_x, hull_y = lower_hull_points(xs, ys)
        if len(hull_x) < 2:
            return
        hull = PiecewiseLinearHull(hull_x, hull_y)
        # Below every input point.
        for x, y in points:
            assert hull.value(x) <= y + 1e-9
        # Convex: slopes non-decreasing.
        slopes = [
            (hull_y[i + 1] - hull_y[i]) / (hull_x[i + 1] - hull_x[i])
            for i in range(len(hull_x) - 1)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))


def _reference_chain(xs, ys):
    """Frozen copy of the tuple-based monotone chain ``lower_hull_points``
    used before it kept the chain in parallel float lists; the current
    implementation must return exactly this."""
    best = {}
    for x, y in zip(xs, ys):
        x = float(x)
        y = float(y)
        if x not in best or y < best[x]:
            best[x] = y
    points = sorted(best.items())
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(p[0] for p in hull), tuple(p[1] for p in hull)


def _exactly(result):
    """Hull vertices as reprs, so ``-0.0`` and ``0.0`` differ."""
    return [[repr(v) for v in coordinate] for coordinate in result]


class TestLowerHullMatchesReferenceChain:
    @given(
        points=st.lists(
            st.tuples(
                # A few shared abscissae force duplicate x, including the
                # 0.0 / -0.0 pair, which the dictionary treats as one key.
                st.one_of(
                    st.floats(min_value=-1.0, max_value=1.0),
                    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                    st.integers(min_value=0, max_value=2),
                ),
                st.one_of(
                    st.floats(min_value=-5.0, max_value=5.0),
                    st.sampled_from([0.0, -0.0, 1.0]),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_unsorted_and_duplicate_inputs(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert _exactly(lower_hull_points(xs, ys)) == _exactly(
            _reference_chain(xs, ys)
        )

    def test_collinear_runs(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.5]
        ys = [1.0, 0.75, 0.5, 0.25, 0.0, 0.5, 0.75]
        assert _exactly(lower_hull_points(xs, ys)) == _exactly(
            _reference_chain(xs, ys)
        )

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("vector", [(0.6, 0.0), (0.6, 0.3), (0.9, 0.85)])
    def test_traced_curves(self, p, vector):
        curve = VectorLowerBound(
            pps_scheme([1.0, 1.0]), OneSidedRange(p=p), vector
        )
        xs, ys = sample_curve(curve, lower=0.0, upper=1.0, grid=1024)
        all_x = [0.0] + xs.tolist()
        all_y = [curve.true_value()] + ys.tolist()
        assert _exactly(lower_hull_points(all_x, all_y)) == _exactly(
            _reference_chain(all_x, all_y)
        )


class TestPiecewiseLinearHull:
    def make(self):
        return PiecewiseLinearHull([0.0, 0.5, 1.0], [1.0, 0.25, 0.0])

    def test_value_interpolates(self):
        hull = self.make()
        assert hull.value(0.25) == pytest.approx(0.625)
        assert hull.value(0.75) == pytest.approx(0.125)

    def test_value_clamps_outside(self):
        hull = self.make()
        assert hull.value(-1.0) == 1.0
        assert hull.value(2.0) == 0.0

    def test_slope_left_of(self):
        hull = self.make()
        assert hull.slope_left_of(0.3) == pytest.approx(-1.5)
        assert hull.slope_left_of(0.5) == pytest.approx(-1.5)
        assert hull.slope_left_of(0.7) == pytest.approx(-0.5)

    def test_negated_slope_nonnegative(self):
        hull = self.make()
        assert hull.negated_slope(0.3) == pytest.approx(1.5)
        assert hull.negated_slope(0.9) == pytest.approx(0.5)

    def test_squared_slope_integral(self):
        hull = self.make()
        expected = 1.5 ** 2 * 0.5 + 0.5 ** 2 * 0.5
        assert hull.squared_slope_integral() == pytest.approx(expected)

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            PiecewiseLinearHull([0.0, 0.0], [1.0, 0.0])


class TestHullOfCurve:
    def test_hull_of_convex_curve_reproduces_curve(self):
        """For (0.6, 0) and p >= 1 the lower bound is convex, so hull == LB."""
        scheme = pps_scheme([1.0, 1.0])
        target = OneSidedRange(p=2.0)
        curve = VectorLowerBound(scheme, target, (0.6, 0.0))
        hull = hull_of_curve(curve, limit_at_zero=target((0.6, 0.0)), grid=2048)
        for u in np.linspace(0.01, 0.99, 37):
            assert hull.value(float(u)) == pytest.approx(curve(float(u)), abs=2e-3)

    def test_voptimal_slopes_match_paper_example5(self):
        """For the v = (0.6, 0.2), p = 1 case the hull on (0.2, 0.6] follows
        the curve's chord to the anchor, giving the known optimal estimates."""
        scheme = pps_scheme([1.0, 1.0])
        target = OneSidedRange(p=1.0)
        curve = VectorLowerBound(scheme, target, (0.6, 0.0))
        hull = hull_of_curve(curve, limit_at_zero=0.6, grid=2048)
        # The lower bound is (0.6 - u) on (0, 0.6], already convex: the
        # negated slope (the v-optimal estimate) is 1 on that range.
        assert hull.negated_slope(0.3) == pytest.approx(1.0, abs=5e-3)
        assert hull.negated_slope(0.55) == pytest.approx(1.0, abs=5e-3)
        assert hull.negated_slope(0.8) == pytest.approx(0.0, abs=5e-3)

    def test_minimal_expected_square_closed_form(self):
        """For v = (v1, 0) and p = 1 the v-optimal estimator is the constant 1
        on (0, v1], so its expected square is exactly v1."""
        scheme = pps_scheme([1.0, 1.0])
        target = OneSidedRange(p=1.0)
        for v1 in (0.3, 0.6, 0.9):
            curve = VectorLowerBound(scheme, target, (v1, 0.0))
            hull = hull_of_curve(curve, limit_at_zero=v1, grid=4096)
            assert hull.squared_slope_integral() == pytest.approx(v1, rel=1e-2)
