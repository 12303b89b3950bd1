"""Tests for lower-bound functions (outcome view and oracle view)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.competitiveness import TightFamilyTarget
from repro.core.functions import (
    AbsoluteCombination,
    ExponentiatedRange,
    MaxPower,
    MinPower,
    OneSidedRange,
)
from repro.core.lower_bound import OutcomeLowerBound, VectorLowerBound
from repro.core.schemes import (
    CoordinatedScheme,
    LinearThreshold,
    StepThreshold,
    pps_scheme,
)


@pytest.fixture
def scheme():
    return pps_scheme([1.0, 1.0])


class TestVectorLowerBound:
    def test_matches_paper_closed_form(self, scheme):
        """Example 3: RG_p+(v)(u) = max(0, v1 - max(v2, u))^p under tau*=1."""
        for p in (0.5, 1.0, 2.0):
            curve = VectorLowerBound(scheme, OneSidedRange(p=p), (0.6, 0.2))
            for u in (0.01, 0.1, 0.2, 0.3, 0.59, 0.61, 0.9):
                expected = max(0.0, 0.6 - max(0.2, u)) ** p if u <= 0.6 else 0.0
                assert curve(u) == pytest.approx(expected)

    def test_true_value(self, scheme):
        curve = VectorLowerBound(scheme, OneSidedRange(p=1.0), (0.6, 0.2))
        assert curve.true_value() == pytest.approx(0.4)

    def test_breakpoints(self, scheme):
        curve = VectorLowerBound(scheme, OneSidedRange(p=1.0), (0.6, 0.2))
        assert curve.breakpoints() == (0.2, 0.6)

    def test_limit_at_zero_equals_true_value_for_rg(self, scheme):
        """Condition (9) holds for the exponentiated range under PPS."""
        for vector in [(0.6, 0.2), (0.6, 0.0), (0.3, 0.3), (0.9, 0.45)]:
            curve = VectorLowerBound(scheme, ExponentiatedRange(p=1.0), vector)
            assert curve.limit_at_zero() == pytest.approx(
                curve.true_value(), abs=1e-6
            )

    def test_rejects_bad_seed(self, scheme):
        curve = VectorLowerBound(scheme, OneSidedRange(p=1.0), (0.6, 0.2))
        with pytest.raises(ValueError):
            curve(0.0)
        with pytest.raises(ValueError):
            curve(1.5)

    @given(
        v1=st.floats(min_value=0.0, max_value=1.0),
        v2=st.floats(min_value=0.0, max_value=1.0),
        a=st.floats(min_value=0.01, max_value=1.0),
        b=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_non_increasing(self, v1, v2, a, b):
        """Larger seeds carry less information, so the bound cannot grow."""
        scheme = pps_scheme([1.0, 1.0])
        curve = VectorLowerBound(scheme, OneSidedRange(p=1.0), (v1, v2))
        low, high = min(a, b), max(a, b)
        assert curve(low) >= curve(high) - 1e-12

    @given(
        v1=st.floats(min_value=0.0, max_value=1.0),
        v2=st.floats(min_value=0.0, max_value=1.0),
        u=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_true_value(self, v1, v2, u):
        scheme = pps_scheme([1.0, 1.0])
        target = OneSidedRange(p=1.0)
        curve = VectorLowerBound(scheme, target, (v1, v2))
        assert curve(u) <= target((v1, v2)) + 1e-12


class TestOutcomeLowerBound:
    def test_agrees_with_oracle_above_seed(self, scheme):
        """The outcome view must reproduce the oracle for u >= rho."""
        target = OneSidedRange(p=2.0)
        vector = (0.6, 0.2)
        oracle = VectorLowerBound(scheme, target, vector)
        for rho in (0.05, 0.15, 0.35, 0.7):
            outcome = scheme.sample(vector, rho)
            observed = OutcomeLowerBound(outcome, target)
            for u in (rho, rho + 0.05, 0.5, 0.75, 1.0):
                if u > 1.0 or u < rho:
                    continue
                assert observed(u) == pytest.approx(oracle(u))

    def test_lower_limit_is_seed(self, scheme):
        outcome = scheme.sample((0.6, 0.2), 0.35)
        observed = OutcomeLowerBound(outcome, OneSidedRange(p=1.0))
        assert observed.lower_limit == 0.35

    def test_limit_at_zero_falls_back_to_seed_value(self, scheme):
        outcome = scheme.sample((0.6, 0.2), 0.35)
        observed = OutcomeLowerBound(outcome, OneSidedRange(p=1.0))
        assert observed.limit_at_zero() == pytest.approx(observed(0.35))

    def test_breakpoints_only_above_seed(self, scheme):
        outcome = scheme.sample((0.6, 0.2), 0.35)
        observed = OutcomeLowerBound(outcome, OneSidedRange(p=1.0))
        assert observed.breakpoints() == (0.6,)


class _RecordingTarget(ExponentiatedRange):
    """RG_1 that also records the (known, upper) dictionaries it is given,
    in insertion order, so a test can compare how they were built."""

    def __init__(self):
        super().__init__(p=1.0)
        object.__setattr__(self, "seen", [])

    def infimum_over_box(self, known, upper):
        self.seen.append((list(known.items()), list(upper.items())))
        return super().infimum_over_box(known, upper)


_THRESHOLDS = st.one_of(
    st.floats(min_value=0.25, max_value=4.0).map(LinearThreshold),
    # A StepThreshold from 1-3 (value, probability) levels; probabilities
    # must be non-decreasing in the value.
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda pair: pair[0],
    ).map(
        lambda pairs: StepThreshold(
            zip(sorted(v for v, _ in pairs), sorted(p for _, p in pairs))
        )
    ),
)


def _targets(dimension):
    targets = [
        st.just(ExponentiatedRange(p=1.0)),
        st.just(MaxPower(p=2.0)),
        st.just(MinPower(p=1.0)),
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0),
            min_size=dimension,
            max_size=dimension,
        ).map(lambda c: AbsoluteCombination(c, p=1.5)),
    ]
    if dimension == 1:
        targets.append(
            st.floats(min_value=0.0, max_value=0.49).map(TightFamilyTarget)
        )
    if dimension == 2:
        targets.append(st.just(OneSidedRange(p=2.0)))
    return st.one_of(targets)


class TestOutcomeLowerBoundOnePass:
    """The one-pass ``OutcomeLowerBound.__call__`` must return exactly
    ``target.infimum_over_box(outcome.known_at(u), outcome.upper_bounds_at(u))``
    (compared by ``repr``: same float, same sign of zero), and hand the
    target the same dictionaries in the same order."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_outcome_methods(self, data):
        dimension = data.draw(st.integers(min_value=1, max_value=3))
        scheme = CoordinatedScheme(
            data.draw(st.lists(_THRESHOLDS, min_size=dimension, max_size=dimension))
        )
        vector = data.draw(
            st.lists(
                st.one_of(
                    st.floats(min_value=0.0, max_value=3.0),
                    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                ),
                min_size=dimension,
                max_size=dimension,
            )
        )
        seed = data.draw(st.floats(min_value=1e-6, max_value=1.0))
        outcome = scheme.sample(vector, seed)
        target = data.draw(_targets(dimension))
        if isinstance(target, TightFamilyTarget):
            outcome = scheme.sample([min(vector[0], 1.0)], seed)
        us = data.draw(
            st.lists(st.floats(min_value=seed, max_value=1.0), max_size=6)
        )
        curve = OutcomeLowerBound(outcome, target)
        for u in [seed, 1.0, *us]:
            want = target.infimum_over_box(
                outcome.known_at(u), outcome.upper_bounds_at(u)
            )
            assert repr(curve(u)) == repr(want)

        recorder = _RecordingTarget()
        curve = OutcomeLowerBound(outcome, recorder)
        for u in [seed, 1.0, *us]:
            curve(u)
            got = recorder.seen.pop()
            recorder.infimum_over_box(
                outcome.known_at(u), outcome.upper_bounds_at(u)
            )
            assert got == recorder.seen.pop()

    @given(
        seed=st.floats(min_value=0.05, max_value=1.0),
        below=st.floats(min_value=1e-9, max_value=0.04),
        above=st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_seeds_still_raise(self, seed, below, above):
        scheme = CoordinatedScheme(
            [LinearThreshold(1.0), StepThreshold([(0.0, 0.1), (1.0, 0.5), (2.0, 0.9)])]
        )
        outcome = scheme.sample((0.6, 1.0), seed)
        curve = OutcomeLowerBound(outcome, ExponentiatedRange(p=1.0))
        for u in (seed - below - 1e-11, 1.0 + above + 1e-11):
            with pytest.raises(ValueError) as raised:
                curve(u)
            with pytest.raises(ValueError) as reference:
                outcome.known_at(u)
            assert str(raised.value) == str(reference.value)
        # Inside the 1e-12 slack the outcome methods accept the seed.
        for u in (seed - 5e-13, 1.0 + 5e-13):
            assert curve(u) == ExponentiatedRange(p=1.0).infimum_over_box(
                outcome.known_at(u), outcome.upper_bounds_at(u)
            )
