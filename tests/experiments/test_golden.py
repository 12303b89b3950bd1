"""Golden regression tests for experiments E1 and E2.

The experiment tests elsewhere in the suite check *shape* (agreement with
the paper's tables up to its arithmetic slips).  These tests freeze the
exact numeric outputs of the current implementation, so any future
refactor of the query engine, the sampling pipeline or the estimation
path that changes a value — rather than just its speed — fails loudly.

The frozen constants were produced by the scalar reference pipeline; the
vectorized backends must reproduce them too, which pins the two
implementations to each other *and* to history.
"""

import pytest

from repro.experiments import example1, example2
from repro.aggregates.dataset import example1_dataset
from repro.aggregates.exact import lpp_difference
from repro.aggregates.sum_estimator import estimate_lpp, estimate_lpp_plus

#: query -> (selection, frozen value) for experiment E1.
E1_GOLDEN = {
    "L1": (("b", "c", "e"), 0.7200000000000001),
    "L2^2": (("c", "f", "h"), 0.1617),
    "L2": (("c", "f", "h"), 0.402119385257662),
    "L1+": (("b", "c", "e"), 0.28),
    "G": (("b", "d"), 1.4144),
}

#: item -> sampled pattern for experiment E2 under the paper's seeds.
E2_GOLDEN_PATTERNS = {
    "a": (0.95, None, None),
    "b": (None, 0.44, None),
    "c": (0.23, None, None),
    "d": (0.7, 0.8, None),
    "e": (None, None, None),
    "f": (None, None, None),
    "g": (None, 0.2, None),
    "h": (None, None, None),
}

#: L* sum estimates over the E2 sample with the paper's fixed seeds.
E2_GOLDEN_LPP_PLUS = 2.8373408436100727
E2_GOLDEN_LPP = 3.9982215048812146


class TestExample1Golden:
    def test_query_values_frozen(self):
        rows = example1.run()
        assert len(rows) == len(E1_GOLDEN)
        for row in rows:
            selection, value = E1_GOLDEN[row.query]
            assert row.selection == selection
            assert row.computed == pytest.approx(value, abs=1e-12)

    def test_vectorized_queries_reproduce_golden(self):
        dataset = example1_dataset()
        assert lpp_difference(
            dataset, 1.0, (0, 1), ["b", "c", "e"], backend="vectorized"
        ) == pytest.approx(E1_GOLDEN["L1"][1], abs=1e-12)
        assert lpp_difference(
            dataset, 2.0, (0, 1), ["c", "f", "h"], backend="vectorized"
        ) == pytest.approx(E1_GOLDEN["L2^2"][1], abs=1e-12)


class TestExample2Golden:
    def test_outcome_patterns_frozen(self):
        rows, sample = example2.run()
        assert {r.item: r.computed for r in rows} == E2_GOLDEN_PATTERNS
        assert sample.storage_size() == 6
        assert [len(s) for s in sample.instance_samples] == [3, 3, 0]

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_lstar_sum_estimates_frozen(self, backend):
        _, sample = example2.run()
        assert estimate_lpp_plus(
            sample, 1.0, (0, 1), backend=backend
        ) == pytest.approx(E2_GOLDEN_LPP_PLUS, abs=1e-9)
        assert estimate_lpp(
            sample, 1.0, (0, 1), backend=backend
        ) == pytest.approx(E2_GOLDEN_LPP, abs=1e-9)
