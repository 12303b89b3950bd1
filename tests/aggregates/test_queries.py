"""Tests for exact query evaluation (the ground truth of every experiment)."""

import numpy as np
import pytest

from repro import aggregates
from repro.aggregates.dataset import MultiInstanceDataset, example1_dataset
from repro.aggregates.exact import (
    custom_query,
    distinct_count,
    jaccard_similarity,
    lp_difference,
    lpp_difference,
    lpp_plus,
    sum_aggregate,
    target_values_batch,
    weighted_jaccard,
)
from repro.core.functions import (
    AbsoluteCombination,
    ExponentiatedRange,
    OneSidedRange,
)


@pytest.fixture
def dataset():
    return example1_dataset()


class TestExample1Queries:
    def test_l1_subset(self, dataset):
        # |0 - 0.44| + |0.23 - 0| + |0.10 - 0.05| = 0.72 (the paper's text
        # says 0.71 — an arithmetic slip documented in EXPERIMENTS.md).
        assert lpp_difference(dataset, 1.0, (0, 1), ["b", "c", "e"]) == pytest.approx(0.72)

    def test_l22_subset(self, dataset):
        assert lpp_difference(dataset, 2.0, (0, 1), ["c", "f", "h"]) == pytest.approx(0.1617)

    def test_l2_subset(self, dataset):
        assert lp_difference(dataset, 2.0, (0, 1), ["c", "f", "h"]) == pytest.approx(
            0.1617 ** 0.5
        )

    def test_l1_plus_subset(self, dataset):
        assert lpp_plus(dataset, 1.0, (0, 1), ["b", "c", "e"]) == pytest.approx(0.28)

    def test_one_sided_decomposition(self, dataset):
        """L_p^p = increase-only part + decrease-only part."""
        for p in (1.0, 2.0):
            full = lpp_difference(dataset, p, (0, 1))
            forward = lpp_plus(dataset, p, (0, 1))
            backward = lpp_plus(dataset, p, (1, 0))
            assert full == pytest.approx(forward + backward)

    def test_custom_query_g(self, dataset):
        g = AbsoluteCombination([1.0, -2.0, 1.0], p=2.0)
        value = custom_query(dataset, g, (0, 1, 2), ["b", "d"])
        assert value == pytest.approx(0.88 ** 2 + 0.8 ** 2)

    def test_custom_query_matches_lpp_for_range_target(self, dataset):
        target = ExponentiatedRange(p=2.0)
        assert custom_query(dataset, target, (0, 1)) == pytest.approx(
            lpp_difference(dataset, 2.0, (0, 1))
        )


class TestCountingQueries:
    def test_distinct_count_all_instances(self, dataset):
        assert distinct_count(dataset) == 8.0

    def test_distinct_count_single_instance(self, dataset):
        # Instance v3 has positive weights only for a, d and f.
        assert distinct_count(dataset, instances=[2]) == 3.0

    def test_distinct_count_selection(self, dataset):
        assert distinct_count(dataset, selection=["a", "b", "zz"]) == 2.0

    def test_jaccard(self):
        dataset = MultiInstanceDataset(
            ["x", "y"], {"i": (1, 1), "j": (1, 0), "k": (0, 1), "l": (2, 3)}
        )
        assert jaccard_similarity(dataset) == pytest.approx(2.0 / 4.0)

    def test_weighted_jaccard(self):
        dataset = MultiInstanceDataset(["x", "y"], {"i": (1, 3), "j": (2, 1)})
        assert weighted_jaccard(dataset) == pytest.approx((1 + 1) / (3 + 2))

    def test_jaccard_of_empty_selection_is_one(self, dataset):
        assert jaccard_similarity(dataset, selection=[]) == 1.0


class TestSumAggregate:
    def test_with_callable(self, dataset):
        total = sum_aggregate(dataset, lambda tup: tup[0])
        assert total == pytest.approx(dataset.total_weight(0))

    def test_with_selection(self, dataset):
        total = sum_aggregate(dataset, lambda tup: tup[0], selection=["a", "c"])
        assert total == pytest.approx(0.95 + 0.23)


class TestVectorizedBackend:
    def test_every_query_matches_scalar(self, dataset):
        sel = ["a", "b", "c", "d"]
        pairs = [
            (lpp_difference, (dataset, 1.5, (0, 1))),
            (lpp_difference, (dataset, 1.0, (0, 1), sel)),
            (lp_difference, (dataset, 2.0, (0, 1))),
            (lpp_plus, (dataset, 2.0, (1, 0))),
            (distinct_count, (dataset, [0, 2])),
            (jaccard_similarity, (dataset, (0, 1))),
            (weighted_jaccard, (dataset, (0, 1))),
            (custom_query, (dataset, ExponentiatedRange(p=2.0), (0, 1))),
            (custom_query, (dataset, AbsoluteCombination([1, -2, 1], p=2.0),)),
        ]
        for fn, args in pairs:
            assert fn(*args, backend="vectorized") == pytest.approx(
                fn(*args), abs=1e-12
            ), fn.__name__

    def test_both_backends_reject_wrong_arity_targets(self, dataset):
        # A 3-instance dataset fed to the 2-entry RG_p+ must fail the same
        # way on both paths instead of silently using the first 2 columns.
        with pytest.raises(ValueError, match="two-entry"):
            custom_query(dataset, OneSidedRange(p=1.0))
        with pytest.raises(ValueError, match="two-entry"):
            custom_query(dataset, OneSidedRange(p=1.0), backend="vectorized")

    def test_unknown_backend_rejected(self, dataset):
        with pytest.raises(ValueError, match="backend"):
            lpp_difference(dataset, 1.0, backend="numpy")

    def test_target_values_batch_reexported_by_package(self):
        assert aggregates.target_values_batch is target_values_batch
        matrix = np.array([[0.6, 0.2], [0.1, 0.4]])
        values = target_values_batch(OneSidedRange(p=1.0), matrix)
        np.testing.assert_allclose(values, [0.4, 0.0])
