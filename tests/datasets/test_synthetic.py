"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.aggregates.exact import lpp_difference, weighted_jaccard
from repro.datasets.synthetic import (
    ip_flow_pairs,
    similarity_controlled_pairs,
    surname_pairs,
    temperature_instances,
)


class TestIpFlowPairs:
    def test_shape(self):
        dataset = ip_flow_pairs(300, rng=np.random.default_rng(0))
        assert dataset.num_instances == 2
        assert 0 < len(dataset) <= 300

    def test_heavy_tail(self):
        dataset = ip_flow_pairs(2000, rng=np.random.default_rng(1))
        weights = sorted(
            (t[0] for _, t in dataset.iter_items() if t[0] > 0), reverse=True
        )
        top_share = sum(weights[: len(weights) // 20]) / sum(weights)
        assert top_share > 0.3  # the top 5% of flows carry much of the mass

    def test_churn_creates_one_sided_items(self):
        dataset = ip_flow_pairs(1000, churn=0.3, rng=np.random.default_rng(2))
        one_sided = sum(
            1 for _, t in dataset.iter_items() if (t[0] == 0) != (t[1] == 0)
        )
        assert one_sided > 100

    def test_normalisation(self):
        dataset = ip_flow_pairs(200, rng=np.random.default_rng(3), normalise_to=1.0)
        assert dataset.total_weight(0) == pytest.approx(1.0)
        assert dataset.total_weight(1) == pytest.approx(1.0)


class TestSurnamePairs:
    def test_high_similarity(self):
        dataset = surname_pairs(1000, rng=np.random.default_rng(4))
        assert weighted_jaccard(dataset) > 0.9

    def test_less_similar_than_ip_flows(self):
        rng = np.random.default_rng(5)
        stable = surname_pairs(800, rng=rng)
        volatile = ip_flow_pairs(800, rng=rng)
        assert weighted_jaccard(stable) > weighted_jaccard(volatile)

    def test_zipf_marginal(self):
        dataset = surname_pairs(1000, rng=np.random.default_rng(6))
        weights = sorted((t[0] for _, t in dataset.iter_items()), reverse=True)
        assert weights[0] / weights[len(weights) // 2] > 50


class TestTemperatureInstances:
    def test_shape_and_range(self):
        dataset = temperature_instances(100, num_instances=4,
                                        rng=np.random.default_rng(7))
        assert dataset.num_instances == 4
        for _, tup in dataset.iter_items():
            assert all(0.0 <= v <= 1.0 for v in tup)

    def test_small_day_over_day_differences(self):
        dataset = temperature_instances(500, rng=np.random.default_rng(8))
        mean_change = lpp_difference(dataset, 1.0, (0, 1)) / len(dataset)
        assert mean_change < 0.05


class TestSimilarityControlledPairs:
    def test_extremes(self):
        rng = np.random.default_rng(9)
        identical = similarity_controlled_pairs(500, 1.0, rng=rng)
        assert lpp_difference(identical, 1.0, (0, 1)) == pytest.approx(0.0)
        independent = similarity_controlled_pairs(500, 0.0, rng=rng)
        assert lpp_difference(independent, 1.0, (0, 1)) > 50.0

    def test_monotone_in_similarity(self):
        rng = np.random.default_rng(10)
        diffs = []
        for s in (0.0, 0.5, 0.9):
            dataset = similarity_controlled_pairs(800, s, rng=rng)
            diffs.append(lpp_difference(dataset, 1.0, (0, 1)) / len(dataset))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            similarity_controlled_pairs(10, 1.5)
        with pytest.raises(ValueError):
            similarity_controlled_pairs(10, 0.5, churn=2.0)

    def test_values_stay_in_unit_interval(self):
        dataset = similarity_controlled_pairs(300, 0.3,
                                              rng=np.random.default_rng(11))
        for _, tup in dataset.iter_items():
            assert all(0.0 <= v <= 1.0 for v in tup)
