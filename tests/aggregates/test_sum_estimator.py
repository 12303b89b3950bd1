"""Tests for sum-aggregate estimation from coordinated samples."""

import numpy as np
import pytest

from repro.aggregates.coordinated import CoordinatedPPSSampler
from repro.aggregates.dataset import MultiInstanceDataset, example1_dataset
from repro.aggregates.exact import lpp_difference, lpp_plus
from repro.aggregates.sum_estimator import (
    SumAggregateEstimator,
    estimate_lp,
    estimate_lpp,
    estimate_lpp_plus,
)
from repro.core.functions import OneSidedRange
from repro.estimators.lstar import LStarOneSidedRangePPS
from repro.estimators.ustar import UStarOneSidedRangePPS


@pytest.fixture
def dataset():
    return example1_dataset()


@pytest.fixture
def sampler():
    return CoordinatedPPSSampler([1.0, 1.0, 1.0])


class TestSumAggregateEstimator:
    def test_zero_items_outside_selection(self, dataset, sampler):
        sample = sampler.sample(dataset, seeds={k: 0.2 for k in dataset.items})
        aggregator = SumAggregateEstimator(OneSidedRange(p=1.0), instances=(0, 1))
        restricted = aggregator.estimate(sample, selection=["a"])
        unrestricted = aggregator.estimate(sample)
        assert restricted.value <= unrestricted.value + 1e-12
        assert all(item.key == "a" for item in restricted.items)

    def test_item_breakdown_sums_to_value(self, dataset, sampler):
        sample = sampler.sample(dataset, seeds={k: 0.3 for k in dataset.items})
        aggregator = SumAggregateEstimator(OneSidedRange(p=1.0), instances=(0, 1))
        result = aggregator.estimate(sample)
        assert result.value == pytest.approx(sum(i.estimate for i in result.items))
        assert result.contributing_items <= len(result.items)

    def test_custom_per_item_estimator(self, dataset, sampler):
        sample = sampler.sample(dataset, seeds={k: 0.3 for k in dataset.items})
        aggregator = SumAggregateEstimator(
            OneSidedRange(p=1.0),
            estimator=UStarOneSidedRangePPS(p=1.0),
            instances=(0, 1),
        )
        assert aggregator.estimate(sample).estimator.startswith("U*")


class TestUnbiasednessOfSumEstimates:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_lpp_plus_unbiased_over_replications(self, dataset, sampler, p):
        rng = np.random.default_rng(11)
        true_value = lpp_plus(dataset, p, (0, 1))
        estimates = []
        for _ in range(1500):
            sample = sampler.sample(dataset, rng=rng)
            estimates.append(
                estimate_lpp_plus(sample, p=p, instances=(0, 1),
                                  estimator=LStarOneSidedRangePPS(p=p))
            )
        standard_error = np.std(estimates) / np.sqrt(len(estimates))
        assert np.mean(estimates) == pytest.approx(
            true_value, abs=4 * standard_error + 1e-3
        )

    def test_lpp_full_difference_unbiased(self, dataset, sampler):
        rng = np.random.default_rng(13)
        true_value = lpp_difference(dataset, 1.0, (0, 1))
        estimates = [
            estimate_lpp(sampler.sample(dataset, rng=rng), p=1.0, instances=(0, 1))
            for _ in range(1500)
        ]
        standard_error = np.std(estimates) / np.sqrt(len(estimates))
        assert np.mean(estimates) == pytest.approx(
            true_value, abs=4 * standard_error + 1e-3
        )

    def test_lp_root_is_consistent(self, dataset, sampler):
        """The Lp root is a deterministic transform of the Lp^p estimate."""
        sample = sampler.sample(dataset, seeds={k: 0.2 for k in dataset.items})
        lpp = estimate_lpp(sample, p=2.0, instances=(0, 1))
        lp = estimate_lp(sample, p=2.0, instances=(0, 1))
        assert lp == pytest.approx(max(0.0, lpp) ** 0.5)


class TestSparseContribution:
    def test_items_sampled_nowhere_do_not_contribute(self):
        """Items absent from every instance sample cannot contribute (the
        estimate on their outcomes would be 0 anyway for zero-revealing
        targets) — the estimator never even enumerates them."""
        dataset = MultiInstanceDataset(
            ["a", "b"], {f"item{i}": (0.01, 0.011) for i in range(50)}
        )
        sampler = CoordinatedPPSSampler([1.0, 1.0])
        sample = sampler.sample(dataset, seeds={k: 0.9 for k in dataset.items})
        aggregator = SumAggregateEstimator(OneSidedRange(p=1.0))
        result = aggregator.estimate(sample)
        assert result.value == 0.0
        assert len(result.items) == 0
