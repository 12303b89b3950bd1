"""Property-based tests for the end-to-end coordinated-sampling pipeline.

These close the loop between the substrate layers: whatever dataset and
seeds hypothesis draws, the per-item outcomes reassembled from a
coordinated sample must be exactly the outcomes the per-item monotone
scheme would have produced, and the resulting sum estimates must respect
the basic structural invariants (nonnegativity, restriction monotonicity,
zero on empty samples).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.aggregates.coordinated import CoordinatedPPSSampler
from repro.aggregates.dataset import MultiInstanceDataset
from repro.aggregates.exact import lpp_plus
from repro.aggregates.sum_estimator import SumAggregateEstimator
from repro.core.functions import OneSidedRange
from repro.estimators.lstar import LStarOneSidedRangePPS

weights = st.floats(min_value=0.0, max_value=1.0)
datasets = st.dictionaries(
    keys=st.integers(min_value=0, max_value=50),
    values=st.tuples(weights, weights),
    min_size=1,
    max_size=12,
)
seeds = st.floats(min_value=0.01, max_value=1.0)


def build_dataset(mapping):
    dataset = MultiInstanceDataset(["a", "b"])
    for key, tup in mapping.items():
        dataset.set_item(f"k{key}", tup)
    return dataset


@given(mapping=datasets, shared_seed=seeds)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reassembled_outcomes_match_per_item_scheme(mapping, shared_seed):
    dataset = build_dataset(mapping)
    sampler = CoordinatedPPSSampler([1.0, 1.0])
    sample = sampler.sample(dataset, seeds={k: shared_seed for k in dataset.items})
    for key in sample.sampled_items():
        outcome = sample.outcome_for(key)
        direct = sampler.scheme.sample(dataset.tuple_for(key), shared_seed)
        assert outcome.values == direct.values
        assert outcome.seed == direct.seed


@given(mapping=datasets, shared_seed=seeds)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sum_estimates_nonnegative_and_monotone_under_restriction(mapping, shared_seed):
    dataset = build_dataset(mapping)
    sampler = CoordinatedPPSSampler([1.0, 1.0])
    sample = sampler.sample(dataset, seeds={k: shared_seed for k in dataset.items})
    aggregator = SumAggregateEstimator(
        OneSidedRange(p=1.0), estimator=LStarOneSidedRangePPS(p=1.0)
    )
    full = aggregator.estimate(sample)
    assert full.value >= -1e-12
    assert all(item.estimate >= -1e-12 for item in full.items)
    half_keys = list(dataset.items)[: len(dataset.items) // 2]
    restricted = aggregator.estimate(sample, selection=half_keys)
    assert restricted.value <= full.value + 1e-9


@given(mapping=datasets)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_monte_carlo_mean_tracks_exact_query(mapping):
    """Coarse unbiasedness check on arbitrary hypothesis-drawn datasets."""
    dataset = build_dataset(mapping)
    truth = lpp_plus(dataset, 1.0, (0, 1))
    if truth == 0.0:
        return
    # The empirical-spread bound below is meaningless when a contributing
    # item is so rarely sampled that 60 replications plausibly never see
    # it (all-zero estimates give spread 0 while the mean misses truth by
    # the item's full contribution).  Require every item with a positive
    # target value to have a non-negligible inclusion probability.
    for tup in mapping.values():
        if tup[0] > tup[1]:
            assume(tup[0] >= 0.2)
    sampler = CoordinatedPPSSampler([1.0, 1.0])
    rng = np.random.default_rng(0)
    aggregator = SumAggregateEstimator(
        OneSidedRange(p=1.0), estimator=LStarOneSidedRangePPS(p=1.0), instances=(0, 1)
    )
    estimates = [
        aggregator.estimate(sampler.sample(dataset, rng=rng)).value
        for _ in range(60)
    ]
    mean = float(np.mean(estimates))
    spread = float(np.std(estimates)) / np.sqrt(len(estimates))
    # Very loose bound: 6 standard errors plus slack, just to catch gross bias.
    assert abs(mean - truth) <= 6.0 * spread + 0.25 * truth + 1e-6
