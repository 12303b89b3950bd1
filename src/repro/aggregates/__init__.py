"""Sum-aggregate estimation over coordinated samples of multi-instance data.

Exact (ground-truth) query implementations live in
:mod:`repro.aggregates.exact` and self-register into the
:mod:`repro.api` query registry; run them by name through
``EstimationSession().query(name, dataset, ...)``.
"""

from . import exact
from .coordinated import CoordinatedPPSSampler, CoordinatedSample, InstanceSample
from .dataset import MultiInstanceDataset, example1_dataset
from .exact import target_values_batch
from .sum_estimator import (
    ItemEstimate,
    SumAggregateEstimator,
    SumEstimate,
    estimate_lp,
    estimate_lpp,
    estimate_lpp_plus,
)

__all__ = [
    "CoordinatedPPSSampler",
    "CoordinatedSample",
    "InstanceSample",
    "MultiInstanceDataset",
    "example1_dataset",
    "target_values_batch",
    "ItemEstimate",
    "SumAggregateEstimator",
    "SumEstimate",
    "estimate_lp",
    "estimate_lpp",
    "estimate_lpp_plus",
]
