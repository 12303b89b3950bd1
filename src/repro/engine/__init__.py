"""repro.engine — vectorized batch estimation over coordinated samples.

The scalar layers of this library (``repro.estimators`` applied per
:class:`~repro.core.outcome.Outcome`) are the reference implementation of
the paper's estimators: readable, general, and exercised by the analytic
test-suite.  This package is the production path that makes the same
estimates fast enough for millions of items.  It has three pieces:

``BatchOutcome`` (:mod:`repro.engine.batch_outcome`)
    An array-of-structs → struct-of-arrays transposition of a list of
    outcomes: a ``(n,)`` seed array, a ``(n, r)`` value array with ``NaN``
    for unsampled entries, and the shared sampling scheme.  Sampling a
    matrix of weights is one broadcast comparison against
    ``seed * tau*``; conversion to and from scalar outcomes is lossless.

Vectorized kernels (:mod:`repro.engine.kernels`)
    NumPy translations of the HT, L*, U* and order-optimal estimators,
    resolved from their scalar counterparts by :func:`resolve_kernel`.
    Parity with ``Estimator.estimate`` to 1e-9 on every outcome — zero
    outcomes and boundary seeds included — is enforced by
    ``tests/engine/test_parity.py``.

Chunked batch driver (:mod:`repro.engine.driver`)
    :class:`BatchSumEngine` streams a
    :class:`~repro.aggregates.dataset.MultiInstanceDataset` (or raw weight
    arrays) through sampling → estimation in configurable chunks, keeping
    memory bounded by ``chunk_size`` while the arithmetic stays
    NumPy-bound.  With the same ``rng`` it reproduces the scalar
    pipeline's sample — and hence its estimate — exactly.

Serving-query kernels (:mod:`repro.engine.serving`)
    Batched per-group reductions behind the sketch-serving layer's
    ``sum`` and ``distinct`` queries (Horvitz–Thompson subset sums, HIP
    cardinality estimates), scalar and vectorized under the same policy.

Backend selection
-----------------

User-facing entry points do not call this package directly; dispatch is
governed by the shared :class:`~repro.api.backend.BackendPolicy` (the
session facade's ``backend=`` argument, or the per-function ``backend=``
keywords, all of which default to the process-wide policy):

* ``SumAggregateEstimator(..., backend="vectorized")`` and the
  ``estimate_lpp*`` helpers batch the per-item estimation of a
  coordinated sample (``backend="auto"`` picks the kernel when one
  applies and silently falls back to scalar otherwise);
* the exact queries of :mod:`repro.aggregates.exact` (reached through
  ``EstimationSession(backend=...).query``) evaluate ground truth over a
  dense weight matrix under ``backend="vectorized"``;
* :func:`repro.analysis.simulation.simulate_sum_estimate` and
  :func:`repro.analysis.variance.monte_carlo_moments` accept
  ``backend="vectorized"`` to batch their per-seed integration loops
  across replications;
* :func:`repro.engine.moments.batch_moments` evaluates the *exact*
  per-vector moment integrals (the quantities behind the E8/E11
  experiment sweeps) with a breakpoint-aware fixed quadrature whose node
  evaluations run through one kernel call per batch.

The scalar implementations remain the semantic source of truth; the
engine only changes how fast the numbers are produced.
"""

from .batch_outcome import BatchOutcome, is_unit_pps, linear_rates
from .driver import BatchSumEngine, BatchSumResult
from .kernels import (
    BatchKernel,
    DyadicOneSidedPPSKernel,
    HTOneSidedPPSKernel,
    HTRangePPSKernel,
    LStarOneSidedPPSKernel,
    LStarRangePPSKernel,
    OrderOptimalTableKernel,
    UStarOneSidedPPSKernel,
    resolve_kernel,
)
from .moments import batch_moments, batch_variances
from .serving import batch_hip_counts, batch_ht_sums

__all__ = [
    "BatchOutcome",
    "BatchSumEngine",
    "BatchSumResult",
    "BatchKernel",
    "DyadicOneSidedPPSKernel",
    "HTOneSidedPPSKernel",
    "HTRangePPSKernel",
    "LStarOneSidedPPSKernel",
    "LStarRangePPSKernel",
    "OrderOptimalTableKernel",
    "UStarOneSidedPPSKernel",
    "batch_hip_counts",
    "batch_ht_sums",
    "batch_moments",
    "batch_variances",
    "is_unit_pps",
    "linear_rates",
    "resolve_kernel",
]
