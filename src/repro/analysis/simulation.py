"""Monte-Carlo simulation harness for estimator experiments.

The analytical moments in :mod:`repro.analysis.variance` integrate over
the seed for a *single* item.  The experiments of Section 7 operate on sum
aggregates over many items, where each item carries its own independent
seed; those are simulated here.  The harness draws seeds, samples the
dataset, applies a per-item estimator, sums, and reports the error
distribution over replications — which is exactly the procedure a
practitioner using coordinated samples would follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec
from ..core.functions import EstimationTarget
from ..core.schemes import MonotoneSamplingScheme
from ..estimators.base import Estimator

__all__ = ["EstimateSummary", "simulate_sum_estimate", "relative_errors"]


@dataclass(frozen=True)
class EstimateSummary:
    """Error statistics of repeated sum-aggregate estimation."""

    estimator: str
    true_value: float
    estimates: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.estimates.mean())

    @property
    def bias(self) -> float:
        return self.mean - self.true_value

    @property
    def variance(self) -> float:
        return float(self.estimates.var(ddof=0))

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean((self.estimates - self.true_value) ** 2)))

    @property
    def mean_relative_error(self) -> float:
        if self.true_value == 0:
            return float("nan")
        return float(
            np.mean(np.abs(self.estimates - self.true_value)) / self.true_value
        )

    def describe(self) -> Dict[str, float]:
        return {
            "true": self.true_value,
            "mean": self.mean,
            "bias": self.bias,
            "variance": self.variance,
            "rmse": self.rmse,
            "mean_relative_error": self.mean_relative_error,
        }


def simulate_sum_estimate(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    tuples: Sequence[Sequence[float]],
    replications: int = 200,
    rng: Optional[np.random.Generator] = None,
    backend: BackendSpec = None,
    seeds: Optional[np.ndarray] = None,
) -> EstimateSummary:
    """Repeatedly estimate ``sum_k f(v^(k))`` from coordinated samples.

    Each replication draws an independent seed per item (tuple), samples
    every tuple with its seed, applies the per-item estimator and sums.
    The per-item unbiasedness of the estimator makes the sum estimate
    unbiased, and independence across items makes its variance the sum of
    the per-item variances — both facts are checked by the tests.

    ``seeds`` (shape ``(replications, len(tuples))``, values in (0, 1])
    supplies every replication's per-item seeds explicitly instead of
    drawing them from ``rng`` — callers that need replication-addressable
    randomness (e.g. the experiment runner's shard-invariant seeding)
    precompute one row per replication and batch them through a single
    call.  Both backends consume the same given seeds, so the estimates
    still agree across backends.

    ``backend`` is ``None`` (the process-wide
    :class:`~repro.api.backend.BackendPolicy`), a mode string, or a
    policy.
    ``"vectorized"`` batches the grid through the engine kernel matching
    ``estimator`` (raising when none exists); ``"auto"`` falls back to
    the scalar loop instead of raising.  The vectorized path consumes the
    generator stream in the same order as the scalar loop, so both
    backends see identical seeds.  Kernel coverage includes coordinated
    PPS schemes with a shared non-unit rate (resolved to the rescaled
    unit kernels), which is how the E9 experiment's scaled samplers batch
    through here.
    """
    rng = rng if rng is not None else np.random.default_rng()
    vectors = [tuple(float(x) for x in t) for t in tuples]
    true_value = sum(target(v) for v in vectors)
    if seeds is not None:
        seeds = np.asarray(seeds, dtype=float)
        if seeds.shape != (replications, len(vectors)):
            raise ValueError(
                f"seeds must have shape ({replications}, {len(vectors)}), "
                f"got {seeds.shape}"
            )
    totals = np.empty(replications)
    resolved = BackendPolicy.coerce(backend).mode
    if resolved != "scalar" and vectors:
        batched = _simulate_batched(
            estimator, scheme, vectors, replications, rng, seeds=seeds
        )
        if batched is not None:
            return EstimateSummary(
                estimator=estimator.name, true_value=true_value, estimates=batched
            )
        if resolved == "vectorized":
            raise ValueError(
                "no vectorized kernel covers this estimator/scheme pair; "
                "use backend='scalar' or backend='auto'"
            )
    for rep in range(replications):
        total = 0.0
        rep_seeds = (
            seeds[rep] if seeds is not None else 1.0 - rng.random(len(vectors))
        )
        for vector, seed in zip(vectors, rep_seeds):
            total += estimator.estimate_for(scheme, vector, float(seed))
        totals[rep] = total
    return EstimateSummary(
        estimator=estimator.name, true_value=true_value, estimates=totals
    )


def _simulate_batched(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    vectors: Sequence[Sequence[float]],
    replications: int,
    rng: np.random.Generator,
    seeds: Optional[np.ndarray] = None,
    max_block_items: int = 1 << 20,
) -> Optional[np.ndarray]:
    """Replications × items through the engine kernel, or ``None``.

    Replications are processed in blocks so the working set stays bounded
    no matter how large the grid is.  Empty outcomes (items sampled in no
    instance — the common case at low sampling rates) are dropped before
    the value matrix is materialised and contribute exact zeros to the
    per-replication sums, so the kernel arithmetic scales with the
    *sample*, not the grid.  Engine imports are local to keep the
    analysis layer usable without it.
    """
    from ..core.schemes import CoordinatedScheme
    from ..engine.batch_outcome import BatchOutcome
    from ..engine.kernels import resolve_kernel

    if not isinstance(scheme, CoordinatedScheme):
        return None
    kernel = resolve_kernel(estimator, scheme)
    if kernel is None:
        return None
    matrix = np.asarray(vectors, dtype=float)
    n = matrix.shape[0]
    block = max(1, max_block_items // max(1, n))
    totals = np.empty(replications)
    for start in range(0, replications, block):
        reps = min(block, replications - start)
        if seeds is not None:
            block_seeds = seeds[start : start + reps]
        else:
            block_seeds = 1.0 - rng.random((reps, n))
        tiled = np.broadcast_to(matrix, (reps, n, matrix.shape[1]))
        batch, retained = BatchOutcome.sample_vectors_sparse(
            scheme, tiled.reshape(reps * n, -1), block_seeds.reshape(-1)
        )
        estimates = np.zeros(reps * n)
        estimates[retained] = kernel.estimate_batch(batch)
        totals[start : start + reps] = estimates.reshape(reps, n).sum(axis=1)
    return totals


def relative_errors(summaries: Sequence[EstimateSummary]) -> Dict[str, float]:
    """Mean relative error per estimator name (for compact reports)."""
    return {s.estimator: s.mean_relative_error for s in summaries}
