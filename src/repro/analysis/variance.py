"""Exact and Monte-Carlo moments of estimators.

Because the seed is one-dimensional, the expectation and variance of any
estimator on a *known* data vector are one-dimensional integrals over the
seed: ``E[fhat | v] = ∫_0^1 fhat(S(u, v)) du`` and
``Var[fhat | v] = ∫_0^1 fhat(S(u, v))^2 du − f(v)^2`` (eq. 16).  The exact
routines here evaluate those integrals by breakpoint-aware adaptive
quadrature, which is what the unbiasedness, dominance and competitiveness
tests rely on; the Monte-Carlo routines draw random seeds and are used by
the larger experiments where the estimate is expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec
from ..core.functions import EstimationTarget
from ..core.schemes import CoordinatedScheme, MonotoneSamplingScheme
from ..estimators.base import Estimator
from ..core.integration import piecewise_quad

__all__ = [
    "expected_value",
    "expected_square",
    "variance",
    "MomentReport",
    "moments",
    "monte_carlo_moments",
]


def _breakpoints(
    scheme: MonotoneSamplingScheme, vector: Sequence[float]
) -> Sequence[float]:
    if isinstance(scheme, CoordinatedScheme):
        return scheme.breakpoints_for_vector(vector)
    return ()


def expected_value(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    vector: Sequence[float],
    rtol: float = 1e-8,
    lower: float = 1e-12,
) -> float:
    """Exact ``E[estimate | v]`` by quadrature over the seed."""

    def integrand(u: float) -> float:
        return estimator.estimate_for(scheme, vector, u)

    return piecewise_quad(
        integrand, lower, 1.0, _breakpoints(scheme, vector), rtol=rtol
    )


def expected_square(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    vector: Sequence[float],
    rtol: float = 1e-8,
    lower: float = 1e-12,
) -> float:
    """Exact ``E[estimate^2 | v]`` by quadrature over the seed."""

    def integrand(u: float) -> float:
        value = estimator.estimate_for(scheme, vector, u)
        return value * value

    return piecewise_quad(
        integrand, lower, 1.0, _breakpoints(scheme, vector), rtol=rtol
    )


def variance(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vector: Sequence[float],
    rtol: float = 1e-8,
) -> float:
    """Exact variance assuming unbiasedness: ``E[est^2] − f(v)^2``."""
    square = expected_square(estimator, scheme, vector, rtol=rtol)
    return square - target(vector) ** 2


@dataclass(frozen=True)
class MomentReport:
    """Moments of one estimator on one data vector."""

    estimator: str
    vector: tuple
    true_value: float
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2

    @property
    def variance_if_unbiased(self) -> float:
        return self.second_moment - self.true_value ** 2

    @property
    def bias(self) -> float:
        return self.mean - self.true_value


def moments(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vector: Sequence[float],
    rtol: float = 1e-8,
) -> MomentReport:
    """Exact mean and second moment of ``estimator`` on ``vector``."""
    mean = expected_value(estimator, scheme, vector, rtol=rtol)
    second = expected_square(estimator, scheme, vector, rtol=rtol)
    return MomentReport(
        estimator=estimator.name,
        vector=tuple(float(x) for x in vector),
        true_value=target(vector),
        mean=mean,
        second_moment=second,
    )


def monte_carlo_moments(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vector: Sequence[float],
    replications: int = 2000,
    rng: Optional[np.random.Generator] = None,
    backend: BackendSpec = None,
) -> MomentReport:
    """Monte-Carlo mean and second moment (random seeds).

    ``backend`` follows the shared policy convention (``None`` = the
    process-wide :class:`~repro.api.backend.BackendPolicy`).
    ``"vectorized"`` evaluates all replications in one engine batch
    (raising when no kernel matches); ``"auto"`` falls back to the scalar
    loop.  Both consume the generator stream in the same order.
    """
    resolved = BackendPolicy.coerce(backend).mode
    rng = rng if rng is not None else np.random.default_rng()
    samples = _moments_batched(estimator, scheme, vector, replications, rng) \
        if resolved != "scalar" else None
    if samples is None:
        if resolved == "vectorized":
            raise ValueError(
                "no vectorized kernel covers this estimator/scheme pair; "
                "use backend='scalar' or backend='auto'"
            )
        samples = np.empty(replications)
        for i in range(replications):
            seed = 1.0 - float(rng.random())  # uniform on (0, 1]
            samples[i] = estimator.estimate_for(scheme, vector, seed)
    return MomentReport(
        estimator=estimator.name,
        vector=tuple(float(x) for x in vector),
        true_value=target(vector),
        mean=float(samples.mean()),
        second_moment=float((samples ** 2).mean()),
    )


def _moments_batched(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    vector: Sequence[float],
    replications: int,
    rng: np.random.Generator,
) -> Optional[np.ndarray]:
    """All replications of one vector through the engine kernel, or None."""
    from ..engine.batch_outcome import BatchOutcome
    from ..engine.kernels import resolve_kernel

    if not isinstance(scheme, CoordinatedScheme):
        return None
    kernel = resolve_kernel(estimator, scheme)
    if kernel is None:
        return None
    seeds = 1.0 - rng.random(replications)
    tiled = np.tile(np.asarray(vector, dtype=float), (replications, 1))
    batch = BatchOutcome.sample_vectors(scheme, tiled, seeds)
    return kernel.estimate_batch(batch)
