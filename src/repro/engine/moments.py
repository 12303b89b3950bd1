"""Batched exact moments: quadrature over the seed, through the kernels.

The analysis layer's :func:`repro.analysis.variance.moments` evaluates
``E[est | v]`` and ``E[est^2 | v]`` by adaptive quadrature that calls the
scalar ``Estimator.estimate_for`` once per quadrature node — one
``Outcome`` object and one Python dispatch per node, hundreds of nodes
per vector, repeated for every vector of an experiment sweep.  That loop
is the hot path of the exact-moment experiments (E8 dominance, E11
ablation), and its integrand is exactly what the engine kernels already
vectorize.

:func:`batch_moments` computes the same two integrals for a whole batch
of vectors with a *fixed, breakpoint-aware* Gauss–Legendre rule:

* panel edges are the scheme's per-vector information breakpoints (the
  seeds at which a sampled entry drops out) plus the kernel's intrinsic
  :meth:`~repro.engine.kernels.BatchKernel.integration_breakpoints`
  (e.g. the dyadic grid of the J-style estimator), so every panel is a
  smooth piece of the estimate curve;
* the leftmost panel is refined geometrically toward the lower limit,
  which handles the integrable ``log``/power singularities the L*-type
  estimates have as the seed approaches zero;
* all (vector, node) pairs are packed into **one**
  :class:`~repro.engine.batch_outcome.BatchOutcome` and estimated with a
  single kernel call; per-vector sums then reduce the node values to the
  two moments.

On smooth panels Gauss–Legendre converges spectrally, so the default
order reproduces the adaptive reference to well below the scalar/engine
parity tolerance (enforced by ``tests/engine/test_moments.py``).  When
the backend policy resolves to ``"scalar"``, or no kernel covers the
estimator/scheme pair under ``"auto"``, the function falls back to the
scalar :func:`~repro.analysis.variance.moments` loop — same values,
original code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec
from ..core.functions import EstimationTarget
from ..core.integration import refine_points
from ..core.schemes import CoordinatedScheme, MonotoneSamplingScheme
from ..estimators.base import Estimator
from .batch_outcome import BatchOutcome
from .kernels import resolve_kernel

__all__ = ["batch_moments", "batch_variances"]

#: Lower integration limit (matches the scalar quadrature's default).
LOWER_LIMIT = 1e-12

#: Gauss–Legendre order per smooth panel.
GL_ORDER = 24

#: Geometric refinement ratio for the leftmost (singular) panel.
REFINE_RATIO = 4.0

_GL_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached Gauss–Legendre nodes and weights on ``[-1, 1]``."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _panel_edges(
    breakpoints: Sequence[float], lower: float, ratio: float
) -> np.ndarray:
    """Panel edges over ``[lower, 1]``: breakpoints plus a geometric
    refinement of the leftmost panel toward ``lower``.

    The refinement bounds each leftmost sub-panel's edge ratio by
    ``ratio``, which is what keeps fixed-order Gauss–Legendre accurate on
    integrands with an integrable singularity at the lower limit.
    """
    edges = refine_points(lower, 1.0, breakpoints)
    first = edges[1]
    refined = []
    point = first / ratio
    while point > lower * ratio:
        refined.append(point)
        point /= ratio
    return np.asarray(sorted(set(edges) | set(refined)))


def _nodes_for(edges: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """All Gauss–Legendre nodes and weights for the given panel edges."""
    g, gw = _gauss_legendre(order)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * g[None, :]).reshape(-1)
    weights = (half[:, None] * gw[None, :]).reshape(-1)
    return nodes, weights


def batch_moments(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vectors: Sequence[Sequence[float]],
    *,
    backend: BackendSpec = None,
    lower: float = LOWER_LIMIT,
    order: int = GL_ORDER,
    rtol: float = 1e-8,
) -> List["MomentReport"]:
    """Exact mean and second moment of ``estimator`` on every vector.

    Equivalent to ``[moments(estimator, scheme, target, v, rtol=rtol) for
    v in vectors]`` but batched through the engine kernel matching
    ``estimator`` when the backend policy allows it; ``rtol`` only
    applies on the scalar fallback.

    Returns
    -------
    list of MomentReport
        One report per vector, in input order.
    """
    from ..analysis.variance import MomentReport, moments

    vectors = [tuple(float(x) for x in v) for v in vectors]
    if not vectors:
        return []
    kernel = (
        resolve_kernel(estimator, scheme)
        if isinstance(scheme, CoordinatedScheme)
        else None
    )
    resolved = BackendPolicy.coerce(backend).mode
    if resolved == "scalar" or kernel is None:
        if resolved == "vectorized" and kernel is None:
            raise ValueError(
                "no vectorized kernel covers this estimator/scheme pair; "
                "use backend='scalar' or backend='auto'"
            )
        return [
            moments(estimator, scheme, target, v, rtol=rtol) for v in vectors
        ]

    extra = kernel.integration_breakpoints(lower)
    node_list: List[np.ndarray] = []
    weight_list: List[np.ndarray] = []
    counts = np.empty(len(vectors), dtype=np.intp)
    for k, vector in enumerate(vectors):
        breakpoints = list(scheme.breakpoints_for_vector(vector)) + list(extra)
        edges = _panel_edges(breakpoints, lower, REFINE_RATIO)
        nodes, weights = _nodes_for(edges, order)
        node_list.append(nodes)
        weight_list.append(weights)
        counts[k] = nodes.shape[0]
    seeds = np.concatenate(node_list)
    weights = np.concatenate(weight_list)
    matrix = np.asarray(vectors, dtype=float)
    rows = np.repeat(matrix, counts, axis=0)
    batch = BatchOutcome.sample_vectors(scheme, rows, seeds)
    estimates = kernel.estimate_batch(batch)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    means = np.add.reduceat(weights * estimates, offsets)
    seconds = np.add.reduceat(weights * estimates * estimates, offsets)
    return [
        MomentReport(
            estimator=estimator.name,
            vector=vector,
            true_value=target(vector),
            mean=float(means[k]),
            second_moment=float(seconds[k]),
        )
        for k, vector in enumerate(vectors)
    ]


def batch_variances(
    estimator: Estimator,
    scheme: MonotoneSamplingScheme,
    target: EstimationTarget,
    vectors: Sequence[Sequence[float]],
    *,
    backend: BackendSpec = None,
    rtol: float = 1e-8,
) -> List[float]:
    """Exact variances assuming unbiasedness, one per vector.

    The batched counterpart of :func:`repro.analysis.variance.variance`:
    ``E[est^2] - f(v)^2``.  On the engine path the second moments come
    from the same node evaluations :func:`batch_moments` makes anyway;
    on the scalar fallback only the ``E[est^2]`` quadrature runs —
    exactly the single integral :func:`~repro.analysis.variance.variance`
    evaluates, not the two :func:`~repro.analysis.variance.moments` would.
    """
    from ..analysis.variance import variance

    vectors = [tuple(float(x) for x in v) for v in vectors]
    if not vectors:
        return []
    kernel = (
        resolve_kernel(estimator, scheme)
        if isinstance(scheme, CoordinatedScheme)
        else None
    )
    resolved = BackendPolicy.coerce(backend).mode
    if resolved == "scalar" or kernel is None:
        if resolved == "vectorized" and kernel is None:
            raise ValueError(
                "no vectorized kernel covers this estimator/scheme pair; "
                "use backend='scalar' or backend='auto'"
            )
        return [
            variance(estimator, scheme, target, v, rtol=rtol)
            for v in vectors
        ]
    reports = batch_moments(
        estimator, scheme, target, vectors, backend="vectorized", rtol=rtol
    )
    return [r.variance_if_unbiased for r in reports]
