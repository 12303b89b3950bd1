"""Closeness similarity between graph nodes: exact and sketch-estimated.

Section 7 of the paper points to the closeness-similarity application
(Cohen et al., COSN 2013): for two nodes ``u`` and ``v`` and a
non-increasing decay function ``alpha``,

    sim(u, v) = sum_i alpha(max(d_vi, d_ui)) / sum_i alpha(min(d_vi, d_ui)).

Both sums range over all nodes ``i``; the numerator rewards nodes that are
close to *both* endpoints while the denominator normalises by nodes close
to *either*, so the ratio lies in ``[0, 1]`` and equals 1 only when the
two distance profiles coincide.

The sketch-based estimator follows the paper's recipe: the all-distances
sketches of ``u`` and ``v`` are coordinated samples (shared node ranks);
restricted to one node ``i`` and conditioned via HIP, membership in each
sketch is a shared-seed threshold event, i.e. a two-entry monotone
sampling scheme.  Applying the L* estimator per node to the tuple
``(alpha(d_vi), alpha(d_ui))`` — target ``min`` for the numerator, ``max``
for the denominator — and summing yields (conditionally) unbiased
estimates of both sums, and their ratio estimates the similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec
from ..core.functions import MaxPower, MinPower
from ..core.outcome import Outcome
from ..core.schemes import CoordinatedScheme, ThresholdFunction
from ..estimators.base import Estimator
from ..estimators.lstar import LStarEstimator
from .dijkstra import shortest_path_lengths
from .graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..sketches.ads import AllDistancesSketch

__all__ = [
    "exponential_decay",
    "inverse_decay",
    "threshold_decay",
    "exact_closeness_similarity",
    "SimilarityEstimate",
    "estimate_closeness_similarity",
    "FixedProbabilityThreshold",
]

Node = Hashable


# ----------------------------------------------------------------------
# Decay functions alpha
# ----------------------------------------------------------------------
def exponential_decay(scale: float = 1.0) -> Callable[[float], float]:
    """``alpha(d) = exp(-d / scale)``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return lambda d: math.exp(-d / scale)


def inverse_decay(offset: float = 1.0) -> Callable[[float], float]:
    """``alpha(d) = 1 / (offset + d)``."""
    if offset <= 0:
        raise ValueError("offset must be positive")
    return lambda d: 1.0 / (offset + d)


def threshold_decay(radius: float) -> Callable[[float], float]:
    """``alpha(d) = 1`` for ``d <= radius`` and 0 beyond (ball indicator)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return lambda d: 1.0 if d <= radius else 0.0


# ----------------------------------------------------------------------
# Exact similarity
# ----------------------------------------------------------------------
def exact_closeness_similarity(
    graph: Graph,
    u: Node,
    v: Node,
    alpha: Callable[[float], float],
    unreachable: float = math.inf,
) -> float:
    """Exact closeness similarity by two full shortest-path computations.

    Nodes unreachable from an endpoint are treated as infinitely far
    (``alpha(inf)`` must be 0 or finite; the standard decays above give 0).
    """
    du = shortest_path_lengths(graph, u)
    dv = shortest_path_lengths(graph, v)
    numerator = 0.0
    denominator = 0.0
    for node in graph.nodes():
        a = du.get(node, unreachable)
        b = dv.get(node, unreachable)
        hi = alpha(max(a, b)) if max(a, b) != math.inf else 0.0
        lo = alpha(min(a, b)) if min(a, b) != math.inf else 0.0
        numerator += hi
        denominator += lo
    return numerator / denominator if denominator > 0 else 1.0


# ----------------------------------------------------------------------
# Sketch-based estimation
# ----------------------------------------------------------------------
class FixedProbabilityThreshold(ThresholdFunction):
    """Threshold of a pure inclusion event: sampled iff ``seed <= p``.

    HIP conditioning turns ADS membership into exactly this event, with
    ``p`` the recorded HIP probability.  The threshold is 0 for seeds up
    to ``p`` (any positive value is reported) and effectively infinite
    beyond.
    """

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = float(probability)

    def __call__(self, u: float) -> float:
        return 0.0 if u <= self.probability else math.inf

    def inclusion_probability(self, weight: float) -> float:
        if weight <= 0:
            return 0.0
        return self.probability


@dataclass(frozen=True)
class SimilarityEstimate:
    """Sketch-based similarity estimate with its two sum components."""

    numerator: float
    denominator: float

    @property
    def value(self) -> float:
        if self.denominator <= 0:
            return 1.0
        return min(1.0, max(0.0, self.numerator / self.denominator))


def estimate_closeness_similarity(
    sketch_u: AllDistancesSketch,
    sketch_v: AllDistancesSketch,
    ranks: Mapping[Node, float],
    alpha: Callable[[float], float],
    estimator_factory: Optional[Callable[[object], Estimator]] = None,
    backend: BackendSpec = None,
) -> SimilarityEstimate:
    """Estimate ``sim(u, v)`` from the two all-distances sketches.

    Parameters
    ----------
    sketch_u, sketch_v:
        Coordinated all-distances sketches (built with shared ranks).
    ranks:
        The shared rank assignment; the rank of a node is the shared seed
        of its per-node monotone sampling scheme.
    alpha:
        Non-increasing distance decay.
    estimator_factory:
        Builds the per-item estimator from a target; defaults to the
        generic L* estimator, per the paper's application.
    backend:
        Backend policy for the default (L*) estimator: the per-node L*
        estimates under the HIP step schemes have closed forms (see
        :func:`_batched_similarity`), and the vectorized path evaluates
        the whole union of sketch entries in a handful of array
        expressions.  A custom ``estimator_factory`` always takes the
        scalar per-outcome path.
    """
    union = set(sketch_u.entries) | set(sketch_v.entries)
    if estimator_factory is None:
        if BackendPolicy.coerce(backend).mode != "scalar":
            return _batched_similarity(sketch_u, sketch_v, ranks, alpha, union)
        estimator_factory = LStarEstimator
    numerator_target = MinPower(p=1.0)   # alpha(max distance) = min of the alphas
    denominator_target = MaxPower(p=1.0)  # alpha(min distance) = max of the alphas
    numerator_estimator = estimator_factory(numerator_target)
    denominator_estimator = estimator_factory(denominator_target)

    numerator = 0.0
    denominator = 0.0
    for node in union:
        outcome = _make_node_outcome(node, sketch_u, sketch_v, ranks, alpha)
        numerator += numerator_estimator.estimate(outcome)
        denominator += denominator_estimator.estimate(outcome)
    return SimilarityEstimate(numerator=numerator, denominator=denominator)


def _batched_similarity(
    sketch_u: AllDistancesSketch,
    sketch_v: AllDistancesSketch,
    ranks: Mapping[Node, float],
    alpha: Callable[[float], float],
    union,
) -> SimilarityEstimate:
    """Closed-form vectorized L* similarity over the union of entries.

    Per node the HIP scheme is a pair of pure inclusion events with
    probabilities ``(p_u, p_v)``, so each lower-bound curve is a step
    function and the L* integral (eq. 31) telescopes.  Writing ``w_u``,
    ``w_v`` for the decayed distances and ``m1 <= m2`` for the sorted
    probabilities:

    * **min target** (numerator): the curve is ``min(w_u, w_v)`` up to
      ``m1`` and 0 beyond (an entry hidden at ``u`` may be 0), so the
      estimate is ``min(w_u, w_v) / m1`` when both entries are present
      and 0 otherwise;
    * **max target** (denominator): the curve steps from
      ``max(w_u, w_v)`` (both present) to the far entry's value ``w_far``
      (only the entry with the larger probability present) to 0, giving
      ``(max - w_far) / m1 + w_far / m2`` for both-present nodes and
      ``w_i / p_i`` for single-sketch nodes.

    The scalar path evaluates the same integrals by quadrature, so the
    two agree to quadrature accuracy (asserted by the graph tests); the
    seed itself cancels, exactly as in the scalar telescoping.
    """
    nodes = list(union)
    n = len(nodes)
    w_u = np.zeros(n)
    w_v = np.zeros(n)
    p_u = np.ones(n)
    p_v = np.ones(n)
    s_u = np.zeros(n, dtype=bool)
    s_v = np.zeros(n, dtype=bool)
    for k, node in enumerate(nodes):
        entry_u = sketch_u.entry(node)
        entry_v = sketch_v.entry(node)
        if entry_u is not None:
            s_u[k] = True
            w_u[k] = alpha(entry_u.distance)
            p_u[k] = entry_u.threshold
        if entry_v is not None:
            s_v[k] = True
            w_v[k] = alpha(entry_v.distance)
            p_v[k] = entry_v.threshold
    both = s_u & s_v
    m1 = np.minimum(p_u, p_v)
    m2 = np.maximum(p_u, p_v)
    numerator = float(
        np.sum(np.where(both, np.minimum(w_u, w_v) / m1, 0.0))
    )
    peak = np.maximum(w_u, w_v)
    far = np.where(p_u >= p_v, w_u, w_v)
    den_both = (peak - far) / m1 + far / m2
    den_single = np.where(s_u, w_u / p_u, 0.0) + np.where(s_v, w_v / p_v, 0.0)
    denominator = float(np.sum(np.where(both, den_both, den_single)))
    return SimilarityEstimate(numerator=numerator, denominator=denominator)


def _make_node_outcome(
    node: Node,
    sketch_u: AllDistancesSketch,
    sketch_v: AllDistancesSketch,
    ranks: Mapping[Node, float],
    alpha: Callable[[float], float],
) -> Outcome:
    entry_u = sketch_u.entry(node)
    entry_v = sketch_v.entry(node)
    prob_u = entry_u.threshold if entry_u is not None else _fallback_threshold(sketch_u)
    prob_v = entry_v.threshold if entry_v is not None else _fallback_threshold(sketch_v)
    scheme = CoordinatedScheme(
        [FixedProbabilityThreshold(prob_u), FixedProbabilityThreshold(prob_v)]
    )
    seed = float(ranks[node])
    values = (
        alpha(entry_u.distance) if entry_u is not None else None,
        alpha(entry_v.distance) if entry_v is not None else None,
    )
    return Outcome(seed=seed, values=values, scheme=scheme)


def _fallback_threshold(sketch: AllDistancesSketch) -> float:
    """Threshold placeholder for the sketch that does *not* contain a node.

    The L* estimates of the min/max targets never consult the threshold of
    an unsampled entry (its upper bound does not constrain the lower-bound
    function of either target), so any value works; the smallest recorded
    HIP probability is used to keep the scheme object meaningful.
    """
    probabilities = [e.threshold for e in sketch.entries.values()]
    return min(probabilities) if probabilities else 1.0
