"""Experiment E10 — closeness similarity from all-distances sketches.

Section 7 of the paper points to the social-network application: the
closeness similarity of two nodes (how alike their distance profiles are)
is estimated from their all-distances sketches via HIP inclusion
probabilities and the L* estimator, after which the per-node unbiased
estimates are summed.  We reproduce the pipeline end to end on synthetic
graphs: build coordinated ADS for every node, estimate pairwise
similarities, and compare against the exact values computed from full
shortest-path searches — sweeping the sketch parameter ``k`` to show the
error shrinking as the sketches grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.generators import small_world_graph
from ..graphs.graph import Graph
from ..graphs.similarity import (
    estimate_closeness_similarity,
    exact_closeness_similarity,
    exponential_decay,
)
from ..sketches.ads import build_all_ads, node_ranks

__all__ = [
    "SimilarityRow",
    "run",
    "sweep_points",
    "sweep",
    "finalize",
]


@dataclass(frozen=True)
class SimilarityRow:
    """Exact vs estimated similarity for one node pair and sketch size."""

    pair: Tuple[object, object]
    k: int
    exact: float
    estimated: float

    @property
    def absolute_error(self) -> float:
        return abs(self.exact - self.estimated)


def default_graph(seed: int = 11, n: int = 120) -> Graph:
    """The synthetic stand-in for the paper's social graphs."""
    return small_world_graph(n, k=6, rewire_probability=0.1,
                             rng=np.random.default_rng(seed))


def run(
    graph: Optional[Graph] = None,
    ks: Sequence[int] = (4, 8, 16, 32),
    num_pairs: int = 12,
    alpha: Optional[Callable[[float], float]] = None,
    seed: int = 3,
    backend=None,
) -> List[SimilarityRow]:
    """Estimate similarities for random node pairs at several sketch sizes.

    ``backend`` governs the per-pair estimation path (the closed-form
    vectorized L* under the HIP step schemes vs the scalar per-outcome
    loop); the default defers to the process-wide policy.
    """
    graph = graph if graph is not None else default_graph()
    alpha = alpha if alpha is not None else exponential_decay(2.0)
    pairs = _select_pairs(graph, num_pairs, seed)

    exact_cache: Dict[Tuple[object, object], float] = {}
    rows: List[SimilarityRow] = []
    ranks = node_ranks(graph, salt="similarity-experiment")
    for k in ks:
        sketches = build_all_ads(graph, k=k, salt="similarity-experiment")
        for pair in pairs:
            if pair not in exact_cache:
                exact_cache[pair] = exact_closeness_similarity(
                    graph, pair[0], pair[1], alpha
                )
            estimate = estimate_closeness_similarity(
                sketches[pair[0]], sketches[pair[1]], ranks, alpha,
                backend=backend,
            )
            rows.append(
                SimilarityRow(
                    pair=pair, k=k, exact=exact_cache[pair], estimated=estimate.value
                )
            )
    return rows


def _select_pairs(
    graph: Graph, num_pairs: int, seed: int
) -> List[Tuple[object, object]]:
    """The node-pair workload: random pairs plus a few adjacent ones.

    Deterministic in ``(graph, num_pairs, seed)`` — the enumeration every
    shard and every continued run must agree on.
    """
    rng = np.random.default_rng(seed)
    nodes = graph.nodes()
    pairs: List[Tuple[object, object]] = []
    for _ in range(num_pairs):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        pairs.append((nodes[int(a)], nodes[int(b)]))
    # Add a few adjacent pairs, which have high similarity.
    for node in nodes[:3]:
        neighbours = list(graph.neighbors(node))
        if neighbours:
            pairs.append((node, neighbours[0]))
    return pairs


def sweep_points(params=None) -> List[List[object]]:
    """SweepPlan hook: the node-pair grid, one unit per pair.

    Each unit covers every sketch size ``k`` for its pair, so a shard
    builds each ADS family once and amortises it over its pairs.
    """
    params = params or {}
    graph = default_graph()
    pairs = _select_pairs(
        graph,
        num_pairs=int(params.get("num_pairs", 12)),
        seed=int(params.get("seed", 3)),
    )
    return [[a, b] for a, b in pairs]


def sweep(params, points, start) -> List[dict]:
    """Sweep-shard task: exact vs estimated similarity for ``points``.

    The graph, rank assignment and per-``k`` sketch families are rebuilt
    identically in every shard (they are pure functions of the
    parameters), so records depend only on the pair, never on the shard
    boundaries.  The per-shard rebuild is a deliberate trade: it costs
    each *worker* one graph + ADS construction (milliseconds at these
    scales, overlapped across workers) in exchange for shards that need
    no shared state at all.
    """
    ks = tuple(int(k) for k in params.get("ks", (4, 8, 16, 32)))
    graph = default_graph()
    alpha = exponential_decay(2.0)
    ranks = node_ranks(graph, salt="similarity-experiment")
    sketches_by_k = {
        k: build_all_ads(graph, k=k, salt="similarity-experiment") for k in ks
    }
    records: List[dict] = []
    for a, b in points:
        exact = exact_closeness_similarity(graph, a, b, alpha)
        for k in ks:
            sketches = sketches_by_k[k]
            estimate = estimate_closeness_similarity(
                sketches[a], sketches[b], ranks, alpha
            )
            records.append(
                {
                    "pair": str((a, b)),
                    "k": k,
                    "exact": float(exact),
                    "estimated": float(estimate.value),
                    "abs_error": abs(float(exact) - float(estimate.value)),
                }
            )
    return records


def finalize(params, records):
    """Attach the mean-error-by-``k`` summary to the per-pair records."""
    grouped: Dict[int, List[float]] = {}
    for record in records:
        grouped.setdefault(int(record["k"]), []).append(
            float(record["abs_error"])
        )
    errors = {k: float(np.mean(vals)) for k, vals in grouped.items()}
    metadata = {
        "mean_error_by_k": {str(k): errors[k] for k in sorted(errors)},
        "notes": [
            f"mean |error| at k={k}: {errors[k]:.6g} over "
            f"{len(grouped[k])} pairs"
            for k in sorted(errors)
        ],
    }
    return list(records), metadata
