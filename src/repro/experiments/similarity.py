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

from typing import Dict, List, Tuple

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
    "sweep_points",
    "sweep",
    "finalize",
]


def default_graph(seed: int = 11, n: int = 120) -> Graph:
    """The synthetic stand-in for the paper's social graphs."""
    return small_world_graph(n, k=6, rewire_probability=0.1,
                             rng=np.random.default_rng(seed))


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
