"""Exact evaluation of the paper's queries over multi-instance datasets.

These are the ground-truth values against which the sampled estimates are
compared: ``L_p`` differences, their ``p``-th powers ``L_p^p``, the
one-sided ``L_p^p+``, distinct counts, Jaccard-style similarity, and
arbitrary sum aggregates of a user-supplied tuple function.  Example 1 of
the paper (reproduced by experiment E1 and its benchmark) is simply these
functions applied to the small hand-written dataset.

Every evaluator accepts a ``backend`` argument.  ``"scalar"`` (the
reference path) folds a Python function over ``iter_items``;
``"vectorized"`` evaluates the same query as NumPy expressions over the
dataset's dense :meth:`~repro.aggregates.dataset.MultiInstanceDataset
.weight_matrix`, which is what makes exact ground truth affordable on the
million-item workloads the batch engine targets.  Both paths produce the
same values (up to float summation order; see the parity tests).

This module holds the implementations and registers each query in the
:mod:`repro.api` query registry (``"lp"``, ``"lpp"``, ``"lpp_plus"``,
``"distinct"``, ``"jaccard"``, ``"weighted_jaccard"``, ``"custom"``,
``"sum"``); the session facade — ``session.query("lpp", dataset, p=2)``
— is the supported entry point.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import register_query
from ..core.functions import (
    AbsoluteCombination,
    DistinctOr,
    EstimationTarget,
    ExponentiatedRange,
    MaxPower,
    MinPower,
    OneSidedRange,
    WeightedSum,
)
from .dataset import ItemKey, MultiInstanceDataset

__all__ = [
    "sum_aggregate",
    "lp_difference",
    "lpp_difference",
    "lpp_plus",
    "distinct_count",
    "jaccard_similarity",
    "weighted_jaccard",
    "custom_query",
    "target_values_batch",
]

_BACKENDS = ("scalar", "vectorized")


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")


def sum_aggregate(
    dataset: MultiInstanceDataset,
    item_function: Callable[..., float],
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """``sum_{items} g(tuple)`` over the dataset (optionally a selection).

    With ``backend="vectorized"``, ``item_function`` receives the dense
    ``(items, instances)`` weight matrix once and must return one value
    per row — the contract the built-in query helpers use internally.
    """
    _check_backend(backend)
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        values = np.asarray(item_function(matrix), dtype=float)
        if values.shape != (matrix.shape[0],):
            raise ValueError(
                "a vectorized item_function must return one value per item, "
                f"got shape {values.shape} for {matrix.shape[0]} items"
            )
        return float(values.sum())
    return sum(
        float(item_function(tup)) for _, tup in dataset.iter_items(selection)
    )


def lpp_difference(
    dataset: MultiInstanceDataset,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """``L_p^p`` difference between two instances: ``sum |v_i - v_j|^p``."""
    _check_backend(backend)
    i, j = instances
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        return float(np.sum(np.abs(matrix[:, i] - matrix[:, j]) ** p))

    def item(tup: Tuple[float, ...]) -> float:
        return abs(tup[i] - tup[j]) ** p

    return sum_aggregate(dataset, item, selection)


def lp_difference(
    dataset: MultiInstanceDataset,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """``L_p`` difference, the ``p``-th root of :func:`lpp_difference`."""
    return lpp_difference(dataset, p, instances, selection, backend) ** (1.0 / p)


def lpp_plus(
    dataset: MultiInstanceDataset,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """One-sided (increase-only) difference ``sum max(0, v_i - v_j)^p``."""
    _check_backend(backend)
    i, j = instances
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        return float(np.sum(np.maximum(0.0, matrix[:, i] - matrix[:, j]) ** p))

    def item(tup: Tuple[float, ...]) -> float:
        return max(0.0, tup[i] - tup[j]) ** p

    return sum_aggregate(dataset, item, selection)


def distinct_count(
    dataset: MultiInstanceDataset,
    instances: Optional[Sequence[int]] = None,
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """Number of items positive in at least one of the given instances."""
    _check_backend(backend)
    idx = tuple(instances) if instances is not None else tuple(
        range(dataset.num_instances)
    )
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        return float(np.count_nonzero((matrix[:, idx] > 0).any(axis=1)))

    def item(tup: Tuple[float, ...]) -> float:
        return 1.0 if any(tup[i] > 0 for i in idx) else 0.0

    return sum_aggregate(dataset, item, selection)


def jaccard_similarity(
    dataset: MultiInstanceDataset,
    instances: Tuple[int, int] = (0, 1),
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """Set Jaccard similarity of the supports of two instances."""
    _check_backend(backend)
    i, j = instances
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        a = matrix[:, i] > 0
        b = matrix[:, j] > 0
        union = float(np.count_nonzero(a | b))
        intersection = float(np.count_nonzero(a & b))
        return intersection / union if union > 0 else 1.0
    intersection = 0.0
    union = 0.0
    for _, tup in dataset.iter_items(selection):
        a, b = tup[i] > 0, tup[j] > 0
        if a and b:
            intersection += 1.0
        if a or b:
            union += 1.0
    return intersection / union if union > 0 else 1.0


def weighted_jaccard(
    dataset: MultiInstanceDataset,
    instances: Tuple[int, int] = (0, 1),
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """Weighted Jaccard: ``sum min(v_i, v_j) / sum max(v_i, v_j)``."""
    _check_backend(backend)
    i, j = instances
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection)
        numerator = float(np.minimum(matrix[:, i], matrix[:, j]).sum())
        denominator = float(np.maximum(matrix[:, i], matrix[:, j]).sum())
        return numerator / denominator if denominator > 0 else 1.0
    numerator = 0.0
    denominator = 0.0
    for _, tup in dataset.iter_items(selection):
        numerator += min(tup[i], tup[j])
        denominator += max(tup[i], tup[j])
    return numerator / denominator if denominator > 0 else 1.0


def target_values_batch(
    target: EstimationTarget, matrix: np.ndarray
) -> np.ndarray:
    """Evaluate ``target`` on every row of a weight matrix.

    The paper's standard targets have direct NumPy translations; anything
    else is evaluated row by row (still correct, merely not vectorized).
    """
    matrix = np.asarray(matrix, dtype=float)
    if isinstance(target, OneSidedRange):
        if matrix.shape[1] != 2:
            raise ValueError("RG_p+ is defined for two-entry tuples")
        return np.maximum(0.0, matrix[:, 0] - matrix[:, 1]) ** target.p
    if isinstance(target, ExponentiatedRange):
        return (matrix.max(axis=1) - matrix.min(axis=1)) ** target.p
    if isinstance(target, AbsoluteCombination):
        coeffs = np.asarray(target.coefficients)
        return np.abs(matrix @ coeffs) ** target.p
    if isinstance(target, WeightedSum):
        return matrix @ np.asarray(target.weights)
    if isinstance(target, DistinctOr):
        return (matrix > 0).any(axis=1).astype(float)
    if isinstance(target, MaxPower):
        return matrix.max(axis=1) ** target.p
    if isinstance(target, MinPower):
        return matrix.min(axis=1) ** target.p
    return np.asarray([float(target(tuple(row))) for row in matrix])


def custom_query(
    dataset: MultiInstanceDataset,
    target: EstimationTarget,
    instances: Optional[Sequence[int]] = None,
    selection: Optional[Iterable[ItemKey]] = None,
    backend: str = "scalar",
) -> float:
    """Sum aggregate of an :class:`EstimationTarget` over item tuples.

    ``instances`` selects and orders the columns fed to the target; by
    default the full tuple is used.  This is the exact counterpart of the
    sampled estimation pipeline (same target object on both sides), so
    experiments compare like with like.
    """
    _check_backend(backend)
    idx = tuple(instances) if instances is not None else tuple(
        range(dataset.num_instances)
    )
    if backend == "vectorized":
        _, matrix = dataset.weight_matrix(selection, instances=idx)
        return float(target_values_batch(target, matrix).sum())

    def item(tup: Tuple[float, ...]) -> float:
        return target(tuple(tup[i] for i in idx))

    return sum_aggregate(dataset, item, selection)


# ----------------------------------------------------------------------
# Registry wiring: every exact query is addressable through the facade.
# ----------------------------------------------------------------------
# The two backends of ``sum_aggregate`` hand ``item_function`` different
# inputs (per-item tuple vs. the dense matrix), so the facade must never
# switch its backend implicitly: under an "auto" policy it stays scalar
# and only an explicit backend="vectorized" opts into the matrix
# contract.  Custom queries with the same property can set this flag too.
sum_aggregate.explicit_backend_only = True  # type: ignore[attr-defined]

register_query("sum", sum_aggregate)
register_query("lp", lp_difference)
register_query("lpp", lpp_difference)
register_query("lpp_plus", lpp_plus)
register_query("distinct", distinct_count)
register_query("jaccard", jaccard_similarity)
register_query("weighted_jaccard", weighted_jaccard)
register_query("custom", custom_query)
