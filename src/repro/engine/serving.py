"""Batch query kernels for the sketch-serving layer.

:class:`~repro.serving.store.SketchStore` answers ``sum`` and
``distinct`` queries over many key-groups at once.  Per group the
arithmetic is elementary — a Horvitz–Thompson subset sum over a PPS
sample (``sum of max(w, tau*)``) or a HIP cardinality estimate over an
all-distances sketch (``sum of 1/p``) — but a store may hold thousands
of groups, so the serving layer batches the per-group reductions into
one kernel call here.

Both kernels implement the scalar reference path and a vectorized NumPy
path behind the shared :class:`~repro.api.backend.BackendPolicy`
(``resolve_exact``: these are closed-form reductions with no
kernel-availability question, so ``auto`` always takes the vectorized
path).  The vectorized path concatenates every group's entries into one
flat array and reduces per group with ``np.bincount`` — one pass, no
Python-level loop over entries.  ``np.bincount`` accumulates each
group's terms left to right in input order, the very fold the scalar
path performs, and both paths compute each term with the same IEEE
operation, so the two return ``==`` answers
(``tests/engine/test_serving_kernels.py`` pins this).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec

__all__ = ["batch_hip_counts", "batch_hip_horizon_counts", "batch_ht_sums"]


def batch_ht_sums(
    weight_groups: Sequence[Sequence[float]],
    tau_star: float,
    backend: BackendSpec = None,
) -> List[float]:
    """Horvitz–Thompson subset sums of many PPS sample groups at once.

    Under PPS with rate ``tau*`` a sampled item of weight ``w`` has
    inclusion probability ``min(1, w / tau*)``, so its HT contribution is
    ``w / min(1, w / tau*) = max(w, tau*)`` — each group's estimate is a
    single reduction over its sampled weights.

    Parameters
    ----------
    weight_groups:
        One sequence of *sampled* item weights per group (possibly
        empty).
    tau_star:
        The shared PPS rate the samples were drawn with (positive).
    backend:
        ``None`` (process-wide policy), a mode string, or a
        :class:`~repro.api.backend.BackendPolicy`.

    Returns
    -------
    list of float
        Per-group HT subset-sum estimates, in input order.
    """
    if tau_star <= 0:
        raise ValueError("tau_star must be positive")
    if BackendPolicy.coerce(backend).resolve_exact() == "scalar":
        # An explicit left fold, like np.bincount's: on Python >= 3.12
        # ``sum()`` compensates float rounding and would differ.
        out = []
        for group in weight_groups:
            total = 0.0
            for w in group:
                total += max(float(w), tau_star)
            out.append(total)
        return out
    if not weight_groups:
        return []
    sizes = [len(group) for group in weight_groups]
    if any(sizes):
        flat = np.concatenate(
            [np.asarray(group, dtype=float) for group in weight_groups]
        )
    else:
        flat = np.empty(0)
    ids = np.repeat(np.arange(len(weight_groups)), sizes)
    totals = np.bincount(
        ids, weights=np.maximum(flat, tau_star), minlength=len(weight_groups)
    )
    return [float(t) for t in totals]


def batch_hip_counts(
    probability_groups: Sequence[Sequence[float]],
    backend: BackendSpec = None,
) -> List[float]:
    """HIP cardinality estimates of many sketch groups at once.

    Each group holds the HIP inclusion probabilities of one sketch's
    retained entries (restricted upstream to the query radius); the
    estimate of how many items the entries stand for is the sum of
    inverse probabilities, ``sum of 1/p``.

    Parameters
    ----------
    probability_groups:
        One sequence of inclusion probabilities per group; every value
        must lie in ``(0, 1]``.
    backend:
        ``None`` (process-wide policy), a mode string, or a
        :class:`~repro.api.backend.BackendPolicy`.

    Returns
    -------
    list of float
        Per-group cardinality estimates, in input order.
    """
    if BackendPolicy.coerce(backend).resolve_exact() == "scalar":
        out = []
        for group in probability_groups:
            total = 0.0
            for p in group:
                p = float(p)
                if not 0.0 < p <= 1.0:
                    raise ValueError(
                        f"inclusion probabilities must be in (0, 1], got {p}"
                    )
                total += 1.0 / p
            out.append(total)
        return out
    if not probability_groups:
        return []
    sizes = [len(group) for group in probability_groups]
    if any(sizes):
        flat = np.concatenate(
            [np.asarray(group, dtype=float) for group in probability_groups]
        )
    else:
        flat = np.empty(0)
    if flat.size and (np.any(flat <= 0.0) or np.any(flat > 1.0)):
        bad = flat[(flat <= 0.0) | (flat > 1.0)][0]
        raise ValueError(
            f"inclusion probabilities must be in (0, 1], got {bad}"
        )
    ids = np.repeat(np.arange(len(probability_groups)), sizes)
    totals = np.bincount(
        ids,
        weights=np.divide(1.0, flat, out=np.zeros_like(flat), where=flat > 0),
        minlength=len(probability_groups),
    )
    return [float(t) for t in totals]


def batch_hip_horizon_counts(
    column_groups: Sequence[Sequence],
    horizons: Sequence[float],
    backend: BackendSpec = None,
) -> List[float]:
    """HIP cardinality estimates of many sketch groups, each at its own horizon.

    The serving layer's ``distinct`` query masks a temporal ADS by a
    time horizon before the ``sum of 1/p`` reduction.  Coalescing
    concurrent queries with *different* horizons needs the masking
    inside the kernel call: each group carries its full ``(distance,
    threshold)`` columns plus a horizon, the kernel masks per group and
    hands the surviving probabilities to :func:`batch_hip_counts` — so a
    one-group call is exactly the sequential code path (same masking,
    same reduction), which is what makes coalesced answers bit-identical
    to single-caller answers.

    Parameters
    ----------
    column_groups:
        One ``(distances, thresholds)`` array pair per group (equal
        lengths within a pair; thresholds in ``(0, 1]``).
    horizons:
        One inclusive time horizon per group (``math.inf`` for all of
        time).
    backend:
        ``None`` (process-wide policy), a mode string, or a
        :class:`~repro.api.backend.BackendPolicy`.

    Returns
    -------
    list of float
        Per-group cardinality estimates, in input order.
    """
    if len(column_groups) != len(horizons):
        raise ValueError(
            f"got {len(column_groups)} column groups but "
            f"{len(horizons)} horizons"
        )
    masked = []
    for (distances, thresholds), horizon in zip(column_groups, horizons):
        distances = np.asarray(distances, dtype=float)
        thresholds = np.asarray(thresholds, dtype=float)
        if distances.shape != thresholds.shape:
            raise ValueError(
                "distance and threshold columns must have equal shapes, "
                f"got {distances.shape} != {thresholds.shape}"
            )
        masked.append(thresholds[distances <= float(horizon)])
    return batch_hip_counts(masked, backend=backend)
