"""Sum-aggregate estimation from coordinated samples.

This is the end-to-end pipeline the paper motivates: a query such as
``L_p^p(H) = sum_{k in H} |v1_k - v2_k|^p`` is estimated by applying a
per-item (monotone-estimation) estimator to the outcome of every item and
summing.  Per-item unbiasedness makes the sum unbiased; per-item
independence of the seeds makes the variance of the sum the sum of the
per-item variances, so the relative error shrinks as the query selects
more items.

Only items that appear in at least one instance sample can contribute a
nonzero estimate for the zero-revealing targets used here (``RG_p``,
``RG_p+``, OR, ...): an item sampled nowhere has a lower-bound function
that is identically zero, and every in-range estimator returns 0 on it.
The estimator classes below therefore iterate over the retained sample
only, which is what makes the whole pipeline sublinear in the data.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..api.backend import BackendPolicy, BackendSpec
from ..core.functions import EstimationTarget, ExponentiatedRange, OneSidedRange
from ..estimators.base import Estimator
from ..estimators.lstar import LStarEstimator
from .coordinated import CoordinatedSample
from .dataset import ItemKey

__all__ = [
    "ItemBreakdown",
    "ItemEstimate",
    "SumEstimate",
    "SumAggregateEstimator",
    "estimate_lpp",
    "estimate_lp",
    "estimate_lpp_plus",
]


@dataclass(frozen=True)
class ItemEstimate:
    """The per-item contribution to a sum estimate (for diagnostics)."""

    key: ItemKey
    seed: float
    estimate: float


class ItemBreakdown(Sequence):
    """The per-item contributions of a sum estimate, as a lazy sequence.

    Holds the estimated keys with their seeds and per-item estimates as
    arrays.  ``len()`` reads the key count; the :class:`ItemEstimate`
    objects are built on the first indexed or iterated read, once.
    """

    __slots__ = ("keys", "seeds", "estimates", "_items")

    def __init__(
        self, keys: Sequence[ItemKey], seeds: np.ndarray, estimates: np.ndarray
    ) -> None:
        self.keys = keys
        self.seeds = seeds
        self.estimates = estimates
        self._items: Optional[Tuple[ItemEstimate, ...]] = None

    def _materialise(self) -> Tuple[ItemEstimate, ...]:
        if self._items is None:
            self._items = tuple(
                map(
                    ItemEstimate,
                    self.keys,
                    self.seeds.tolist(),
                    self.estimates.tolist(),
                )
            )
        return self._items

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self) -> Iterator[ItemEstimate]:
        return iter(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ItemBreakdown):
            other = other._materialise()
        if not isinstance(other, tuple):
            return NotImplemented
        return self._materialise() == other

    def __hash__(self) -> int:
        return hash(self._materialise())

    def __repr__(self) -> str:
        return f"ItemBreakdown({list(self)!r})"


@dataclass(frozen=True)
class SumEstimate:
    """A sum-aggregate estimate with its per-item breakdown.

    ``items`` is an :class:`ItemBreakdown`: a sequence of
    :class:`ItemEstimate` built only when an item is read, so ``len()``
    and :attr:`contributing_items` stay array operations.
    """

    value: float
    items: ItemBreakdown
    estimator: str

    @property
    def contributing_items(self) -> int:
        """Number of items with a nonzero contribution."""
        return int(np.count_nonzero(self.items.estimates))


class SumAggregateEstimator:
    """Estimate ``sum_k f(v^(k))`` over selected items of a coordinated sample.

    Parameters
    ----------
    target:
        The per-item function ``f`` being aggregated.
    estimator:
        The per-item estimator; defaults to the generic L* estimator for
        ``target`` (the paper's recommended default, being admissible,
        monotone and 4-competitive).
    instances:
        Which instances (and in which order) form the tuple passed to
        ``target``; defaults to all instances of the sample.
    backend:
        ``None`` (the default) uses the process-wide
        :class:`~repro.api.backend.BackendPolicy` (``auto`` by
        default).  A mode string or a policy
        object overrides it: ``"scalar"`` applies ``estimator.estimate``
        outcome by outcome (the reference path); ``"vectorized"`` batches
        the retained items into a
        :class:`~repro.engine.batch_outcome.BatchOutcome` and runs the
        matching kernel from :mod:`repro.engine.kernels`, raising
        ``ValueError`` when no kernel covers the estimator/scheme pair;
        ``"auto"`` uses the kernel when one applies and silently falls
        back to the scalar path otherwise.
    """

    def __init__(
        self,
        target: EstimationTarget,
        estimator: Optional[Estimator] = None,
        instances: Optional[Sequence[int]] = None,
        backend: BackendSpec = None,
    ) -> None:
        self._policy = BackendPolicy.coerce(backend)
        self._target = target
        self._estimator = estimator if estimator is not None else LStarEstimator(target)
        self._instances = tuple(instances) if instances is not None else None

    @property
    def target(self) -> EstimationTarget:
        return self._target

    @property
    def estimator(self) -> Estimator:
        return self._estimator

    @property
    def backend(self) -> str:
        return self._policy.mode

    @property
    def policy(self) -> BackendPolicy:
        return self._policy

    def estimate(
        self,
        sample: CoordinatedSample,
        selection: Optional[Iterable[ItemKey]] = None,
    ) -> SumEstimate:
        """Estimate the sum aggregate, optionally restricted to a selection.

        ``selection`` is the query's item domain (subset query).  Items in
        the selection that were sampled nowhere contribute 0 and are not
        enumerated; items outside the selection are skipped.
        """
        keys = sample.sampled_items()
        rows = None
        if selection is not None:
            selected = set(selection)
            rows = [k for k, key in enumerate(keys) if key in selected]
            keys = tuple(keys[k] for k in rows)
        resolved = self._policy.mode
        if resolved != "scalar":
            batched = self._estimate_batched(sample, keys, rows)
            if batched is not None:
                return batched
            if resolved == "vectorized":
                raise ValueError(
                    "no vectorized kernel covers this estimator/scheme pair; "
                    "use backend='scalar' or backend='auto'"
                )
        seeds: List[float] = []
        estimates: List[float] = []
        total = 0.0
        for key in keys:
            outcome = sample.outcome_for(key, instances=self._instances)
            value = self._estimator.estimate(outcome)
            total += value
            seeds.append(outcome.seed)
            estimates.append(value)
        return SumEstimate(
            value=total,
            items=ItemBreakdown(
                keys,
                np.asarray(seeds, dtype=float),
                np.asarray(estimates, dtype=float),
            ),
            estimator=self._estimator.name,
        )

    def _estimate_batched(
        self,
        sample: CoordinatedSample,
        keys: Sequence[ItemKey],
        rows: Optional[Sequence[int]],
    ) -> Optional[SumEstimate]:
        """Kernel-based estimation of the retained items, or ``None``.

        The kernel runs on the sample's shared :meth:`CoordinatedSample.batch`,
        narrowed to the selected ``rows`` and to this estimator's
        instances when either is given.  Imported lazily so that the
        aggregates layer has no import-time dependency on the engine (the
        engine's ``BatchSumEngine`` consumes datasets from this package).
        """
        from ..core.schemes import CoordinatedScheme
        from ..engine.batch_outcome import BatchOutcome
        from ..engine.kernels import resolve_kernel

        idx = self._instances
        scheme = (
            sample.scheme
            if idx is None
            else CoordinatedScheme([sample.scheme.thresholds[i] for i in idx])
        )
        kernel = resolve_kernel(self._estimator, scheme)
        if kernel is None:
            return None
        batch = sample.batch()
        if rows is not None or idx is not None:
            seeds, values = batch.seeds, batch.values
            if rows is not None:
                rows = np.asarray(rows, dtype=np.intp)
                seeds, values = seeds[rows], values[rows]
            if idx is not None:
                values = values[:, idx]
            batch = BatchOutcome(seeds=seeds, values=values, scheme=scheme)
        estimates = kernel.estimate_batch(batch)
        return SumEstimate(
            value=float(estimates.sum()),
            items=ItemBreakdown(keys, batch.seeds, estimates),
            estimator=self._estimator.name,
        )


def estimate_lpp(
    sample: CoordinatedSample,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    estimator: Optional[Estimator] = None,
    selection: Optional[Iterable[ItemKey]] = None,
    backend: BackendSpec = None,
) -> float:
    """Estimate ``L_p^p`` between two instances from a coordinated sample.

    The full two-sided difference is estimated as the sum of the two
    one-sided estimates (increase-only plus decrease-only), each of which
    is an ``RG_p+`` sum aggregate — exactly the decomposition used in
    Example 1 of the paper.
    """
    forward = estimate_lpp_plus(sample, p, instances, estimator, selection, backend)
    backward = estimate_lpp_plus(
        sample, p, (instances[1], instances[0]), estimator, selection, backend
    )
    return forward + backward


def estimate_lp(
    sample: CoordinatedSample,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    estimator: Optional[Estimator] = None,
    selection: Optional[Iterable[ItemKey]] = None,
    backend: BackendSpec = None,
) -> float:
    """Estimate the ``L_p`` difference as the ``p``-th root of ``L_p^p``.

    The root introduces a (small, concavity-driven) bias; the paper's
    applications accept it because the underlying ``L_p^p`` estimate is
    unbiased and concentrates.
    """
    value = estimate_lpp(sample, p, instances, estimator, selection, backend)
    return max(0.0, value) ** (1.0 / p)


def estimate_lpp_plus(
    sample: CoordinatedSample,
    p: float = 1.0,
    instances: Tuple[int, int] = (0, 1),
    estimator: Optional[Estimator] = None,
    selection: Optional[Iterable[ItemKey]] = None,
    backend: BackendSpec = None,
) -> float:
    """Estimate the one-sided difference ``sum max(0, v_i - v_j)^p``."""
    target = OneSidedRange(p=p)
    aggregator = SumAggregateEstimator(
        target, estimator=estimator, instances=instances, backend=backend
    )
    return aggregator.estimate(sample, selection=selection).value
