"""Coordinated shared-seed PPS sampling of whole multi-instance datasets.

This is the data-pipeline side of the paper: every item receives one seed
(hashed from its key or drawn by a generator), every instance applies its
own PPS threshold to that shared seed, and the per-item projection of the
result is exactly the monotone sampling scheme that the estimators of
:mod:`repro.estimators` expect.  The classes here carry out the sampling,
store the (small) per-instance samples, and reassemble per-item outcomes
for the estimation stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.outcome import Outcome
from ..core.schemes import CoordinatedScheme, LinearThreshold
from ..core.seeds import SeedAssigner
from .dataset import ItemKey, MultiInstanceDataset

__all__ = [
    "InstanceSample",
    "CoordinatedSample",
    "CoordinatedPPSSampler",
]


@dataclass(frozen=True)
class InstanceSample:
    """The PPS sample of one instance: the items whose weight crossed the bar."""

    instance: str
    tau_star: float
    entries: Dict[ItemKey, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: ItemKey) -> bool:
        return key in self.entries

    def weight(self, key: ItemKey) -> Optional[float]:
        return self.entries.get(key)


class CoordinatedSample:
    """The coordinated samples of all instances plus the per-item seeds.

    Seeds are retained for every item that appears in at least one sample
    (that is all the estimator needs: items sampled nowhere contribute a
    zero estimate for the zero-revealing targets used in the paper, and
    their seeds are reproducible from the hash anyway).

    A sample is held in one of two forms and derives the other on first
    use: per-instance entry dicts plus a seed map (what the constructor,
    :meth:`from_instance_samples` and :class:`CoordinatedPPSSampler`
    build), or columns in :meth:`sampled_items` order
    (:meth:`from_columns`, the sketch store's form).  The sample is
    immutable, so its key order and its :meth:`batch` are computed once;
    the columnar form holds its batch from the start.
    """

    def __init__(
        self,
        scheme: CoordinatedScheme,
        instance_samples: Sequence[InstanceSample],
        seeds: Mapping[ItemKey, float],
    ) -> None:
        self._scheme = scheme
        self._instances: Optional[Tuple[InstanceSample, ...]] = tuple(
            instance_samples
        )
        self._names = tuple(sample.instance for sample in self._instances)
        self._seeds: Optional[Dict[ItemKey, float]] = dict(seeds)
        self._keys: Optional[Tuple[ItemKey, ...]] = None
        self._batch = None

    @classmethod
    def from_instance_samples(
        cls,
        instance_samples: Sequence[InstanceSample],
        seeds: Mapping[ItemKey, float],
    ) -> "CoordinatedSample":
        """Assemble a coordinated sample from per-instance PPS samples.

        The scheme is reconstructed from each sample's ``tau_star`` (the
        linear PPS thresholds), so samples drawn independently — e.g. by
        the sketch-serving layer, one per key-group — can be re-entered
        into the estimation pipeline as long as they shared the per-item
        seed assignment.  ``seeds`` must cover every item retained by any
        of the samples.
        """
        if not instance_samples:
            raise ValueError("at least one instance sample is required")
        scheme = CoordinatedScheme(
            [LinearThreshold(s.tau_star) for s in instance_samples]
        )
        retained = set()
        for sample in instance_samples:
            retained.update(sample.entries)
        missing = [key for key in retained if key not in seeds]
        if missing:
            raise ValueError(
                f"seeds missing for {len(missing)} retained item(s), "
                f"e.g. {sorted(missing, key=repr)[:3]!r}"
            )
        kept = {key: float(seeds[key]) for key in retained}
        return cls(scheme, tuple(instance_samples), kept)

    @classmethod
    def from_columns(
        cls,
        instances: Sequence[str],
        tau_stars: Sequence[float],
        keys: Sequence[ItemKey],
        seeds: np.ndarray,
        values: np.ndarray,
    ) -> "CoordinatedSample":
        """A coordinated PPS sample given as columns.

        ``keys`` are the retained items sorted by ``repr`` (the order of
        :meth:`sampled_items`), ``seeds`` their shape ``(n,)`` seeds, and
        ``values`` a shape ``(n, r)`` array whose column ``i`` holds
        instance ``i``'s sampled weights, with ``NaN`` where that
        instance did not sample the item.  Instance ``i`` is named
        ``instances[i]`` and sampled at PPS rate ``tau_stars[i]``.  The
        per-instance dicts that :meth:`outcome_for` and
        :attr:`instance_samples` read are built only when first needed.
        """
        from ..engine.batch_outcome import BatchOutcome

        if not instances:
            raise ValueError("at least one instance sample is required")
        sample = cls.__new__(cls)
        sample._scheme = CoordinatedScheme(
            [LinearThreshold(tau) for tau in tau_stars]
        )
        sample._instances = None
        sample._names = tuple(instances)
        sample._seeds = None
        sample._keys = tuple(keys)
        sample._batch = BatchOutcome(
            seeds=seeds, values=values, scheme=sample._scheme
        )
        return sample

    @property
    def scheme(self) -> CoordinatedScheme:
        return self._scheme

    @property
    def instance_samples(self) -> Tuple[InstanceSample, ...]:
        if self._instances is None:
            keys = self._keys
            values = self._batch.values
            samples = []
            for i, name in enumerate(self._names):
                column = values[:, i]
                rows = np.flatnonzero(~np.isnan(column))
                samples.append(
                    InstanceSample(
                        instance=name,
                        tau_star=self._scheme.thresholds[i].tau_star,
                        entries=dict(
                            zip(
                                [keys[k] for k in rows.tolist()],
                                column[rows].tolist(),
                            )
                        ),
                    )
                )
            self._instances = tuple(samples)
        return self._instances

    @property
    def num_instances(self) -> int:
        return len(self._names)

    def seed_of(self, key: ItemKey) -> Optional[float]:
        if self._seeds is None:
            self._seeds = dict(zip(self._keys, self._batch.seeds.tolist()))
        return self._seeds.get(key)

    def sampled_items(self) -> Tuple[ItemKey, ...]:
        """Items present in at least one instance sample, sorted by ``repr``."""
        if self._keys is None:
            keys = set()
            for sample in self._instances:
                keys.update(sample.entries.keys())
            self._keys = tuple(sorted(keys, key=repr))
        return self._keys

    def batch(self):
        """The sampled items as one :class:`~repro.engine.batch_outcome.BatchOutcome`.

        Rows follow :meth:`sampled_items` and columns the instances; an
        entry an instance did not sample is ``NaN``.  The batch is built
        once per sample, so every estimator run over the same sample
        shares it.  The engine is imported lazily here and in
        :meth:`from_columns`, so that the aggregates layer has no
        import-time dependency on it (the engine's ``BatchSumEngine``
        consumes datasets from this package).
        """
        if self._batch is None:
            from ..engine.batch_outcome import BatchOutcome

            keys = self.sampled_items()
            seeds = np.fromiter(
                (self._seeds[key] for key in keys), dtype=float, count=len(keys)
            )
            values = np.empty((len(keys), self.num_instances))
            for i, sample in enumerate(self._instances):
                entries = sample.entries
                values[:, i] = np.fromiter(
                    (entries.get(key, np.nan) for key in keys),
                    dtype=float,
                    count=len(keys),
                )
            self._batch = BatchOutcome(
                seeds=seeds, values=values, scheme=self._scheme
            )
        return self._batch

    def storage_size(self) -> int:
        """Total number of (item, instance) entries retained — the
        footprint a deployment would actually pay for."""
        return sum(len(s) for s in self.instance_samples)

    def outcome_for(self, key: ItemKey, instances: Optional[Sequence[int]] = None) -> Outcome:
        """Reassemble the per-item monotone-sampling outcome for ``key``.

        ``instances`` optionally selects (and orders) the instances that
        make up the tuple, matching the target function's arity; by
        default all instances are used.
        """
        seed = self.seed_of(key)
        if seed is None:
            raise KeyError(
                f"item {key!r} has no recorded seed; it was not sampled anywhere"
            )
        idx = tuple(instances) if instances is not None else tuple(
            range(self.num_instances)
        )
        samples = self.instance_samples
        values = tuple(samples[i].entries.get(key) for i in idx)
        scheme = self._scheme if instances is None else CoordinatedScheme(
            [self._scheme.thresholds[i] for i in idx]
        )
        return Outcome(seed=seed, values=values, scheme=scheme)


class CoordinatedPPSSampler:
    """Shared-seed PPS sampler over a :class:`MultiInstanceDataset`.

    Parameters
    ----------
    tau_star:
        Per-instance PPS rates.  Entry ``i`` of an item is included in
        instance ``i``'s sample when ``weight >= seed * tau_star[i]``, so
        its inclusion probability is ``min(1, weight / tau_star[i])`` —
        larger ``tau_star`` means a smaller (cheaper) sample.
    salt:
        Salt mixed into the item-key hash when deterministic (hashed)
        seeds are used.
    """

    def __init__(self, tau_star: Sequence[float], salt: str = "") -> None:
        rates = tuple(float(t) for t in tau_star)
        if not rates or any(t <= 0 for t in rates):
            raise ValueError("tau_star must be positive for every instance")
        self._rates = rates
        self._salt = salt
        self._scheme = CoordinatedScheme([LinearThreshold(t) for t in rates])

    @property
    def scheme(self) -> CoordinatedScheme:
        return self._scheme

    @property
    def tau_star(self) -> Tuple[float, ...]:
        return self._rates

    @classmethod
    def for_expected_sample_size(
        cls,
        dataset: MultiInstanceDataset,
        expected_size: float,
        salt: str = "",
    ) -> "CoordinatedPPSSampler":
        """Pick per-instance rates so each sample has the requested
        expected number of items (PPS inclusion probabilities sum to it)."""
        rates = []
        for i in range(dataset.num_instances):
            total = dataset.total_weight(i)
            if total <= 0:
                rates.append(1.0)
            else:
                rates.append(max(total / expected_size, 1e-12))
        return cls(rates, salt=salt)

    def sample(
        self,
        dataset: MultiInstanceDataset,
        rng: Optional[np.random.Generator] = None,
        seeds: Optional[Mapping[ItemKey, float]] = None,
    ) -> CoordinatedSample:
        """Sample every instance of ``dataset`` with shared per-item seeds.

        Seeds come from (in order of precedence) the explicit ``seeds``
        mapping, the random generator ``rng`` (independent replications in
        experiments), or a deterministic hash of the item key.
        """
        if dataset.num_instances != len(self._rates):
            raise ValueError(
                "dataset and sampler disagree on the number of instances"
            )
        assigner = (
            SeedAssigner(salt=self._salt)
            if rng is None
            else SeedAssigner(rng=rng)
        )
        per_instance: List[Dict[ItemKey, float]] = [
            {} for _ in range(dataset.num_instances)
        ]
        kept_seeds: Dict[ItemKey, float] = {}
        for key, tup in dataset.iter_items():
            if seeds is not None and key in seeds:
                seed = float(seeds[key])
            else:
                seed = assigner.seed_for(key)
            sampled_somewhere = False
            for i, weight in enumerate(tup):
                if weight >= seed * self._rates[i] and weight > 0:
                    per_instance[i][key] = weight
                    sampled_somewhere = True
            if sampled_somewhere:
                kept_seeds[key] = seed
        samples = [
            InstanceSample(
                instance=dataset.instance_names[i],
                tau_star=self._rates[i],
                entries=per_instance[i],
            )
            for i in range(dataset.num_instances)
        ]
        return CoordinatedSample(self._scheme, samples, kept_seeds)
