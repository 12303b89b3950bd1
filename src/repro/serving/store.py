"""The sketch store: streaming ingestion, mergeable sketches, batch queries.

A :class:`SketchStore` turns the library's offline sampling substrates
into a long-lived service.  Internally it is a *ledger*, not a bag of
sketches: per key-group it accumulates each key's total weight (in
arrival order) and first-seen timestamp.  The three sketch families are
materialised lazily from the ledger and cached until the next ingest:

* a **bottom-k sketch** of the accumulated weights (``config.rank_method``),
* a **PPS sample** at rate ``config.tau_star`` — the substrate of ``sum``
  and ``similarity`` queries,
* a **temporal all-distances sketch** whose "distance" is the first-seen
  timestamp — the substrate of ``distinct`` (distinct keys seen up to a
  time horizon) queries.

All groups share one deterministic seed assignment (hashed from the key
with ``config.salt``), so sketches of different groups — and of different
stores built with the same config — are *coordinated*: mergeable, and
comparable for similarity.

Merging (:func:`merge_stores`) adds the ledgers: per-key totals add,
first-seen timestamps take the minimum.  Combined with key-routed
sharding (:func:`~repro.serving.events.shard_events`), shard-then-merge
reproduces single-pass ingestion *bit for bit*, because each key's
weight is accumulated by exactly one shard in arrival order.  Merge is
associative and commutative; it is deliberately **not** idempotent
(merging a store with itself doubles every weight — the idempotent merge
lives at the sketch level, see :meth:`BottomKSketch.merge
<repro.sketches.bottomk.BottomKSketch.merge>`).

Queries go through a :class:`~repro.api.registry.Registry` of serving
query kinds (``sum`` / ``similarity`` / ``distinct``), answer straight
from the sketches through the engine kernels in
:mod:`repro.engine.serving`, and follow the process-wide
:class:`~repro.api.backend.BackendPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from ..aggregates.coordinated import CoordinatedSample
from ..api.registry import Registry
from ..core.seeds import SeedAssigner
from ..sketches.ads import AllDistancesSketch, build_ads_from_distances
from ..sketches.bottomk import BottomKSketch, RankMethod, bottom_k_sketch
from ..sketches.pps import PPSSample, pps_sample
from .events import Event, EventBatch

__all__ = [
    "GroupState",
    "SERVING_QUERY_KINDS",
    "SketchStore",
    "StoreConfig",
    "merge_sketch_views",
    "merge_stores",
    "sketch_view_payload",
]

#: Registry of serving query kinds; ``sum`` / ``similarity`` /
#: ``distinct`` are built in, and plugins extend it the same way the
#: estimation registries are extended.
SERVING_QUERY_KINDS = Registry("serving query")

#: The derived reductions a group caches next to its sketch views:
#: full-ledger arrays computed from the ``pps`` and ``ads`` views, with
#: no incremental form, so they are dropped whenever a view is replaced.
_DERIVED_CACHES = ("sum_weights", "ads_columns", "pps_columns")


class _PPSColumns(NamedTuple):
    """One group's PPS view as arrays, sorted by the ``repr`` of the keys."""

    keys: Any
    weights: Any
    seeds: Any
    tau_star: float


@dataclass(frozen=True)
class StoreConfig:
    """Immutable sketch parameters shared by every group of a store.

    Two stores are mergeable exactly when their configs are equal — the
    config pins the seed assignment (``salt``), the sketch capacity
    (``k``), the PPS rate (``tau_star``) and the bottom-k rank function,
    all of which must coincide for coordinated sketches to describe the
    same sampling scheme.
    """

    k: int = 64
    tau_star: float = 1.0
    rank_method: RankMethod = RankMethod.PRIORITY
    salt: str = ""

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.tau_star <= 0:
            raise ValueError("tau_star must be positive")
        if not isinstance(self.rank_method, RankMethod):
            object.__setattr__(
                self, "rank_method", RankMethod(self.rank_method)
            )

    def to_dict(self) -> Dict[str, Any]:
        """The config's JSON payload (stored in ``config.json``)."""
        return {
            "k": self.k,
            "tau_star": self.tau_star,
            "rank_method": self.rank_method.value,
            "salt": self.salt,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StoreConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            k=int(payload["k"]),
            tau_star=float(payload["tau_star"]),
            rank_method=RankMethod(payload["rank_method"]),
            salt=str(payload.get("salt", "")),
        )


class GroupState:
    """One key-group's ledger plus its lazily cached sketches.

    The ledger is the source of truth: ``totals`` maps each key to its
    accumulated weight (floats added in arrival order — the quantity the
    bit-identity guarantee is about), ``first_seen`` to the earliest
    timestamp the key appeared at, and ``last_seen`` to the latest (the
    recency the retention policies in :mod:`repro.serving.retention`
    evict by).  Sketches are derived views, rebuilt on demand after any
    mutation — except append-only batches, which the store patches into
    the cached views incrementally (see ``SketchStore.ingest``).

    The cache also holds the derived reductions of the views (named in
    ``_DERIVED_CACHES``): ``sum_weights``, the PPS weights in sorted-key
    order that ``sum`` reduces; ``ads_columns``, the ADS
    ``(distance, threshold)`` columns that ``distinct`` masks; and
    ``pps_columns``, the PPS keys, weights and seeds in ``repr`` order
    that ``similarity`` merges.  They are dropped with the views, and on
    their own whenever a view is patched or replaced.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.first_seen: Dict[str, float] = {}
        self.last_seen: Dict[str, float] = {}
        self.events = 0
        self._cache: Dict[str, Any] = {}

    def apply(self, event: Event, invalidate: bool = True) -> None:
        """Fold one event into the ledger.

        ``invalidate=False`` leaves the cached sketches untouched; the
        caller then owns bringing them back in sync (the append-only
        fast path patches them via exact sketch-level merges).
        """
        self.totals[event.key] = self.totals.get(event.key, 0.0) + float(
            event.weight
        )
        seen = self.first_seen.get(event.key)
        if seen is None or event.timestamp < seen:
            self.first_seen[event.key] = float(event.timestamp)
        last = self.last_seen.get(event.key)
        if last is None or event.timestamp > last:
            self.last_seen[event.key] = float(event.timestamp)
        self.events += 1
        if invalidate:
            self._cache.clear()

    def drop_keys(self, keys: Iterable[str]) -> None:
        """Evict keys from the ledger and invalidate cached sketches.

        Unknown keys are ignored.  ``events`` is deliberately left
        alone: it counts feed events folded in, not retained keys, and
        the store-level watermark must keep advancing monotonically so
        snapshots taken after an eviction supersede earlier ones.
        """
        for key in keys:
            self.totals.pop(key, None)
            self.first_seen.pop(key, None)
            self.last_seen.pop(key, None)
        self._cache.clear()

    def invalidate(self) -> None:
        """Drop cached sketches (after any direct ledger mutation)."""
        self._cache.clear()

    def cached(self, kind: str, build) -> Any:
        """Return the cached sketch of ``kind``, building it on a miss."""
        if kind not in self._cache:
            self._cache[kind] = build()
        return self._cache[kind]


class SketchStore:
    """A registry of coordinated, mergeable sketches over an event feed.

    Parameters
    ----------
    config:
        Sketch parameters (defaults to :class:`StoreConfig`'s defaults).

    A bare constructor call gives an in-memory store; :meth:`open`
    attaches a directory with a write-ahead log and snapshots (see
    :mod:`repro.serving.persistence`).  Ingestion is incremental
    (:meth:`ingest`), sketches are served per group and kind
    (:meth:`sketch`), queries are batched across groups (:meth:`query`),
    and :func:`merge_stores` combines stores built from disjoint (or
    key-routed) feeds.
    """

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self._config = config if config is not None else StoreConfig()
        self._groups: Dict[str, GroupState] = {}
        self._events = 0
        self._seeds = SeedAssigner(salt=self._config.salt)
        # Set by persistence when the store is directory-backed.
        self._root: Optional[Path] = None
        self._log = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def config(self) -> StoreConfig:
        """The store's immutable sketch parameters."""
        return self._config

    @property
    def root(self) -> Optional[Path]:
        """The backing directory, or ``None`` for an in-memory store."""
        return self._root

    @property
    def events_ingested(self) -> int:
        """Total events folded into the ledger (the snapshot watermark)."""
        return self._events

    @property
    def groups(self) -> List[str]:
        """Names of every key-group seen so far, sorted."""
        return sorted(self._groups)

    def group_state(self, group: str) -> GroupState:
        """The (live) ledger of one group, created on first access."""
        state = self._groups.get(group)
        if state is None:
            state = self._groups[group] = GroupState()
        return state

    def seed_for(self, key: str) -> float:
        """The shared hashed seed of ``key`` (identical across groups)."""
        return self._seeds.seed_for(key)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Union[EventBatch, Iterable[Event]]) -> int:
        """Fold a batch of events into the store, in order.

        Directory-backed stores append the batch to the write-ahead log
        as one line (flushed and fsynced) *before* applying it, so a
        crash can lose at most a batch never acknowledged by this
        method.  Pass an :class:`~repro.serving.events.EventBatch` to
        have its columns logged as they are.

        **Append-only fast path.**  When a batch only *introduces* keys
        to a group (no event touches a key already in the ledger) and
        the group's sketch views are materialised, the store does not
        invalidate-and-rebuild: it builds sketches over just the new
        keys and folds them into the cached views with the exact
        sketch-level merges (:meth:`BottomKSketch.merge
        <repro.sketches.bottomk.BottomKSketch.merge>` and friends),
        which are bit-identical in content to a rebuild because the new
        keys form a population disjoint from the retained one under the
        shared seed assignment.  Batches that update retained keys fall
        back to plain invalidation.

        Returns
        -------
        int
            Number of events ingested from this batch.
        """
        if not isinstance(events, EventBatch):
            events = list(events)
        if self._log is not None:
            self._log.append_batch(
                self._events + 1, EventBatch.from_events(events)
            )
        batch = list(events)
        per_group: Dict[str, List[Event]] = {}
        for event in batch:
            per_group.setdefault(event.group, []).append(event)
        for group, group_events in per_group.items():
            state = self.group_state(group)
            if state._cache and all(
                event.key not in state.totals for event in group_events
            ):
                new_keys: List[str] = []
                seen = set()
                for event in group_events:
                    state.apply(event, invalidate=False)
                    if event.key not in seen:
                        seen.add(event.key)
                        new_keys.append(event.key)
                self._patch_caches(state, new_keys)
            else:
                for event in group_events:
                    state.apply(event)
        self._events += len(batch)
        return len(batch)

    def _apply(self, event: Event) -> None:
        """Apply one event to the ledger (no logging — replay path)."""
        self.group_state(event.group).apply(event)
        self._events += 1

    def _patch_caches(self, state: GroupState, new_keys: Sequence[str]) -> None:
        """Extend cached sketch views in place after an append-only batch.

        ``new_keys`` were introduced by the batch (disjoint from the
        pre-batch ledger) and are already folded into ``state``.  A
        sketch built over just the new keys merged into the cached view
        equals a full rebuild — the sketch-level merges are exact for
        disjoint populations sharing the seed assignment — while only
        paying for the new keys.  The derived reductions
        (``_DERIVED_CACHES``) are dropped and rebuilt lazily; they are
        full-ledger concatenations with no incremental form.
        """
        cache = state._cache
        config = self._config
        if "bottomk" in cache:
            new_totals = {key: state.totals[key] for key in new_keys}
            cache["bottomk"] = cache["bottomk"].merge(
                bottom_k_sketch(
                    new_totals,
                    k=config.k,
                    method=config.rank_method,
                    seeds=self._seeds.seeds_for(new_totals),
                )
            )
        if "pps" in cache:
            new_totals = {key: state.totals[key] for key in sorted(new_keys)}
            cache["pps"] = cache["pps"].merge(
                pps_sample(
                    new_totals,
                    tau_star=config.tau_star,
                    seeds=self._seeds.seeds_for(new_totals),
                )
            )
        if "ads" in cache:
            new_first = {key: state.first_seen[key] for key in new_keys}
            cache["ads"] = cache["ads"].merge(
                build_ads_from_distances(
                    new_first,
                    k=config.k,
                    ranks=self._seeds.seeds_for(new_first),
                )
            )
        for name in _DERIVED_CACHES:
            cache.pop(name, None)

    # ------------------------------------------------------------------
    # Sketch views
    # ------------------------------------------------------------------
    def sketch(
        self, group: str, kind: str = "bottomk"
    ) -> Union[BottomKSketch, PPSSample, AllDistancesSketch]:
        """The materialised sketch of one group.

        Parameters
        ----------
        group:
            Key-group name (a group never ingested yields the empty
            sketch).
        kind:
            ``"bottomk"``, ``"pps"``, or ``"ads"`` (the temporal ADS over
            first-seen timestamps).
        """
        state = self.group_state(group)
        config = self._config
        if kind == "bottomk":
            return state.cached(
                "bottomk",
                lambda: bottom_k_sketch(
                    state.totals,
                    k=config.k,
                    method=config.rank_method,
                    seeds=self._seeds.seeds_for(state.totals),
                ),
            )
        if kind == "pps":
            # Feed the weights in sorted-key order: PPS keeps entries in
            # input order (unlike bottom-k/ADS, which sort by rank), so
            # this makes the view — and its serialised form — a function
            # of ledger *content* alone, not of arrival/merge order.
            return state.cached(
                "pps",
                lambda: pps_sample(
                    {key: state.totals[key] for key in sorted(state.totals)},
                    tau_star=config.tau_star,
                    seeds=self._seeds.seeds_for(state.totals),
                ),
            )
        if kind == "ads":
            return state.cached(
                "ads",
                lambda: build_ads_from_distances(
                    state.first_seen,
                    k=config.k,
                    ranks=self._seeds.seeds_for(state.first_seen),
                ),
            )
        raise ValueError(
            f"unknown sketch kind {kind!r}; expected 'bottomk', 'pps', or 'ads'"
        )

    def coordinated_sample(self, groups: Sequence[str]) -> CoordinatedSample:
        """The groups' PPS samples as one coordinated multi-instance sample.

        Because all groups share the seed assignment and the PPS rate,
        their per-group samples are instances of one coordinated scheme —
        ready for the estimators in :mod:`repro.aggregates` (similarity,
        L_p differences, any registered target).

        The sample is assembled from each group's cached PPS columns
        (:meth:`_pps_columns`), not from the view dicts.  The groups' keys
        are merged on their ``repr`` strings, so the union comes out in
        the sorted-by-``repr`` order of
        :meth:`~repro.aggregates.coordinated.CoordinatedSample.sampled_items`.
        Each group's column is already in that order, so a stable sort
        of their concatenation only merges sorted runs.  The strings are
        made per query rather than cached: Python strings cost more than
        the rest of the columns together.  Seeds and weights are
        scattered into one ``(n, len(groups))`` batch; the per-group
        dicts are rebuilt only if a scalar estimator reads them.
        """
        import numpy as np

        columns = [self._pps_columns(group) for group in groups]
        if not columns:
            raise ValueError("at least one group is required")
        merged = np.concatenate([column.keys for column in columns])
        reprs = np.fromiter(map(repr, merged), dtype=object, count=len(merged))
        order = np.argsort(reprs, kind="stable")
        ordered = reprs[order]
        first = np.ones(len(reprs), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        rows = np.empty(len(reprs), dtype=np.intp)
        rows[order] = np.cumsum(first) - 1
        n = int(np.count_nonzero(first))
        keys = np.empty(n, dtype=object)
        keys[rows] = merged
        seeds = np.empty(n)
        seeds[rows] = np.concatenate([column.seeds for column in columns])
        values = np.full((n, len(columns)), np.nan)
        start = 0
        for i, column in enumerate(columns):
            stop = start + len(column.keys)
            values[rows[start:stop], i] = column.weights
            start = stop
        return CoordinatedSample.from_columns(
            instances=list(groups),
            tau_stars=[column.tau_star for column in columns],
            keys=keys.tolist(),
            seeds=seeds,
            values=values,
        )

    def _pps_columns(self, group: str) -> _PPSColumns:
        """The group's cached PPS columns, sorted by the keys' ``repr``."""
        import numpy as np

        pps = self.sketch(group, "pps")

        def columns():
            keys = sorted(pps.entries, key=repr)
            return _PPSColumns(
                keys=np.fromiter(keys, dtype=object, count=len(keys)),
                weights=np.fromiter(
                    (pps.entries[key] for key in keys), dtype=float, count=len(keys)
                ),
                seeds=np.fromiter(
                    (pps.seeds[key] for key in keys), dtype=float, count=len(keys)
                ),
                tau_star=pps.tau_star,
            )

        return self.group_state(group).cached("pps_columns", columns)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        kind: str,
        groups: Optional[Sequence[str]] = None,
        keys: Optional[Iterable[str]] = None,
        until: Optional[float] = None,
    ) -> Any:
        """Answer a batch query straight from the stored sketches.

        Dispatch follows the process-wide
        :class:`~repro.api.backend.BackendPolicy`: under ``auto`` every
        kind runs its engine kernel, whatever the input's size.

        Parameters
        ----------
        kind:
            A registered serving query kind: ``"sum"`` (per-group HT
            subset-sum estimate over the PPS samples), ``"distinct"``
            (per-group HIP estimate of distinct keys first seen up to
            ``until``), or ``"similarity"`` (weighted closeness between
            exactly two groups — the ratio of the estimated sums of
            per-key minima and maxima).
        groups:
            Groups to answer for; defaults to every group in the store
            (``similarity`` requires exactly two).
        keys:
            Optional subset-query selection (``sum`` only).
        until:
            Time horizon for ``distinct`` (defaults to all of time).

        Returns
        -------
        dict or float
            ``{group: estimate}`` for ``sum`` and ``distinct``; a single
            ``float`` in ``[0, 1]`` for ``similarity``.
        """
        handler = SERVING_QUERY_KINDS.get(kind)
        selected = self.groups if groups is None else list(groups)
        return handler(self, groups=selected, keys=keys, until=until)

    def distinct_batch(self, group_horizons: Sequence[tuple]) -> List[float]:
        """``distinct`` estimates for many ``(group, until)`` pairs at once.

        This is the coalescing entry point behind
        :class:`~repro.serving.batcher.QueryBatcher`: concurrent
        ``distinct`` requests with *different* time horizons still
        collapse into one engine dispatch.  A single-pair call is the
        exact code path of ``query("distinct", ...)``, so coalesced and
        sequential answers are bit-identical.

        Parameters
        ----------
        group_horizons:
            ``(group, until)`` pairs; ``until=None`` means all of time.

        Returns
        -------
        list of float
            One estimate per pair, in input order.
        """
        from ..engine.serving import batch_hip_horizon_counts

        column_groups = []
        horizons = []
        for group, until in group_horizons:
            column_groups.append(self._ads_columns(group))
            horizons.append(math.inf if until is None else float(until))
        return batch_hip_horizon_counts(column_groups, horizons)

    def _ads_columns(self, group: str):
        """The group's cached ``(distance, threshold)`` ADS column arrays."""
        import numpy as np

        entries = self.sketch(group, "ads").entries

        def columns():
            nodes = sorted(entries)
            return (
                np.asarray([entries[n].distance for n in nodes], dtype=float),
                np.asarray([entries[n].threshold for n in nodes], dtype=float),
            )

        return self.group_state(group).cached("ads_columns", columns)

    def retain(self, policy, now: Optional[float] = None) -> Dict[str, List[str]]:
        """Apply a retention policy to every group; see
        :func:`repro.serving.retention.apply_retention`."""
        from .retention import apply_retention

        return apply_retention(self, policy, now=now)

    # ------------------------------------------------------------------
    # Persistence facade (implemented in repro.serving.persistence)
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        config: Optional[StoreConfig] = None,
    ) -> "SketchStore":
        """Open (or create) a directory-backed store and recover its state.

        Recovery loads the latest *finalized* snapshot, then replays
        write-ahead-log events past the snapshot's watermark; torn
        trailing log lines and abandoned ``.partial`` snapshots are
        ignored.  See :func:`repro.serving.persistence.open_store`.
        """
        from .persistence import open_store

        return open_store(cls, Path(root), config)

    def snapshot(self) -> Path:
        """Persist the ledger as an atomically finalized snapshot.

        Returns the finalized snapshot path; requires a directory-backed
        store.  See :func:`repro.serving.persistence.save_snapshot`.
        """
        from .persistence import save_snapshot

        if self._root is None:
            raise ValueError(
                "in-memory store has no directory; use SketchStore.open() "
                "or attach() first"
            )
        return save_snapshot(self)

    def attach(self, root: Union[str, Path]) -> "SketchStore":
        """Attach an in-memory store to a fresh directory and snapshot it.

        The directory must not already hold a store.  Returns ``self``
        (now directory-backed, with subsequent ingests write-ahead
        logged).
        """
        from .persistence import attach_store

        attach_store(self, Path(root))
        return self

    def close(self) -> None:
        """Release the write-ahead-log handle of a directory-backed store."""
        if self._log is not None:
            self._log.close()


def merge_stores(store_a: SketchStore, store_b: SketchStore) -> SketchStore:
    """Merge two stores' ledgers into a new in-memory store.

    Per group and key, accumulated weights **add** and first-seen
    timestamps take the **minimum**; group and store event counts add.
    The operation is associative and commutative.  It is *not*
    idempotent — merging a store with itself doubles every weight;
    dedup-style idempotent merging is the sketch-level operation
    (:meth:`~repro.sketches.bottomk.BottomKSketch.merge` and friends),
    which applies when two sketches describe the *same* population.

    When the input feeds were key-routed
    (:func:`~repro.serving.events.shard_events`), every key lives in
    exactly one input, the addition degenerates to a copy, and the
    merged ledger — hence every derived sketch — is bit-identical to
    single-pass ingestion of the combined feed.

    Raises
    ------
    ValueError
        When the two configs differ (different seed assignments or
        sketch parameters are not mergeable).
    """
    if store_a.config != store_b.config:
        raise ValueError(
            "cannot merge stores with different configs: "
            f"{store_a.config} != {store_b.config}"
        )
    merged = SketchStore(store_a.config)
    for source in (store_a, store_b):
        for group in source.groups:
            state = source.group_state(group)
            target = merged.group_state(group)
            for key, total in state.totals.items():
                if key in target.totals:
                    target.totals[key] = target.totals[key] + total
                else:
                    target.totals[key] = total
            for key, seen in state.first_seen.items():
                prior = target.first_seen.get(key)
                if prior is None or seen < prior:
                    target.first_seen[key] = seen
            for key, seen in state.last_seen.items():
                prior = target.last_seen.get(key)
                if prior is None or seen > prior:
                    target.last_seen[key] = seen
            target.events += state.events
            target.invalidate()
    merged._events = store_a.events_ingested + store_b.events_ingested
    return merged


# ----------------------------------------------------------------------
# Sketch-view shipping (the shard router's scatter-gather substrate)
# ----------------------------------------------------------------------
#: Deserializers for shipped sketch views, by kind.
_VIEW_SKETCH_KINDS = {
    "pps": PPSSample.from_dict,
    "ads": AllDistancesSketch.from_dict,
    "bottomk": BottomKSketch.from_dict,
}


def sketch_view_payload(
    store: SketchStore,
    groups: Optional[Sequence[str]] = None,
    kinds: Sequence[str] = ("pps", "ads"),
) -> Dict[str, Any]:
    """Serialize a store's sketch views for cross-shard shipping.

    The payload carries the config (so a receiver can refuse mismatched
    sampling schemes), the event watermark the views describe, and one
    serialized sketch per requested ``(group, kind)``.  Requested groups
    the store has never ingested are *omitted* — on a key-routed shard
    most groups hold only part of the key space and absent means
    "nothing here", which the merge treats as the empty sketch.

    The router gathers these from every shard and merges them with
    :func:`merge_sketch_views`; because coordinated sketches over
    disjoint key populations merge exactly, the merged views equal the
    unsharded store's bit for bit.
    """
    if groups is None:
        selected = store.groups
    else:
        selected = [group for group in groups if group in store._groups]
    for kind in kinds:
        if kind not in _VIEW_SKETCH_KINDS:
            raise ValueError(
                f"unknown sketch kind {kind!r}; expected one of "
                f"{sorted(_VIEW_SKETCH_KINDS)}"
            )
    return {
        "config": store.config.to_dict(),
        "watermark": store.events_ingested,
        "groups": {
            group: {
                kind: store.sketch(group, kind).to_dict() for kind in kinds
            }
            for group in selected
        },
    }


def merge_sketch_views(
    config: StoreConfig,
    views: Sequence[Mapping[str, Any]],
    into: Optional[SketchStore] = None,
) -> SketchStore:
    """Fuse shipped sketch views into a queryable store.

    Per group and kind, the shards' sketches are merged with the
    sketch-level merge operations (exact over key-routed — hence
    disjoint — populations).  Merged PPS entries/seeds are rebuilt in
    sorted-key order, the order an unsharded store feeds its weights in,
    so the fused views are *dict-equal* to the unsharded ones — not just
    equal as sets.  The result is an in-memory :class:`SketchStore`
    whose ledger is empty but whose sketch caches are primed with the
    fused views and whose watermark is the sum of the shards'; queries
    against it run the identical reduction code path as against any
    other store, which is what makes routed answers bit-identical.

    ``into`` extends an earlier result in place and returns it: the
    views must describe the same cut and carry only ``(group, kind)``
    pairs it does not hold yet.  Its other groups keep their views and
    derived reductions; a group a view is written into drops its
    derived reductions (``_DERIVED_CACHES``), which may describe the
    view being replaced.  The shard router keeps its fused store
    between queries this way.

    Raises
    ------
    ValueError
        When a view's config differs from ``config`` (different
        sampling schemes are not mergeable).
    """
    fused: Dict[str, Dict[str, Any]] = {}
    watermark = 0
    for view in views:
        if StoreConfig.from_dict(view["config"]) != config:
            raise ValueError(
                "cannot merge sketch views with mismatched configs: "
                f"{view['config']} != {config.to_dict()}"
            )
        watermark += int(view["watermark"])
        for group, sketches in view["groups"].items():
            target = fused.setdefault(group, {})
            for kind, payload in sketches.items():
                sketch = _VIEW_SKETCH_KINDS[kind](payload)
                prior = target.get(kind)
                target[kind] = (
                    sketch if prior is None else prior.merge(sketch)
                )
    store = SketchStore(config) if into is None else into
    store._events = watermark
    for group, sketches in fused.items():
        state = store.group_state(group)
        for kind, sketch in sketches.items():
            if kind == "pps":
                sketch = PPSSample(
                    tau_star=sketch.tau_star,
                    entries={
                        key: sketch.entries[key]
                        for key in sorted(sketch.entries)
                    },
                    seeds={
                        key: sketch.seeds[key]
                        for key in sorted(sketch.seeds)
                    },
                )
            state._cache[kind] = sketch
        for name in _DERIVED_CACHES:
            state._cache.pop(name, None)
    return store


# ----------------------------------------------------------------------
# Built-in serving query kinds
# ----------------------------------------------------------------------
@SERVING_QUERY_KINDS.register("sum")
def _query_sum(store, groups, keys, until):
    """Per-group HT subset-sum estimates from the PPS samples.

    Entries are reduced in sorted-key order, so two stores holding the
    same ledger *content* (e.g. one recovered from a snapshot, whose
    dict insertion order differs) return bit-identical answers.  The
    sorted weight array of each group is cached next to its sketches
    (and invalidated with them), so a served query is reduction-only.
    """
    import numpy as np

    from ..engine.serving import batch_ht_sums

    selected = set(keys) if keys is not None else None
    weight_groups = []
    for group in groups:
        pps = store.sketch(group, "pps")
        if selected is None:
            weight_groups.append(
                store.group_state(group).cached(
                    "sum_weights",
                    lambda: np.asarray(
                        [pps.entries[key] for key in sorted(pps.entries)],
                        dtype=float,
                    ),
                )
            )
        else:
            weight_groups.append(
                [
                    pps.entries[key]
                    for key in sorted(pps.entries)
                    if key in selected
                ]
            )
    sums = batch_ht_sums(weight_groups, store.config.tau_star)
    return dict(zip(groups, sums))


@SERVING_QUERY_KINDS.register("distinct")
def _query_distinct(store, groups, keys, until):
    """Per-group HIP estimates of distinct keys first seen up to ``until``.

    The sketch entries' (distance, threshold) columns are cached in
    sorted-node order — content-determined reductions, as for ``sum`` —
    and the query only masks them by the horizon and reduces.  The
    masking and reduction are shared with :meth:`SketchStore.distinct_batch`
    (the coalescing entry point), so single-caller and coalesced
    answers come from one code path.
    """
    if keys is not None:
        raise ValueError("'distinct' does not take a key selection")
    counts = store.distinct_batch([(group, until) for group in groups])
    return dict(zip(groups, counts))


@SERVING_QUERY_KINDS.register("similarity")
def _query_similarity(store, groups, keys, until):
    """Weighted closeness similarity between exactly two groups.

    The two groups' PPS samples form a coordinated two-instance sample;
    the estimate is ``est(sum_k min(w_a, w_b)) / est(sum_k max(w_a, w_b))``
    with the L* estimator per item — the weighted-Jaccard analogue of the
    paper's closeness similarity, clamped to ``[0, 1]``.

    :meth:`SketchStore.coordinated_sample` merges the groups' cached PPS
    columns into one batch, and both estimators run their kernels on
    that same batch; under a ``scalar`` policy they estimate item by
    item instead.  No per-item breakdown is built.
    """
    from ..aggregates.sum_estimator import SumAggregateEstimator
    from ..core.functions import MaxPower, MinPower
    from ..graphs.similarity import SimilarityEstimate

    if len(groups) != 2:
        raise ValueError(
            f"'similarity' requires exactly two groups, got {len(groups)}"
        )
    if keys is not None:
        raise ValueError("'similarity' does not take a key selection")
    sample = store.coordinated_sample(groups)
    numerator = SumAggregateEstimator(MinPower(p=1.0))
    denominator = SumAggregateEstimator(MaxPower(p=1.0))
    estimate = SimilarityEstimate(
        numerator=numerator.estimate(sample).value,
        denominator=denominator.estimate(sample).value,
    )
    return estimate.value
