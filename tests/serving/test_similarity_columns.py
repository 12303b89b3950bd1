"""Parity suite for the columnar ``similarity`` path of the sketch store.

A store answers ``similarity`` from cached per-group PPS columns merged on
the ``repr`` strings of the keys (:meth:`SketchStore.coordinated_sample`).
Every answer here must be ``==`` — never ``approx`` — to a reference the
test assembles itself from the generic pipeline: the groups' PPS views
re-entered through :meth:`CoordinatedSample.from_instance_samples`, then
one :class:`SumAggregateEstimator` each for ``sum min`` and ``sum max``.

Covered: every pair of a small feed, keys whose ``repr`` order differs
from their ``str`` order, non-ASCII keys, a very long key (whose columns
must cost its own length, not that length per key), empty and absent
groups, a 16-key pair (which must still run the kernels), every backend
spec, the cache-invalidating mutations (append-only ingest, updating
ingest, retention), snapshot and WAL-only recovery, and a two-shard
router.  A seeds × preload-size grid runs under ``pytest -m slow``.
"""

import asyncio
import itertools
import sys

import numpy as np
import pytest

from repro.aggregates.coordinated import CoordinatedSample, InstanceSample
from repro.aggregates.sum_estimator import SumAggregateEstimator
from repro.api.backend import set_default_backend
from repro.core.functions import MaxPower, MinPower
from repro.engine.kernels import MaxPowerPPSKernel, MinPowerPPSKernel
from repro.graphs.similarity import SimilarityEstimate
from repro.serving import (
    Event,
    RetentionPolicy,
    ServingClient,
    ShardRouter,
    SketchServer,
    SketchStore,
    StoreConfig,
    synthetic_feed,
)

CONFIG = StoreConfig(salt="columns")
GROUPS = ("a", "b", "c", "d")
BACKENDS = (None, "scalar", "vectorized", "auto")

#: Pairs whose ``repr`` order differs from their ``str`` order, plus
#: non-ASCII, escaped and quote-carrying keys.
ODD_KEYS = (
    "ab", "ab ", "a'b", 'a"b', "a\\b", "a\nb", "é", "Ω", "日本", "\x00z",
    "Z", "z", "",
)


def reference_similarity(store, groups):
    """``similarity`` through the generic dict-based sample and estimators."""
    samples = []
    seeds = {}
    for group in groups:
        pps = store.sketch(group, "pps")
        samples.append(
            InstanceSample(
                instance=group, tau_star=pps.tau_star, entries=dict(pps.entries)
            )
        )
        seeds.update(pps.seeds)
    sample = CoordinatedSample.from_instance_samples(samples, seeds)
    return SimilarityEstimate(
        numerator=SumAggregateEstimator(MinPower(p=1.0)).estimate(sample).value,
        denominator=SumAggregateEstimator(MaxPower(p=1.0))
        .estimate(sample)
        .value,
    ).value


def assert_pairs_match(store, pairs, backends=(None,)):
    """Each pair ``==`` its reference with ``backend`` installed as the
    process-wide policy (store queries take no per-call backend)."""
    for pair, backend in itertools.product(pairs, backends):
        previous = set_default_backend(backend)
        try:
            answer = store.query("similarity", groups=list(pair))
            expected = reference_similarity(store, pair)
        finally:
            set_default_backend(previous)
        assert answer == expected, (pair, backend)


def feed(events=600, keys=150, seed=5):
    return synthetic_feed(events, num_keys=keys, groups=GROUPS, seed=seed)


def odd_key_events():
    keys = ODD_KEYS + tuple(f"k{i}" for i in range(70))
    events = []
    for i, key in enumerate(keys):
        for group in ("u", "v"):
            if (i + len(group) + ord(group)) % 3:
                # Magnitudes spread over many decades, so a change in the
                # summation order would show in the float answer.
                weight = (1.0 + i % 7 / 3.0) * 10.0 ** ((i * 7) % 13 - 3)
                events.append(Event(key, weight, float(i), group))
    return events


def store_of(events, config=CONFIG):
    store = SketchStore(config)
    store.ingest(events)
    return store


class TestColumnarSample:
    def test_sample_is_sorted_by_repr_and_matches_the_views(self):
        store = store_of(odd_key_events())
        sample = store.coordinated_sample(["u", "v"])
        keys = sample.sampled_items()
        union = set(store.sketch("u", "pps").entries) | set(
            store.sketch("v", "pps").entries
        )
        assert keys == tuple(sorted(union, key=repr))
        assert list(keys) != sorted(keys)  # the repr order is not the str order
        batch = sample.batch()
        for row, key in enumerate(keys):
            assert batch.seeds[row] == store.seed_for(key)
            for column, group in enumerate(("u", "v")):
                weight = store.sketch(group, "pps").entries.get(key)
                if weight is None:
                    assert np.isnan(batch.values[row, column])
                else:
                    assert batch.values[row, column] == weight
        for instance, group in zip(sample.instance_samples, ("u", "v")):
            assert instance.entries == store.sketch(group, "pps").entries

    def test_a_long_key_costs_only_its_own_length(self):
        long_key = "x" * 200_000
        events = odd_key_events() + [
            Event(long_key, 1e6, 0.0, group) for group in ("u", "v")
        ]
        store = store_of(events)
        assert long_key in store.sketch("u", "pps").entries
        assert_pairs_match(store, [("u", "v")], BACKENDS)
        columns = store._pps_columns("u")
        footprint = 0
        for name, field in columns._asdict().items():
            if isinstance(field, np.ndarray):
                footprint += field.nbytes
                # The key objects themselves are shared with the ledger.
                if field.dtype == object and name != "keys":
                    footprint += sum(map(sys.getsizeof, field.tolist()))
        key_chars = sum(len(repr(key)) for key in columns.keys)
        assert footprint < 2 * key_chars + 128 * len(columns.keys)

    def test_breakdown_is_lazy_but_complete(self):
        store = store_of(feed())
        sample = store.coordinated_sample(["a", "b"])
        result = SumAggregateEstimator(MaxPower(p=1.0)).estimate(sample)
        assert len(result.items) == len(sample.sampled_items())
        assert result.items._items is None
        assert result.contributing_items == len(result.items)
        assert result.items._items is None
        assert [item.key for item in result.items] == list(sample.sampled_items())
        assert sum(item.estimate for item in result.items) == pytest.approx(
            result.value
        )


class TestSimilarityParity:
    def test_every_pair_of_a_small_feed(self):
        store = store_of(feed())
        assert_pairs_match(store, itertools.combinations(GROUPS, 2), BACKENDS)

    @pytest.mark.parametrize("tau_star", [0.5, 1.0, 3.0])
    def test_keys_whose_repr_order_differs(self, tau_star):
        store = store_of(odd_key_events(), StoreConfig(tau_star=tau_star, salt="odd"))
        assert_pairs_match(store, [("u", "v"), ("v", "u")], BACKENDS)

    def test_empty_and_absent_groups(self):
        store = store_of(feed() + [Event("tiny", 1e-9, 0.0, "empty")])
        assert len(store.sketch("empty", "pps")) == 0
        assert_pairs_match(
            store, [("a", "empty"), ("empty", "a"), ("a", "absent")], BACKENDS
        )
        assert store.query("similarity", groups=["empty", "absent"]) == 1.0

    def test_sixteen_key_pair_runs_the_kernels(self, monkeypatch):
        # Two 16-key groups whose union is 24 keys: under ``auto`` the
        # min/max L* closed forms still run as engine kernels, not as a
        # per-item loop.
        events = [
            Event(f"k{i}", 1.0 + i % 5, float(i), group)
            for group, keys in (("u", range(16)), ("v", range(8, 24)))
            for i in keys
        ]
        store = store_of(events, StoreConfig(tau_star=0.5, salt="small"))
        assert len(store.sketch("u", "pps")) == len(store.sketch("v", "pps")) == 16
        assert len(store.coordinated_sample(["u", "v"]).sampled_items()) == 24
        calls = []
        for kernel in (MinPowerPPSKernel, MaxPowerPPSKernel):
            original = kernel.estimate_batch

            def spy(self, batch, original=original):
                calls.append(type(self).__name__)
                return original(self, batch)

            monkeypatch.setattr(kernel, "estimate_batch", spy)
        assert_pairs_match(store, [("u", "v")], ("auto",))
        assert calls.count("MinPowerPPSKernel") == 2  # answer + reference
        assert calls.count("MaxPowerPPSKernel") == 2
        calls.clear()
        assert_pairs_match(store, [("u", "v")], ("scalar",))
        assert calls == []


class TestColumnInvalidation:
    def test_append_only_ingest_drops_the_columns(self):
        store = store_of(feed())
        assert_pairs_match(store, [("a", "b")])
        store.ingest([Event(f"fresh{i}", 5.0 + i, 900.0, "a") for i in range(20)])
        assert "pps" in store.group_state("a")._cache  # patched, not rebuilt
        assert_pairs_match(store, [("a", "b")])

    def test_updating_ingest_and_retention(self):
        store = store_of(feed())
        assert_pairs_match(store, [("a", "b")])
        store.ingest(feed(events=200, seed=6))
        assert_pairs_match(store, [("a", "b")])
        store.retain(RetentionPolicy(max_keys=60))
        assert_pairs_match(store, [("a", "b"), ("c", "d")])


class TestRecovery:
    def test_snapshot_and_wal_only_recovery(self, tmp_path):
        events = feed()
        expected = store_of(events)
        snapshotted = SketchStore.open(tmp_path / "snap", CONFIG)
        snapshotted.ingest(events[:300])
        snapshotted.snapshot()
        snapshotted.ingest(events[300:])
        snapshotted.close()
        wal_only = SketchStore.open(tmp_path / "wal", CONFIG)
        wal_only.ingest(events)
        wal_only.close()
        for root in ("snap", "wal"):
            recovered = SketchStore.open(tmp_path / root, CONFIG)
            try:
                for pair in itertools.combinations(GROUPS, 2):
                    answer = recovered.query("similarity", groups=list(pair))
                    assert answer == expected.query("similarity", groups=list(pair))
                assert_pairs_match(recovered, [("a", "b")])
            finally:
                recovered.close()


class TestRouted:
    def test_two_shard_router(self):
        events = feed()
        expected = store_of(events)

        async def run():
            servers = [SketchServer(SketchStore(CONFIG)) for _ in range(2)]
            for server in servers:
                await server.start()
            router = ShardRouter([[server.address] for server in servers])
            await router.start()
            client = await ServingClient.connect(*router.address)
            try:
                for start in range(0, len(events), 100):
                    await client.ingest(events[start : start + 100])
                for pair in itertools.combinations(GROUPS, 2):
                    routed = await client.query("similarity", groups=list(pair))
                    assert routed["result"] == reference_similarity(expected, pair)
            finally:
                await client.close()
                await router.stop()
                for server in servers:
                    await server.stop()

        asyncio.run(run())


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("events,keys", [(200, 60), (2000, 400), (8000, 1000)])
def test_seed_by_preload_grid(seed, events, keys):
    store = store_of(feed(events=events, keys=keys, seed=seed))
    assert_pairs_match(store, itertools.combinations(GROUPS, 2), BACKENDS)
