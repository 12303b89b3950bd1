"""Core behaviour of the sketch store: ingestion, sketches, queries, merge."""

import math

import pytest

from repro.api.backend import BackendPolicy
from repro.serving import (
    Event,
    SketchStore,
    StoreConfig,
    merge_sketch_views,
    merge_stores,
    read_events,
    shard_events,
    sketch_view_payload,
    synthetic_feed,
    write_events,
)
from repro.sketches.ads import AllDistancesSketch
from repro.sketches.bottomk import BottomKSketch, RankMethod
from repro.sketches.pps import PPSSample


CONFIG = StoreConfig(k=8, tau_star=2.0, salt="test-store")

EVENTS = [
    Event("a", 1.0, 0.0, "g1"),
    Event("b", 2.5, 1.0, "g1"),
    Event("a", 0.5, 2.0, "g1"),
    Event("c", 4.0, 3.0, "g2"),
    Event("a", 1.0, 4.0, "g2"),
]


def _store(events=EVENTS, config=CONFIG):
    store = SketchStore(config)
    store.ingest(events)
    return store


class TestIngestion:
    def test_ledger_accumulates_in_arrival_order(self):
        store = _store()
        g1 = store.group_state("g1")
        assert g1.totals == {"a": (1.0 + 0.5), "b": 2.5}
        assert g1.first_seen == {"a": 0.0, "b": 1.0}
        assert g1.events == 3
        assert store.group_state("g2").totals == {"c": 4.0, "a": 1.0}
        assert store.events_ingested == 5

    def test_groups_sorted(self):
        assert _store().groups == ["g1", "g2"]

    def test_ingest_returns_batch_count(self):
        store = SketchStore(CONFIG)
        assert store.ingest(EVENTS[:2]) == 2
        assert store.ingest([]) == 0

    def test_shared_seed_across_groups(self):
        store = _store()
        assert store.seed_for("a") == store.seed_for("a")
        pps1 = store.sketch("g1", "pps")
        pps2 = store.sketch("g2", "pps")
        assert pps1.seeds["a"] == pps2.seeds["a"]


class TestSketchViews:
    def test_kinds_and_types(self):
        store = _store()
        assert isinstance(store.sketch("g1", "bottomk"), BottomKSketch)
        assert isinstance(store.sketch("g1", "pps"), PPSSample)
        assert isinstance(store.sketch("g1", "ads"), AllDistancesSketch)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown sketch kind"):
            _store().sketch("g1", "hyperloglog")

    def test_sketches_cached_until_next_ingest(self):
        store = _store()
        first = store.sketch("g1", "bottomk")
        assert store.sketch("g1", "bottomk") is first
        store.ingest([Event("z", 1.0, 9.0, "g1")])
        assert store.sketch("g1", "bottomk") is not first
        assert "z" in store.sketch("g1", "bottomk")

    def test_empty_group_yields_empty_sketches(self):
        store = SketchStore(CONFIG)
        assert len(store.sketch("ghost", "bottomk")) == 0
        assert len(store.sketch("ghost", "pps")) == 0
        assert len(store.sketch("ghost", "ads")) == 0

    def test_temporal_ads_uses_first_seen(self):
        store = _store()
        ads = store.sketch("g1", "ads")
        # k=8 > population, so every key is retained with threshold 1.
        assert ads.distance("a") == 0.0
        assert ads.distance("b") == 1.0
        assert ads.neighborhood_cardinality_estimate(0.5) == pytest.approx(1.0)
        assert ads.neighborhood_cardinality_estimate(10.0) == pytest.approx(2.0)


class TestQueries:
    def test_sum_is_exact_at_small_scale(self):
        # k and tau small enough that every key is sampled w.p. 1 is not
        # guaranteed; instead check the HT identity per retained entry.
        store = _store()
        sums = store.query("sum")
        for group in store.groups:
            pps = store.sketch(group, "pps")
            expected = sum(
                max(w, CONFIG.tau_star) for w in pps.entries.values()
            )
            assert sums[group] == pytest.approx(expected)

    def test_sum_with_key_selection(self):
        store = _store()
        only_a = store.query("sum", keys=["a"])
        pps = store.sketch("g1", "pps")
        expected = (
            max(pps.entries["a"], CONFIG.tau_star) if "a" in pps else 0.0
        )
        assert only_a["g1"] == pytest.approx(expected)

    def test_distinct_with_horizon(self):
        store = _store()
        assert store.query("distinct", until=0.5)["g1"] == pytest.approx(1.0)
        assert store.query("distinct")["g1"] == pytest.approx(2.0)

    def test_similarity_identical_group_is_one(self):
        events = [Event("x", 2.0, 0.0, g) for g in ("p", "q")] + [
            Event("y", 3.0, 1.0, g) for g in ("p", "q")
        ]
        store = _store(events)
        assert store.query("similarity", groups=["p", "q"]) == pytest.approx(1.0)

    def test_similarity_disjoint_groups_is_zero(self):
        events = [Event("x", 2.0, 0.0, "p"), Event("y", 3.0, 0.0, "q")]
        store = _store(events)
        assert store.query("similarity", groups=["p", "q"]) == pytest.approx(0.0)

    def test_similarity_requires_two_groups(self):
        with pytest.raises(ValueError, match="exactly two groups"):
            _store().query("similarity", groups=["g1"])

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(KeyError, match="unknown serving query"):
            _store().query("median")

    def test_scalar_and_vectorized_agree(self, forced_backend):
        feed = synthetic_feed(400, num_keys=60, groups=("u", "v"), seed=11)
        store = _store(feed)
        answers = {}
        for mode in ("scalar", "vectorized"):
            with forced_backend(mode):
                answers[mode] = {
                    kind: store.query(kind) for kind in ("sum", "distinct")
                }
                answers[mode]["similarity"] = store.query(
                    "similarity", groups=["u", "v"]
                )
        scalar, vector = answers["scalar"], answers["vectorized"]
        for kind in ("sum", "distinct"):
            assert scalar[kind] == vector[kind], kind
        assert scalar["similarity"] == pytest.approx(
            vector["similarity"], rel=1e-9
        )

    def test_auto_queries_run_the_engine_kernel_at_any_size(
        self, monkeypatch, forced_backend
    ):
        # Under ``auto``, sum and distinct must reduce in the NumPy
        # kernel, not the scalar per-entry fold, however few entries the
        # groups retain: an engine path quietly falling back to scalar
        # answers the same, only slower.
        store = _store()
        assert max(len(store.sketch(g, "pps")) for g in store.groups) < 8
        resolve_exact = BackendPolicy.resolve_exact
        decisions = []

        def spy(policy):
            decision = resolve_exact(policy)
            decisions.append(decision)
            return decision

        monkeypatch.setattr(BackendPolicy, "resolve_exact", spy)
        with forced_backend("auto"):
            for kind in ("sum", "distinct"):
                decisions.clear()
                store.query(kind)
                assert decisions == ["vectorized"], kind


class TestMerge:
    def test_config_mismatch_raises(self):
        with pytest.raises(ValueError, match="different configs"):
            merge_stores(SketchStore(CONFIG), SketchStore(StoreConfig(k=9)))

    def test_merge_adds_and_takes_min_first_seen(self):
        a = _store([Event("x", 1.0, 5.0, "g")])
        b = _store([Event("x", 2.0, 3.0, "g"), Event("y", 1.0, 4.0, "g")])
        merged = merge_stores(a, b)
        state = merged.group_state("g")
        assert state.totals == {"x": 3.0, "y": 1.0}
        assert state.first_seen == {"x": 3.0, "y": 4.0}
        assert merged.events_ingested == 3

    def test_merge_is_not_idempotent(self):
        store = _store([Event("x", 1.0, 0.0, "g")])
        doubled = merge_stores(store, store)
        assert doubled.group_state("g").totals == {"x": 2.0}

    def test_merge_inputs_unchanged(self):
        a = _store([Event("x", 1.0, 0.0, "g")])
        b = _store([Event("x", 2.0, 1.0, "g")])
        merge_stores(a, b)
        assert a.group_state("g").totals == {"x": 1.0}
        assert b.group_state("g").totals == {"x": 2.0}

    def test_merging_a_view_into_a_group_drops_its_derived_reductions(self):
        config = StoreConfig(k=16, tau_star=0.5, salt="fuse")
        old = _store(synthetic_feed(400, num_keys=60, groups=("u", "v"), seed=3), config)
        new = _store(synthetic_feed(400, num_keys=60, groups=("u", "v"), seed=4), config)
        fused = merge_sketch_views(config, [sketch_view_payload(old, kinds=("pps",))])
        # Prime the derived reductions of both groups, then replace u's view.
        fused.query("sum")
        fused.query("similarity", groups=["u", "v"])
        replacement = sketch_view_payload(new, groups=["u"], kinds=("pps",))
        merge_sketch_views(config, [replacement], into=fused)
        fresh = merge_sketch_views(
            config,
            [replacement, sketch_view_payload(old, groups=["v"], kinds=("pps",))],
        )
        assert fused.query("sum") == fresh.query("sum")
        assert fused.query("similarity", groups=["u", "v"]) == fresh.query(
            "similarity", groups=["u", "v"]
        )


class TestCoordinatedSampleBridge:
    def test_estimators_accept_store_samples(self):
        from repro.aggregates.sum_estimator import estimate_lpp
        from repro.aggregates.exact import lpp_difference
        from repro.aggregates.dataset import MultiInstanceDataset
        import warnings

        feed = synthetic_feed(600, num_keys=40, groups=("u", "v"), seed=2)
        store = _store(feed, StoreConfig(k=64, tau_star=0.5, salt="bridge"))
        sample = store.coordinated_sample(["u", "v"])
        estimate = estimate_lpp(sample, p=1.0, backend="scalar")
        dataset = MultiInstanceDataset.from_instance_maps(
            [
                store.group_state("u").totals,
                store.group_state("v").totals,
            ],
            instance_names=["u", "v"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            truth = lpp_difference(dataset, 1.0)
        assert estimate == pytest.approx(truth, rel=0.35)


class TestEventFeed:
    def test_feed_roundtrip(self, tmp_path):
        feed = synthetic_feed(50, num_keys=10, groups=("a", "b"), seed=1)
        path = write_events(tmp_path / "feed.jsonl", feed)
        assert list(read_events(path)) == feed

    def test_synthetic_feed_is_deterministic(self):
        assert synthetic_feed(30, seed=4) == synthetic_feed(30, seed=4)
        assert synthetic_feed(30, seed=4) != synthetic_feed(30, seed=5)

    def test_malformed_feed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"key": "a", "weight": 1.0, "timestamp": 0}\n{oops\n')
        with pytest.raises(ValueError, match="malformed feed line"):
            list(read_events(path))

    def test_shard_events_routes_by_key_and_preserves_order(self):
        feed = synthetic_feed(200, num_keys=30, groups=("a", "b"), seed=9)
        shards = shard_events(feed, 4)
        assert sum(len(s) for s in shards) == len(feed)
        routes = {}
        for index, shard in enumerate(shards):
            for event in shard:
                assert routes.setdefault((event.group, event.key), index) == index
        for shard in shards:
            times = [e.timestamp for e in shard]
            assert times == sorted(times)

    def test_shard_events_validates_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_events([], 0)
