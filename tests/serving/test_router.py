"""Scatter-gather parity suite for the shard router.

The router's contract is the serving layer's strongest promise, so it is
enforced at the strongest granularity: every routed ``sum`` /
``distinct`` / ``similarity`` answer must be **bit-identical** (``==``,
never ``approx``) to the same query against one unsharded
:class:`SketchStore` holding the same events at the same watermark cut —
for 1, 2, and 4 shards, on hypothesis-drawn feeds, across key subsets
and time horizons.  The mechanism under test: key-routed ingest keeps
every key's weight on exactly one shard, shipped sketch views merge
exactly over disjoint populations, and the fused views answer through
the identical store-query code path, so no floating-point reduction
ever runs in a different order than it would unsharded.

Also pinned here: the per-shard watermark vector on every routed
answer (the cut of the gathered views, even when an ingest lands
mid-gather), the per-``(group, kind)`` view cache tagged by
``(offset, watermark)`` (any subset of fetched groups hits and fuses
nothing new; ingest and eviction invalidate), TTL eviction parity, and
the router's typed rejection of unroutable requests.  The exhaustive shard-count × op grid
runs under ``pytest -m slow``; failover and promotion live in
``test_promotion.py``.
"""

import asyncio
from contextlib import asynccontextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serving.router as router_module
from repro.serving import (
    Event,
    ServingClient,
    ServingError,
    ShardRouter,
    SketchServer,
    SketchStore,
    StoreConfig,
    shard_events,
    synthetic_feed,
)

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="router")

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def event_streams(max_events=60):
    """Streams of events over a small key/group universe."""
    weights = st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    )
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=24),
            weights,
            st.sampled_from(["g1", "g2", "g3"]),
        ),
        max_size=max_events,
    ).map(
        lambda rows: [
            Event(f"k{key}", weight, float(t), group)
            for t, (key, weight, group) in enumerate(rows)
        ]
    )


@asynccontextmanager
async def router_cluster(num_shards, config=CONFIG, **router_kwargs):
    """``num_shards`` in-process primaries behind a router, plus a client."""
    servers = [SketchServer(SketchStore(config)) for _ in range(num_shards)]
    for server in servers:
        await server.start()
    router = ShardRouter(
        [[server.address] for server in servers], **router_kwargs
    )
    await router.start()
    client = await ServingClient.connect(*router.address)
    try:
        yield router, client, servers
    finally:
        await client.close()
        await router.stop()
        for server in servers:
            await server.stop()


async def ingest_via(client, events, batch=17):
    for start in range(0, len(events), batch):
        await client.ingest(events[start : start + batch])


async def assert_parity(client, events, num_shards):
    """Every query kind, against every selection shape, must be ``==``.

    The baseline is rebuilt per pass because a ``SketchStore``
    materialises a group on first access: a ``groups=["g1"]`` query
    against a store that never saw ``g1`` leaves an empty ``g1`` behind,
    which would contaminate later default-selection queries.  Queries
    with explicit group selections therefore also run *after* the
    default-selection ones.
    """
    baseline = SketchStore(CONFIG)
    baseline.ingest(events)
    watermark = baseline.events_ingested
    for query_kwargs in (
        {"kind": "sum"},
        {"kind": "sum", "keys": ["k0", "k3", "k17", "k24"]},
        {"kind": "distinct"},
        {"kind": "distinct", "until": watermark / 2.0},
        {"kind": "distinct", "until": 0.0},
        {"kind": "sum", "groups": ["g1"]},
        {"kind": "similarity", "groups": ["g1", "g2"]},
        {"kind": "similarity", "groups": ["g2", "g3"]},
    ):
        routed = await client.query(**query_kwargs)
        expected = baseline.query(
            query_kwargs["kind"],
            groups=query_kwargs.get("groups"),
            keys=query_kwargs.get("keys"),
            until=query_kwargs.get("until"),
        )
        assert routed["result"] == expected, query_kwargs
        assert routed["watermark"] == watermark, query_kwargs
        assert len(routed["watermarks"]) == num_shards
        assert sum(routed["watermarks"]) == watermark


class TestRoutedParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @given(events=event_streams())
    @SETTINGS
    def test_routed_answers_match_unsharded_store(self, num_shards, events):
        async def run():
            async with router_cluster(num_shards) as (_router, client, _s):
                await ingest_via(client, events)
                await assert_parity(client, events, num_shards)

        asyncio.run(run())

    def test_ingest_acknowledgement_carries_watermark_vector(self):
        async def run():
            feed = synthetic_feed(
                120, num_keys=30, groups=("g1", "g2"), seed=5
            )
            async with router_cluster(2) as (_router, client, servers):
                response = await client.ingest(feed)
                assert response["ingested"] == 120
                assert response["watermark"] == 120
                assert response["watermarks"] == [
                    server.store.events_ingested for server in servers
                ]
                # Key-routed: both shards hold a nonempty part.
                assert all(w > 0 for w in response["watermarks"])

        asyncio.run(run())

    def test_routed_answers_track_interleaved_ingest(self):
        async def run():
            feed = synthetic_feed(
                150, num_keys=25, groups=("g1", "g2", "g3"), seed=9
            )
            async with router_cluster(4) as (_router, client, _servers):
                for start in range(0, len(feed), 50):
                    await client.ingest(feed[start : start + 50])
                    await assert_parity(client, feed[: start + 50], 4)

        asyncio.run(run())

    def test_wire_backend_field_is_ignored(self):
        # An older client's per-request ``backend`` rides through the
        # router to the fused store, which ignores it like a server does.
        async def run():
            feed = synthetic_feed(
                150, num_keys=25, groups=("g1", "g2"), seed=13
            )
            async with router_cluster(2) as (_router, client, _servers):
                await client.ingest(feed)
                for frame in (
                    {"kind": "sum"},
                    {"kind": "distinct", "until": 75.0},
                    {"kind": "similarity", "groups": ["g1", "g2"]},
                ):
                    plain = await client.request("query", **frame)
                    legacy = await client.request(
                        "query", backend="scalar", **frame
                    )
                    assert legacy["result"] == plain["result"], frame

        asyncio.run(run())

    def test_answer_reports_the_cut_of_its_gathered_views(self):
        async def run():
            feed = synthetic_feed(
                160, num_keys=40, groups=("g1", "g2"), seed=13
            )
            async with router_cluster(2) as (_router, client, servers):
                await client.ingest(feed[:100])
                # Hold shard 1's view until a routed ingest has landed,
                # so shard 0's view is gathered at an earlier cut.
                held, release = asyncio.Event(), asyncio.Event()
                dispatch = servers[1]._dispatch

                async def hold_views(payload, writer):
                    if payload.get("op") == "shard_view":
                        held.set()
                        await release.wait()
                    return await dispatch(payload, writer)

                servers[1]._dispatch = hold_views
                query = asyncio.create_task(client.query("sum"))
                await held.wait()
                ingested = await client.ingest(feed[100:])
                release.set()
                routed = await query
                baseline = SketchStore(CONFIG)
                for shard, watermark in zip(
                    shard_events(feed, 2), routed["watermarks"]
                ):
                    baseline.ingest(shard[:watermark])
                assert routed["watermark"] == baseline.events_ingested
                assert routed["result"] == baseline.query("sum")
                # The hold did split the cut: shard 0 answered before
                # the ingest reached it.
                assert routed["watermarks"][0] < ingested["watermarks"][0]

        asyncio.run(run())


def cache_hits(router):
    return sum(
        value
        for name, value in router.metrics.snapshot()["counters"].items()
        if name.startswith("router_view_cache_hits_total")
    )


class TestViewCache:
    def test_views_are_cached_per_group_and_fused_once(self, monkeypatch):
        fuses = []
        merge = router_module.merge_sketch_views

        def counting_merge(*args, **kwargs):
            fuses.append(args)
            return merge(*args, **kwargs)

        monkeypatch.setattr(router_module, "merge_sketch_views", counting_merge)

        async def run():
            feed = synthetic_feed(
                150, num_keys=30, groups=("g1", "g2", "g3"), seed=1
            )
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            async with router_cluster(2) as (router, client, _servers):
                await client.ingest(feed)
                routed = await client.query("sum", groups=["g1", "g2", "g3"])
                assert routed["result"] == baseline.query(
                    "sum", groups=["g1", "g2", "g3"]
                )
                assert len(fuses) == 1
                # Any subset of the fetched groups, for any query kind
                # that needs the same sketch kind, ships no view.
                for kind, groups in (
                    ("sum", ["g2"]),
                    ("sum", ["g1", "g3"]),
                    ("similarity", ["g1", "g3"]),
                ):
                    hits = cache_hits(router)
                    routed = await client.query(kind, groups=groups)
                    assert routed["result"] == baseline.query(
                        kind, groups=groups
                    )
                    assert cache_hits(router) == hits + 2  # both shards
                assert len(fuses) == 1
                # An ingest moves the shards' tags: re-fetch, fuse anew.
                more = synthetic_feed(
                    40, num_keys=30, groups=("g1", "g2", "g3"), seed=4
                )
                baseline.ingest(more)
                await client.ingest(more)
                hits = cache_hits(router)
                routed = await client.query("sum", groups=["g2"])
                assert routed["result"] == baseline.query("sum", groups=["g2"])
                assert routed["watermark"] == baseline.events_ingested
                assert cache_hits(router) < hits + 2
                assert len(fuses) == 2

        asyncio.run(run())

    def test_phantom_group_does_not_leak_into_default_selection(self):
        async def run():
            feed = synthetic_feed(80, num_keys=20, groups=("g1", "g2"), seed=6)
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            expected = baseline.query("sum")
            async with router_cluster(2) as (_router, client, _servers):
                # An empty selection on a cold cache is a miss, not a hit.
                routed = await client.query("sum", groups=[])
                assert routed["result"] == {}
                await client.ingest(feed)
                routed = await client.query("sum", groups=["absent"])
                assert routed["result"] == {"absent": 0.0}
                # The fused store materialised "absent" while answering;
                # the default selection is the gathered groups only.
                routed = await client.query("sum")
                assert routed["result"] == expected

        asyncio.run(run())

    def test_ingest_and_evict_both_invalidate_cached_views(self):
        async def run():
            feed = synthetic_feed(100, num_keys=20, groups=("g1",), seed=2)
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            async with router_cluster(2) as (_router, client, _servers):
                await client.ingest(feed)
                assert (await client.query("sum"))[
                    "result"
                ] == baseline.query("sum")
                # Ingest bumps offset and watermark; the cached views
                # must refresh.
                more = synthetic_feed(
                    40, num_keys=20, groups=("g1",), seed=3
                )
                baseline.ingest(more)
                await client.ingest(more)
                assert (await client.query("sum"))[
                    "result"
                ] == baseline.query("sum")
                # Eviction bumps only the offset (the watermark stays),
                # which is exactly why the view tag carries both.
                from repro.serving import RetentionPolicy, apply_retention

                now = max(event.timestamp for event in feed) + 200.0
                apply_retention(
                    baseline, RetentionPolicy(ttl=50.0), now=now
                )
                await client.evict(ttl=50.0, now=now)
                routed = await client.query("sum")
                assert routed["result"] == baseline.query("sum")
                assert routed["watermark"] == baseline.events_ingested

        asyncio.run(run())


class TestRoutedEviction:
    def test_ttl_eviction_parity_with_unsharded_store(self):
        async def run():
            from repro.serving import RetentionPolicy, apply_retention

            feed = synthetic_feed(
                200, num_keys=40, groups=("g1", "g2"), seed=7
            )
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            now = max(event.timestamp for event in feed) + 10.0
            expected = apply_retention(
                baseline, RetentionPolicy(ttl=60.0), now=now
            )
            async with router_cluster(2) as (_router, client, _servers):
                await ingest_via(client, feed)
                response = await client.evict(ttl=60.0, now=now)
                # TTL decisions are per key, and key routing keeps each
                # key whole on one shard, so the evicted sets coincide
                # (shard order scrambles only the concatenation order).
                for group in expected:
                    assert sorted(response["evicted"].get(group, [])) == (
                        sorted(expected[group])
                    )
                for kind in ("sum", "distinct"):
                    routed = await client.query(kind)
                    assert routed["result"] == baseline.query(kind)
                    assert routed["watermark"] == baseline.events_ingested

        asyncio.run(run())


class TestRouterRejections:
    def test_unroutable_ops_and_bad_queries_are_typed_errors(self):
        async def run():
            feed = synthetic_feed(50, num_keys=10, groups=("g1",), seed=4)
            async with router_cluster(2) as (_router, client, _servers):
                await client.ingest(feed)
                with pytest.raises(ServingError, match="does not serve"):
                    await client.request("repl_subscribe", after_offset=0)
                with pytest.raises(ServingError, match="does not serve"):
                    await client.request("repl_snapshot")
                with pytest.raises(ServingError, match="unknown routed"):
                    await client.query("frobnicate")
                with pytest.raises(ServingError, match="exactly two"):
                    await client.query(
                        "similarity", groups=["g1", "g1", "g1"]
                    )
                # None of that wedged the scatter-gather path.
                assert (await client.query("sum"))["watermark"] == 50

        asyncio.run(run())

    def test_router_info_aggregates_the_shards(self):
        async def run():
            feed = synthetic_feed(
                90, num_keys=18, groups=("g1", "g2"), seed=6
            )
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            async with router_cluster(3) as (_router, client, _servers):
                await client.ingest(feed)
                info = await client.info()
                assert info["router"] is True
                assert info["events_ingested"] == 90
                assert info["groups"] == baseline.groups
                assert info["config"] == CONFIG.to_dict()
                assert len(info["shards"]) == 3
                for group in baseline.groups:
                    assert info["keys"][group] == len(
                        baseline.group_state(group).totals
                    )

        asyncio.run(run())

    def test_ingest_propagates_weakest_shard_durability(self):
        async def run():
            from repro.serving import ReplicaFollower

            feed = synthetic_feed(
                60, num_keys=24, groups=("g1", "g2"), seed=8
            )
            # Shard 0: sync-ack with a live acking follower — its acks
            # come back durable.  Shard 1: sync-ack but no follower —
            # every ack degrades after its (short) timeout.
            durable_shard = SketchServer(
                SketchStore(CONFIG), sync_ack=1, ack_timeout=5.0
            )
            degraded_shard = SketchServer(
                SketchStore(CONFIG), sync_ack=1, ack_timeout=0.05
            )
            await durable_shard.start()
            await degraded_shard.start()
            follower = ReplicaFollower(
                SketchStore(CONFIG), *durable_shard.address, backoff=0.01
            )
            task = asyncio.create_task(follower.run())
            for _ in range(500):
                if durable_shard.acks.subscribers:
                    break
                await asyncio.sleep(0.01)

            router = ShardRouter(
                [[durable_shard.address], [degraded_shard.address]]
            )
            await router.start()
            client = await ServingClient.connect(*router.address)
            # Weakest-shard semantics: one degraded shard makes the
            # whole routed ack non-durable.
            response = await client.ingest(feed)
            assert response["durable"] is False
            info = await client.info()
            assert info["durability"]["sync_ack"] == [1, 1]
            assert info["durability"]["degraded_acks"] >= 1
            assert info["durability"]["durable_acks"] >= 1
            await client.close()
            await router.stop()

            # All shards durable: the routed ack is durable.
            solo = ShardRouter([[durable_shard.address]])
            await solo.start()
            solo_client = await ServingClient.connect(*solo.address)
            response = await solo_client.ingest(feed)
            assert response["durable"] is True
            await solo_client.close()
            await solo.stop()

            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await durable_shard.stop()
            await degraded_shard.stop()

        asyncio.run(run())

    def test_async_shards_report_no_durability(self):
        async def run():
            feed = synthetic_feed(
                40, num_keys=16, groups=("g1",), seed=9
            )
            async with router_cluster(2) as (_router, client, _servers):
                # No shard runs sync-ack: durability reporting is
                # absent, not a confident lie in either direction.
                response = await client.ingest(feed)
                assert "durable" not in response
                info = await client.info()
                assert info["durability"]["sync_ack"] == [None, None]

        asyncio.run(run())

    def test_config_mismatch_is_refused_at_start(self):
        async def run():
            matched = SketchServer(SketchStore(CONFIG))
            mismatched = SketchServer(
                SketchStore(StoreConfig(k=8, tau_star=0.75, salt="router"))
            )
            await matched.start()
            await mismatched.start()
            router = ShardRouter([[matched.address], [mismatched.address]])
            try:
                with pytest.raises(ValueError, match="config"):
                    await router.start()
            finally:
                await router.stop()
                await matched.stop()
                await mismatched.stop()

        asyncio.run(run())


@pytest.mark.slow
class TestExhaustiveRoutedGrid:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 6, 8])
    def test_shard_count_times_op_grid(self, num_shards):
        async def run():
            feed = synthetic_feed(
                400, num_keys=80, groups=("g1", "g2", "g3"), seed=13
            )
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            horizon = max(event.timestamp for event in feed)
            async with router_cluster(num_shards) as (_r, client, _s):
                await ingest_via(client, feed, batch=37)
                for groups in (
                    None,
                    ["g1"],
                    ["g2", "g3"],
                    ["g1", "g2", "g3"],
                ):
                    routed = await client.query("sum", groups=groups)
                    assert routed["result"] == baseline.query(
                        "sum", groups=groups
                    )
                for until in (None, 0.0, horizon / 4, horizon / 2, horizon):
                    routed = await client.query("distinct", until=until)
                    assert routed["result"] == baseline.query(
                        "distinct", until=until
                    )
                for pair in (["g1", "g2"], ["g1", "g3"], ["g2", "g3"]):
                    routed = await client.query("similarity", groups=pair)
                    assert routed["result"] == baseline.query(
                        "similarity", groups=pair
                    )

        asyncio.run(run())
