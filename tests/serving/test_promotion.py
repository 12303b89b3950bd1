"""Failover promotion battery: kill a shard primary, promote, converge.

The contract under fault: when a shard primary dies, the router's next
request against that shard re-scans the endpoint chain, promotes the
shard's (converged) promotable replica over the wire, and keeps
serving — with **every durably-acknowledged batch intact**, pinned by
bit-identical query parity against an unsharded store holding exactly
the acknowledged events.  The tests converge the replica before the
kill, which is what makes "acknowledged" and "shipped" coincide (the
asynchronous-replication caveat the promotion runbook documents).

Also pinned: the typed ``ShardUnavailable`` a client sees when a
shard's *whole* chain is down (double failure) — with a ``retry_after``
hint and without wedging the router for other operations — promotion
idempotence under the router's concurrent failover scans, the refusal
of ``promote`` on a follower not started promotable, and the
warm-start hub reseed that keeps followers of a restarted (or
promoted) primary from looping on bootstraps.
"""

import asyncio
from contextlib import asynccontextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serving import (
    PromotableReplica,
    ReplicaFollower,
    ServingClient,
    ServingError,
    ShardRouter,
    ShardUnavailable,
    SketchServer,
    SketchStore,
    StoreConfig,
    promote_follower,
    synthetic_feed,
)
from repro.serving.chaos import crash_server

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="promotion")


async def wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


@asynccontextmanager
async def failover_cluster():
    """Two shards behind a router; shard 0 has a promotable replica."""
    primary0 = SketchServer(SketchStore(CONFIG))
    primary1 = SketchServer(SketchStore(CONFIG))
    await primary0.start()
    await primary1.start()
    replica = PromotableReplica(
        SketchStore(CONFIG), *primary0.address, backoff=0.01
    )
    await replica.start()
    router = ShardRouter(
        [[primary0.address, replica.address], [primary1.address]],
        retry_after=0.02,
        backoff=0.01,
    )
    await router.start()
    client = await ServingClient.connect(*router.address, backoff=0.01)
    try:
        yield client, router, primary0, primary1, replica
    finally:
        await client.close()
        await router.stop()
        await replica.stop()
        await primary1.stop()
        await primary0.stop()


async def assert_routed_parity(client, events):
    baseline = SketchStore(CONFIG)
    baseline.ingest(events)
    for kind in ("sum", "distinct"):
        routed = await client.query(kind)
        assert routed["result"] == baseline.query(kind), kind
        assert routed["watermark"] == baseline.events_ingested
    routed = await client.query("similarity", groups=["g1", "g2"])
    assert routed["result"] == baseline.query(
        "similarity", groups=["g1", "g2"]
    )


class TestFailoverPromotion:
    def test_killed_primary_promotes_and_loses_no_acked_batch(self):
        async def run():
            feed = synthetic_feed(
                300, num_keys=50, groups=("g1", "g2"), seed=21
            )
            async with failover_cluster() as (
                client,
                router,
                primary0,
                _primary1,
                replica,
            ):
                # Acknowledge a prefix through the router, then let the
                # replica converge to the primary's shipped watermark.
                acked = feed[:200]
                for start in range(0, len(acked), 40):
                    await client.ingest(acked[start : start + 40])
                await wait_for(
                    lambda: replica.store.events_ingested
                    == primary0.store.events_ingested
                )
                # Kill shard 0's primary between batches (its socket
                # dies with every connection, like a kill -9 would).
                await primary0.stop()
                # The next routed ingest hits the dead primary, fails
                # over along the chain, promotes the replica, and
                # re-sends — mid-stream ingest keeps flowing.
                for start in range(200, len(feed), 40):
                    await client.ingest(feed[start : start + 40])
                assert replica.promoted
                assert replica.server.read_only is False
                # No acknowledged batch was lost: answers are
                # bit-identical to an unsharded store holding exactly
                # the acknowledged events.
                await assert_routed_parity(client, feed)
                info = await client.info()
                assert info["events_ingested"] == len(feed)
                assert info["shards"][0]["failovers"] == 1
                snapshot = router.metrics.snapshot()
                assert (
                    snapshot["counters"][
                        'router_promotions_total{shard="0"}'
                    ]
                    == 1
                )

        asyncio.run(run())

    def test_failover_with_a_warm_view_cache(self):
        async def run():
            feed = synthetic_feed(
                240, num_keys=50, groups=("g1", "g2"), seed=23
            )
            async with failover_cluster() as (
                client,
                _router,
                primary0,
                _primary1,
                replica,
            ):
                acked = feed[:160]
                for start in range(0, len(acked), 40):
                    await client.ingest(acked[start : start + 40])
                await wait_for(
                    lambda: replica.store.events_ingested
                    == primary0.store.events_ingested
                )
                # Warm the view cache and the fused store, then kill.
                await assert_routed_parity(client, acked)
                await primary0.stop()
                # The first query after the kill fails over and promotes
                # mid-gather; the cache of the dead primary's epoch must
                # not answer for the promoted one.
                await assert_routed_parity(client, acked)
                assert replica.promoted
                for start in range(160, len(feed), 40):
                    await client.ingest(feed[start : start + 40])
                await assert_routed_parity(client, feed)

        asyncio.run(run())

    def test_double_failure_is_typed_unavailability_not_a_wedge(self):
        async def run():
            feed = synthetic_feed(
                100, num_keys=20, groups=("g1", "g2"), seed=22
            )
            async with failover_cluster() as (
                client,
                router,
                primary0,
                _primary1,
                replica,
            ):
                await client.ingest(feed)
                await wait_for(
                    lambda: replica.store.events_ingested
                    == primary0.store.events_ingested
                )
                # Both of shard 0's endpoints die: primary and replica.
                await primary0.stop()
                await replica.stop()
                with pytest.raises(ShardUnavailable) as excinfo:
                    await client.query("sum")
                assert excinfo.value.retry_after > 0
                assert "shard 0" in str(excinfo.value)
                # The router itself is not wedged: it still answers
                # non-routed operations and counts the refusals.
                assert (await client.ping())["result"] == "pong"
                snapshot = router.metrics.snapshot()
                assert (
                    snapshot["counters"]["router_unavailable_total"] >= 1
                )

        asyncio.run(run())


class TestSyncAckFailover:
    def test_kill_mid_quorum_keeps_every_durable_ack(self):
        """``--sync-ack`` closes the promotion loss window.

        A quorum-of-two primary is killed with an ack wait potentially
        still in flight; the router promotes the most-advanced replica
        and **every** batch acked ``durable: true`` is inside the
        promoted watermark — the runbook's loss caveat only applies
        with sync-ack off.
        """

        async def run():
            feed = synthetic_feed(
                240, num_keys=40, groups=("g1", "g2"), seed=27
            )
            primary = SketchServer(
                SketchStore(CONFIG), sync_ack=2, ack_timeout=2.0
            )
            await primary.start()
            replicas = [
                PromotableReplica(
                    SketchStore(CONFIG), *primary.address, backoff=0.01
                )
                for _ in range(2)
            ]
            for replica in replicas:
                await replica.start()
            await wait_for(lambda: primary.acks.subscribers == 2)
            router = ShardRouter(
                [
                    [
                        primary.address,
                        replicas[0].address,
                        replicas[1].address,
                    ]
                ],
                retry_after=0.02,
                backoff=0.01,
            )
            await router.start()
            client = await ServingClient.connect(*router.address, backoff=0.01)

            acked = []
            for start in range(0, 160, 20):
                response = await client.ingest(feed[start : start + 20])
                acked.append((response["watermark"], response["durable"]))
            # Two live, caught-up followers: the full quorum confirms
            # every batch.
            assert all(durable for _, durable in acked)

            # Kill mid-quorum: a direct ingest may be parked in the ack
            # wait when the crash lands; it is unacked (lossable) if
            # the connection dies first, durably acked otherwise.
            direct = await ServingClient.connect(
                *primary.address, max_retries=0
            )
            pending = asyncio.create_task(direct.ingest(feed[160:180]))
            await asyncio.sleep(0.005)
            await crash_server(primary)
            try:
                acked.append(
                    ((await pending)["watermark"], (await pending)["durable"])
                )
            except (ServingError, ConnectionError, OSError):
                pass
            await direct.close()

            info = await client.info()
            promoted = [r for r in replicas if r.promoted]
            assert len(promoted) == 1
            watermark = info["events_ingested"]
            for batch_watermark, durable in acked:
                if durable:
                    assert batch_watermark <= watermark

            # Resume from the promoted cut and converge on the full
            # feed, bit-identically.
            for start in range(watermark, len(feed), 20):
                await client.ingest(feed[start : start + 20])
            await assert_routed_parity(client, feed)

            await client.close()
            await router.stop()
            for replica in replicas:
                await replica.stop()

        asyncio.run(run())

    def test_degraded_acks_surface_in_info_counters(self):
        async def run():
            # A quorum that can never form: acks degrade, and the
            # degradation is visible — in the reply and in ``info``.
            async with SketchServer(
                SketchStore(CONFIG), sync_ack=3, ack_timeout=0.05
            ) as server:
                client = await ServingClient.connect(*server.address)
                first = await client.ingest(
                    synthetic_feed(30, num_keys=8, groups=("g1",), seed=28)
                )
                assert first["ok"] is True and first["durable"] is False
                info = await client.info()
                assert info["durability"]["sync_ack"] == 3
                assert info["durability"]["degraded_acks"] == 1
                assert info["durability"]["durable_acks"] == 0
                await client.close()

        asyncio.run(run())

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("ingest"), st.integers(min_value=1, max_value=25)
                ),
                st.tuples(
                    st.just("evict"), st.integers(min_value=1, max_value=12)
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_sync_ack_converges_under_mixed_schedules(self, ops):
        """Sync-ack composed with eviction/retention, hypothesis-drawn.

        Every ingest ack must come back durable (the single follower
        acks each entry, evictions included, so the covering offset is
        always confirmed), and the follower ends ``==`` the primary.
        """

        async def run():
            store = SketchStore(CONFIG)
            server = SketchServer(store, sync_ack=1, ack_timeout=5.0)
            await server.start()
            follower = ReplicaFollower(
                SketchStore(CONFIG), *server.address, backoff=0.01
            )
            task = asyncio.create_task(follower.run())
            await wait_for(lambda: server.acks.subscribers == 1)
            client = await ServingClient.connect(*server.address)
            events = iter(
                synthetic_feed(
                    400, num_keys=40, groups=("g1", "g2"), seed=29
                )
            )
            for op, arg in ops:
                if op == "ingest":
                    batch = [e for _, e in zip(range(arg), events)]
                    response = await client.ingest(batch)
                    assert response["durable"] is True
                else:
                    await client.evict(max_keys=arg)
            # Converged means the hub *offset* is applied, not just the
            # watermark: a trailing eviction entry moves no watermark.
            await wait_for(
                lambda: (follower.offset or 0) == server.replication.offset
            )
            assert follower.watermark == store.events_ingested
            assert follower.store.groups == store.groups
            for group in store.groups:
                assert (
                    follower.store.group_state(group).totals
                    == store.group_state(group).totals
                )
            assert follower.store.query("sum") == store.query("sum")
            assert follower.store.query("distinct") == store.query("distinct")
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await client.close()
            await server.stop()

        asyncio.run(run())


class TestPromotionMechanics:
    def test_promote_is_idempotent(self):
        async def run():
            primary = SketchServer(SketchStore(CONFIG))
            await primary.start()
            feed = synthetic_feed(80, num_keys=16, groups=("g1",), seed=23)
            pclient = await ServingClient.connect(*primary.address)
            await pclient.ingest(feed)
            replica = PromotableReplica(
                SketchStore(CONFIG), *primary.address, backoff=0.01
            )
            await replica.start()
            await wait_for(
                lambda: replica.store.events_ingested == len(feed)
            )
            first = await replica.promote()
            second = await replica.promote()
            assert first == second == {"watermark": len(feed), "offset": 0}
            # Over the wire, a promoted (writable) server acknowledges
            # without re-promoting — the router's concurrent failover
            # scans rely on this.
            rclient = await ServingClient.connect(*replica.address)
            response = await rclient.request("promote")
            assert response["promoted"] is False
            assert response["watermark"] == len(feed)
            # The promoted front-end accepts ingest now.
            more = synthetic_feed(10, num_keys=4, groups=("g1",), seed=24)
            assert (await rclient.ingest(more))["watermark"] == len(feed) + 10
            await rclient.close()
            await pclient.close()
            await replica.stop()
            await primary.stop()

        asyncio.run(run())

    def test_promote_refused_without_a_promoter(self):
        async def run():
            primary = SketchServer(SketchStore(CONFIG))
            await primary.start()
            follower_server = SketchServer(SketchStore(CONFIG), read_only=True)
            await follower_server.start()
            client = await ServingClient.connect(*follower_server.address)
            with pytest.raises(ServingError, match="no promoter"):
                await client.request("promote")
            await client.close()
            await follower_server.stop()
            await primary.stop()

        asyncio.run(run())

    def test_promote_follower_reseeds_the_hub(self):
        async def run():
            store = SketchStore(CONFIG)
            store.ingest(
                synthetic_feed(60, num_keys=12, groups=("g1",), seed=25)
            )
            server = SketchServer(store, read_only=True)
            # Before start the hub is pristine; make_writable via
            # promote_follower must adopt the store's watermark so new
            # followers subscribe against a truthful cut.
            payload = promote_follower(server)
            assert payload == {"watermark": 60, "offset": 0}
            assert server.replication.watermark == 60
            assert server.read_only is False

        asyncio.run(run())


class TestWarmStartReseed:
    def test_follower_of_a_warm_started_primary_converges(self):
        async def run():
            # A primary started over a recovered (warm) store: without
            # the start-time hub reseed its watermark would read 0
            # against a store at 120, and a fresh follower would loop
            # on bootstraps until ReplicationError.
            store = SketchStore(CONFIG)
            store.ingest(
                synthetic_feed(120, num_keys=24, groups=("g1", "g2"), seed=26)
            )
            async with SketchServer(store) as primary:
                assert primary.replication.watermark == 120
                follower = ReplicaFollower(
                    SketchStore(CONFIG), *primary.address, backoff=0.01
                )
                await follower.sync_once()
                assert follower.store.events_ingested == 120
                for kind in ("sum", "distinct"):
                    assert follower.store.query(kind) == store.query(kind)

        asyncio.run(run())
