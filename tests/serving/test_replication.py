"""Replication convergence: follower state is ``==`` to the primary's.

The invariant (see :mod:`repro.serving.replication`): after **any**
interleaving of ingest, eviction, snapshot bootstrap, and failover, a
follower that has applied the stream up to the primary's watermark
holds a ledger equal (``==``) to the primary's — and therefore answers
every query bit-identically.  Hypothesis drives randomized schedules
against the protocol objects directly; the TCP tests cover the wire
path (cold bootstrap, incremental catch-up, buffer-overflow resets,
killed-primary failover, durable follower restart), fabricating crashes
the way ``test_fault_injection.py`` does — by stopping servers with
connections still open and reopening directories mid-stream.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    EventBatch,
    ReplicaFollower,
    ReplicationError,
    ReplicationHub,
    ServingClient,
    SketchServer,
    SketchStore,
    StoreConfig,
    synthetic_feed,
)
from repro.serving.replication import (
    AckTracker,
    apply_entry,
    install_snapshot,
    snapshot_payload,
)
from repro.serving.resilience import RetryPolicy, VirtualClock
from repro.serving.retention import RetentionPolicy, apply_retention

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="repl")


def feed(n=200, seed=7):
    return synthetic_feed(n, num_keys=40, groups=("g1", "g2"), seed=seed)


def assert_stores_equal(follower, primary):
    """Ledgers, sketch views, and query answers are all ``==``."""
    assert follower.events_ingested == primary.events_ingested
    assert follower.groups == primary.groups
    for group in primary.groups:
        ours, theirs = follower.group_state(group), primary.group_state(group)
        assert ours.totals == theirs.totals
        assert ours.first_seen == theirs.first_seen
        assert ours.last_seen == theirs.last_seen
        assert ours.events == theirs.events
        for kind in ("bottomk", "pps", "ads"):
            assert (
                follower.sketch(group, kind).entries
                == primary.sketch(group, kind).entries
            )
    assert follower.query("sum") == primary.query("sum")
    assert follower.query("distinct") == primary.query("distinct")
    if len(primary.groups) >= 2:
        pair = primary.groups[:2]
        assert follower.query("similarity", groups=pair) == primary.query(
            "similarity", groups=pair
        )


class TestReplicationHub:
    def test_offsets_and_watermarks_advance(self):
        hub = ReplicationHub(capacity=8)
        events = feed(10)
        hub.record_events(events[:4], watermark=4)
        hub.record_events(events[4:10], watermark=10)
        hub.record_evict({"g1": ["k"]}, watermark=10)
        assert hub.offset == 3
        assert hub.watermark == 10
        assert [offset for offset, _ in hub.frames_after(0)] == [1, 2, 3]
        assert hub.frames_after(2) == [hub.frames_after(0)[-1]]
        assert hub.frames_after(3) == []

    def test_empty_records_are_skipped(self):
        hub = ReplicationHub()
        hub.record_events([], watermark=0)
        hub.record_evict({}, watermark=0)
        assert hub.offset == 0 and hub.oldest_offset is None

    def test_bounded_buffer_reports_gaps(self):
        hub = ReplicationHub(capacity=2)
        events = feed(6)
        for i in range(6):
            hub.record_events(events[i : i + 1], watermark=i + 1)
        assert hub.oldest_offset == 5
        assert hub.frames_after(0) is None  # fell out of the buffer
        assert not hub.can_resume_from(0)
        assert hub.can_resume_from(4)
        assert hub.can_resume_from(6)

    def test_subscriber_ahead_raises(self):
        hub = ReplicationHub()
        with pytest.raises(ReplicationError):
            hub.can_resume_from(1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplicationHub(capacity=0)


class TestAckTracker:
    def test_quorum_counts_cumulative_acks(self):
        async def run():
            tracker = AckTracker()
            tracker.register("a")
            tracker.register("b")
            tracker.ack("a", 5)
            tracker.ack("b", 3)
            assert tracker.count_at(3) == 2
            assert tracker.count_at(5) == 1
            assert await tracker.wait_for(3, quorum=2, timeout=1.0)
            assert await tracker.wait_for(5, quorum=2, timeout=0.01) is False

        asyncio.run(run())

    def test_acks_are_monotone(self):
        tracker = AckTracker()
        tracker.register("a")
        tracker.ack("a", 7)
        tracker.ack("a", 2)  # a late, out-of-order ack cannot regress
        assert tracker.count_at(7) == 1

    def test_wait_wakes_on_late_ack(self):
        async def run():
            tracker = AckTracker()
            tracker.register("a")
            waiter = asyncio.create_task(
                tracker.wait_for(4, quorum=1, timeout=5.0)
            )
            await asyncio.sleep(0)
            tracker.ack("a", 4)
            assert await waiter is True

        asyncio.run(run())

    def test_unregister_wakes_waiters(self):
        async def run():
            tracker = AckTracker()
            tracker.register("a")
            waiter = asyncio.create_task(
                tracker.wait_for(4, quorum=1, timeout=0.2)
            )
            await asyncio.sleep(0)
            tracker.unregister("a")  # the subscriber died
            assert tracker.subscribers == 0
            assert await waiter is False

        asyncio.run(run())

    def test_describe(self):
        tracker = AckTracker()
        tracker.register("a")
        tracker.ack("a", 3)
        assert tracker.describe() == {
            "subscribers": 1,
            "acked_offsets": [3],
        }


class TestSnapshotShipping:
    def test_install_reproduces_ledger_bit_for_bit(self):
        primary = SketchStore(CONFIG)
        primary.ingest(feed(150))
        apply_retention(
            primary, RetentionPolicy(max_keys=20), snapshot=False
        )
        import json

        payload = json.loads(json.dumps(snapshot_payload(primary, 9)))
        follower = SketchStore(CONFIG)
        assert install_snapshot(follower, payload) == 9
        assert_stores_equal(follower, primary)

    def test_install_replaces_prior_state(self):
        primary = SketchStore(CONFIG)
        primary.ingest(feed(80))
        follower = SketchStore(CONFIG)
        follower.ingest(feed(33, seed=99))  # divergent junk to discard
        install_snapshot(follower, snapshot_payload(primary, 1))
        assert_stores_equal(follower, primary)

    def test_config_mismatch_refused(self):
        primary = SketchStore(CONFIG)
        follower = SketchStore(StoreConfig(k=8, salt="other"))
        with pytest.raises(ReplicationError, match="config"):
            install_snapshot(follower, snapshot_payload(primary, 0))


class TestApplyEntry:
    def test_non_contiguous_events_refused(self):
        store = SketchStore(CONFIG)
        entry = {
            "offset": 1,
            "kind": "events",
            "columns": EventBatch.from_events(feed(5)).to_columns(),
            "watermark": 12,  # implies 7 events already applied; store has 0
        }
        with pytest.raises(ReplicationError, match="contiguous"):
            apply_entry(store, entry)

    def test_unknown_kind_refused(self):
        with pytest.raises(ReplicationError, match="kind"):
            apply_entry(SketchStore(CONFIG), {"kind": "mystery"})


def run_schedule(ops, hub_capacity):
    """Drive a primary + follower through one interleaved schedule.

    The follower syncs exactly the way :class:`ReplicaFollower` does —
    streamed entries when the hub still covers its offset, snapshot
    install when it fell behind — and must be ``==`` the primary at
    every sync point.
    """
    primary = SketchStore(CONFIG)
    hub = ReplicationHub(capacity=hub_capacity)
    follower = SketchStore(CONFIG)
    follower_offset = 0
    events = iter(feed(600))
    for op, arg in ops:
        if op == "ingest":
            batch = [event for _, event in zip(range(arg), events)]
            if not batch:
                continue
            primary.ingest(batch)
            hub.record_events(batch, primary.events_ingested)
        elif op == "evict":
            report = apply_retention(
                primary, RetentionPolicy(max_keys=arg), snapshot=False
            )
            evicted = {g: keys for g, keys in report.items() if keys}
            hub.record_evict(evicted, primary.events_ingested)
        else:  # sync
            frames = hub.frames_after(follower_offset)
            if frames is None:
                install_snapshot(
                    follower, snapshot_payload(primary, hub.offset)
                )
                follower_offset = hub.offset
            else:
                for follower_offset, frame in frames:
                    apply_entry(follower, json.loads(frame)["entry"])
            assert_stores_equal(follower, primary)
    frames = hub.frames_after(follower_offset)
    if frames is None:
        install_snapshot(follower, snapshot_payload(primary, hub.offset))
    else:
        for _offset, frame in frames:
            apply_entry(follower, json.loads(frame)["entry"])
    assert_stores_equal(follower, primary)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(min_value=0, max_value=25)),
        st.tuples(st.just("evict"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("sync"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


class TestConvergenceSchedules:
    @settings(max_examples=25, deadline=None)
    @given(ops=OPS, capacity=st.sampled_from([2, 1024]))
    def test_follower_converges_under_any_interleaving(self, ops, capacity):
        run_schedule(ops, hub_capacity=capacity)

    @pytest.mark.slow
    @settings(max_examples=250, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("ingest"), st.integers(min_value=0, max_value=40)
                ),
                st.tuples(
                    st.just("evict"), st.integers(min_value=1, max_value=20)
                ),
                st.tuples(st.just("sync"), st.just(0)),
            ),
            min_size=1,
            max_size=25,
        ),
        capacity=st.sampled_from([1, 2, 3, 8, 1024]),
    )
    def test_follower_converges_exhaustive(self, ops, capacity):
        run_schedule(ops, hub_capacity=capacity)


class TestWireProtocol:
    def test_cold_bootstrap_then_streaming(self):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(primary) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                events = feed(300)
                await client.ingest(events[:200])
                await client.evict(max_keys=25)

                follower = ReplicaFollower(SketchStore(CONFIG), host, port)
                await follower.sync_once()
                assert follower.bootstraps == 1
                assert_stores_equal(follower.store, primary)

                # Incremental catch-up: no second bootstrap.
                await client.ingest(events[200:])
                await follower.sync_once()
                assert follower.bootstraps == 1
                assert_stores_equal(follower.store, primary)
                await client.close()

        asyncio.run(run())

    def test_overflowed_buffer_forces_rebootstrap(self):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(primary, repl_buffer=2) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                events = feed(240)
                await client.ingest(events[:40])
                follower = ReplicaFollower(SketchStore(CONFIG), host, port)
                await follower.sync_once()
                # Push far more entries than the buffer retains.
                for start in range(40, 240, 20):
                    await client.ingest(events[start : start + 20])
                await follower.sync_once()
                assert follower.bootstraps == 2
                assert_stores_equal(follower.store, primary)
                await client.close()

        asyncio.run(run())

    def test_killed_primary_follower_serves_shipped_watermark(self):
        async def run():
            primary = SketchStore(CONFIG)
            events = feed(160)
            server = SketchServer(primary)
            host, port = await server.start()
            client = await ServingClient.connect(host, port)
            await client.ingest(events)
            await client.evict(max_keys=30)
            follower = ReplicaFollower(SketchStore(CONFIG), host, port)
            await follower.sync_once()
            await client.close()
            await server.stop()  # the primary dies

            # The follower still answers — identically to a reference
            # store that lived through the same prefix.
            reference = SketchStore(CONFIG)
            reference.ingest(events)
            apply_retention(
                reference, RetentionPolicy(max_keys=30), snapshot=False
            )
            assert follower.watermark == reference.events_ingested
            assert_stores_equal(follower.store, reference)

        asyncio.run(run())

    def test_failover_to_restarted_primary_resyncs(self):
        async def run():
            root_events = feed(120)
            primary = SketchStore(CONFIG)
            server = SketchServer(primary)
            host, port = await server.start()
            client = await ServingClient.connect(host, port)
            await client.ingest(root_events[:80])
            follower = ReplicaFollower(SketchStore(CONFIG), host, port)
            await follower.sync_once()
            offset_before = follower.offset
            await client.close()
            await server.stop()

            # A new primary process on the same address: fresh hub whose
            # offsets restart below the follower's — the follower must
            # re-bootstrap rather than stream from a bogus offset.
            server2 = SketchServer(primary, host=host, port=port)
            await server2.start()
            client2 = await ServingClient.connect(host, port)
            await client2.ingest(root_events[80:])
            await follower.sync_once()
            assert follower.bootstraps == 2
            assert follower.offset < offset_before + 2
            assert_stores_equal(follower.store, primary)
            await client2.close()
            await server2.stop()

        asyncio.run(run())

    def test_durable_follower_survives_restart(self, tmp_path):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(primary) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                events = feed(140)
                await client.ingest(events[:90])
                await client.evict(max_keys=22)

                follower_root = tmp_path / "follower"
                follower = ReplicaFollower(
                    SketchStore.open(follower_root, CONFIG), host, port
                )
                await follower.sync_once()
                follower.store.close()

                # Restart: the offset is gone (not persisted), so the
                # reopened follower bootstraps — and stays converged.
                reopened = ReplicaFollower(
                    SketchStore.open(follower_root, CONFIG), host, port
                )
                assert reopened.store.events_ingested == 90
                await client.ingest(events[90:])
                await reopened.sync_once()
                assert reopened.bootstraps == 1
                assert_stores_equal(reopened.store, primary)
                reopened.store.close()
                await client.close()

        asyncio.run(run())

    def test_continuous_follow_reconnects_after_kill(self):
        async def run():
            primary = SketchStore(CONFIG)
            events = feed(200)
            server = SketchServer(primary)
            host, port = await server.start()
            client = await ServingClient.connect(host, port)
            await client.ingest(events[:100])

            # The reconnect loop runs in *virtual* time: its backoff
            # pauses advance an injected clock instead of wall-clocking
            # the suite, however long the outage lasts.
            clock = VirtualClock()
            follower = ReplicaFollower(
                SketchStore(CONFIG),
                host,
                port,
                retry=RetryPolicy(base=0.05, cap=2.0, sleep=clock.sleep),
            )
            task = asyncio.create_task(follower.run())
            for _ in range(200):
                if follower.watermark == primary.events_ingested:
                    break
                await asyncio.sleep(0.01)
            assert follower.watermark == 100
            await client.close()
            await server.stop()  # kill mid-stream

            # Let the follower notice and fail at least one reconnect
            # against the dead port; its pauses are instant (virtual).
            for _ in range(2000):
                if follower.reconnects:
                    break
                await asyncio.sleep(0.001)

            server2 = SketchServer(primary, host=host, port=port)
            await server2.start()
            client2 = await ServingClient.connect(host, port)
            await client2.ingest(events[100:])
            for _ in range(400):
                if follower.watermark == primary.events_ingested:
                    break
                await asyncio.sleep(0.01)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            assert_stores_equal(follower.store, primary)
            # The outage was bridged by virtual-time backoff pauses —
            # the schedule is observable, and none of it was waited out.
            assert follower.reconnects >= 1
            assert clock.sleeps, "reconnect loop never consulted the policy"
            await client2.close()
            await server2.stop()

        asyncio.run(run())

    def test_sync_ack_durable_with_a_live_follower(self):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(
                primary, sync_ack=1, ack_timeout=5.0
            ) as server:
                host, port = server.address
                follower = ReplicaFollower(
                    SketchStore(CONFIG), host, port, backoff=0.01
                )
                task = asyncio.create_task(follower.run())
                for _ in range(500):
                    if server.acks.subscribers:
                        break
                    await asyncio.sleep(0.01)
                assert server.acks.subscribers == 1
                client = await ServingClient.connect(host, port)
                response = await client.ingest(feed(40))
                # The reply was held until the follower confirmed the
                # covering offset — and says so.
                assert response["durable"] is True
                assert response["watermark"] == 40
                assert follower.watermark == 40  # already applied
                info = await client.info()
                assert info["durability"]["sync_ack"] == 1
                assert info["durability"]["durable_acks"] == 1
                assert info["durability"]["degraded_acks"] == 0
                assert info["durability"]["ack_subscribers"] == 1
                snapshot = server.metrics.snapshot()
                assert (
                    snapshot["counters"]["serving_durable_acks_total"] == 1
                )
                assert snapshot["counters"]["serving_repl_acks_total"] >= 1
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                await client.close()

        asyncio.run(run())

    def test_sync_ack_degrades_without_a_quorum(self):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(
                primary, sync_ack=2, ack_timeout=0.05
            ) as server:
                host, port = server.address
                # One follower cannot satisfy a quorum of two: the ack
                # wait times out and the reply degrades explicitly —
                # the batch is applied, just not durably confirmed.
                follower = ReplicaFollower(
                    SketchStore(CONFIG), host, port, backoff=0.01
                )
                task = asyncio.create_task(follower.run())
                for _ in range(500):
                    if server.acks.subscribers:
                        break
                    await asyncio.sleep(0.01)
                client = await ServingClient.connect(host, port)
                response = await client.ingest(feed(30))
                assert response["ok"] is True
                assert response["durable"] is False
                assert response["watermark"] == 30
                info = await client.info()
                assert info["durability"]["degraded_acks"] == 1
                snapshot = server.metrics.snapshot()
                assert (
                    snapshot["counters"]["serving_degraded_acks_total"] == 1
                )
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                await client.close()

        asyncio.run(run())

    def test_async_mode_reports_no_durability(self):
        async def run():
            async with SketchServer(SketchStore(CONFIG)) as server:
                client = await ServingClient.connect(*server.address)
                response = await client.ingest(feed(10))
                assert "durable" not in response
                info = await client.info()
                assert info["durability"]["sync_ack"] is None
                await client.close()

        asyncio.run(run())

    def test_sync_ack_validation(self):
        with pytest.raises(ValueError, match="quorum"):
            SketchServer(SketchStore(CONFIG), sync_ack=0)
        with pytest.raises(ValueError, match="ack_timeout"):
            SketchServer(SketchStore(CONFIG), sync_ack=1, ack_timeout=0.0)

    def test_read_only_follower_front_end_rejects_writes(self):
        async def run():
            primary = SketchStore(CONFIG)
            async with SketchServer(primary) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                await client.ingest(feed(60))
                fstore = SketchStore(CONFIG)
                await ReplicaFollower(fstore, host, port).sync_once()
                async with SketchServer(fstore, read_only=True) as front:
                    fhost, fport = front.address
                    fclient = await ServingClient.connect(fhost, fport)
                    answer = await fclient.query("sum")
                    assert answer["result"] == primary.query("sum")
                    assert answer["watermark"] == primary.events_ingested
                    from repro.serving import ServingError

                    with pytest.raises(ServingError, match="read-only"):
                        await fclient.ingest(feed(5))
                    with pytest.raises(ServingError, match="read-only"):
                        await fclient.evict(max_keys=1)
                    await fclient.close()
                await client.close()

        asyncio.run(run())
