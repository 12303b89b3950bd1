"""Chaos battery: seeded faults cannot lose a ``durable: true`` ack.

The invariant this file pins — the acceptance criterion of the
synchronous-ack subsystem — is stated in :mod:`repro.serving.chaos`:
under seeded schedules of dropped, duplicated, reordered, and delayed
replication frames, torn write-ahead-log tails, and primaries killed
mid-quorum, **no batch acknowledged ``durable: true`` is ever absent
after any failover/recovery path, and survivors converge to ledgers
that are ``==``** (and therefore answer every query bit-identically).

Everything here is deterministic: fault decisions come from
:class:`~repro.serving.chaos.ChaosSchedule` streams seeded per link,
chaos is injected only on the *replication* links (client ingest stays
exactly-once, so the set of durably-acked batches is known exactly),
and the end-state checks compare against single-pass reference stores.
"""

import asyncio

import pytest

from repro.serving import (
    PromotableReplica,
    ReplicaFollower,
    ServingClient,
    ServingError,
    ShardRouter,
    SketchServer,
    SketchStore,
    StoreConfig,
    synthetic_feed,
)
from repro.serving.chaos import (
    ChaosProxy,
    ChaosSchedule,
    FrameFate,
    crash_server,
    tear_wal_tail,
)
from repro.serving.metrics import MetricsRegistry

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="chaos")


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


def feed(n=200, seed=11):
    return synthetic_feed(n, num_keys=40, groups=("g1", "g2"), seed=seed)


async def wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


class TestChaosSchedule:
    def test_fates_are_deterministic_per_seed_and_link(self):
        kwargs = dict(drop=0.2, duplicate=0.2, reorder=0.2, delay=0.2, cut=0.05)
        live = ChaosSchedule(seed=7, **kwargs)
        twin = ChaosSchedule(seed=7, **kwargs)
        drawn = [live.next_fate("c0>") for _ in range(60)]
        assert drawn == twin.fates("c0>", 60)
        # fates() probes a fresh stream: the live stream's position is
        # untouched, so replaying a failing schedule is always possible.
        assert live.fates("c0>", 60) == drawn

    def test_links_are_independent_streams(self):
        schedule = ChaosSchedule(seed=7, drop=0.5)
        forward = [schedule.next_fate("c0>") for _ in range(40)]
        backward = [schedule.next_fate("c0<") for _ in range(40)]
        assert forward != backward
        # Interleaving draws across links does not perturb either: the
        # same fates come out when each link is consumed alone.
        assert forward == ChaosSchedule(seed=7, drop=0.5).fates("c0>", 40)
        assert backward == ChaosSchedule(seed=7, drop=0.5).fates("c0<", 40)

    def test_different_seeds_differ(self):
        a = ChaosSchedule(seed=1, drop=0.5).fates("c0>", 40)
        b = ChaosSchedule(seed=2, drop=0.5).fates("c0>", 40)
        assert a != b

    def test_zero_rates_always_forward(self):
        schedule = ChaosSchedule(seed=3)
        assert schedule.fates("c0>", 20) == [FrameFate()] * 20

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="drop"):
            ChaosSchedule(drop=1.5)
        with pytest.raises(ValueError, match="delay_seconds"):
            ChaosSchedule(delay_seconds=-1)


class TestChaosProxy:
    def test_clean_proxy_is_transparent(self):
        async def run():
            store = SketchStore(CONFIG)
            metrics = MetricsRegistry()
            async with SketchServer(store) as server:
                async with ChaosProxy(
                    *server.address, ChaosSchedule(seed=5), metrics=metrics
                ) as proxy:
                    client = await ServingClient.connect(*proxy.address)
                    events = feed(80)
                    response = await client.ingest(events)
                    assert response["watermark"] == 80
                    answer = await client.query("sum")
                    assert answer["result"] == store.query("sum")
                    await client.close()
            counters = metrics.snapshot()["counters"]
            assert counters['chaos_frames_total{action="forward"}'] > 0

        asyncio.run(run())

    def test_follower_converges_through_a_lossy_link(self):
        async def run():
            primary = SketchStore(CONFIG)
            server = SketchServer(primary)
            await server.start()
            schedule = ChaosSchedule(
                seed=23,
                drop=0.06,
                duplicate=0.06,
                reorder=0.06,
                delay=0.10,
                delay_seconds=0.001,
            )
            async with ChaosProxy(*server.address, schedule) as proxy:
                follower = ReplicaFollower(
                    SketchStore(CONFIG), *proxy.address, backoff=0.01
                )
                task = asyncio.create_task(follower.run())
                client = await ServingClient.connect(*server.address)
                events = feed(240)
                for start in range(0, len(events), 20):
                    await client.ingest(events[start : start + 20])
                # Dropped frames can leave the follower stalled (the
                # contiguity check only fires on the *next* frame), so
                # force reconnects until it converges — every reconnect
                # re-subscribes or re-bootstraps, both recovery paths.
                deadline = asyncio.get_running_loop().time() + 10.0
                while follower.watermark != primary.events_ingested:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "follower never converged through the chaos link"
                    proxy.cut_all()
                    await asyncio.sleep(0.05)
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                assert_stores_equal(follower.store, primary)
                await client.close()
            await server.stop()

        asyncio.run(run())


class TestTornWal:
    def test_garbage_tail_keeps_every_acked_event(self, tmp_path):
        root = tmp_path / "store"
        store = SketchStore.open(root, CONFIG)
        events = feed(90)
        store.ingest(events[:50])
        store.ingest(events[50:])
        store.close()
        tear_wal_tail(root)  # crash mid-write after the last fsync
        reopened = SketchStore.open(root, CONFIG)
        assert reopened.events_ingested == 90
        reference = SketchStore(CONFIG)
        reference.ingest(events)
        assert_stores_equal(reopened, reference)
        reopened.close()

    def test_truncated_tail_recovers_the_surviving_prefix(self, tmp_path):
        root = tmp_path / "store"
        store = SketchStore.open(root, CONFIG)
        events = feed(90)
        ends = [12, 30, 31, 55, 70, 90]  # one WAL line per batch
        for start, end in zip([0] + ends, ends):
            store.ingest(events[start:end])
        store.close()
        # Tear into the last real record: recovery must stop at the
        # torn line and rebuild exactly the batches before it.
        tear_wal_tail(root, truncate=20, garbage=b"")
        reopened = SketchStore.open(root, CONFIG)
        assert reopened.events_ingested == ends[-2]
        reference = SketchStore(CONFIG)
        reference.ingest(events[: ends[-2]])
        assert_stores_equal(reopened, reference)
        reopened.close()


class TestCrashServer:
    def test_crash_aborts_connections_midstream(self):
        async def run():
            store = SketchStore(CONFIG)
            server = SketchServer(store)
            await server.start()
            client = await ServingClient.connect(*server.address, max_retries=0)
            await client.ingest(feed(30))
            await crash_server(server)
            with pytest.raises((ServingError, ConnectionError, OSError)):
                await client.query("sum")
            # No graceful teardown ran: the store still answers (it is
            # whatever the last applied batch left), like post-SIGKILL.
            assert store.events_ingested == 30
            await client.close()

        asyncio.run(run())


class TestDurableAcksSurviveChaos:
    def test_no_durable_ack_lost_across_crash_and_promotion(self):
        """The headline invariant, end to end.

        A sync-ack primary feeds two promotable replicas through lossy
        chaos proxies; the primary is killed with a quorum wait still
        in flight; the router promotes the most-advanced survivor.
        Every batch acked ``durable: true`` must be inside the promoted
        watermark, and after resuming ingest from that watermark the
        promoted store converges ``==`` to a single-pass reference.
        """

        async def run():
            events = feed(360, seed=31)
            primary_store = SketchStore(CONFIG)
            primary = SketchServer(
                primary_store, sync_ack=1, ack_timeout=0.4
            )
            await primary.start()
            proxies = []
            replicas = []
            for i in range(2):
                schedule = ChaosSchedule(
                    seed=100 + i,
                    drop=0.03,
                    duplicate=0.03,
                    reorder=0.03,
                    delay=0.05,
                    delay_seconds=0.001,
                )
                proxy = ChaosProxy(*primary.address, schedule)
                await proxy.start()
                proxies.append(proxy)
                replica = PromotableReplica(
                    SketchStore(CONFIG), *proxy.address, backoff=0.01
                )
                await replica.start()
                replicas.append(replica)
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

            acked = []  # (watermark, durable) per acknowledged batch
            for start in range(0, 240, 24):
                response = await client.ingest(events[start : start + 24])
                assert "durable" in response  # sync-ack mode always reports
                acked.append((response["watermark"], response["durable"]))
            # The schedule seeds are pinned, so this is deterministic:
            # at least one batch made quorum (the invariant below is
            # not vacuous) — if none did, the seeds need changing.
            assert any(durable for _, durable in acked)

            # Kill the primary mid-quorum: a direct ingest is parked in
            # the primary's ack wait when the crash lands.  The client
            # never gets an ack, so this batch is allowed to be lost —
            # or to survive, if it was shipped before the crash; the
            # resume-from-watermark below is correct either way.
            direct = await ServingClient.connect(
                *primary.address, max_retries=0
            )
            pending = asyncio.create_task(direct.ingest(events[240:264]))
            await asyncio.sleep(0.005)
            await crash_server(primary)
            try:
                # Either the crash caught the quorum wait in flight (the
                # client sees the connection die, the batch is unacked
                # and free to be lost) or the ack won the race — then
                # the batch joins the invariant check like any other.
                acked.append(
                    ((await pending)["watermark"], (await pending)["durable"])
                )
            except (ServingError, ConnectionError, OSError):
                pass
            await direct.close()

            # The next routed operation fails over: the router probes
            # the chain and promotes the most-advanced survivor.
            info = await client.info()
            promoted = [r for r in replicas if r.promoted]
            assert len(promoted) == 1
            survivor = next(r for r in replicas if not r.promoted)
            watermark = info["events_ingested"]
            assert promoted[0].store.events_ingested == watermark
            assert (
                watermark
                >= max(r.store.events_ingested for r in replicas)
            )

            # THE invariant: every durable: true ack is inside the
            # promoted watermark — no durably-acked batch was lost.
            for batch_watermark, durable in acked:
                if durable:
                    assert batch_watermark <= watermark

            # Every store only ever held a contiguous prefix of the
            # ingest order, so resuming from the promoted watermark
            # rebuilds exactly the full feed, applying nothing twice.
            for start in range(watermark, len(events), 24):
                response = await client.ingest(events[start : start + 24])
                # The promoted primary runs asynchronously (no
                # --sync-ack), so durability reporting disappears.
                assert "durable" not in response
            assert promoted[0].store.events_ingested == len(events)
            reference = SketchStore(CONFIG)
            reference.ingest(events)
            assert_stores_equal(promoted[0].store, reference)
            routed = await client.query("sum")
            assert routed["result"] == reference.query("sum")

            # The surviving follower (still pointed at the dead
            # primary) re-syncs against the promoted one and converges
            # to the same ledger: survivors are ``==``.
            await survivor.stop()
            resync = ReplicaFollower(
                survivor.store, *promoted[0].address
            )
            await resync.sync_once()
            assert_stores_equal(survivor.store, promoted[0].store)

            await client.close()
            await router.stop()
            await promoted[0].stop()
            for proxy in proxies:
                await proxy.stop()

        asyncio.run(run())

    def test_degraded_acks_are_reported_when_quorum_cannot_form(self):
        async def run():
            store = SketchStore(CONFIG)
            # Quorum of one but no follower ever connects: every batch
            # degrades after the (short) ack timeout — explicitly.
            async with SketchServer(
                store, sync_ack=1, ack_timeout=0.05
            ) as server:
                client = await ServingClient.connect(*server.address)
                response = await client.ingest(feed(20))
                assert response["ok"] is True
                assert response["durable"] is False
                assert response["watermark"] == 20
                info = await client.info()
                assert info["durability"]["degraded_acks"] == 1
                assert info["durability"]["durable_acks"] == 0
                await client.close()

        asyncio.run(run())

    def test_chaos_on_ack_link_degrades_but_never_lies(self):
        """Acks dropped upstream can only turn ``durable`` false-negative.

        With every upstream (follower→primary) frame dropped, the
        primary never sees an ack, so every batch must degrade — the
        dangerous direction (claiming durability that does not exist)
        is structurally impossible because ``durable: true`` requires a
        received ack.
        """

        async def run():
            primary_store = SketchStore(CONFIG)
            primary = SketchServer(
                primary_store, sync_ack=1, ack_timeout=0.05
            )
            await primary.start()
            # drop=1.0 on both directions of the proxy would also stall
            # segments; the push-frame gating means only repl_segment /
            # repl_ack frames are droppable, and the handshake (request
            # /response) still completes — so the follower bootstraps
            # to the snapshot but its acks all vanish.
            schedule = ChaosSchedule(seed=9, drop=1.0)
            async with ChaosProxy(*primary.address, schedule) as proxy:
                follower = ReplicaFollower(
                    SketchStore(CONFIG), *proxy.address, backoff=0.01
                )
                task = asyncio.create_task(follower.run())
                client = await ServingClient.connect(*primary.address)
                await wait_for(lambda: primary.acks.subscribers >= 1)
                response = await client.ingest(feed(24))
                assert response["durable"] is False
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                await client.close()
            await primary.stop()

        asyncio.run(run())
