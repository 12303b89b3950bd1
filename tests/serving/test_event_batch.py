"""The columnar ingest batch: one encoding from the client to the follower.

An :class:`~repro.serving.events.EventBatch` is the only form an ingest
batch takes inside the serving layer — the ``columns`` ingest frame, the
router's per-shard sub-batches, the write-ahead-log line and the
replication segment all carry it.  Pinned here:

* the codec: events → columns → JSON → events is ``==``, with every
  float bit-exact (``-0.0`` included), and the per-event wire form
  converts to the same columns;
* the column split routes every ``(group, key)`` exactly as
  :func:`~repro.serving.events.shard_events` routes events;
* a follower counts applied *events*, not entries;
* a ``columns`` frame and the older per-event ``events`` frame of the
  same batches leave ``==`` primaries, followers and routed answers.
"""

import asyncio
import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving import (
    Event,
    EventBatch,
    ReplicaFollower,
    ServingClient,
    ServingError,
    ShardRouter,
    SketchServer,
    SketchStore,
    StoreConfig,
    shard_events,
    synthetic_feed,
)
from repro.serving.metrics import MetricsRegistry

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="columns")

FLOATS = st.floats(allow_nan=False, width=64)
TEXT = st.text(max_size=6)


def events_strategy(max_size=40):
    return st.lists(
        st.builds(
            Event, key=TEXT, weight=FLOATS, timestamp=FLOATS, group=TEXT
        ),
        max_size=max_size,
    )


def bits(values):
    return [struct.pack("<d", value) for value in values]


def wire(payload):
    """One JSON round trip, as the protocol and the WAL apply it."""
    return json.loads(json.dumps(payload))


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(events_strategy())
    @example([Event("k", -0.0, -0.0, "g"), Event("k", 0.0, 5e-324, "")])
    def test_columns_round_trip_is_exact(self, events):
        batch = EventBatch.from_events(events)
        back = EventBatch.from_columns(wire(batch.to_columns()))
        assert back == batch
        assert list(back) == events
        assert bits(back.weights) == bits(event.weight for event in events)
        assert bits(back.timestamps) == bits(
            event.timestamp for event in events
        )

    @settings(max_examples=40, deadline=None)
    @given(events_strategy())
    def test_per_event_frame_gives_the_same_columns(self, events):
        dicts = wire([event.to_dict() for event in events])
        batch = EventBatch.from_dicts(dicts)
        assert batch == EventBatch.from_events(events)
        assert list(batch) == [Event.from_dict(item) for item in dicts]
        assert EventBatch.from_frame({"events": dicts}) == batch
        assert (
            EventBatch.from_frame({"columns": wire(batch.to_columns())})
            == batch
        )

    def test_integer_json_values_convert_like_from_dict(self):
        batch = EventBatch.from_columns(
            {"keys": [7], "weights": [2], "timestamps": [3], "groups": ["g"]}
        )
        assert list(batch) == [
            Event.from_dict(
                {"key": 7, "weight": 2, "timestamp": 3, "group": "g"}
            )
        ]
        assert type(batch.weights[0]) is float
        assert batch.keys == ["7"]

    @pytest.mark.parametrize(
        "columns",
        [
            {"keys": ["a", "b"], "weights": [1.0], "timestamps": [0.0, 1.0],
             "groups": ["g", "g"]},
            {"keys": "ab", "weights": [1.0, 1.0], "timestamps": [0.0, 1.0],
             "groups": ["g", "g"]},
            {"keys": ["a"], "weights": [1.0], "timestamps": [0.0]},
            {"keys": ["a"], "weights": ["heavy"], "timestamps": [0.0],
             "groups": ["g"]},
        ],
    )
    def test_malformed_columns_are_refused(self, columns):
        with pytest.raises((ValueError, KeyError)):
            EventBatch.from_columns(columns)

    def test_take_selects_rows_in_order(self):
        events = synthetic_feed(10, num_keys=5, groups=("a", "b"), seed=2)
        batch = EventBatch.from_events(events)
        assert list(batch.take([7, 2, 3])) == [events[7], events[2], events[3]]
        assert len(batch.take([])) == 0


class TestColumnSplit:
    @settings(max_examples=40, deadline=None)
    @given(events_strategy(max_size=60), st.integers(min_value=1, max_value=5))
    def test_routes_every_pair_as_shard_events(self, events, num_shards):
        by_column = shard_events(EventBatch.from_events(events), num_shards)
        by_event = shard_events(events, num_shards)
        assert [list(batch) for batch in by_column] == by_event

    def test_salt_moves_rows_the_same_way(self):
        events = synthetic_feed(80, num_keys=30, groups=("a", "b"), seed=4)
        batch = EventBatch.from_events(events)
        for salt in ("one", "two"):
            assert [
                list(shard) for shard in shard_events(batch, 3, salt=salt)
            ] == shard_events(events, 3, salt=salt)


class TestMalformedFrames:
    def test_ragged_columns_are_refused_without_applying(self):
        ragged = {
            "keys": ["a", "b"],
            "weights": [1.0],
            "timestamps": [0.0, 1.0],
            "groups": ["g", "g"],
        }
        events = synthetic_feed(20, num_keys=8, groups=("g",), seed=6)

        async def run():
            primary = SketchServer(SketchStore(CONFIG))
            await primary.start()
            router = ShardRouter([[primary.address]])
            await router.start()
            try:
                for front in (primary, router):
                    client = await ServingClient.connect(*front.address)
                    with pytest.raises(ServingError, match="length"):
                        await client.request("ingest", columns=ragged)
                    assert primary._store.events_ingested == 0
                    await client.close()
                client = await ServingClient.connect(*router.address)
                assert (await client.ingest(events))["ingested"] == 20
                await client.close()
            finally:
                await router.stop()
                await primary.stop()

        asyncio.run(run())


class TestFollowerCountsEvents:
    def test_applied_events_counts_events_not_entries(self):
        async def run():
            primary = SketchServer(SketchStore(CONFIG))
            await primary.start()
            client = await ServingClient.connect(*primary.address)
            events = synthetic_feed(45, num_keys=12, groups=("g1",), seed=5)
            sizes = (20, 1, 24)
            try:
                start = 0
                for size in sizes:
                    await client.ingest(events[start : start + size])
                    start += size
                registry = MetricsRegistry()
                follower = ReplicaFollower(
                    SketchStore(CONFIG), *primary.address, metrics=registry
                )
                # Subscribe at offset 0 so every entry streams (no
                # snapshot bootstrap).
                follower.offset = 0
                await follower.sync_once()
            finally:
                await client.close()
                await primary.stop()
            counters = registry.snapshot()["counters"]
            assert counters["serving_repl_applied_entries_total"] == 3
            assert counters["serving_repl_applied_events_total"] == 45
            assert follower.store.events_ingested == 45

        asyncio.run(run())


def assert_stores_equal(ours, theirs):
    assert ours.events_ingested == theirs.events_ingested
    assert ours.groups == theirs.groups
    for group in theirs.groups:
        a, b = ours.group_state(group), theirs.group_state(group)
        assert a.totals == b.totals
        assert a.first_seen == b.first_seen
        assert a.last_seen == b.last_seen
        assert a.events == b.events


async def routed_deployment(batches, send):
    """Two primaries behind a router, one follower each; ``send(client,
    batch)`` ships every batch through the router.  Returns the primary
    and follower stores and the routed answers."""
    primaries = [SketchServer(SketchStore(CONFIG)) for _ in range(2)]
    for server in primaries:
        await server.start()
    router = ShardRouter([[server.address] for server in primaries])
    await router.start()
    client = await ServingClient.connect(*router.address)
    try:
        for batch in batches:
            await send(client, batch)
        followers = []
        for server in primaries:
            follower = ReplicaFollower(SketchStore(CONFIG), *server.address)
            follower.offset = 0
            await follower.sync_once()
            followers.append(follower.store)
        answers = [
            (await client.query(kind, groups=groups))["result"]
            for kind, groups in (
                ("sum", None),
                ("distinct", None),
                ("similarity", ["g1", "g2"]),
            )
        ]
    finally:
        await client.close()
        await router.stop()
        for server in primaries:
            await server.stop()
    return [server._store for server in primaries], followers, answers


class TestFramesAgree:
    def test_columns_and_events_frames_leave_equal_deployments(self):
        events = synthetic_feed(150, num_keys=30, groups=("g1", "g2"), seed=9)
        batches = [events[start : start + 25] for start in range(0, 150, 25)]

        async def by_columns(client, batch):
            await client.ingest(batch)

        async def by_events(client, batch):
            await client.request(
                "ingest", events=[event.to_dict() for event in batch]
            )

        async def run():
            return (
                await routed_deployment(batches, by_columns),
                await routed_deployment(batches, by_events),
            )

        (primaries, followers, answers), (
            old_primaries,
            old_followers,
            old_answers,
        ) = asyncio.run(run())
        reference = SketchStore(CONFIG)
        reference.ingest(events)
        for ours, theirs in zip(primaries, old_primaries):
            assert_stores_equal(ours, theirs)
        for ours, theirs, primary in zip(followers, old_followers, primaries):
            assert_stores_equal(ours, theirs)
            assert_stores_equal(ours, primary)
        assert answers == old_answers
        assert answers[0] == reference.query("sum")
        assert sum(store.events_ingested for store in primaries) == 150
