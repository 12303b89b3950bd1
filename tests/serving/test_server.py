"""The asyncio front-end: protocol, lifecycle, and the stress invariant.

The load-bearing test here is the concurrency stress: dozens of
interleaved async clients querying *while a live ingestion task feeds
the store*, with every answer required to be bit-identical to a
sequential single-pass store built over exactly the feed prefix the
response's watermark names.  That is the serving layer's whole
correctness claim — coalescing and concurrency are pure scheduling,
invisible in the numbers.
"""

import asyncio
import json

import pytest

from repro.serving import (
    Event,
    RetentionPolicy,
    ServingClient,
    ServingError,
    SketchServer,
    SketchStore,
    StoreConfig,
    synthetic_feed,
)

CONFIG = StoreConfig(k=32, tau_star=0.75, salt="test-server")


def _base_feed(n=200, keys=60, seed=17):
    return synthetic_feed(n, num_keys=keys, groups=("u", "v"), seed=seed)


def _store(events=None):
    store = SketchStore(CONFIG)
    store.ingest(_base_feed() if events is None else events)
    return store


class TestProtocol:
    def test_roundtrip_every_operation(self):
        store = _store()
        reference = _store()

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                try:
                    ping = await client.ping()
                    sums = await client.query("sum")
                    counts = await client.query("distinct", until=150.0)
                    sim = await client.query("similarity", groups=["u", "v"])
                    info = await client.info()
                    return ping, info, sums, counts, sim
                finally:
                    await client.close()

        ping, info, sums, counts, sim = asyncio.run(run())
        assert ping["result"] == "pong"
        assert info["groups"] == ["u", "v"]
        assert info["events_ingested"] == reference.events_ingested
        assert info["coalescing"]["requests"] == 3
        assert sums["result"] == reference.query("sum")
        assert sums["watermark"] == reference.events_ingested
        assert counts["result"] == reference.query("distinct", until=150.0)
        assert sim["result"] == pytest.approx(
            reference.query("similarity", groups=["u", "v"])
        )

    def test_wire_backend_field_is_ignored(self):
        # Older clients send a per-request ``backend``; dispatch follows
        # the server's own policy, so the field changes no answer.
        frames = [
            {"kind": "sum"},
            {"kind": "distinct", "until": 150.0},
            {"kind": "similarity", "groups": ["u", "v"]},
        ]

        async def run():
            async with SketchServer(_store()) as server:
                client = await ServingClient.connect(*server.address)
                try:
                    return [
                        (
                            await client.request("query", **frame),
                            await client.request(
                                "query", backend="scalar", **frame
                            ),
                        )
                        for frame in frames
                    ]
                finally:
                    await client.close()

        for plain, legacy in asyncio.run(run()):
            assert plain["ok"] and legacy["ok"]
            assert legacy["result"] == plain["result"]

    def test_ingest_advances_the_watermark_and_the_answers(self):
        store = _store()

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                try:
                    before = await client.query("sum")
                    ack = await client.ingest(
                        [Event("fresh", 5.0, 999.0, "u")]
                    )
                    after = await client.query("sum")
                    return before, ack, after
                finally:
                    await client.close()

        before, ack, after = asyncio.run(run())
        assert ack["ingested"] == 1
        assert ack["watermark"] == before["watermark"] + 1
        assert after["watermark"] == ack["watermark"]
        assert after["result"]["u"] == before["result"]["u"] + 5.0

    def test_evict_bounds_the_ledger(self):
        store = _store()

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                try:
                    before = await client.info()
                    evicted = await client.evict(max_keys=10)
                    after = await client.info()
                    return before, evicted, after
                finally:
                    await client.close()

        before, evicted, after = asyncio.run(run())
        assert any(count > 10 for count in before["keys"].values())
        assert all(count <= 10 for count in after["keys"].values())
        dropped = sum(len(keys) for keys in evicted["evicted"].values())
        assert dropped == sum(before["keys"].values()) - sum(
            after["keys"].values()
        )

    def test_evict_without_any_policy_is_an_error(self):
        store = _store()

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                try:
                    with pytest.raises(ServingError):
                        await client.evict()
                    # The connection survives the failed request.
                    return await client.ping()
                finally:
                    await client.close()

        assert asyncio.run(run())["result"] == "pong"

    def test_malformed_lines_answer_without_killing_the_connection(self):
        store = _store()

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b"this is not json\n")
                    writer.write(b'{"id": 9, "op": "no-such-op"}\n')
                    writer.write(b'{"id": 10, "op": "ping"}\n')
                    await writer.drain()
                    lines = [await reader.readline() for _ in range(3)]
                finally:
                    writer.close()
                    await writer.wait_closed()
                return [json.loads(line) for line in lines]

        responses = asyncio.run(run())
        by_id = {response["id"]: response for response in responses}
        assert by_id[None]["ok"] is False
        assert by_id[9]["ok"] is False and "no-such-op" in by_id[9]["error"]
        assert by_id[10] == {"id": 10, "ok": True, "result": "pong"}

    def test_shutdown_request_stops_serve_forever(self):
        store = _store()

        async def run():
            server = SketchServer(store)
            host, port = await server.start()
            forever = asyncio.create_task(server.serve_forever())
            client = await ServingClient.connect(host, port)
            try:
                bye = await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(forever, timeout=5.0)
            return bye

        assert asyncio.run(run())["result"] == "bye"

    def test_background_retention_sweeps_while_serving(self):
        store = _store()

        async def run():
            policy = RetentionPolicy(max_keys=8)
            async with SketchServer(
                store, retention=policy, retention_interval=0.02
            ) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                try:
                    for _ in range(50):
                        await asyncio.sleep(0.02)
                        info = await client.info()
                        if all(
                            count <= 8 for count in info["keys"].values()
                        ):
                            return info
                finally:
                    await client.close()
            raise AssertionError("retention sweep never ran")

        info = asyncio.run(run())
        assert all(count <= 8 for count in info["keys"].values())

    def test_retention_interval_requires_a_policy(self):
        with pytest.raises(ValueError):
            SketchServer(_store(), retention_interval=1.0)


class TestConcurrencyStress:
    """Interleaved clients + live ingestion == sequential prefix stores."""

    CLIENTS = 24
    QUERIES_PER_CLIENT = 4
    BATCHES = 12
    BATCH_EVENTS = 25

    def _timeline(self):
        """The full feed in ingestion order: base prefix, then batches."""
        base = _base_feed(n=150, keys=40)
        extra = synthetic_feed(
            self.BATCHES * self.BATCH_EVENTS,
            num_keys=80,
            groups=("u", "v"),
            seed=91,
        )
        return base, [
            extra[index : index + self.BATCH_EVENTS]
            for index in range(0, len(extra), self.BATCH_EVENTS)
        ]

    def test_live_answers_match_sequential_prefix_stores(self):
        base, batches = self._timeline()
        store = SketchStore(CONFIG)
        store.ingest(base)
        plans = [
            ("sum", None),
            ("distinct", None),
            ("distinct", 120.0),
            ("similarity", None),
        ]

        async def run():
            async with SketchServer(store) as server:
                host, port = server.address

                async def feeder(client):
                    for batch in batches:
                        await client.ingest(batch)
                        await asyncio.sleep(0)

                async def querier(client, index):
                    observed = []
                    for turn in range(self.QUERIES_PER_CLIENT):
                        kind, until = plans[
                            (index + turn) % len(plans)
                        ]
                        if kind == "similarity":
                            response = await client.query(
                                kind, groups=["u", "v"]
                            )
                        else:
                            response = await client.query(kind, until=until)
                        observed.append(
                            (kind, until, response["watermark"],
                             response["result"])
                        )
                        await asyncio.sleep(0)
                    return observed

                clients = [
                    await ServingClient.connect(host, port)
                    for _ in range(self.CLIENTS + 1)
                ]
                try:
                    outcomes = await asyncio.gather(
                        feeder(clients[0]),
                        *(
                            querier(client, index)
                            for index, client in enumerate(clients[1:])
                        ),
                    )
                finally:
                    for client in clients:
                        await client.close()
                return outcomes[1:]

        per_client = asyncio.run(run())
        timeline = list(base)
        for batch in batches:
            timeline.extend(batch)
        # Answers must match a fresh single-pass store over exactly the
        # feed prefix the watermark names — bit-identical, no tolerance.
        references = {}
        observations = [obs for client in per_client for obs in client]
        assert len(observations) == self.CLIENTS * self.QUERIES_PER_CLIENT
        seen_watermarks = {watermark for _, _, watermark, _ in observations}
        assert len(seen_watermarks) > 1, "no interleaving happened"
        for kind, until, watermark, result in observations:
            if watermark not in references:
                reference = SketchStore(CONFIG)
                reference.ingest(timeline[:watermark])
                references[watermark] = reference
            reference = references[watermark]
            if kind == "similarity":
                assert result == reference.query(
                    "similarity", groups=["u", "v"]
                )
            else:
                assert result == reference.query(kind, until=until)
