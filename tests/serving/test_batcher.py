"""The coalescing invariant: batched answers == sequential answers, bitwise.

``execute_batch`` is pure and synchronous, so most of the contract is
pinned without an event loop: every coalesced window must produce, slot
for slot, exactly the object the same request would get from its own
``store.query`` call, while issuing strictly fewer store calls.
The async ``QueryBatcher`` adds only scheduling (windows, futures,
watermarks) on top; its tests run real event loops via ``asyncio.run``.
"""

import asyncio

import pytest

from repro.serving import Event, SketchStore, StoreConfig
from repro.serving.batcher import QueryBatcher, QueryRequest, execute_batch

CONFIG = StoreConfig(k=64, tau_star=0.75, salt="test-batcher")


def _store():
    events = []
    for index in range(120):
        events.append(
            Event(f"k{index:03d}", 1.0 + index % 5, float(index), "g1")
        )
    for index in range(40):
        events.append(
            Event(f"k{index:03d}", 2.0, float(200 + index), "g2")
        )
    for index in range(25):
        events.append(
            Event(f"m{index:03d}", 0.5 + index % 3, float(300 + index), "g3")
        )
    store = SketchStore(CONFIG)
    store.ingest(events)
    return store


def _sequential(store, request):
    """What the same request answers when issued alone."""
    return store.query(
        request.kind,
        groups=request.groups,
        keys=request.keys,
        until=request.until,
    )


def _assert_parity(store, requests, max_calls=None):
    results, errors, calls = execute_batch(store, requests)
    assert errors == [None] * len(requests)
    for request, result in zip(requests, results):
        assert result == _sequential(store, request)
    if max_calls is not None:
        assert calls <= max_calls
    return calls


class TestExecuteBatch:
    def test_sums_coalesce_into_one_call(self):
        # g1 retains 120 PPS keys and g3 only 23: group sizes never split a
        # window, because dispatch depends on the query kind alone.
        store = _store()
        requests = [
            QueryRequest("sum"),
            QueryRequest("sum", groups=("g1",)),
            QueryRequest("sum", groups=("g2", "g3")),
            QueryRequest("sum", groups=("g3", "g1")),
            QueryRequest("sum", groups=("g3",)),
        ]
        assert _assert_parity(store, requests, max_calls=1) == 1

    def test_distinct_with_mixed_horizons_coalesces(self):
        store = _store()
        requests = [
            QueryRequest("distinct"),
            QueryRequest("distinct", groups=("g1",), until=60.0),
            QueryRequest("distinct", groups=("g1", "g2"), until=60.0),
            QueryRequest("distinct", groups=("g3",)),
        ]
        assert _assert_parity(store, requests, max_calls=1) == 1

    def test_similarity_deduplicates(self):
        store = _store()
        requests = [
            QueryRequest("similarity", groups=("g1", "g2")),
            QueryRequest("similarity", groups=("g1", "g2")),
            QueryRequest("similarity", groups=("g1", "g3")),
        ]
        assert _assert_parity(store, requests, max_calls=2) == 2

    def test_mixed_kinds_share_calls_within_kind(self, forced_backend):
        store = _store()
        requests = [
            QueryRequest("sum"),
            QueryRequest("distinct", until=100.0),
            QueryRequest("sum", groups=("g2",)),
            QueryRequest("distinct", groups=("g1",)),
            QueryRequest("similarity", groups=("g1", "g2")),
        ]
        with forced_backend("scalar"):
            assert _assert_parity(store, requests, max_calls=3) == 3

    def test_forced_backends_give_identical_answers(self, forced_backend):
        store = _store()
        requests = [
            QueryRequest("sum"),
            QueryRequest("distinct", until=100.0),
            QueryRequest("sum", groups=("g1",)),
        ]
        windows = {}
        for mode in ("scalar", "vectorized"):
            with forced_backend(mode):
                results, errors, calls = execute_batch(store, requests)
                assert errors == [None, None, None]
                assert calls == 2  # one per kind
                assert results[0] == _sequential(store, requests[0])
            windows[mode] = results
        # The serving kernels fold each group left to right on both
        # paths, so the backends agree exactly, not just to float noise.
        assert windows["scalar"] == windows["vectorized"]

    def test_keyed_sums_run_individually_and_exactly(self):
        store = _store()
        requests = [
            QueryRequest("sum", groups=("g1",), keys=("k001", "k002")),
            QueryRequest("sum"),
        ]
        _assert_parity(store, requests, max_calls=2)

    def test_errors_poison_only_their_slot(self):
        store = _store()
        requests = [
            QueryRequest("sum"),
            QueryRequest("no-such-kind"),
            QueryRequest("distinct"),
            QueryRequest("similarity", groups=("g1",)),  # needs two groups
        ]
        results, errors, calls = execute_batch(store, requests)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], Exception)
        assert isinstance(errors[3], Exception)
        assert results[0] == _sequential(store, requests[0])
        assert results[2] == _sequential(store, requests[2])

    def test_empty_window_is_a_noop(self):
        results, errors, calls = execute_batch(_store(), [])
        assert results == [] and errors == [] and calls == 0


class TestQueryBatcher:
    def test_same_tick_submissions_share_one_flush(self):
        store = _store()

        async def run():
            batcher = QueryBatcher(store)
            requests = [
                QueryRequest("sum"),
                QueryRequest("sum", groups=("g1",)),
                QueryRequest("distinct"),
                QueryRequest("similarity", groups=("g1", "g2")),
            ]
            answers = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return batcher.stats, requests, answers

        stats, requests, answers = asyncio.run(run())
        assert stats.requests == 4
        assert stats.flushes == 1
        assert stats.store_calls == 3
        watermarks = {watermark for _result, watermark in answers}
        assert watermarks == {store.events_ingested}
        for request, (result, _watermark) in zip(requests, answers):
            assert result == _sequential(store, request)

    def test_max_batch_closes_the_window_early(self):
        store = _store()

        async def run():
            batcher = QueryBatcher(store, max_batch=2)
            await asyncio.gather(
                *(batcher.submit(QueryRequest("sum")) for _ in range(5))
            )
            return batcher.stats

        stats = asyncio.run(run())
        assert stats.requests == 5
        assert stats.flushes >= 3  # two full windows + the straggler

    def test_watermark_tracks_live_ingestion(self):
        store = _store()
        before = store.events_ingested

        async def run():
            batcher = QueryBatcher(store)
            _result, first = await batcher.submit(QueryRequest("sum"))
            store.ingest([Event("new-key", 1.0, 999.0, "g1")])
            result, second = await batcher.submit(QueryRequest("sum"))
            return first, second, result

        first, second, result = asyncio.run(run())
        assert first == before
        assert second == before + 1
        assert result == store.query("sum")

    def test_failed_request_rejects_only_its_future(self):
        store = _store()

        async def run():
            batcher = QueryBatcher(store)
            good = asyncio.ensure_future(batcher.submit(QueryRequest("sum")))
            bad = asyncio.ensure_future(
                batcher.submit(QueryRequest("no-such-kind"))
            )
            done = await asyncio.gather(good, bad, return_exceptions=True)
            return done

        good_answer, bad_answer = asyncio.run(run())
        result, _watermark = good_answer
        assert result == _sequential(store, QueryRequest("sum"))
        assert isinstance(bad_answer, Exception)

    def test_knob_validation(self):
        store = _store()
        with pytest.raises(ValueError):
            QueryBatcher(store, max_batch=0)
        with pytest.raises(ValueError):
            QueryBatcher(store, max_delay=-0.1)
