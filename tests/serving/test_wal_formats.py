"""Write-ahead logs in both line formats recover to the acknowledged prefix.

The log writes one line per ingest batch, ``{"seq": first, "keys": [...],
"weights": [...], "timestamps": [...], "groups": [...]}``.  Store
directories written before that hold one event per line, ``{"seq": n,
"key": ..., "weight": ..., "timestamp": ..., "group": ...}``, and must
keep opening.  ``data/per_event_store`` is such a directory, committed
as that format wrote it: a snapshot at watermark 30, per-event WAL lines
for events 31–55, and a torn last line (event 55, never acknowledged).
It holds ``FIXTURE_FEED`` ingested as ``[:30]`` + snapshot, ``[30:45]``,
``[45:55]``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.serving import EventBatch, SketchStore, StoreConfig, synthetic_feed
from repro.serving.persistence import EventLog

FIXTURE = Path(__file__).parent / "data" / "per_event_store"
FIXTURE_CONFIG = StoreConfig(k=16, tau_star=0.75, salt="per-event")
FIXTURE_FEED = synthetic_feed(60, num_keys=20, groups=("g1", "g2"), seed=7)
#: Events the fixture acknowledged: the torn line held the 55th.
ACKED = 54


def assert_ledger(store, events):
    """``store`` equals a single-pass in-memory store over ``events``."""
    reference = SketchStore(store.config)
    reference.ingest(events)
    assert store.events_ingested == len(events)
    assert store.groups == reference.groups
    for group in reference.groups:
        ours, theirs = store.group_state(group), reference.group_state(group)
        assert ours.totals == theirs.totals
        assert ours.first_seen == theirs.first_seen
        assert ours.last_seen == theirs.last_seen
        assert ours.events == theirs.events
    assert store.query("sum") == reference.query("sum")
    assert store.query("distinct") == reference.query("distinct")


@pytest.fixture
def old_store(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    return root


def log_lines(root):
    return [
        json.loads(line)
        for line in (root / "events.jsonl").read_text().splitlines()
    ]


class TestPerEventDirectory:
    def test_fixture_is_in_the_per_event_format(self):
        lines = (FIXTURE / "events.jsonl").read_bytes().split(b"\n")
        intact = [json.loads(line) for line in lines[:-1]]
        assert [line["seq"] for line in intact] == list(range(31, ACKED + 1))
        assert all("key" in line and "keys" not in line for line in intact)
        assert lines[-1] and not lines[-1].endswith(b"}")  # the torn line

    def test_recovers_to_the_exact_ledger(self, old_store):
        store = SketchStore.open(old_store)
        assert store.config == FIXTURE_CONFIG
        assert_ledger(store, FIXTURE_FEED[:ACKED])
        store.close()

    def test_mixed_log_replays_in_order(self, old_store):
        store = SketchStore.open(old_store)
        store.ingest(FIXTURE_FEED[ACKED:57])
        store.ingest(FIXTURE_FEED[57:])
        store.close()
        lines = log_lines(old_store)
        assert ["keys" in line for line in lines] == [False] * 24 + [True] * 2
        assert [line["seq"] for line in lines[-2:]] == [ACKED + 1, 58]
        replayed = list(EventLog(old_store / "events.jsonl").replay())
        assert [seq for seq, _ in replayed] == list(range(31, 61))
        assert [event for _, event in replayed] == FIXTURE_FEED[30:]
        reopened = SketchStore.open(old_store)
        assert_ledger(reopened, FIXTURE_FEED)
        reopened.close()

    def test_compacted_log_reopens_equal(self, old_store):
        store = SketchStore.open(old_store)
        store.ingest(FIXTURE_FEED[ACKED:])
        store.close()
        log = EventLog(old_store / "events.jsonl")
        before = list(log.replay())
        log.compact(through_seq=30)  # the snapshot's watermark
        assert all("keys" in line for line in log_lines(old_store))
        assert list(log.replay()) == before
        reopened = SketchStore.open(old_store)
        assert_ledger(reopened, FIXTURE_FEED)
        reopened.close()


class TestBatchLines:
    def test_replay_after_a_straddled_batch_yields_its_tail(self, tmp_path):
        events = synthetic_feed(16, num_keys=6, groups=("a", "b"), seed=1)
        log = EventLog(tmp_path / "events.jsonl")
        log.append_batch(1, EventBatch.from_events(events[:10]))
        log.append_batch(11, EventBatch.from_events(events[10:]))
        assert list(log.replay(after_seq=4)) == [
            (seq, events[seq - 1]) for seq in range(5, 17)
        ]
        first, tail = next(log.batches(after_seq=4))
        assert first == 5 and list(tail) == events[4:10]
        assert [first for first, _ in log.batches(after_seq=10)] == [11]
        assert [first for first, _ in log.batches(after_seq=12)] == [13]
        assert list(log.batches(after_seq=16)) == []
        log.close()

    def test_an_empty_batch_writes_no_line(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.append_batch(1, EventBatch.from_events([]))
        assert not log.path.exists()

    def test_unterminated_last_line_is_torn(self, tmp_path):
        # The newline is written with the line: a line without it never
        # finished its append, even when its JSON happens to parse.
        events = synthetic_feed(8, num_keys=4, groups=("a",), seed=3)
        log = EventLog(tmp_path / "events.jsonl")
        log.append_batch(1, EventBatch.from_events(events[:5]))
        log.append_batch(6, EventBatch.from_events(events[5:]))
        log.close()
        log.path.write_bytes(log.path.read_bytes()[:-1])
        assert [seq for seq, _ in log.replay()] == [1, 2, 3, 4, 5]
