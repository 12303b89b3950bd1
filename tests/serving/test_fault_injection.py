"""Fault injection for store durability: crashes are fabricated, not real.

The invariant under test (see :mod:`repro.serving.persistence`): after a
crash at **any byte boundary** — mid-append to the write-ahead log,
mid-snapshot, or mid-compaction — reopening the directory yields a
consistent store whose state is exactly the longest durably-acknowledged
prefix of the feed: no duplicate events, no acknowledged-but-lost
events, and query answers bit-identical to a fresh single-pass store
over that prefix.

Crashes are fabricated the way :mod:`tests.api.test_scheduler` fabricates
interruptions: by truncating files at chosen byte offsets, by planting
the exact ``.partial`` artifact a killed snapshot leaves behind, and by
monkeypatching ``finalize`` to raise mid-write.
"""

import json

import pytest

from repro.api.records import RecordStore
from repro.serving import SketchStore, StoreConfig, synthetic_feed
from repro.serving.persistence import (
    DIGEST_WIDTH,
    SNAPSHOT_KEY,
    latest_snapshot_digest,
)

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="faults")


def feed(n=120, seed=3):
    return synthetic_feed(n, num_keys=25, groups=("g1", "g2"), seed=seed)


#: Batch sizes cycled by :func:`ingest_batches` — uneven, with a
#: one-event batch, so batch and event boundaries do not line up.
BATCH_SIZES = (7, 13, 1, 20, 9)


def ingest_batches(store, events):
    """Ingest ``events`` in :data:`BATCH_SIZES` batches; returns the
    cumulative event count after each batch (one WAL line each)."""
    ends, start, index = [], 0, 0
    while start < len(events):
        end = min(len(events), start + BATCH_SIZES[index % len(BATCH_SIZES)])
        store.ingest(events[start:end])
        ends.append(end)
        start, index = end, index + 1
    return ends


def reference_store(events):
    store = SketchStore(CONFIG)
    store.ingest(events)
    return store


def assert_matches_prefix(recovered, events):
    """The recovered store equals a single-pass store over ``events``."""
    reference = reference_store(events)
    assert recovered.events_ingested == len(events)
    assert recovered.groups == reference.groups
    for group in reference.groups:
        assert (
            recovered.group_state(group).totals
            == reference.group_state(group).totals
        )
        assert (
            recovered.group_state(group).first_seen
            == reference.group_state(group).first_seen
        )
    assert recovered.query("sum") == reference.query("sum")
    assert recovered.query("distinct") == reference.query("distinct")


class TestWalTornTail:
    def test_clean_reopen_replays_everything(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events)
        store.close()
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()

    def test_torn_last_line_drops_only_the_torn_batch(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        ends = ingest_batches(store, events)
        store.close()
        log = tmp_path / "events.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(ends)  # one line per batch
        log.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events[: ends[-2]])
        recovered.close()

    @pytest.mark.parametrize("fraction", [0.0, 0.17, 0.5, 0.83, 0.999])
    def test_truncation_at_any_byte_boundary(self, tmp_path, fraction):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        ends = ingest_batches(store, events)
        store.close()
        log = tmp_path / "events.jsonl"
        data = log.read_bytes()
        cut = int(len(data) * fraction)
        log.write_bytes(data[:cut])
        # A cut inside line k keeps exactly the first k - 1 batches.
        intact = data[:cut].count(b"\n")
        survivors = ends[intact - 1] if intact else 0
        if 0 < fraction < 1:
            assert 0 < intact < len(ends)
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events[:survivors])
        recovered.close()

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Batches acknowledged after recovering from a torn tail must not
        # be written behind the torn bytes, where replay never reaches.
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        ends = ingest_batches(store, events[:60])
        store.close()
        log = tmp_path / "events.jsonl"
        log.write_bytes(log.read_bytes()[:-9])
        recovered = SketchStore.open(tmp_path)
        assert recovered.events_ingested == ends[-2]
        recovered.ingest(events[ends[-2] : 90])
        recovered.ingest(events[90:])
        recovered.close()
        reopened = SketchStore.open(tmp_path)
        assert_matches_prefix(reopened, events)
        reopened.close()

    def test_recovered_store_keeps_accepting_events(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events[:80])
        store.close()
        recovered = SketchStore.open(tmp_path)
        recovered.ingest(events[80:])
        assert_matches_prefix(recovered, events)
        recovered.close()
        reopened = SketchStore.open(tmp_path)
        assert_matches_prefix(reopened, events)
        reopened.close()


class TestSnapshotCrash:
    def test_finalize_crash_leaves_partial_that_recovery_ignores(
        self, tmp_path, monkeypatch
    ):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events[:60])
        store.snapshot()
        store.ingest(events[60:])

        def crash(self, writer, payload):
            raise OSError("fabricated crash during snapshot finalize")

        monkeypatch.setattr(RecordStore, "finalize", crash)
        with pytest.raises(OSError, match="fabricated crash"):
            store.snapshot()
        monkeypatch.undo()
        store.close()

        partials = list((tmp_path / "snapshots").glob("*.partial"))
        assert partials, "the crashed snapshot should leave a .partial file"
        assert latest_snapshot_digest(tmp_path) == f"{60:0{DIGEST_WIDTH}d}"

        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()

    def test_planted_partial_from_killed_process_is_ignored(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events)
        store.close()
        # A kill -9 mid-snapshot leaves a half-written .partial stream.
        digest = f"{len(events):0{DIGEST_WIDTH}d}"
        partial = (
            tmp_path / "snapshots" / f"{SNAPSHOT_KEY}-{digest}.jsonl.partial"
        )
        partial.parent.mkdir(parents=True, exist_ok=True)
        partial.write_text(
            json.dumps({"type": "manifest", "digest": digest}) + "\n"
            '{"type": "record", "group": "g1", "item'
        )
        assert latest_snapshot_digest(tmp_path) is None
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()

    def test_snapshot_after_crash_recovers_and_compacts(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events)
        store.snapshot()
        store.close()
        assert latest_snapshot_digest(tmp_path) == (
            f"{len(events):0{DIGEST_WIDTH}d}"
        )
        # Snapshot compacted the log: replaying it alone yields nothing.
        assert (tmp_path / "events.jsonl").read_text() == ""
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()

    def test_snapshot_plus_tail_replay_has_no_duplicates(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        ingest_batches(store, events[:50])
        store.snapshot()
        ends = ingest_batches(store, events[50:])
        store.close()
        # The WAL holds only the post-snapshot tail, one line per batch;
        # sequence numbers keep replay from re-applying anything the
        # snapshot already folded in.
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert [line["seq"] for line in lines] == [51] + [
            51 + end for end in ends[:-1]
        ]
        tail = [
            line["seq"] + row
            for line in lines
            for row in range(len(line["keys"]))
        ]
        assert tail == list(range(51, len(events) + 1))
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()


class TestCompactionCrash:
    def test_leftover_compaction_temp_is_harmless(self, tmp_path):
        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events)
        store.close()
        # A crash between writing the temp and the atomic rename leaves
        # events.jsonl.compact next to the authoritative log.
        (tmp_path / "events.jsonl.compact").write_text('{"seq": 1, "torn')
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()

    def test_crash_before_rename_keeps_old_log(self, tmp_path, monkeypatch):
        import repro.serving.persistence as persistence

        events = feed()
        store = SketchStore.open(tmp_path, CONFIG)
        store.ingest(events)

        def crash(src, dst):
            raise OSError("fabricated crash before rename")

        monkeypatch.setattr(persistence.os, "replace", crash)
        with pytest.raises(OSError, match="fabricated crash"):
            store.snapshot()
        monkeypatch.undo()
        store.close()
        recovered = SketchStore.open(tmp_path)
        assert_matches_prefix(recovered, events)
        recovered.close()
