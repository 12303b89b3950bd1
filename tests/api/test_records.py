"""Tests for the streamed record store (repro.api.records).

The load-bearing guarantees:

* a finalized ``.jsonl`` file always holds a complete run (manifest,
  sealed shards, final result) and appears atomically — the ``.partial``
  stream disappears in the same rename;
* a truncated / torn partial file parses to exactly the shards whose
  ``shard_done`` markers survived, so an interrupted run resumes instead
  of corrupting;
* resuming carries completed shards (and the recorded shard layout)
  into the fresh stream verbatim.
"""

import json

import pytest

from repro.api.records import RecordStore, read_run

MANIFEST = {
    "version": 1,
    "key": "EX",
    "title": "example",
    "scale": "quick",
    "digest": "abc123",
    "plan": "replication",
    "units": 4,
    "shards": [[0, 2], [2, 4]],
}

SHARD0 = [{"replication": 0, "value": 0.25}, {"replication": 1, "value": 0.5}]
SHARD1 = [{"replication": 2, "value": 0.75}, {"replication": 3, "value": 1.0}]


def _write_full_run(store, final_payload=None):
    writer = store.begin("EX", "abc123", MANIFEST)
    writer.append_shard(0, SHARD0)
    writer.append_shard(1, SHARD1)
    payload = final_payload or {
        "key": "EX", "title": "example", "scale": "quick",
        "records": SHARD0 + SHARD1, "metadata": {"notes": ["done"]},
    }
    return store.finalize(writer, payload)


class TestWriterAndReader:
    def test_finalize_is_atomic(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        assert store.partial_path("EX", "abc123").exists()
        assert not store.final_path("EX", "abc123").exists()
        writer.append_shard(1, SHARD1)
        path = store.finalize(writer, {
            "key": "EX", "title": "example", "scale": "quick",
            "records": SHARD0 + SHARD1, "metadata": {},
        })
        assert path == store.final_path("EX", "abc123")
        assert path.exists()
        assert not store.partial_path("EX", "abc123").exists()

    def test_reader_round_trips_records_in_unit_order(self, tmp_path):
        store = RecordStore(tmp_path)
        # Append out of shard order, as the scheduler may.
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(1, SHARD1)
        writer.append_shard(0, SHARD0)
        writer.abandon()
        run = read_run(store.partial_path("EX", "abc123"))
        assert run is not None and not run.is_complete
        assert run.raw_records() == SHARD0 + SHARD1  # sorted by shard lo
        assert run.shards == [[0, 2], [2, 4]]
        assert run.digest == "abc123" and run.key == "EX"

    def test_finalized_run_carries_the_result(self, tmp_path):
        store = RecordStore(tmp_path)
        path = _write_full_run(store)
        run = read_run(path)
        assert run.is_complete
        result = run.to_experiment_result()
        assert result.key == "EX"
        assert list(result.records) == SHARD0 + SHARD1
        assert result.metadata["notes"] == ["done"]

    def test_unfinished_run_refuses_to_produce_a_result(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        writer.abandon()
        run = read_run(store.partial_path("EX", "abc123"))
        with pytest.raises(ValueError, match="unfinished"):
            run.to_experiment_result()

    def test_closed_writer_rejects_appends(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.abandon()
        with pytest.raises(ValueError, match="closed"):
            writer.append_shard(0, SHARD0)

    def test_read_run_missing_or_garbage(self, tmp_path):
        assert read_run(tmp_path / "nope.jsonl") is None
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert read_run(bad) is None
        # A record line before any manifest is not a store file either.
        headless = tmp_path / "headless.jsonl"
        headless.write_text(json.dumps({"kind": "record", "shard": 0,
                                        "seq": 0, "data": {}}) + "\n")
        assert read_run(headless) is None


class TestTruncationAndResume:
    def test_torn_line_drops_only_unsealed_shards(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        writer.append_shard(1, SHARD1)
        writer.abandon()
        partial = store.partial_path("EX", "abc123")
        lines = partial.read_text().splitlines()
        # Tear the stream inside shard 1 (before its done marker).
        done1 = max(
            i for i, l in enumerate(lines)
            if json.loads(l)["kind"] == "shard_done"
        )
        partial.write_text(
            "\n".join(lines[:done1]) + '\n{"kind":"record","torn'
        )
        run = read_run(partial)
        assert sorted(run.completed_shards()) == [0]
        assert run.raw_records() == SHARD0

    def test_begin_resume_carries_sealed_shards(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        writer.abandon()
        resumed = store.begin("EX", "abc123", MANIFEST, resume=True)
        assert resumed.carried_records == {0: SHARD0}
        assert resumed.manifest["shards"] == [[0, 2], [2, 4]]
        resumed.append_shard(1, SHARD1)
        path = store.finalize(resumed, {
            "key": "EX", "title": "example", "scale": "quick",
            "records": SHARD0 + SHARD1, "metadata": {},
        })
        assert read_run(path).raw_records() == SHARD0 + SHARD1

    def test_begin_without_resume_starts_fresh(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        writer.abandon()
        fresh = store.begin("EX", "abc123", MANIFEST)
        assert fresh.carried_records == {}
        fresh.abandon()
        run = read_run(store.partial_path("EX", "abc123"))
        assert run.completed_shards() == {}

    def test_resume_ignores_a_digest_mismatch(self, tmp_path):
        store = RecordStore(tmp_path)
        writer = store.begin("EX", "abc123", MANIFEST)
        writer.append_shard(0, SHARD0)
        writer.abandon()
        other = dict(MANIFEST, digest="fff000")
        resumed = store.begin("EX", "fff000", other, resume=True)
        assert resumed.carried_records == {}
        resumed.abandon()

    def test_store_load_prefers_finalized(self, tmp_path):
        store = RecordStore(tmp_path)
        _write_full_run(store)
        run = store.load("EX", "abc123")
        assert run is not None and run.is_complete
        assert store.load("EX", "0000000000000000") is None

