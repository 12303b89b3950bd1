"""Tests for the cross-experiment scheduler and record streaming.

The load-bearing guarantees:

* ``run_batch`` flattens every selected experiment's shards into one
  global largest-work-first queue — shards of *different* experiments
  interleave instead of draining one experiment at a time;
* E7 (vector-grid sweep) and E10 (node-pair sweep) shard through the
  runner with records bit-identical for any ``jobs`` value;
* a mid-run interruption leaves a ``.partial`` store file that the next
  run of the same spec continues: it skips every sealed shard, re-runs
  only the rest, and reproduces the exact records of an uninterrupted
  run;
* the records directory is the runner's only memo: a finalized file is
  replayed, and a deleted one is a miss;
* one failing experiment never aborts the batch;
* each experiment splits into ``min(jobs, units)`` equal shards, and the
  schedule changes only the order of work, never the records: runs are
  bit-identical across ``jobs`` 1/2/4.
"""

import dataclasses
import json

import pytest

from repro.api.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    SweepPlan,
    resolve_spec,
)
from repro.api.records import read_run

#: Tiny shardable variants — every test below runs in well under a second
#: of compute per experiment.
E9_TINY = dataclasses.replace(
    resolve_spec("E9"),
    scales={"quick": {"num_items": 20, "sampling_rates": [0.2],
                      "exponents": [1.0], "replications": 6}},
)
E7_TINY = dataclasses.replace(
    resolve_spec("E7"),
    scales={"quick": {"grid_points": 1, "exponents": [1.0],
                      "include_baselines": False}},
)
E10_TINY = dataclasses.replace(
    resolve_spec("E10"),
    scales={"quick": {"ks": [4], "num_pairs": 2}},
)


class TestWorkPlans:
    def test_e7_and_e10_are_sweep_specs(self):
        assert resolve_spec("E7").sweep is not None
        assert resolve_spec("E10").sweep is not None
        assert resolve_spec("E9").replication is not None
        assert resolve_spec("E1").plan is None

    def test_a_spec_cannot_have_two_plans(self):
        with pytest.raises(ValueError, match="both"):
            dataclasses.replace(
                resolve_spec("E9"),
                sweep=SweepPlan(points="repro.experiments.ratios:sweep_points"),
            )

    def test_sweep_plan_validates_hook_path(self):
        with pytest.raises(ValueError, match="module:function"):
            SweepPlan(points="not-a-hook")


class TestSweepShardDeterminism:
    @pytest.mark.parametrize("spec", [E7_TINY, E10_TINY],
                             ids=["E7", "E10"])
    def test_sweeps_shard_bit_identically(self, spec):
        serial = ExperimentRunner(jobs=1).run(spec)
        sharded = ExperimentRunner(jobs=3).run(spec)
        assert serial.records == sharded.records
        assert len(sharded.metadata["shards"]) > 1
        assert sharded.metadata["units"] == sum(
            hi - lo for lo, hi in sharded.metadata["shards"]
        )


class TestGlobalSchedule:
    def test_shards_of_different_experiments_interleave(self):
        batch = ExperimentRunner(jobs=4).run_batch(
            [E9_TINY, E10_TINY, E7_TINY]
        )
        assert batch.ok
        keys = [unit.key for unit in batch.schedule]
        assert {"E9", "E10", "E7"} <= set(keys)
        # Largest work first...
        weights = [unit.weight for unit in batch.schedule]
        assert weights == sorted(weights, reverse=True)
        # ...and the queue interleaves experiments rather than draining
        # one at a time: the schedule has more consecutive key-groups
        # than distinct keys.
        groups = 1 + sum(
            1 for a, b in zip(keys, keys[1:]) if a != b
        )
        assert groups > len(set(keys))

    def test_records_bit_identical_across_jobs(self):
        reference = ExperimentRunner(jobs=1).run(E9_TINY)
        for jobs in (2, 4):
            assert ExperimentRunner(jobs=jobs).run(E9_TINY).records == (
                reference.records
            )

    def test_shards_are_min_of_jobs_and_units(self):
        # E10_TINY has 5 units: 2 random pairs plus 3 adjacent ones.
        for jobs, count in ((1, 1), (4, 4), (6, 5)):
            batch = ExperimentRunner(jobs=jobs).run_batch([E10_TINY])
            assert batch.ok
            shards = batch.results[0].metadata["shards"]
            assert len(shards) == count
            sizes = [hi - lo for lo, hi in shards]
            assert sum(sizes) == 5 and max(sizes) - min(sizes) <= 1
            assert [u.weight for u in batch.schedule] == sorted(
                sizes, reverse=True
            )

    def test_batch_results_align_with_request_order(self):
        batch = ExperimentRunner(jobs=2).run_batch([E10_TINY, E9_TINY])
        assert [r.key for r in batch.results] == ["E10", "E9"]

    def test_batch_matches_individual_runs(self):
        batch = ExperimentRunner(jobs=4).run_batch([E9_TINY, E7_TINY])
        alone = {s.key: ExperimentRunner(jobs=1).run(s)
                 for s in (E9_TINY, E7_TINY)}
        for result in batch.results:
            assert result.records == alone[result.key].records

    def test_one_failure_does_not_abort_the_batch(self):
        boom = ExperimentSpec(
            key="EBOOM", title="always fails",
            task="repro.experiments.example3:compute",
            params={"grid": "not-a-number"},
        )
        batch = ExperimentRunner(jobs=2).run_batch([E10_TINY, boom, E9_TINY])
        assert [getattr(r, "key", None) for r in batch.results] == [
            "E10", None, "E9",
        ]
        assert [label for label, _ in batch.failures] == ["EBOOM"]

    def test_duplicate_selection_runs_once(self, tmp_path):
        runner = ExperimentRunner(jobs=2, records_dir=tmp_path)
        batch = runner.run_batch([E10_TINY, E10_TINY])
        assert batch.ok
        assert batch.results[0].records == batch.results[1].records
        # Only one shard set was scheduled for the shared digest.
        assert len(batch.schedule) == len(
            {(u.key, u.shard) for u in batch.schedule}
        )


class TestRecordStreaming:
    def test_streamed_store_finalizes_and_matches_result(self, tmp_path):
        runner = ExperimentRunner(jobs=2, records_dir=tmp_path)
        result = runner.run(E9_TINY)
        path = result.metadata["records"]["path"]
        run = read_run(path)
        assert run.is_complete
        assert run.to_experiment_result().records == result.records
        # The raw stream holds every replication's records, shard by shard.
        raw = run.raw_records()
        assert sorted({r["replication"] for r in raw}) == list(range(6))
        assert not path.endswith(".partial")

    def test_interrupted_run_leaves_resumable_store(self, tmp_path):
        full = ExperimentRunner(jobs=3, records_dir=tmp_path).run(E9_TINY)
        final = next(tmp_path.glob("E9-*.jsonl"))
        original_raw = read_run(final).raw_records()
        lines = final.read_text().splitlines()
        # Fabricate the interruption: drop the final block, tear the last
        # shard mid-stream, and re-label the file as partial.
        last_done = max(
            i for i, l in enumerate(lines)
            if json.loads(l)["kind"] == "shard_done"
        )
        partial = final.with_name(final.name + ".partial")
        partial.write_text(
            "\n".join(lines[:last_done]) + '\n{"kind":"record","to'
        )
        final.unlink()

        resumed = ExperimentRunner(jobs=2, records_dir=tmp_path).run(E9_TINY)
        assert resumed.records == full.records  # bit-identical
        skipped = resumed.metadata["records"]["resumed_shards"]
        assert skipped and len(skipped) < len(resumed.metadata["shards"])
        # The resumed stream finalized with a raw record stream identical
        # to the uninterrupted run's (same layout, recomputed shards).
        restored = read_run(next(tmp_path.glob("E9-*.jsonl")))
        assert restored.is_complete
        assert restored.raw_records() == original_raw
        # A further run replays the finalized store outright.
        rerun = ExperimentRunner(jobs=1, records_dir=tmp_path).run(E9_TINY)
        assert rerun.metadata["records"].get("hit") is True
        assert rerun.records == full.records

    def test_failed_run_leaves_partial_not_final(self, tmp_path):
        # A finalize hook with the wrong signature fails *after* the
        # shards have streamed — the interruption scenario.
        boom = dataclasses.replace(
            E9_TINY, finalize="repro.experiments.example3:compute"
        )
        batch = ExperimentRunner(jobs=1, records_dir=tmp_path).run_batch([boom])
        assert not batch.ok
        assert list(tmp_path.glob("E9-*.jsonl")) == []
        partial = list(tmp_path.glob("E9-*.jsonl.partial"))
        assert len(partial) == 1
        # The computed shards were streamed before the failure.
        assert read_run(partial[0]).completed_shards()


class TestCachePointers:
    def test_cache_entry_points_into_the_store(self, tmp_path):
        first = ExperimentRunner(jobs=2, records_dir=tmp_path).run(E9_TINY)
        stored = next(tmp_path.glob("E9-*.jsonl"))
        assert first.metadata["records"]["path"] == str(stored)
        replay = ExperimentRunner(jobs=1, records_dir=tmp_path).run(E9_TINY)
        assert replay.metadata["records"]["hit"] is True
        assert replay.metadata["records"]["path"] == str(stored)
        assert replay.records == first.records
        # The replay reads the store and writes nothing new.
        assert sorted(tmp_path.iterdir()) == [stored]

    def test_deleting_the_store_file_is_a_cache_miss(self, tmp_path):
        first = ExperimentRunner(records_dir=tmp_path).run(E10_TINY)
        next(tmp_path.glob("E10-*.jsonl")).unlink()
        rerun = ExperimentRunner(records_dir=tmp_path).run(E10_TINY)
        assert "hit" not in rerun.metadata["records"]
        assert rerun.records == first.records
        assert len(list(tmp_path.glob("E10-*.jsonl"))) == 1


class TestRunAllCLIRecords:
    def test_records_dir_flag_replays(self, tmp_path, capsys):
        from repro.experiments import run_all

        records = tmp_path / "records"
        argv = ["--smoke", "--only", "E10", "--records-dir", str(records),
                "--format", "json"]
        assert run_all.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        stored = list(records.glob("E10-*.jsonl"))
        assert len(stored) == 1
        assert run_all.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["metadata"]["records"]["hit"] is True
        assert payload[0]["records"] == first[0]["records"]
