"""Tests for the declarative experiment API: specs, runner, sharding, cache.

The load-bearing guarantees:

* every experiment E1–E11 is a registered spec (plus descriptive aliases);
* the same spec produces bit-identical records for any ``jobs`` value and
  for a cache replay (SeedSequence-per-replication seeding);
* the cache key is a content hash — any parameter change re-runs;
* the golden E1 values reproduce through the runner;
* the ``run_all`` CLI returns nonzero when an experiment raises.
"""

import dataclasses
import json

import pytest

from repro.api.experiments import (
    EXPERIMENT_SPECS,
    ExperimentRunner,
    ExperimentSpec,
    ReplicationPlan,
    canonical_keys,
    register_experiment,
    resolve_spec,
    spec_digest,
)
from repro.experiments import run_all
from repro.experiments.report import render_result

#: E9 at throwaway scale — replicated, so it exercises sharding.
E9_TINY = dataclasses.replace(
    resolve_spec("E9"),
    scales={"quick": {"num_items": 20, "sampling_rates": [0.2],
                      "exponents": [1.0], "replications": 6}},
)


class TestSpecRegistry:
    def test_canonical_keys_cover_the_paper(self):
        assert canonical_keys() == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
        ]

    def test_descriptive_aliases_resolve_to_the_same_spec(self):
        for alias, key in [
            ("example1", "E1"), ("theorem41", "E6"), ("ratios", "E7"),
            ("dominance", "E8"), ("lp_difference", "E9"),
            ("similarity", "E10"), ("ablation", "E11"),
        ]:
            assert resolve_spec(alias) is resolve_spec(key)

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            resolve_spec("E99")


class TestSpecDigest:
    def test_digest_changes_with_params_and_scale_and_backend(self):
        spec = resolve_spec("E9")
        params = spec.merged_params("quick")
        base = spec_digest(spec, params, "quick", None)
        assert base == spec_digest(spec, spec.merged_params("quick"), "quick", None)
        changed = dict(params, num_items=params["num_items"] + 1)
        assert spec_digest(spec, changed, "quick", None) != base
        assert spec_digest(spec, params, "full", None) != base
        assert spec_digest(spec, params, "quick", "vectorized") != base

    def test_replications_override_changes_digest(self):
        spec = resolve_spec("E9")
        params = spec.merged_params("quick")
        more = dict(params, replications=params["replications"] + 1)
        assert spec_digest(spec, more, "quick", None) != spec_digest(
            spec, params, "quick", None
        )


class TestRunnerGolden:
    def test_run_e1_records(self):
        result = ExperimentRunner().run("E1")
        by_query = {r["query"]: r for r in result.records}
        assert by_query["L1"]["computed"] == pytest.approx(0.72, abs=1e-12)
        assert by_query["L2^2"]["computed"] == pytest.approx(0.1617, abs=1e-12)
        assert by_query["L2"]["computed"] == pytest.approx(
            0.402119385257662, abs=1e-12
        )
        assert by_query["L1+"]["computed"] == pytest.approx(0.28, abs=1e-12)
        assert by_query["G"]["computed"] == pytest.approx(1.4144, abs=1e-12)

    def test_run_e2_patterns(self):
        result = ExperimentRunner().run("E2")
        agrees = {r["item"]: r["agrees"] for r in result.records}
        assert all(agrees.values()) and set(agrees) == set("abcdefgh")
        assert result.metadata["sampled_items"] == ["a", "b", "c", "d", "g"]


class TestShardDeterminism:
    def test_records_identical_for_any_job_count(self):
        serial = ExperimentRunner(jobs=1).run(E9_TINY)
        sharded = ExperimentRunner(jobs=4).run(E9_TINY)
        assert serial.records == sharded.records

    def test_cache_replay_is_identical(self, tmp_path):
        first = ExperimentRunner(jobs=2, cache_dir=tmp_path).run(E9_TINY)
        assert first.metadata["cache"]["hit"] is False
        replay = ExperimentRunner(jobs=1, cache_dir=tmp_path).run(E9_TINY)
        assert replay.metadata["cache"]["hit"] is True
        assert replay.records == first.records

    def test_cache_miss_on_parameter_change(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run(E9_TINY)
        changed = dataclasses.replace(
            E9_TINY,
            scales={"quick": {"num_items": 21, "sampling_rates": [0.2],
                              "exponents": [1.0], "replications": 6}},
        )
        result = runner.run(changed)
        assert result.metadata["cache"]["hit"] is False

    def test_replication_plan_validation(self):
        with pytest.raises(ValueError):
            ReplicationPlan(seed=0, replications=0)
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)


class TestRenderResult:
    def test_render_contains_table_notes_and_provenance(self):
        result = ExperimentRunner(jobs=2).run(E9_TINY)
        text = render_result(result)
        assert text.startswith("E9 — ")
        assert "estimator" in text and "rmse" in text
        assert "Lower-RMSE estimator per configuration:" in text
        assert "[scale=quick" in text and "jobs=2" in text


class TestRunAllCLI:
    def test_json_format_round_trips(self, capsys):
        exit_code = run_all.main(["--only", "E1", "--format", "json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload[0]["key"] == "E1"
        assert payload[0]["records"][0]["query"] == "L1"

    def test_failing_experiment_sets_exit_code(self, capsys):
        boom = ExperimentSpec(
            key="EBOOM",
            title="always fails",
            task="repro.experiments.example3:compute",
            params={"grid": "not-a-number"},
        )
        register_experiment(boom, overwrite=True)
        try:
            exit_code = run_all.main(["--only", "E1", "EBOOM"])
            captured = capsys.readouterr()
            assert exit_code == 1
            assert "### E1" in captured.out
            assert "EBOOM failed" in captured.err
            assert "Traceback" not in captured.err
        finally:
            EXPERIMENT_SPECS.unregister("EBOOM")

    def test_unknown_experiment_sets_exit_code(self, capsys):
        exit_code = run_all.main(["--only", "E42"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "E42 failed" in captured.err

    def test_smoke_scale_runs_sharded(self, capsys):
        exit_code = run_all.main(["--smoke", "--jobs", "2", "--only", "E9",
                                  "--format", "json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload[0]["scale"] == "smoke"
        assert payload[0]["metadata"]["replications"] == 4

