"""The engine speedup gate's contract: schema-valid payloads, honest checks.

CI's benchmark job runs ``run_bench.py --check`` and ``--compare`` —
malformed output and a collapsed speedup must fail, timing noise must
not.  These tests load the harness straight from
``benchmarks/run_bench.py`` (it is a script, not a package), run one
cheap bench end to end, and exercise the validator on both sides.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCHMARKS = REPO / "benchmarks"


@pytest.fixture(scope="module")
def run_bench():
    """The harness module, loaded from its script path."""
    spec = importlib.util.spec_from_file_location(
        "run_bench", BENCHMARKS / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidator:
    def test_valid_payload_passes(self, run_bench):
        payload = {
            "schema": run_bench.SCHEMA,
            "git_sha": "abc1234",
            "python": "3.11.0",
            "numpy": "2.0.0",
            "backend": {"mode": "auto", "auto_threshold": 64},
            "benches": [
                {
                    "name": "x",
                    "params": {},
                    "items": 10,
                    "repeats": 3,
                    "wall_s": {"median": 0.1, "min": 0.09, "mean": 0.11},
                    "items_per_sec": 100.0,
                    "backend_decision": "auto",
                }
            ],
        }
        assert run_bench.validate_payload(payload) == []

    def test_malformed_payloads_fail(self, run_bench):
        assert run_bench.validate_payload([]) != []
        assert run_bench.validate_payload({"schema": "nope"}) != []
        missing_wall = {
            "schema": run_bench.SCHEMA,
            "git_sha": "x", "python": "x", "numpy": "x",
            "backend": {"mode": "auto"},
            "benches": [{"name": "b"}],
        }
        errors = run_bench.validate_payload(missing_wall)
        assert any("wall_s" in e for e in errors)
        zero_time = {
            "schema": run_bench.SCHEMA,
            "git_sha": "x", "python": "x", "numpy": "x",
            "backend": {"mode": "auto"},
            "benches": [
                {
                    "name": "b", "params": {}, "items": 1, "repeats": 1,
                    "wall_s": {"median": 0.0, "min": 0.0, "mean": 0.0},
                    "items_per_sec": 1.0, "backend_decision": "auto",
                }
            ],
        }
        assert any("median" in e for e in run_bench.validate_payload(zero_time))

    def test_committed_smoke_baseline_is_valid(self, run_bench):
        # CI compares every fresh smoke payload against this file; a
        # malformed baseline would silently disable the regression gate.
        payload = json.loads(
            (BENCHMARKS / "baseline_smoke.json").read_text()
        )
        assert run_bench.validate_payload(payload) == []
        assert payload["smoke"] is True
        named = {bench["name"] for bench in payload["benches"]}
        assert named == set(run_bench.SUITE)

    def test_suite_names_are_stable(self, run_bench):
        # The CI smoke job and the docs name these; renames must be
        # deliberate.
        assert set(run_bench.SUITE) == {
            "batch_sum", "simulate_grid", "moments_dominance",
            "moments_ablation", "example4_curves", "similarity_pairs",
            "ratios_sweep",
        }


def _payload(run_bench, speedups, smoke=False):
    """A schema-valid payload whose benches carry the given speedups
    (``None`` = no baseline measured)."""
    benches = []
    for name, speedup in speedups.items():
        bench = {
            "name": name, "params": {},
            "items": 10, "repeats": 3,
            "wall_s": {"median": 0.1, "min": 0.09, "mean": 0.11},
            "items_per_sec": 100.0, "backend_decision": "auto",
        }
        if speedup is not None:
            bench["speedup"] = speedup
            bench["baseline"] = {
                "backend": "scalar",
                "wall_s": {"median": 0.1 * speedup,
                           "min": 0.09 * speedup,
                           "mean": 0.11 * speedup},
            }
        benches.append(bench)
    return {
        "schema": run_bench.SCHEMA,
        "git_sha": "abc1234",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "backend": {"mode": "auto", "auto_threshold": 64},
        "smoke": smoke,
        "benches": benches,
    }


class TestCompare:
    def test_identical_payloads_pass(self, run_bench):
        payload = _payload(run_bench, {"a": 4.0, "b": None})
        regressions, _notes = run_bench.compare_payloads(
            payload, payload, band=0.5
        )
        assert regressions == []

    def test_within_band_passes_beyond_band_fails(self, run_bench):
        old = _payload(run_bench, {"a": 4.0})
        within = _payload(run_bench, {"a": 2.1})  # 0.525 of old
        beyond = _payload(run_bench, {"a": 1.9})  # 0.475 of old
        assert run_bench.compare_payloads(old, within, band=0.5)[0] == []
        regressions, _ = run_bench.compare_payloads(old, beyond, band=0.5)
        assert len(regressions) == 1
        assert "a" in regressions[0]

    def test_improvements_never_fail(self, run_bench):
        old = _payload(run_bench, {"a": 2.0})
        new = _payload(run_bench, {"a": 40.0})
        assert run_bench.compare_payloads(old, new, band=0.1)[0] == []

    def test_lost_speedup_coverage_is_a_regression(self, run_bench):
        old = _payload(run_bench, {"a": 4.0, "b": 3.0})
        missing = _payload(run_bench, {"b": 3.0})
        unmeasured = _payload(run_bench, {"a": None, "b": 3.0})
        assert len(run_bench.compare_payloads(old, missing, band=0.5)[0]) == 1
        assert len(run_bench.compare_payloads(old, unmeasured, band=0.5)[0]) == 1

    def test_new_and_baseline_free_benches_are_notes(self, run_bench):
        old = _payload(run_bench, {"a": 4.0, "c": None})
        new = _payload(run_bench, {"a": 4.0, "d": None}, smoke=True)
        regressions, notes = run_bench.compare_payloads(old, new, band=0.5)
        assert regressions == []
        text = "\n".join(notes)
        assert "c" in text and "d" in text and "smoke" in text

    def test_near_unity_speedups_are_informational(self, run_bench):
        # A 1.1x-vs-0.5x flip is noise around "no speedup", not a
        # vectorized path collapsing; it must never fail the build.
        old = _payload(run_bench, {"a": 1.1})
        new = _payload(run_bench, {"a": 0.5})
        regressions, notes = run_bench.compare_payloads(old, new, band=0.5)
        assert regressions == []
        assert any("informational" in note for note in notes)
        gone = _payload(run_bench, {})
        assert run_bench.compare_payloads(old, gone, band=0.5)[0] == []

    def test_band_must_be_a_fraction(self, run_bench):
        payload = _payload(run_bench, {"a": 1.0})
        with pytest.raises(ValueError):
            run_bench.compare_payloads(payload, payload, band=1.0)

    def test_cli_compare_exit_codes(self, run_bench, tmp_path, capsys):
        # main() in-process rather than one subprocess per invocation:
        # same argv parsing and exit codes, without paying interpreter
        # plus numpy start-up four times (tier-1 runtime budget).
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_payload(run_bench, {"a": 4.0})))
        new.write_text(json.dumps(_payload(run_bench, {"a": 1.0})))
        assert run_bench.main(["--compare", str(old), str(old)]) == 0
        assert "ok" in capsys.readouterr().out
        assert run_bench.main(["--compare", str(old), str(new)]) == 1
        assert "regression" in capsys.readouterr().err
        assert run_bench.main(
            ["--compare", str(old), str(new), "--band", "0.9"]
        ) == 0
        assert run_bench.main(
            ["--compare", str(old), str(tmp_path / "nope.json")]
        ) == 2


class TestEndToEnd:
    def test_smoke_bench_emits_schema_valid_payload(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = subprocess.run(
            [sys.executable, str(BENCHMARKS / "run_bench.py"),
             "--smoke", "--warmup", "0", "--repeats", "1",
             "--only", "moments_dominance", "--output", str(out)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/1"
        [bench] = payload["benches"]
        assert bench["name"] == "moments_dominance"
        assert bench["wall_s"]["median"] > 0
        assert bench.get("speedup", 1.0) > 0
        check = subprocess.run(
            [sys.executable, str(BENCHMARKS / "run_bench.py"),
             "--check", str(out)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert check.returncode == 0, check.stderr
        assert "ok" in check.stdout

    def test_check_rejects_truncated_payload(self, run_bench, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/1"')
        assert run_bench.main(["--check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
