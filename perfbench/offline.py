"""The ``offline_reproduce`` workload: full-scale E1–E11 passes in one process.

Set-up is what a fresh process pays before its first pass — interpreter
start, library import, spec resolution and runner construction — timed
in separate child processes.  This process then runs E1–E11 at ``full``
scale through one :class:`~repro.api.experiments.ExperimentRunner` with
the result cache, record store and cost model off.  The first pass is
*cold* (the process's in-memory memo caches are empty); every later pass
is *warm*, and the warm passes give the headline wall time.  Every
pass's results are checked against the reference values stored next to
this file, and E1/E2 against the frozen constants of the golden tests.

The runner uses one job, so every experiment runs in this process.  The
host-speed kernel of ``calibrate.py`` is timed here before and after
each pass and each set-up, and every time of the run is scaled to the
reference speed by the median of those kernel times.
"""

from __future__ import annotations

import ast
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import calibrate
import layers
import spans as tracing
from stats import peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "experiments" / "test_golden.py"
REFERENCE = HERE / "offline_reference.json"

#: The runner's optional persistence, all of which must be off.
RUNNER_ENV = ("REPRO_EXPERIMENT_CACHE", "REPRO_EXPERIMENT_RECORDS", "REPRO_COST_MODEL")

#: Float agreement with the stored reference values.
REL_TOL = 1e-9
ABS_TOL = 1e-12

SETUP_PROBE = (
    "from repro.api.experiments import ExperimentRunner, canonical_keys, resolve_spec\n"
    "[resolve_spec(key) for key in canonical_keys()]\n"
    "ExperimentRunner(jobs={jobs})\n"
)


def _clean_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in RUNNER_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def time_setup(jobs: int) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE.format(jobs=jobs)],
        env=_clean_env(),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


def comparable(result) -> Dict[str, Any]:
    """The parts of a result that must reproduce: records and checks."""
    payload = json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))
    kept = {"records": payload["records"]}
    if "checks" in payload["metadata"]:
        kept["checks"] = payload["metadata"]["checks"]
    return kept


def _diff(path: str, got: Any, want: Any, out: List[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _diff(f"{path}.{key}", got[key], want[key], out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: {len(got)} entries != {len(want)}")
            return
        for index, (a, b) in enumerate(zip(got, want)):
            _diff(f"{path}[{index}]", a, b, out)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {got!r} != {want!r}")
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def golden_constants() -> Dict[str, Any]:
    """The frozen E1/E2 constants, read from the golden test module."""
    tree = ast.parse(GOLDEN.read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", "")
            if name.startswith(("E1_", "E2_")):
                constants[name] = ast.literal_eval(node.value)
    return constants


def check_golden(results: Dict[str, Any], golden: Dict[str, Any]) -> List[str]:
    """E1 query values and E2 sample patterns against the golden constants."""
    problems = []
    rows = results["E1"]["records"]
    if len(rows) != len(golden["E1_GOLDEN"]):
        problems.append(f"E1: {len(rows)} rows, golden has {len(golden['E1_GOLDEN'])}")
    for row in rows:
        selection, value = golden["E1_GOLDEN"][row["query"]]
        if row["items"] != "{" + ",".join(selection) + "}" or not math.isclose(
            row["computed"], value, rel_tol=0.0, abs_tol=1e-12
        ):
            problems.append(f"E1 {row['query']}: {row['items']} {row['computed']!r} != golden {value!r}")
    for row in results["E2"]["records"]:
        pattern = golden["E2_GOLDEN_PATTERNS"][row["item"]]
        want = "(" + ", ".join("*" if value is None else repr(value) for value in pattern) + ")"
        if row["computed"] != want:
            problems.append(f"E2 {row['item']}: {row['computed']} != golden {want}")
    return problems


def check_golden_estimates(golden: Dict[str, Any]) -> List[str]:
    """The L* sums over E2's sample against the golden constants."""
    from repro.aggregates.sum_estimator import estimate_lpp, estimate_lpp_plus
    from repro.experiments import example2

    _rows, sample = example2.run()
    problems = []
    for name, estimate in (("E2_GOLDEN_LPP_PLUS", estimate_lpp_plus), ("E2_GOLDEN_LPP", estimate_lpp)):
        value = estimate(sample, 1.0, (0, 1))
        if not math.isclose(value, golden[name], rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"E2 {name}: {value!r} != golden {golden[name]!r}")
    return problems


def run_offline(seconds: float, trace: bool, settings: Dict[str, Any], scratch: Path) -> Dict[str, Any]:
    offline = settings["offline"]
    repeats = settings["calibration"]["repeats"]
    reference_ms = settings["calibration"]["reference_ms"]
    jobs = min(offline["jobs"], os.cpu_count() or 1)
    kernels = [calibrate.kernel_ms(repeats)]

    def timed(step) -> float:
        """``step()``'s wall time, then a calibration."""
        elapsed = step()
        kernels.append(calibrate.kernel_ms(repeats))
        return elapsed

    setups = [timed(lambda: time_setup(jobs)) for _ in range(offline["setups"])]
    for key in RUNNER_ENV:
        os.environ.pop(key, None)
    from repro.api.experiments import ExperimentRunner, canonical_keys

    keys = canonical_keys()
    runner = ExperimentRunner(jobs=jobs)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    golden = golden_constants()

    failed: List[str] = []

    def one_pass(problems: List[str]) -> float:
        """One timed E1–E11 pass; its outputs are checked after the clock stops."""
        started = time.perf_counter()
        batch = runner.run_batch(keys, scale="full")
        elapsed = time.perf_counter() - started
        results = {result.key: comparable(result) for result in batch.results if result is not None}
        for key in keys:
            found: List[str] = []
            if key not in results:
                found.append(f"{key}: no result")
            else:
                _diff(key, results[key], reference[key], found)
            if found:
                failed.append(key)
                problems.extend(found)
        for label, exc in batch.failures:
            problems.append(f"{label} failed: {exc}")
        if "E1" in results and "E2" in results:
            problems.extend(check_golden(results, golden))
        return elapsed

    problems: List[str] = check_golden_estimates(golden)
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    cold = timed(lambda: one_pass(problems))
    warm: List[float] = []
    while not warm or time.perf_counter() - started + 0.5 * warm[-1] < budget:
        warm.append(timed(lambda: one_pass(problems)))
    scale = reference_ms / statistics.median(kernels)
    summary: Dict[str, Any] = {
        "setup_s": scale * statistics.median(setups),
        "setups_s": [scale * seconds for seconds in setups],
        "raw_setups_s": setups,
        "cold_s": scale * cold,
        "raw_cold_s": cold,
        "warm_s": [scale * seconds for seconds in warm],
        "raw_warm_s": warm,
        "reproduce_s": scale * statistics.median(warm),
        "attempted": len(keys) * (1 + len(warm)),
        "problems": problems,
    }
    if trace:
        tracer = tracing.Tracer()
        spool = str(scratch / "spans")
        tracing.install_experiments(tracer, spool)
        cpu = os.times()
        traced: List[float] = []
        started = time.perf_counter()
        try:
            while not traced or time.perf_counter() - started + 0.5 * traced[-1] < seconds / 2:
                traced.append(one_pass(problems))
        finally:
            tracer.uninstall()
        after = os.times()
        tracer.dump(spool + "-parent")
        spans: List[Any] = []
        for path in scratch.glob("spans-*"):
            spans.extend(tracing.load(str(path))[0])
        cpu_s = sum(after[:4]) - sum(cpu[:4])
        values, stages = layers.offline_layers(spans, len(traced), cpu_s)
        base = statistics.median(warm)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - base) / base
        summary["per_layer"] = {"values": values, "stages": stages}
        summary["attempted"] += len(keys) * len(traced)
    summary["kernel_ms"] = {"bench": kernels}
    # With more than one job the experiments run in forked pool workers,
    # reaped when each pass's pool shuts down, so their peak counts
    # through RUSAGE_CHILDREN.  The set-up probes are children too.
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    summary["peak_rss_mb"] = max(peak_rss_mb(), children_mb)
    summary["failed"] = len(failed)
    return summary


def write_reference() -> None:
    """Record the current program's E1–E11 results as the reference."""
    from repro.api.experiments import ExperimentRunner, canonical_keys

    for key in RUNNER_ENV:
        os.environ.pop(key, None)
    batch = ExperimentRunner(jobs=1).run_batch(canonical_keys(), scale="full")
    if batch.failures:
        raise SystemExit(f"experiments failed: {batch.failures}")
    payload = {result.key: comparable(result) for result in batch.results}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 perfbench/offline.py --write-reference  (with src/ on PYTHONPATH)
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: offline.py --write-reference")
    write_reference()
