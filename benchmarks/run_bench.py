"""Engine speedup gate: each engine path timed against forced scalar.

End-to-end numbers (serving latency, setup, memory, the full paper
reproduction) come from ``perfbench/run.py`` and its workloads in
``BENCHMARK.json``.  This harness answers the one question perfbench
does not: does each vectorized engine path still beat the scalar
reference on the same call?  It runs a fixed suite of named benches —
each timing one hot path of the library, then the same computation
under a forced-scalar policy — with warmup and repeat control, and
writes a schema-validated JSON payload::

    python benchmarks/run_bench.py                  # full suite -> BENCH_<n>.json
    python benchmarks/run_bench.py --smoke          # CI-sized suite
    python benchmarks/run_bench.py --only moments_ablation simulate_grid
    python benchmarks/run_bench.py --check BENCH_5.json   # validate a payload
    python benchmarks/run_bench.py --compare OLD.json NEW.json --band 0.5
    python benchmarks/run_bench.py --threshold-sweep      # auto-threshold data
    python benchmarks/run_bench.py --list           # show the suite

Every payload records the git SHA, python/numpy versions, the effective
:class:`~repro.api.backend.BackendPolicy`, and per bench the median/min
wall seconds, items per second, the backend decision the policy took at
that size, and the measured speedup over the scalar baseline.  The
``BENCH_<n>.json`` files checked in at the repository root form the
speedup trajectory; ``--check`` validates a payload's structure, and
``--compare OLD NEW`` diffs two payloads' *speedup ratios* —
dimensionless, so roughly comparable across machines — and exits
nonzero when any shared bench's speedup collapsed below ``1 - band`` of
its old value.  CI runs both on every push: the fresh
``--smoke`` payload is checked for schema rot and compared against the
committed smoke baseline (``benchmarks/baseline_smoke.json``), so an
engine path quietly falling back to scalar fails the build while
ordinary wall-clock noise does not.

The ``--threshold-sweep`` mode measures the scalar/vectorized crossover
of per-item estimation as a function of input size — the measurement
behind ``repro.api.backend.DEFAULT_AUTO_THRESHOLD`` (methodology in that
docstring).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backend import default_backend, set_default_backend

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Payload schema identifier; bump on breaking payload changes.
SCHEMA = "repro-bench/1"

#: Fields every bench entry must carry (the --check contract).
REQUIRED_BENCH_FIELDS = (
    "name",
    "params",
    "items",
    "repeats",
    "wall_s",
    "items_per_sec",
    "backend_decision",
)


def _time(fn: Callable[[], object], warmup: int, repeats: int) -> List[float]:
    """Wall-clock seconds of ``repeats`` timed calls after ``warmup``."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


@contextmanager
def forced_backend(mode: str):
    """Pin the process-wide backend policy to ``mode``, restoring it on exit."""
    previous = set_default_backend(mode)
    try:
        yield
    finally:
        set_default_backend(previous)


def _stats(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "median": float(statistics.median(samples)),
        "min": float(min(samples)),
        "mean": float(statistics.fmean(samples)),
    }


# ----------------------------------------------------------------------
# The bench suite.  Each builder returns (fn, items, params) or
# (fn, items, params, dispatch_size); fn runs the measured computation
# under the ambient backend policy, and the harness re-runs it under a
# forced-scalar policy for the baseline.  ``dispatch_size`` is the input
# size the *library* resolves the backend on for this path (e.g. the
# moment experiments dispatch on vectors × quadrature nodes, not on the
# reported item count) — it defaults to ``items``.
# ----------------------------------------------------------------------
def _bench_batch_sum(smoke: bool):
    from repro.datasets.synthetic import surname_pairs
    from repro.api.session import EstimationSession

    n = 20_000 if smoke else 100_000
    dataset = surname_pairs(
        n, rng=np.random.default_rng(5), normalise_to=n / 10.0
    )
    session = (
        EstimationSession([1.0, 1.0]).target("one_sided_range", p=1.0)
        .estimator("lstar_closed")
    )
    return (
        lambda: session.estimate(dataset, rng=6).value,
        n,
        {"num_items": n, "estimator": "lstar_closed"},
    )


def _bench_simulate_grid(smoke: bool):
    from repro.api.session import EstimationSession

    items, reps = (60, 8) if smoke else (400, 32)
    rng = np.random.default_rng(3)
    tuples = [tuple(row) for row in rng.random((items, 2))]
    session = (
        EstimationSession([1.0, 1.0]).target("one_sided_range", p=1.0)
        .estimator("lstar_closed")
    )
    return (
        lambda: session.simulate(tuples, replications=reps, rng=11).value,
        items * reps,
        {"num_items": items, "replications": reps},
    )


def _bench_moments_dominance(smoke: bool):
    from repro.engine.moments import approx_node_count
    from repro.experiments import dominance

    vectors = (
        [(0.6, 0.2), (0.6, 0.0), (0.9, 0.45)] if smoke else None
    )
    count = len(vectors) if vectors is not None else len(
        dominance.default_vectors()
    )
    return (
        lambda: dominance.run(vectors=vectors),
        count * 3,  # three estimators' exact variances per vector
        {"vectors": count, "estimators": 3},
        # batch_variances dispatches on vectors x quadrature nodes.
        count * approx_node_count(2),
    )


def _bench_moments_ablation(smoke: bool):
    from repro.experiments import ablation

    sims = (0.0, 0.95) if smoke else (0.0, 0.25, 0.5, 0.75, 0.95)
    items = 15 if smoke else 40
    from repro.engine.moments import approx_node_count

    return (
        lambda: ablation.run(similarities=sims, num_items=items),
        len(sims) * items * 4,  # four estimators' exact MSEs per item
        {"similarities": len(sims), "num_items": items, "estimators": 4},
        # each batch_moments call dispatches on items x quadrature nodes.
        items * approx_node_count(2),
    )


def _bench_example4_curves(smoke: bool):
    from repro.experiments import example4

    grid = 30 if smoke else 120
    return (
        lambda: example4.run(grid=grid),
        grid * 6,  # six (p, vector) configurations
        {"grid": grid, "configurations": 6},
    )


def _bench_similarity_pairs(smoke: bool):
    from repro.experiments import similarity

    ks, pairs = ((4,), 2) if smoke else ((4, 12), 6)
    return (
        lambda: similarity.run(ks=ks, num_pairs=pairs),
        len(ks) * (pairs + 3),  # _select_pairs adds 3 adjacent pairs
        {"ks": list(ks), "num_pairs": pairs},
        # each pair dispatches on two estimates per sketch-union node;
        # the default 120-node graph bounds the union.
        2 * 120,
    )


def _bench_ratios_sweep(smoke: bool):
    from repro.experiments import ratios

    from repro.engine.moments import approx_node_count

    points = 2 if smoke else 3
    exponents = (1.0,) if smoke else (1.0, 2.0)
    grid = ratios.default_vector_grid(points)
    return (
        lambda: ratios.run(
            exponents=exponents, vectors=grid, include_baselines=not smoke
        ),
        len(grid) * len(exponents),
        {"grid_points": points, "exponents": list(exponents)},
        # ratio numerators dispatch per sweep call: vectors x nodes.
        len(grid) * approx_node_count(2),
    )


#: name -> builder.  Every bench re-times the same call under a
#: forced-scalar policy for its baseline.
SUITE: Dict[str, Callable] = {
    "batch_sum": _bench_batch_sum,
    "simulate_grid": _bench_simulate_grid,
    "moments_dominance": _bench_moments_dominance,
    "moments_ablation": _bench_moments_ablation,
    "example4_curves": _bench_example4_curves,
    "similarity_pairs": _bench_similarity_pairs,
    "ratios_sweep": _bench_ratios_sweep,
}


def run_suite(
    names: Sequence[str],
    smoke: bool,
    warmup: int,
    repeats: int,
) -> Dict[str, object]:
    """Execute the named benches and assemble the payload."""
    policy = default_backend()
    benches = []
    for name in names:
        builder = SUITE[name]
        built = builder(smoke)
        fn, items, params = built[:3]
        dispatch_size = built[3] if len(built) > 3 else items
        samples = _time(fn, warmup, repeats)
        entry: Dict[str, object] = {
            "name": name,
            "params": params,
            "items": int(items),
            "repeats": len(samples),
            "wall_s": _stats(samples),
            "items_per_sec": float(items / statistics.median(samples)),
            # Resolved at the size the library dispatches this path on
            # ("auto" = engine whenever a kernel covers the estimator).
            "backend_decision": policy.resolve(dispatch_size),
        }
        if policy.mode != "scalar":
            with forced_backend("scalar"):
                base_fn = builder(smoke)[0]
                base = _time(base_fn, min(warmup, 1), repeats)
            entry["baseline"] = {"backend": "scalar", "wall_s": _stats(base)}
            entry["speedup"] = float(
                statistics.median(base) / statistics.median(samples)
            )
        benches.append(entry)
        line = f"{name:22s} {entry['wall_s']['median'] * 1e3:9.1f} ms"
        if "speedup" in entry:
            line += (
                f"   {entry['speedup']:6.1f}x vs "
                f"{entry['baseline']['backend']}"
            )
        print(line, file=sys.stderr)
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "backend": {"mode": policy.mode, "auto_threshold": policy.auto_threshold},
        "smoke": bool(smoke),
        "warmup": int(warmup),
        "benches": benches,
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# Validation (CI's malformed-output gate; timing values are not judged)
# ----------------------------------------------------------------------
def validate_payload(payload) -> List[str]:
    """Structural errors in a BENCH payload (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for field in ("git_sha", "python", "numpy", "backend", "benches"):
        if field not in payload:
            errors.append(f"missing top-level field {field!r}")
    backend = payload.get("backend")
    if isinstance(backend, dict):
        if backend.get("mode") not in ("scalar", "vectorized", "auto"):
            errors.append(f"unknown backend mode {backend.get('mode')!r}")
    elif backend is not None:
        errors.append("backend must be an object")
    benches = payload.get("benches", [])
    if not isinstance(benches, list) or not benches:
        errors.append("benches must be a non-empty list")
        return errors
    for k, bench in enumerate(benches):
        label = bench.get("name", f"#{k}") if isinstance(bench, dict) else f"#{k}"
        if not isinstance(bench, dict):
            errors.append(f"bench {label}: not an object")
            continue
        for field in REQUIRED_BENCH_FIELDS:
            if field not in bench:
                errors.append(f"bench {label}: missing field {field!r}")
        wall = bench.get("wall_s")
        if isinstance(wall, dict):
            for stat in ("median", "min", "mean"):
                value = wall.get(stat)
                if not isinstance(value, (int, float)) or not value > 0:
                    errors.append(f"bench {label}: wall_s.{stat} must be > 0")
        elif wall is not None:
            errors.append(f"bench {label}: wall_s must be an object")
        rate = bench.get("items_per_sec")
        if rate is not None and (
            not isinstance(rate, (int, float)) or not rate > 0
        ):
            errors.append(f"bench {label}: items_per_sec must be > 0")
    return errors


# ----------------------------------------------------------------------
# Payload comparison (CI's regression gate)
# ----------------------------------------------------------------------
#: Default fraction of a bench's old speedup it may lose before the
#: comparison counts it as a regression.  Speedups are dimensionless
#: ratios, so the band absorbs machine and noise effects that absolute
#: wall times never could — but smoke-sized inputs still earn smaller
#: speedups than full-sized ones, so compare like against like.
DEFAULT_COMPARE_BAND = 0.5

#: Benches whose old speedup sits below this are compared informationally
#: only: a 1.1x-vs-0.9x flip is timing noise, not an engine falling back
#: to scalar, and must never fail a build.
DEFAULT_MIN_SPEEDUP = 1.5


def compare_payloads(
    old: Dict[str, object],
    new: Dict[str, object],
    band: float,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> Tuple[List[str], List[str]]:
    """Diff two payloads' speedup ratios.

    Returns ``(regressions, notes)``: ``regressions`` are failures (a
    shared bench's speedup fell below ``1 - band`` of its old value, or
    a bench that had a measured speedup disappeared — lost coverage is
    indistinguishable from a hidden regression); ``notes`` are
    informational lines for everything else, including benches whose old
    speedup is under ``min_speedup`` (too close to 1x for the ratio to
    mean anything).
    """
    if not 0 <= band < 1:
        raise ValueError("band must be in [0, 1)")
    old_benches = {
        b["name"]: b for b in old.get("benches", []) if isinstance(b, dict)
    }
    new_benches = {
        b["name"]: b for b in new.get("benches", []) if isinstance(b, dict)
    }
    regressions: List[str] = []
    notes: List[str] = []
    if old.get("smoke") != new.get("smoke"):
        notes.append(
            f"note: comparing smoke={old.get('smoke')} against "
            f"smoke={new.get('smoke')} payloads; speedups are "
            "size-dependent, expect larger drift"
        )
    for name, old_bench in old_benches.items():
        old_speedup = old_bench.get("speedup")
        new_bench = new_benches.get(name)
        if new_bench is None:
            if old_speedup is not None and old_speedup >= min_speedup:
                regressions.append(
                    f"{name}: had a measured speedup "
                    f"({old_speedup:.2f}x) but is missing from the new "
                    "payload"
                )
            else:
                notes.append(f"note: {name} missing from the new payload")
            continue
        new_speedup = new_bench.get("speedup")
        if old_speedup is None and new_speedup is None:
            continue
        if old_speedup is None:
            notes.append(f"note: {name} gained a baseline ({new_speedup:.2f}x)")
            continue
        if new_speedup is None:
            if old_speedup >= min_speedup:
                regressions.append(
                    f"{name}: speedup ({old_speedup:.2f}x) no longer measured"
                )
            else:
                notes.append(
                    f"note: {name} speedup no longer measured "
                    f"(was {old_speedup:.2f}x)"
                )
            continue
        ratio = new_speedup / old_speedup
        line = (
            f"{name}: {old_speedup:.2f}x -> {new_speedup:.2f}x "
            f"({ratio:.2f} of old)"
        )
        if old_speedup < min_speedup:
            notes.append(line + " [below --min-speedup, informational]")
        elif ratio < 1.0 - band:
            regressions.append(line + f" — below the {1.0 - band:.2f} floor")
        else:
            notes.append(line)
    for name in new_benches.keys() - old_benches.keys():
        notes.append(f"note: {name} is new in this payload")
    return regressions, notes


def next_output_path() -> Path:
    """The next free ``BENCH_<n>.json`` at the repository root."""
    taken = [
        int(m.group(1))
        for p in REPO_ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
    ]
    return REPO_ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


# ----------------------------------------------------------------------
# Threshold sweep (the DEFAULT_AUTO_THRESHOLD measurement)
# ----------------------------------------------------------------------
def threshold_sweep(
    sizes: Sequence[int] = (
        16, 32, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 8192,
    ),
    repeats: int = 15,
) -> Dict[str, object]:
    """Scalar vs vectorized per-item estimation across grid sizes.

    Times ``session.simulate`` — the per-item estimate loop against the
    kernel batch, with *identical* setup, seeds, and results on both
    sides — over replication × item grids of the given total sizes, and
    reports the crossover: the smallest measured size at which the
    vectorized path wins.  Dataset-shaped entry points bury the same
    decision under per-item Python iteration that both backends share,
    so the simulate grid is the purest view of the dispatch trade-off.
    This is the measurement ``DEFAULT_AUTO_THRESHOLD`` is set from (see
    its docstring for the recorded numbers and the safety-margin
    rationale).
    """
    from repro.api.session import EstimationSession

    items = 16
    rng = np.random.default_rng(3)
    tuples = [tuple(row) for row in rng.random((items, 2))]
    rows = []
    crossover: Optional[int] = None
    for size in sizes:
        reps = max(1, size // items)
        timings = {}
        for mode in ("scalar", "vectorized"):
            # The session pins its policy at construction, so the forced
            # mode must be baked in — a process-wide override set later
            # would not reach it.
            session = (
                EstimationSession([1.0, 1.0], backend=mode)
                .target("one_sided_range", p=1.0)
                .estimator("lstar_closed")
            )
            samples = _time(
                lambda: session.simulate(
                    tuples, replications=reps, rng=11
                ).value,
                warmup=2, repeats=repeats,
            )
            timings[mode] = float(statistics.median(samples))
        ratio = timings["scalar"] / timings["vectorized"]
        if crossover is None and ratio >= 1.0:
            crossover = items * reps
        rows.append(
            {
                "grid": int(items * reps),
                "scalar_s": timings["scalar"],
                "vectorized_s": timings["vectorized"],
                "vectorized_speedup": ratio,
            }
        )
        print(
            f"grid={items * reps:6d}  scalar {timings['scalar'] * 1e6:9.1f} us  "
            f"vectorized {timings['vectorized'] * 1e6:9.1f} us  "
            f"ratio {ratio:5.2f}x",
            file=sys.stderr,
        )
    return {"sweep": rows, "measured_crossover": crossover}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized parameters (seconds, not minutes)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed calls before measuring (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls per bench (default 3)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="bench names to run (default: all)")
    parser.add_argument("--output", default=None,
                        help="payload path (default: next BENCH_<n>.json at "
                             "the repo root)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="validate an existing payload and exit")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("OLD", "NEW"),
                        help="diff two payloads' speedup ratios and exit "
                             "nonzero on a regression beyond --band")
    parser.add_argument("--band", type=float, default=DEFAULT_COMPARE_BAND,
                        help="fraction of the old speedup a bench may lose "
                             f"before --compare fails it (default "
                             f"{DEFAULT_COMPARE_BAND})")
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP,
                        help="old speedups under this are compared "
                             "informationally only (default "
                             f"{DEFAULT_MIN_SPEEDUP})")
    parser.add_argument("--list", action="store_true",
                        help="list bench names and exit")
    parser.add_argument("--threshold-sweep", action="store_true",
                        help="measure the scalar/vectorized crossover "
                             "instead of running the suite")
    args = parser.parse_args(argv)

    if args.list:
        for name in SUITE:
            print(name)
        return 0
    if args.check is not None:
        try:
            payload = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.check}: {exc}", file=sys.stderr)
            return 2
        errors = validate_payload(payload)
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        print(f"{args.check}: " + ("INVALID" if errors else "ok"))
        return 1 if errors else 0
    if args.compare is not None:
        payloads = []
        for path in args.compare:
            try:
                payloads.append(json.loads(Path(path).read_text()))
            except (OSError, ValueError) as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return 2
        for path, payload in zip(args.compare, payloads):
            errors = validate_payload(payload)
            for message in errors:
                print(f"error: {path}: {message}", file=sys.stderr)
            if errors:
                return 2
        try:
            regressions, notes = compare_payloads(
                *payloads, band=args.band, min_speedup=args.min_speedup
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for message in notes:
            print(message)
        for message in regressions:
            print(f"regression: {message}", file=sys.stderr)
        verdict = "REGRESSED" if regressions else "ok"
        print(f"{args.compare[0]} -> {args.compare[1]}: {verdict}")
        return 1 if regressions else 0
    if args.threshold_sweep:
        payload = threshold_sweep()
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
        return 0

    names = args.only if args.only else list(SUITE)
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        print(f"error: unknown benches {unknown}; see --list", file=sys.stderr)
        return 2
    payload = run_suite(names, args.smoke, args.warmup, args.repeats)
    errors = validate_payload(payload)
    if errors:  # pragma: no cover - a harness bug, not an input error
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    output = Path(args.output) if args.output else next_output_path()
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
