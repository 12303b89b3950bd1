"""The repository benchmark: serving workloads and the offline reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload direct_read --seed 1 --seconds 18 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``direct_read``        one ``SketchServer``, queries only
``routed_read``        the same queries through ``ShardRouter`` over two
                       primaries, each with a sync-ack follower
``routed_write``       the routed deployment under durable ingest: open
                       loop beside a thin query stream, then one batch
                       at a time
``offline_reproduce``  E1–E11 at ``full`` scale through ``ExperimentRunner``

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it measures half the time untraced and half with the span
tracer installed, and reports the per-layer metrics, the stage
breakdown and the tracing overhead.  The program is built from the
``src/`` directory of the checkout.

Human-readable lines come first, under the names the metrics have per
workload; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an output check fails.

Every gated time is scaled to the reference host speed with the kernel
of ``calibrate.py``; the raw figure is printed beside each.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("direct_read", "routed_read", "routed_write", "offline_reproduce")

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def end_to_end(workload: str, summary: Dict[str, Any]) -> Tuple[Dict[str, float], List[Tuple[str, float, str, str]]]:
    """Map a run summary onto the shared metric names.

    Returns the metric values and the lines that print them under the
    workload's own names: ``(name, value, unit, note)``.
    """
    setup_note = f"median of {len(summary['setups_s'])} set-ups; raw " + ", ".join(
        f"{value:.3f}" for value in summary["raw_setups_s"]
    )
    lines = [("setup_s", summary["setup_s"], "s", setup_note)]
    values = {"setup_s": summary["setup_s"], "peak_rss_mb": summary["peak_rss_mb"]}

    def latency(prefix: str, stats: Dict[str, Any]) -> None:
        if stats["windows"] > 1:
            windows = f"median of {stats['windows']} windows"
            beyond = f">={stats['beyond']} beyond per window"
        else:
            windows, beyond = "whole sample", f"{stats['beyond']} beyond"
        lines.append((
            f"{prefix}_p50_ms", stats["p50"], "ms",
            f"n={stats['n']}, {windows}; raw {stats['raw_p50']:.3f}",
        ))
        lines.append((
            f"{prefix}_tail_ms", stats["tail"], "ms",
            f"p{stats['tail_pct']:g}, n={stats['n']}, {beyond}, {windows}; raw {stats['raw_tail']:.3f}",
        ))

    if workload == "offline_reproduce":
        # A pass is the unit here, too few for a percentile tail: the
        # tail slot carries the mean of every warm pass, which, unlike
        # the median, moves when some of the passes slow down.
        warm = summary["warm_s"]
        mean_warm = statistics.fmean(warm)
        values.update(
            latency_p50_ms=1000.0 * summary["reproduce_s"],
            latency_tail_ms=1000.0 * mean_warm,
        )
        raw = summary["raw_warm_s"]
        lines.append(("reproduce_s", summary["reproduce_s"], "s",
                      f"warm, median of {len(warm)} passes; raw {statistics.median(raw):.3f}"))
        lines.append(("reproduce_mean_s", mean_warm, "s",
                      f"warm, mean of {len(warm)} passes; slowest {max(warm):.3f}; raw {statistics.fmean(raw):.3f}"))
        lines.append(("reproduce_cold_s", summary["cold_s"], "s",
                      f"first pass in the process; raw {summary['raw_cold_s']:.3f}"))
    elif workload == "routed_write":
        service = summary["service"]
        values.update(latency_p50_ms=service["p50"], latency_tail_ms=service["tail"])
        latency("ingest_service", service)
        latency("ingest_ack", summary["ingest_ack"])
        latency("query", summary["query"])
        lines.append(("ingest_eps", summary["ingest_eps"], "events/s",
                      f"durable, closed loop over {summary['closed_s']:.2f} s; raw {summary['raw_ingest_eps']:.1f}"))
    else:
        service = summary["service"]
        values.update(latency_p50_ms=service["p50"], latency_tail_ms=service["tail"])
        latency("query_service", service)
        latency("query", summary["query"])
        latency("similarity", summary["similarity"])
        lines.append(("query_qps", summary["query_qps"], "1/s",
                      f"closed loop over {summary['closed_s']:.2f} s; raw {summary['raw_query_qps']:.1f}"))
    attempted = max(summary["attempted"], 1)
    lines.append(("failed_share", summary["failed"] / attempted, "ratio",
                  f"{summary['failed']}/{attempted}"))
    if workload == "offline_reproduce":
        rss_note = "VmHWM of the bench process and its reaped children"
    else:
        rss_note = "VmHWM of the deployment host after the open loop"
    lines.append(("peak_rss_mb", summary["peak_rss_mb"], "MiB", rss_note))
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    settings = json.loads((HERE / "settings.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "offline_reproduce":
            from offline import run_offline

            summary = run_offline(args.seconds, bool(args.trace), settings, scratch)
        else:
            from serving import ServingRun

            run = ServingRun(args.workload, args.seed, args.seconds, settings, scratch)
            summary = asyncio.run(run.run(bool(args.trace)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values, lines = end_to_end(args.workload, summary)
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, value, unit, note in lines:
        print(f"  {name:<20} {value:>12.4f} {unit:<9} {note}")
    kernels = summary["kernel_ms"]
    print(f"  host-speed kernel   reference {settings['calibration']['reference_ms']:g} ms; " + "; ".join(
        f"{name} median {statistics.median(values):.3f} min {min(values):.3f} max {max(values):.3f} n={len(values)}"
        for name, values in kernels.items()
    ))
    lag = summary.get("generator_lag_ms")
    if lag is not None:
        for phase, counts in summary["counts"].items():
            counts = " ".join(f"{key}={value}" for key, value in counts.items())
            print(f"  generator {phase:<10} {counts}")
        print(f"  generator.lag_ms    p50={lag['p50']:.3f}  p99={lag['p99']:.3f}  max={lag['max']:.3f}  n={lag['n']}")
    if lag is not None and lag["p99"] > settings["serving"]["max_generator_lag_p99_ms"]:
        # The gated figures come from the sequential phase, which has no
        # schedule to fall behind; only the open-loop ones are void.
        print("  INVALID open loop: the generator fell behind its schedule; the open-loop"
              " figures of this run are not a measurement")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        import layers

        per_layer = summary["per_layer"]
        print("  per-layer (traced half of the run):")
        for name, unit in layers.PER_LAYER.items():
            print(f"    {name:<36} {per_layer['values'][name]:>12.4f} {unit}")
        stages = sorted(per_layer["stages"].items(), key=lambda item: -item[1])
        total = sum(seconds for _, seconds in stages) or 1.0
        print("  stage breakdown (self seconds of each synchronous stage, share of their sum):")
        for name, seconds in stages[:8]:
            print(f"    {name:<36} {seconds:>10.4f} s {100.0 * seconds / total:6.1f} %")
        metrics = {
            name: {"value": per_layer["values"][name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }

    problems = summary["problems"]
    for problem in problems[:10]:
        print(f"  CHECK FAILED: {problem}")
    if not problems:
        print("  checks: every output matched its reference")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
