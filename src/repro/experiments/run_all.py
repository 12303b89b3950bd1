"""Run every experiment (E1–E11) through the cross-experiment scheduler.

This is the command-line face of the reproduction: each experiment is a
registered :class:`~repro.api.experiments.ExperimentSpec` executed by an
:class:`~repro.api.experiments.ExperimentRunner`, which flattens every
selected experiment's shards into one global largest-work-first queue,
drains it with a shared process pool, streams completed shard records to
an on-disk :class:`~repro.api.records.RecordStore`, and memoizes
completed runs in a content-hash cache (see the
:mod:`repro.api.experiments` docstring for the determinism, resume, and
cache-invalidation rules — or the docs site under ``docs/``).

Usage::

    python -m repro.experiments.run_all                    # quick pass
    python -m repro.experiments.run_all --full             # benchmark scale
    python -m repro.experiments.run_all --smoke --jobs 2   # CI smoke pass
    python -m repro.experiments.run_all --only E6 E7
    python -m repro.experiments.run_all --backend vectorized
    python -m repro.experiments.run_all --cache-dir .repro-cache
    python -m repro.experiments.run_all --records-dir .repro-records
    python -m repro.experiments.run_all --records-dir .repro-records --resume
    python -m repro.experiments.run_all --cost-model .repro-cost.json
    python -m repro.experiments.run_all --format json > results.json

``--jobs`` sets the worker count for the global shard queue — shards of
*different* experiments run concurrently, and records are bit-identical
for any value.  ``--cost-model`` points at the measured per-experiment
cost weights (see :mod:`repro.api.costmodel`): the first run measures
each experiment's seconds-per-unit and stores them keyed by the spec
digest; later runs size and order shards by predicted seconds instead of
unit counts.  The model is a pure scheduling hint — records stay
bit-identical with it on, off, or stale.  ``--records-dir`` streams per-replication /
per-sweep-point records to append-only JSONL files (one per experiment
run, finalized atomically); ``--resume`` re-opens an interrupted store,
skips every completed shard, and reproduces the exact records of an
uninterrupted run.  ``--backend`` installs a process-wide
:class:`~repro.api.backend.BackendPolicy` so every estimation loop
follows one dispatch rule; ``--cache-dir`` enables the result cache
(also settable via ``REPRO_EXPERIMENT_CACHE``), whose entries point into
the record store when one is active.  A failing experiment is reported
on stderr and turns the exit code nonzero instead of escaping as a
traceback; the remaining experiments still run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..api.backend import BACKEND_MODES
from ..api.experiments import ExperimentRunner, canonical_keys
from ..api.records import ENV_RECORDS_DIR
from .report import render_result

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    scale_group = parser.add_mutually_exclusive_group()
    scale_group.add_argument(
        "--full", action="store_true",
        help="run at benchmark scale instead of the quick scale")
    scale_group.add_argument(
        "--smoke", action="store_true",
        help="run the minimal smoke-scale parameters (CI)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment ids to run (default: all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes draining the global shard "
                             "queue (records are identical for any value)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache "
                             "(default: $REPRO_EXPERIMENT_CACHE, else off)")
    parser.add_argument("--records-dir", default=None,
                        help="directory for the streamed record store "
                             f"(default: ${ENV_RECORDS_DIR}, else off)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the record store: skip completed "
                             "shards of interrupted runs (needs a records "
                             "directory)")
    parser.add_argument("--cost-model", default=None,
                        help="path of the measured cost-model file used to "
                             "size and order shards by predicted seconds "
                             "(default: $REPRO_COST_MODEL, else unit counts)")
    parser.add_argument("--backend", choices=BACKEND_MODES, default=None,
                        help="process-wide backend policy for every "
                             "estimation loop (default: auto)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (json emits the structured "
                             "records and metadata)")
    args = parser.parse_args(argv)

    scale = "full" if args.full else ("smoke" if args.smoke else "quick")
    try:
        runner = ExperimentRunner(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            backend=args.backend,
            records_dir=args.records_dir,
            resume=args.resume,
            cost_model=args.cost_model,
        )
    except ValueError as exc:  # e.g. --resume without a records directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    keys = args.only if args.only else canonical_keys()

    batch = runner.run_batch(keys, scale=scale)
    for label, exc in batch.failures:
        print(f"error: experiment {label} failed: {exc}", file=sys.stderr)
    results = [r for r in batch.results if r is not None]

    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], indent=2,
                         sort_keys=True))
    else:
        print("\n\n".join(
            f"### {r.key}\n{render_result(r)}" for r in results
        ))
    return 1 if batch.failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
