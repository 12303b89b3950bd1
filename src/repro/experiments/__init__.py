"""Experiment modules, one per table/figure/claim of the paper.

| Module        | Paper artefact                                              |
|---------------|-------------------------------------------------------------|
| ``example1``  | Example 1: dataset and query values (E1)                    |
| ``example2``  | Example 2: coordinated PPS outcomes (E2)                    |
| ``example3``  | Example 3 figures: lower bounds and hulls (E3)              |
| ``example4``  | Example 4 figures: L*, U*, v-optimal estimates (E4)         |
| ``example5``  | Example 5 tables: order-optimal estimators (E5)             |
| ``theorem41`` | Theorem 4.1: tightness of the ratio 4 (E6)                  |
| ``ratios``    | Stated per-function competitive ratios (E7)                 |
| ``dominance`` | L* dominates Horvitz–Thompson (E8)                          |
| ``lp_difference`` | Section 7: Lp differences, similar vs dissimilar data (E9) |
| ``similarity``| Section 7: ADS-based closeness similarity (E10)             |
| ``ablation``  | Customisation/competitiveness ablation (E11)                |

Every experiment is registered as a declarative
:class:`~repro.api.experiments.ExperimentSpec` (see :mod:`.specs`) and
executed by :class:`~repro.api.experiments.ExperimentRunner`, which
returns structured :class:`~repro.api.experiments.ExperimentResult`
records, shards Monte-Carlo replications across processes
(shard-count-invariant seeding via ``SeedSequence.spawn``), and caches
completed runs on disk by a content hash of the spec.  Rendering lives in
:mod:`.report` (:func:`~repro.experiments.report.render_result`).

The command line is ``python -m repro.experiments.run_all`` with flags

* ``--full`` / ``--smoke`` — parameter scale (default: quick);
* ``--only E1 E9`` — subset selection (descriptive aliases such as
  ``lp_difference`` also resolve);
* ``--jobs N`` — worker processes for sharded replications (records are
  bit-identical for any value);
* ``--cache-dir DIR`` — enable the on-disk result cache (also via the
  ``REPRO_EXPERIMENT_CACHE`` environment variable);
* ``--backend scalar|vectorized|auto`` — process-wide backend policy;
* ``--format text|json`` — rendered report or structured records.

Each module still exposes ``run(...)`` returning structured results and
``format_report(...)`` rendering them as text; the engine speedup gate
``benchmarks/run_bench.py`` and the tests call the same entry points.
"""

from . import (
    ablation,
    dominance,
    example1,
    example2,
    example3,
    example4,
    example5,
    lp_difference,
    ratios,
    similarity,
    specs,
    theorem41,
)

__all__ = [
    "ablation",
    "dominance",
    "example1",
    "example2",
    "example3",
    "example4",
    "example5",
    "lp_difference",
    "ratios",
    "similarity",
    "specs",
    "theorem41",
]
