"""The canonical experiment specs: E1–E11 as declarative data.

Each spec names its compute task (``module:function``), its parameter
sets per scale (``smoke`` / ``quick`` / ``full`` — quick mirrors the
pre-refactor ``run_all`` quick pass, full the benchmark-scale pass), and
its work plan where the computation shards: the Monte-Carlo experiment
E9 carries a :class:`~repro.api.experiments.ReplicationPlan` (plus the
registry-resolved estimation pipeline), while the deterministic grid
experiments E7 (unit-square vector sweep) and E10 (node-pair sweep)
carry a :class:`~repro.api.experiments.SweepPlan` so their points shard
through the scheduler exactly like replications do.  Importing this
module registers everything into
:data:`repro.api.experiments.EXPERIMENT_SPECS`; the runner does that
lazily on first lookup, so ``ExperimentRunner().run("E9")`` works
without any imports beyond :mod:`repro.api`.

The descriptive aliases (``lp_difference`` for ``E9`` and so on) resolve
to the same spec objects.
"""

from __future__ import annotations

from ..api.experiments import (
    EstimationPlan,
    ExperimentSpec,
    ReplicationPlan,
    SweepPlan,
    register_experiment,
)
from .lp_difference import DEFAULT_ESTIMATION as _E9_ESTIMATION

__all__ = ["ALL_SPECS"]


ALL_SPECS = [
    ExperimentSpec(
        key="E1",
        title="Example 1 queries over the 3-instance, 8-item dataset",
        task="repro.experiments.example1:compute",
        aliases=("example1",),
    ),
    ExperimentSpec(
        key="E2",
        title="Example 2 coordinated PPS outcomes (tau*=1, fixed seeds)",
        task="repro.experiments.example2:compute",
        aliases=("example2",),
    ),
    ExperimentSpec(
        key="E3",
        title="Example 3 lower-bound functions and hulls (RG_p+, PPS tau*=1)",
        task="repro.experiments.example3:compute",
        scales={"smoke": {"grid": 40}, "quick": {"grid": 80},
                "full": {"grid": 200}},
        aliases=("example3",),
    ),
    ExperimentSpec(
        key="E4",
        title="Example 4 estimate curves (L*, U*, v-optimal; RG_p+, PPS tau*=1)",
        task="repro.experiments.example4:compute",
        scales={"smoke": {"grid": 20}, "quick": {"grid": 30},
                "full": {"grid": 80}},
        aliases=("example4",),
    ),
    ExperimentSpec(
        key="E5",
        title="Example 5 order-optimal estimators over {0..3}^2, RG_1+",
        task="repro.experiments.example5:compute",
        aliases=("example5",),
    ),
    ExperimentSpec(
        key="E6",
        title="Theorem 4.1 tight family: L* ratio approaches 4 as p -> 1/2",
        task="repro.experiments.theorem41:compute",
        scales={
            "smoke": {"exponents": [0.3]},
            "quick": {"exponents": [0.1, 0.3, 0.45]},
            "full": {"exponents": [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]},
        },
        aliases=("theorem41",),
    ),
    ExperimentSpec(
        key="E7",
        title="Competitive ratios over the unit-square sweep (RG_p+, PPS tau*=1)",
        task="repro.experiments.ratios:sweep",
        finalize="repro.experiments.ratios:finalize",
        sweep=SweepPlan(points="repro.experiments.ratios:sweep_points"),
        scales={
            "smoke": {"grid_points": 2, "exponents": [1.0],
                      "include_baselines": False},
            "quick": {"grid_points": 2, "exponents": [1.0, 2.0],
                      "include_baselines": False},
            "full": {"grid_points": 4, "exponents": [1.0, 2.0],
                     "include_baselines": True},
        },
        aliases=("ratios",),
    ),
    ExperimentSpec(
        key="E8",
        title="L* dominates Horvitz-Thompson (RG_1+, PPS tau*=1)",
        task="repro.experiments.dominance:compute",
        params={"p": 1.0},
        scales={
            "smoke": {"vectors": [[0.6, 0.2]]},
            "quick": {"vectors": [[0.6, 0.2], [0.6, 0.0], [0.9, 0.45]]},
            "full": {},  # the module's full default grid
        },
        aliases=("dominance",),
    ),
    ExperimentSpec(
        key="E9",
        title="Lp-difference estimation on similar vs dissimilar workloads",
        task="repro.experiments.lp_difference:replicate",
        finalize="repro.experiments.lp_difference:finalize",
        params={"dataset_seed": 7},
        scales={
            "smoke": {"num_items": 40, "sampling_rates": [0.2],
                      "exponents": [1.0], "replications": 4},
            "quick": {"num_items": 80, "sampling_rates": [0.1],
                      "exponents": [1.0], "replications": 8},
            "full": {"num_items": 250, "sampling_rates": [0.1, 0.2],
                     "exponents": [1.0, 2.0], "replications": 25},
        },
        replication=ReplicationPlan(seed=7, replications=8),
        # Built from the module's DEFAULT_ESTIMATION, the pipeline the
        # replicate/finalize hooks fall back to when params carry none.
        estimation=EstimationPlan(**_E9_ESTIMATION),
        aliases=("lp_difference",),
    ),
    ExperimentSpec(
        key="E10",
        title="ADS closeness-similarity estimation error by sketch size",
        task="repro.experiments.similarity:sweep",
        finalize="repro.experiments.similarity:finalize",
        sweep=SweepPlan(points="repro.experiments.similarity:sweep_points"),
        params={"seed": 3},
        scales={
            "smoke": {"ks": [4], "num_pairs": 2},
            "quick": {"ks": [4, 12], "num_pairs": 4},
            "full": {"ks": [4, 8, 16], "num_pairs": 8},
        },
        aliases=("similarity",),
    ),
    ExperimentSpec(
        key="E11",
        title="Estimator ablation across similarity regimes (RG_1+ sums)",
        task="repro.experiments.ablation:compute",
        params={"p": 1.0, "seed": 5},
        scales={
            "smoke": {"similarities": [0.0, 0.95], "num_items": 6},
            "quick": {"similarities": [0.0, 0.95], "num_items": 15},
            "full": {"similarities": [0.0, 0.25, 0.5, 0.75, 0.95],
                     "num_items": 40},
        },
        aliases=("ablation",),
    ),
]

for _spec in ALL_SPECS:
    register_experiment(_spec)
