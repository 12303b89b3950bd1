"""Experiment E9 — L_p-difference estimation: customisation pays, L* is safe.

Section 7 of the paper summarises the companion experimental study:
estimating ``L_1`` and ``L_2`` differences over coordinated samples of

* IP flow records, where per-key bandwidth changes a lot between periods
  (large differences) — the U* estimator, customised for dissimilar data,
  had lower error there;
* the surnames dataset, where year-over-year frequencies are stable
  (small differences) — the L* estimator, customised for similar data,
  dominated.

The study's headline qualitative finding is asymmetric risk: L* never
loses by much (it is 4-competitive), while U* can lose badly on the
"wrong" data.  This experiment reproduces the comparison on synthetic
stand-ins with the same similarity structure (see
:mod:`repro.datasets.synthetic`), across a sweep of sampling rates.

Each replication runs through
:meth:`repro.api.session.EstimationSession.simulate` under a shared
non-unit PPS rate ``tau`` (chosen per sampling rate), with the
symmetrized one-sided estimators resolved from the registry
(``lstar_symmetric`` / ``ustar_symmetric``) — the forward-plus-backward
rescaling loop this module used to hand-roll in scalar Python now lives
in the estimator/kernel layer, so a vectorized backend batch-dispatches
it.  Replication seeds come from per-replication
:class:`numpy.random.SeedSequence` children, which is what lets the
experiment runner shard replications across processes without changing
the records (both estimators of a configuration replay the same child
seed, so the comparison stays paired).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..aggregates.dataset import MultiInstanceDataset
from ..api.session import EstimationSession
from ..datasets.synthetic import ip_flow_pairs, surname_pairs

__all__ = [
    "WorkloadResult",
    "DEFAULT_ESTIMATION",
    "run",
    "replicate",
    "finalize",
    "winners",
]

#: Registry-resolved estimation pipeline (the spec's EstimationPlan
#: mirrors this): the two-sided range target with the symmetrized
#: one-sided closed forms, labelled as in the paper's study.
DEFAULT_ESTIMATION: Dict[str, Any] = {
    "scheme": "pps",
    "target": "range",
    "estimators": {"L*": "lstar_symmetric", "U*": "ustar_symmetric"},
}


@dataclass(frozen=True)
class WorkloadResult:
    """Estimation errors of one estimator on one workload configuration."""

    workload: str
    estimator: str
    p: float
    sampling_rate: float
    true_value: float
    mean_estimate: float
    mean_relative_error: float
    rmse: float


def shared_rate(dataset: MultiInstanceDataset, sampling_rate: float) -> float:
    """The shared PPS rate ``tau*`` targeting ``sampling_rate * items``.

    A single rate is shared by both instances (the closed-form per-item
    estimators assume the two entries see the same threshold), and it is
    floored at the maximum weight so every rescaled weight lies in
    ``[0, 1]`` — the canonical domain of the paper's examples.
    """
    expected = max(1.0, sampling_rate * len(dataset))
    totals = [
        dataset.total_weight(i) for i in range(dataset.num_instances)
    ]
    max_weight = max(
        (max(tup) for _, tup in dataset.iter_items()), default=1.0
    )
    return max(max(totals) / expected, max_weight, 1e-12)


def _build_workloads(
    num_items: int, dataset_seed: int
) -> Dict[str, MultiInstanceDataset]:
    """The two synthetic workloads, rebuilt identically in every shard."""
    rng = np.random.default_rng(dataset_seed)
    return {
        "ip-flows (dissimilar)": ip_flow_pairs(num_items, rng=rng),
        "surnames (similar)": surname_pairs(num_items, rng=rng),
    }


def _configurations(
    params: Mapping[str, Any]
) -> List[Tuple[str, MultiInstanceDataset, float, float]]:
    """The (workload, dataset, p, rate) sweep in a fixed, shard-stable order."""
    workloads = _build_workloads(
        int(params["num_items"]), int(params["dataset_seed"])
    )
    return [
        (name, dataset, float(p), float(rate))
        for name, dataset in workloads.items()
        for p in params["exponents"]
        for rate in params["sampling_rates"]
    ]


def _session_for(
    estimation: Mapping[str, Any], tau: float, p: float, estimator_key: str
) -> EstimationSession:
    return (
        EstimationSession([tau, tau], scheme=estimation["scheme"])
        .target(estimation["target"], p=p)
        .estimator(estimator_key)
    )


def replicate(
    params: Mapping[str, Any],
    children: Sequence[np.random.SeedSequence],
    start: int,
) -> List[Dict[str, Any]]:
    """One record per (replication, configuration, estimator).

    ``children`` are the replication seed sequences of this shard.  Per
    configuration, every replication's per-item seeds are derived from
    that replication's spawned child alone (shard-invariant) and stacked
    into one matrix, so the whole shard runs as a *single*
    ``session.simulate`` call per estimator — which is what lets the
    backend policy batch the replication × item grid through the
    non-unit-rate engine kernels.  Both estimators of a configuration
    share the seed matrix, so the comparison is paired exactly as in the
    original study.
    """
    estimation = dict(params.get("estimation") or DEFAULT_ESTIMATION)
    configurations = _configurations(params)
    # Everything replication-independent — the shared rate, the tuple
    # list, the sessions — is prepared once per configuration; the
    # replication loop only derives seeds.
    tuples_by_workload: Dict[str, List[Tuple[float, ...]]] = {}
    prepared = []
    for workload, dataset, p, rate in configurations:
        if workload not in tuples_by_workload:
            tuples_by_workload[workload] = [
                dataset.tuple_for(key) for key in dataset.items
            ]
        tau = shared_rate(dataset, rate)
        sessions = {
            label: _session_for(estimation, tau, p, estimator_key)
            for label, estimator_key in estimation["estimators"].items()
        }
        prepared.append(
            (workload, p, rate, tuples_by_workload[workload], sessions)
        )
    config_seeds = [child.spawn(len(prepared)) for child in children]
    records: List[Dict[str, Any]] = []
    for index, (workload, p, rate, tuples, sessions) in enumerate(prepared):
        seed_matrix = np.stack(
            [
                1.0 - np.random.default_rng(per_config[index]).random(len(tuples))
                for per_config in config_seeds
            ]
        )
        for label, session in sessions.items():
            summary = session.simulate(
                tuples, replications=len(children), seeds=seed_matrix
            ).metadata["summary"]
            for offset, estimate in enumerate(summary.estimates):
                records.append(
                    {
                        "replication": start + offset,
                        "workload": workload,
                        "p": p,
                        "rate": rate,
                        "estimator": label,
                        "estimate": float(estimate),
                    }
                )
    return records


def finalize(
    params: Mapping[str, Any], records: List[Mapping[str, Any]]
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Reduce per-replication estimates to the E9 error table."""
    configurations = _configurations(params)
    truth: Dict[Tuple[str, float], float] = {}
    session = EstimationSession()
    for workload, dataset, p, _rate in configurations:
        if (workload, p) not in truth:
            truth[(workload, p)] = session.query(
                "lpp", dataset, p=p, instances=(0, 1)
            ).value
    grouped: Dict[Tuple[str, float, float, str], List[Mapping[str, Any]]] = {}
    for record in records:
        key = (
            record["workload"], record["p"], record["rate"],
            record["estimator"],
        )
        grouped.setdefault(key, []).append(record)
    estimation = dict(params.get("estimation") or DEFAULT_ESTIMATION)
    labels = list(estimation["estimators"])
    final: List[Dict[str, Any]] = []
    for workload, _dataset, p, rate in configurations:
        for label in labels:
            group = sorted(
                grouped.get((workload, p, rate, label), ()),
                key=lambda r: r["replication"],
            )
            estimates = np.array([r["estimate"] for r in group])
            true_value = truth[(workload, p)]
            final.append(
                {
                    "workload": workload,
                    "p": p,
                    "rate": rate,
                    "estimator": label,
                    "true_value": true_value,
                    "mean_estimate": float(estimates.mean()),
                    "mean_relative_error": float(
                        np.mean(np.abs(estimates - true_value))
                        / max(true_value, 1e-12)
                    ),
                    "rmse": float(
                        np.sqrt(np.mean((estimates - true_value) ** 2))
                    ),
                }
            )
    results = _as_results(final)
    who_won = winners(results)
    notes = [
        "true_value is the exact L_p^p difference of the two instances.",
        "Lower-RMSE estimator per configuration:",
    ]
    for (workload, p, rate), name in sorted(who_won.items()):
        notes.append(f"  {workload} p={p} rate={rate}: {name}")
    metadata = {
        "winners": {
            f"{workload} p={p} rate={rate}": name
            for (workload, p, rate), name in sorted(who_won.items())
        },
        "notes": notes,
    }
    return final, metadata


def _as_results(records: Sequence[Mapping[str, Any]]) -> List[WorkloadResult]:
    return [
        WorkloadResult(
            workload=r["workload"],
            estimator=r["estimator"],
            p=r["p"],
            sampling_rate=r["rate"],
            true_value=r["true_value"],
            mean_estimate=r["mean_estimate"],
            mean_relative_error=r["mean_relative_error"],
            rmse=r["rmse"],
        )
        for r in records
    ]


def run(
    num_items: int = 400,
    sampling_rates: Sequence[float] = (0.05, 0.1, 0.2),
    exponents: Sequence[float] = (1.0, 2.0),
    replications: int = 40,
    seed: int = 7,
) -> List[WorkloadResult]:
    """Run the full comparison on the two synthetic workloads.

    ``seed`` roots both the dataset generation and the per-replication
    :class:`~numpy.random.SeedSequence` spawn, so the output is a pure
    function of the arguments (and matches the registered E9 spec run at
    the same parameters, shard count notwithstanding).
    """
    params = {
        "num_items": int(num_items),
        "sampling_rates": [float(r) for r in sampling_rates],
        "exponents": [float(p) for p in exponents],
        "replications": int(replications),
        "dataset_seed": int(seed),
        "estimation": DEFAULT_ESTIMATION,
    }
    children = np.random.SeedSequence(seed).spawn(int(replications))
    records = replicate(params, children, 0)
    final, _metadata = finalize(params, records)
    return _as_results(final)


def winners(results: List[WorkloadResult]) -> Dict[Tuple[str, float, float], str]:
    """Which estimator had the lower RMSE per (workload, p, rate)."""
    table: Dict[Tuple[str, float, float], Dict[str, float]] = {}
    for r in results:
        table.setdefault((r.workload, r.p, r.sampling_rate), {})[r.estimator] = r.rmse
    return {
        key: min(scores, key=scores.get) for key, scores in table.items()
    }
