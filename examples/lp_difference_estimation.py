"""Estimating L_p differences between two snapshots from tiny samples.

This reproduces the workflow behind the paper's Section 7 application:
two weight assignments over the same keys (two traffic periods, two years
of name frequencies, ...) are PPS-sampled with *shared* per-key seeds; the
``L_1`` and ``L_2`` differences are then estimated from the samples alone.

The script contrasts the two customised estimators on the two synthetic
workloads with opposite similarity structure:

* the IP-flow-like workload (heavy churn, large differences) favours U*;
* the surnames-like workload (stable frequencies) favours L*;
* L*'s worst case is mild — that is the 4-competitiveness guarantee at
  work — whereas U* can be far off on the "wrong" workload.

Run with:  python examples/lp_difference_estimation.py
"""

from dataclasses import replace

import numpy as np

from repro.api import EstimationSession
from repro.api.experiments import ExperimentRunner, ReplicationPlan, resolve_spec
from repro.datasets import ip_flow_pairs, surname_pairs
from repro.experiments.report import render_result


def main() -> None:
    # The registered E9 spec with this script's own parameters.
    spec = replace(
        resolve_spec("E9"),
        params={
            "dataset_seed": 42,
            "num_items": 300,
            "sampling_rates": [0.05, 0.1, 0.2],
            "exponents": [1.0, 2.0],
        },
        scales={},
        replication=ReplicationPlan(seed=42, replications=30),
    )
    print(render_result(ExperimentRunner().run(spec)))

    print("\nReading the table:")
    print(" * on the ip-flows workload the U* rows have the lower RMSE;")
    print(" * on the surnames workload the L* rows win;")
    print(" * the L* error is never catastrophically larger than the winner's,")
    print("   which is why the paper recommends it as the default choice.")

    # A peek at the raw workloads, to make the similarity contrast concrete.
    rng = np.random.default_rng(0)
    volatile = ip_flow_pairs(10, rng=rng)
    stable = surname_pairs(10, rng=rng)
    session = EstimationSession()
    print("\nExact L1 differences via the session facade:")
    print(f"  volatile workload: {session.query('lpp', volatile, p=1.0).value:.4f}")
    print(f"  stable workload  : {session.query('lpp', stable, p=1.0).value:.4f}")
    print("\nSample ip-flow tuples (volatile):")
    for key, tup in list(volatile.iter_items())[:5]:
        print(f"  {key}: {tuple(round(x, 3) for x in tup)}")
    print("Sample surname tuples (stable):")
    for key, tup in list(stable.iter_items())[:5]:
        print(f"  {key}: {tuple(round(x, 4) for x in tup)}")


if __name__ == "__main__":
    main()
