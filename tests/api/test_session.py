"""End-to-end tests for the EstimationSession facade.

The headline test reproduces the package-docstring quickstart and the E1
golden numbers purely through :class:`repro.api.EstimationSession` — no
direct estimator or engine imports — which is the acceptance bar for the
facade: everything the four low-level surfaces used to expose must be
reachable through one session.
"""

import math

import numpy as np
import pytest

from repro.api import QUERIES, BackendPolicy, EstimationSession, Session
from repro.aggregates import exact
from repro.aggregates.dataset import MultiInstanceDataset, example1_dataset
from repro.core.functions import AbsoluteCombination

#: The E1 golden numbers frozen by tests/experiments/test_golden.py.
E1_GOLDEN = {
    "L1": (("b", "c", "e"), 0.7200000000000001),
    "L2^2": (("c", "f", "h"), 0.1617),
    "L2": (("c", "f", "h"), 0.402119385257662),
    "L1+": (("b", "c", "e"), 0.28),
}

#: The E2 golden estimates (fixed paper seeds, L* over instances 0, 1).
E2_PAPER_SEEDS = {
    "a": 0.32, "b": 0.21, "c": 0.04, "d": 0.23,
    "e": 0.84, "f": 0.70, "g": 0.15, "h": 0.64,
}
E2_GOLDEN_LPP_PLUS = 2.8373408436100727


class TestEndToEndThroughSessionOnly:
    """Docstring quickstart + E1/E2 goldens, session API exclusively."""

    def test_docstring_quickstart(self):
        session = (
            EstimationSession([1.0, 1.0], scheme="pps")
            .target("one_sided_range", p=1)
            .estimator("lstar")
        )
        result = session.estimate((0.6, 0.2), seed=0.35)
        assert result.value == pytest.approx(math.log(0.6 / 0.35), rel=1e-9)
        assert round(result.value, 6) == 0.538997  # the docstring's number
        assert result.estimator == "L*"
        assert result.metadata["outcome"] == (0.6, None)

    def test_e1_golden_numbers(self):
        session = EstimationSession()
        for name, query, p in (
            ("L1", "lpp", 1.0),
            ("L2^2", "lpp", 2.0),
            ("L2", "lp", 2.0),
            ("L1+", "lpp_plus", 1.0),
        ):
            selection, golden = E1_GOLDEN[name]
            value = session.query(
                "{}".format(query), example1_dataset(), p=p,
                instances=(0, 1), selection=list(selection),
            ).value
            assert value == pytest.approx(golden, abs=1e-12), name

    def test_e1_custom_query_golden(self):
        session = EstimationSession().target(
            "abs_combination", coefficients=[1.0, -2.0, 1.0], p=2.0
        )
        # The session's own target feeds the custom query.
        value = session.query(
            "custom", example1_dataset(), instances=(0, 1, 2),
            selection=["b", "d"],
        ).value
        assert value == pytest.approx(1.4144, abs=1e-12)

    def test_e2_golden_estimate(self):
        session = (
            EstimationSession([1.0, 1.0, 1.0], scheme="pps")
            .target("one_sided_range", p=1.0)
            .estimator("lstar")
            .instances((0, 1))
        )
        sample = session.sample(example1_dataset(), seeds=E2_PAPER_SEEDS)
        result = session.estimate(sample)
        assert result.value == pytest.approx(E2_GOLDEN_LPP_PLUS, abs=1e-9)
        assert result.items_seen == 5  # distinct keys across the 6 entries
        assert result.items_contributing > 0


class TestSessionConfiguration:
    def test_fluent_calls_return_self(self):
        session = EstimationSession([1.0, 1.0])
        assert session.target("rg_plus", p=1.0) is session
        assert session.estimator("lstar") is session
        assert session.instances(None) is session
        assert session.backend("scalar") is session
        assert session.policy.mode == "scalar"

    def test_missing_target_is_a_clear_error(self):
        with pytest.raises(ValueError, match="no target set"):
            EstimationSession([1.0, 1.0]).estimate((0.5, 0.2), seed=0.3)

    def test_single_item_requires_seed(self):
        session = EstimationSession([1.0, 1.0]).target("rg_plus", p=1.0)
        with pytest.raises(ValueError, match="seed"):
            session.estimate((0.5, 0.2))

    def test_unknown_names_raise_keyerror(self):
        with pytest.raises(KeyError, match="unknown target"):
            EstimationSession([1.0, 1.0]).target("nope")
        with pytest.raises(KeyError, match="unknown query"):
            EstimationSession().query("nope", example1_dataset())
        with pytest.raises(KeyError, match="unknown scheme"):
            EstimationSession([1.0], scheme="nope").scheme

    def test_estimator_instances_and_names_are_interchangeable(self):
        from repro.estimators.ustar import UStarOneSidedRangePPS

        session = EstimationSession([1.0, 1.0]).target("rg_plus", p=1.0)
        by_name = session.fork().estimator("ustar")
        by_instance = session.fork().estimator(UStarOneSidedRangePPS(p=1.0))
        outcome_args = dict(seed=0.35)
        a = by_name.estimate((0.6, 0.2), **outcome_args).value
        b = by_instance.estimate((0.6, 0.2), **outcome_args).value
        assert a == b

    def test_fork_is_independent(self):
        base = EstimationSession([1.0, 1.0]).target("rg_plus", p=1.0)
        fork = base.fork().target("rg", p=2.0)
        assert base.describe()["target"] != fork.describe()["target"]

    def test_session_alias(self):
        assert Session is EstimationSession

    def test_describe_reports_configuration(self):
        info = (
            EstimationSession([1.0, 1.0], backend="scalar")
            .target("rg_plus", p=1.0)
            .estimator("ht")
            .describe()
        )
        assert info["backend"] == "scalar"
        assert info["estimator"] == "HT"


class TestSessionDatasetEstimation:
    def _dataset(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        return MultiInstanceDataset(
            ["a", "b"], {f"k{i}": tuple(rng.random(2)) for i in range(n)}
        )

    def test_matches_legacy_pipeline_scalar(self):
        from repro.aggregates.coordinated import CoordinatedPPSSampler
        from repro.aggregates.sum_estimator import estimate_lpp_plus

        dataset = self._dataset()
        session = (
            EstimationSession([1.0, 1.0], backend="scalar")
            .target("rg_plus", p=1.0)
        )
        facade = session.estimate(dataset, rng=9)
        sample = CoordinatedPPSSampler([1.0, 1.0]).sample(
            dataset, rng=np.random.default_rng(9)
        )
        legacy = estimate_lpp_plus(sample, 1.0, (0, 1), backend="scalar")
        assert facade.value == pytest.approx(legacy, rel=1e-12)
        assert facade.backend == "scalar"

    def test_engine_path_matches_scalar_path(self):
        dataset = self._dataset(n=60, seed=5)
        scalar = (
            EstimationSession([1.0, 1.0], backend="scalar")
            .target("rg_plus", p=1.0)
            .estimate(dataset, rng=21)
        )
        vectorized = (
            EstimationSession([1.0, 1.0], backend="vectorized")
            .target("rg_plus", p=1.0)
            .estimate(dataset, rng=21)
        )
        assert vectorized.backend == "vectorized"
        assert vectorized.value == pytest.approx(scalar.value, abs=1e-9)

    def test_vectorized_without_kernel_raises(self):
        dataset = self._dataset(n=10)
        # ustar_numeric (the grid-integration U*) is deliberately outside
        # the kernel registry; dyadic, the previous example here, gained a
        # kernel when the moments engine landed.
        session = (
            EstimationSession([1.0, 1.0], backend="vectorized")
            .target("rg_plus", p=1.0)
            .estimator("ustar_numeric")
        )
        with pytest.raises(ValueError, match="no vectorized kernel"):
            session.estimate(dataset, rng=1)

    def test_auto_takes_the_engine_at_any_size(self):
        # A kernel covers L* for rg_plus, so ``auto`` streams even a
        # two-item dataset through the engine; the value matches scalar.
        dataset = self._dataset(n=2)
        estimates = {
            mode: EstimationSession([1.0, 1.0], backend=mode)
            .target("rg_plus", p=1.0)
            .estimate(dataset, rng=2)
            for mode in ("scalar", "auto")
        }
        assert estimates["auto"].backend == "auto"
        assert "batch_result" in estimates["auto"].metadata
        assert "sum_estimate" in estimates["scalar"].metadata
        assert estimates["auto"].value == pytest.approx(
            estimates["scalar"].value, abs=1e-9
        )

    def test_mapping_and_array_inputs(self):
        session = EstimationSession([1.0, 1.0]).target("rg_plus", p=1.0)
        mapping = {f"k{i}": (0.3 + 0.01 * i, 0.1) for i in range(10)}
        rows = np.asarray(list(mapping.values()))
        a = session.estimate(mapping, rng=4).value
        # Same tuples, integer keys: different hashed seeds would change the
        # estimate, so drive both with the same explicit generator stream.
        b = session.estimate(rows, rng=4).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_item_honours_instance_selection(self):
        """Regression: .instances() must apply to single-item estimates
        exactly as it does to dataset estimates."""
        session = (
            EstimationSession([1.0, 1.0, 1.0])
            .target("one_sided_range", p=1.0)
            .estimator("lstar")
            .instances((1, 2))
        )
        vector = (0.0, 0.9, 0.2)
        single = session.estimate(vector, seed=0.35).value
        via_dataset = session.estimate(
            {"a": vector}, seeds={"a": 0.35}
        ).value
        assert single == pytest.approx(via_dataset, rel=1e-12)
        assert single > 0.0  # columns (1, 2), not (0, 1)

    def test_query_backend_override_accepts_all_specs(self):
        """Regression: query(backend=...) takes any BackendSpec, not just
        the two raw mode strings."""
        dataset = example1_dataset()
        session = EstimationSession()
        baseline = session.query("lpp", dataset, p=1.0).value
        for spec in ("scalar", "vectorized", "auto",
                     BackendPolicy("auto"), BackendPolicy("scalar")):
            assert session.query(
                "lpp", dataset, p=1.0, backend=spec
            ).value == pytest.approx(baseline, rel=1e-9), spec

    def test_selection_restricts_the_aggregate(self):
        dataset = example1_dataset()
        session = (
            EstimationSession([1.0, 1.0, 1.0])
            .target("rg_plus", p=1.0)
            .instances((0, 1))
        )
        sample = session.sample(dataset, seeds=E2_PAPER_SEEDS)
        full = session.estimate(sample).value
        subset = session.estimate(sample, selection=["a", "c"]).value
        assert 0.0 <= subset <= full


class TestSessionExactQueries:
    """Every built-in exact query, through ``EstimationSession().query``."""

    #: Query name -> keyword arguments beyond the dataset.  The "sum" item
    #: function follows the dual contract: per-tuple on the scalar path,
    #: per-row over the dense matrix on the vectorized path.
    CASES = {
        "sum": {
            "item_function": lambda t: np.asarray(t, dtype=float).sum(axis=-1)
        },
        "lp": {"p": 2.0, "instances": (0, 1)},
        "lpp": {"p": 1.0, "instances": (0, 1)},
        "lpp_plus": {"p": 1.0, "instances": (0, 1),
                     "selection": ["b", "c", "e"]},
        "distinct": {"instances": (0, 1)},
        "jaccard": {"instances": (0, 1)},
        "weighted_jaccard": {"instances": (0, 1)},
        "custom": {"target": AbsoluteCombination([1.0, -2.0, 1.0], p=2.0),
                   "instances": (0, 1, 2)},
    }

    def test_cases_cover_every_built_in_query(self):
        """New built-in queries must be added to the parity grid."""
        built_in = {
            name for name in QUERIES
            if QUERIES.get(name).__module__ == exact.__name__
        }
        assert built_in == set(self.CASES)

    @pytest.mark.parametrize("query", sorted(CASES))
    def test_scalar_and_vectorized_agree(self, query):
        dataset = example1_dataset()
        kwargs = self.CASES[query]
        scalar = EstimationSession(backend="scalar").query(
            query, dataset, **kwargs
        )
        vectorized = EstimationSession(backend="vectorized").query(
            query, dataset, **kwargs
        )
        assert (scalar.backend, vectorized.backend) == ("scalar", "vectorized")
        assert scalar.value == pytest.approx(
            QUERIES.get(query)(dataset, backend="scalar", **kwargs), rel=1e-12
        )
        assert vectorized.value == pytest.approx(scalar.value, rel=1e-9)

    @pytest.mark.parametrize("where", ["session", "query"])
    def test_invalid_backend_raises(self, where):
        with pytest.raises(ValueError, match="backend"):
            if where == "session":
                EstimationSession(backend="numpy")
            else:
                EstimationSession().query(
                    "lpp", example1_dataset(), p=1.0, backend="numpy"
                )

    def test_sum_never_auto_switches_contracts(self):
        """The scalar and vectorized paths hand item_function different
        inputs, so the auto policy must stay scalar for "sum" no matter
        how large the dataset is (regression: a per-tuple function on a
        600-item dataset used to hit the matrix contract and crash)."""
        rng = np.random.default_rng(8)
        big = MultiInstanceDataset(
            ["a", "b"], {f"k{i}": tuple(rng.random(2)) for i in range(600)}
        )
        per_tuple = lambda tup: max(tup) - min(tup)  # noqa: E731
        auto = EstimationSession(backend="auto").query(
            "sum", big, item_function=per_tuple
        )
        assert auto.backend == "scalar"
        assert auto.value == pytest.approx(
            exact.sum_aggregate(big, per_tuple, backend="scalar"), rel=1e-12
        )
        # An explicit vectorized request still opts into the matrix
        # contract.
        per_row = lambda m: np.abs(m[:, 0] - m[:, 1])  # noqa: E731
        vectorized = EstimationSession(backend="vectorized").query(
            "sum", big, item_function=per_row
        )
        assert vectorized.value == pytest.approx(auto.value, rel=1e-9)


class TestSessionAnalysis:
    def test_simulate_matches_low_level_simulation(self):
        from repro.analysis.simulation import simulate_sum_estimate
        from repro.core.functions import OneSidedRange
        from repro.core.schemes import pps_scheme
        from repro.estimators.lstar import LStarEstimator

        tuples = [(0.6, 0.2), (0.8, 0.5), (0.3, 0.1)] * 5
        session = (
            EstimationSession([1.0, 1.0], backend="scalar")
            .target("rg_plus", p=1.0)
            .estimator("lstar")
        )
        facade = session.simulate(tuples, replications=50, rng=17)
        low_level = simulate_sum_estimate(
            LStarEstimator(OneSidedRange(p=1.0)),
            pps_scheme([1.0, 1.0]),
            OneSidedRange(p=1.0),
            tuples,
            replications=50,
            rng=np.random.default_rng(17),
            backend="scalar",
        )
        assert facade.value == pytest.approx(low_level.mean, rel=1e-12)
        assert facade.variance == pytest.approx(low_level.variance, rel=1e-12)
        assert facade.metadata["true_value"] == pytest.approx(
            low_level.true_value, rel=1e-12
        )
        assert facade.std_error == pytest.approx(
            math.sqrt(low_level.variance), rel=1e-12
        )

    def test_moments_carry_exact_variance(self):
        session = (
            EstimationSession([1.0, 1.0])
            .target("rg_plus", p=1.0)
            .estimator("lstar")
        )
        report = session.moments((0.6, 0.2))
        # L* is unbiased: the quadrature mean equals the true value.
        assert report.value == pytest.approx(
            report.metadata["true_value"], abs=1e-6
        )
        assert report.variance > 0.0

    def test_float_conversion(self):
        session = EstimationSession([1.0, 1.0]).target("rg_plus", p=1.0)
        result = session.estimate((0.6, 0.2), seed=0.35)
        assert float(result) == result.value
