"""Tests for the top-level public API surface."""

import math

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_quickstart_value(self):
        """The low-level quickstart in the package docstring must stay true."""
        scheme = repro.pps_scheme([1.0, 1.0])
        target = repro.OneSidedRange(p=1)
        estimator = repro.LStarEstimator(target)
        outcome = scheme.sample((0.6, 0.2), seed=0.35)
        assert estimator.estimate(outcome) == pytest.approx(
            math.log(0.6 / 0.35), rel=1e-9
        )

    def test_docstring_session_quickstart_value(self):
        """The session quickstart in the package docstring must stay true."""
        session = (
            repro.EstimationSession([1.0, 1.0], scheme="pps")
            .target("one_sided_range", p=1)
            .estimator("lstar")
        )
        result = session.estimate((0.6, 0.2), seed=0.35)
        assert round(result.value, 6) == 0.538997

    def test_facade_names_exported_at_top_level(self):
        for name in (
            "EstimationSession",
            "Session",
            "BackendPolicy",
            "EstimateResult",
            "register_estimator",
            "register_target",
            "register_query",
            "register_scheme",
            "set_default_backend",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name
        assert repro.Session is repro.EstimationSession

    def test_repro_api_module_surface(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name), name
        assert set(api._LAZY) <= set(api.__all__)
        # Registries come pre-populated by the library's own layers.
        assert len(api.TARGETS) > 0
        assert len(api.ESTIMATORS) > 0
        assert len(api.QUERIES) > 0
        assert len(api.SCHEMES) > 0


class TestEndToEndSmoke:
    def test_minimal_pipeline(self):
        """Sample a tiny dataset, estimate a difference, check plausibility."""
        import numpy as np

        from repro.aggregates import (
            CoordinatedPPSSampler,
            MultiInstanceDataset,
            estimate_lpp,
        )

        dataset = MultiInstanceDataset(
            ["before", "after"],
            {f"k{i}": (0.1 + 0.02 * i, 0.1 + 0.025 * i) for i in range(20)},
        )
        sampler = CoordinatedPPSSampler([1.0, 1.0])
        rng = np.random.default_rng(0)
        estimates = [
            estimate_lpp(sampler.sample(dataset, rng=rng), p=1.0)
            for _ in range(400)
        ]
        truth = repro.EstimationSession().query("lpp", dataset, p=1.0).value
        assert sum(estimates) / len(estimates) == pytest.approx(truth, rel=0.25)
