"""Tests for the unified BackendPolicy (and the default-drift regression)."""

import dataclasses
import inspect

import pytest

from repro.api.backend import (
    BACKEND_MODES,
    BackendPolicy,
    default_backend,
    set_default_backend,
)


@pytest.fixture(autouse=True)
def _clean_default():
    """Never leak a process-wide override between tests."""
    yield
    set_default_backend(None)


class TestPolicyObject:
    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="backend mode"):
            BackendPolicy(mode="numpy")

    def test_fixed_modes_resolve_to_themselves(self):
        assert BackendPolicy("scalar").mode == "scalar"
        assert BackendPolicy("scalar").resolve_exact() == "scalar"
        assert BackendPolicy("vectorized").resolve_exact() == "vectorized"

    def test_auto_dispatches_by_kernel(self):
        # ``auto`` carries no size rule: estimation paths read the mode
        # and ask whether a kernel covers the pair; exact queries, which
        # always have a vectorized path, resolve to it.
        policy = BackendPolicy("auto")
        assert policy.mode == "auto"
        assert policy.resolve_exact() == "vectorized"
        assert [field.name for field in dataclasses.fields(policy)] == ["mode"]

    def test_coerce(self):
        assert BackendPolicy.coerce(None).mode == "auto"
        assert BackendPolicy.coerce("scalar").mode == "scalar"
        policy = BackendPolicy("vectorized")
        assert BackendPolicy.coerce(policy) is policy
        with pytest.raises(TypeError, match="backend"):
            BackendPolicy.coerce(3.14)

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            BackendPolicy().mode = "scalar"


class TestProcessDefault:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert default_backend().mode == "scalar"
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert default_backend() == BackendPolicy("vectorized")

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend()

    def test_set_default_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        set_default_backend("vectorized")
        assert default_backend().mode == "vectorized"
        set_default_backend(None)
        assert default_backend().mode == "scalar"

    def test_set_default_backend_returns_previous_override(self):
        assert set_default_backend("scalar") is None
        previous = set_default_backend("vectorized")
        assert previous == BackendPolicy("scalar")
        assert set_default_backend(previous).mode == "vectorized"
        assert default_backend().mode == "scalar"

    def test_run_all_backend_flag_restores_prior_override(self, capsys):
        """Regression: the CLI must restore (not clear) a pre-existing
        process-wide override."""
        from repro.experiments.run_all import main

        set_default_backend("vectorized")
        assert main(["--only", "E1", "--backend", "scalar"]) == 0
        capsys.readouterr()
        assert default_backend().mode == "vectorized"
        # Without --backend the CLI must not touch the override at all.
        assert main(["--only", "E1"]) == 0
        capsys.readouterr()
        assert default_backend().mode == "vectorized"


class TestDefaultConsistencyRegression:
    """Every entry point must share ONE backend default (regression for the
    pre-facade drift where analysis defaulted ``"scalar"`` while parts of
    aggregates used ``"auto"``)."""

    def test_all_entry_points_default_to_the_shared_policy(self):
        from repro.aggregates.sum_estimator import (
            SumAggregateEstimator,
            estimate_lp,
            estimate_lpp,
            estimate_lpp_plus,
        )
        from repro.analysis.simulation import simulate_sum_estimate
        from repro.analysis.variance import monte_carlo_moments
        from repro.api import EstimationSession

        entry_points = [
            SumAggregateEstimator.__init__,
            estimate_lp,
            estimate_lpp,
            estimate_lpp_plus,
            simulate_sum_estimate,
            monte_carlo_moments,
            EstimationSession.__init__,
        ]
        for func in entry_points:
            signature = inspect.signature(func)
            assert "backend" in signature.parameters, func.__qualname__
            default = signature.parameters["backend"].default
            assert default is None, (
                f"{func.__qualname__} defaults backend={default!r}; every "
                "entry point must default to None (the shared BackendPolicy)"
            )

    def test_aggregator_and_policy_agree_on_default_mode(self):
        from repro.core.functions import OneSidedRange
        from repro.aggregates.sum_estimator import SumAggregateEstimator

        aggregator = SumAggregateEstimator(OneSidedRange(p=1.0))
        assert aggregator.backend == BackendPolicy.default().mode
        assert aggregator.policy == BackendPolicy.default()

    def test_session_default_follows_process_policy(self):
        from repro.api import EstimationSession

        set_default_backend(BackendPolicy("scalar"))
        assert EstimationSession([1.0, 1.0]).policy.mode == "scalar"

    def test_backend_modes_tuple_is_frozen_surface(self):
        assert BACKEND_MODES == ("scalar", "vectorized", "auto")
