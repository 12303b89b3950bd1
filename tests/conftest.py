"""Shared fixtures for the test-suite.

The canonical setting of the paper's examples — coordinated PPS sampling
with ``tau* = 1`` over two-entry tuples in the unit square — appears in
most tests, so it is provided once here, along with a deterministic
random generator and a helper that integrates an estimator's expectation
exactly (used by the many unbiasedness tests).  ``forced_backend`` pins
the process-wide backend policy for one block — the way to run serving
queries, which take no per-call backend, on a forced path.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.api.backend import set_default_backend
from repro.core.functions import ExponentiatedRange, OneSidedRange
from repro.core.schemes import CoordinatedScheme, LinearThreshold, pps_scheme


@pytest.fixture
def unit_pps_scheme() -> CoordinatedScheme:
    """Coordinated PPS over two entries with tau* = 1 (the paper's default)."""
    return pps_scheme([1.0, 1.0])


@pytest.fixture
def unit_pps_scheme_3d() -> CoordinatedScheme:
    """Three-entry variant used by the Example 1/2 style tests."""
    return pps_scheme([1.0, 1.0, 1.0])


@pytest.fixture
def rg1_plus() -> OneSidedRange:
    return OneSidedRange(p=1.0)


@pytest.fixture
def rg2_plus() -> OneSidedRange:
    return OneSidedRange(p=2.0)


@pytest.fixture
def rg1() -> ExponentiatedRange:
    return ExponentiatedRange(p=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20140715)  # PODC 2014 vintage seed


@pytest.fixture
def forced_backend():
    """``with forced_backend("scalar"): ...`` runs the block under that
    process-wide backend mode and restores the previous policy after."""

    @contextmanager
    def force(mode):
        previous = set_default_backend(mode)
        try:
            yield
        finally:
            set_default_backend(previous)

    return force
