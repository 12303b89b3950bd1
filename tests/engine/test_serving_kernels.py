"""The serving reductions answer ``==`` on both backends.

``repro.engine.serving`` reduces each group with ``np.bincount`` on the
vectorized path and with a Python left fold on the scalar path.
``np.bincount`` adds a group's terms left to right in input order and
each term is the same IEEE operation (``max(w, tau*)`` or ``1/p``), so
the two paths must agree exactly — not to a tolerance — for any groups,
including empty and single ones.  That is what lets ``auto`` send every
serving query to the kernel without changing an answer.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.serving import (
    batch_hip_counts,
    batch_hip_horizon_counts,
    batch_ht_sums,
)

BACKENDS = ("scalar", "vectorized")

#: Square roots spread over many decades: nearly every sum of them
#: rounds, so a changed summation order shows in the low bits.
weights = st.integers(1, 10 ** 9).map(
    lambda n: math.sqrt(n) * 10.0 ** (n % 9 - 4)
)
probabilities = st.integers(1, 10 ** 9).map(lambda n: 1.0 / math.sqrt(n))


def sized_lists(values, max_size=40):
    """Lists whose length is drawn first, so long ones (where a pairwise
    sum would regroup the terms) turn up as often as short ones."""
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n)
    )


def groups_of(values):
    """Zero or more groups, each empty, single or longer."""
    return st.lists(sized_lists(values), max_size=6)


def _both(fn, *args):
    return [fn(*args, backend=backend) for backend in BACKENDS]


@settings(max_examples=50, deadline=None)
@given(groups=groups_of(weights), tau_star=st.floats(1e-3, 1e3))
def test_ht_sums_are_equal_across_backends(groups, tau_star):
    scalar, vectorized = _both(batch_ht_sums, groups, tau_star)
    assert scalar == vectorized


@settings(max_examples=50, deadline=None)
@given(groups=groups_of(probabilities))
def test_hip_counts_are_equal_across_backends(groups):
    scalar, vectorized = _both(batch_hip_counts, groups)
    assert scalar == vectorized


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            sized_lists(st.tuples(st.floats(0.0, 100.0), probabilities)),
            st.one_of(st.just(math.inf), st.floats(0.0, 100.0)),
        ),
        max_size=8,
    )
)
def test_hip_horizon_counts_are_equal_across_backends(data):
    columns = [
        ([d for d, _p in entries], [p for _d, p in entries])
        for entries, _horizon in data
    ]
    horizons = [horizon for _entries, horizon in data]
    scalar, vectorized = _both(batch_hip_horizon_counts, columns, horizons)
    assert scalar == vectorized


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_and_single_groups(backend):
    assert batch_ht_sums([], 1.0, backend=backend) == []
    assert batch_ht_sums([[]], 1.0, backend=backend) == [0.0]
    assert batch_ht_sums([[0.25]], 1.0, backend=backend) == [1.0]
    assert batch_hip_counts([[], [0.5]], backend=backend) == [0.0, 2.0]
    assert batch_hip_horizon_counts(
        [([1.0, 3.0], [0.5, 0.25])], [2.0], backend=backend
    ) == [2.0]
