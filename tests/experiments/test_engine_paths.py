"""Scalar parity and dispatch of the kernel-backed experiment paths.

E7's ratio numerators, E8's dominance variances, E10's similarity pairs
and E11's ablation moments run on the engine.  These tests pin each path
to its scalar twin: running with ``backend="scalar"`` must reproduce the
engine-backed records to tight tolerance, and the golden structural
findings must be unchanged on both paths.  The dispatch tests check that
the ``auto`` policy actually sends E7's and E10's full-scale work to the
engine.  Quick slices run in tier-1; the exhaustive default-scale
comparisons carry the ``slow`` marker.
"""

import numpy as np
import pytest

from repro.api.backend import BackendPolicy, set_default_backend
from repro.api.experiments import resolve_spec
from repro.experiments import ablation, dominance, ratios, similarity


def _assert_rows_close(scalar_rows, engine_rows, rel=1e-6):
    assert len(scalar_rows) == len(engine_rows)
    for a, b in zip(scalar_rows, engine_rows):
        assert type(a) is type(b)
        for field in a.__dataclass_fields__:
            va, vb = getattr(a, field), getattr(b, field)
            if isinstance(va, float):
                assert abs(va - vb) <= rel * max(1.0, abs(va)), (
                    field, va, vb,
                )
            elif isinstance(va, np.ndarray):
                np.testing.assert_allclose(vb, va, rtol=rel, atol=1e-9)
            else:
                assert va == vb, field


class TestDominanceParity:
    def test_records_match_scalar(self):
        scalar = dominance.run(backend="scalar")
        engine = dominance.run(backend="vectorized")
        _assert_rows_close(scalar, engine)

    def test_golden_findings_unchanged(self):
        rows = dominance.run()  # default policy → engine past threshold
        assert dominance.all_dominated(rows)
        assert any(
            row.ht_applicable and row.ht_variance > 1.5 * row.lstar_variance
            for row in rows
        )


class TestAblationParity:
    def test_records_match_scalar(self):
        kwargs = dict(similarities=(0.0, 0.95), num_items=12)
        scalar = ablation.run(backend="scalar", **kwargs)
        engine = ablation.run(backend="vectorized", **kwargs)
        _assert_rows_close(scalar, engine)

    def test_golden_findings_unchanged(self):
        rows = ablation.run(similarities=(0.0, 0.95), num_items=15)
        winners = ablation.winners_by_similarity(rows)
        assert winners[0.0] == "U*"
        assert winners[0.95] == "L*"

    @pytest.mark.slow
    def test_default_scale_parity(self):
        kwargs = dict(similarities=(0.0, 0.25, 0.5, 0.75, 0.95), num_items=40)
        _assert_rows_close(
            ablation.run(backend="scalar", **kwargs),
            ablation.run(backend="vectorized", **kwargs),
        )


class TestRatiosParity:
    def test_reports_match_scalar(self):
        grid = ratios.default_vector_grid(2)
        scalar = ratios.run(
            exponents=(1.0,), vectors=grid, include_baselines=True,
            backend="scalar",
        )
        engine = ratios.run(
            exponents=(1.0,), vectors=grid, include_baselines=True,
        )
        for a, b in zip(scalar, engine):
            assert (a.estimator, a.p) == (b.estimator, b.p)
            for ra, rb in zip(a.reports, b.reports):
                assert rb.expected_square == pytest.approx(
                    ra.expected_square, rel=1e-6
                )
                # The hull denominator is policy-independent.
                assert rb.minimal_expected_square == ra.minimal_expected_square
        # U* has no small universal guarantee; L* stays within 4.
        lstar = next(r for r in engine if r.estimator.startswith("L*"))
        ustar = next(r for r in engine if r.estimator.startswith("U*"))
        assert ustar.supremum > lstar.supremum
        assert lstar.supremum <= 4.0

    def test_golden_constants_unchanged(self):
        results = ratios.run(
            exponents=(1.0, 2.0), vectors=ratios.default_vector_grid(3),
            include_baselines=False,
        )
        by_p = {r.p: r.supremum for r in results}
        assert by_p[1.0] == pytest.approx(2.0, abs=0.15)
        assert by_p[2.0] == pytest.approx(2.5, abs=0.3)


class TestSimilarityParity:
    def test_rows_match_scalar(self):
        kwargs = dict(ks=(4, 8), num_pairs=3, seed=2)
        scalar = similarity.run(backend="scalar", **kwargs)
        engine = similarity.run(backend="vectorized", **kwargs)
        assert len(scalar) == len(engine)
        for a, b in zip(scalar, engine):
            assert (a.pair, a.k) == (b.pair, b.k)
            assert a.exact == b.exact
            assert b.estimated == pytest.approx(a.estimated, rel=1e-9)

    @pytest.mark.slow
    def test_default_scale_parity(self):
        kwargs = dict(ks=(4, 8, 16, 32), num_pairs=12)
        scalar = similarity.run(backend="scalar", **kwargs)
        engine = similarity.run(backend="vectorized", **kwargs)
        for a, b in zip(scalar, engine):
            assert b.estimated == pytest.approx(a.estimated, rel=1e-9)


@pytest.fixture
def auto_policy():
    """The default ``auto`` policy, whatever the environment says."""
    previous = set_default_backend(BackendPolicy())
    yield
    set_default_backend(previous)


def _full_scale_points(key, module, stride):
    params = resolve_spec(key).merged_params("full")
    return params, module.sweep_points(params)[::stride]


class TestAutoDispatchAtFullScale:
    """``auto`` must keep E7's and E10's full-scale work on the engine.

    The speedup gate only reports these paths as informational (their
    smoke-size speedups sit under ``--min-speedup``), so a silent fall
    back to the scalar path would otherwise pass CI.
    """

    def test_e7_ratio_numerators_run_on_the_engine(
        self, monkeypatch, auto_policy
    ):
        from repro.analysis import competitiveness
        from repro.engine import moments

        engine_calls = []
        real = moments.batch_moments

        def spy(estimator, *args, **kwargs):
            engine_calls.append(estimator.name)
            return real(estimator, *args, **kwargs)

        def scalar(*args, **kwargs):
            raise AssertionError("E7 fell back to the scalar quadrature")

        monkeypatch.setattr(moments, "batch_moments", spy)
        monkeypatch.setattr(competitiveness, "expected_square", scalar)
        # Every 7th point covers both exponents and the v2 = 0 boundary;
        # dispatch is sized per point, so a slice sees full-scale sizes.
        params, points = _full_scale_points("E7", ratios, 7)
        records = ratios.sweep(params, points, 0)
        assert {p for p, _, _ in points} == {1.0, 2.0}
        assert any(v2 == 0.0 for _, _, v2 in points)
        assert engine_calls == [r["estimator"] for r in records]
        assert {"HT", "L* (closed form, RG_p+)"} <= set(engine_calls)

    def test_e10_pairs_run_on_the_engine(self, monkeypatch, auto_policy):
        from repro.graphs import similarity as graph_similarity

        calls = []
        real_estimate = similarity.estimate_closeness_similarity
        real_batched = graph_similarity._batched_similarity

        def estimate(sketch_u, sketch_v, *args, **kwargs):
            union = set(sketch_u.entries) | set(sketch_v.entries)
            calls.append({"k": sketch_u.k, "union": len(union),
                          "engine": False})
            return real_estimate(sketch_u, sketch_v, *args, **kwargs)

        def batched(*args, **kwargs):
            calls[-1]["engine"] = True
            return real_batched(*args, **kwargs)

        monkeypatch.setattr(similarity, "estimate_closeness_similarity",
                            estimate)
        monkeypatch.setattr(graph_similarity, "_batched_similarity", batched)
        params, points = _full_scale_points("E10", similarity, 1)
        records = similarity.sweep(params, points, 0)
        assert len(calls) == len(records) == len(points) * len(params["ks"])
        # The policy sizes a pair on its scalar work (a quadrature per
        # union node), so every full-scale pair, k = 4 included, must take
        # the engine.
        assert {call["k"] for call in calls} == set(params["ks"])
        for call in calls:
            assert call["union"] > 0 and call["engine"], call
