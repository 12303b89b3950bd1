"""Scalar parity and dispatch of the kernel-backed experiment paths.

E7's ratio numerators, E8's dominance variances, E10's similarity pairs
and E11's ablation moments run on the engine.  These tests pin each path
to its scalar twin: running with ``backend="scalar"`` (for E7 and E10,
their spec hooks under a forced ``scalar`` policy) must reproduce the
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


def _sweep_under(module, params, mode):
    """A sweep experiment's hook records over its whole grid, run under
    the forced backend ``mode``."""
    previous = set_default_backend(mode)
    try:
        return module.sweep(params, module.sweep_points(params), 0)
    finally:
        set_default_backend(previous)


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
        params = {"grid_points": 2, "exponents": [1.0],
                  "include_baselines": True}
        scalar = _sweep_under(ratios, params, "scalar")
        engine = _sweep_under(ratios, params, "vectorized")
        assert len(scalar) == len(engine)
        for a, b in zip(scalar, engine):
            assert (a["estimator"], a["p"], a["v1"], a["v2"]) == (
                b["estimator"], b["p"], b["v1"], b["v2"],
            )
            # The hull denominator is policy-independent, so the ratios
            # carry the numerators' tolerance.
            assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-6)
        rows, _ = ratios.finalize(params, engine)
        sup = {row["estimator"]: row["sup_ratio"] for row in rows}
        # U* has no small universal guarantee; L* stays within 4.
        lstar = next(v for k, v in sup.items() if k.startswith("L*"))
        ustar = next(v for k, v in sup.items() if k.startswith("U*"))
        assert ustar > lstar
        assert lstar <= 4.0


def _assert_similarity_close(scalar, engine):
    assert len(scalar) == len(engine)
    for a, b in zip(scalar, engine):
        assert (a["pair"], a["k"]) == (b["pair"], b["k"])
        assert a["exact"] == b["exact"]
        assert b["estimated"] == pytest.approx(a["estimated"], rel=1e-9)


class TestSimilarityParity:
    def test_rows_match_scalar(self):
        params = {"ks": [4, 8], "num_pairs": 3, "seed": 2}
        _assert_similarity_close(
            _sweep_under(similarity, params, "scalar"),
            _sweep_under(similarity, params, "vectorized"),
        )

    @pytest.mark.slow
    def test_default_scale_parity(self):
        params = {"ks": [4, 8, 16, 32], "num_pairs": 12}
        _assert_similarity_close(
            _sweep_under(similarity, params, "scalar"),
            _sweep_under(similarity, params, "vectorized"),
        )


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
