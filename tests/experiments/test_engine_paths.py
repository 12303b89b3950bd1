"""Scalar parity of every newly kernel-backed experiment path.

PR 5 moved the last scalar replication/sweep/moment loops (E4 curve
grids, E7 ratio numerators, E8 dominance, E10 similarity pairs, E11
ablation) onto the engine.  These tests pin each path to its scalar
twin: running with ``backend="scalar"`` must reproduce the engine-backed
records to tight tolerance, and the golden structural findings must be
unchanged on both paths.  Quick slices run in tier-1; the exhaustive
default-scale comparisons carry the ``slow`` marker.
"""

import numpy as np
import pytest

from repro.experiments import ablation, dominance, example4, ratios, similarity


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


class TestExample4Parity:
    def test_curves_match_scalar(self):
        scalar = example4.run(grid=40, backend="scalar")
        engine = example4.run(grid=40, backend="vectorized")
        for a, b in zip(scalar, engine):
            assert (a.p, a.vector) == (b.p, b.vector)
            np.testing.assert_array_equal(a.lstar, b.lstar)  # stays scalar
            np.testing.assert_allclose(
                b.lstar_closed_form, a.lstar_closed_form, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(b.ustar, a.ustar, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                b.voptimal, a.voptimal, rtol=1e-12, atol=1e-12
            )

    def test_caption_checks_hold_on_engine_path(self):
        curves = example4.run(grid=50, backend="vectorized")
        checks = example4.structural_checks(curves)
        assert all(checks.values()), checks


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
