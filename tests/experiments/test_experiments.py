"""Integration tests: every experiment module runs and reproduces the
paper's qualitative findings at reduced scale, and every experiment's
report — :func:`~repro.experiments.report.render_result` of its runner
result — carries the facts it is read for."""

import pytest

from repro.api.experiments import ExperimentRunner, resolve_spec
from repro.experiments.report import render_result
from repro.experiments import (
    ablation,
    dominance,
    example1,
    example2,
    example3,
    example4,
    example5,
    lp_difference,
    ratios,
    similarity,
    theorem41,
)


def _report(key: str, scale: str = "smoke") -> str:
    return render_result(ExperimentRunner().run(key, scale=scale))


def _sweep(module, params):
    """A sweep experiment's finalized output over its whole grid, in
    process."""
    points = module.sweep_points(params)
    return module.finalize(params, module.sweep(params, points, 0))


class TestExample1:
    def test_values_and_report(self):
        rows = example1.run()
        by_query = {row.query: row for row in rows}
        assert by_query["L2^2"].computed == pytest.approx(0.1617)
        assert by_query["L1"].computed == pytest.approx(0.72)
        assert by_query["L2^2"].matches_paper
        assert by_query["L2"].matches_paper
        report = _report("E1")
        assert "E1" in report and "L1+" in report
        assert "L1: paper arithmetic slip" in report


class TestExample2:
    def test_all_outcomes_match_paper(self):
        rows, sample = example2.run()
        assert all(row.matches_paper for row in rows)
        assert set(sample.sampled_items()) == {"a", "b", "c", "d", "g"}

    def test_consistency_bounds_description(self):
        description = example2.consistency_bounds("a")
        assert description["entries"][0] == ("known", 0.95)
        assert description["entries"][1] == ("below", 0.32)

    def test_report_mentions_every_item(self):
        report = _report("E2")
        for item in "abcdefgh":
            assert f"\n{item} " in report or report.startswith(item)


class TestExample3:
    def test_structural_checks_pass(self):
        pairs = example3.run(grid=120)
        checks = example3.structural_checks(pairs)
        assert all(checks.values()), checks

    def test_lower_bound_matches_closed_form(self):
        pairs = example3.run(grid=60)
        for pair in pairs:
            for u, value in zip(pair.seeds, pair.lower_bound):
                expected = example3.closed_form_lower_bound(pair.p, pair.vector, float(u))
                assert value == pytest.approx(expected, abs=1e-12)

    def test_report_renders(self):
        report = _report("E3")
        assert "E3" in report and "p=0.5 v=(0.6, 0.2) CH:" in report
        assert "[ok] p=1.0: LB equals hull when v2=0" in report


class TestExample4:
    def test_structural_checks_pass(self):
        curves = example4.run(grid=50)
        checks = example4.structural_checks(curves)
        assert all(checks.values()), checks

    def test_report_renders(self):
        report = _report("E4")
        assert "E4" in report and "p=2.0 v=(0.6, 0.0) v-opt:" in report
        assert "[FAIL]" not in report


class TestExample5:
    def test_three_orders_unbiased(self):
        result = example5.run()
        problem = result.problem
        for estimator in (result.lstar_order, result.ustar_order, result.custom_order):
            for vector in problem.vectors:
                assert estimator.expected_value(vector) == pytest.approx(
                    problem.value(vector), abs=1e-9
                )

    def test_forced_values_match_corrected_paper_expressions(self):
        result = example5.run()
        for ours, paper in example5.custom_order_paper_values(result).values():
            assert ours == pytest.approx(paper, abs=1e-9)

    def test_report_renders(self):
        report = _report("E5")
        assert "E5" in report and "ok" in report
        assert "pi = (0.25, 0.5, 0.75)" in report


class TestTheorem41:
    def test_ratio_curve(self):
        points = theorem41.run((0.1, 0.3, 0.45))
        for point in points:
            assert point.measured == pytest.approx(point.theoretical, rel=1e-4)
            assert point.measured <= 4.0
        assert points[-1].measured > points[0].measured
        # The tight family approaches the bound 4: 3.6364 at p = 0.45.
        assert points[-1].measured > 3.5

    def test_report_renders(self):
        report = _report("E6")
        assert "Theorem 4.1" in report and "2/(1-p)" in report


class TestRatios:
    def test_lstar_ratios_match_paper_constants(self):
        rows, _ = _sweep(ratios, {"grid_points": 3, "exponents": [1.0, 2.0],
                                  "include_baselines": False})
        by_p = {row["p"]: row["sup_ratio"] for row in rows}
        # The paper quotes roughly 2 and 2.5 for the two exponents.
        assert by_p[1.0] == pytest.approx(2.0, abs=0.15)
        assert by_p[2.0] == pytest.approx(2.5, abs=0.3)
        assert max(by_p.values()) <= 4.0

    def test_sweep_builds_one_hull_per_point(self, monkeypatch):
        """The v-optimal denominator depends on the vector only, so each
        full-scale sweep point builds one hull for its whole panel."""
        from repro.core import lower_hull

        hulls = []
        real = lower_hull.lower_hull_points

        def spy(xs, ys):
            hulls.append(len(xs))
            return real(xs, ys)

        monkeypatch.setattr(lower_hull, "lower_hull_points", spy)
        params = resolve_spec("E7").merged_params("full")
        points = ratios.sweep_points(params)[::8]
        records = ratios.sweep(params, points, 0)
        assert params["include_baselines"]
        assert any(v2 == 0.0 for _, _, v2 in points)
        assert len(hulls) == len(points)
        # L*, U* and HT (HT off the v2 = 0 boundary) share each hull.
        assert len(records) == sum(2 if v2 == 0.0 else 3 for _, _, v2 in points)

    def test_report_renders(self):
        report = _report("E7")
        assert "E7" in report and "sup_ratio" in report
        assert "about 2 and 2.5" in report


class TestDominance:
    def test_lstar_dominates_ht_everywhere(self):
        rows = dominance.run()
        assert dominance.all_dominated(rows)

    def test_domination_is_strict_somewhere(self):
        rows = dominance.run()
        assert any(
            row.ht_applicable and row.ht_variance > 1.5 * row.lstar_variance
            for row in rows
        )

    def test_report_renders(self):
        report = _report("E8")
        assert "E8" in report and "ht_over_lstar" in report


@pytest.mark.slow
class TestLpDifference:
    def test_customisation_story(self):
        results = lp_difference.run(
            num_items=150, sampling_rates=(0.1,), exponents=(1.0,),
            replications=20, seed=3,
        )
        winners = lp_difference.winners(results)
        assert winners[("ip-flows (dissimilar)", 1.0, 0.1)] == "U*"
        assert winners[("surnames (similar)", 1.0, 0.1)] == "L*"

    def test_report_renders(self):
        report = _report("E9")
        assert "E9" in report and "Lower-RMSE estimator" in report


@pytest.mark.slow
class TestSimilarityExperiment:
    def test_error_shrinks_with_k(self):
        _, metadata = _sweep(similarity, {"ks": [4, 24], "num_pairs": 6,
                                          "seed": 1})
        errors = {int(k): e for k, e in metadata["mean_error_by_k"].items()}
        assert errors[24] < errors[4]
        assert errors[24] < 0.15

    def test_report_renders(self):
        report = _report("E10")
        assert "E10" in report and "mean |error| at k=4" in report


@pytest.mark.slow
class TestAblation:
    def test_winner_flips_with_similarity(self):
        rows = ablation.run(similarities=(0.0, 0.95), num_items=40)
        winners = ablation.winners_by_similarity(rows)
        assert winners[0.0] == "U*"
        assert winners[0.95] == "L*"

    def test_lstar_worst_case_penalty_is_modest(self):
        rows = ablation.run(similarities=(0.0, 0.5, 0.95), num_items=40)
        penalties = ablation.worst_case_penalty(rows)
        assert penalties["L*"] < 6.0
        assert penalties["U*"] > penalties["L*"]

    def test_report_renders(self):
        report = _report("E11")
        assert "E11" in report and "Worst-case penalty" in report
