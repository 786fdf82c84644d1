"""Identity reports: closed forms, pipelines at best balls, negative controls."""

import numpy as np
import pytest

from maxvar.core import AmbientParams, load_profile
from maxvar.families import dilate_profile, random_profile, tent
from maxvar.geometry import AxisBall
from maxvar.identities import (annulus_suite, check_affine_family, check_annulus_average,
                               check_ball_comparison, check_boundary_formula,
                               check_divergence, check_inner_bound, check_key_lemma,
                               check_stationarity, divergence_suite,
                               format_reports, perturbed_ball, reports_to_json,
                               suite_outcome, sweep_identity_suite, verify_suite)
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import GridSpec, maximal_profile, search

from conftest import rel_err


@pytest.fixture(scope="module")
def tent_sweep(params2_mod, tent_mod):
    return maximal_profile(tent_mod, GridSpec.standard(tent_mod, 32), params2_mod)


@pytest.fixture(scope="module")
def params2_mod():
    return AmbientParams(2, 0.5)


@pytest.fixture(scope="module")
def tent_mod():
    return tent()


class TestDivergence:
    def test_tent_closed_form(self, params2_mod, tent_mod):
        rep = check_divergence(tent_mod, AxisBall(0.0, 1.0), params2_mod, Q)
        assert rep.lhs == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert rep.rhs == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert rep.passed

    def test_constant_on_ball_and_sphere(self, params2_mod):
        prof = load_profile([(0, 0.5), (4, 0.5), (4, 0)])
        rep = check_divergence(prof, AxisBall(1.0, 0.8), params2_mod, Q)
        assert abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10
        assert rep.passed

    def test_random_suite(self):
        reports = divergence_suite(seed=5, per_n=25, dims=(1, 2, 3))
        outcome = suite_outcome(reports)
        assert outcome["ok"] and outcome["passed"] == 75


class TestStationarity:
    def test_at_best_ball(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_stationarity(tent_mod, res, params2_mod)
        assert rep.passed and rep.rel_residual <= 1e-3

    def test_degenerate_origin_case(self, params2_mod):
        chi = load_profile([(0, 1), (1, 1), (1, 0)])
        res = search(chi, 0.0, params2_mod)
        rep = check_stationarity(chi, res, params2_mod)
        # x = 0: rhs reduces to -(1/beta) * radial moment; informational
        assert np.isfinite(rep.rel_residual)

    def test_negative_control_fails(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_stationarity(tent_mod, perturbed_ball(res), params2_mod)
        assert not rep.passed
        assert rep.rel_residual > 1e-2


class TestAffineFamily:
    def test_vanishes_at_best_ball(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_affine_family(tent_mod, 0.9, res.ball, params2_mod, Q)
        scale = params2_mod.beta * rep.info["objective"]
        assert abs(rep.lhs) <= 1e-3 * scale
        assert abs(rep.rhs) <= 1e-3 * scale
        assert rep.passed

    def test_derivative_formula_any_ball(self, params2_mod, tent_mod):
        # Prop-style identity holds off the optimum as well
        rep = check_affine_family(tent_mod, 0.9, AxisBall(0.3, 0.75), params2_mod, Q)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-6 * max(abs(rep.lhs), 1e-12)

    def test_constant_piece_gradient_free(self, params2_mod):
        prof = load_profile([(0, 0.8), (4, 0.8), (4, 0)])
        ball = AxisBall(0.5, 0.4)
        rep = check_affine_family(prof, 0.5, ball, params2_mod, Q)
        # Df = 0 on the ball: derivative equals beta * objective exactly
        assert rel_err(rep.rhs, rep.info["derivative_scale"]) <= 1e-12
        assert rel_err(rep.lhs, rep.info["derivative_scale"]) <= 1e-6
        assert rep.info["trend_ok"]

    def test_center_at_origin(self, params2_mod, tent_mod):
        # the moved center (1+h)d - hs is negative for every h > 0: the
        # family is evaluated at its mirror image
        rep = check_affine_family(tent_mod, 0.2, AxisBall(0.0, 0.5), params2_mod, Q)
        assert rep.passed and rep.info["trend_ok"]
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * rep.info["derivative_scale"]

    def test_passing_report_reads_within_tolerance(self, params2_mod, tent_mod):
        # a best ball of `maxvar verify --n 2 --beta 0.5 --suite all --seed 7`
        # on the tent: both sides are about 7e-9 and differ by 1e-3 of
        # themselves, far inside the tolerance on the derivative's scale
        ball = AxisBall(0.09672431997360315, 0.6002740104083646)
        rep = check_affine_family(tent_mod, 0.6969983303819678, ball, params2_mod, Q)
        assert rep.passed
        assert rep.rel_residual <= rep.tolerance
        assert rep.rel_residual == rep.abs_residual / rep.info["derivative_scale"]

    def test_nonoptimal_direction_reported(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_affine_family(tent_mod, 0.9, perturbed_ball(res).ball,
                                  params2_mod, Q)
        # enlarging past the optimum makes the scaling derivative negative
        assert rep.lhs < 0.0
        assert np.isfinite(rep.rhs)


class TestBoundaryFormula:
    def test_at_best_balls(self, params2_mod, tent_mod, tent_sweep):
        count = 0
        for s, res in zip(tent_sweep.grid, tent_sweep.results):
            if res.contact.kind == "interior" or not res.converged:
                continue
            rep = check_boundary_formula(tent_mod, res, params2_mod)
            assert rep.passed, f"s={s}: residual {rep.rel_residual}"
            # corollary: the right side is a vector norm, hence nonnegative
            assert rep.rhs >= -1e-12
            count += 1
        assert count > 5

    def test_negative_control(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_boundary_formula(tent_mod, perturbed_ball(res), params2_mod)
        assert not rep.passed

    def test_interior_not_applicable(self, params2_mod):
        chi = load_profile([(0, 1), (1, 1), (1, 0)])
        res = search(chi, 0.2, params2_mod)
        rep = check_boundary_formula(chi, res, params2_mod)
        assert not rep.applicable
        assert rep.inputs == {"d": res.ball.d, "r": res.ball.r, "s": 0.2}


class TestInnerBound:
    def test_origin_centered_trivial(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.5, params2_mod)
        # boundary contact at d = 0, r = s: lhs = 0 <= rhs
        if res.contact.kind != "interior" and res.ball.d + res.ball.r <= 0.5 * (1 + 1e-6):
            rep = check_inner_bound(tent_mod, res, params2_mod)
            assert rep.passed

    def test_e2_points_hold(self, params2_mod, tent_mod, tent_sweep):
        applicable = 0
        for res in tent_sweep.results:
            rep = check_inner_bound(tent_mod, res, params2_mod)
            if rep.applicable:
                assert rep.passed
                applicable += 1
        assert applicable > 3

    def test_monotone_profile_weight_ordering(self, params2_mod, tent_mod):
        # t/s >= t/s' for s <= s': larger weight, larger bound
        from maxvar.averages import weighted_gradient_average
        ball = AxisBall(0.3, 0.2)
        w1 = weighted_gradient_average(tent_mod, ball, params2_mod, s=0.5)
        w2 = weighted_gradient_average(tent_mod, ball, params2_mod, s=1.0)
        assert w1 >= w2


class TestKeyLemma:
    def test_tent_sweep_is_vacuous_but_counted(self, params2_mod, tent_mod, tent_sweep):
        # the tent's best balls are all large (E2): r <= s/4 never holds
        reports = [check_key_lemma(tent_mod, res, params2_mod) for res in tent_sweep.results]
        assert all(not rep.applicable for rep in reports)

    def test_shell_profile_has_applicable_points(self):
        # outer mass concentration produces small best balls near x
        params = AmbientParams(2, 0.2)
        prof = load_profile([(0, 0), (1.8, 0), (2, 1), (2.2, 0)])
        seen = 0
        for s in (1.5, 1.6, 1.75):
            res = search(prof, s, params)
            rep = check_key_lemma(prof, res, params)
            if rep.applicable:
                assert rep.passed
                if rep.lhs > 1e-8:
                    assert rep.rhs > 0.0
                    assert np.isfinite(rep.info["ratio"])
                seen += 1
        assert seen > 0

    def test_constant_on_doubled_ball_vacuous(self, params2_mod):
        prof = load_profile([(0, 0.6), (8, 0.6), (8, 0)])
        res = search(prof, 4.0, params2_mod)
        fake = res if res.contact.kind != "interior" else None
        if fake is None:
            # manufacture a boundary-contact record on the constant stretch
            from maxvar.search import BestBallResult
            from maxvar.geometry import classify_contact
            ball = AxisBall(4.5, 0.5)
            fake = BestBallResult(s=4.0, value=0.0, ball=ball,
                                  contact=classify_contact(ball, 4.0, 1e-6),
                                  region="E3", objective_evals=0, converged=True)
        rep = check_key_lemma(prof, fake, params2_mod)
        assert rep.applicable and rep.passed
        assert rep.lhs <= 1e-10


class TestBallComparison:
    def test_same_ball_trivial(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        rep = check_ball_comparison(tent_mod, res, res, params2_mod)
        assert rep.applicable and rep.passed
        assert rep.lhs >= 2.0 ** (-params2_mod.n) * rep.lhs

    def test_neighboring_sweep_points(self, params2_mod, tent_mod, tent_sweep):
        pts = [r for r in tent_sweep.results
               if r.contact.kind != "interior" and r.converged]
        applicable = 0
        for a, b in zip(pts[:-1], pts[1:]):
            rep = check_ball_comparison(tent_mod, a, b, params2_mod)
            if rep.applicable:
                assert rep.passed
                applicable += 1
        assert applicable > 3

    def test_synthetic_violation_fails(self, params2_mod, tent_mod):
        res = search(tent_mod, 0.9, params2_mod)
        from dataclasses import replace
        # a ball hanging mostly past the support is no best ball: the
        # comparison inequality must detect the substitution
        fake = replace(res, ball=AxisBall(res.ball.d + 1.3 * res.ball.r,
                                          res.ball.r * 0.65))
        rep = check_ball_comparison(tent_mod, res, fake, params2_mod)
        assert rep.applicable
        assert not rep.passed


class TestAnnulusAverage:
    def test_constant_ratio_one(self, params2_mod):
        prof = load_profile([(0, 0.9), (6, 0.9), (6, 0)])
        rep = check_annulus_average(prof, AxisBall(2.0, 0.8), params2_mod, Q)
        assert rep.applicable
        assert rep.info["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_hypothesis_gate(self, params2_mod, tent_mod):
        rep = check_annulus_average(tent_mod, AxisBall(0.5, 0.4), params2_mod, Q)
        assert not rep.applicable

    def test_dilation_invariance(self, params2_mod, tent_mod):
        rep1 = check_annulus_average(tent_mod, AxisBall(0.6, 0.2), params2_mod, Q)
        rep2 = check_annulus_average(dilate_profile(tent_mod, 2.0),
                                     AxisBall(0.3, 0.1), params2_mod, Q)
        assert rel_err(rep1.info["ratio"], rep2.info["ratio"]) <= 1e-9

    def test_seeded_family_finite(self):
        reports = annulus_suite(seed=3, count=25)
        ratios = [r.info["ratio"] for r in reports if r.applicable]
        assert ratios and np.all(np.isfinite(ratios))


class TestSuitePlumbing:
    def test_sweep_suite_counts(self, params2_mod, tent_mod, tent_sweep):
        reports = sweep_identity_suite(tent_mod, tent_sweep, params2_mod,
                                       checks=("stationarity", "boundary"))
        outcome = suite_outcome(reports)
        assert outcome["ok"]
        assert outcome["controls_ok"] > 0
        assert outcome["controls_bad"] == 0

    def test_not_applicable_reports_carry_their_inputs(self, params2_mod, tent_mod,
                                                       tent_sweep):
        skipped = [rep for rep in sweep_identity_suite(tent_mod, tent_sweep, params2_mod)
                   if not rep.applicable]
        assert skipped
        for rep in skipped:
            keys = {"d1", "r1", "d2", "r2"} if rep.name == "ball_comparison" else {"d", "r", "s"}
            assert set(rep.inputs) == keys, rep.name

    def test_unknown_suite_raises(self, params2_mod, tent_mod):
        with pytest.raises(ValueError, match="unknown suite"):
            verify_suite(tent_mod, params2_mod, "bogus", np.random.default_rng(0), 1)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_raises(self, params2_mod, tent_mod, count):
        with pytest.raises(ValueError, match="count"):
            verify_suite(tent_mod, params2_mod, "divergence", np.random.default_rng(0), count)

    def test_empty_report_list_is_not_ok(self):
        outcome = suite_outcome([])
        assert not outcome["ok"] and outcome["passed"] == 0

    def test_list_with_no_applicable_report_is_not_ok(self, params2_mod, tent_mod):
        skipped = [check_annulus_average(tent_mod, AxisBall(0.5, 0.4), params2_mod, Q)] * 3
        assert not suite_outcome(skipped)["ok"]
        applied = check_annulus_average(tent_mod, AxisBall(0.6, 0.2), params2_mod, Q)
        assert suite_outcome(skipped + [applied])["ok"]

    def test_json_is_strict_json(self, params2_mod, tent_mod, monkeypatch):
        from maxvar import identities
        from maxvar.geometry import classify_contact
        from maxvar.search import BestBallResult
        skipped = check_annulus_average(tent_mod, AxisBall(0.5, 0.4), params2_mod, Q)
        annulus = check_annulus_average(tent_mod, AxisBall(0.6, 0.2), params2_mod, Q)
        # an empty level set leaves the key lemma's right side 0 under a nonzero gradient
        monkeypatch.setattr(identities, "level_intervals", lambda *args: [])
        ball = AxisBall(0.5, 0.1)
        res = BestBallResult(s=0.6, value=0.0, ball=ball, contact=classify_contact(ball, 0.6, 1e-6),
                             region="E2", objective_evals=0, converged=True)
        lemma = check_key_lemma(tent_mod, res, params2_mod)
        assert not skipped.applicable and annulus.applicable and lemma.applicable
        assert lemma.info["ratio"] == np.inf

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        import json
        data = json.loads(reports_to_json([skipped, annulus, lemma]), parse_constant=refuse)
        assert data[0]["lhs"] is None and data[0]["tolerance"] is None
        assert data[1]["abs_residual"] is None and data[1]["lhs"] == annulus.lhs
        assert data[2]["info"]["ratio"] is None and data[2]["lhs"] == lemma.lhs

    def test_formatting_roundtrip(self, params2_mod, tent_mod):
        rep = check_divergence(tent_mod, AxisBall(0.3, 0.5), params2_mod, Q)
        text = format_reports([rep])
        assert "divergence" in text and "pass" in text
        import json
        data = json.loads(reports_to_json([rep]))
        assert data[0]["name"] == "divergence"
