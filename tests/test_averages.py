"""Ball and sphere averages against closed forms, oracles, and identities."""

import numpy as np
import pytest
from scipy.integrate import quad

from maxvar.averages import (LevelSetWeight, RadialWeight, ball_average,
                             batch_objective, fixed_rule_objective,
                             gradient_axial_component,
                             gradient_radial_moment, sphere_average,
                             weighted_gradient_average)
from maxvar.core import AmbientParams, load_profile
from maxvar.families import random_profile, tent
from maxvar.geometry import AxisBall
from maxvar.oracles import oracle_mc_ball_average
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.quadrature import QuadratureConfig, QuadratureError

from conftest import rel_err


def const_profile(c=0.7, T=4.0):
    return load_profile([(0, c), (T, c), (T, 0)])


def dense_polar_gradient_axial(profile, ball, resolution=1500):
    """2D polar oracle for the axial gradient average (n = 2 only)."""
    d, r = ball.d, ball.r
    rho = (np.arange(resolution) + 0.5) * (r / resolution)
    psi = (np.arange(resolution) + 0.5) * (2 * np.pi / resolution)
    cell = (r / resolution) * (2 * np.pi / resolution)
    x = d + rho[:, None] * np.cos(psi)[None, :]
    y = rho[:, None] * np.sin(psi)[None, :]
    dist = np.hypot(x, y)
    vals = profile.slope(dist) * x / np.maximum(dist, 1e-300)
    return float(np.sum(vals * rho[:, None]) * cell / (np.pi * r * r))


class TestBallAverage:
    def test_volume_ratio_chi(self):
        chi = load_profile([(0, 1), (1, 1), (1, 0)])
        for n in (1, 2, 3):
            params = AmbientParams(n, 0.5)
            val = ball_average(chi, AxisBall(0.0, 2.0), params, Q)
            assert val == pytest.approx(2.0 ** (-n), rel=1e-8)

    def test_constant_on_range(self, params2):
        prof = const_profile()
        val = ball_average(prof, AxisBall(1.0, 0.8), params2, Q)
        assert val == pytest.approx(0.7, rel=1e-12)

    def test_tent_origin_closed_form(self, params2, tent_profile):
        val = ball_average(tent_profile, AxisBall(0.0, 1.0), params2, Q)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_against_monte_carlo(self, rng):
        for n in (2, 3):
            params = AmbientParams(n, 0.5)
            prof = random_profile(rng, 7)
            T = prof.support_radius
            ball = AxisBall(0.4 * T, 0.7 * T)
            det = ball_average(prof, ball, params, Q)
            mc, se = oracle_mc_ball_average(prof, ball, params, 1_000_000, seed=42)
            assert abs(det - mc) <= 3.0 * se

    def test_unit_profile_average_is_one(self, rng):
        prof = const_profile(1.0, 10.0)
        for n in (2, 3, 5):
            params = AmbientParams(n, 0.5)
            for _ in range(100):
                d = float(rng.uniform(0.0, 3.0))
                r = float(rng.uniform(0.05, 2.0))
                if d + r > 10.0:
                    continue
                val = ball_average(prof, AxisBall(d, r), params, Q)
                assert rel_err(val, 1.0) <= 1e-10

    def test_nonconvergence_raises_with_estimate(self, params2, tent_profile):
        tiny = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-320, max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc:
            ball_average(tent_profile, AxisBall(0.7, 0.5), params2, tiny)
        assert np.isfinite(exc.value.estimate)
        assert exc.value.error > 0


class TestSphereAverage:
    def test_constant_near_sphere(self, params3):
        prof = const_profile()
        assert sphere_average(prof, AxisBall(1.0, 0.5), params3, Q) == pytest.approx(
            0.7, rel=1e-12)

    def test_origin_centered_exact(self, params2, tent_profile):
        assert sphere_average(tent_profile, AxisBall(0.0, 0.25), params2, Q) == \
            pytest.approx(0.75, rel=1e-12)

    def test_against_circle_monte_carlo(self, params2, tent_profile):
        d, r = 1.0, 0.5
        det = sphere_average(tent_profile, AxisBall(d, r), params2, Q)
        rng2 = np.random.default_rng(7)
        phi = rng2.uniform(0.0, 2 * np.pi, size=1_000_000)
        dist = np.hypot(d + r * np.cos(phi), r * np.sin(phi))
        vals = tent_profile.value(dist)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(det - vals.mean()) <= 3.0 * se

    def test_n1_endpoints(self, params1, tent_profile):
        val = sphere_average(tent_profile, AxisBall(0.4, 0.7), params1, Q)
        expected = 0.5 * (tent_profile.value(0.3) + tent_profile.value(1.1))
        assert val == pytest.approx(float(expected), abs=1e-15)


class TestGradientAxial:
    def test_origin_symmetric_zero(self, params2, tent_profile):
        assert gradient_axial_component(tent_profile, AxisBall(0.0, 0.6), params2, Q) == 0.0

    def test_constant_zero(self, params2):
        prof = const_profile()
        val = gradient_axial_component(prof, AxisBall(1.0, 0.5), params2, Q)
        assert abs(val) <= 1e-12

    def test_against_dense_polar(self, params2, tent_profile):
        ball = AxisBall(1.0, 0.5)
        det = gradient_axial_component(tent_profile, ball, params2, Q)
        oracle = dense_polar_gradient_axial(tent_profile, ball)
        assert rel_err(det, oracle) <= 1e-5

    def test_n1_endpoint_difference(self, params1, tent_profile):
        # even extension: the average of f' is the endpoint difference
        for d, r in ((0.6, 0.3), (0.2, 0.5), (0.0, 0.4)):
            val = gradient_axial_component(tent_profile, AxisBall(d, r), params1, Q)
            expected = (tent_profile.value(d + r) - tent_profile.value(abs(d - r))) \
                / (2.0 * r)
            assert val == pytest.approx(float(expected), abs=1e-15)


class TestGradientRadialMoment:
    def test_constant_zero(self, params3):
        prof = const_profile()
        assert abs(gradient_radial_moment(prof, AxisBall(1.0, 0.5), params3, Q)) <= 1e-12

    def test_tent_closed_form(self, params2, tent_profile):
        val = gradient_radial_moment(tent_profile, AxisBall(0.0, 1.0), params2, Q)
        assert val == pytest.approx(-2.0 / 3.0, rel=1e-10)

    def test_against_monte_carlo(self, params2, tent_profile):
        d, r = 0.8, 0.5
        det = gradient_radial_moment(tent_profile, AxisBall(d, r), params2, Q)
        rng2 = np.random.default_rng(21)
        m = 1_000_000
        dirs = rng2.normal(size=(m, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        y = dirs * (r * np.sqrt(rng2.random(m)))[:, None]
        y[:, 0] += d
        dist = np.linalg.norm(y, axis=1)
        vals = tent_profile.slope(dist) * dist
        se = vals.std() / np.sqrt(m)
        assert abs(det - vals.mean()) <= 3.0 * se


class TestWeightedGradient:
    def test_weight_one_matches_monotone_piece(self, params2, tent_profile):
        # |F'| = 1 on the tent support
        ball = AxisBall(0.4, 0.3)
        val = weighted_gradient_average(tent_profile, ball, params2, Q)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_empty_level_set(self, params2, tent_profile):
        val = weighted_gradient_average(tent_profile, AxisBall(0.4, 0.3), params2, Q,
                                        weight=LevelSetWeight(()))
        assert val == 0.0

    def test_level_set_against_monte_carlo(self, params2, tent_profile):
        ball = AxisBall(0.5, 0.25)
        piece = ((0.3, 0.6),)
        det = weighted_gradient_average(tent_profile, ball, params2, Q,
                                        weight=LevelSetWeight(piece))
        rng2 = np.random.default_rng(31)
        m = 1_000_000
        dirs = rng2.normal(size=(m, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        y = dirs * (ball.r * np.sqrt(rng2.random(m)))[:, None]
        y[:, 0] += ball.d
        dist = np.linalg.norm(y, axis=1)
        vals = np.abs(tent_profile.slope(dist)) * ((dist >= 0.3) & (dist <= 0.6))
        se = vals.std() / np.sqrt(m)
        assert abs(det - vals.mean()) <= 3.0 * se + 1e-12

    def test_radial_weight_scaling(self, params2, tent_profile):
        ball = AxisBall(0.5, 0.25)
        v1 = weighted_gradient_average(tent_profile, ball, params2, Q,
                                       weight=RadialWeight(1.0))
        v2 = weighted_gradient_average(tent_profile, ball, params2, Q,
                                       weight=RadialWeight(2.0))
        assert v1 == pytest.approx(2.0 * v2, rel=1e-12)


class TestDivergenceIdentityKeystone:
    def test_random_triples(self, rng):
        worst = 0.0
        for n in (1, 2, 3):
            params = AmbientParams(n, 0.5)
            for _ in range(34):
                prof = random_profile(rng, int(rng.integers(4, 9)))
                T = prof.support_radius
                d = float(rng.uniform(0.0, 1.2 * T))
                r = float(rng.uniform(0.1 * T, 1.4 * T))
                if min(d + r, T) <= max(0.0, d - r) + 1e-3 * T:
                    continue
                ball = AxisBall(d, r)
                gax = gradient_axial_component(prof, ball, params, Q)
                grad = gradient_radial_moment(prof, ball, params, Q)
                lhs = d * gax - grad
                rhs = n * (ball_average(prof, ball, params, Q)
                           - sphere_average(prof, ball, params, Q))
                worst = max(worst, rel_err(lhs, rhs, prof.max_value))
        assert worst <= 1e-6


class TestExactOneDimensional:
    def test_against_scipy_quadrature(self, params1, rng):
        for _ in range(8):
            prof = random_profile(rng, int(rng.integers(4, 9)))
            T = prof.support_radius
            d = float(rng.uniform(0.0, T))
            r = float(rng.uniform(0.1 * T, 1.5 * T))
            ball = AxisBall(d, r)
            pts = sorted({float(t) for t in prof.knots_t} | {0.0})
            val = ball_average(prof, ball, params1, Q)
            oracle = quad(lambda u: float(prof.value(abs(u))), d - r, d + r,
                          points=[p for p in pts + [-p for p in pts]
                                  if d - r < p < d + r],
                          limit=300)[0] / (2 * r)
            assert rel_err(val, oracle, 1e-12) <= 1e-12

            vma = gradient_radial_moment(prof, ball, params1, Q)
            o2 = quad(lambda u: float(prof.slope(abs(u))) * abs(u), d - r, d + r,
                      points=[p for p in pts + [-p for p in pts]
                              if d - r < p < d + r],
                      limit=300)[0] / (2 * r)
            assert abs(vma - o2) <= 1e-12 * max(1.0, abs(o2))


class TestBatchObjective:
    def test_matches_accurate_within_ranking_tolerance(self, params2):
        rng2 = np.random.default_rng(12345)
        prof = random_profile(rng2, 7)
        T = prof.support_radius
        ds = rng2.uniform(0.0, 1.2 * T, size=60)
        rs = rng2.uniform(0.05 * T, 1.5 * T, size=60)
        fast = batch_objective(prof, ds, rs, params2)
        scale = prof.max_value * (1.5 * T) ** params2.beta
        for i in range(60):
            acc = rs[i] ** params2.beta * ball_average(
                prof, AxisBall(ds[i], rs[i]), params2, Q)
            # ranking evaluator: percent-level accuracy, absolute floor for
            # balls that barely graze the support
            assert abs(fast[i] - acc) <= 1e-2 * max(acc, 1e-3 * scale)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_many_knots_within_documented_error(self, n):
        # the docstring's figure: 7e-3 relative on 40-knot random profiles
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng(2024 + n)
        for _ in range(5):
            prof = random_profile(rng2, 40)
            T = prof.support_radius
            ds = rng2.uniform(0.0, 1.2 * T, size=20)
            rs = rng2.uniform(0.05 * T, 1.5 * T, size=20)
            fast = batch_objective(prof, ds, rs, params)
            scale = prof.max_value * (1.5 * T) ** params.beta
            for i in range(20):
                acc = rs[i] ** params.beta * ball_average(
                    prof, AxisBall(ds[i], rs[i]), params, Q)
                assert abs(fast[i] - acc) <= 8e-3 * max(acc, 1e-3 * scale)


class TestFixedRuleObjective:
    REFERENCE = QuadratureConfig(rel_tol=1e-12, max_subdivisions=20000)
    # the docstring's figures
    BOUND = {2: 2e-8, 3: 2e-8, 5: 1e-7}

    @staticmethod
    def balls(rng2, prof, count):
        """Random balls meeting the support, r / T from 1e-4 to 2, and as
        many balls with a knot within 1e-4 T of |d - r|."""
        T = prof.support_radius
        rs = T * 10.0 ** rng2.uniform(-4.0, np.log10(2.0), size=2 * count)
        ds = rng2.uniform(0.0, 1.0, size=count) * (T + rs[:count])
        knots = prof.knots_t[rng2.integers(1, len(prof.knots_t) - 1, size=count)]
        inner = knots + rng2.uniform(-1e-4, 1e-4, size=count) * T
        near = rs[count:]
        # |d - r| = inner, with d > r, or with d < r where r > inner
        outside = rng2.random(count) < 0.5
        ds_near = np.where(outside | (near <= inner), inner + near, near - inner)
        return np.concatenate((ds, ds_near)), rs

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("knots", [6, 20, 40])
    def test_documented_accuracy(self, n, knots):
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng([n, knots])
        for _ in range(2):
            prof = random_profile(rng2, knots)
            ds, rs = self.balls(rng2, prof, 20)
            fixed = fixed_rule_objective(prof, ds, rs, params)
            for d, r, val in zip(ds, rs, fixed):
                ref = r ** params.beta * ball_average(prof, AxisBall(d, r), params,
                                                      self.REFERENCE)
                # balls that only graze the support carry no relative accuracy
                if ref > 1e-10 * r ** params.beta * prof.max_value:
                    assert rel_err(val, ref) <= self.BOUND[n], (d, r)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_batch_does_not_change_a_value(self, n):
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng(77 + n)
        prof = random_profile(rng2, 40)
        ds, rs = self.balls(rng2, prof, 16)
        together = fixed_rule_objective(prof, ds, rs, params)
        for i in range(len(ds)):
            alone = fixed_rule_objective(prof, ds[i:i + 1], rs[i:i + 1], params)[0]
            assert abs(alone - together[i]) <= 1e-13 * abs(alone)

    def test_n1_is_exact(self, params1):
        prof = random_profile(np.random.default_rng(5), 8)
        ds, rs = np.array([0.0, 0.3, 0.9]), np.array([0.2, 0.5, 1.4])
        fixed = fixed_rule_objective(prof, ds, rs, params1)
        for d, r, val in zip(ds, rs, fixed):
            exact = r ** params1.beta * ball_average(prof, AxisBall(d, r), params1, Q)
            assert val == exact

    def test_ball_missing_support_is_zero(self, params2):
        prof = tent()
        vals = fixed_rule_objective(prof, np.array([3.0, 0.0]), np.array([1.5, 2.0]), params2)
        assert vals[0] == 0.0
        assert vals[1] > 0.0
