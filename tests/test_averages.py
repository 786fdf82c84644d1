"""Ball and sphere averages against closed forms, oracles, and identities."""

import sys

import numpy as np
import pytest
from scipy.integrate import quad

from maxvar.averages import (ball_average, batch_objective, fixed_rule_objective,
                             gradient_axial_averages, gradient_axial_component,
                             gradient_radial_moment, sphere_average,
                             weighted_gradient_average)
import maxvar
from maxvar.averages import _ball_averages
from maxvar.core import AmbientParams, l1_norm, load_profile
from maxvar.families import random_profile, tent, two_bump
from maxvar.geometry import AxisBall, cap_area, cap_first_moment
from maxvar.identities import check_affine_family, check_annulus_average, check_divergence
from maxvar.oracles import oracle_mc_ball_average
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import search

from conftest import quad_averages, rel_err


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


class TestSphereAverage:
    def test_constant_near_sphere(self, params3):
        prof = const_profile()
        assert sphere_average(prof, AxisBall(1.0, 0.5), params3) == pytest.approx(
            0.7, rel=1e-12)

    def test_origin_centered_exact(self, params2, tent_profile):
        assert sphere_average(tent_profile, AxisBall(0.0, 0.25), params2) == \
            pytest.approx(0.75, rel=1e-12)

    def test_against_circle_monte_carlo(self, params2, tent_profile):
        d, r = 1.0, 0.5
        det = sphere_average(tent_profile, AxisBall(d, r), params2)
        rng2 = np.random.default_rng(7)
        phi = rng2.uniform(0.0, 2 * np.pi, size=1_000_000)
        dist = np.hypot(d + r * np.cos(phi), r * np.sin(phi))
        vals = tent_profile.value(dist)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(det - vals.mean()) <= 3.0 * se

    def test_n1_endpoints(self, params1, tent_profile):
        val = sphere_average(tent_profile, AxisBall(0.4, 0.7), params1)
        expected = 0.5 * (tent_profile.value(0.3) + tent_profile.value(1.1))
        assert val == pytest.approx(float(expected), abs=1e-15)


class TestGradientAxial:
    def test_origin_symmetric_zero(self, params2, tent_profile):
        assert gradient_axial_component(tent_profile, AxisBall(0.0, 0.6), params2) == 0.0

    def test_constant_zero(self, params2):
        prof = const_profile()
        val = gradient_axial_component(prof, AxisBall(1.0, 0.5), params2)
        assert abs(val) <= 1e-12

    def test_against_dense_polar(self, params2, tent_profile):
        ball = AxisBall(1.0, 0.5)
        det = gradient_axial_component(tent_profile, ball, params2)
        oracle = dense_polar_gradient_axial(tent_profile, ball)
        assert rel_err(det, oracle) <= 1e-5

    def test_n1_endpoint_difference(self, params1, tent_profile):
        # even extension: the average of f' is the endpoint difference
        for d, r in ((0.6, 0.3), (0.2, 0.5), (0.0, 0.4)):
            val = gradient_axial_component(tent_profile, AxisBall(d, r), params1)
            expected = (tent_profile.value(d + r) - tent_profile.value(abs(d - r))) \
                / (2.0 * r)
            assert val == pytest.approx(float(expected), abs=1e-15)


    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_batch_is_each_one_ball_call_bit_for_bit(self, n):
        # one batch holds centered balls, balls past the support, balls
        # tangent to within 1e-9 and with an edge within 1e-9 T of a knot
        params = AmbientParams(n, 0.5)
        rng = np.random.default_rng(400 + n)
        prof = random_profile(rng, 12)
        T = prof.support_radius
        r = T * 10.0 ** rng.uniform(-3.0, 0.3, size=120)
        d = rng.uniform(0.0, 1.5 * T, size=120)
        d[:10] = 0.0
        d[10:20] = T + r[10:20] * rng.uniform(1.0, 2.0, size=10)
        d[20:40] = r[20:40] * (1.0 + rng.choice([-1e-9, 1e-9], size=20))
        knots = rng.choice(prof.knots_t[1:-1], size=20)
        d[40:60] = knots + r[40:60] + rng.uniform(-1e-9, 1e-9, size=20) * T
        batch = gradient_axial_averages(prof, d, r, params)
        lone = np.array([gradient_axial_component(prof, AxisBall(di, ri), params)
                         for di, ri in zip(d.tolist(), r.tolist())])
        assert np.array_equal(batch.view(np.int64), lone.view(np.int64))
        assert np.all(batch[:20] == 0.0) and np.count_nonzero(batch[20:]) > 80


class TestOneBallAverageBody:
    """Every ball average is a batch of _ball_averages: one batch gives each
    ball's one-ball value bit for bit, whatever else the batch holds."""

    S = 0.7  # the radius of the weight t / s

    @staticmethod
    def kernels(prof, params, s):
        """Each one-ball entry point with its integrand, as the module writes it."""
        slope = lambda t: np.abs(prof.slope(t))
        return {
            "value": (lambda t, d, r: prof.value(t) * cap_area(t, d, r, params),
                      lambda ball: ball_average(prof, ball, params)),
            "axial": (lambda t, d, r: prof.slope(t) * cap_first_moment(t, d, r, params),
                      lambda ball: gradient_axial_component(prof, ball, params)),
            "radial": (lambda t, d, r: prof.slope(t) * t * cap_area(t, d, r, params),
                       lambda ball: gradient_radial_moment(prof, ball, params)),
            "abs": (lambda t, d, r: slope(t) * cap_area(t, d, r, params),
                    lambda ball: weighted_gradient_average(prof, ball, params)),
            "abs_t_over_s": (lambda t, d, r: slope(t) * (t / s) * cap_area(t, d, r, params),
                             lambda ball: weighted_gradient_average(prof, ball, params, s=s)),
        }

    @staticmethod
    def balls(prof, seed):
        # centered balls, balls past the support, near-tangent balls and others
        rng = np.random.default_rng(seed)
        T = prof.support_radius
        r = T * 10.0 ** rng.uniform(-3.0, 0.3, size=40)
        d = rng.uniform(0.0, 1.5 * T, size=40)
        d[:8] = 0.0
        d[8:16] = T + r[8:16] * rng.uniform(1.0, 2.0, size=8)
        d[16:28] = r[16:28] * (1.0 + rng.choice([-1e-9, 1e-9], size=12))
        return d, r

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batch_is_each_one_ball_value_bit_for_bit(self, n):
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(600 + n), 9)
        d, r = self.balls(prof, 700 + n)
        for name, (fun, one) in self.kernels(prof, params, self.S).items():
            batch = 0.0 + _ball_averages(prof, d, r, params, fun)
            lone = np.array([one(AxisBall(di, ri)) for di, ri in zip(d.tolist(), r.tolist())])
            assert np.array_equal(batch.view(np.int64), lone.view(np.int64)), name
            assert np.count_nonzero(batch[16:]) >= 12, name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_interval_over_everything_is_the_whole_ball(self, n):
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(800 + n), 7)
        d, r = self.balls(prof, 900 + n)
        for ball in map(AxisBall, d.tolist(), r.tolist()):
            for s in (None, self.S):
                whole = weighted_gradient_average(prof, ball, params, s=s)
                every = weighted_gradient_average(prof, ball, params, s=s,
                                                  intervals=((0.0, np.inf),))
                assert np.float64(every).view(np.int64) == np.float64(whole).view(np.int64)


class TestGradientRadialMoment:
    def test_constant_zero(self, params3):
        prof = const_profile()
        assert abs(gradient_radial_moment(prof, AxisBall(1.0, 0.5), params3)) <= 1e-12

    def test_tent_closed_form(self, params2, tent_profile):
        val = gradient_radial_moment(tent_profile, AxisBall(0.0, 1.0), params2)
        assert val == pytest.approx(-2.0 / 3.0, rel=1e-10)

    def test_against_monte_carlo(self, params2, tent_profile):
        d, r = 0.8, 0.5
        det = gradient_radial_moment(tent_profile, AxisBall(d, r), params2)
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
        val = weighted_gradient_average(tent_profile, ball, params2)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_empty_level_set(self, params2, tent_profile):
        val = weighted_gradient_average(tent_profile, AxisBall(0.4, 0.3), params2, intervals=())
        assert val == 0.0

    def test_level_set_against_monte_carlo(self, params2, tent_profile):
        ball = AxisBall(0.5, 0.25)
        piece = ((0.3, 0.6),)
        det = weighted_gradient_average(tent_profile, ball, params2, intervals=piece)
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
        v1 = weighted_gradient_average(tent_profile, ball, params2, s=1.0)
        v2 = weighted_gradient_average(tent_profile, ball, params2, s=2.0)
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
                gax = gradient_axial_component(prof, ball, params)
                grad = gradient_radial_moment(prof, ball, params)
                lhs = d * gax - grad
                rhs = n * (ball_average(prof, ball, params, Q)
                           - sphere_average(prof, ball, params))
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

            vma = gradient_radial_moment(prof, ball, params1)
            o2 = quad(lambda u: float(prof.slope(abs(u))) * abs(u), d - r, d + r,
                      points=[p for p in pts + [-p for p in pts]
                              if d - r < p < d + r],
                      limit=300)[0] / (2 * r)
            assert abs(vma - o2) <= 1e-12 * max(1.0, abs(o2))


def quad_objective(profile, d, r, params):
    return r ** params.beta * quad_averages(profile, d, r, params.n, 1.0, ("ball",))["ball"]


def near_tangent_balls():
    """A 20-knot profile and 40 balls with |d - r| / r from 1e-4 to 1e-1."""
    rng2 = np.random.default_rng(808)
    prof = random_profile(rng2, 20)
    rs = prof.support_radius * 10.0 ** rng2.uniform(-3.0, 0.0, size=40)
    sign = rng2.choice((-1.0, 1.0), size=40)
    return prof, rs * (1.0 + sign * 10.0 ** rng2.uniform(-4.0, -1.0, size=40)), rs


class TestBatchObjective:
    """batch_objective, the name that perfbench reads, is the fixed rule:
    on big random balls it holds the fixed rule's bound."""

    BOUND = 1e-12

    def test_matches_accurate_within_ranking_tolerance(self, params2):
        # the search ranks its coarse grid by the fixed rule, to its bound
        rng2 = np.random.default_rng(12345)
        prof = random_profile(rng2, 7)
        T = prof.support_radius
        ds = rng2.uniform(0.0, 1.2 * T, size=60)
        rs = rng2.uniform(0.05 * T, 1.5 * T, size=60)
        fast = batch_objective(prof, ds, rs, params2)
        scale = prof.max_value * (1.5 * T) ** params2.beta
        for i in range(60):
            acc = quad_objective(prof, ds[i], rs[i], params2)
            # absolute floor for balls that barely graze the support
            assert abs(fast[i] - acc) <= self.BOUND * max(acc, 1e-3 * scale)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_many_knots_within_documented_error(self, n):
        # at odd n the rule is exact
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
                acc = quad_objective(prof, ds[i], rs[i], params)
                assert abs(fast[i] - acc) <= self.BOUND * max(acc, 1e-3 * scale)


class TestFixedRuleObjective:
    # the docstring's figure; the quad oracle agrees to 2.7e-13 (n = 2),
    # 6.9e-13 (n = 3) and 4.7e-13 (n = 5) on these balls, and to 1.2e-15 on
    # the near-tangent ones
    BOUND = 1e-12

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
                ref = quad_objective(prof, d, r, params)
                # balls that only graze the support carry no relative accuracy
                if ref > 1e-10 * r ** params.beta * prof.max_value:
                    assert rel_err(val, ref) <= self.BOUND, (d, r)

    def test_near_tangent_balls(self, params2):
        # d close to r puts a narrow feature into phi, which the graded
        # panels resolve: the docstring's figure
        prof, ds, rs = near_tangent_balls()
        fixed = fixed_rule_objective(prof, ds, rs, params2)
        for d, r, val in zip(ds, rs, fixed):
            assert rel_err(val, quad_objective(prof, d, r, params2)) <= self.BOUND, (d, r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_batch_does_not_change_a_value(self, n):
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng(77 + n)
        prof = random_profile(rng2, 40)
        ds, rs = self.balls(rng2, prof, 16)
        together = fixed_rule_objective(prof, ds, rs, params)
        for i in range(len(ds)):
            assert fixed_rule_objective(prof, ds[i:i + 1], rs[i:i + 1], params)[0] == together[i]

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


def five_averages(profile, ball, params, s):
    return {"ball": ball_average(profile, ball, params, Q),
            "sphere": sphere_average(profile, ball, params),
            "axial": gradient_axial_component(profile, ball, params),
            "radial": gradient_radial_moment(profile, ball, params),
            "weighted": weighted_gradient_average(profile, ball, params, s=s)}


class TestExactRuleOracle:
    """At odd n one Gauss rule per panel is exact; at even n so are the
    full-sphere panels, and the caps take graded panels in phi.  scipy's
    quad on integrands built in the tests (conftest.quad_averages) shares
    none of their code."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_five_averages_against_quad(self, n):
        tol = 1e-12
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng(300 + n)
        checked = 0
        while checked < 12:
            prof = random_profile(rng2, 12)
            T = prof.support_radius
            d = float(rng2.uniform(0.0, 1.2 * T))
            r = float(T * 10.0 ** rng2.uniform(-3.0, np.log10(1.5)))
            if min(d + r, T) <= max(0.0, d - r) + 1e-3 * r:
                continue
            s = max(d, 0.1 * T)
            got = five_averages(prof, AxisBall(d, r), params, s)
            ref = quad_averages(prof, d, r, n, s, tuple(got))
            slope_scale = float(np.max(np.abs(prof.slopes))) * max(1.0, (d + r) / s)
            for key, val in ref.items():
                scale = prof.max_value if key in ("ball", "sphere") else slope_scale
                assert abs(got[key] - val) <= tol * max(abs(val), 1e-6 * scale), (key, d, r)
            checked += 1

    def test_level_set_against_quad(self):
        # the level-set rows of one ball: the weight-one average over the
        # whole range, split into pieces at arbitrary radii
        rng2 = np.random.default_rng(404)
        for n in (1, 3, 5):
            params = AmbientParams(n, 0.5)
            prof = random_profile(rng2, 12)
            T = prof.support_radius
            ball = AxisBall(0.45 * T, 0.6 * T)
            cuts = np.sort(rng2.uniform(0.0, T, size=5))
            pieces = tuple(zip(np.concatenate(([0.0], cuts)), np.concatenate((cuts, [T]))))
            whole = weighted_gradient_average(prof, ball, params)
            split = weighted_gradient_average(prof, ball, params, intervals=pieces)
            assert rel_err(split, whole) <= 1e-13
            radial = weighted_gradient_average(prof, ball, params, s=1.0)
            oracle = quad_averages(prof, ball.d, ball.r, n, 1.0)["weighted"]
            assert rel_err(radial, oracle) <= 1e-12


class TestGradedCapsAgainstQuad:
    """Even n: on the balls hardest for the caps the graded panels hold the
    ball and sphere averages of near-tangent balls to 1e-12 of max F, their
    axial gradient to 1e-12 of the average of |Df| and their radial moment
    to 1e-12 of the average of |Df| |y|.  A support sliver's averages are a
    tiny share of those scales and move by up to 3e-10 of their size when d
    moves by one ulp, so there each is held to 1e-9 of its own size: the
    relative error of the ball and sphere averages, the gradients' errors
    relative to the averages of |Df| and |Df| |y| over the sliver."""

    TOL = 1e-12
    SLIVER_TOL = 1e-9

    @staticmethod
    def balls(rng2, T, count):
        """Near-tangent balls, |d - r| / r from 1e-10 to 1e-2, then support
        slivers, d - r = T (1 - delta) with delta from 1e-6 to 1e-2, each
        with a flag that marks the slivers."""
        rs = T * 10.0 ** rng2.uniform(-3.0, 0.2, size=count)
        sign = rng2.choice((-1.0, 1.0), size=count)
        tangent = rs * (1.0 + sign * 10.0 ** rng2.uniform(-10.0, -2.0, size=count))
        slivers = T * 10.0 ** rng2.uniform(-3.0, 0.5, size=count)
        ds = T * (1.0 - 10.0 ** rng2.uniform(-6.0, -2.0, size=count)) + slivers
        return zip(np.concatenate((tangent, ds)), np.concatenate((rs, slivers)),
                   np.arange(2 * count) >= count)

    @pytest.mark.parametrize("n", [2, 4])
    def test_within_tolerance(self, n):
        # worst measured near tangency, of the scales: 2.7e-15 (ball), 9.9e-15
        # (sphere), 2.6e-15 (axial) and 4.8e-15 (radial); on the slivers,
        # relative: 6.2e-11 (ball), 2.4e-11 (sphere, axial and radial)
        params = AmbientParams(n, 0.5)
        rng2 = np.random.default_rng(900 + n)
        for prof in (tent(), two_bump(), random_profile(rng2, 6), random_profile(rng2, 20)):
            for d, r, sliver in self.balls(rng2, prof.support_radius, 8):
                ball = AxisBall(d, r)
                ref = quad_averages(prof, d, r, n, 1.0)
                got = {"ball": ball_average(prof, ball, params),
                       "sphere": sphere_average(prof, ball, params),
                       "axial": gradient_axial_component(prof, ball, params),
                       "radial": gradient_radial_moment(prof, ball, params)}
                tol = self.SLIVER_TOL if sliver else self.TOL
                scales = {"ball": abs(ref["ball"]) if sliver else prof.max_value,
                          "sphere": abs(ref["sphere"]) if sliver else prof.max_value,
                          "axial": ref["abs_slope"], "radial": ref["weighted"]}
                for key, val in got.items():
                    assert abs(val - ref[key]) <= tol * scales[key], (key, d, r)

    def test_level_set_row_inside_the_feature(self, params2):
        # a level-set row that starts just above |d - r| is graded like one
        # that starts at it: ungraded, the pieces missed the whole by 4.3e-10
        prof = random_profile(np.random.default_rng(5), 8)
        T = prof.support_radius
        r = 0.2 * T
        ball = AxisBall(r * (1.0 + 1e-4), r)
        cut = ball.d - r + 1e-6 * (2.0 * r)
        whole = weighted_gradient_average(prof, ball, params2)
        pieces = [weighted_gradient_average(prof, ball, params2, intervals=(iv,))
                  for iv in ((0.0, cut), (cut, T))]
        assert abs(sum(pieces) - whole) <= self.TOL * whole

    def test_panel_past_a_knot_in_the_feature(self):
        # the cap's third panel starts inside the feature but at 0.21 of its
        # own end: no grading point fits below it, and it must stay whole
        prof = load_profile([(0.0, 0.8592564333173297), (0.23284984322742514, 0.4207999555212132),
                             (0.287250216854378, 0.3889438393860897),
                             (1.6770278532207556, 0.10465571516497663), (2.0, 0.0)])
        params = AmbientParams(2, 0.8)
        d, r = 0.9991433663347625, 0.8262741353706055
        ref = quad_averages(prof, d, r, 2, 1.0, ("ball", "sphere"))
        for average, key in ((ball_average, "ball"), (sphere_average, "sphere")):
            got = average(prof, AxisBall(d, r), params)
            assert abs(got - ref[key]) <= self.TOL * prof.max_value

    def test_sphere_reaches_the_top(self, params2):
        # d + r must map to pi / 2 exactly: a top left to round below it
        # loses a sliver of the sphere 1e-8 wide in phi, 9.9e-9 here
        prof = random_profile(np.random.default_rng(7), 6)
        r = 0.05 * prof.support_radius
        d = r * (1.0 - 1e-9)
        ref = quad_averages(prof, d, r, 2, 1.0, ("sphere",))["sphere"]
        got = sphere_average(prof, AxisBall(d, r), params2)
        assert abs(got - ref) <= self.TOL * prof.max_value


class TestSmallBalls:
    """Small off-axis balls (the tent is 1 - t, so the average is about 0.3
    at d = 0.7), once wrong from n = 6 on."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_against_monte_carlo(self, n, tent_profile):
        params = AmbientParams(n, 0.5)
        for r in (1e-4, 1e-3, 1e-2, 1e-1):
            ball = AxisBall(0.7, r)
            det = ball_average(tent_profile, ball, params, Q)
            mc, se = oracle_mc_ball_average(tent_profile, ball, params, 200_000, seed=n)
            assert abs(det - mc) <= 3.0 * se, r

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_against_quad(self, n, tent_profile):
        # 7e-13 measured: the kernels see t - d rounded against r = 1e-4
        params = AmbientParams(n, 0.5)
        for r in (1e-4, 1e-3, 1e-2, 1e-1):
            det = ball_average(tent_profile, AxisBall(0.7, r), params, Q)
            oracle = quad_averages(tent_profile, 0.7, r, n, 1.0, ("ball",))["ball"]
            assert rel_err(det, oracle) <= 1e-11, r

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_search_within_a_priori_bounds(self, n, tent_profile):
        params = AmbientParams(n, 0.5)
        s = 0.7
        T = tent_profile.support_radius
        res = search(tent_profile, s, params)
        cover = (s + T) ** (params.beta - n) * l1_norm(tent_profile, params) / params.omega_n
        assert cover * (1.0 - 1e-9) <= res.value <= tent_profile.max_value * (s + T) ** params.beta


class TestOddNeverAdaptive:
    """Once odd n only, now every n: no library call reaches the adaptive
    integrator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_adaptive_call(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature")

        original = maxvar.quadrature.integrate_adaptive
        bindings = [mod for name, mod in list(sys.modules.items())
                    if (name == "maxvar" or name.startswith("maxvar."))
                    and getattr(mod, "integrate_adaptive", None) is original]
        assert bindings
        for mod in bindings:
            monkeypatch.setattr(mod, "integrate_adaptive", refuse)
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(50 + n), 8)
        T = prof.support_radius
        res = search(prof, 0.6 * T, params)
        ball = AxisBall(0.5 * T, 0.4 * T)
        assert sphere_average(prof, AxisBall(0.5 * T, 0.5 * T * (1.0 + 1e-9)), params) > 0.0
        assert check_divergence(prof, ball, params, Q).passed
        assert check_affine_family(prof, 0.6 * T, res.ball, params, Q).passed
        assert check_annulus_average(prof, AxisBall(0.8 * T, 0.2 * T), params, Q).passed
