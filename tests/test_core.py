"""Profile loading, closed-form norms, and level sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxvar.core import (AmbientParams, ProfileError, gradient_l1_norm, l1_norm,
                         level_intervals, load_profile)

from conftest import rel_err


class TestAmbientParams:
    def test_derived_constants(self):
        p = AmbientParams(3, 1.5)
        assert p.q == pytest.approx(3.0 / 1.5)
        assert p.omega_n == pytest.approx(4.0 * np.pi / 3.0)
        assert p.sigma_n == pytest.approx(4.0 * np.pi)
        assert abs(p.q * p.beta - p.n * (p.q - 1.0)) <= 1e-12

    def test_exponent_identity_many(self):
        for n in (1, 2, 3, 5, 10):
            for beta in (0.1, 0.5, 0.9 * n):
                p = AmbientParams(n, beta)
                assert abs(p.q * p.beta - n * (p.q - 1.0)) <= 1e-12 * n

    def test_sigma_lower(self):
        assert AmbientParams(2, 0.5).sigma_lower == pytest.approx(2.0)
        assert AmbientParams(3, 0.5).sigma_lower == pytest.approx(2.0 * np.pi)
        with pytest.raises(ValueError):
            AmbientParams(1, 0.5).sigma_lower
        # the cached value (nan at n = 1) takes no part in equality
        assert AmbientParams(1, 0.5) == AmbientParams(1, 0.5)

    @pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 2.0), (2, -0.5), (0, 0.5)])
    def test_invalid_params(self, n, beta):
        with pytest.raises(ValueError):
            AmbientParams(n, beta)


class TestLoadProfile:
    def test_tent_identity_load(self):
        p = load_profile([(0, 1), (1, 0)])
        assert p.support_radius == 1.0
        assert p.value(0.5) == pytest.approx(0.5)
        assert p.value(2.0) == 0.0

    def test_negated_tent_absolutized(self):
        p = load_profile([(0, -1), (1, 0)])
        q = load_profile([(0, 1), (1, 0)])
        assert np.array_equal(p.knots_t, q.knots_t)
        assert np.array_equal(p.knots_v, q.knots_v)

    def test_sign_change_inserts_zero_crossing(self):
        knots = [(0, 0), (0.5, -0.5), (1, 1), (2, 0)]
        p = load_profile(knots)
        # crossing of the -0.5 -> 1 piece
        t_star = 0.5 + 0.5 * (0.5 / 1.5)
        assert np.any(np.isclose(p.knots_t, t_star))
        ts = np.linspace(0, 2, 4001)
        expected = np.abs(np.interp(ts, [k[0] for k in knots], [k[1] for k in knots]))
        assert np.max(np.abs(p.value(ts) - expected)) <= 1e-12

    def test_jump_becomes_steep_ramp(self):
        p = load_profile([(0, 1), (1, 1), (1, 0)])
        assert p.value(0.9999) == pytest.approx(1.0, abs=1e-6)
        assert p.value(1.0 + 1e-6) == 0.0
        assert p.support_radius == pytest.approx(1.0, rel=1e-8)

    def test_trailing_nonzero_closed(self):
        p = load_profile([(0, 1), (1, 1)])
        assert p.knots_v[-1] == 0.0
        assert p.support_radius == pytest.approx(1.0, rel=1e-8)

    def test_first_knot_extended_to_zero(self):
        p = load_profile([(1, 1), (2, 0)])
        assert p.knots_t[0] == 0.0
        assert p.value(0.5) == pytest.approx(1.0)

    def test_rejects_decreasing_radii(self):
        with pytest.raises(ProfileError):
            load_profile([(0, 1), (1, 0.5), (0.5, 0)])

    def test_rejects_zero_profile(self):
        with pytest.raises(ProfileError):
            load_profile([(0, 0), (1, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            load_profile([])

    @given(vals=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_negation_invariance(self, vals):
        ts = np.linspace(0.0, 2.0, len(vals))
        knots = list(zip(ts, vals))
        neg = [(t, -v) for t, v in knots]
        try:
            p = load_profile(knots)
        except ProfileError:
            with pytest.raises(ProfileError):
                load_profile(neg)
            return
        q = load_profile(neg)
        assert np.array_equal(p.knots_t, q.knots_t)
        assert np.array_equal(p.knots_v, q.knots_v)


class TestSlope:
    @pytest.mark.parametrize("knots", [2, 15])
    def test_piecewise_definition(self, knots):
        rng = np.random.default_rng(knots)
        t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, knots - 1))))
        v = rng.uniform(0.0, 1.0, knots)
        v[-1] = 0.0
        prof = load_profile(list(zip(t, v)))
        T = prof.support_radius

        def piecewise(x):
            if x < 0.0 or x >= T:
                return 0.0
            i = max(j for j in range(knots - 1) if t[j] <= x)
            return (v[i + 1] - v[i]) / (t[i + 1] - t[i])

        pts = np.concatenate(([-1.0, -1e-300, -0.0], t, np.nextafter(t, -np.inf),
                              np.nextafter(t, np.inf), rng.uniform(0.0, T, 50),
                              [T, 1.5 * T, np.inf]))
        assert np.array_equal(prof.slope(pts), [piecewise(x) for x in pts])
        for x in (-0.5, 0.0, t[knots // 2], 0.5 * T, T, 2.0 * T):
            assert prof.slope(x) == piecewise(x)
            assert prof.slope(float(x)).shape == ()


class TestNorms:
    def test_gradient_tent_n2(self, params2, tent_profile):
        assert gradient_l1_norm(tent_profile, params2) == pytest.approx(np.pi)

    def test_gradient_tent_n1(self, params1, tent_profile):
        assert gradient_l1_norm(tent_profile, params1) == pytest.approx(2.0)

    def test_gradient_annular_n3(self):
        p = load_profile([(0, 0), (1, 0), (2, 1), (3, 0)])
        expected = 4.0 * np.pi * (26.0 / 3.0)
        val = gradient_l1_norm(p, AmbientParams(3, 0.5))
        assert val == pytest.approx(expected)
        oracle = 4.0 * np.pi * quad(
            lambda t: abs(float(p.slope(t))) * t**2, 0, 3,
            points=[1, 2], limit=200)[0]
        assert rel_err(val, oracle) <= 1e-10

    def test_l1_indicator_n2(self, params2):
        p = load_profile([(0, 1), (1, 1), (1, 0)])
        assert l1_norm(p, params2) == pytest.approx(np.pi, rel=1e-6)

    def test_l1_tent_n2(self, params2, tent_profile):
        assert l1_norm(tent_profile, params2) == pytest.approx(np.pi / 3.0)

    def test_norms_match_adaptive_quadrature(self, rng):
        from maxvar.families import random_profile
        for n in (1, 2, 3):
            params = AmbientParams(n, 0.5)
            for _ in range(5):
                p = random_profile(rng, n_knots=int(rng.integers(4, 9)))
                pts = list(p.knots_t[1:-1])
                o_l1 = params.sigma_n * quad(
                    lambda t: float(p.value(t)) * t ** (n - 1), 0,
                    p.support_radius, points=pts, limit=300)[0]
                o_grad = params.sigma_n * quad(
                    lambda t: abs(float(p.slope(t))) * t ** (n - 1), 0,
                    p.support_radius, points=pts, limit=300)[0]
                assert rel_err(l1_norm(p, params), o_l1) <= 1e-10
                assert rel_err(gradient_l1_norm(p, params), o_grad) <= 1e-10


class TestLevelIntervals:
    def test_tent_band(self, tent_profile):
        ivs = level_intervals(tent_profile, 0.25, 0.75, (0.0, 1.0))
        assert len(ivs) == 1
        assert ivs[0][0] == pytest.approx(0.25)
        assert ivs[0][1] == pytest.approx(0.75)

    def test_constant_piece_inside_band(self):
        p = load_profile([(0, 0.5), (1, 0.5), (2, 0)])
        ivs = level_intervals(p, 0.4, 0.6, (0.0, 2.0))
        assert ivs[0] == (0.0, pytest.approx(1.2))

    def test_beyond_support_when_lo_zero(self, tent_profile):
        ivs = level_intervals(tent_profile, 0.0, 0.1, (0.0, 3.0))
        assert ivs[-1][1] == pytest.approx(3.0)

    def test_empty(self, tent_profile):
        assert level_intervals(tent_profile, 2.0, 3.0, (0.0, 1.0)) == []

    def test_dense_grid_membership(self, rng):
        from maxvar.families import random_profile
        for _ in range(5):
            p = random_profile(rng, n_knots=int(rng.integers(4, 10)))
            fmax = p.max_value
            lo = float(rng.uniform(0.0, 0.6)) * fmax
            hi = lo + float(rng.uniform(0.05, 0.5)) * fmax
            window = (0.0, 1.2 * p.support_radius)
            ivs = level_intervals(p, lo, hi, window)
            # disjoint and sorted
            for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
                assert b1 < a2
            ts = rng.uniform(window[0], window[1], size=100_000)
            vals = p.value(ts)
            member = (vals >= lo) & (vals <= hi)
            indicator = np.zeros_like(member)
            for a, b in ivs:
                indicator |= (ts >= a) & (ts <= b)
            assert np.array_equal(member, indicator)
