"""Cap kernels against closed forms, Monte-Carlo, and integral identities."""

import numpy as np
import pytest
from scipy.integrate import quad

from maxvar.core import AmbientParams
from maxvar.geometry import (AxisBall, InfeasibleBallError, _cap_cosine, cap_angle,
                             cap_area, cap_first_moment, classify_contact,
                             sin_power_integral, sin_power_total)

from conftest import rel_err


def mc_cap(t, d, r, params, n_samples, seed, moment=False):
    """Monte-Carlo cap measure (or cosine moment) on the sphere |y| = t."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n_samples, params.n))
    y *= t / np.linalg.norm(y, axis=1, keepdims=True)
    inside = (y[:, 0] - d) ** 2 + (y[:, 1:] ** 2).sum(axis=1) <= r * r
    vals = inside * (y[:, 0] / t) if moment else inside.astype(float)
    total = params.sigma_n * t ** (params.n - 1)
    return total * vals.mean(), total * vals.std() / np.sqrt(n_samples)


def reference_cap_cosine(t, d, r):
    """The allocating expression that the in-place kernel replaced."""
    t = np.asarray(t, dtype=float)
    denom = np.maximum(2.0 * t * d, 1e-300)
    u = (t * t + (d * d - r * r)) / denom
    u = np.where(np.abs(t - d) >= r, 1.0, u)
    u = np.where(t + d <= r, -1.0, u)
    return np.clip(u, -1.0, 1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCapCosine:
    def test_matches_reference_on_arrays(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(0.0, 2.0, size=300)
        r = rng.uniform(1e-4, 2.0, size=300)
        t = rng.uniform(0.0, 4.0, size=300)
        # the regime edges and the degenerate radii, exactly
        t[:60] = np.concatenate((np.zeros(15), np.abs(d[15:30] - r[15:30]),
                                 d[30:45] + r[30:45], r[45:60]))
        d[45:60] = 0.0
        assert same_bits(_cap_cosine(t, d, r), reference_cap_cosine(t, d, r))

    def test_matches_reference_on_broadcasts(self):
        rng = np.random.default_rng(12)
        k = 40
        d = rng.uniform(0.0, 2.0, size=(k, 1))
        r = rng.uniform(1e-4, 2.0, size=(k, 1))
        t = np.linspace(0.0, 1.0, 96)[None, :] * (d + r)
        t[:, 0] = np.abs(d[:, 0] - r[:, 0])
        for args in ((t, d, r), (t.reshape(k, 4, 24), d[:, :, None], r[:, :, None]),
                     (d, t, r), (0.5, d, r), (t, 0.3, 0.7), (0.5, 0.3, r)):
            assert same_bits(_cap_cosine(*args), reference_cap_cosine(*args))

    @pytest.mark.parametrize("t, d, r", [(0.5, 0.3, 0.4), (0.0, 0.3, 0.4), (0.5, 0.0, 0.4),
                                         (0.1, 0.3, 0.2), (0.5, 0.3, 0.2), (0.0, 0.0, 1.0),
                                         (2.0, 0.5, 1.0)])
    def test_matches_reference_on_scalars(self, t, d, r):
        got, expected = _cap_cosine(t, d, r), reference_cap_cosine(t, d, r)
        assert same_bits(got, expected)
        assert type(got) is type(expected)
        assert same_bits(_cap_cosine(np.float64(t), np.array(d), r),
                         reference_cap_cosine(np.float64(t), np.array(d), r))

    def test_kernels_take_floats(self, params2, params3):
        p5 = AmbientParams(5, 0.5)
        for params in (params2, params3, p5):
            assert isinstance(float(cap_area(0.5, 0.3, 0.4, params)), float)
            assert np.ndim(cap_first_moment(0.5, 0.3, 0.4, params)) == 0
        assert cap_angle(0.5, 0.3, 0.4) == pytest.approx(np.arccos(0.6))
        assert cap_area(0.05, 0.3, 0.4, params3) == pytest.approx(4 * np.pi * 0.05**2)


def reference_cap_area(t, d, r, params):
    """cap_area with the np.clip expression that np.maximum replaced."""
    n = params.n
    t = np.asarray(t, dtype=float)
    u = _cap_cosine(t, d, r)
    if n == 2:
        return 2.0 * t * np.arccos(u)
    if n == 3:
        return 2.0 * np.pi * t * t * (1.0 - u)
    sin_t = np.sqrt(np.clip((1.0 - u) * (1.0 + u), 0.0, None))
    theta = np.arccos(u)
    return params.sigma_lower * t ** (n - 1) * sin_power_integral(n - 2, theta, cos_t=u, sin_t=sin_t)


def reference_cap_first_moment(t, d, r, params):
    """cap_first_moment with the np.clip expression that np.maximum replaced."""
    n = params.n
    t = np.asarray(t, dtype=float)
    u = _cap_cosine(t, d, r)
    pyth = np.clip((1.0 - u) * (1.0 + u), 0.0, None)
    if n == 2:
        return 2.0 * t * np.sqrt(pyth)
    if n == 3:
        return np.pi * t * t * pyth
    return params.sigma_lower * t ** (n - 1) * np.sqrt(pyth) ** (n - 1) / (n - 1)


class TestCapKernelsBits:
    """The kernels clamp with np.maximum, bit-identical to np.clip."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_match_the_clip_expression(self, n):
        params = AmbientParams(n, 0.5)
        rng = np.random.default_rng(20 + n)
        d = rng.uniform(0.0, 2.0, size=300)
        r = rng.uniform(1e-4, 2.0, size=300)
        t = rng.uniform(0.0, 4.0, size=300)
        # the regime edges, where 1 - u^2 rounds to 0 or just below it
        t[:45] = np.concatenate((np.zeros(15), np.abs(d[15:30] - r[15:30]),
                                 d[30:45] + r[30:45]))
        for args in ((t, d, r), (t[:, None], d[None, :40], r[None, :40]), (0.5, 0.3, 0.4),
                     (0.1, 0.3, 0.2), (2.0, 0.5, 1.0)):
            assert same_bits(cap_area(*args, params), reference_cap_area(*args, params))
            assert same_bits(cap_first_moment(*args, params),
                             reference_cap_first_moment(*args, params))


class TestCapAngle:
    def test_disjoint(self):
        assert cap_angle(0.5, 3.0, 1.0) == 0.0

    def test_contained(self):
        assert cap_angle(0.5, 0.1, 1.0) == pytest.approx(np.pi)

    def test_cosine_rule(self):
        assert cap_angle(1.0, 1.0, 1.0) == pytest.approx(np.pi / 3.0)

    def test_continuity_across_clamps(self, rng):
        for _ in range(50):
            d = float(rng.uniform(0.2, 2.0))
            r = float(rng.uniform(0.2, 2.0))
            for edge in (abs(d - r), d + r):
                if edge <= 0:
                    continue
                eps = 1e-18 * max(1.0, edge)
                jump = abs(float(cap_angle(edge + eps, d, r))
                           - float(cap_angle(max(edge - eps, 1e-300), d, r)))
                assert jump <= 1e-8


class TestSinPower:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_against_quadrature(self, k):
        # the ascending recurrence cancels mildly for tiny caps at high k,
        # consistent with the documented accuracy loss toward n = 10
        tol = 1e-12 if k <= 5 else 1e-10
        for theta in (0.3, 1.2, np.pi / 2, 2.4, np.pi):
            oracle = quad(lambda u: np.sin(u) ** k, 0.0, theta)[0]
            assert rel_err(float(sin_power_integral(k, theta)), oracle, 1e-15) <= tol

    @pytest.mark.parametrize("k", range(0, 9))
    def test_total(self, k):
        assert sin_power_total(k) == pytest.approx(
            float(sin_power_integral(k, np.pi)), rel=1e-13)


class TestCapArea:
    def test_full_sphere_n3(self, params3):
        assert float(cap_area(0.5, 0.0, 1.0, params3)) == pytest.approx(np.pi)

    def test_disjoint_n2(self, params2):
        assert float(cap_area(2.0, 0.5, 1.0, params2)) == 0.0

    def test_half_overlap_n3_closed_form(self, params3):
        # theta* = pi/3: 2 pi (1 - cos pi/3) = pi
        assert float(cap_area(1.0, 1.0, 1.0, params3)) == pytest.approx(np.pi)

    def test_against_monte_carlo(self, params2, params3):
        for params, seed in ((params2, 5), (params3, 6)):
            val = float(cap_area(1.0, 1.0, 1.0, params))
            mc, se = mc_cap(1.0, 1.0, 1.0, params, 1_000_000, seed)
            assert abs(val - mc) <= 3.0 * se

    def test_monotone_in_radius(self, params2, rng):
        t, d = 0.8, 0.6
        rs = np.sort(rng.uniform(0.05, 3.0, size=40))
        vals = [float(cap_area(t, d, r, params2)) for r in rs]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_radial_integral_is_volume(self, rng):
        for n in (2, 3, 5):
            params = AmbientParams(n, 0.5)
            for _ in range(6):
                d = float(rng.uniform(0.0, 2.0))
                r = float(rng.uniform(0.1, 2.0))
                lo, hi = max(0.0, d - r), d + r
                val = quad(lambda t: float(cap_area(t, d, r, params)), lo, hi,
                           points=[abs(d - r)], limit=400)[0]
                assert rel_err(val, params.omega_n * r**n) <= 1e-10


class TestCapFirstMoment:
    def test_full_sphere_zero(self, params3):
        assert float(cap_first_moment(0.5, 0.0, 1.0, params3)) == 0.0

    def test_disjoint_zero(self, params3):
        assert float(cap_first_moment(5.0, 1.0, 1.0, params3)) == 0.0

    def test_closed_form_n3(self, params3):
        assert float(cap_first_moment(1.0, 1.0, 1.0, params3)) == pytest.approx(
            3.0 * np.pi / 4.0)

    def test_against_monte_carlo(self, params2, params3):
        for params, seed in ((params2, 15), (params3, 16)):
            val = float(cap_first_moment(0.9, 0.7, 0.5, params))
            mc, se = mc_cap(0.9, 0.7, 0.5, params, 1_000_000, seed, moment=True)
            assert abs(val - mc) <= 3.0 * se

    def test_bounded_by_area(self, rng):
        for n in (2, 3, 4, 7):
            params = AmbientParams(n, 0.5)
            t = rng.uniform(0.05, 2.0, size=200)
            d = float(rng.uniform(0.1, 2.0))
            r = float(rng.uniform(0.1, 2.0))
            mom = cap_first_moment(t, d, r, params)
            area = cap_area(t, d, r, params)
            assert np.all(mom >= -1e-14)
            assert np.all(mom <= area + 1e-12 * np.maximum(area, 1.0))

    def test_radial_integral_matches_monte_carlo(self, params3):
        # integral over t equals the ball integral of y_axis/|y|
        d, r = 0.8, 0.6
        val = quad(lambda t: float(cap_first_moment(t, d, r, params3)),
                   max(0.0, d - r), d + r, points=[abs(d - r)], limit=400)[0]
        rng = np.random.default_rng(99)
        m = 1_000_000
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        y = dirs * (r * rng.random(m) ** (1 / 3))[:, None]
        y[:, 0] += d
        c = y[:, 0] / np.linalg.norm(y, axis=1)
        vol = params3.omega_n * r**3
        assert abs(val - vol * c.mean()) <= 3.0 * vol * c.std() / np.sqrt(m)


class TestClassifyContact:
    def test_interior(self):
        c = classify_contact(AxisBall(0.0, 1.0), 0.5, 1e-6)
        assert c.kind == "interior" and c.c == 0.0

    def test_boundary_outer(self):
        c = classify_contact(AxisBall(1.5, 0.5), 1.0, 1e-6)
        assert c.kind == "boundary_outer" and c.c == pytest.approx(1.5)

    def test_boundary_inner(self):
        c = classify_contact(AxisBall(0.5, 0.5), 1.0, 1e-6)
        assert c.kind == "boundary_inner" and c.c == pytest.approx(0.5)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleBallError):
            classify_contact(AxisBall(3.0, 0.5), 1.0, 1e-6)

    def test_s_zero_has_nan_c(self):
        c = classify_contact(AxisBall(0.0, 1.0), 0.0, 1e-6)
        assert c.kind == "interior" and np.isnan(c.c)
