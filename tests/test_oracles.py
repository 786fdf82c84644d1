"""The reference implementations themselves, on cases with known answers."""

import numpy as np
import pytest

from maxvar.averages import ball_average
from maxvar.core import AmbientParams, load_profile
from maxvar.families import dilate_profile, random_profile, tent
from maxvar.geometry import AxisBall
from maxvar.oracles import (oracle_1d_maximal, oracle_dense_average_2d,
                            oracle_mc_ball_average)
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import search

from conftest import rel_err


class TestOracle1D:
    def test_indicator_value_one(self):
        chi = load_profile([(0, 1), (1, 1), (1, 0)])
        for beta in (0.25, 0.5, 0.75):
            val = oracle_1d_maximal(chi, 0.0, beta, resolution=400)
            assert val == pytest.approx(1.0, rel=1e-5)

    def test_symmetric_tent_matches_search(self, params1, tent_profile):
        val = oracle_1d_maximal(tent_profile, 0.0, 0.5, resolution=800)
        res = search(tent_profile, 0.0, params1)
        assert rel_err(val, res.value) <= 1e-3

    def test_dilation_consistency(self, tent_profile):
        lam, x, beta = 2.0, 0.7, 0.5
        shrunk = dilate_profile(tent_profile, lam)
        a = oracle_1d_maximal(shrunk, x / lam, beta, resolution=600)
        b = oracle_1d_maximal(tent_profile, x, beta, resolution=600)
        assert rel_err(a, b * lam ** (-beta)) <= 1e-12

    def test_negative_point_symmetry(self, tent_profile):
        a = oracle_1d_maximal(tent_profile, -0.6, 0.5, resolution=500)
        b = oracle_1d_maximal(tent_profile, 0.6, 0.5, resolution=500)
        assert rel_err(a, b) <= 1e-12

    def test_rejects_bad_beta(self, tent_profile):
        with pytest.raises(ValueError):
            oracle_1d_maximal(tent_profile, 0.0, 1.5)

    @pytest.mark.parametrize("resolution", [-3, 0, 1])
    def test_rejects_resolution_below_two(self, tent_profile, resolution):
        with pytest.raises(ValueError, match=f"got {resolution}$"):
            oracle_1d_maximal(tent_profile, 0.6, 0.5, resolution=resolution)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_x(self, tent_profile, x):
        with pytest.raises(ValueError, match=f"finite x, got {x}$"):
            oracle_1d_maximal(tent_profile, x, 0.5)

    def test_two_points_is_the_least_resolution(self, tent_profile):
        val = oracle_1d_maximal(tent_profile, 0.6, 0.5, resolution=2)
        assert rel_err(val, oracle_1d_maximal(tent_profile, 0.6, 0.5, resolution=500)) <= 1e-6


class TestOracleMC:
    def test_constant_profile_zero_stderr(self, params2):
        prof = load_profile([(0, 1), (5, 1), (5, 0)])
        mean, se = oracle_mc_ball_average(prof, AxisBall(0.5, 1.0), params2,
                                          samples=10_000, seed=1)
        assert mean == pytest.approx(1.0)
        assert se <= 1e-12

    def test_volume_ratio(self, params2):
        chi = load_profile([(0, 1), (1, 1), (1, 0)])
        mean, se = oracle_mc_ball_average(chi, AxisBall(0.0, 2.0), params2,
                                          samples=1_000_000, seed=2)
        assert abs(mean - 0.25) <= 3.0 * se

    def test_tent_closed_form(self, params2, tent_profile):
        mean, se = oracle_mc_ball_average(tent_profile, AxisBall(0.0, 1.0), params2,
                                          samples=1_000_000, seed=3)
        assert abs(mean - 1.0 / 3.0) <= 3.0 * se

    def test_deterministic_given_seed(self, params3, tent_profile):
        a = oracle_mc_ball_average(tent_profile, AxisBall(0.3, 0.5), params3, 50_000, 7)
        b = oracle_mc_ball_average(tent_profile, AxisBall(0.3, 0.5), params3, 50_000, 7)
        assert a == b

    def test_zero_samples_error(self, params2, tent_profile):
        with pytest.raises(ValueError):
            oracle_mc_ball_average(tent_profile, AxisBall(0.0, 1.0), params2, 0, 1)

    def test_dimension_guard(self, tent_profile):
        with pytest.raises(ValueError):
            oracle_mc_ball_average(tent_profile, AxisBall(0.0, 1.0),
                                   AmbientParams(1, 0.5), 10, 1)


class TestOracleDense2D:
    def test_constant_profile(self):
        prof = load_profile([(0, 0.7), (5, 0.7), (5, 0)])
        val = oracle_dense_average_2d(prof, AxisBall(0.8, 1.2), resolution=2000)
        assert rel_err(val, 0.7) <= 1e-8

    def test_agreement_with_ball_average(self, params2, rng):
        for _ in range(6):
            prof = random_profile(rng, 6)
            T = prof.support_radius
            ball = AxisBall(float(rng.uniform(0.0, T)),
                            float(rng.uniform(0.1 * T, 0.8 * T)))
            dense = oracle_dense_average_2d(prof, ball, resolution=2000)
            det = ball_average(prof, ball, params2, Q)
            assert rel_err(dense, det, prof.max_value) <= 1e-6

    @pytest.mark.parametrize("resolution", [-1, 0])
    def test_rejects_resolution_below_one(self, tent_profile, resolution):
        with pytest.raises(ValueError, match=f"got {resolution}$"):
            oracle_dense_average_2d(tent_profile, AxisBall(0.3, 0.5), resolution=resolution)

    def test_agreement_with_monte_carlo(self, params2, tent_profile):
        ball = AxisBall(0.4, 0.7)
        dense = oracle_dense_average_2d(tent_profile, ball, resolution=1200)
        mc, se = oracle_mc_ball_average(tent_profile, ball, params2, 1_000_000, 11)
        assert abs(dense - mc) <= 3.0 * se
