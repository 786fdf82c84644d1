"""Best-ball search: trivial cases, oracle probes, sweeps, derivatives."""

import importlib
import json
import os
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from maxvar.averages import ball_average, fixed_rule_objective
from maxvar.cli import main
from maxvar.core import AmbientParams, l1_norm, load_profile
from maxvar.families import (annular_bump, dilate_profile, random_profile, scale_profile,
                             tent, two_bump)
from maxvar.geometry import AxisBall, InfeasibleBallError, classify_contact
from maxvar.oracles import oracle_1d_maximal
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import (CONTACT_TOL, JUMP_REL, TIE_TOL, BestBallResult, GridSpec,
                           derivative_by_fd, derivative_by_formula,
                           maximal_profile, objective, search)
from maxvar.variation import variation_report

search_module = importlib.import_module("maxvar.search")
variation_module = importlib.import_module("maxvar.variation")

from conftest import rel_err

QUERIES = json.loads((Path(__file__).parent / "data" / "search_queries.json").read_text())["cases"]


def pairwise_corner_flags(results, knots):
    """The corner flags by the rule applied pair by pair: a ball jump above
    JUMP_REL, a change of contact kind, or a knot strictly between the two
    points' s, d + r or d - r flags both points."""
    flags = np.zeros(len(results), dtype=bool)
    for i in range(len(results) - 1):
        a, b = results[i], results[i + 1]
        scale = max(a.ball.r, b.ball.r)
        jump = max(abs(a.ball.d - b.ball.d), abs(a.ball.r - b.ball.r)) / scale
        crosses = False
        for fn in (lambda x: x.s, lambda x: x.ball.d + x.ball.r, lambda x: x.ball.d - x.ball.r):
            va, vb = fn(a), fn(b)
            lo, hi = (va, vb) if va <= vb else (vb, va)
            crosses = crosses or bool(np.any((knots > lo) & (knots < hi)))
        if jump > JUMP_REL or a.contact.kind != b.contact.kind or crosses:
            flags[i] = flags[i + 1] = True
    return flags


def chi_profile():
    return load_profile([(0, 1), (1, 1), (1, 0)])


def stored_query(name):
    """(profile, s, params, better ball or None) of a query in data/search_queries.json."""
    case = QUERIES[name]
    better = case.get("better_ball")
    return (load_profile(case["knots"]), case["s"], AmbientParams(case["n"], case["beta"]),
            AxisBall(*better) if better else None)


def record_compass_ends(monkeypatch):
    """The list that every compass run of a search appends its end
    (d, r, value, converged) to, as the compass leaves it."""
    ends = []
    compass = search_module._compass

    def recording(evaluate, runs):
        compass(evaluate, runs)
        ends.extend(run.end for run in runs)

    monkeypatch.setattr(search_module, "_compass", recording)
    return ends


class TestObjective:
    def test_chi_unit_ball(self, params2):
        val = objective(chi_profile(), 0.0, AxisBall(0.0, 1.0), params2, Q)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_covering_ball_mass_formula(self, params2, tent_profile):
        r = 3.0
        val = objective(tent_profile, 0.5, AxisBall(0.0, r), params2, Q)
        expected = r ** (params2.beta - params2.n) \
            * l1_norm(tent_profile, params2) / params2.omega_n
        assert rel_err(val, expected) <= 1e-10

    def test_infeasible_ball_raises(self, params2, tent_profile):
        with pytest.raises(InfeasibleBallError):
            objective(tent_profile, 2.0, AxisBall(0.0, 1.0), params2, Q)


class TestSearch:
    def test_chi_at_origin(self, params2):
        res = search(chi_profile(), 0.0, params2)
        assert res.value == pytest.approx(1.0, rel=1e-6)
        assert res.ball.d == pytest.approx(0.0, abs=1e-6)
        assert res.ball.r == pytest.approx(1.0, rel=1e-6)
        assert res.contact.kind == "interior"
        assert res.region == "zero_derivative"

    def test_chi_interior_point_min_radius_tiebreak(self, params2):
        res = search(chi_profile(), 0.5, params2)
        assert res.value == pytest.approx(1.0, rel=1e-6)
        # among balls of average one, the largest value needs r = 1 - d
        # maximal at d = 0; smaller balls lose value, larger lose average
        assert res.ball.r == pytest.approx(1.0, rel=1e-5)
        assert res.contact.kind == "interior"

    def test_matches_1d_oracle(self, params1, tent_profile):
        for s in (0.2, 0.5, 1.1, 2.5):
            res = search(tent_profile, s, params1)
            oracle = oracle_1d_maximal(tent_profile, s, params1.beta)
            assert rel_err(res.value, oracle) <= 1e-3

    def test_feasibility_and_radius_bound(self, params2, rng):
        for _ in range(4):
            prof = random_profile(rng, 6)
            T = prof.support_radius
            s = float(rng.uniform(0.05 * T, 3.0 * T))
            res = search(prof, s, params2)
            assert res.ball.d >= 0.0
            assert abs(res.ball.d - s) <= res.ball.r * (1 + CONTACT_TOL)
            r_max = s + T
            covering = objective(prof, s, AxisBall(0.0, r_max), params2, Q)
            assert res.ball.r < r_max * (1 - 1e-6) or \
                rel_err(res.value, covering) <= 1e-6

    def test_monotone_dominance_covering_balls(self, params2, tent_profile):
        s, d = 0.5, 0.3
        rs = np.linspace(d + 1.0, d + 4.0, 12)  # all cover the support
        vals = [objective(tent_profile, s, AxisBall(d, float(r)), params2, Q)
                for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_beats_dense_grid_probe(self, params2, tent_profile):
        for s, res_grid in ((0.7, 200), (1.6, 400)):
            res = search(tent_profile, s, params2)
            T = tent_profile.support_radius
            rs = np.geomspace(1e-4 * T, s + T, res_grid)
            best_probe = 0.0
            for r in rs:
                ds = np.linspace(max(0.0, s - r), s + r, res_grid)
                for d in ds:
                    val = r ** params2.beta * ball_average(
                        tent_profile, AxisBall(float(d), float(r)), params2,
                        Q)
                    best_probe = max(best_probe, val)
            assert res.value >= best_probe * (1 - 1e-6)

    def test_starts_reaching_one_ball_count_one_tie(self, params2, tent_profile, monkeypatch):
        endpoints = record_compass_ends(monkeypatch)
        res = search(tent_profile, 0.5, params2)
        best = max(v for _, _, v, _ in endpoints)
        tied = [(d, r) for d, r, v, _ in endpoints if v >= best - TIE_TOL * best]
        assert len(tied) > 1
        assert res.tie_candidates == 1

    def test_coarse_compass_hands_off_to_the_fine_compass(self, monkeypatch):
        # every coarse run stops at the hand-off step and every fine run
        # starts at it, from a coarse run's endpoint
        runs = []
        started = search_module._Run

        def recording(d0, r0, step, tol, box, ahead):
            run = started(d0, r0, step, tol, box, ahead)
            runs.append({"start": (d0, r0), "step": step, "tol": tol, "run": run})
            return run

        monkeypatch.setattr(search_module, "_Run", recording)
        hand_off, fine_tol = search_module.HANDOFF, search_module.REFINE_TOL
        prof = random_profile(np.random.default_rng(7), 12)
        T = prof.support_radius
        r_min = search_module.R_MIN_FRAC * T
        for n in (1, 2, 3):
            params = AmbientParams(n, 0.5)
            for s in (0.05 * T, 0.7 * T, 3.0 * T):
                runs.clear()
                search(prof, s, params)
                scale = [max(run["start"][1], r_min) for run in runs]
                coarse = [run["tol"] == hand_off * x for run, x in zip(runs, scale)]
                k = coarse.index(False)
                assert k > 0 and not any(coarse[k:])
                ends = {run["run"].end[:2] for run in runs[:k]}
                for run, x in zip(runs[k:], scale[k:]):
                    assert run["step"] == hand_off * x and run["tol"] == fine_tol * x
                    assert run["start"] in ends

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_value_is_the_objective_bit_for_bit(self, n, monkeypatch):
        # one rule at every n: the value the compass got for the ball inside
        # its batch, in units of T, times T^beta is the result's, and the
        # public objective's, bit for bit
        finals = record_compass_ends(monkeypatch)
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(60 + n), 12)
        T = prof.support_radius
        others = np.random.default_rng(n).uniform(0.05 * T, T, size=(2, 7))
        for s in (0.05, 0.5, 2.0):
            s *= T
            finals.clear()
            res = search(prof, s, params)
            compass = [v for d, r, v, _ in finals if (d, r) == (res.ball.d, res.ball.r)]
            batch = fixed_rule_objective(prof, np.append(others[0], res.ball.d),
                                         np.append(others[1], res.ball.r), params, unit=T)
            assert compass and compass[0] == batch[-1]
            assert res.value == compass[0] * T**params.beta == objective(prof, s, res.ball, params)

    def test_coarse_pass_of_the_warm_up_query_does_not_crawl(self, params2, tent_profile,
                                                             monkeypatch):
        # the tent at s = 0.7, n = 2: a centered coarse run once crawled toward
        # B(0, s) for 58 rounds, halving its gap to it at each one
        rounds = []
        compass = search_module._compass

        def counting(evaluate, runs):
            calls = []
            compass(lambda ds, rs: calls.append(None) or evaluate(ds, rs), runs)
            rounds.append(len(calls))

        monkeypatch.setattr(search_module, "_compass", counting)
        search(tent_profile, 0.7, params2)
        coarse, _ = rounds
        assert coarse <= 20

    def test_zero_radius_rejected(self, params2, tent_profile):
        with pytest.raises(ValueError):
            search(tent_profile, -0.5, params2)

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, params2, tent_profile, s):
        with pytest.raises(ValueError, match=str(s)):
            search(tent_profile, s, params2)

    def test_two_bump_best_ball_found(self, params2):
        # with boundary-family balls crowding the start pool, the search stopped
        # 0.088% low at (0.077, 0.579)
        prof = two_bump()
        s = GridSpec.standard(prof, 40).points()[18]
        res = search(prof, s, params2)
        better = objective(prof, s, AxisBall(0.0, 2.87), params2, Q)
        assert res.value >= better * (1.0 - 1e-9)

    def test_point_queries_5_3_21_best_ball_found(self):
        # edge polls stopped at (0, 1.484), 2.06% below the centered ball (0, 1.307)
        prof, s, params, better = stored_query("point_queries_5_3_21")
        res = search(prof, s, params)
        assert res.value >= objective(prof, s, better, params) * (1.0 - 1e-9)

    def test_point_queries_33_5_29_matches_1d_oracle(self):
        # n = 1: edge polls stopped at (0, 0.184), 1.25% below the 1D oracle,
        # whose best interval is about (0, 0.921)
        prof, s, params, better = stored_query("point_queries_33_5_29")
        res = search(prof, s, params)
        assert res.value >= objective(prof, s, better, params) * (1.0 - 1e-9)
        assert rel_err(res.value, oracle_1d_maximal(prof, s, params.beta)) <= 1e-3

    def test_point_queries_1_1_23_best_ball_found(self):
        # axis polls stopped at (0, 1.148), 0.57% low; edge polls reach (0, 1.020)
        prof, s, params, better = stored_query("point_queries_1_1_23")
        res = search(prof, s, params)
        assert res.value >= objective(prof, s, better, params) * (1.0 - 1e-9)

    def test_random_profile_basin_found(self):
        # n = 1, 10 knots: the 12 x 24 grid's starts stopped at (0.912, 1.507),
        # 1.1% below the 1D oracle, whose best interval is about (0.273, 2.147)
        rng = np.random.default_rng(2024)
        prof = random_profile(rng, int(rng.integers(4, 30)))
        s = GridSpec.standard(prof, 24).refined()[33]
        res = search(prof, s, AmbientParams(1, 0.2))
        assert rel_err(res.value, oracle_1d_maximal(prof, s, 0.2)) <= 1e-9

    def test_point_queries_1_3_38_best_ball_found(self):
        # the best ball is centered, so the centered start finds it; coarse
        # starts alone reached it only through the order of tied coarse
        # balls, and the ball (0, 0.950 T) of the neighboring basin is 0.49% lower
        prof, s, params, better = stored_query("point_queries_1_3_38")
        res = search(prof, s, params)
        assert res.value >= objective(prof, s, better, params) * (1.0 - 1e-9)

    # coarse starts stopped 1.31%, 0.37%, 0.18% and 0.12% low; the centered
    # start reaches the better ball
    @pytest.mark.parametrize("name", ["point_queries_2_0_52", "point_queries_2_3_47",
                                      "point_queries_4_1_30", "point_queries_2_1_45"])
    def test_centered_start_finds_the_best_ball(self, name):
        prof, s, params, better = stored_query(name)
        res = search(prof, s, params)
        assert res.value >= objective(prof, s, better, params) * (1.0 - 1e-9)

    def test_known_defects_1_1_51_matches_1d_oracle(self):
        # n = 1, 200 knots: axis polls stopped 1.7e-3 below the oracle, edge polls 9e-13
        prof, s, params, _ = stored_query("known_defects_1_1_51")
        res = search(prof, s, params)
        assert rel_err(res.value, oracle_1d_maximal(prof, s, params.beta)) <= 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_never_below_the_centered_maximum(self, n):
        rng = np.random.default_rng(3000 + n)
        for _ in range(5):
            prof = many_knot_profile(rng, int(np.exp(rng.uniform(np.log(4), np.log(200)))))
            s = prof.support_radius * 10.0 ** rng.uniform(-2.0, np.log10(64.0))
            params = AmbientParams(n, float(rng.uniform(0.1, 0.9)))
            _, centered = lone_centered(prof, s, params)
            assert search(prof, s, params).value >= centered * (1.0 - 1e-12)


def lone_centered(prof, s, params):
    """search._centered_best at the one radius s: (radius, value)."""
    r, value = search_module._centered_best(prof, [s], params)
    return float(r[0]), float(value[0])


def many_knot_profile(rng, knots):
    """A random profile with any number of knots and support about 1."""
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, size=knots - 1))))
    v = rng.uniform(0.0, 1.0, size=knots)
    v[0], v[-1] = max(v[0], 0.1), 0.0
    return load_profile(list(zip(t * rng.uniform(0.5, 2.0) / t[-1], v)))


def swept_centered(prof, s, params):
    """The best centered ball by a sweep of r, refined by a bounded scalar
    search: n r^(beta - n) times the quad integral of F t^(n-1) over [0, r].
    Shares no code with search._centered_best.  Returns (value, phi), phi
    the swept function."""
    n, beta = params.n, params.beta
    t, v = prof.knots_t, prof.knots_v
    F = lambda x: np.interp(x, t, v, right=0.0) * x ** (n - 1)
    cum = np.concatenate(([0.0], np.cumsum([quad(F, a, b, epsabs=0.0, epsrel=1e-13)[0]
                                            for a, b in zip(t[:-1], t[1:])])))

    def phi(r):
        k = min(int(np.searchsorted(t, r, side="right")) - 1, len(t) - 1)
        part = quad(F, t[k], min(r, t[-1]), epsabs=0.0, epsrel=1e-13)[0] if r > t[k] else 0.0
        return n * (cum[k] + part) * r ** (beta - n)

    T = prof.support_radius
    lo, hi = max(s, search_module.R_MIN_FRAC * T), s + T
    rs = np.unique(np.concatenate((np.geomspace(lo, hi, 400), t[(t > lo) & (t < hi)])))
    vals = [phi(r) for r in rs]
    i = int(np.argmax(vals))
    found = minimize_scalar(lambda r: -phi(r), method="bounded",
                            bounds=(rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]),
                            options={"xatol": 1e-12 * rs[i]})
    return max(vals[i], -found.fun), phi


class TestCenteredBest:
    """search._centered_best, the exact best centered ball, against the
    fixed-rule objective and an independent quad sweep."""

    @staticmethod
    def check(prof, s, params):
        r, value = lone_centered(prof, s, params)
        T = prof.support_radius
        assert max(s, search_module.R_MIN_FRAC * T) <= r <= s + T
        assert rel_err(value, objective(prof, s, AxisBall(0.0, r), params)) <= 1e-12
        best, phi = swept_centered(prof, s, params)
        assert rel_err(value, phi(r)) <= 1e-12
        assert value >= best * (1.0 - 1e-12)
        return r, value

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_objective_and_a_quad_sweep(self, n):
        rng = np.random.default_rng(4000 + n)
        for knots, s_over_T in ((6, 0.01), (20, 0.3), (40, 1.5)):
            prof = random_profile(rng, knots, t_max=float(rng.uniform(0.5, 2.0)))
            params = AmbientParams(n, float(rng.uniform(0.05, 0.95)) * min(n, 2))
            self.check(prof, s_over_T * prof.support_radius, params)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_dilation_by_two_is_exact(self, n):
        rng = np.random.default_rng(4100 + n)
        for _ in range(20):
            prof = many_knot_profile(rng, int(rng.integers(4, 60)))
            s = prof.support_radius * 10.0 ** rng.uniform(-2.0, 1.0)
            params = AmbientParams(n, float(rng.uniform(0.1, 0.9)))
            r, _ = lone_centered(prof, s, params)
            assert lone_centered(dilate_profile(prof, 2.0), s / 2.0, params)[0] == r / 2.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_one_call_is_the_lone_solves(self, n):
        # the radii of one call share the profile's integrals and one Newton
        # loop; each gets its lone solve, bit for bit
        rng = np.random.default_rng(4400 + n)
        for prof in (tent(), two_bump(), chi_profile(), many_knot_profile(rng, 40)):
            params = AmbientParams(n, float(rng.uniform(0.1, 0.9)))
            pts = prof.support_radius * np.concatenate(([0.0], np.geomspace(1e-3, 64.0, 60)))
            rs, values = search_module._centered_best(prof, pts, params)
            assert list(zip(rs.tolist(), values.tolist())) == \
                [lone_centered(prof, s, params) for s in pts.tolist()]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_and_far_radii(self, n):
        prof = random_profile(np.random.default_rng(4200 + n), 12)
        T = prof.support_radius
        params = AmbientParams(n, 0.5)
        self.check(prof, 0.0, params)
        # past the support the average only falls: the smallest ball wins
        r, _ = self.check(prof, 64.0 * T, params)
        assert r == 64.0 * T

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_flat_pieces(self, n):
        params = AmbientParams(n, 0.5)
        # a plateau, a steep ramp of width 1e-9 and a flat top
        for prof in (chi_profile(), load_profile([(0, 0.5), (0.3, 0.5), (0.6, 1.0), (0.9, 1.0),
                                                  (1.2, 0.0)])):
            for s in (0.0, 0.1, 0.7):
                self.check(prof, s, params)
        r, value = lone_centered(chi_profile(), 0.5, params)
        assert r == pytest.approx(1.0, abs=1e-8) and value == pytest.approx(1.0, rel=1e-8)

    def test_no_runtime_warning(self):
        rng = np.random.default_rng(4300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(1, 11):
                for prof in (chi_profile(), tent(), two_bump(), many_knot_profile(rng, 200)):
                    s_over_T = np.array([0.0, 1e-6, 0.5, 1.0, 100.0, 1e40])
                    search_module._centered_best(prof, s_over_T * prof.support_radius,
                                                 AmbientParams(n, 0.5))


class TestProjection:
    """Compass steps go to the nearest feasible ball, which lets them slide
    along the boundary family r = |d - s| both ways."""

    S, R_MIN, R_MAX = 0.7, 1e-4, 1.7  # s, and the radius range for T = 1

    def project(self, d, r):
        return search_module._project(d, r, self.S, self.R_MIN, self.R_MAX)

    def test_returns_a_feasible_ball(self):
        rng = np.random.default_rng(31)
        # every center up to s + r_max, every radius below r_max and beyond it
        for d, r in rng.uniform((-3.0, -1.0), (self.S + self.R_MAX, 4.0), size=(2000, 2)):
            d1, r1 = self.project(float(d), float(r))
            assert d1 >= 0.0
            assert self.R_MIN <= r1 <= self.R_MAX
            assert abs(d1 - self.S) <= r1

    def test_feasible_ball_stays(self):
        for d, r in ((0.7, 0.5), (0.0, 0.7), (1.0, 0.35), (0.2, 1.7)):
            assert self.project(d, r) == (d, r)

    def test_infeasible_ball_lands_on_the_family_along_the_normal(self):
        s = self.S
        rng = np.random.default_rng(32)
        for _ in range(200):
            r = float(rng.uniform(0.01, 0.5))
            gap = float(rng.uniform(1e-6, 0.3))
            for side in (1.0, -1.0):  # outside the ball beyond s, then toward 0
                d = s + side * (r + gap)
                d1, r1 = self.project(d, r)
                assert r1 == pytest.approx(abs(d1 - s), rel=1e-12)
                # displaced along the normal (d toward s, r up), half the gap each
                assert d1 - d == pytest.approx(-side * gap / 2, rel=1e-9)
                assert r1 - r == pytest.approx(gap / 2, rel=1e-9)

    def test_is_the_nearest_feasible_ball(self):
        # against a dense sample of the boundary of {d >= 0, r >= |d - s|}:
        # the ray d = 0, r >= s and both branches of r = |d - s|; no box clamps
        s = self.S
        step = 1e-4
        ray = np.arange(s, 10.0, step)
        inner = np.arange(0.0, s, step)
        outer = np.arange(s, 10.0, step)
        bd = np.concatenate((np.zeros_like(ray), inner, outer))
        br = np.concatenate((ray, s - inner, outer - s))
        rng = np.random.default_rng(34)
        points = rng.uniform((-3.0, 0.0), (s + 2.0, 4.0), size=(300, 2)).tolist()
        # left of d = 0 below the ray, whose nearest ball is the corner B(0, s)
        points += [(-0.1, 0.65), (-0.5, 0.3), (-1e-3, s - 1e-3), (-1e-3, s), (-0.4, 1.2)]
        corners = 0
        for d, r in points:
            d1, r1 = search_module._project(d, r, s, 0.0, np.inf)
            assert d1 >= 0.0 and r1 >= abs(d1 - s)
            dist = np.hypot(d1 - d, r1 - r)
            assert dist <= np.hypot(bd - d, br - r).min() + 1e-12, (d, r)
            corners += (d1, r1) == (0.0, s)
        assert corners >= 3

    def test_a_centered_run_reaches_the_smallest_centered_ball_in_one_move(self):
        # from (0, r), s < r < s + h, the move (-h, r - h) projects to B(0, s)
        # itself; where the objective falls in r that poll is the best one
        s, h = self.S, 0.05
        box = (s, self.R_MIN, self.R_MAX)
        evaluate = lambda ds, rs: -(np.asarray(ds) + np.asarray(rs))
        for frac in (0.1, 0.5, 0.9):
            r = s + frac * h
            assert search_module._project(-h, r - h, *box) == (0.0, s)
            run = search_module._Run(0.0, r, h, 1e-6, box, 1)
            run.read(evaluate(run.ds, run.rs).tolist())
            assert (run.d, run.r) == (0.0, s)

    def test_edge_polls_are_the_projected_edge_moves(self):
        # the compass's written-out projection is _project's, bit for bit:
        # at each step above the stop step, the polls are the projected edge
        # moves that do not project back, in the order of the moves
        rng = np.random.default_rng(33)
        moves = ((1, 1), (-1, -1), (1, -1), (-1, 1))
        seen = set()
        for _ in range(400):
            s = float(rng.choice([0.0, 1e-3, 0.3, 0.7, 2.5]))
            r_min, r_max = 1e-4, s + 1.0
            kind = ("centered", "smallest", "largest", "family", "inside")[rng.integers(5)]
            r = float(np.exp(rng.uniform(np.log(r_min), np.log(r_max))))
            if kind == "centered":
                d = 0.0
            elif kind == "smallest":
                r = r_min
                d = float(rng.uniform(max(0.0, s - r), s + r))
            elif kind == "largest":
                r = r_max
                d = float(rng.uniform(0.0, s + r))
            elif kind == "family":  # either branch of r = |d - s|
                d = s + r if r > s or rng.random() < 0.5 else s - r
            else:
                d = float(rng.uniform(max(0.0, s - r), s + r))
            d, r = search_module._project(d, r, s, r_min, r_max)
            h = r * 10.0 ** float(rng.uniform(-8.0, 0.5))
            tol = h * 0.5 ** float(rng.uniform(-0.5, 4.5))
            ahead = int(rng.integers(1, 6))
            ds, rs, sizes = search_module._edge_polls(d, r, h, tol, ahead, s, r_min, r_max)
            steps = [h * 0.5**k for k in range(ahead) if h * 0.5**k > tol]
            expected = [[ball for ball in (search_module._project(d + vd * step, r + vr * step,
                                                                  s, r_min, r_max)
                                           for vd, vr in moves) if ball != (d, r)]
                        for step in steps]
            assert sizes == [len(polls) for polls in expected]
            assert list(zip(ds, rs)) == [ball for polls in expected for ball in polls]
            seen.update((kind, ("steps", len(steps)), ("dropped", min(sizes, default=4) < 4)))
        assert seen >= {"centered", "smallest", "largest", "family", "inside",
                        ("steps", 0), ("steps", 1), ("steps", 5),
                        ("dropped", True), ("dropped", False)}

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_steps_from_the_family_slide_both_ways(self, side):
        s, r, h = self.S, 0.3, 1e-3
        d = s + side * r  # outer contact, then inner contact
        d_in, r_in = self.project(d, r - h)            # r-step down
        d_out, r_out = self.project(d + side * h, r)   # d-step away from s
        for d1, r1 in ((d_in, r_in), (d_out, r_out)):
            assert r1 == pytest.approx(abs(d1 - s), rel=1e-12)
        assert (d_in - d) * (d_out - d) < 0.0
        assert r_in < r < r_out


class TestBoundaryFamily:
    """A best ball at the constraint is the best of the boundary family
    r = |d - s|, which the compass follows by projection."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_beats_a_dense_scan_of_both_branches(self, n):
        rng = np.random.default_rng(4000 + n)
        checked = 0
        for i, knots in enumerate((4, 12, 40, 6, 20, 30, 8, 40)):
            prof = random_profile(rng, knots, t_max=float(rng.uniform(0.5, 2.0)))
            T = prof.support_radius
            params = AmbientParams(n, (0.2, 0.5, 0.8)[i % 3])
            s = T * float(np.exp(rng.uniform(np.log(1e-2), np.log(64.0))))
            res = search(prof, s, params)
            if res.contact.kind == "interior":
                continue
            checked += 1
            rs = np.geomspace(search_module.R_MIN_FRAC * T, s + T, 4000)
            inner = rs[rs <= s]
            ds = np.concatenate((s + rs, s - inner))
            scan = fixed_rule_objective(prof, ds, np.concatenate((rs, inner)), params)
            assert res.value >= (1 - 1e-6) * float(np.max(scan)), (knots, s / T)
        assert checked >= 3


class TestCoarseGrid:
    """Each coarse row spans the feasible centers of its radius, so its ends
    are the boundary balls r = |d - s| wherever those are feasible."""

    @pytest.mark.parametrize("s_over_T", [0.0, 1e-3, 0.3, 1.0, 1.7, 64.0])
    def test_rows_end_on_the_boundary_family(self, s_over_T):
        T = 1.3
        s = s_over_T * T
        ds, rs, step = search_module._coarse_balls(s, T)
        ds = ds.reshape(-1, search_module.D_PER_ROW)
        rs = rs.reshape(-1, search_module.D_PER_ROW)
        r = rs[:, 0]
        assert np.all(rs == r[:, None])
        assert r[0] >= search_module.R_MIN_FRAC * T and r[-1] == pytest.approx(s + T)
        assert r[1] / r[0] - 1.0 == pytest.approx(step)
        assert np.all(np.diff(ds, axis=1) >= 0.0)
        inner = r <= s
        np.testing.assert_allclose(ds[inner, 0], s - r[inner], rtol=0, atol=1e-15 * (s + T))
        assert np.all(ds[~inner, 0] == 0.0)
        if s <= T:
            np.testing.assert_allclose(ds[:, -1], s + r, rtol=1e-15)
        # every coarse ball is feasible, up to rounding on the scale of s + r
        assert np.all(np.abs(ds - s) - rs <= 1e-15 * (s + rs))

    def test_halved_grid_is_half_the_grid(self):
        # the grid is built in units of T: halving s and T halves every ball
        # exactly and keeps the row step
        rng = np.random.default_rng(31)
        for _ in range(200):
            T = float(rng.uniform(0.1, 10.0))
            s = T * 10.0 ** float(rng.uniform(-3.0, 2.0))
            ds, rs, step = search_module._coarse_balls(s, T)
            half = search_module._coarse_balls(s / 2, T / 2)
            assert np.array_equal(half[0], ds / 2) and np.array_equal(half[1], rs / 2)
            assert half[2] == step


class TestCoarseStarts:
    """Every coarse ball is ranked; the starts are the best ball, the first
    of an exact tie in grid order, then distinct balls within POOL_FRACTION
    of it."""

    @staticmethod
    def check_starts(starts, values, ds, rs):
        best = values.max()
        first = int(np.flatnonzero(values == best)[0])
        assert starts[0] == (values[first], ds[first], rs[first])
        assert 1 <= len(starts) <= search_module.MULTISTARTS
        for i, (val, d, r) in enumerate(starts):
            assert val >= search_module.POOL_FRACTION * best
            for _, dk, rk in starts[:i]:
                assert max(abs(d - dk), abs(r - rk)) > 0.05 * max(r, rk)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_starts_of_random_grids(self, n, monkeypatch):
        rng = np.random.default_rng(1000 + n)
        tied = 0
        for i, knots in enumerate((4, 12, 40, 200, 20, 100)):
            prof = random_profile(rng, knots, t_max=float(rng.uniform(0.5, 2.0)))
            T = prof.support_radius
            params = AmbientParams(n, (0.2, 0.5, 0.8)[i % 3])
            s = T * float(np.exp(rng.uniform(np.log(1e-2), np.log(64.0))))
            ds, rs, _ = search_module._coarse_balls(s, T)
            values = fixed_rule_objective(prof, ds, rs, params, unit=T)
            self.check_starts(search_module._coarse_starts(prof, ds, rs, params), values, ds, rs)
            # rounded values tie exactly across distinct balls; values that fall
            # along the grid put balls below POOL_FRACTION among the top ones; no
            # value is positive in the all-zero grid, whose first ball is then
            # the only start
            falling = 0.8 ** np.arange(len(ds))
            for values in (np.round(values, 2), falling, np.zeros(len(ds))):
                with monkeypatch.context() as m:
                    m.setattr(search_module, "fixed_rule_objective",
                              lambda *args, **kwargs: values)
                    starts = search_module._coarse_starts(prof, ds, rs, params)
                self.check_starts(starts, values, ds, rs)
                tied += np.count_nonzero(values == values.max()) > 1
                if values is falling:
                    pool = falling >= search_module.POOL_FRACTION
                    assert starts == search_module._dedupe_candidates(
                        list(zip(falling[pool], ds[pool], rs[pool])), search_module.MULTISTARTS)
            assert starts == [(0.0, ds[0], rs[0])]
        assert tied > 6


def sequential_compass(evaluate, d0, r0, h, project, tol, max_evals):
    """The compass one request at a time, without look-ahead: the reference
    for search._compass.  It polls the edge moves (d +- h, r +- h), moves to
    the best improving one at the same step, else halves the step.
    Returns (d, r, value, converged) and the number of requests."""
    d, r = project(d0, r0)
    best, evals, requests = evaluate([(d, r)])[0], 1, 1
    while evals < max_evals:
        if h <= tol:
            return (d, r, best, True), requests
        fresh = [(v, project(d + v[0] * h, r + v[1] * h))
                 for v in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
        fresh = [(v, c) for v, c in fresh if c != (d, r)]
        k = None
        if fresh:
            vals = evaluate([c for _, c in fresh])
            evals, requests = evals + len(fresh), requests + 1
            k = int(np.argmax(vals))
        if k is None or vals[k] <= best:
            h *= 0.5
            continue
        (_, (d, r)), best = fresh[k], vals[k]
    return (d, r, best, False), requests


class TestCompassLookAhead:
    """Each round a compass run asks for its polls at h and at the next
    steps (h/2 on the coarse pass, h/2 to h/8 on the fine one) and reads
    them in the sequential order: every endpoint, value and flag is the
    sequential compass's, in fewer rounds."""

    @staticmethod
    def starts(rng, s, T, count):
        """Random starts (s, d, r), which the compass projects, every other
        one on the boundary family r = |d - s| (its inner branch only where
        r <= s)."""
        rs = (s + T) * 10.0 ** rng.uniform(-3.0, 0.0, size=count)
        ds = rng.uniform(0.0, 1.0, size=count) * (s + rs)
        inner = rng.random(count) < 0.5
        ds[::2] = np.where(inner & (rs <= s), s - rs, s + rs)[::2]
        return [(s, d, r) for d, r in zip(ds.tolist(), rs.tolist())]

    @staticmethod
    def run_both(prof, params, starts, fine):
        """Runs from starts (s, d, r) at radius s, each on the coarse pass
        of search or, where fine is true for it, on the fine pass: all in
        one _compass call, then each one alone with sequential_compass."""
        T = prof.support_radius
        r_min = search_module.R_MIN_FRAC * T
        calls = []

        def evaluate(ds, rs):
            calls.append(len(ds))
            return fixed_rule_objective(prof, ds, rs, params)

        def one_by_one(balls):
            ds, rs = zip(*balls)
            return evaluate(np.array(ds), np.array(rs)).tolist()

        # the coarse and the fine pass of search
        steps = [(1e-3 * r, search_module.REFINE_TOL * r, search_module.FINE_AHEAD) if on
                 else (0.1 * r, 1e-4 * r, search_module.COARSE_AHEAD)
                 for (_, _, r), on in zip(starts, np.broadcast_to(fine, len(starts)))]
        projects = [partial(search_module._project, s=s, r_min=r_min, r_max=s + T)
                    for s, _, _ in starts]
        runs = [search_module._Run(d, r, h, tol, (s, r_min, s + T), ahead)
                for (s, d, r), (h, tol, ahead) in zip(starts, steps)]
        search_module._compass(evaluate, runs)
        rounds = len(calls)
        reference = [sequential_compass(one_by_one, d, r, h, project, tol,
                                        search_module.REFINE_MAX_EVALS)
                     for (_, d, r), (h, tol, _), project in zip(starts, steps, projects)]
        return ([run.end for run in runs], [out for out, _ in reference], rounds,
                [n for _, n in reference])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_same_endpoints_as_the_sequential_compass(self, n):
        rng = np.random.default_rng(2000 + n)
        prof = random_profile(rng, 12, t_max=float(rng.uniform(0.5, 2.0)))
        T = prof.support_radius
        params = AmbientParams(n, (0.2, 0.5, 0.8)[n % 3])
        checked = 0
        for s in (0.05 * T, 0.6 * T, 3.0 * T):
            for fine in (False, True):
                starts = self.starts(rng, s, T, 9)
                shipped, reference, rounds, requests = self.run_both(
                    prof, params, starts, fine)
                assert shipped == reference
                # the look-ahead saves rounds: all runs together take fewer
                # than the longest sequential run
                assert rounds < max(requests)
                checked += len(starts)
        assert checked >= 50

    def test_evaluation_cap_inside_a_look_ahead_round(self, params2, monkeypatch):
        prof = random_profile(np.random.default_rng(2010), 12)
        T = prof.support_radius
        stopped = 0
        for cap in (2, 5, 6, 7, 9, 12, 17, 30):
            monkeypatch.setattr(search_module, "REFINE_MAX_EVALS", cap)
            starts = self.starts(np.random.default_rng(cap), 0.6 * T, T, 6)
            shipped, reference, _, _ = self.run_both(prof, params2, starts, True)
            assert shipped == reference
            stopped += sum(not ok for *_, ok in shipped)
        assert stopped > 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_mixed_radii_and_stop_steps_in_one_call(self, n):
        # as the points of a lock-step sweep: runs at two radii, so two
        # projections, on both passes of search, share every round
        rng = np.random.default_rng(2020 + n)
        prof = random_profile(rng, 12, t_max=float(rng.uniform(0.5, 2.0)))
        T = prof.support_radius
        params = AmbientParams(n, 0.5)
        starts = self.starts(rng, 0.3 * T, T, 8) + self.starts(rng, 1.7 * T, T, 8)
        fine = np.arange(len(starts)) % 3 == 0
        shipped, reference, rounds, requests = self.run_both(prof, params, starts, fine)
        assert shipped == reference
        assert rounds < max(requests)


class TestRegions:
    def test_partition_and_thresholds(self, params2, rng):
        prof = random_profile(rng, 7)
        grid = GridSpec.standard(prof, 24)
        mp = maximal_profile(prof, grid, params2)
        for res in mp.results:
            assert res.region in ("zero_derivative", "E1", "E2", "E3")
            if res.contact.kind == "interior":
                assert res.region == "zero_derivative"
            else:
                c = res.contact.c
                assert c >= 0.0
                expected = "E1" if c > 1.25 else ("E2" if c < 0.75 else "E3")
                assert res.region == expected

    def test_shell_profile_has_outer_contact_e1(self):
        # concentrated outer mass with a weak radius reward pulls the best
        # ball beyond the evaluation point
        prof = load_profile([(0, 0), (1.8, 0), (2, 1), (2.2, 0)])
        res = search(prof, 1.2, AmbientParams(2, 0.1))
        assert res.contact.kind == "boundary_outer"
        assert res.contact.c > 1.25
        assert res.region == "E1"


class TestDerivatives:
    def test_interior_contact_exactly_zero(self, params2):
        res = search(chi_profile(), 0.2, params2)
        assert res.contact.kind == "interior"
        assert derivative_by_formula(chi_profile(), res, params2) == 0.0

    def test_sign_rule(self, params2, standard_profiles):
        for prof in standard_profiles.values():
            mp = maximal_profile(prof, GridSpec.standard(prof, 24), params2)
            mmax = float(np.max(np.abs(mp.deriv_formula)))
            for i, res in enumerate(mp.results):
                m_prime = mp.deriv_formula[i]
                if abs(m_prime) > 1e-6 * mmax:
                    assert np.sign(m_prime) == np.sign(res.ball.d - res.s)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_formula_channel_is_derivative_by_formula_bit_for_bit(self, n):
        # one batch for a sweep's boundary rows, and zeros at interior ones
        params = AmbientParams(n, 0.5)
        kinds = set()
        for prof in (two_bump(), random_profile(np.random.default_rng(130 + n), 12)):
            pts = GridSpec.standard(prof, 16).refined().tolist()
            results = search_module._search_points(prof, pts, params)
            batch = search_module._formula_channel(prof, results, params)
            lone = np.array([derivative_by_formula(prof, res, params) for res in results])
            assert np.array_equal(batch.view(np.int64), lone.view(np.int64))
            kinds.update(res.contact.kind for res in results)
        assert "interior" in kinds and len(kinds) > 1

    def test_fd_linear_exact(self):
        assert np.allclose(derivative_by_fd([1.0, 2.0, 4.0], [2.0, 4.0, 8.0]), 2.0, atol=1e-12)

    def test_fd_constant_zero(self):
        assert np.allclose(derivative_by_fd([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]), 0.0, atol=1e-15)

    def test_fd_quadratic_exact_on_a_geometric_grid(self):
        # every stencil, the one-sided ends included, is exact for quadratics;
        # what is left is the rounding of m divided by the smallest step
        s = np.geomspace(0.05, 8.0, 24)
        m = 1.3 - 0.7 * s + 0.25 * s**2
        grid, values = s.copy(), m.copy()
        d = derivative_by_fd(grid, values)
        assert np.array_equal(grid, s) and np.array_equal(values, m)
        tol = 64 * np.finfo(float).eps * np.max(np.abs(m)) / np.min(np.diff(s))
        assert np.max(np.abs(d - (-0.7 + 0.5 * s))) <= tol

    def test_fd_needs_three_points(self):
        with pytest.raises(ValueError):
            derivative_by_fd([1.0, 2.0], [1.0, 2.0])

    def test_corner_flags_at_ball_jumps(self, params2):
        prof = load_profile([(0, 1), (1, 0), (2, 0), (2.5, 0.8), (3, 0)])
        mp = maximal_profile(prof, GridSpec.standard(prof, 48), params2)
        jumps = []
        for i in range(len(mp.grid) - 1):
            a, b = mp.results[i], mp.results[i + 1]
            scale = max(a.ball.r, b.ball.r)
            if max(abs(a.ball.d - b.ball.d), abs(a.ball.r - b.ball.r)) > 0.1 * scale:
                jumps.extend([i, i + 1])
        assert jumps, "two-bump sweep should switch best-ball basins"
        assert all(mp.corner_flags[j] for j in jumps)

    def test_corner_flags_at_knot_crossings_alone(self, params2):
        # s passes the knots 1 and 2 of the two-bump while the best ball and
        # its contact kind stay put: only the knot test flags these pairs
        prof = two_bump()
        mp = maximal_profile(prof, GridSpec.standard(prof, 24), params2)
        crossings = []
        for i, (a, b) in enumerate(zip(mp.results, mp.results[1:])):
            jump = max(abs(a.ball.d - b.ball.d), abs(a.ball.r - b.ball.r)) / max(a.ball.r, b.ball.r)
            lo, hi = min(a.s, b.s), max(a.s, b.s)
            if jump <= JUMP_REL and a.contact.kind == b.contact.kind \
                    and np.any((prof.knots_t > lo) & (prof.knots_t < hi)):
                crossings.append(i)
        assert len(crossings) >= 2
        assert all(mp.corner_flags[i] and mp.corner_flags[i + 1] for i in crossings)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_corner_flags_equal_the_pairwise_rule(self, n):
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(110 + n), 12)
        mp = maximal_profile(prof, GridSpec.standard(prof, 24), params)
        assert np.array_equal(mp.corner_flags, pairwise_corner_flags(mp.results, prof.knots_t))

    def test_corner_flags_need_a_knot_strictly_between(self, params2):
        # one interior ball for every point, so only s can cross a knot; the
        # first pair ends on the knots 0.5 and 1, the last holds the knot 2
        prof = load_profile([(0, 1), (0.5, 0.6), (1, 0.2), (2, 0.1), (3, 0)])
        ball = AxisBall(1.5, 1.5)
        pts = np.array([0.5, 1.0, 1.25, 1.5, 2.5])
        results = [BestBallResult(s=float(s), value=1.0, ball=ball,
                                  contact=classify_contact(ball, float(s), CONTACT_TOL),
                                  region="zero_derivative", objective_evals=0, converged=True)
                   for s in pts]
        mp = search_module._build_profile(prof, pts, results, params2)
        assert mp.corner_flags.tolist() == [False, False, False, True, True]
        assert np.array_equal(mp.corner_flags, pairwise_corner_flags(results, prof.knots_t))
        assert np.array_equal(mp.deriv_formula, np.zeros(5))


class TestSweepEquivariance:
    def test_scaling_profile(self, params2, tent_profile):
        grid = GridSpec.standard(tent_profile, 12)
        mp1 = maximal_profile(tent_profile, grid, params2)
        mp2 = maximal_profile(scale_profile(tent_profile, 3.0), grid, params2)
        assert np.allclose(mp2.values, 3.0 * mp1.values, rtol=1e-12)
        # scaled knot values round differently at the last bit, so the
        # comparison-driven path agrees only up to the refinement tolerance
        for a, b in zip(mp1.results, mp2.results):
            scale = max(a.ball.r, b.ball.r)
            assert abs(a.ball.d - b.ball.d) <= 1e-6 * scale
            assert abs(a.ball.r - b.ball.r) <= 1e-6 * scale

    def test_dilation(self, params2, tent_profile):
        lam = 2.0
        grid = GridSpec.standard(tent_profile, 10)
        mp1 = maximal_profile(tent_profile, grid, params2)
        grid_d = GridSpec(grid.lo / lam, grid.hi / lam, grid.count, grid.log)
        mp2 = maximal_profile(dilate_profile(tent_profile, lam), grid_d, params2)
        assert np.allclose(mp2.values, lam ** (-params2.beta) * mp1.values,
                           rtol=1e-9)
        for a, b in zip(mp1.results, mp2.results):
            assert b.ball.r == pytest.approx(a.ball.r / lam, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_dilation_by_a_power_of_two_dilates_every_ball(self, n):
        # the search ranks and compares values in units of T, which dilating
        # the profile by a power of two leaves unchanged bit for bit: no
        # comparison flips, and every ball is the base ball over lambda
        params = AmbientParams(n, (0.2, 0.5, 0.8)[n % 3])
        for prof in (tent(), annular_bump(), two_bump(),
                     random_profile(np.random.default_rng(120 + n), 12)):
            pts = GridSpec.standard(prof, 12).points().tolist()
            base = search_module._search_points(prof, pts, params)
            for lam in (2.0, 0.5):
                dilated = search_module._search_points(dilate_profile(prof, lam),
                                                       [s / lam for s in pts], params)
                assert [(res.ball.d, res.ball.r) for res in dilated] == \
                    [(res.ball.d / lam, res.ball.r / lam) for res in base]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rows_are_lone_searches(self, n):
        # a sweep row depends only on its radius: every field of it is what a
        # lone search of that radius returns
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(90 + n), 4 + 6 * n)
        grid = GridSpec.standard(prof, 8)
        mp = maximal_profile(prof, grid, params)
        assert mp.results == [search(prof, float(s), params) for s in grid.points()]


class TestRefinedProfile:
    """The lock-step sweep a ratio report runs on the refined grid."""

    def test_reuses_base_results(self, params2, tent_profile, monkeypatch):
        # the report's base sweep is the even slice of its refined sweep,
        # built on the base grid, whose stencils its differences use
        grid = GridSpec.standard(tent_profile, 6)
        sweeps, slices = [], []
        sweep, build = variation_module._sweep, variation_module._build_profile

        def recording_sweep(profile, pts, params):
            sweeps.append(sweep(profile, pts, params))
            return sweeps[-1]

        def recording_build(profile, pts, results, params, **formula):
            slices.append(build(profile, pts, results, params, **formula))
            return slices[-1]

        monkeypatch.setattr(variation_module, "_sweep", recording_sweep)
        monkeypatch.setattr(variation_module, "_build_profile", recording_build)
        variation_report(tent_profile, params2, grid, include_dilation=False)
        (fine,), (base,) = sweeps, slices
        assert np.array_equal(fine.grid, grid.refined())
        assert np.array_equal(base.grid, grid.points())
        assert all(a is b for a, b in zip(base.results, fine.results[0::2]))
        assert np.array_equal(base.deriv_formula, fine.deriv_formula[0::2])
        assert np.array_equal(base.values, fine.values[0::2])
        lone = maximal_profile(tent_profile, grid, params2)
        assert np.array_equal(base.deriv_fd, lone.deriv_fd)
        assert np.array_equal(base.corner_flags, lone.corner_flags)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_lockstep_rows_equal_lone_searches(self, n):
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(70 + n), 12)
        pts = GridSpec.standard(prof, 8).refined()
        fine = search_module._sweep(prof, pts, params)
        assert fine.results == [search(prof, float(s), params) for s in pts]
        assert np.array_equal(fine.values, [res.value for res in fine.results])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equals_the_sweep_of_the_refined_grid(self, n):
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(80 + n), 4 + 6 * n)
        pts = GridSpec.standard(prof, 5).refined()
        fine = search_module._sweep(prof, pts, params)
        lone = maximal_profile(prof, pts, params)
        assert fine.results == lone.results
        for channel in ("values", "deriv_fd", "deriv_formula", "corner_flags"):
            assert np.array_equal(getattr(fine, channel), getattr(lone, channel))

    def test_report_searches_three_grids_minus_one(self, params2, tent_profile, monkeypatch):
        count = 5
        calls = []
        original = search_module._search_points

        def counting(profile, pts, params):
            calls.extend(pts)
            return original(profile, pts, params)

        monkeypatch.setattr(search_module, "_search_points", counting)
        # on one CPU every point is searched in this process
        monkeypatch.setattr(search_module, "_cpus", lambda: 1)
        variation_report(tent_profile, params2, GridSpec.standard(tent_profile, count))
        assert len(calls) == 3 * count - 1


def raising_at(radius, original):
    """_centered_best that raises a ValueError when its radii hold one radius:
    in the half of a two-process sweep that searches it."""
    def centered_best(profile, pts, params):
        if radius in pts:
            raise ValueError(f"planted failure at s={radius}")
        return original(profile, pts, params)
    return centered_best


class TestTwoProcessSweep:
    """On two or more CPUs a lock-step sweep searches its odd-indexed radii
    in one forked child; its rows, channels and reports are those of one
    process, and no child outlives it."""

    @pytest.fixture()
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["tent", "random12"])
    def test_rows_channels_and_report_do_not_depend_on_cpus(self, kind, n, forks, monkeypatch):
        prof = tent() if kind == "tent" else random_profile(np.random.default_rng(60 + n), 12)
        params = AmbientParams(n, 0.5)
        grid = GridSpec.standard(prof, 8)
        out = {}
        for cpus in (1, 2):
            monkeypatch.setattr(search_module, "_cpus", lambda: cpus)
            out[cpus] = (search_module._sweep(prof, grid.refined(), params),
                         variation_report(prof, params, grid).to_json())
        # one fork per sweep on two CPUs: the refined grid, the report's two
        assert len(forks) == 3
        (one, report_one), (two, report_two) = out[1], out[2]
        assert two.results == one.results
        for channel in ("grid", "values", "deriv_fd", "deriv_formula", "corner_flags"):
            assert np.array_equal(getattr(two, channel), getattr(one, channel))
        assert report_two == report_one
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_keeps_its_type(self, params2, tent_profile, monkeypatch):
        pts = GridSpec.standard(tent_profile, 5).refined()
        monkeypatch.setattr(search_module, "_cpus", lambda: 2)
        monkeypatch.setattr(search_module, "_centered_best",
                            raising_at(float(pts[1]), search_module._centered_best))
        with pytest.raises(ValueError, match="planted failure"):
            search_module._sweep(tent_profile, pts, params2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_is_a_ratio_input_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "tent.json"
        path.write_text(json.dumps({"knots": [[0, 1], [1, 0]]}))
        pts = GridSpec(0.01, 8.0, 5).refined()
        monkeypatch.setattr(search_module, "_cpus", lambda: 2)
        monkeypatch.setattr(search_module, "_centered_best",
                            raising_at(float(pts[3]), search_module._centered_best))
        rc = main(["ratio", "--n", "2", "--beta", "0.5", "--profile", str(path),
                   "--grid", "0.01:8:5:log", "--refine"])
        assert rc == 2
        assert "planted failure" in capsys.readouterr().err

    def test_parent_error_leaves_no_child(self, params2, tent_profile, forks, monkeypatch):
        pts = GridSpec.standard(tent_profile, 16).refined()
        monkeypatch.setattr(search_module, "_cpus", lambda: 2)
        monkeypatch.setattr(search_module, "_centered_best",
                            raising_at(float(pts[0]), search_module._centered_best))
        with pytest.raises(ValueError, match="planted failure"):
            search_module._sweep(tent_profile, pts, params2)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_that_ends_without_a_result_is_an_error(self, params2, tent_profile,
                                                          monkeypatch):
        parent, original = os.getpid(), search_module._search_points

        def dying_in_the_child(profile, pts, params):
            if os.getpid() != parent:
                os._exit(3)
            return original(profile, pts, params)

        monkeypatch.setattr(search_module, "_cpus", lambda: 2)
        monkeypatch.setattr(search_module, "_search_points", dying_in_the_child)
        with pytest.raises(RuntimeError, match="without a result"):
            search_module._sweep(tent_profile, GridSpec.standard(tent_profile, 4).points(),
                                 params2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_lone_searches_and_maximal_profiles_never_fork(self, params2, tent_profile,
                                                           monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(search_module, "_cpus", lambda: 2)
        grid = GridSpec.standard(tent_profile, 4)
        mp = maximal_profile(tent_profile, grid, params2)
        assert mp.results[1] == search(tent_profile, float(grid.points()[1]), params2)
        # nor does a sweep on one CPU
        monkeypatch.setattr(search_module, "_cpus", lambda: 1)
        assert search_module._sweep(tent_profile, grid.points(), params2).results == mp.results


class TestGridSpec:
    def test_refined_contains_base(self, tent_profile):
        g = GridSpec.standard(tent_profile, 16)
        base, fine = g.points(), g.refined()
        assert len(fine) == 31
        assert np.array_equal(fine[::2], base)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 2)
        for lo, hi in ((0.01, np.inf), (np.nan, 1.0), (0.01, np.nan)):
            with pytest.raises(ValueError, match=f"{lo:g}:{hi:g}"):
                GridSpec(lo, hi, 5)
        with pytest.raises(ValueError, match="0.1:1:3.5:log"):
            GridSpec(0.1, 1.0, 3.5)
        assert len(GridSpec(0.1, 1.0, np.int64(5)).points()) == 5

    @pytest.mark.parametrize("pts", [[0.2, 0.2, 0.9], [0.2, 0.5], [0.2, np.nan, 0.9],
                                     [0.2, 0.5, np.inf], [0.9, 0.5, 0.2], [0.0, 0.5, 0.9],
                                     [[0.2, 0.5, 0.9]]])
    def test_array_grid_checked_before_any_search(self, pts, params2, tent_profile, monkeypatch):
        calls = []
        monkeypatch.setattr(search_module, "search", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="grids need 3 or more"):
            maximal_profile(tent_profile, pts, params2)
        assert calls == []
