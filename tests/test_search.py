"""Best-ball search: trivial cases, oracle probes, sweeps, derivatives."""

import importlib

import numpy as np
import pytest

from maxvar.averages import ball_average, batch_objective, fixed_rule_objective
from maxvar.core import AmbientParams, l1_norm, load_profile
from maxvar.families import dilate_profile, random_profile, scale_profile, tent, two_bump
from maxvar.geometry import AxisBall, InfeasibleBallError
from maxvar.oracles import oracle_1d_maximal
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import (CONTACT_TOL, TIE_TOL, GridSpec, MaximalProfile,
                           derivative_by_fd, derivative_by_formula,
                           maximal_profile, objective, refined_profile, search)
from maxvar.variation import variation_report

search_module = importlib.import_module("maxvar.search")

from conftest import rel_err


def chi_profile():
    return load_profile([(0, 1), (1, 1), (1, 0)])


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
        endpoints = []
        lockstep = search_module._lockstep

        def recording(evaluate, runs):
            out = lockstep(evaluate, runs)
            endpoints.extend(out)
            return out

        monkeypatch.setattr(search_module, "_lockstep", recording)
        res = search(tent_profile, 0.5, params2)
        best = max(v for _, _, v, _ in endpoints)
        tied = [(d, r) for d, r, v, _ in endpoints if v >= best - TIE_TOL * best]
        assert len(tied) > 1
        assert res.tie_candidates == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_value_is_the_objective_bit_for_bit(self, n, monkeypatch):
        # one rule at every n: the value the compass got for the ball inside
        # its batch is the result's, and the public objective's, bit for bit
        finals = []
        lockstep = search_module._lockstep

        def recording(evaluate, runs):
            out = lockstep(evaluate, runs)
            finals[:] = out
            return out

        monkeypatch.setattr(search_module, "_lockstep", recording)
        params = AmbientParams(n, 0.5)
        prof = random_profile(np.random.default_rng(60 + n), 12)
        T = prof.support_radius
        others = np.random.default_rng(n).uniform(0.05 * T, T, size=(2, 7))
        for s in (0.05, 0.5, 2.0):
            s *= T
            res = search(prof, s, params)
            compass = [v for d, r, v, _ in finals if (d, r) == (res.ball.d, res.ball.r)]
            batch = fixed_rule_objective(prof, np.append(others[0], res.ball.d),
                                         np.append(others[1], res.ball.r), params)
            assert compass and res.value == compass[0] == batch[-1]
            assert res.value == objective(prof, s, res.ball, params)

    def test_zero_radius_rejected(self, params2, tent_profile):
        with pytest.raises(ValueError):
            search(tent_profile, -0.5, params2)

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, params2, tent_profile, s):
        with pytest.raises(ValueError, match=str(s)):
            search(tent_profile, s, params2)

    @pytest.mark.xfail(strict=True, reason="the search misses the better ball (0, 2.87) of "
                                           "two_bump at this s; a certified search must find it")
    def test_two_bump_best_ball_found(self, params2):
        prof = two_bump()
        s = GridSpec.standard(prof, 40).points()[18]
        res = search(prof, s, params2)
        better = objective(prof, s, AxisBall(0.0, 2.87), params2, Q)
        assert res.value >= better * (1.0 - 1e-9)


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


class TestCoarsePruning:
    """The bound skips only coarse balls that cannot reach the start pool."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pruning_keeps_the_starts(self, n, monkeypatch):
        rng = np.random.default_rng(1000 + n)
        keep_all = lambda profile, ds, rs, params: np.full(len(ds), np.inf)
        skipped = 0
        for i, knots in enumerate((4, 12, 40, 200, 20, 100)):
            prof = random_profile(rng, knots, t_max=float(rng.uniform(0.5, 2.0)))
            T = prof.support_radius
            params = AmbientParams(n, (0.2, 0.5, 0.8)[i % 3])
            s = T * float(np.exp(rng.uniform(np.log(1e-2), np.log(64.0))))
            ds, rs, _ = search_module._coarse_balls(s, T)
            bound = search_module._objective_bound(prof, ds, rs, params)
            assert np.all(batch_objective(prof, ds, rs, params)
                          <= search_module.BOUND_SLACK * bound)
            starts, ranked = search_module._coarse_starts(prof, ds, rs, params)
            with monkeypatch.context() as m:
                m.setattr(search_module, "_objective_bound", keep_all)
                full_starts, full_ranked = search_module._coarse_starts(prof, ds, rs, params)
            assert starts == full_starts
            assert full_ranked == len(ds)
            skipped += len(ds) - ranked
        assert skipped > 0


def sequential_compass(evaluate, d0, r0, step_d, step_r, project, tol, max_evals):
    """The compass one request at a time, without look-ahead: the reference
    for search._compass.  Returns (d, r, value, converged) and the number
    of requests."""
    d, r = project(d0, r0)
    best, evals, requests = evaluate([(d, r)])[0], 1, 1
    sd, sr = step_d, step_r
    while evals < max_evals:
        if max(sd, sr) <= tol:
            return (d, r, best, True), requests
        fresh = [(v, project(d + v[0] * sd, r + v[1] * sr))
                 for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        fresh = [(v, c) for v, c in fresh if c != (d, r)]
        k = None
        if fresh:
            vals = evaluate([c for _, c in fresh])
            evals, requests = evals + len(fresh), requests + 1
            k = int(np.argmax(vals))
        if k is None or vals[k] <= best:
            sd, sr = 0.5 * sd, 0.5 * sr
            continue
        (vd, vr), (d, r) = fresh[k]
        best, grow = vals[k], 2.0
        while evals < max_evals:
            cand = project(d + vd * sd * grow, r + vr * sr * grow)
            if cand == (d, r):
                break
            val = evaluate([cand])[0]
            evals, requests = evals + 1, requests + 1
            if val <= best:
                break
            (d, r), best, grow = cand, val, 2.0 * grow
    return (d, r, best, False), requests


class TestCompassLookAhead:
    """The compass asks one request ahead and replays the answers in the
    sequential order: every endpoint, value and flag is the sequential
    compass's, in fewer rounds."""

    @staticmethod
    def starts(rng, s, T, count):
        """Random starts, which the compass projects, every other one on the
        boundary family r = |d - s| (its inner branch only where r <= s)."""
        rs = (s + T) * 10.0 ** rng.uniform(-3.0, 0.0, size=count)
        ds = rng.uniform(0.0, 1.0, size=count) * (s + rs)
        inner = rng.random(count) < 0.5
        ds[::2] = np.where(inner & (rs <= s), s - rs, s + rs)[::2]
        return list(zip(ds.tolist(), rs.tolist()))

    @staticmethod
    def run_both(prof, s, params, starts, fine):
        T = prof.support_radius
        r_min = search_module.R_MIN_FRAC * T
        project = lambda d, r: search_module._project(d, r, s, r_min, s + T)
        calls = []

        def evaluate(ds, rs):
            calls.append(len(ds))
            return fixed_rule_objective(prof, ds, rs, params)

        def one_by_one(balls):
            ds, rs = zip(*balls)
            return evaluate(np.array(ds), np.array(rs)).tolist()

        # the coarse and the fine pass of search
        steps = [(0.1 * r, 0.1 * r, 1e-4 * r) if not fine else
                 (1e-3 * r, 1e-3 * r, search_module.REFINE_TOL * r) for _, r in starts]
        shipped = search_module._lockstep(evaluate, [
            search_module._compass(d, r, sd, sr, project, tol)
            for (d, r), (sd, sr, tol) in zip(starts, steps)])
        rounds = len(calls)
        reference = [sequential_compass(one_by_one, d, r, sd, sr, project, tol,
                                        search_module.REFINE_MAX_EVALS)
                     for (d, r), (sd, sr, tol) in zip(starts, steps)]
        return shipped, [out for out, _ in reference], rounds, [n for _, n in reference]

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
                    prof, s, params, starts, fine)
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
            shipped, reference, _, _ = self.run_both(prof, 0.6 * T, params2, starts, True)
            assert shipped == reference
            stopped += sum(not ok for *_, ok in shipped)
        assert stopped > 0


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
        assert derivative_by_formula(chi_profile(), res, params2, Q) == 0.0

    def test_sign_rule(self, params2, standard_profiles):
        for prof in standard_profiles.values():
            mp = maximal_profile(prof, GridSpec.standard(prof, 24), params2)
            mmax = float(np.max(np.abs(mp.deriv_formula)))
            for i, res in enumerate(mp.results):
                m_prime = mp.deriv_formula[i]
                if abs(m_prime) > 1e-6 * mmax:
                    assert np.sign(m_prime) == np.sign(res.ball.d - res.s)

    def test_fd_linear_exact(self):
        mp = MaximalProfile(grid=np.array([1.0, 2.0, 4.0]),
                            values=np.array([2.0, 4.0, 8.0]), results=[])
        mp.deriv_formula = np.zeros(3)

        class Stub:
            def __init__(self):
                self.ball = AxisBall(1.0, 1.0)
                self.contact = type("C", (), {"kind": "interior"})()
                self.s = 1.0
        mp.results = [Stub(), Stub(), Stub()]
        d = derivative_by_fd(mp)
        assert np.allclose(d, 2.0, atol=1e-12)

    def test_fd_constant_zero(self):
        mp = MaximalProfile(grid=np.array([1.0, 2.0, 3.0]),
                            values=np.array([5.0, 5.0, 5.0]), results=[])
        mp.deriv_formula = np.zeros(3)

        class Stub:
            def __init__(self):
                self.ball = AxisBall(1.0, 1.0)
                self.contact = type("C", (), {"kind": "interior"})()
                self.s = 1.0
        mp.results = [Stub(), Stub(), Stub()]
        assert np.allclose(derivative_by_fd(mp), 0.0, atol=1e-15)

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

    def test_warm_start_advisory(self, params2, tent_profile):
        # a sweep warm-starts each point from its left neighbor's ball; the
        # global coarse stage still runs, so the value is the cold one
        grid = GridSpec.standard(tent_profile, 10)
        mp = maximal_profile(tent_profile, grid, params2)
        for s, left in zip(mp.grid[1:], mp.results[:-1]):
            warm = search(tent_profile, float(s), params2, warm=left.ball)
            cold = search(tent_profile, float(s), params2)
            assert warm.value == pytest.approx(cold.value, rel=1e-8)


class TestRefinedProfile:
    def test_reuses_base_results(self, params2, tent_profile):
        grid = GridSpec.standard(tent_profile, 6)
        base = maximal_profile(tent_profile, grid, params2)
        fine = refined_profile(tent_profile, grid, base, params2)
        assert np.array_equal(fine.grid, grid.refined())
        assert all(a is b for a, b in zip(fine.results[0::2], base.results))
        assert np.array_equal(fine.deriv_formula[0::2], base.deriv_formula)
        for i in range(1, len(fine.grid), 2):
            res = fine.results[i]
            assert res.s == fine.grid[i]
            assert fine.values[i] == res.value

    def test_midpoints_warm_start_from_left_neighbor(self, params2, tent_profile, monkeypatch):
        grid = GridSpec.standard(tent_profile, 5)
        base = maximal_profile(tent_profile, grid, params2)
        warms = []
        original = search_module.search

        def recording(profile, s, params, warm=None):
            warms.append(warm)
            return original(profile, s, params, warm=warm)

        monkeypatch.setattr(search_module, "search", recording)
        refined_profile(tent_profile, grid, base, params2)
        assert warms == [r.ball for r in base.results[:-1]]

    def test_report_searches_three_grids_minus_one(self, params2, tent_profile, monkeypatch):
        count = 5
        calls = []
        original = search_module.search

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(search_module, "search", counting)
        variation_report(tent_profile, params2, GridSpec.standard(tent_profile, count))
        assert len(calls) == 3 * count - 1

    def test_rejects_foreign_base(self, params2, tent_profile):
        base = maximal_profile(tent_profile, GridSpec.standard(tent_profile, 4), params2)
        with pytest.raises(ValueError):
            refined_profile(tent_profile, GridSpec.standard(tent_profile, 5), base, params2)


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
