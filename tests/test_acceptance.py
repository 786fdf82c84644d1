"""Acceptance criteria, one test per criterion.

Each test prints a single summary line; run with -s (or -rP) to see them.
The standard family is tent / annular-bump / two-bump at n = 2, beta = 0.5
on 96-point log grids; the ratio family adds beta in {0.2, 1.0}.
"""

import time

import numpy as np
import pytest

from maxvar.averages import ball_average
from maxvar.core import AmbientParams, load_profile
from maxvar.families import random_profile, scale_profile, standard_family
from maxvar.geometry import AxisBall
from maxvar.identities import (_random_ball, check_boundary_formula,
                               check_inner_bound, check_key_lemma,
                               check_ball_comparison, check_stationarity,
                               divergence_suite, perturbed_ball)
from maxvar.oracles import (oracle_1d_maximal, oracle_dense_average_2d,
                            oracle_mc_ball_average)
from maxvar.quadrature import IDENTITY_QUADRATURE as Q
from maxvar.search import GridSpec, maximal_profile, search
from maxvar.variation import variation_report

ACC_SEED = 2718
STD_COUNT = 96
BETAS = (0.2, 0.5, 1.0)


@pytest.fixture(scope="module")
def std_params():
    return AmbientParams(2, 0.5)


@pytest.fixture(scope="module")
def family():
    return standard_family()


@pytest.fixture(scope="module")
def std_grids(family):
    return {name: GridSpec.standard(prof, STD_COUNT) for name, prof in family.items()}


@pytest.fixture(scope="module")
def std_sweeps(family, std_grids, std_params):
    return {name: maximal_profile(prof, std_grids[name], std_params)
            for name, prof in family.items()}


@pytest.fixture(scope="module")
def refined_sweeps(family, std_grids, std_params):
    return {name: maximal_profile(prof, std_grids[name].refined(), std_params)
            for name, prof in family.items()}


def boundary_points(mp):
    return [(float(s), res) for s, res in zip(mp.grid, mp.results)
            if res.converged and res.contact.kind != "interior"]


def test_criterion_1_oracle_equivalence_1d():
    """best_ball.search matches the brute-force 1D oracle at 50 points."""
    t0 = time.monotonic()
    rng = np.random.default_rng(ACC_SEED)
    profiles = [random_profile(rng, n_knots=int(rng.integers(4, 9)))
                for _ in range(5)]
    checked = 0
    worst = 0.0
    for prof in profiles:
        T = prof.support_radius
        pts = rng.uniform(0.05 * T, 2.5 * T, size=5)
        for beta in (0.25, 0.5):
            params = AmbientParams(1, beta)
            for s in pts:
                res = search(prof, float(s), params)
                oracle = oracle_1d_maximal(prof, float(s), beta)
                rel = abs(res.value - oracle) / max(oracle, 1e-300)
                worst = max(worst, rel)
                assert rel <= 1e-3, f"s={s} beta={beta}: rel={rel}"
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 50
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 1 PASS: 50 points, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_divergence_identity():
    """Gauss-divergence identity at 1e-6 on 100 random pairs per dimension."""
    reports = divergence_suite(seed=ACC_SEED, per_n=100, dims=(1, 2, 3))
    assert len(reports) == 300
    failures = [r for r in reports if not r.passed]
    assert not failures
    worst = max(r.rel_residual for r in reports
                if max(abs(r.lhs), abs(r.rhs)) > 1e-9)
    print(f"\nACCEPTANCE 2 PASS: 300 configurations, worst rel residual {worst:.2e}")


def _oracle_ball(rng, T):
    """Random ball whose support overlap is wide enough that the
    fixed-resolution dense reference resolves it to 1e-6."""
    while True:
        d = float(rng.uniform(0.0, 1.2 * T))
        r = float(rng.uniform(0.05 * T, 1.5 * T))
        lo, hi = max(0.0, d - r), min(d + r, T)
        if hi - lo >= 0.5 * r:
            return AxisBall(d, r)


def test_criterion_3_average_oracles(std_params):
    """ball_average vs dense-2D within 1e-6 and vs Monte-Carlo within 3 sigma."""
    rng = np.random.default_rng(ACC_SEED + 1)
    worst_dense = 0.0
    for _ in range(50):
        prof = random_profile(rng, n_knots=int(rng.integers(4, 9)))
        ball = _oracle_ball(rng, prof.support_radius)
        det = ball_average(prof, ball, std_params, Q)
        dense = oracle_dense_average_2d(prof, ball, resolution=3600)
        rel = abs(det - dense) / max(abs(det), abs(dense), 1e-9 * prof.max_value)
        worst_dense = max(worst_dense, rel)
        assert rel <= 1e-6, f"ball=({ball.d},{ball.r}): rel={rel}"
    worst_z = 0.0
    for i in range(20):
        n = 2 if i < 10 else 3
        params = AmbientParams(n, 0.5)
        prof = random_profile(rng, n_knots=int(rng.integers(4, 9)))
        ball = _random_ball(rng, prof.support_radius)
        det = ball_average(prof, ball, params, Q)
        mean, se = oracle_mc_ball_average(prof, ball, params, 1_000_000,
                                          seed=ACC_SEED + 100 + i)
        z = abs(det - mean) / max(se, 1e-300)
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"n={n} ball=({ball.d},{ball.r}): z={z}"
    print(f"\nACCEPTANCE 3 PASS: dense worst rel {worst_dense:.2e}, "
          f"MC worst z {worst_z:.2f}")


def test_criterion_4_stationarity_and_boundary_formula(family, std_sweeps,
                                                       std_params):
    """Both best-ball identities hold at 1e-3; 5% perturbations break both."""
    checked = controls = 0
    worst = 0.0
    for name, mp in std_sweeps.items():
        prof = family[name]
        for s, res in boundary_points(mp):
            rep_s = check_stationarity(prof, res, std_params)
            rep_b = check_boundary_formula(prof, res, std_params)
            assert rep_s.passed, f"{name} s={s}: stationarity {rep_s.rel_residual}"
            assert rep_b.passed, f"{name} s={s}: boundary {rep_b.rel_residual}"
            worst = max(worst, rep_s.rel_residual, rep_b.rel_residual)
            bad = perturbed_ball(res)
            ctl_s = check_stationarity(prof, bad, std_params)
            ctl_b = check_boundary_formula(prof, bad, std_params)
            assert not ctl_s.passed, f"{name} s={s}: stationarity control passed"
            assert not ctl_b.passed, f"{name} s={s}: boundary control passed"
            checked += 1
            controls += 1
    assert checked >= 60
    print(f"\nACCEPTANCE 4 PASS: {checked} boundary points, worst residual "
          f"{worst:.2e}, {controls} negative controls failed as required")


def test_criterion_5_derivative_consistency(std_sweeps):
    """FD and formula channels agree within 2% away from corners."""
    worst = 0.0
    zero_pts = corner_pts = sign_pts = 0
    for name, mp in std_sweeps.items():
        fd, fo, flags = mp.deriv_fd, mp.deriv_formula, mp.corner_flags
        scale = float(np.max(np.abs(fd)))
        for i, res in enumerate(mp.results):
            if res.contact.kind == "interior":
                assert fo[i] == 0.0, f"{name} i={i}: interior formula not exactly 0"
                zero_pts += 1
            if abs(fo[i]) > 1e-6 * scale and res.contact.kind != "interior":
                assert np.sign(fo[i]) == np.sign(res.ball.d - res.s), \
                    f"{name} i={i}: direction rule violated"
                sign_pts += 1
            if flags[i]:
                corner_pts += 1
                continue
            if max(abs(fd[i]), abs(fo[i])) <= 1e-4 * scale:
                continue
            rel = abs(fd[i] - fo[i]) / max(abs(fd[i]), abs(fo[i]))
            worst = max(worst, rel)
            assert rel <= 0.02, f"{name} i={i} s={mp.grid[i]}: rel={rel}"
    print(f"\nACCEPTANCE 5 PASS: worst non-corner deviation {worst:.4f}, "
          f"{zero_pts} exact zeros, {sign_pts} sign checks, {corner_pts} corners")


def test_criterion_6_inequality_suites(family, std_sweeps, refined_sweeps,
                                       std_params):
    """Zero violations of the inner bound and ball comparison; the level-set
    bound has positive right side and ratios stable under grid doubling."""
    inner_app = comp_app = key_app = 0
    for name, mp in std_sweeps.items():
        prof = family[name]
        pts = boundary_points(mp)
        for s, res in pts:
            rep = check_inner_bound(prof, res, std_params)
            if rep.applicable:
                assert rep.passed, f"{name} s={s}: inner bound violated"
                inner_app += 1
        for (s1, r1), (s2, r2) in zip(pts[:-1], pts[1:]):
            rep = check_ball_comparison(prof, r1, r2, std_params)
            if rep.applicable:
                assert rep.passed, f"{name} s={s2}: comparison violated"
                comp_app += 1
        for s, res in pts:
            rep = check_key_lemma(prof, res, std_params)
            if rep.applicable:
                assert rep.passed
                key_app += 1
    assert inner_app >= 30
    assert comp_app >= 30

    # the standard family's best balls are large; exercise the level-set
    # bound and its refinement drift on a shell profile where r <= s/4 holds
    shell = load_profile([(0, 0), (1.8, 0), (2, 1), (2.2, 0)])
    sh_params = AmbientParams(2, 0.2)
    sh_grid = GridSpec(1.3, 1.9, 25, log=True)
    base = maximal_profile(shell, sh_grid, sh_params)
    fine = maximal_profile(shell, sh_grid.refined(), sh_params)

    def key_ratios(mp):
        out = {}
        for s, res in boundary_points(mp):
            rep = check_key_lemma(shell, res, sh_params)
            if rep.applicable:
                if rep.lhs > 1e-8:
                    assert rep.rhs > 0.0, f"s={s}: vanishing right side"
                out[s] = rep.info["ratio"]
        return out

    ratios_b = key_ratios(base)
    ratios_f = key_ratios(fine)
    shared = sorted(set(ratios_b) & set(ratios_f))
    assert shared, "no shared applicable points between base and refined grids"
    drift = max(abs(ratios_f[s] - ratios_b[s]) / ratios_b[s] for s in shared)
    assert drift <= 0.10, f"ratio drift {drift}"
    print(f"\nACCEPTANCE 6 PASS: inner {inner_app}, comparison {comp_app}, "
          f"level-set applicable std={key_app} shell={len(shared)}, "
          f"drift {drift:.3f}")


@pytest.fixture(scope="module")
def family_reports(family):
    reports = {}
    t0 = time.monotonic()
    for name, prof in family.items():
        for beta in BETAS:
            params = AmbientParams(2, beta)
            grid = GridSpec.standard(prof, 64)
            reports[(name, beta)] = variation_report(prof, params, grid)
    return reports, time.monotonic() - t0


def test_criterion_7_variation_ratio(family, family_reports, std_params):
    """Finite ratios, refinement <= 5%, dilation <= 1%, exact invariances."""
    reports, elapsed = family_reports
    for (name, beta), rep in reports.items():
        assert np.isfinite(rep.ratio) and rep.ratio > 0.0, f"{name} beta={beta}"
        assert rep.refinement_deviation <= 0.05, \
            f"{name} beta={beta}: refinement {rep.refinement_deviation}"
        assert rep.dilation_deviation <= 0.01, \
            f"{name} beta={beta}: dilation {rep.dilation_deviation}"
    # scalar multiples: identical balls (up to tie tolerance) and ratios
    worst_ratio_diff = 0.0
    for name, prof in family.items():
        grid = GridSpec.standard(prof, 64)
        base = maximal_profile(prof, grid, std_params)
        scaled = maximal_profile(scale_profile(prof, 3.0), grid, std_params)
        for a, b in zip(base.results, scaled.results):
            scale = max(a.ball.r, b.ball.r)
            assert abs(a.ball.d - b.ball.d) <= 1e-6 * scale
            assert abs(a.ball.r - b.ball.r) <= 1e-6 * scale
        from maxvar.core import gradient_l1_norm
        from maxvar.variation import lq_norm_derivative
        r1 = lq_norm_derivative(base, std_params) / gradient_l1_norm(prof, std_params)
        r2 = lq_norm_derivative(scaled, std_params) / gradient_l1_norm(
            scale_profile(prof, 3.0), std_params)
        diff = abs(r1 - r2) / r1
        worst_ratio_diff = max(worst_ratio_diff, diff)
        assert diff <= 1e-9
    assert elapsed <= 600.0, f"family suite took {elapsed:.0f}s"
    mx = max(r.ratio for r in reports.values())
    print(f"\nACCEPTANCE 7 PASS: 9 reports in {elapsed:.0f}s, max ratio {mx:.4f}, "
          f"scalar ratio diff {worst_ratio_diff:.2e}")


def test_criterion_8_classification_partition(std_sweeps, family_reports):
    """Every point gets exactly one label; c >= 0; thresholds 3/4 and 5/4."""
    labels = ("zero_derivative", "E1", "E2", "E3")
    points = 0
    for name, mp in std_sweeps.items():
        for res in mp.results:
            assert res.region in labels
            if res.contact.kind == "interior":
                assert res.region == "zero_derivative"
            else:
                c = res.contact.c
                assert c >= 0.0
                expected = "E1" if c > 1.25 else ("E2" if c < 0.75 else "E3")
                assert res.region == expected
            points += 1
    reports, _ = family_reports
    for (name, beta), rep in reports.items():
        hist = rep.region_histogram
        assert sum(hist.values()) == 64
        assert hist["unclassified"] == 0
    print(f"\nACCEPTANCE 8 PASS: {points} sweep points partitioned, "
          f"9 histograms complete")


def test_criterion_9_cli_determinism(tmp_path):
    """Repeated seeded CLI invocations emit byte-identical files."""
    import json as _json

    from maxvar.cli import main
    tent_path = tmp_path / "tent.json"
    tent_path.write_text(_json.dumps({"knots": [[0, 1], [1, 0]]}))
    fam_path = tmp_path / "family.json"
    fam_path.write_text(_json.dumps({
        "profiles": {"tent": [[0, 1], [1, 0]]},
        "random": {"count": 1, "knots": 5}, "n": 2, "betas": [0.5],
        "grid_count": 8}))
    jobs = [
        (["sweep", "--n", "2", "--beta", "0.5", "--profile", str(tent_path),
          "--grid", "0.1:2:10:log", "--seed", "7"], "sweep.csv"),
        (["verify", "--n", "2", "--beta", "0.5", "--profile", str(tent_path),
          "--suite", "divergence", "--seed", "7", "--count", "15",
          "--format", "json"], "verify.json"),
        (["ratio", "--n", "2", "--beta", "0.5", "--profile", str(tent_path),
          "--grid", "0.1:2:8:log"], "ratio.json"),
        (["family", "--spec", str(fam_path), "--seed", "7"], "family.csv"),
    ]
    for args, fname in jobs:
        a, b = tmp_path / ("a_" + fname), tmp_path / ("b_" + fname)
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{fname} differs between runs"
    print("\nACCEPTANCE 9 PASS: sweep, verify, ratio, family byte-identical")
