"""Numerical verification of the integral identities and estimates.

Each check compares two independently computed sides of an identity (or
the two sides of an inequality) and returns a structured report.  Checks
conditioned on best balls use a looser tolerance than pure quadrature
identities because their residuals are dominated by optimizer error;
negative controls perturb the optimal radius by 5% and must fail.  The
averages have no tolerance to set: every check's qcfg is ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .averages import (LevelSetWeight, RadialWeight, ball_average,
                       gradient_axial_component, gradient_radial_moment,
                       sphere_average, weighted_gradient_average)
from .core import AmbientParams, RadialProfile, level_intervals
from .families import random_profile
from .geometry import AxisBall
from .search import BestBallResult, MaximalProfile

QUAD_TOL = 1e-6          # pure quadrature identities
BEST_BALL_TOL = 1e-3     # identities conditioned on an optimizer result
INEQ_SLACK = 1e-6
NEAR_ZERO_REL = 1e-9     # absolute floor, relative to the profile maximum
CONTROL_FACTOR = 1.05    # negative controls grow the optimal radius by this
SUITE_BETA = 0.5         # fractional order of the seeded random suites
ANNULUS_N = 2            # dimension of the seeded annulus suite
_LINE = AmbientParams(1, SUITE_BETA)  # averages over [d - r, d + r]; beta plays no part


@dataclass(frozen=True)
class IdentityReport:
    """Residual record for one identity evaluation."""

    name: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    applicable: bool = True
    expect_fail: bool = False
    inputs: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _report(name, lhs, rhs, tolerance, scale, inputs=None, info=None, applicable=True):
    """Relative residual with an absolute fallback for near-zero pairs."""
    lhs, rhs = float(lhs), float(rhs)
    a = abs(lhs - rhs)
    rel = a / max(abs(lhs), abs(rhs), 1e-300)
    near = NEAR_ZERO_REL * scale
    if max(abs(lhs), abs(rhs)) <= near:
        passed = a <= near
    else:
        passed = rel <= tolerance
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, abs_residual=a,
                          rel_residual=rel, tolerance=tolerance, passed=passed,
                          applicable=applicable, inputs=inputs or {}, info=info or {})


def _not_applicable(name, reason, inputs=None):
    return IdentityReport(name=name, lhs=np.nan, rhs=np.nan, abs_residual=np.nan,
                          rel_residual=np.nan, tolerance=np.nan, passed=True,
                          applicable=False, inputs=inputs or {}, info={"reason": reason})


def _ball_inputs(ball: AxisBall, **extra) -> dict:
    out = {"d": ball.d, "r": ball.r}
    out.update(extra)
    return out


def check_divergence(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                     qcfg=None) -> IdentityReport:
    """Average of Df.(z - y) equals n [ball average - sphere average]."""
    gax = gradient_axial_component(profile, ball, params)
    grad = gradient_radial_moment(profile, ball, params)
    lhs = ball.d * gax - grad
    rhs = params.n * (ball_average(profile, ball, params)
                      - sphere_average(profile, ball, params))
    return _report("divergence", lhs, rhs, QUAD_TOL, profile.max_value,
                   inputs=_ball_inputs(ball, n=params.n))


def check_stationarity(profile: RadialProfile, s: float, result: BestBallResult,
                       params: AmbientParams, qcfg=None) -> IdentityReport:
    """At a best ball the average equals -(1/beta) * average of Df.(y - x)."""
    ball = result.ball
    lhs = ball_average(profile, ball, params)
    gax = gradient_axial_component(profile, ball, params)
    grad = gradient_radial_moment(profile, ball, params)
    rhs = -(grad - s * gax) / params.beta
    return _report("stationarity", lhs, rhs, BEST_BALL_TOL, profile.max_value,
                   inputs=_ball_inputs(ball, s=s))


def check_affine_family(profile: RadialProfile, s: float, ball: AxisBall,
                        params: AmbientParams, qcfg=None) -> IdentityReport:
    """Scaling-family derivative against its closed form.

    The family maps the ball to center (1+h)d - h s and radius (1+h)r;
    the derivative of the objective at h = 0 must equal
    r^beta * avg(Df.(y-x)) + beta * objective for any ball, and both
    vanish at a best ball.  The finite difference uses the steps 1e-3,
    1e-4, 1e-5 with Richardson extrapolation; an inconsistent sweep is
    flagged.  A moved center below 0 is evaluated at its mirror image,
    which has the same average because f is radial.
    """
    d, r = ball.d, ball.r
    def phi(h):
        moved = AxisBall(abs((1.0 + h) * d - h * s), (1.0 + h) * r)
        return moved.r ** params.beta * ball_average(profile, moved, params)

    value = phi(0.0)
    scale_der = params.beta * value
    diffs = [(phi(h) - phi(-h)) / (2.0 * h) for h in (1e-3, 1e-4, 1e-5)]
    # Richardson on the two smallest central estimates
    fd = (100.0 * diffs[-1] - diffs[-2]) / 99.0
    # both sides vanish at a best ball: the residual is relative to this
    scale = max(abs(scale_der), 1e-300)
    threshold = BEST_BALL_TOL * scale
    trend_ok = abs(diffs[2] - diffs[1]) <= abs(diffs[1] - diffs[0]) + 0.05 * threshold

    gax = gradient_axial_component(profile, ball, params)
    grad = gradient_radial_moment(profile, ball, params)
    analytic = r ** params.beta * (grad - s * gax) + scale_der

    a = abs(fd - analytic)
    passed = a <= threshold and trend_ok
    rel = a / scale
    return IdentityReport(name="affine_family", lhs=float(fd), rhs=float(analytic),
                          abs_residual=float(a), rel_residual=float(rel),
                          tolerance=BEST_BALL_TOL, passed=bool(passed),
                          inputs=_ball_inputs(ball, s=s),
                          info={"objective": value, "derivative_scale": scale_der,
                                "step_sweep": [float(x) for x in diffs],
                                "trend_ok": bool(trend_ok)})


def check_boundary_formula(profile: RadialProfile, result: BestBallResult,
                           params: AmbientParams, qcfg=None) -> IdentityReport:
    """|avg Df| = (n/r) [(1 - beta/n) avg - sphere avg] at boundary best balls."""
    if result.contact.kind == "interior":
        return _not_applicable("boundary_formula", "interior contact")
    ball = result.ball
    lhs = abs(gradient_axial_component(profile, ball, params))
    avg = ball_average(profile, ball, params)
    savg = sphere_average(profile, ball, params)
    rhs = (params.n / ball.r) * ((1.0 - params.beta / params.n) * avg - savg)
    return _report("boundary_formula", lhs, rhs, BEST_BALL_TOL, profile.max_value,
                   inputs=_ball_inputs(ball, s=result.s))


def check_inner_bound(profile: RadialProfile, result: BestBallResult, s: float,
                      params: AmbientParams, qcfg=None) -> IdentityReport:
    """|avg Df| <= avg of |Df| |y|/s for best balls inside B(0, s)."""
    ball = result.ball
    name = "inner_bound"
    if result.contact.kind == "interior":
        return _not_applicable(name, "interior contact", _ball_inputs(ball, s=s))
    if ball.d + ball.r > s * (1.0 + 1e-6):
        return _not_applicable(name, "ball not inside B(0, s)", _ball_inputs(ball, s=s))
    lhs = abs(gradient_axial_component(profile, ball, params))
    rhs = weighted_gradient_average(profile, ball, params, weight=RadialWeight(s))
    passed = lhs <= rhs + INEQ_SLACK * max(lhs, rhs, 1e-300)
    rel = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return IdentityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                          abs_residual=float(max(lhs - rhs, 0.0)), rel_residual=float(rel),
                          tolerance=INEQ_SLACK, passed=bool(passed),
                          inputs=_ball_inputs(ball, s=s))


def check_key_lemma(profile: RadialProfile, result: BestBallResult, s: float,
                    params: AmbientParams, qcfg=None) -> IdentityReport:
    """Level-set bound: the gradient average is controlled on the doubled ball.

    Reports the empirical ratio lhs / rhs0 where rhs0 integrates |Df| over
    the set {1/2 avg <= F <= 2 avg} in 2B; the comparison constant is not
    explicit, so only positivity of rhs0 is asserted (when lhs > 1e-8).
    """
    ball = result.ball
    name = "key_lemma"
    if result.contact.kind == "interior":
        return _not_applicable(name, "interior contact", _ball_inputs(ball, s=s))
    if ball.r > (s / 4.0) * (1.0 + 1e-6):
        return _not_applicable(name, "radius exceeds s/4", _ball_inputs(ball, s=s))
    avg = ball_average(profile, ball, params)
    window = (max(0.0, ball.d - 2.0 * ball.r), ball.d + 2.0 * ball.r)
    level = level_intervals(profile, 0.5 * avg, 2.0 * avg, window)
    doubled = AxisBall(ball.d, 2.0 * ball.r)
    rhs0 = weighted_gradient_average(profile, doubled, params,
                                     weight=LevelSetWeight(tuple(level)))
    lhs = abs(gradient_axial_component(profile, ball, params))
    passed = (lhs <= 1e-8) or (rhs0 > 0.0)
    ratio = lhs / rhs0 if rhs0 > 0.0 else (0.0 if lhs <= 1e-8 else np.inf)
    rel = abs(lhs - rhs0) / max(lhs, rhs0, 1e-300)
    return IdentityReport(name=name, lhs=float(lhs), rhs=float(rhs0),
                          abs_residual=float(abs(lhs - rhs0)), rel_residual=float(rel),
                          tolerance=np.nan, passed=bool(passed),
                          inputs=_ball_inputs(ball, s=s),
                          info={"ratio": float(ratio), "ball_avg": float(avg),
                                "level_set": [list(iv) for iv in level]})


def check_ball_comparison(profile: RadialProfile, result_a: BestBallResult,
                          result_b: BestBallResult, params: AmbientParams,
                          qcfg=None) -> IdentityReport:
    """avg_{B2} >= 2^-n (r1/r2)^beta avg_{B1} for best balls with B2 in 2 B1."""
    b1, b2 = result_a.ball, result_b.ball
    name = "ball_comparison"
    inputs = {"d1": b1.d, "r1": b1.r, "d2": b2.d, "r2": b2.r}
    if abs(b2.d - b1.d) + b2.r > 2.0 * b1.r * (1.0 + 1e-12):
        return _not_applicable(name, "no containment in the doubled ball", inputs)
    lhs = ball_average(profile, b2, params)
    rhs = 2.0 ** (-params.n) * (b1.r / b2.r) ** params.beta \
        * ball_average(profile, b1, params)
    passed = lhs >= rhs - INEQ_SLACK * max(lhs, rhs, 1e-300)
    rel = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return IdentityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                          abs_residual=float(max(rhs - lhs, 0.0)), rel_residual=float(rel),
                          tolerance=INEQ_SLACK, passed=bool(passed), inputs=inputs)


def check_annulus_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                          qcfg=None) -> IdentityReport:
    """1D average of F over [d-r, d+r] against the average over B(d, 2r).

    Applicable when the ball sits in the annulus (r <= d/2).  The paper
    constant is not explicit: the ratio is recorded, finiteness asserted.
    """
    name = "annulus_average"
    if ball.r > ball.d / 2.0:
        return _not_applicable(name, "ball not inside the annulus", _ball_inputs(ball))
    line_avg = ball_average(profile, ball, _LINE)
    doubled = AxisBall(ball.d, 2.0 * ball.r)
    ball_avg = ball_average(profile, doubled, params)
    ratio = line_avg / ball_avg if ball_avg > 0.0 else (0.0 if line_avg == 0.0 else np.inf)
    passed = np.isfinite(ratio)
    return IdentityReport(name=name, lhs=float(line_avg), rhs=float(ball_avg),
                          abs_residual=np.nan, rel_residual=np.nan, tolerance=np.nan,
                          passed=bool(passed), inputs=_ball_inputs(ball),
                          info={"ratio": float(ratio)})


# ---------------------------------------------------------------------------
# seeded suites


def _random_ball(rng: np.random.Generator, T: float) -> AxisBall:
    """Random ball meeting the support so the averages are nontrivial."""
    while True:
        d = rng.uniform(0.0, 1.2 * T)
        r = rng.uniform(0.05 * T, 1.5 * T)
        if min(d + r, T) > max(0.0, d - r) + 1e-3 * T:
            return AxisBall(d, r)


def divergence_checks(profile: RadialProfile, params: AmbientParams,
                      rng: np.random.Generator, count: int):
    """Divergence checks on count random balls that meet the support."""
    T = profile.support_radius
    return [check_divergence(profile, _random_ball(rng, T), params)
            for _ in range(count)]


def annulus_checks(profile: RadialProfile, params: AmbientParams,
                   rng: np.random.Generator, count: int):
    """Annulus-average ratios on count random balls in the annulus, skipping
    those whose double misses the support."""
    T = profile.support_radius
    reports = []
    for _ in range(count):
        d = rng.uniform(0.3 * T, 1.5 * T)
        r = rng.uniform(0.05, 0.5) * d / 2.0
        if min(d + 2 * r, T) > max(0.0, d - 2 * r):
            reports.append(check_annulus_average(profile, AxisBall(d, r), params))
    return reports


def _random_profiles(rng: np.random.Generator, count: int):
    """count random profiles of 4 to 8 knots, drawn one at a time."""
    for _ in range(count):
        yield random_profile(rng, n_knots=int(rng.integers(4, 9)))


def divergence_suite(seed: int, per_n: int = 100, dims=(1, 2, 3)):
    """Random (profile, ball) divergence checks per dimension."""
    rng = np.random.default_rng(seed)
    reports = []
    for n in dims:
        params = AmbientParams(n, SUITE_BETA)
        for prof in _random_profiles(rng, per_n):
            reports += divergence_checks(prof, params, rng, 1)
    return reports


def annulus_suite(seed: int, count: int = 50):
    """Seeded annulus-average ratios; the max ratio is the monitored figure."""
    rng = np.random.default_rng(seed)
    params = AmbientParams(ANNULUS_N, SUITE_BETA)
    reports = []
    for prof in _random_profiles(rng, count):
        reports += annulus_checks(prof, params, rng, 1)
    return reports


def perturbed_ball(result: BestBallResult) -> BestBallResult:
    """Negative control: scale the optimal radius by CONTROL_FACTOR,
    keeping the center."""
    grown = AxisBall(result.ball.d, result.ball.r * CONTROL_FACTOR)
    return replace(result, ball=grown)


SWEEP_CHECKS = ("stationarity", "boundary", "affine", "inner", "keylemma", "comparison")


def sweep_identity_suite(profile: RadialProfile, mp: MaximalProfile,
                         params: AmbientParams, checks=SWEEP_CHECKS):
    """Run the named best-ball-conditioned checks over a finished sweep,
    with negative controls for stationarity and the boundary formula."""
    reports = []
    boundary_pts = [(float(s), res) for s, res in zip(mp.grid, mp.results)
                    if res.converged and res.contact.kind != "interior"]
    for s, res in boundary_pts:
        bad = perturbed_ball(res)
        if "stationarity" in checks:
            reports.append(check_stationarity(profile, s, res, params))
            rep = check_stationarity(profile, s, bad, params)
            reports.append(replace(rep, name="stationarity_negctrl", expect_fail=True))
        if "boundary" in checks:
            reports.append(check_boundary_formula(profile, res, params))
            rep = check_boundary_formula(profile, bad, params)
            reports.append(replace(rep, name="boundary_formula_negctrl", expect_fail=True))
        if "affine" in checks:
            reports.append(check_affine_family(profile, s, res.ball, params))
        if "inner" in checks:
            reports.append(check_inner_bound(profile, res, s, params))
        if "keylemma" in checks:
            reports.append(check_key_lemma(profile, res, s, params))
    if "comparison" in checks:
        for (s1, r1), (s2, r2) in zip(boundary_pts[:-1], boundary_pts[1:]):
            reports.append(check_ball_comparison(profile, r1, r2, params))
    return reports


def suite_outcome(reports) -> dict:
    """Tally a report list; controls count as failures when they pass."""
    counts = {"passed": 0, "failed": 0, "not_applicable": 0, "controls_ok": 0,
              "controls_bad": 0}
    for rep in reports:
        if not rep.applicable:
            counts["not_applicable"] += 1
        elif rep.expect_fail:
            if rep.passed:
                counts["controls_bad"] += 1
            else:
                counts["controls_ok"] += 1
        elif rep.passed:
            counts["passed"] += 1
        else:
            counts["failed"] += 1
    counts["ok"] = counts["failed"] == 0 and counts["controls_bad"] == 0
    return counts


def format_reports(reports) -> str:
    """Aligned text table of a report list."""
    lines = [f"{'check':<24} {'lhs':>14} {'rhs':>14} {'rel_resid':>12} "
             f"{'status':>10}"]
    for rep in reports:
        if not rep.applicable:
            status = "n/a"
        elif rep.expect_fail:
            status = "ctrl-ok" if not rep.passed else "CTRL-BAD"
        else:
            status = "pass" if rep.passed else "FAIL"
        lines.append(f"{rep.name:<24} {rep.lhs:>14.6e} {rep.rhs:>14.6e} "
                     f"{rep.rel_residual:>12.3e} {status:>10}")
    return "\n".join(lines)


def reports_to_json(reports) -> str:
    return json.dumps([rep.as_dict() for rep in reports], sort_keys=True, indent=1)
