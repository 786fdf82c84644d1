"""Numerical verification of the integral identities and estimates.

Each check compares two independently computed sides of an identity (or
the two sides of an inequality) and returns a structured report.  Checks
conditioned on best balls use a looser tolerance than pure quadrature
identities because their residuals are dominated by optimizer error;
negative controls perturb the optimal radius by 5% and must fail.  The
best-ball checks take the search result, whose s they use; the checks of
any ball (divergence, affine family, annulus) take a qcfg that they
ignore, since the averages have no tolerance to set.  :func:`verify_suite`
runs a named suite for the CLI and the seeded library suites alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .averages import (ball_average, gradient_axial_component, gradient_radial_moment,
                       sphere_average, weighted_gradient_average)
from .core import AmbientParams, RadialProfile, level_intervals
from .families import random_profile
from .geometry import AxisBall
from .search import BestBallResult, GridSpec, MaximalProfile, maximal_profile

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


def _report(name, lhs, rhs, passed, tolerance, inputs, info=None, residuals=None,
            applicable=True):
    """The report of one check.  The residuals default to |lhs - rhs| and
    that over the larger side."""
    lhs, rhs = float(lhs), float(rhs)
    if residuals is None:
        gap = abs(lhs - rhs)
        residuals = (gap, gap / max(abs(lhs), abs(rhs), 1e-300))
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, abs_residual=float(residuals[0]),
                          rel_residual=float(residuals[1]), tolerance=tolerance,
                          passed=bool(passed), applicable=applicable, inputs=inputs,
                          info=info or {})


def _identity(name, lhs, rhs, tolerance, scale, inputs):
    """An identity: the relative residual within tolerance, or both sides
    within the absolute floor NEAR_ZERO_REL * scale of zero and of each other."""
    gap, size = abs(lhs - rhs), max(abs(lhs), abs(rhs))
    near = NEAR_ZERO_REL * scale
    passed = gap <= near if size <= near else gap / max(size, 1e-300) <= tolerance
    return _report(name, lhs, rhs, passed, tolerance, inputs)


def _not_applicable(name, reason, inputs):
    return _report(name, np.nan, np.nan, True, np.nan, inputs, {"reason": reason},
                   applicable=False)


def _ball_inputs(ball: AxisBall, **extra) -> dict:
    return {"d": ball.d, "r": ball.r, **extra}


def check_divergence(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                     qcfg=None) -> IdentityReport:
    """Average of Df.(z - y) equals n [ball average - sphere average]."""
    gax = gradient_axial_component(profile, ball, params)
    grad = gradient_radial_moment(profile, ball, params)
    lhs = ball.d * gax - grad
    rhs = params.n * (ball_average(profile, ball, params)
                      - sphere_average(profile, ball, params))
    return _identity("divergence", lhs, rhs, QUAD_TOL, profile.max_value,
                     _ball_inputs(ball, n=params.n))


def check_stationarity(profile: RadialProfile, result: BestBallResult,
                       params: AmbientParams) -> IdentityReport:
    """At a best ball the average equals -(1/beta) * average of Df.(y - x)."""
    ball, s = result.ball, result.s
    lhs = ball_average(profile, ball, params)
    gax = gradient_axial_component(profile, ball, params)
    grad = gradient_radial_moment(profile, ball, params)
    rhs = -(grad - s * gax) / params.beta
    return _identity("stationarity", lhs, rhs, BEST_BALL_TOL, profile.max_value,
                     _ball_inputs(ball, s=s))


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
    return _report("affine_family", fd, analytic, a <= threshold and trend_ok,
                   BEST_BALL_TOL, _ball_inputs(ball, s=s),
                   info={"objective": value, "derivative_scale": scale_der,
                         "step_sweep": diffs, "trend_ok": bool(trend_ok)},
                   residuals=(a, a / scale))


def check_boundary_formula(profile: RadialProfile, result: BestBallResult,
                           params: AmbientParams) -> IdentityReport:
    """|avg Df| = (n/r) [(1 - beta/n) avg - sphere avg] at boundary best balls."""
    ball = result.ball
    inputs = _ball_inputs(ball, s=result.s)
    if result.contact.kind == "interior":
        return _not_applicable("boundary_formula", "interior contact", inputs)
    lhs = abs(gradient_axial_component(profile, ball, params))
    avg = ball_average(profile, ball, params)
    savg = sphere_average(profile, ball, params)
    rhs = (params.n / ball.r) * ((1.0 - params.beta / params.n) * avg - savg)
    return _identity("boundary_formula", lhs, rhs, BEST_BALL_TOL, profile.max_value, inputs)


def check_inner_bound(profile: RadialProfile, result: BestBallResult,
                      params: AmbientParams) -> IdentityReport:
    """|avg Df| <= avg of |Df| |y|/s for best balls inside B(0, s)."""
    ball, s = result.ball, result.s
    name = "inner_bound"
    inputs = _ball_inputs(ball, s=s)
    if result.contact.kind == "interior":
        return _not_applicable(name, "interior contact", inputs)
    if ball.d + ball.r > s * (1.0 + 1e-6):
        return _not_applicable(name, "ball not inside B(0, s)", inputs)
    lhs = abs(gradient_axial_component(profile, ball, params))
    rhs = weighted_gradient_average(profile, ball, params, s=s)
    passed = lhs <= rhs + INEQ_SLACK * max(lhs, rhs, 1e-300)
    return _report(name, lhs, rhs, passed, INEQ_SLACK, inputs,
                   residuals=(max(lhs - rhs, 0.0), abs(lhs - rhs) / max(lhs, rhs, 1e-300)))


def check_key_lemma(profile: RadialProfile, result: BestBallResult,
                    params: AmbientParams) -> IdentityReport:
    """Level-set bound: the gradient average is controlled on the doubled ball.

    Reports the empirical ratio lhs / rhs0 where rhs0 integrates |Df| over
    the set {1/2 avg <= F <= 2 avg} in 2B; the comparison constant is not
    explicit, so only positivity of rhs0 is asserted (when lhs > 1e-8).
    """
    ball, s = result.ball, result.s
    name = "key_lemma"
    inputs = _ball_inputs(ball, s=s)
    if result.contact.kind == "interior":
        return _not_applicable(name, "interior contact", inputs)
    if ball.r > (s / 4.0) * (1.0 + 1e-6):
        return _not_applicable(name, "radius exceeds s/4", inputs)
    avg = ball_average(profile, ball, params)
    window = (max(0.0, ball.d - 2.0 * ball.r), ball.d + 2.0 * ball.r)
    level = level_intervals(profile, 0.5 * avg, 2.0 * avg, window)
    doubled = AxisBall(ball.d, 2.0 * ball.r)
    rhs0 = weighted_gradient_average(profile, doubled, params, intervals=level)
    lhs = abs(gradient_axial_component(profile, ball, params))
    passed = (lhs <= 1e-8) or (rhs0 > 0.0)
    ratio = lhs / rhs0 if rhs0 > 0.0 else (0.0 if lhs <= 1e-8 else np.inf)
    return _report(name, lhs, rhs0, passed, np.nan, inputs,
                   info={"ratio": float(ratio), "ball_avg": float(avg),
                         "level_set": [list(iv) for iv in level]})


def check_ball_comparison(profile: RadialProfile, result_a: BestBallResult,
                          result_b: BestBallResult, params: AmbientParams) -> IdentityReport:
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
    return _report(name, lhs, rhs, passed, INEQ_SLACK, inputs,
                   residuals=(max(rhs - lhs, 0.0), abs(lhs - rhs) / max(lhs, rhs, 1e-300)))


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
    return _report(name, line_avg, ball_avg, np.isfinite(ratio), np.nan, _ball_inputs(ball),
                   info={"ratio": float(ratio)}, residuals=(np.nan, np.nan))


# ---------------------------------------------------------------------------
# suites


def perturbed_ball(result: BestBallResult) -> BestBallResult:
    """Negative control: scale the optimal radius by CONTROL_FACTOR,
    keeping the center."""
    grown = AxisBall(result.ball.d, result.ball.r * CONTROL_FACTOR)
    return replace(result, ball=grown)


# the checks of one best ball, in report order, each with whether it also
# runs as a negative control on perturbed_ball(result)
BEST_BALL_CHECKS = {
    "stationarity": (check_stationarity, True),
    "boundary": (check_boundary_formula, True),
    "affine": (lambda profile, res, params:
               check_affine_family(profile, res.s, res.ball, params), False),
    "inner": (check_inner_bound, False),
    "keylemma": (check_key_lemma, False),
}
# the ball comparison runs after them, on neighboring best balls
SWEEP_CHECKS = (*BEST_BALL_CHECKS, "comparison")
SUITES = ("all", "divergence", "annulus", *SWEEP_CHECKS)


def sweep_identity_suite(profile: RadialProfile, mp: MaximalProfile,
                         params: AmbientParams, checks=SWEEP_CHECKS):
    """Run the named best-ball-conditioned checks at every converged
    boundary best ball of a finished sweep, with their negative controls,
    then the ball comparison of neighboring ones."""
    points = [res for res in mp.results if res.converged and res.contact.kind != "interior"]
    table = [entry for name, entry in BEST_BALL_CHECKS.items() if name in checks]
    reports = []
    for res in points:
        for check, control in table:
            reports.append(check(profile, res, params))
            if control:
                rep = check(profile, perturbed_ball(res), params)
                reports.append(replace(rep, name=rep.name + "_negctrl", expect_fail=True))
    if "comparison" in checks:
        reports += [check_ball_comparison(profile, a, b, params)
                    for a, b in zip(points[:-1], points[1:])]
    return reports


def _random_ball(rng: np.random.Generator, T: float) -> AxisBall:
    """Random ball meeting the support so the averages are nontrivial."""
    while True:
        d = rng.uniform(0.0, 1.2 * T)
        r = rng.uniform(0.05 * T, 1.5 * T)
        if min(d + r, T) > max(0.0, d - r) + 1e-3 * T:
            return AxisBall(d, r)


def verify_suite(profile: RadialProfile, params: AmbientParams, suite: str,
                 rng: np.random.Generator, count: int, grid=None):
    """The reports of one of SUITES, in this order: divergence checks on
    count random balls that meet the support, annulus ratios on those of
    count random balls in the annulus whose double meets it, and the sweep
    checks over the maximal profile on grid (``GridSpec.standard`` by
    default).  "all" runs every part."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {', '.join(SUITES)}")
    if count < 1:
        raise ValueError(f"need a count of 1 or more, got {count}")
    T = profile.support_radius
    reports = []
    if suite in ("all", "divergence"):
        reports += [check_divergence(profile, _random_ball(rng, T), params)
                    for _ in range(count)]
    if suite in ("all", "annulus"):
        for _ in range(count):
            d = rng.uniform(0.3 * T, 1.5 * T)
            r = rng.uniform(0.05, 0.5) * d / 2.0
            if min(d + 2 * r, T) > max(0.0, d - 2 * r):  # the double meets the support
                reports.append(check_annulus_average(profile, AxisBall(d, r), params))
    if suite == "all" or suite in SWEEP_CHECKS:
        mp = maximal_profile(profile, grid or GridSpec.standard(profile), params)
        reports += sweep_identity_suite(profile, mp, params,
                                        SWEEP_CHECKS if suite == "all" else (suite,))
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
            reports += verify_suite(prof, params, "divergence", rng, 1)
    return reports


def annulus_suite(seed: int, count: int = 50):
    """Seeded annulus-average ratios; the max ratio is the monitored figure."""
    rng = np.random.default_rng(seed)
    params = AmbientParams(ANNULUS_N, SUITE_BETA)
    reports = []
    for prof in _random_profiles(rng, count):
        reports += verify_suite(prof, params, "annulus", rng, 1)
    return reports


def suite_outcome(reports) -> dict:
    """Tally a report list; controls count as failures when they pass, and
    a list in which no report applies, which checks nothing, is not ok."""
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
    counts["ok"] = len(reports) > counts["not_applicable"] and counts["failed"] == 0 \
        and counts["controls_bad"] == 0
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
    """The report list as strict JSON, which has no NaN or Infinity: a float
    that is not finite (a side of a report that does not apply, say) reads null."""
    rows = json.loads(json.dumps([rep.as_dict() for rep in reports]),
                      parse_constant=lambda token: None)  # NaN, Infinity, -Infinity
    return json.dumps(rows, sort_keys=True, indent=1, allow_nan=False)
