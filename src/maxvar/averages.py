"""Ball and sphere integral averages of the profile and its gradient.

All n >= 2 averages reduce to 1D integrals in the radius t against the
cap kernels; n = 1 uses exact piecewise integration of the even extension
F(|u|).  The single-ball averages integrate adaptively on nodes that
include profile knots and cap regime boundaries, with a geometric presplit
at the regime endpoints where the kernels have square-root behavior.  Two
batched objectives serve the search: a midpoint rule ranks its coarse grid,
and a fixed Gauss-Legendre rule, after a substitution that makes the
kernels smooth, refines it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AmbientParams, RadialProfile
from .geometry import AxisBall, cap_area, cap_first_moment, sin_power_total
from .quadrature import QuadratureConfig, integrate_adaptive


@dataclass(frozen=True)
class RadialWeight:
    """Weight w(t) = t / s."""

    s: float


@dataclass(frozen=True)
class LevelSetWeight:
    """Weight = indicator of a union of radius intervals."""

    intervals: tuple


def _ball_range(profile: RadialProfile, ball: AxisBall):
    lo = max(0.0, ball.d - ball.r)
    hi = min(ball.d + ball.r, profile.support_radius)
    return lo, hi


_GEO_OFFSETS = 0.25 ** np.arange(1, 11)
_RANKING_NODES = 96  # midpoint nodes per ball in batch_objective


def _ball_breakpoints(profile: RadialProfile, ball: AxisBall, lo: float, hi: float):
    """Knots plus regime boundaries, refined toward the sqrt endpoints."""
    d, r = ball.d, ball.r
    i0 = np.searchsorted(profile.knots_t, lo, side="right")
    i1 = np.searchsorted(profile.knots_t, hi, side="left")
    segs = [np.array((lo, hi)), profile.knots_t[i0:i1]]
    inner = abs(d - r)
    length = hi - lo
    if lo <= inner < hi:
        segs.append(inner + length * _GEO_OFFSETS)
        if inner > lo:
            segs.append(np.array((inner,)))
    if hi == d + r:
        segs.append(hi - length * _GEO_OFFSETS)
    return np.unique(np.clip(np.concatenate(segs), lo, hi))


def _odd_antiderivative(profile: RadialProfile, u):
    """Integral of F(|w|) over [0, u], odd in u."""
    u = np.asarray(u, dtype=float)
    return np.sign(u) * profile.integral_to(np.abs(u))


def _slope_moment_to(profile: RadialProfile, c: float) -> float:
    """Integral of t F'(t) over [0, c], exact."""
    t0 = np.minimum(profile.knots_t[:-1], c)
    t1 = np.minimum(profile.knots_t[1:], c)
    return float(np.sum(profile.slopes * (t1 * t1 - t0 * t0)) / 2.0)


def _abs_slope_weighted_to(profile: RadialProfile, c: float, weight) -> float:
    """Integral of |F'(t)| w(t) over [0, c], exact for the supported weights."""
    t0 = np.minimum(profile.knots_t[:-1], c)
    t1 = np.minimum(profile.knots_t[1:], c)
    g = np.abs(profile.slopes)
    if weight is None:
        return float(np.sum(g * (t1 - t0)))
    if isinstance(weight, RadialWeight):
        return float(np.sum(g * (t1 * t1 - t0 * t0)) / (2.0 * weight.s))
    if isinstance(weight, LevelSetWeight):
        total = 0.0
        for a, b in weight.intervals:
            seg = np.maximum(0.0, np.minimum(t1, b) - np.maximum(t0, a))
            total += float(np.sum(g * seg))
        return total
    raise TypeError(f"unsupported weight {weight!r}")


def _integrate(fun, pts, qcfg: QuadratureConfig, scale: float) -> float:
    """Adaptive integral over pts, the absolute tolerance floored at
    rel_tol * scale for a scale that bounds the integral."""
    cfg = QuadratureConfig(qcfg.rel_tol, max(qcfg.abs_tol, qcfg.rel_tol * scale),
                           qcfg.max_subdivisions)
    return integrate_adaptive(fun, pts, cfg)


def _ball_integral(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                   qcfg: QuadratureConfig, fun, peak) -> float:
    """Integral of the radial integrand fun over the ball, divided by its volume.

    peak(hi) bounds fun / (cap kernel) on [0, hi]; it sets the tolerance floor.
    """
    lo, hi = _ball_range(profile, ball)
    if hi <= lo:
        return 0.0
    volume = params.omega_n * ball.r ** params.n
    scale = peak(hi) * params.sigma_n * hi ** (params.n - 1) * (hi - lo)
    return _integrate(fun, _ball_breakpoints(profile, ball, lo, hi), qcfg, scale) / volume


def _even_integral(fn_to, a: float, b: float) -> float:
    """Integral over [a, b] of an even integrand given its [0, c] primitive."""
    if a >= 0.0:
        return fn_to(b) - fn_to(a)
    return fn_to(b) + fn_to(-a)


def ball_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                 qcfg: QuadratureConfig) -> float:
    """Integral average of |f| over the ball."""
    d, r = ball.d, ball.r
    if params.n == 1:
        vals = _odd_antiderivative(profile, np.array([d + r, d - r]))
        return float(vals[0] - vals[1]) / (2.0 * r)
    fun = lambda t: profile.value(t) * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun, lambda hi: profile.max_value)


def sphere_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                   qcfg: QuadratureConfig) -> float:
    """Integral average of |f| over the boundary sphere of the ball."""
    d, r = ball.d, ball.r
    if params.n == 1:
        return 0.5 * float(profile.value(abs(d - r)) + profile.value(d + r))
    if d == 0.0:
        return float(profile.value(r))
    # rho(phi) = |d*e + r*omega(phi)| decreases from d+r to |d-r|
    def rho_vals(phi):
        return np.sqrt(np.maximum(d * d + r * r + 2.0 * d * r * np.cos(phi), 0.0))

    pts = [0.0, np.pi]
    for t in profile.knots_t:
        if abs(d - r) < t < d + r:
            u = (t * t - d * d - r * r) / (2.0 * d * r)
            pts.append(float(np.arccos(np.clip(u, -1.0, 1.0))))
    k = params.n - 2
    fun = lambda phi: profile.value(rho_vals(phi)) * np.sin(phi) ** k
    return _integrate(fun, np.unique(pts), qcfg, profile.max_value * np.pi) \
        / sin_power_total(k)


def gradient_axial_component(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                             qcfg: QuadratureConfig) -> float:
    """Axial component of the average gradient over the ball.

    By rotational symmetry this is the only nonzero component of the
    vector average of Df; it vanishes identically when d = 0.
    """
    d, r = ball.d, ball.r
    if params.n == 1:
        return float(profile.value(d + r) - profile.value(abs(d - r))) / (2.0 * r)
    if d == 0.0:
        return 0.0
    slope_max = float(np.max(np.abs(profile.slopes)))
    fun = lambda t: profile.slope(t) * cap_first_moment(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun, lambda hi: slope_max)


def gradient_radial_moment(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                           qcfg: QuadratureConfig) -> float:
    """Average of Df(y) . y over the ball."""
    d, r = ball.d, ball.r
    if params.n == 1:
        val = _even_integral(lambda c: _slope_moment_to(profile, c), d - r, d + r)
        return val / (2.0 * r)
    slope_max = float(np.max(np.abs(profile.slopes)))
    fun = lambda t: profile.slope(t) * t * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun, lambda hi: slope_max * hi)


def weighted_gradient_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                              qcfg: QuadratureConfig, weight=None) -> float:
    """Average of |Df(y)| w(|y|) over the ball.

    weight: None for w = 1, :class:`RadialWeight` for w(t) = t/s, or
    :class:`LevelSetWeight` for an indicator of radius intervals.
    """
    d, r = ball.d, ball.r
    if params.n == 1:
        val = _even_integral(lambda c: _abs_slope_weighted_to(profile, c, weight), d - r, d + r)
        return val / (2.0 * r)
    slope_max = float(np.max(np.abs(profile.slopes)))
    if isinstance(weight, LevelSetWeight):
        # restrict the domain to the level set so the integrand stays continuous
        lo, hi = _ball_range(profile, ball)
        if hi <= lo:
            return 0.0
        fun = lambda t: np.abs(profile.slope(t)) * cap_area(t, d, r, params)
        total = 0.0
        for a, b in weight.intervals:
            a2, b2 = max(lo, a), min(hi, b)
            if b2 <= a2:
                continue
            pts = _ball_breakpoints(profile, ball, lo, hi)
            pts = np.unique(np.clip(np.concatenate((pts, [a2, b2])), a2, b2))
            scale = slope_max * params.sigma_n * hi ** (params.n - 1) * (b2 - a2)
            total += _integrate(fun, pts, qcfg, scale)
        return total / (params.omega_n * r ** params.n)

    if weight is None:
        wfun = lambda t: 1.0
    elif isinstance(weight, RadialWeight):
        s = weight.s
        wfun = lambda t: t / s
    else:
        raise TypeError(f"unsupported weight {weight!r}")
    peak = lambda hi: slope_max * (1.0 if weight is None else hi / weight.s)
    fun = lambda t: np.abs(profile.slope(t)) * wfun(t) * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun, peak)


def _objective_1d(profile: RadialProfile, ds, rs, beta: float):
    """Exact r^beta * ball average at n = 1, vectorized."""
    upper = _odd_antiderivative(profile, ds + rs)
    lower = _odd_antiderivative(profile, ds - rs)
    return rs**beta * (upper - lower) / (2.0 * rs)


def batch_objective(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Vectorized r^beta * ball-average for arrays of balls (coarse search).

    Composite midpoint rule on _RANKING_NODES nodes; used only to rank
    candidate balls, never for reported values.  Against the identity
    quadrature its relative error on balls meeting the support reaches
    7e-3 on 40-knot random profiles (n = 2, 3, 5), and grows with the
    knot count.
    """
    ds = np.asarray(ds, dtype=float)
    rs = np.asarray(rs, dtype=float)
    if params.n == 1:
        return _objective_1d(profile, ds, rs, params.beta)
    lo = np.maximum(0.0, ds - rs)
    hi = np.minimum(ds + rs, profile.support_radius)
    length = np.maximum(hi - lo, 0.0)
    out = np.zeros_like(ds)
    live = length > 0.0
    if np.any(live):
        xi = (np.arange(_RANKING_NODES) + 0.5) / _RANKING_NODES
        t = lo[live, None] + length[live, None] * xi[None, :]
        area = cap_area(t, ds[live, None], rs[live, None], params)
        vals = profile.value(t.ravel()).reshape(t.shape)
        integral = (vals * area).sum(axis=1) * (length[live] / _RANKING_NODES)
        out[live] = integral / (params.omega_n * rs[live] ** params.n)
    return rs**params.beta * out


# 16-node Gauss-Legendre rule on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _knot_breaks(knots, lo, hi):
    """Rows lo, the knots strictly inside (lo, hi), hi; padded with hi to
    the widest row, so padding panels have zero width."""
    i0 = np.searchsorted(knots, lo, side="right")
    i1 = np.searchsorted(knots, hi, side="left")
    width = int(np.max(i1 - i0, initial=0))
    idx = i0[:, None] + np.arange(width)[None, :]
    inner = np.where(idx < i1[:, None], knots[np.minimum(idx, len(knots) - 1)], hi[:, None])
    return np.concatenate((lo[:, None], inner, hi[:, None]), axis=1)


def _gauss_panels(breaks):
    """Nodes and weights of the fixed rule on every panel of every row."""
    h = np.diff(breaks, axis=1)[:, :, None]
    return breaks[:, :-1, None] + h * _GL_X, h * _GL_W


def fixed_rule_objective(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Vectorized r^beta * ball-average for arrays of balls (search refinement).

    The full-sphere regime t in [0, r - d] gets a 16-node Gauss-Legendre
    rule on each knot panel.  The cap regime [|d - r|, min(d + r, T)] is
    mapped by t = |d - r| + L sin^2(phi), L = 2 min(d, r), which turns the
    square-root endpoint behaviour of the cap kernels smooth; the knots
    become phi breakpoints and each phi panel gets the same 16-node rule.
    Against adaptive quadrature at rel_tol 1e-12 the relative error stays
    below 2e-8 at n = 2, 3 and 1e-7 at n = 5, for r / T from 1e-4 to 2 and
    up to 40 knots; the largest errors sit on the smallest balls, where the
    cap kernel's cosine loses digits to cancellation under either rule.  A
    ball's value depends on the rest of the batch only through rounding.
    n = 1 is exact.
    """
    ds = np.asarray(ds, dtype=float)
    rs = np.asarray(rs, dtype=float)
    if params.n == 1:
        return _objective_1d(profile, ds, rs, params.beta)
    T = profile.support_radius
    knots = profile.knots_t
    zero = np.zeros_like(ds)
    full_top = np.clip(rs - ds, 0.0, T)
    t_full, w_full = _gauss_panels(_knot_breaks(knots, zero, full_top))

    a = np.abs(ds - rs)
    span = 2.0 * np.minimum(ds, rs)
    cap_lo = np.minimum(a, T)
    t_breaks = _knot_breaks(knots, cap_lo, np.maximum(np.minimum(ds + rs, T), cap_lo))
    # sin^2(phi) as a quotient of lengths: dilating the ball by a power of
    # two leaves every phi node unchanged
    frac = (t_breaks - a[:, None]) / np.maximum(span, 1e-300)[:, None]
    phi_breaks = np.arcsin(np.sqrt(np.clip(frac, 0.0, 1.0)))
    phi, w_phi = _gauss_panels(phi_breaks)
    span3 = span[:, None, None]
    t_cap = a[:, None, None] + span3 * np.sin(phi) ** 2
    w_cap = w_phi * span3 * np.sin(2.0 * phi)

    t = np.concatenate((t_full, t_cap), axis=1)
    w = np.concatenate((w_full, w_cap), axis=1)
    area = cap_area(t, ds[:, None, None], rs[:, None, None], params)
    vals = profile.value(t.ravel()).reshape(t.shape)
    integral = (vals * area * w).sum(axis=(1, 2))
    return rs**params.beta * integral / (params.omega_n * rs**params.n)
