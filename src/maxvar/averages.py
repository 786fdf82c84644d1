"""Ball and sphere integral averages of the profile and its gradient.

All averages reduce to 1D integrals in the radius t against the cap
kernels, by one Gauss-Legendre rule per panel between lo, the knots,
|d - r| and hi (Davis & Rabinowitz, 2.7).  Below |d - r| the sphere lies
in the ball and every integrand is a polynomial of degree <= n, so
n // 2 + 1 nodes are exact at every n.  Above it, at odd n, the integrands
are polynomials of degree <= 2n - 2 and n nodes are exact: one rule serves
every average and batch.  At even n the cap kernels have square-root ends
there, which t = |d - r| + 2 min(d, r) sin^2(phi) makes smooth; the batches
take a fixed number of nodes in phi, and single balls integrate the caps
adaptively in phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


# at even n the cap panels take n plus this many Gauss nodes in phi: the
# phi integrand's degree grows with n
_COARSE_EXTRA = 4  # batch_objective
_FINE_EXTRA = 14  # fixed_rule_objective


@cache
def _gauss(m: int):
    """The m-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _panels(knots, lo, hi, split):
    """Panels of the B rows [lo_i, hi_i] (0 <= lo, hi <= T) between split_i
    and the knots, flat: left and right edges and sides, i below split_i and
    B + i above; a row pays for, and orders, its own panels only."""
    rows = len(lo)
    edges = np.concatenate((lo, np.minimum(np.maximum(split, lo), hi), hi))
    lo2, hi2 = edges[:2 * rows], edges[rows:]
    # array methods skip numpy's wrappers, whose cost the compass's small batches feel
    i0 = knots.searchsorted(lo2, side="right")
    count = knots.searchsorted(hi2, side="left") - i0 + 1
    count *= hi2 > lo2
    side = np.arange(2 * rows).repeat(count)
    # k: the first knot at or above the panel's right edge
    k = np.arange(len(side)) + (i0 + count - count.cumsum())[side]
    return np.maximum(knots[k - 1], lo2[side]), np.minimum(knots[k], hi2[side]), side


def _to_phi(t, base, span):
    """The phi in [0, pi/2] of t = base + span * sin^2(phi)."""
    # minimum and maximum skip np.clip's wrapper, which small batches feel
    return np.arcsin(np.sqrt(np.minimum(np.maximum((t - base) / span, 0.0), 1.0)))


def _from_phi(phi, base, span):
    """t = base + span * sin^2(phi) and its derivative dt/dphi."""
    sin = np.sin(phi)
    return base + span * sin**2, 2.0 * span * sin * np.cos(phi)


_CHUNK_NODES = 1 << 16  # nodes per evaluation, which bounds the temporaries


def _panel_sums(profile: RadialProfile, n: int, lo, hi, ds, rs, fun, extra: int):
    """Per row, the integral of fun(t, d_i, r_i) over [lo_i, hi_i] by one
    Gauss-Legendre rule per :func:`_panels` panel, split at |d_i - r_i|.

    Below the split the sphere lies in the ball, the integrands are
    polynomials of degree <= n, and n // 2 + 1 nodes are exact.  Above it,
    at odd n, they have degree <= 2n - 2 and n nodes are exact.  At even n
    the cap kernels have square-root ends there; t = |d - r| + L sin^2(phi),
    L = 2 min(d, r), makes them smooth, and the panel takes n + extra nodes
    in phi.  Rows go in runs of about _CHUNK_NODES nodes, which change a
    row's sum by rounding at most.
    """
    cap = (n, False) if n % 2 else (n + extra, True)
    knots = profile.knots_t
    if len(lo) * (len(knots) + 1) * cap[0] <= _CHUNK_NODES:
        return _run_sums(knots, n, lo, hi, ds, rs, fun, cap)
    nodes = (knots.searchsorted(hi) - knots.searchsorted(lo) + 2) * cap[0]
    cuts = np.flatnonzero(np.diff(nodes.cumsum() // _CHUNK_NODES)) + 1
    return np.concatenate([_run_sums(knots, n, *(a[i:j] for a in (lo, hi, ds, rs)), fun, cap)
                           for i, j in zip(np.r_[0, cuts], np.r_[cuts, len(lo)])])


def _run_sums(knots, n: int, lo, hi, ds, rs, fun, cap):
    """:func:`_panel_sums` on one run of rows, cap = (nodes, mapped to phi)."""
    rows = len(lo)
    base = np.abs(ds - rs)
    left, right, side = _panels(knots, lo, hi, base)
    # the panels below the split come first, then the caps'; both rules'
    # nodes go into one flat call
    full = side.searchsorted(rows)
    full_rule = (n // 2 + 1, False)
    cut = full * full_rule[0]
    size = cut + (len(side) - full) * cap[0]
    index, t, weight = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size)
    row = side % rows
    for part, nodes, (m, mapped) in ((slice(None, full), slice(None, cut), full_rule),
                                     (slice(full, None), slice(cut, None), cap)):
        x, w = _gauss(m)
        owner = row[part, None]
        index[nodes].reshape(-1, m)[...] = owner
        a, b = left[part, None], right[part, None]
        if mapped:
            # sin^2(phi) as a quotient of lengths: dilating the ball by a
            # power of two leaves every phi node unchanged
            at, span = base[owner], 2.0 * np.minimum(ds, rs)[owner]
            a, b = _to_phi(np.concatenate((a, b), axis=1), at, span).T[:, :, None]
        h, tm, wm = b - a, t[nodes].reshape(-1, m), weight[nodes].reshape(-1, m)
        np.add(a, np.multiply(h, x, out=tm), out=tm)
        np.multiply(h, w, out=wm)
        if mapped:  # tm holds the phi nodes
            tm[...], jac = _from_phi(tm, at, span)
            wm *= jac
    return np.bincount(index, weights=fun(t, ds[index], rs[index]) * weight, minlength=rows)


def _range_integral(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                    qcfg: QuadratureConfig, fun, a: float, b: float) -> float:
    """Integral of fun(t, d, r) over [a, b] in the ball's range, exact by
    :func:`_panel_sums` (qcfg unused) but for the caps above |d - r| at even
    n: a near-tangent ball (d close to r) puts a feature about
    (|d - r| / r)^(1/2) wide into phi, which no fixed rule resolves, so they
    integrate adaptively in phi, split at the knots."""
    d, r, n = ball.d, ball.r, params.n
    base = abs(d - r)
    exact_hi = b if n % 2 else min(b, base)  # no cap panel at even n: extra unused
    row = (np.array([x]) for x in (a, exact_hi, d, r))
    total = float(_panel_sums(profile, n, *row, fun, 0)[0]) if exact_hi > a else 0.0
    lo = max(a, base)
    if n % 2 or b <= lo:
        return total
    span = 2.0 * min(d, r)
    knots = profile.knots_t
    pts = _to_phi(np.concatenate(([lo], knots[(knots > lo) & (knots < b)], [b])), base, span)
    # halved up front, most balls converge without a second bisection round
    pts = np.sort(np.concatenate((pts, 0.5 * (pts[1:] + pts[:-1]))))

    def in_phi(phi):
        t, jac = _from_phi(phi, base, span)
        return fun(t, d, r) * jac

    return total + integrate_adaptive(in_phi, pts, qcfg)


def _ball_integral(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                   qcfg: QuadratureConfig, fun, intervals=None) -> float:
    """Integral of fun(t, d, r) over the ball, per volume, or over its part
    with |y| in the union of the radius intervals, one integral per interval
    so that an indicator weight leaves every integrand continuous."""
    lo, hi = max(0.0, ball.d - ball.r), min(ball.d + ball.r, profile.support_radius)
    total = 0.0
    for a, b in [(lo, hi)] if intervals is None else intervals:
        a, b = max(lo, a), min(hi, b)
        if b > a:
            total += _range_integral(profile, ball, params, qcfg, fun, a, b)
    return total / (params.omega_n * ball.r ** params.n)


def ball_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                 qcfg: QuadratureConfig) -> float:
    """Integral average of |f| over the ball."""
    fun = lambda t, d, r: profile.value(t) * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun)


def sphere_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                   qcfg: QuadratureConfig) -> float:
    """Integral average of |f| over the boundary sphere of the ball; at odd
    n >= 3 exact in rho = |y| (qcfg unused), at n = 1 two points."""
    d, r = ball.d, ball.r
    if params.n == 1:
        return 0.5 * float(profile.value(abs(d - r)) + profile.value(d + r))
    if d == 0.0:
        return float(profile.value(r))
    k = params.n - 2
    if k % 2:
        # rho^2 = d^2 + r^2 + 2 d r cos(phi): d phi = rho d rho / (d r sin(phi))
        def fun(rho, d, r):
            a = np.abs(d - r)
            sin2 = (d + r - rho) * (d + r + rho) * (rho - a) * (rho + a) / (2.0 * d * r) ** 2
            return profile.value(rho) * rho / (d * r) * sin2 ** ((k - 1) // 2)

        hi = min(d + r, profile.support_radius)
        return _range_integral(profile, ball, params, qcfg, fun, abs(d - r), hi) \
            / sin_power_total(k)
    # rho(phi) = |d*e + r*omega(phi)| decreases from d+r to |d-r|
    def rho_vals(phi):
        return np.sqrt(np.maximum(d * d + r * r + 2.0 * d * r * np.cos(phi), 0.0))

    pts = [0.0, np.pi]
    for t in profile.knots_t:
        if abs(d - r) < t < d + r:
            u = (t * t - d * d - r * r) / (2.0 * d * r)
            pts.append(float(np.arccos(np.clip(u, -1.0, 1.0))))
    fun = lambda phi: profile.value(rho_vals(phi)) * np.sin(phi) ** k
    # integrate_adaptive drops repeated points; np.unique would import numpy.ma
    return integrate_adaptive(fun, np.sort(pts), qcfg) / sin_power_total(k)


def gradient_axial_component(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                             qcfg: QuadratureConfig) -> float:
    """Axial component of the average gradient over the ball.

    By rotational symmetry this is the only nonzero component of the
    vector average of Df; it vanishes identically when d = 0.
    """
    if ball.d == 0.0:
        return 0.0
    fun = lambda t, d, r: profile.slope(t) * cap_first_moment(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun)


def gradient_radial_moment(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                           qcfg: QuadratureConfig) -> float:
    """Average of Df(y) . y over the ball."""
    fun = lambda t, d, r: profile.slope(t) * t * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, qcfg, fun)


def weighted_gradient_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                              qcfg: QuadratureConfig, weight=None) -> float:
    """Average of |Df(y)| w(|y|) over the ball.

    weight: None for w = 1, :class:`RadialWeight` for w(t) = t/s, or
    :class:`LevelSetWeight` for an indicator of radius intervals.
    """
    if isinstance(weight, RadialWeight):
        wfun = lambda t: t / weight.s
    elif weight is None or isinstance(weight, LevelSetWeight):
        wfun = lambda t: 1.0
    else:
        raise TypeError(f"unsupported weight {weight!r}")
    fun = lambda t, d, r: np.abs(profile.slope(t)) * wfun(t) * cap_area(t, d, r, params)
    intervals = weight.intervals if isinstance(weight, LevelSetWeight) else None
    return _ball_integral(profile, ball, params, qcfg, fun, intervals)


def _objective(profile: RadialProfile, ds, rs, params: AmbientParams, extra: int):
    """r^beta * ball-average for arrays of balls, by :func:`_panel_sums`."""
    ds = np.asarray(ds, dtype=float)
    rs = np.asarray(rs, dtype=float)
    fun = lambda t, d, r: profile.value(t) * cap_area(t, d, r, params)
    sums = _panel_sums(profile, params.n, np.maximum(ds - rs, 0.0),
                       np.minimum(ds + rs, profile.support_radius), ds, rs, fun, extra)
    return rs**params.beta * (sums / (params.omega_n * rs**params.n))


def batch_objective(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Vectorized r^beta * ball-average for arrays of balls (coarse search).

    At odd n the exact :func:`fixed_rule_objective`.  At even n the same
    panels, with n + _COARSE_EXTRA nodes per cap panel: against the quad
    oracle its relative error on balls meeting the support stays below 1e-5
    at n = 2, for r / T from 1e-4 to 2 and up to 40 knots, and below 5e-5
    on near-tangent balls, |d - r| / r from 1e-4 to 1e-1.
    """
    return _objective(profile, ds, rs, params, _COARSE_EXTRA)


def fixed_rule_objective(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Vectorized r^beta * ball-average for arrays of balls (search refinement).

    :func:`_panel_sums`: at odd n the exact rule of :func:`ball_average`,
    with the same bits.  At even n the full-sphere panels are exact too, and
    the cap panels take n + _FINE_EXTRA nodes in phi: against the quad
    oracle the relative error stays below 1e-12 at n = 2, for r / T from
    1e-4 to 2 and up to 40 knots, and below 2e-8 on near-tangent balls.
    """
    return _objective(profile, ds, rs, params, _FINE_EXTRA)
