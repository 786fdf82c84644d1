"""Ball and sphere integral averages of the profile and its gradient.

All averages reduce to 1D integrals in the radius t against the cap
kernels, by one fixed rule at every n and for every batch: a Gauss-Legendre
rule per panel between lo, the knots, |d - r| and hi (Davis & Rabinowitz,
2.7).  Below |d - r| the sphere lies in the ball and every integrand is a
polynomial of degree <= n, so n // 2 + 1 nodes are exact at every n.  Above
it, at odd n, the integrands are polynomials of degree <= 2n - 2 and n
nodes are exact.  At even n the cap kernels have square-root ends there,
which t = |d - r| + L sin^2(phi), L = d + r - |d - r|, makes smooth; the
panels take n + 14 nodes in phi, graded geometrically toward the feature
that a near-tangent ball puts at phi = 0.  The rule has no tolerance and
no budget, and a single ball is a batch of one row.  The search ranks its
coarse grid, runs its compass and reports its values by this one rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import AmbientParams, RadialProfile
from .geometry import AxisBall, cap_area, cap_first_moment, sin_power_total


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
_CAP_EXTRA = 14
# a cap panel [a, b] that starts inside a feature narrower than
# _GRADE_AT * b splits at b * _GRADE^k, k >= 1 (see _graded)
_GRADE = 0.15
_GRADE_AT = 0.3


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


def _graded(owner, a, b, width, fire):
    """The cap panels [a_i, b_i] in phi, each fired one split at
    b * _GRADE^k, k = 1..K, down to a tenth of its row's feature width or to
    a (b * _GRADE^K >= max(width / 10, a)): the piece [b * _GRADE, b] keeps
    its place, the others go after every panel, which leaves each row's
    order of summation its own.  The integrands are analytic in phi but for
    poles about the width from phi = 0, and panels graded geometrically
    toward them converge exponentially, as hp refinement does at a corner
    (Schwab 1998).
    """
    fired = np.flatnonzero(fire)
    levels = (np.log(np.maximum(0.1 * width, a[fired]) / b[fired]) // np.log(_GRADE)).astype(int)
    src = fired.repeat(levels)
    # k runs from 1 to K over the pieces that follow
    k = np.arange(1, len(src) + 1) - (levels.cumsum() - levels).repeat(levels)
    top = b[src]
    left = np.where(k == levels.repeat(levels), a[src], top * _GRADE ** (k + 1))
    a[fired] = b[fired] * _GRADE
    return (np.concatenate((owner, owner[src])), np.concatenate((a, left)),
            np.concatenate((b, top * _GRADE ** k)))


_CHUNK_NODES = 1 << 16  # nodes per evaluation, which bounds the temporaries


def _panel_sums(profile: RadialProfile, n: int, lo, hi, ds, rs, fun, arcsine: bool = False):
    """Per row, the integral of fun(t, d_i, r_i) over [lo_i, hi_i] by the
    module's rule on the :func:`_panels` panels, split at |d_i - r_i|, with
    n + _CAP_EXTRA nodes per cap panel at even n (:func:`_graded`).  With
    arcsine, fun leaves out the factor ((t - |d - r|)(d + r - t))^(-1/2),
    which the map makes the constant 2.  Rows go in runs of about
    _CHUNK_NODES nodes; no row's sum depends on the other rows.
    """
    cap = (n, False, False) if n % 2 else (n + _CAP_EXTRA, True, arcsine)
    knots = profile.knots_t
    if len(lo) * (len(knots) + 1) * cap[0] <= _CHUNK_NODES:
        return _run_sums(knots, n, lo, hi, ds, rs, fun, cap)
    nodes = (knots.searchsorted(hi) - knots.searchsorted(lo) + 2) * cap[0]
    cuts = np.flatnonzero(np.diff(nodes.cumsum() // _CHUNK_NODES)) + 1
    return np.concatenate([_run_sums(knots, n, *(a[i:j] for a in (lo, hi, ds, rs)), fun, cap)
                           for i, j in zip(np.r_[0, cuts], np.r_[cuts, len(lo)])])


def _run_sums(knots, n: int, lo, hi, ds, rs, fun, cap):
    """:func:`_panel_sums` on one run of rows, cap = (nodes, mapped to phi,
    arcsine)."""
    rows = len(lo)
    base = np.abs(ds - rs)
    left, right, side = _panels(knots, lo, hi, base)
    # the panels below the split come first, then the caps'; both rules'
    # nodes go into one flat call
    full = side.searchsorted(rows)
    row = side % rows
    m, mapped, arcsine = cap
    caps = row[full:], left[full:], right[full:]
    if mapped:
        # sin^2(phi) = (t - base) / span, a quotient of lengths in [0, 1]:
        # dilating the ball by a power of two leaves every phi node unchanged
        span = ds + rs - base
        owner, a, b = caps
        at, sp = base[owner], span[owner]
        a, b = np.arcsin(np.sqrt((np.concatenate((a, b)).reshape(2, -1) - at) / sp))
        # width w = sqrt(at / sp) < _GRADE_AT * b, then a < w and a < _GRADE * b
        # (K >= 1), squared; the first test alone is rarely passed
        fire = at < _GRADE_AT**2 * b * b * sp
        caps = owner, a, b
        if np.count_nonzero(fire) and \
                np.count_nonzero(fire := fire & (a * a * sp < at) & (a < _GRADE * b)):
            caps = _graded(owner, a, b, np.sqrt(at[fire] / sp[fire]), fire)
            at, sp = base[caps[0]], span[caps[0]]
    cut = full * (n // 2 + 1)
    size = cut + len(caps[0]) * m
    index, t, weight = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size)
    for (owner, a, b), nodes, k in (((row[:full], left[:full], right[:full]),
                                     slice(None, cut), n // 2 + 1), (caps, slice(cut, None), m)):
        x, w = _gauss(k)
        index[nodes].reshape(-1, k)[...] = owner[:, None]
        h, tm, wm = (b - a)[:, None], t[nodes].reshape(-1, k), weight[nodes].reshape(-1, k)
        np.add(a[:, None], np.multiply(h, x, out=tm), out=tm)
        np.multiply(h, w, out=wm)
    if mapped:  # the caps' nodes are in phi: t = base + span sin^2(phi)
        at, sp = at[:, None], sp[:, None]
        phi, wm = t[cut:].reshape(-1, m), weight[cut:].reshape(-1, m)
        sin = np.sin(phi)
        wm *= 2.0 if arcsine else 2.0 * sp * sin * np.cos(phi)
        phi[...] = at + sp * sin**2
    return np.bincount(index, weights=fun(t, ds[index], rs[index]) * weight, minlength=rows)


def _ball_integral(profile: RadialProfile, ball: AxisBall, params: AmbientParams, fun,
                   intervals=None) -> float:
    """Integral of fun(t, d, r) over the ball, per volume, or over its part
    with |y| in the union of the radius intervals, one row per interval so
    that an indicator weight leaves every integrand continuous.  One ball
    is a batch of one: the arithmetic is :func:`_objective`'s, bit for bit."""
    d, r = ball.d, ball.r
    lo, hi = max(0.0, d - r), min(d + r, profile.support_radius)
    # an empty or inverted row has no panels
    pieces = [(lo, hi)] if intervals is None else intervals
    rows = [(max(lo, a), min(hi, b), d, r) for a, b in pieces]
    los, his, ds, rs = np.array(rows, dtype=float).reshape(-1, 4).T.copy()
    sums = _panel_sums(profile, params.n, los, his, ds, rs, fun)
    return sum((sums / (params.omega_n * rs**params.n)).tolist(), 0.0)


def ball_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                 qcfg=None) -> float:
    """Integral average of |f| over the ball (qcfg is ignored: the rule has
    no tolerance)."""
    fun = lambda t, d, r: profile.value(t) * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, fun)


def sphere_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams) -> float:
    """Integral average of |f| over the boundary sphere of the ball; at n = 1
    two points.

    With rho^2 = d^2 + r^2 + 2 d r cos(phi), d phi = rho d rho / (d r sin(phi)):
    the average of F(rho(phi)) against sin^k(phi), k = n - 2, is the integral
    of F(rho) rho / (d r) sin^(k-1)(phi) over [|d - r|, d + r], where
    sin^2(phi) = p q / (2 d r)^2, p = (d + r - rho)(rho - |d - r|) and
    q = (d + r + rho)(rho + |d - r|).  At odd n the integrand is a
    polynomial on every panel; at even n the rule's arcsine measure takes
    the factor p^(-1/2), singular at both ends.
    """
    d, r = ball.d, ball.r
    if params.n == 1:
        return 0.5 * float(profile.value(abs(d - r)) + profile.value(d + r))
    if d == 0.0:
        return float(profile.value(r))
    k = params.n - 2

    def fun(rho, d, r):
        a = np.abs(d - r)
        sin2 = (d + r - rho) * (d + r + rho) * (rho - a) * (rho + a) / (2.0 * d * r) ** 2
        value = profile.value(rho) * rho / (d * r) * sin2 ** (k // 2)
        # even k: sin^(k-1) = sin^k 2 d r / sqrt(p q), and the rule takes p^(-1/2)
        return value if k % 2 else value * (2.0 * d * r) / np.sqrt((d + r + rho) * (rho + a))

    row = (np.array([x]) for x in (abs(d - r), min(d + r, profile.support_radius), d, r))
    total = _panel_sums(profile, params.n, *row, fun, arcsine=True)
    return float(total[0]) / sin_power_total(k)


def gradient_axial_component(profile: RadialProfile, ball: AxisBall,
                             params: AmbientParams) -> float:
    """Axial component of the average gradient over the ball.

    By rotational symmetry this is the only nonzero component of the
    vector average of Df; it vanishes identically when d = 0.
    """
    if ball.d == 0.0:
        return 0.0
    fun = lambda t, d, r: profile.slope(t) * cap_first_moment(t, d, r, params)
    return _ball_integral(profile, ball, params, fun)


def gradient_radial_moment(profile: RadialProfile, ball: AxisBall,
                           params: AmbientParams) -> float:
    """Average of Df(y) . y over the ball."""
    fun = lambda t, d, r: profile.slope(t) * t * cap_area(t, d, r, params)
    return _ball_integral(profile, ball, params, fun)


def weighted_gradient_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                              weight=None) -> float:
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
    return _ball_integral(profile, ball, params, fun, intervals)


def fixed_rule_objective(profile: RadialProfile, ds, rs, params: AmbientParams,
                         unit: float = 1.0):
    """Vectorized (r / unit)^beta * ball-average for arrays of balls, by
    default r^beta * ball-average: the search's one evaluator, which ranks
    the coarse grid and runs the compass in units of T (unit = T).

    :func:`_panel_sums` with the rule of :func:`ball_average`, whose value
    times numpy's (r / unit)^beta it equals bit for bit at every n.  At odd
    n the rule is exact.  At even n the full-sphere panels are exact too,
    and the cap panels take n + _CAP_EXTRA nodes in phi: against the quad
    oracle the relative error stays below 1e-12 at n = 2, for r / T from
    1e-4 to 2 and up to 40 knots, near-tangent balls included.
    """
    ds = np.asarray(ds, dtype=float)
    rs = np.asarray(rs, dtype=float)
    fun = lambda t, d, r: profile.value(t) * cap_area(t, d, r, params)
    sums = _panel_sums(profile, params.n, np.maximum(ds - rs, 0.0),
                       np.minimum(ds + rs, profile.support_radius), ds, rs, fun)
    return (rs / unit)**params.beta * (sums / (params.omega_n * rs**params.n))


# the name perfbench's warm-up, accuracy record and tracer read
batch_objective = fixed_rule_objective
