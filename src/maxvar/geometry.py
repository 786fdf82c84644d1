"""Axis-reduced balls and closed-form spherical-cap kernels.

Every n-dimensional integral of a radial function over a ball B(d*e, r)
reduces to a 1D integral in the radius t, weighted by the measure of the
cap {|y| = t} intersected with the ball and, for gradient integrals, by
its cosine first moment.  The kernels below are those weights: at odd n
polynomials in t on each side of |d - r|, at even n functions of the angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .core import AmbientParams


class InfeasibleBallError(ValueError):
    """The evaluation point is not inside the closed ball; signals a search bug."""


@dataclass(frozen=True)
class AxisBall:
    """Ball B(d*e, r) with center on the evaluation axis, d >= 0, r > 0."""

    d: float
    r: float

    def __post_init__(self):
        if self.d < 0.0 or self.r <= 0.0 or not (math.isfinite(self.d) and math.isfinite(self.r)):
            raise ValueError(f"need d >= 0 and r > 0, got (d={self.d}, r={self.r})")

    def contains(self, s: float, tol: float = 0.0) -> bool:
        return abs(self.d - s) <= self.r + tol


@dataclass(frozen=True)
class Contact:
    """Contact type of the evaluation point with the ball, plus c = d/s."""

    kind: str  # interior | boundary_inner | boundary_outer
    c: float


def classify_contact(ball: AxisBall, s: float, tol: float) -> Contact:
    """Interior/boundary classification with c = d/s (nan when s = 0).

    The tolerance is relative to the radius: the point counts as boundary
    when r - |d - s| <= tol * r.
    """
    gap = ball.r - abs(ball.d - s)
    if gap < -tol * ball.r:
        raise InfeasibleBallError(f"point s={s} outside ball (d={ball.d}, r={ball.r})")
    c = ball.d / s if s > 0.0 else math.nan
    if gap <= tol * ball.r:
        kind = "boundary_inner" if ball.d < s else "boundary_outer"
        return Contact(kind, c)
    return Contact("interior", c)


def sin_power_integral(k: int, theta, cos_t=None, sin_t=None):
    """Integral of sin^k over [0, theta], by the stable descending recurrence.

    Closed forms for k <= 2, recurrence above; vectorized in theta.
    cos_t/sin_t may be passed to avoid recomputing them.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta) if cos_t is None else np.asarray(cos_t, dtype=float)
    s = np.sin(theta) if sin_t is None else np.asarray(sin_t, dtype=float)
    if k == 0:
        return theta + 0.0
    if k == 1:
        return 1.0 - c
    acc = theta if k % 2 == 0 else (1.0 - c)
    j = 2 if k % 2 == 0 else 3
    while j <= k:
        acc = (-c * s ** (j - 1) + (j - 1) * acc) / j
        j += 2
    return acc


def sin_power_total(k: int) -> float:
    """Integral of sin^k over [0, pi]."""
    return math.sqrt(math.pi) * math.gamma((k + 1) / 2.0) / math.gamma(k / 2.0 + 1.0)


def _cap_cosine(t, d, r):
    """cos(theta*) for the cap of even n, clamped via the containment tests.

    The quotient cancels near u = +-1, at the regime boundaries.  The
    adaptive averages presplit their cells there geometrically, and the
    fixed rule's substitution gives its nodes there weights that vanish
    at the boundary; the midpoint ranking rule does neither and takes the
    error.  Works in place on the numerator's array, bit-identical to the
    allocating expression; 0-d inputs give a scalar.
    """
    t = np.asarray(t, dtype=float)
    # the numerator has the broadcast shape; a 0-d one is made an array
    u = np.asarray(t * t + (d * d - r * r))
    work = np.multiply(2.0 * t, d, out=np.empty_like(u))
    # degenerate denominators are overridden by the containment masks below
    np.maximum(work, 1e-300, out=work)
    np.divide(u, work, out=u)
    np.subtract(t, d, out=work)
    np.abs(work, out=work)
    mask = np.greater_equal(work, r, out=np.empty(u.shape, dtype=bool))
    np.copyto(u, 1.0, where=mask)
    np.add(t, d, out=work)
    np.less_equal(work, r, out=mask)
    np.copyto(u, -1.0, where=mask)
    # np.clip's bits, without its wrapper's cost on the adaptive rule's small arrays
    np.maximum(u, -1.0, out=u)
    np.minimum(u, 1.0, out=u)
    return u[()]


def cap_angle(t, d, r):
    """Half-opening angle of {|y| = t} within B(d*e, r), in [0, pi].

    arccos of (t^2 + d^2 - r^2) / (2 t d), clamped; pi when the sphere is
    contained in the ball, 0 when they are disjoint.  Callers handle
    t = 0 and d = 0 through full/empty containment tests.
    """
    return np.arccos(_cap_cosine(t, d, r))


def _cap_w(t, d, r):
    """w = 1 - cos(theta*) in [0, 2], as (r - t + d)(r + t - d) / (2 t d): the
    factored difference of squares keeps its relative accuracy on the small
    caps of small balls, where 1 - u cancels.  The containment masks of
    :func:`_cap_cosine` set w = 0 outside the ball and 2 inside it."""
    t = np.asarray(t, dtype=float)
    gap = t - d
    # a 0-d product is made an array; the masks override degenerate quotients
    w = np.asarray((r - gap) * (r + gap))
    np.divide(w, np.maximum(2.0 * t * d, 1e-300), out=w)
    np.copyto(w, 0.0, where=np.abs(gap) >= r)
    np.copyto(w, 2.0, where=t + d <= r)
    return np.minimum(w, 2.0)[()]  # rounding may lift the quotient past 2


@cache
def _odd_cap_polynomial(n: int):
    """P_n(w) = integral of (x (2 - x))^((n - 3)/2) over [0, w], which is
    the integral of sin^(n-2) over [0, theta] with x = 1 - cos."""
    poly = np.polynomial.polynomial
    return poly.polyint(poly.polypow([0.0, 2.0, -1.0], (n - 3) // 2))


def cap_area(t, d, r, params: AmbientParams):
    """H^(n-1) measure of {|y| = t} intersected with B(d*e, r).  At n = 1 the
    sphere is the pair {-t, t}, and the kernel counts its points in the ball.
    """
    n = params.n
    t = np.asarray(t, dtype=float)
    if n == 1:
        both = t + d <= r  # _cap_w's masks: both points, or t alone where w > 0
        return np.add(both | (np.abs(t - d) < r), both, dtype=float)
    if n % 2:
        w = _cap_w(t, d, r)
        # Horner, without polyval's per-call checks
        poly = reduce(lambda acc, c: acc * w + c, _odd_cap_polynomial(n)[::-1])
        return params.sigma_lower * t ** (n - 1) * poly
    u = _cap_cosine(t, d, r)
    if n == 2:
        return 2.0 * t * np.arccos(u)
    sin_t = np.sqrt(np.maximum((1.0 - u) * (1.0 + u), 0.0))
    theta = np.arccos(u)
    return params.sigma_lower * t ** (n - 1) * sin_power_integral(n - 2, theta, cos_t=u, sin_t=sin_t)


def cap_first_moment(t, d, r, params: AmbientParams):
    """Integral of cos(theta) over the same cap: sigma' t^(n-1) sin^(n-1)(theta*)/(n-1).

    Vanishes for both the full sphere and the empty cap.  At odd n,
    sin^2(theta*) = w (2 - w); at n = 1 it is 1 where t alone is in the ball.
    """
    n = params.n
    t = np.asarray(t, dtype=float)
    if n == 1:
        both = t + d <= r
        return np.subtract(both | (np.abs(t - d) < r), both, dtype=float)
    if n % 2:
        w = _cap_w(t, d, r)
        return params.sigma_lower * t ** (n - 1) * (w * (2.0 - w)) ** ((n - 1) // 2) / (n - 1)
    u = _cap_cosine(t, d, r)
    pyth = np.maximum((1.0 - u) * (1.0 + u), 0.0)
    if n == 2:
        return 2.0 * t * np.sqrt(pyth)
    sin_t = np.sqrt(pyth)
    return params.sigma_lower * t ** (n - 1) * sin_t ** (n - 1) / (n - 1)
