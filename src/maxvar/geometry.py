"""Axis-reduced balls and closed-form spherical-cap kernels.

Every n-dimensional integral of a radial function over a ball B(d*e, r)
reduces to a 1D integral in the radius t, weighted by the measure of the
cap {|y| = t} intersected with the ball and, for gradient integrals, by
its cosine first moment.  The kernels below are those weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """cos(theta*) for the cap, clamped via the containment tests.

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


def cap_area(t, d, r, params: AmbientParams):
    """H^(n-1) measure of {|y| = t} intersected with B(d*e, r); n >= 2."""
    n = params.n
    t = np.asarray(t, dtype=float)
    u = _cap_cosine(t, d, r)
    if n == 2:
        return 2.0 * t * np.arccos(u)
    if n == 3:
        return 2.0 * math.pi * t * t * (1.0 - u)
    sin_t = np.sqrt(np.maximum((1.0 - u) * (1.0 + u), 0.0))
    theta = np.arccos(u)
    return params.sigma_lower * t ** (n - 1) * sin_power_integral(n - 2, theta, cos_t=u, sin_t=sin_t)


def cap_first_moment(t, d, r, params: AmbientParams):
    """Integral of cos(theta) over the same cap: sigma' t^(n-1) sin^(n-1)(theta*)/(n-1).

    Vanishes for both the full sphere and the empty cap.
    """
    n = params.n
    t = np.asarray(t, dtype=float)
    u = _cap_cosine(t, d, r)
    pyth = np.maximum((1.0 - u) * (1.0 + u), 0.0)
    if n == 2:
        return 2.0 * t * np.sqrt(pyth)
    if n == 3:
        return math.pi * t * t * pyth
    sin_t = np.sqrt(pyth)
    return params.sigma_lower * t ** (n - 1) * sin_t ** (n - 1) / (n - 1)
