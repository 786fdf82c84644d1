"""Axis-reduced balls and closed-form spherical-cap kernels.

Every n-dimensional integral of a radial function over a ball B(d*e, r)
reduces to a 1D integral in the radius t, weighted by the measure of the
cap {|y| = t} intersected with the ball and, for gradient integrals, by
its cosine first moment.  The kernels below are those weights, functions
of w = 1 - cos(theta*), which is computed without cancellation: at odd n
polynomials in w, hence in t on each side of |d - r|, and at even n
functions of theta* = 2 arcsin(sqrt(w / 2)) summed without cancellation.
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


def _cap_w(t, d, r):
    """w = 1 - cos(theta*) in [0, 2] for the cap of {|y| = t} in B(d*e, r),
    as (r - t + d)(r + t - d) / (2 t d): the factored difference of squares
    keeps its relative accuracy on the small caps of small balls, where
    1 - cos cancels.  w = 0 where the sphere misses the ball and 2 where
    the ball contains it; 0-d inputs give a scalar."""
    t = np.asarray(t, dtype=float)
    gap = t - d
    # a 0-d product is made an array; the masks override degenerate quotients
    w = np.asarray((r - gap) * (r + gap))
    np.divide(w, np.maximum(2.0 * t * d, 1e-300), out=w)
    np.copyto(w, 0.0, where=np.abs(gap) >= r)
    np.copyto(w, 2.0, where=t + d <= r)
    return np.minimum(w, 2.0)[()]  # rounding may lift the quotient past 2


def cap_angle(t, d, r):
    """Half-opening angle theta* of {|y| = t} within B(d*e, r), in [0, pi]:
    2 arcsin(sqrt(w / 2)), pi when the sphere is contained in the ball and
    0 when they are disjoint."""
    return 2.0 * np.arcsin(np.sqrt(0.5 * _cap_w(t, d, r)))


def _horner(coeffs, x):
    """Polynomial, coefficients highest first, at x; no polyval call checks."""
    return reduce(lambda acc, c: acc * x + c, coeffs)


@cache
def _odd_sin_power(k: int):
    """Coefficients, highest first, of P(w) = integral of (x (2 - x))^((k - 1)/2)
    over [0, w]: the integral of sin^k over [0, theta] at odd k, x = 1 - cos."""
    poly = np.polynomial.polynomial
    return poly.polyint(poly.polypow([0.0, 2.0, -1.0], (k - 1) // 2))[::-1]


@cache
def _arcsin_series(count: int):
    """c_j = (2j)!! / (2j + 1)!! for j < count: below pi / 2, theta is cos(theta)
    times the sum of c_j sin^(2j+1)(theta) (DLMF 8.17, hypergeometric form)."""
    j = np.arange(count - 1)
    return np.cumprod(np.concatenate(([1.0], (2.0 * j + 2.0) / (2.0 * j + 3.0))))


# the sin^2 up to which 2^i terms of the tail suffice: x^(2^i) <= 2^-55
_TAIL_BOUNDS = 2.0 ** (-55.0 / 2.0 ** np.arange(7))


def sin_power_integral(k: int, w):
    """Integral of sin^k over [0, theta], with w = 1 - cos(theta) in [0, 2].

    Odd k: a polynomial in w.  Even k: (k - 1)!!/k!! times the bracket
    theta - cos(theta) * sum_{j < k/2} c_j sin^(2j+1)(theta) (see
    :func:`_arcsin_series`) from theta = pi / 4 on, where it loses at most a
    factor 40 to cancellation; below pi / 4 the bracket's positive tail
    cos(theta) * sum_{j >= k/2} c_j sin^(2j+1)(theta), each element summed
    to the least power of two of terms at which its ratio sin^2(theta), at
    most 1/2, has shrunk them past 2^-55: ~1e-14 relative, with a length
    that depends on the element alone, not on the rest of its batch.
    """
    w = np.asarray(w, dtype=float)
    if k % 2:
        return _horner(_odd_sin_power(k), w)
    theta = 2.0 * np.arcsin(np.sqrt(0.5 * w))
    if k == 0:
        return theta
    m = k // 2
    sin2 = w * (2.0 - w)
    small = w < 1.0 - math.sqrt(0.5)  # theta < pi / 4
    series = _arcsin_series(m + 2 ** (_TAIL_BOUNDS.size - 1))
    cos_sin = (1.0 - w) * np.sqrt(sin2)
    bracket = np.asarray(theta - cos_sin * _horner(series[m - 1::-1], sin2))
    # the tail, summed only where it is taken, in classes of equal length
    x = sin2[small]
    level = _TAIL_BOUNDS.searchsorted(x)
    tail = np.empty_like(x)
    for i in np.flatnonzero(np.bincount(level)):
        sel = level == i
        tail[sel] = _horner(series[m:m + 2**i][::-1], x[sel])
    bracket[small] = cos_sin[small] * x**m * tail
    return math.prod((2 * i - 1) / (2 * i) for i in range(1, m + 1)) * bracket[()]


def sin_power_total(k: int) -> float:
    """Integral of sin^k over [0, pi]."""
    return math.sqrt(math.pi) * math.gamma((k + 1) / 2.0) / math.gamma(k / 2.0 + 1.0)


def cap_area(t, d, r, params: AmbientParams):
    """H^(n-1) measure of {|y| = t} intersected with B(d*e, r):
    sigma_(n-1) t^(n-1) times the integral of sin^(n-2) over [0, theta*].
    At n = 1 the sphere is the pair {-t, t}, and the kernel counts its
    points in the ball.
    """
    n = params.n
    t = np.asarray(t, dtype=float)
    if n == 1:
        both = t + d <= r  # _cap_w's masks: both points, or t alone where w > 0
        return np.add(both | (np.abs(t - d) < r), both, dtype=float)
    return params.sigma_lower * t ** (n - 1) * sin_power_integral(n - 2, _cap_w(t, d, r))


def cap_first_moment(t, d, r, params: AmbientParams):
    """Integral of cos(theta) over the same cap: sigma' t^(n-1) sin^(n-1)(theta*)/(n-1),
    with sin^2(theta*) = w (2 - w).

    Vanishes for both the full sphere and the empty cap; at n = 1 it is 1
    where t alone is in the ball.
    """
    n = params.n
    t = np.asarray(t, dtype=float)
    if n == 1:
        both = t + d <= r
        return np.subtract(both | (np.abs(t - d) < r), both, dtype=float)
    w = _cap_w(t, d, r)
    return params.sigma_lower * t ** (n - 1) * (w * (2.0 - w)) ** (0.5 * (n - 1)) / (n - 1)
