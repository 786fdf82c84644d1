"""Ambient parameters and piecewise-linear radial profiles.

A radial function f(x) = F(|x|) is stored through its profile F: a
continuous, nonnegative, compactly supported, piecewise-linear function
given by sorted knots (t_i, F_i).  L1 norms of f and of its gradient are
closed-form monomial sums over the linear pieces, so no quadrature enters
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative width used to replace a value jump at radius t by a steep
# linear ramp [t, t + w].  Keeps profiles continuous while letting
# indicator-like inputs load with the expected BV gradient mass.
JUMP_RAMP_REL_WIDTH = 1e-9


class ProfileError(ValueError):
    """Raised when a knot list cannot be turned into a valid profile."""


@dataclass(frozen=True)
class AmbientParams:
    """Dimension n, fractional order beta and the derived constants.

    q = n/(n - beta) is the Sobolev-type exponent, omega_n the volume of
    the unit ball, sigma_n the surface measure of the unit sphere.
    """

    n: int
    beta: float
    q: float = field(init=False)
    omega_n: float = field(init=False)
    sigma_n: float = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        if not (0.0 < self.beta < self.n):
            raise ValueError(f"fractional order must lie in (0, n), got beta={self.beta}")
        omega = math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0 + 1.0)
        q = self.n / (self.n - self.beta)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "omega_n", omega)
        object.__setattr__(self, "sigma_n", self.n * omega)
        assert abs(q * self.beta - self.n * (q - 1.0)) <= 1e-12 * self.n

    @property
    def sigma_lower(self) -> float:
        """Surface measure of the unit sphere in R^(n-1); 2 when n = 2."""
        if self.n < 2:
            raise ValueError("sigma_lower is undefined for n = 1")
        m = self.n - 1
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Validated piecewise-linear profile; use :func:`load_profile` to build."""

    knots_t: np.ndarray
    knots_v: np.ndarray
    slopes: np.ndarray = field(init=False)
    support_radius: float = field(init=False)
    max_value: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        v = np.asarray(self.knots_v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ProfileError("profile needs at least two knots")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ProfileError("knot radii must start at 0 and be strictly increasing")
        if np.any(v < 0.0) or v[-1] != 0.0:
            raise ProfileError("knot values must be nonnegative and end at 0")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ProfileError("knots must be finite")
        if v.max() == 0.0:
            raise ProfileError("profile is identically zero")
        slopes = np.diff(v) / np.diff(t)
        for name, val in (("knots_t", t), ("knots_v", v), ("slopes", slopes)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "support_radius", float(t[-1]))
        object.__setattr__(self, "max_value", float(v.max()))

    def value(self, t):
        """F(t); zero beyond the support radius."""
        return np.interp(t, self.knots_t, self.knots_v, left=self.knots_v[0], right=0.0)

    def slope(self, t):
        """F'(t) as the piecewise-constant slope; zero outside (0, T)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots_t, t, side="right") - 1, 0, len(self.slopes) - 1)
        out = self.slopes[idx]
        return np.where((t < 0.0) | (t >= self.support_radius), 0.0, out)

    def max_on(self, lo, hi):
        """Maximum of F over each interval [lo, hi] (vectorized, lo <= hi).

        F is linear between knots, so the maximum is at an end or at a knot
        inside; the knots' maximum comes from a sparse table of maxima over
        runs of 2^k knots, two lookups per interval.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        v = self.knots_v
        idx = np.arange(len(v))
        table = [v]
        while 2 ** len(table) <= len(v):
            prev = table[-1]
            table.append(np.maximum(prev, prev[np.minimum(idx + 2 ** (len(table) - 1),
                                                          len(v) - 1)]))
        table = np.array(table)
        i0 = np.searchsorted(self.knots_t, lo, side="right")
        i1 = np.searchsorted(self.knots_t, hi, side="left")
        count = np.maximum(i1 - i0, 1)
        k = np.frexp(count)[1] - 1
        inner = np.maximum(table[k, np.minimum(i0, len(v) - 1)], table[k, i1 - 2**k])
        ends = np.maximum(self.value(lo), self.value(hi))
        return np.where(i1 > i0, np.maximum(ends, inner), ends)

    def knot_list(self):
        return [(float(a), float(b)) for a, b in zip(self.knots_t, self.knots_v)]


def load_profile(knot_list) -> RadialProfile:
    """Validate and normalize a knot list into a :class:`RadialProfile`.

    Signed values are absolutized with zero-crossing knots inserted first,
    so the stored profile is exactly |F|.  Duplicate radii carrying a value
    jump become steep ramps of relative width 1e-9; a nonzero trailing
    value is closed by the same ramp so the support stays compact.
    """
    arr = np.asarray(list(knot_list), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ProfileError("expected a non-empty list of (radius, value) pairs")
    if not np.all(np.isfinite(arr)):
        raise ProfileError("knots must be finite")
    t, v = arr[:, 0], arr[:, 1]
    if t[0] < 0.0:
        raise ProfileError("radii must be nonnegative")
    if np.any(np.diff(t) < 0.0):
        raise ProfileError("radii must be non-decreasing")

    # insert zero crossings on pieces of positive width, then absolutize
    tt, vv = [t[0]], [v[0]]
    for i in range(len(t) - 1):
        t0, v0, t1, v1 = t[i], v[i], t[i + 1], v[i + 1]
        if t1 > t0 and v0 * v1 < 0.0:
            tz = t0 + (t1 - t0) * v0 / (v0 - v1)
            if t0 < tz < t1:
                tt.append(tz)
                vv.append(0.0)
        tt.append(t1)
        vv.append(v1)
    t = np.asarray(tt)
    v = np.abs(np.asarray(vv))

    if v.max() == 0.0:
        raise ProfileError("profile is identically zero")
    t_max = t[-1] if t[-1] > 0.0 else 1.0
    w = JUMP_RAMP_REL_WIDTH * t_max

    # collapse duplicate radii: equal values merge, jumps become ramps
    out_t, out_v = [], []
    i = 0
    while i < len(t):
        j = i
        while j + 1 < len(t) and t[j + 1] == t[i]:
            j += 1
        first, last = v[i], v[j]
        out_t.append(t[i])
        out_v.append(first)
        if last != first:
            gap = (t[j + 1] - t[i]) if j + 1 < len(t) else np.inf
            out_t.append(t[i] + min(w, 0.5 * gap))
            out_v.append(last)
        i = j + 1

    if out_t[0] > 0.0:
        out_t.insert(0, 0.0)
        out_v.insert(0, out_v[0])
    if out_v[-1] != 0.0:
        out_t.append(out_t[-1] + w)
        out_v.append(0.0)
    return RadialProfile(np.asarray(out_t), np.asarray(out_v))


def l1_norm(profile: RadialProfile, params: AmbientParams) -> float:
    """||f||_L1 = sigma_n * integral of F(t) t^(n-1) dt, in closed form."""
    n = params.n
    t0 = profile.knots_t[:-1]
    t1 = profile.knots_t[1:]
    g = profile.slopes
    a = profile.knots_v[:-1] - g * t0
    total = np.sum(a * (t1**n - t0**n) / n + g * (t1 ** (n + 1) - t0 ** (n + 1)) / (n + 1))
    return float(params.sigma_n * total)


def gradient_l1_norm(profile: RadialProfile, params: AmbientParams) -> float:
    """||Df||_L1 = sigma_n * integral of |F'(t)| t^(n-1) dt, in closed form."""
    n = params.n
    t0 = profile.knots_t[:-1]
    t1 = profile.knots_t[1:]
    total = np.sum(np.abs(profile.slopes) * (t1**n - t0**n) / n)
    return float(params.sigma_n * total)


def level_intervals(profile: RadialProfile, lo: float, hi: float, window):
    """Exact union of closed radius intervals where lo <= F(t) <= hi.

    Endpoints are solved on the linear pieces; the result is intersected
    with the window, sorted and merged.  The region beyond the support
    (where F = 0) is included when lo <= 0.
    """
    if not (0.0 <= lo <= hi):
        raise ValueError("need 0 <= lo <= hi")
    w_lo, w_hi = window
    w_lo = max(0.0, w_lo)
    if w_hi <= w_lo:
        return []

    raw = []
    t, v = profile.knots_t, profile.knots_v
    for i in range(len(t) - 1):
        t0, t1, v0, v1 = t[i], t[i + 1], v[i], v[i + 1]
        if v0 == v1:
            if lo <= v0 <= hi:
                raw.append((t0, t1))
            continue
        g = (v1 - v0) / (t1 - t0)
        # radius pair where the piece meets the band [lo, hi]
        ra = t0 + (lo - v0) / g
        rb = t0 + (hi - v0) / g
        a, b = (ra, rb) if ra <= rb else (rb, ra)
        a, b = max(a, t0), min(b, t1)
        if a <= b:
            raw.append((a, b))
    if lo <= 0.0:
        raw.append((profile.support_radius, np.inf))

    clipped = []
    for a, b in raw:
        a2, b2 = max(a, w_lo), min(b, w_hi)
        if a2 <= b2:
            clipped.append((float(a2), float(b2)))
    clipped.sort()
    merged = []
    for a, b in clipped:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged
