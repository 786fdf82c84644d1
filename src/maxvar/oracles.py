"""Slow, structurally independent reference implementations.

These validate the fast kernels: a brute-force 1D maximal value optimized
over interval endpoints, seeded Monte-Carlo ball averages, and a dense
polar quadrature for discs in the plane.  None of them touch the cap
kernels or the panel rule of the averages.
"""

from __future__ import annotations

import numpy as np

from .core import AmbientParams, RadialProfile
from .geometry import AxisBall


def _even_antiderivative(profile: RadialProfile):
    """Callable I with I(u) = integral of F(|w|) dw over [0, u], odd in u.

    Built directly from the knot trapezoids, independent of the core
    cumulative-integral path.
    """
    t = profile.knots_t
    v = profile.knots_v
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))))

    def integral(u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        ac = np.minimum(a, t[-1])
        vals_at = np.interp(ac, t, v)
        idx = np.clip(np.searchsorted(t, ac, side="right") - 1, 0, len(t) - 2)
        part = 0.5 * (v[idx] + vals_at) * (ac - t[idx])
        return np.sign(u) * (cum[idx] + part)

    return integral


def oracle_1d_maximal(profile: RadialProfile, x: float, beta: float,
                      resolution: int = 2000) -> float:
    """Brute-force M_beta f(x) on the line for f(u) = F(|u|).

    Maximizes ((b-a)/2)^beta times the interval average over a dense grid
    of endpoint pairs a <= x <= b, then refines by repeated grid shrinking
    around the best cell.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("the 1D oracle needs beta in (0, 1)")
    T = profile.support_radius
    reach = abs(x) + T
    integral = _even_antiderivative(profile)

    def best_on(a_lo, a_hi, b_lo, b_hi):
        a = np.linspace(a_lo, a_hi, resolution)
        b = np.linspace(b_lo, b_hi, resolution)
        ia = integral(a)
        ib = integral(b)
        width = b[None, :] - a[:, None]
        mass = ib[None, :] - ia[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (0.5 * width) ** beta * mass / width
        vals[width <= 0.0] = -np.inf
        k = int(np.argmax(vals))
        i, j = divmod(k, resolution)
        return float(vals[i, j]), float(a[i]), float(b[j])

    val, a_best, b_best = best_on(-reach, x, x, reach)
    ha = (x + reach) / (resolution - 1)
    hb = (reach - x) / (resolution - 1)
    for _ in range(40):
        a_lo, a_hi = max(-reach, a_best - ha), min(x, a_best + ha)
        b_lo, b_hi = max(x, b_best - hb), min(reach, b_best + hb)
        local = 65
        a = np.linspace(a_lo, a_hi, local)
        b = np.linspace(b_lo, b_hi, local)
        ia = integral(a)
        ib = integral(b)
        width = b[None, :] - a[:, None]
        mass = ib[None, :] - ia[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (0.5 * width) ** beta * mass / width
        vals[width <= 0.0] = -np.inf
        k = int(np.argmax(vals))
        i, j = divmod(k, local)
        if vals[i, j] > val:
            val, a_best, b_best = float(vals[i, j]), float(a[i]), float(b[j])
        ha *= 0.25
        hb *= 0.25
        if max(ha, hb) < 1e-14 * max(1.0, reach):
            break
    return val


def oracle_mc_ball_average(profile: RadialProfile, ball: AxisBall, params: AmbientParams,
                           samples: int, seed: int):
    """Monte-Carlo mean of F(|y|) over the ball, with its standard error."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 2 <= params.n <= 10:
        raise ValueError("Monte-Carlo oracle supports n in 2..10")
    rng = np.random.default_rng(seed)
    mean_acc = 0.0
    sq_acc = 0.0
    done = 0
    chunk = 200_000
    while done < samples:
        m = min(chunk, samples - done)
        dirs = rng.normal(size=(m, params.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rad = ball.r * rng.random(m) ** (1.0 / params.n)
        y = dirs * rad[:, None]
        y[:, 0] += ball.d
        vals = profile.value(np.linalg.norm(y, axis=1))
        mean_acc += float(vals.sum())
        sq_acc += float((vals * vals).sum())
        done += m
    mean = mean_acc / samples
    var = max(sq_acc / samples - mean * mean, 0.0)
    stderr = np.sqrt(var / samples)
    return mean, stderr


def oracle_dense_average_2d(profile: RadialProfile, ball: AxisBall,
                            resolution: int = 2000) -> float:
    """Midpoint polar quadrature of the disc average in the plane."""
    d, r = ball.d, ball.r
    rho = (np.arange(resolution) + 0.5) * (r / resolution)
    psi = (np.arange(resolution) + 0.5) * (2.0 * np.pi / resolution)
    cell = (r / resolution) * (2.0 * np.pi / resolution)
    total = 0.0
    step = max(1, 2_000_000 // resolution)
    for start in range(0, resolution, step):
        c = np.cos(psi[start:start + step])
        dist = np.sqrt(d * d + rho[:, None] ** 2 + 2.0 * d * rho[:, None] * c[None, :])
        total += float(np.sum(profile.value(dist) * rho[:, None]) * cell)
    return total / (np.pi * r * r)
