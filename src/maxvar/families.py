"""Profile families used by the verification suites and sweeps."""

from __future__ import annotations

import numpy as np

from .core import RadialProfile, load_profile


def tent(height: float = 1.0, radius: float = 1.0) -> RadialProfile:
    return load_profile([(0.0, height), (radius, 0.0)])


def annular_bump() -> RadialProfile:
    return load_profile([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)])


def two_bump() -> RadialProfile:
    return load_profile([(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (2.5, 0.8), (3.0, 0.0)])


def standard_family() -> dict[str, RadialProfile]:
    """The tent / annular-bump / two-bump trio used across the test suites."""
    return {"tent": tent(), "annular_bump": annular_bump(), "two_bump": two_bump()}


def random_profile(rng: np.random.Generator, n_knots: int = 6, t_max: float = 2.0) -> RadialProfile:
    """Seeded random piecewise-linear profile with support [0, t_max].

    Interior knots come from a jittered lattice of max(40, n_knots - 2)
    cells, so separations stay above half a cell (1% of the support up to
    42 knots); genuinely steep ramps are built deliberately via duplicate
    radii in load_profile, not sampled here.
    """
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    cells = np.linspace(0.05 * t_max, 0.95 * t_max, max(40, n_knots - 2))
    centers = np.sort(rng.choice(cells, size=n_knots - 2, replace=False))
    jitter = rng.uniform(-0.25, 0.25, size=n_knots - 2) * (cells[1] - cells[0])
    t = np.concatenate(([0.0], centers + jitter, [t_max]))
    v = rng.uniform(0.0, 1.0, size=n_knots)
    v[-1] = 0.0
    if v.max() < 0.1:
        v[0] = 1.0
    return load_profile(list(zip(t, v)))


def scale_profile(profile: RadialProfile, factor: float) -> RadialProfile:
    """Pointwise multiple factor * F (factor > 0)."""
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    return RadialProfile(profile.knots_t.copy(), factor * profile.knots_v)


def dilate_profile(profile: RadialProfile, lam: float) -> RadialProfile:
    """Dilation F(lam * t): support shrinks by 1/lam for lam > 1."""
    if not 0.0 < lam < np.inf:
        raise ValueError(f"dilation factor must be positive and finite, got {lam}")
    return RadialProfile(profile.knots_t / lam, profile.knots_v.copy())
