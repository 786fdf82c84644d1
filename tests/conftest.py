import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta as beta_fn
from scipy.special import betainc

from maxvar.core import AmbientParams
from maxvar.families import annular_bump, tent, two_bump
from maxvar.oracles import _even_antiderivative


def rel_err(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


# -- an independent oracle for the radial averages --------------------------
# Built from scipy alone: the cap angle by Kahan's formula for needle-like
# triangles, the integral of sin^k by the incomplete beta function
# (DLMF 8.17), and adaptive quad on the radial integrands.


def kahan_cap_angle(t, d, r):
    """Angle at the origin of the triangle with sides t, d and r (opposite)."""
    if t + d <= r:
        return math.pi
    if abs(t - d) >= r:
        return 0.0
    a, b, c = max(t, d), min(t, d), r
    mu = c - (a - b) if b >= c else b - (a - c)
    return 2.0 * math.atan(math.sqrt(((a - b) + c) * mu / ((a + (b + c)) * ((a - c) + b))))


def sin_power_to(k, theta):
    """Integral of sin^k over [0, theta]: half of B(sin^2 theta; (k+1)/2, 1/2)
    up to pi/2, the complement beyond."""
    full = beta_fn((k + 1) / 2.0, 0.5)
    half = 0.5 * full * betainc((k + 1) / 2.0, 0.5, math.sin(theta) ** 2)
    return half if theta <= math.pi / 2.0 else full - half


def _quad(fun, lo, hi, points):
    pts = sorted(p for p in set(points) if lo < p < hi)
    with warnings.catch_warnings():
        # quad reports roundoff when it reaches its best estimate below 1e-13
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fun, lo, hi, points=pts or None, limit=400, epsabs=0.0, epsrel=1e-13)[0]


def quad_averages(profile, d, r, n, s):
    """Ball, sphere, axial-gradient, radial-moment and |Df| t/s averages of
    the radial function with profile F over B(d e, r) in R^n, by quad.

    n = 1 integrates the even extension F(|u|) over [d - r, d + r], the
    ball average from the 1D oracle's primitive.
    """
    F = lambda x: float(profile.value(x))
    dF = lambda x: float(profile.slope(x))
    knots = [float(k) for k in profile.knots_t]
    if n == 1:
        pts = knots + [-k for k in knots]
        line = lambda g: _quad(g, d - r, d + r, pts) / (2.0 * r)
        primitive = _even_antiderivative(profile)
        return {"ball": float(primitive(d + r) - primitive(d - r)) / (2.0 * r),
                "sphere": 0.5 * (F(abs(d - r)) + F(d + r)),
                "axial": line(lambda u: math.copysign(1.0, u) * dF(abs(u))),
                "radial": line(lambda u: dF(abs(u)) * abs(u)),
                "weighted": line(lambda u: abs(dF(abs(u))) * abs(u) / s)}
    sigma = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n
    area = lambda t: sigma * t ** (n - 1) * sin_power_to(n - 2, kahan_cap_angle(t, d, r))
    moment = lambda t: \
        sigma * t ** (n - 1) * math.sin(kahan_cap_angle(t, d, r)) ** (n - 1) / (n - 1)
    lo, hi = max(0.0, d - r), min(d + r, profile.support_radius)
    ball = lambda g: _quad(g, lo, hi, knots + [abs(d - r)]) / volume if hi > lo else 0.0
    # the sphere in its polar angle phi, |y|^2 = d^2 + r^2 + 2 d r cos(phi)
    rho = lambda phi: math.sqrt(max(d * d + r * r + 2.0 * d * r * math.cos(phi), 0.0))
    phis = [math.acos(min(1.0, max(-1.0, (k * k - d * d - r * r) / (2.0 * d * r))))
            for k in knots] if d > 0.0 else []
    sphere = _quad(lambda phi: F(rho(phi)) * math.sin(phi) ** (n - 2), 0.0, math.pi, phis) \
        / sin_power_to(n - 2, math.pi)
    return {"ball": ball(lambda t: F(t) * area(t)),
            "sphere": sphere,
            "axial": ball(lambda t: dF(t) * moment(t)),
            "radial": ball(lambda t: dF(t) * t * area(t)),
            "weighted": ball(lambda t: abs(dF(t)) * t / s * area(t))}


@pytest.fixture(scope="session")
def params2():
    return AmbientParams(2, 0.5)


@pytest.fixture(scope="session")
def params3():
    return AmbientParams(3, 0.5)


@pytest.fixture(scope="session")
def params1():
    return AmbientParams(1, 0.5)


@pytest.fixture(scope="session")
def tent_profile():
    return tent()


@pytest.fixture(scope="session")
def standard_profiles():
    return {"tent": tent(), "annular_bump": annular_bump(), "two_bump": two_bump()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240901)
