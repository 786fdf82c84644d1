"""The adaptive Gauss-Kronrod integrator and its error test."""

import numpy as np
import pytest

from maxvar.quadrature import (IDENTITY_QUADRATURE, QuadratureConfig, QuadratureError,
                               integrate_adaptive)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_sign_changing_integrand_within_rel_tol_of_its_absolute_integral(rel_tol):
    # sin + eps on [0, 2 pi]: the integral, 2 pi eps, is tiny beside int |g|
    eps = 1e-6
    a = np.arcsin(eps)
    exact, absolute = 2.0 * np.pi * eps, 4.0 * np.cos(a) + 4.0 * eps * a
    got = integrate_adaptive(lambda x: np.sin(x) + eps, [0.0, 2.0 * np.pi],
                             QuadratureConfig(rel_tol))
    assert abs(got - exact) <= rel_tol * absolute


def test_zero_integrand_returns_zero():
    assert integrate_adaptive(np.zeros_like, [0.0, 0.5, 1.0], IDENTITY_QUADRATURE) == 0.0


def test_nonconvergence_raises_with_estimate():
    tiny = QuadratureConfig(rel_tol=1e-16, max_subdivisions=2)
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: np.sqrt(x), [0.0, 1.0], tiny)
    assert np.isfinite(exc.value.estimate)
    assert exc.value.error > 0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
