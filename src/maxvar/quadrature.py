"""Adaptive 1D quadrature over piecewise-smooth integrands.

Gauss-Kronrod 7/15 applied per subinterval, with batched breadth-first
bisection of the worst intervals.  Callers supply the breakpoints (the
profile knots, in the cap angle phi of the even-n averages, or in the
sphere's polar angle) so every subinterval is smooth inside; what is left,
the narrow feature that a near-tangent ball puts into phi, the bisection
resolves.

The error test is QUADPACK's (Piessens et al. 1983, resabs): the summed
|K15 - G7| must be at most rel_tol times the K15 estimate of int |f|, taken
from the nodes already evaluated, so no caller picks an absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Kronrod-15 nodes on [-1, 1] (nonnegative half) and weights; Gauss-7 is
# the odd-index subset.  Standard QUADPACK constants.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))          # 15 ascending nodes
_WEIGHTS_K = np.concatenate((_WK[:-1], _WK[::-1]))
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance and the subdivision budget for adaptive integration."""

    rel_tol: float = 1e-9
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.max_subdivisions < 1:
            raise ValueError("the tolerance must be positive and the budget at least 1")


# identity suites and reported values; the search refines with a fixed rule
IDENTITY_QUADRATURE = QuadratureConfig(rel_tol=1e-9)


class QuadratureError(RuntimeError):
    """Non-convergence within the subdivision budget."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(f"{message} (estimate={estimate:.6e}, error={error:.3e})")
        self.estimate = estimate
        self.error = error


def _panels(fun, lo, hi):
    """Per [lo_i, hi_i]: K15 of f, |K15 - G7|, K15 of |f|; one vectorized call."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = fun(pts.ravel()).reshape(pts.shape)
    ik = (vals * _WEIGHTS_K).sum(axis=1) * half
    ig = (vals * _WEIGHTS_G).sum(axis=1) * half
    return ik, np.abs(ik - ig), (np.abs(vals) * _WEIGHTS_K).sum(axis=1) * half


def integrate_adaptive(fun, breakpoints, qcfg: QuadratureConfig) -> float:
    """Integrate a vectorized callable over [min(b), max(b)] with bisection.

    ``breakpoints`` is a sorted array of subinterval boundaries.  The result
    is within about rel_tol * int |f| of the integral, 0.0 if f vanishes at
    every node.  Raises :class:`QuadratureError` carrying the achieved
    estimate when that is not met within ``max_subdivisions`` splits.
    """
    b = np.asarray(breakpoints, dtype=float)
    keep = np.concatenate(([True], np.diff(b) > 0.0))
    b = b[keep]
    if b.size < 2:
        return 0.0
    lo, hi = b[:-1], b[1:]
    vals, errs, mags = _panels(fun, lo, hi)
    splits = 0
    while True:
        total = vals.sum()
        err = errs.sum()
        allowed = qcfg.rel_tol * mags.sum()
        if err <= allowed:
            return float(total)
        if splits >= qcfg.max_subdivisions:
            raise QuadratureError("quadrature did not converge", float(total), float(err))
        # split the worst quartile (at least one interval) in one batch
        n_bad = max(1, int(np.count_nonzero(errs > allowed / errs.size) * 0.25))
        order = np.argsort(errs)
        bad = order[-n_bad:]
        good = order[:-n_bad]
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate((lo[good], lo[bad], mid))
        new_hi = np.concatenate((hi[good], mid, hi[bad]))
        new_vals, new_errs, new_mags = _panels(fun, new_lo[len(good):], new_hi[len(good):])
        vals = np.concatenate((vals[good], new_vals))
        errs = np.concatenate((errs[good], new_errs))
        mags = np.concatenate((mags[good], new_mags))
        lo, hi = new_lo, new_hi
        splits += n_bad

