"""The main ratio: Lq norm of the maximal function's gradient vs L1 of Df.

Computes both sides of the variation bound on a radial grid, the ratio,
and the two stability studies (grid refinement and profile dilation) that
stand in for the non-explicit comparison constant.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import AmbientParams, RadialProfile, gradient_l1_norm, l1_norm
from .families import dilate_profile
from .search import REGION_LABELS, GridSpec, MaximalProfile, _build_profile, _sweep


@dataclass(frozen=True)
class VariationReport:
    """Both norms, their ratio, and the invariance diagnostics."""

    n: int
    beta: float
    q: float
    lq_norm_dm: float
    l1_norm_df: float
    ratio: float
    grid: str
    region_histogram: dict
    corner_count: int
    refinement_deviation: float | None = None
    dilation_deviation: float | None = None
    tail_bound: float = 0.0
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1)


class ZeroRatioError(ArithmeticError):
    """Raised when a stability study would divide by a zero ratio: the
    base sweep's m' is zero at every grid point."""


class NonFiniteRatioError(ArithmeticError):
    """Raised when a ratio is not finite: on grids so fine in absolute
    terms (radii about 1e-190) that the squared steps of the finite
    differences underflow, m' is nan."""


class UnconvergedSweepError(RuntimeError):
    """Raised when grid points did not converge; carries their radii."""

    def __init__(self, radii):
        super().__init__(f"unconverged sweep points at s = {list(radii)}")
        self.radii = list(radii)

    def __reduce__(self):
        # the default rebuilds from the message, which it takes for the radii
        return type(self), (self.radii,)


def combined_derivative(mp: MaximalProfile) -> np.ndarray:
    """|m'| channel for the norm: finite differences, with the larger
    magnitude of the two channels substituted at flagged corner points."""
    fd = np.abs(mp.deriv_fd)
    fo = np.abs(mp.deriv_formula)
    out = fd.copy()
    out[mp.corner_flags] = np.maximum(fd, fo)[mp.corner_flags]
    return out


def lq_norm_derivative(mp: MaximalProfile, params: AmbientParams) -> float:
    """(sigma_n * integral of |m'|^q s^(n-1) ds)^(1/q), trapezoid on the grid,
    taken as M (sigma_n * integral of (|m'| / M)^q s^(n-1) ds)^(1/q) with
    M = max |m'|: |m'|^q underflows to zero at large q (q = 200 at n = 2,
    beta = 1.99), (|m'| / M)^q <= 1 cannot overflow, and the norm is zero
    only where m' is zero on the whole grid."""
    bad = [float(s) for s, res in zip(mp.grid, mp.results) if not res.converged]
    if bad:
        raise UnconvergedSweepError(bad)
    q = params.q
    deriv = combined_derivative(mp)
    top = float(deriv.max())
    if top == 0.0:
        return 0.0
    integrand = (deriv / top) ** q * mp.grid ** (params.n - 1)
    total = np.trapezoid(integrand, mp.grid)
    return top * float((params.sigma_n * total) ** (1.0 / q))


def region_histogram(mp: MaximalProfile) -> dict:
    counts = dict.fromkeys(REGION_LABELS, 0)
    for res in mp.results:
        counts[res.region] += 1
    return counts


def variation_report(profile: RadialProfile, params: AmbientParams, grid: GridSpec,
                     include_refinement: bool = True,
                     include_dilation: bool = True,
                     dilation_lambda: float = 2.0) -> VariationReport:
    """Full pipeline: sweep, derivatives, norms, ratio, stability studies.

    Each profile's points are searched lock-step in one call: the original
    profile's on the refined grid when the refinement study runs (the base
    sweep is its even slice, on the base grid's stencils, with the formula
    channel of those rows), the dilated profile's on the base grid's points
    divided by the dilation factor.  Every row is what a lone search returns.
    """
    # a dilation factor that is not positive and finite fails before any search
    dilated = dilate_profile(profile, dilation_lambda) if include_dilation else None
    if include_refinement:
        fine = _sweep(profile, grid.refined(), params)
        mp = _build_profile(profile, grid.points(), fine.results[0::2], params)
    else:
        mp = _sweep(profile, grid.points(), params)
    # the base norm comes first: its unconverged radii are the ones reported
    lq = lq_norm_derivative(mp, params)
    l1 = gradient_l1_norm(profile, params)
    ratio = _finite(lq / l1, grid.label())
    if ratio == 0.0 and (include_refinement or include_dilation):
        raise ZeroRatioError(f"the ratio is zero on the grid {grid.label()}: m' vanishes at "
                             "every point, and a stability study cannot divide by it")
    refinement_dev = None
    if include_refinement:
        ratio_fine = _finite(lq_norm_derivative(fine, params) / l1, "refined " + grid.label())
        refinement_dev = abs(ratio_fine - ratio) / ratio
    dilation_dev = None
    if include_dilation:
        mp_d = _sweep(dilated, grid.points() / dilation_lambda, params)
        ratio_d = _finite(lq_norm_derivative(mp_d, params) / gradient_l1_norm(dilated, params),
                          f"{grid.label()} divided by {dilation_lambda:g}")
        dilation_dev = abs(ratio_d - ratio) / ratio

    T = profile.support_radius
    s_max = float(np.max(np.asarray(mp.grid)))
    tail = (s_max + T) ** (params.beta - params.n) * l1_norm(profile, params) \
        / params.omega_n
    return VariationReport(
        n=params.n, beta=params.beta, q=params.q, lq_norm_dm=lq, l1_norm_df=l1,
        ratio=ratio, grid=grid.label(), region_histogram=region_histogram(mp),
        corner_count=int(np.count_nonzero(mp.corner_flags)),
        refinement_deviation=refinement_dev, dilation_deviation=dilation_dev,
        tail_bound=tail,
        info={"grid_points": len(mp.grid),
              "ties": max(r.tie_candidates for r in mp.results)})


def _finite(ratio: float, grid: str) -> float:
    """The ratio on the named grid, or a NonFiniteRatioError."""
    if not np.isfinite(ratio):
        raise NonFiniteRatioError(f"the ratio is {ratio} on the grid {grid}: the finite "
                                  "differences of m are not finite at these radii")
    return ratio


def family_sweep(members: dict, params_list, grid_count: int = GridSpec.STANDARD_POINTS,
                 include_refinement: bool = True,
                 include_dilation: bool = True):
    """variation_report across a family; returns rows plus per-(n, beta) maxima."""
    rows = []
    for name in sorted(members):
        profile = members[name]
        for params in params_list:
            grid = GridSpec.standard(profile, grid_count)
            rep = variation_report(profile, params, grid, include_refinement,
                                   include_dilation)
            rows.append({"name": name, "report": rep})
    maxima = {}
    for row in rows:
        rep = row["report"]
        key = (rep.n, rep.beta)
        if key not in maxima or rep.ratio > maxima[key]:
            maxima[key] = rep.ratio
    return rows, maxima
