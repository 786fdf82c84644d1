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
    """(sigma_n * integral of |m'|^q s^(n-1) ds)^(1/q), trapezoid on the grid."""
    bad = [float(s) for s, res in zip(mp.grid, mp.results) if not res.converged]
    if bad:
        raise UnconvergedSweepError(bad)
    q = params.q
    integrand = combined_derivative(mp) ** q * mp.grid ** (params.n - 1)
    total = np.trapezoid(integrand, mp.grid)
    return float((params.sigma_n * total) ** (1.0 / q))


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
    sweep is its even slice, formula channel included, on the base grid's
    stencils), the dilated profile's on the base grid's points divided by
    the dilation factor.  Every row is what a lone search returns.
    """
    # a dilation factor that is not positive and finite fails before any search
    dilated = dilate_profile(profile, dilation_lambda) if include_dilation else None
    if include_refinement:
        fine = _sweep(profile, grid.refined(), params)
        mp = _build_profile(profile, grid.points(), fine.results[0::2], params,
                            formula=fine.deriv_formula[0::2])
    else:
        mp = _sweep(profile, grid.points(), params)
    # the base norm comes first: its unconverged radii are the ones reported
    lq = lq_norm_derivative(mp, params)
    l1 = gradient_l1_norm(profile, params)
    ratio = lq / l1
    refinement_dev = None
    if include_refinement:
        ratio_fine = lq_norm_derivative(fine, params) / l1
        refinement_dev = abs(ratio_fine - ratio) / ratio
    dilation_dev = None
    if include_dilation:
        mp_d = _sweep(dilated, grid.points() / dilation_lambda, params)
        ratio_d = lq_norm_derivative(mp_d, params) / gradient_l1_norm(dilated, params)
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


def family_sweep(members: dict, params_list, grid_count: int = 64,
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
