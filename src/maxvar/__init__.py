"""Numerical laboratory for the non-centered fractional maximal operator
of radial functions: best-ball search, identity verification, and the
variation-ratio pipeline."""

from .core import (AmbientParams, ProfileError, RadialProfile, gradient_l1_norm,
                   l1_norm, level_intervals, load_profile)
from .geometry import AxisBall, Contact, InfeasibleBallError, cap_angle, cap_area, \
    cap_first_moment, classify_contact
from .quadrature import IDENTITY_QUADRATURE
from .search import (BestBallResult, GridSpec, MaximalProfile, derivative_by_fd,
                     derivative_by_formula, maximal_profile, objective, search)
from .variation import VariationReport, family_sweep, lq_norm_derivative, \
    variation_report

__version__ = "0.1.0"

__all__ = [
    "AmbientParams", "AxisBall", "BestBallResult", "Contact", "GridSpec",
    "IDENTITY_QUADRATURE", "InfeasibleBallError", "MaximalProfile",
    "ProfileError", "RadialProfile", "VariationReport", "cap_angle", "cap_area",
    "cap_first_moment", "classify_contact", "derivative_by_fd", "derivative_by_formula",
    "family_sweep", "gradient_l1_norm", "l1_norm", "level_intervals", "load_profile",
    "lq_norm_derivative", "maximal_profile", "objective", "search", "variation_report",
]
