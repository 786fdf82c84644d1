"""Seeded inputs, the timed operation and its check, per workload.

Inputs come in rounds: round k is drawn from
``numpy.random.default_rng([seed, k])``, so a seed fixes every round.  Each
round has the same composition.  A timed run draws a fixed number of rounds
(``Workload.run_rounds``) and runs them over and over, so a faster program
gets more repeats of the same operations.

Library calls go through module attributes looked up at call time
(``maxvar.search``, ``identities.check_divergence``), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

import maxvar
from maxvar import AmbientParams, AxisBall, GridSpec, IDENTITY_QUADRATURE
from maxvar.families import dilate_profile, random_profile, scale_profile, tent

from checks import check_identity, check_query, check_report, needs_oracle

identities = importlib.import_module("maxvar.identities")
averages = importlib.import_module("maxvar.averages")
quadrature = importlib.import_module("maxvar.quadrature")

# -- ratio_family -------------------------------------------------------

# 40 points is the smallest standard grid tried (8..40) on which the tent
# report passes the acceptance refinement tolerance with margin (0.017
# against 0.05); the whole trio at every beta needs 64 points and nine
# reports, far beyond one run.
REPORT_GRID_COUNT = 40
REPORT_BETA = 0.5


@dataclass(frozen=True)
class ReportCase:
    profile: object
    params: AmbientParams
    grid: GridSpec


def report_round(rng):
    """The README's headline `maxvar ratio` case, tent at n = 2, beta = 0.5.

    The seed scales and dilates the tent; the search is equivariant under
    both, so every seed asks for the same amount of work.
    """
    amplitude, lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=2))
    profile = dilate_profile(scale_profile(tent(), float(amplitude)), float(lam))
    grid = GridSpec.standard(profile, REPORT_GRID_COUNT)
    return [ReportCase(profile, AmbientParams(2, REPORT_BETA), grid)]


def run_report(case):
    return maxvar.variation_report(case.profile, case.params, case.grid,
                                   include_refinement=True, include_dilation=True)


def report_points(case):
    """Searched points: base grid, refined grid and dilated grid."""
    return 4 * case.grid.count - 1


# -- point_queries ------------------------------------------------------

BETAS = (0.2, 0.5, 0.8)
KNOTS = (6, 20, 40)
# (dimension, knot counts).  Strata on which search fails today go to
# KNOWN_DEFECT_STRATA: n >= 8 (ROADMAP item 2); n = 1 past the 4 to 8
# knots of acceptance criterion 1, where the 1D oracle finds a larger
# value about once in 200 queries on 40 knots; and 200 knots, where the
# value falls below the covering ball about once in 700 queries.
QUERY_STRATA = ((1, (4, 6, 8)), (2, KNOTS), (3, KNOTS), (5, KNOTS))
KNOWN_DEFECT_STRATA = ((1, (40, 200)), (2, (200,)), (3, (200,)), (5, (200,)),
                       (8, KNOTS + (200,)), (10, KNOTS + (200,)))
# evaluation radii in units of the support T: fixed log-spaced positions,
# each jittered by a fifth of the spacing, so every seed asks for the
# same mix of small, comparable and far radii
S_POSITIONS = np.geomspace(1e-2, 64.0, 5)
S_JITTER = 0.2 * np.log(S_POSITIONS[1] / S_POSITIONS[0])


@dataclass(frozen=True)
class Query:
    profile: object
    params: AmbientParams
    s: float


def many_knot_profile(rng, knots: int, support: float):
    """Random piecewise-linear profile with any number of knots.

    ``families.random_profile`` draws from 40 lattice cells, so it cannot
    go past 42 knots.
    """
    gaps = rng.uniform(0.2, 1.0, size=knots - 1)
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    t *= support / t[-1]
    v = rng.uniform(0.0, 1.0, size=knots)
    v[-1] = 0.0
    v[0] = max(v[0], 0.1)
    return maxvar.load_profile(list(zip(t, v)))


def _query_round(rng, strata):
    """One query per (dimension, knot count, radius position), shuffled.

    beta cycles with the position, so the mix of orders is fixed too.
    """
    out = []
    for n, knot_counts in strata:
        for knots in knot_counts:
            for i, position in enumerate(S_POSITIONS):
                support = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
                profile = many_knot_profile(rng, knots, support)
                s = support * position * float(np.exp(rng.uniform(-S_JITTER, S_JITTER)))
                beta = BETAS[(i + knots) % len(BETAS)]
                out.append(Query(profile, AmbientParams(n, beta), s))
    return [out[i] for i in rng.permutation(len(out))]


def query_round(rng):
    return _query_round(rng, QUERY_STRATA)


def known_defect_round(rng):
    return _query_round(rng, KNOWN_DEFECT_STRATA)


def run_query(query):
    return maxvar.search(query.profile, query.s, query.params)


# -- identity_checks ----------------------------------------------------

IDENTITY_DIMS = (1, 2, 3, 5)
# checks of each kind per dimension in a round.  Two of each would put the
# median exactly in the gap between the six cheap (kind, n) pairs (annulus,
# n = 1) and the divergence checks at n >= 2, where the seed's draws move it
# by a tenth; one annulus check puts it inside the divergence cluster.
IDENTITY_KINDS = {"divergence": 2, "affine_family": 2, "annulus_average": 1}
# check_affine_family moves the center to (1 + h) d - h s for steps up to
# h = 1e-3, which leaves d >= 0 (and raises ValueError) when
# (1 + h) d < h s: those balls are outside the check's domain
AFFINE_MAX_STEP = 1e-3


@dataclass(frozen=True)
class IdentityCase:
    kind: str
    profile: object
    params: AmbientParams
    ball: AxisBall
    s: float = 0.0


def _meeting_ball(rng, T):
    """A ball meeting the support, drawn like the divergence suite's."""
    while True:
        d = rng.uniform(0.0, 1.2 * T)
        r = rng.uniform(0.05 * T, 1.5 * T)
        if min(d + r, T) > max(0.0, d - r) + 1e-3 * T:
            return AxisBall(float(d), float(r))


def _annulus_ball(rng, T):
    """A ball inside the annulus whose double meets the support."""
    while True:
        d = rng.uniform(0.3 * T, 1.5 * T)
        r = rng.uniform(0.05, 0.5) * d / 2.0
        if min(d + 2.0 * r, T) > max(0.0, d - 2.0 * r):
            return AxisBall(float(d), float(r))


def identity_round(rng):
    """At every dimension, ``IDENTITY_KINDS`` checks of each kind, shuffled."""
    out = []
    for n in IDENTITY_DIMS:
        for kind, repeats in IDENTITY_KINDS.items():
            for _ in range(repeats):
                profile = random_profile(rng, n_knots=int(rng.integers(4, 9)))
                params = AmbientParams(n, float(rng.choice(BETAS)))
                T = profile.support_radius
                if kind == "annulus_average":
                    out.append(IdentityCase(kind, profile, params, _annulus_ball(rng, T)))
                    continue
                while True:
                    ball = _meeting_ball(rng, T)
                    s = float(rng.uniform(max(0.0, ball.d - ball.r), ball.d + ball.r))
                    if (1.0 + AFFINE_MAX_STEP) * ball.d >= AFFINE_MAX_STEP * s:
                        break
                out.append(IdentityCase(kind, profile, params, ball, s))
    return [out[i] for i in rng.permutation(len(out))]


def run_identity(case):
    q = IDENTITY_QUADRATURE
    if case.kind == "divergence":
        return identities.check_divergence(case.profile, case.ball, case.params, q)
    if case.kind == "affine_family":
        return identities.check_affine_family(case.profile, case.s, case.ball, case.params, q)
    return identities.check_annulus_average(case.profile, case.ball, case.params, q)


# -- registry -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    item: str            # what items_per_s counts
    make_round: object   # rng -> list of operations
    run: object          # operation -> result (the timed call)
    check: object        # (operation, result) -> failure reason or None
    items: object        # operation -> items it stands for
    run_rounds: int      # rounds of distinct operations in a timed run
    trace_ops: int       # operations in the fixed traced sample
    needs_oracle: object = None   # operation -> bool: also check_query_oracle


def _one(_op):
    return 1


WORKLOADS = {
    "ratio_family": Workload("ratio_family", "points", report_round, run_report,
                             check_report, report_points, 2, 1),
    "point_queries": Workload("point_queries", "queries", query_round, run_query,
                              check_query, _one, 6, 60, needs_oracle),
    "identity_checks": Workload("identity_checks", "checks", identity_round, run_identity,
                                check_identity, _one, 80, 960),
    # Queries that fail today: not a benchmark workload, run it by name
    "known_defects": Workload("known_defects", "queries", known_defect_round, run_query,
                              check_query, _one, 2, 60, needs_oracle),
}


def round_inputs(workload: Workload, seed: int, k: int):
    return workload.make_round(np.random.default_rng([seed, k]))


def run_inputs(workload: Workload, seed: int):
    """The distinct operations of a timed run: its first ``run_rounds`` rounds."""
    return [op for k in range(workload.run_rounds) for op in round_inputs(workload, seed, k)]


def warm_up():
    """One call into each layer, so lazy set-up is not timed."""
    profile = maxvar.load_profile([(0.0, 1.0), (1.0, 0.0)])
    p2 = AmbientParams(2, 0.5)
    ball = AxisBall(0.3, 0.5)
    maxvar.cap_area(np.linspace(0.1, 0.7, 8), ball.d, ball.r, p2)
    quadrature.integrate_adaptive(np.cos, np.array([0.0, 1.0]), IDENTITY_QUADRATURE)
    averages.ball_average(profile, ball, p2, IDENTITY_QUADRATURE)
    averages.batch_objective(profile, np.array([0.3]), np.array([0.5]), p2)
    maxvar.search(profile, 0.7, p2)
    maxvar.variation_report(profile, AmbientParams(1, 0.5), GridSpec.standard(profile, 3))
    identities.check_divergence(profile, ball, p2, IDENTITY_QUADRATURE)
    identities.check_affine_family(profile, 0.6, ball, p2, IDENTITY_QUADRATURE)
    identities.check_annulus_average(profile, AxisBall(0.6, 0.2), p2, IDENTITY_QUADRATURE)
