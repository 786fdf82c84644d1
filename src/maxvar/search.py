"""Global search for best balls and the maximal-value profile m(s).

The objective r^beta * (ball average) is maximized over axis balls
(d, r) with d >= 0, |d - s| <= r, r_min <= r <= s + T.  Rotational
symmetry about the evaluation axis and the mirror-domination argument
justify the 2D reduction; the covering ball (0, s + T) dominates every
larger radius.  Strategy: a coarse grid (log in r, linear in d per row)
plus a dedicated sweep of the boundary family r = |d - s|, ranked by the
batch objective (a midpoint rule at even n); compass refinement of the
top-K deduplicated starts to 1e-4 and of the distinct endpoints to
REFINE_TOL.  Every compass step is projected to the nearest feasible
ball, so from the constraint a step of d away from s slides the ball
outward along the boundary family and a step of r down slides it inward:
the compass follows the family r = |d - s| without a stage of its own.
The ranking skips the coarse balls that cannot seed a start, the
bounding step of branch and bound: a ball's objective is at most
r^beta * min(max F over the ball, ||f||_1 / |B|), and a ball whose bound
falls far enough below the covering ball's or the warm ball's value
cannot reach the start pool; the pool is the same as without skipping.
Every refinement stage evaluates the fixed-rule objective, and the
compasses of all starts run in lock-step, one batched call per round.
The reported value is recomputed by ball_average at IDENTITY_QUADRATURE
(at odd n all stages use the same exact rule).  All moves are
comparison-based and the projection is linear in (d, r, s), so scaling the
profile by a positive constant reproduces the same search path and
dilating it dilates the path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .averages import (ball_average, batch_objective, fixed_rule_objective,
                       gradient_axial_component)
from .core import AmbientParams, RadialProfile, l1_norm
from .geometry import AxisBall, Contact, InfeasibleBallError, classify_contact
from .quadrature import IDENTITY_QUADRATURE, QuadratureConfig

REGION_LABELS = ("zero_derivative", "E1", "E2", "E3", "unclassified")


# coarse grid, multistart refinement and tie-breaking
R_PER_DECADE = 24
D_PER_ROW = 48
MULTISTARTS = 8
REFINE_TOL = 1e-7
TIE_TOL = 1e-9
TIE_BALL_REL = 1e-6  # tied balls closer than this in (d, r) count once
R_MIN_FRAC = 1e-4
CONTACT_TOL = 1e-6
BOUNDARY_POINTS = 256
REFINE_MAX_EVALS = 4000
POOL_FRACTION = 0.5  # coarse balls within this fraction of the best one seed starts
JUMP_REL = 0.10  # a best-ball move larger than this between grid neighbors flags a corner


@dataclass(frozen=True)
class BestBallResult:
    """Search outcome at one evaluation radius.

    objective_evals counts the balls whose objective the search evaluated:
    the coarse balls it ranked (not those the bound skipped) and every
    compass evaluation; the one evaluation of a warm ball that sets the
    bound's floor is not counted.  tie_candidates counts the distinct
    balls tied with the best value.
    """

    s: float
    value: float
    ball: AxisBall
    contact: Contact
    region: str
    objective_evals: int
    converged: bool
    tie_candidates: int = 1


@dataclass
class MaximalProfile:
    """m(s) on a grid with per-point results and both derivative channels."""

    grid: np.ndarray
    values: np.ndarray
    results: list
    deriv_fd: np.ndarray | None = None
    deriv_formula: np.ndarray | None = None
    corner_flags: np.ndarray | None = None


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid lo..hi with count points, log- or linearly spaced."""

    lo: float
    hi: float
    count: int
    log: bool = True

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi) or self.count < 3:
            raise ValueError("need 0 < lo < hi and at least 3 grid points")

    def points(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    def refined(self) -> np.ndarray:
        """Doubled density; contains the original points exactly."""
        base = self.points()
        mids = np.sqrt(base[:-1] * base[1:]) if self.log else 0.5 * (base[:-1] + base[1:])
        out = np.empty(2 * self.count - 1)
        out[0::2] = base
        out[1::2] = mids
        return out

    @staticmethod
    def standard(profile: RadialProfile, count: int = 64) -> "GridSpec":
        T = profile.support_radius
        return GridSpec(1e-2 * T, 8.0 * T, count, log=True)

    def label(self) -> str:
        kind = "log" if self.log else "lin"
        return f"{self.lo:g}:{self.hi:g}:{self.count}:{kind}"


def objective(profile: RadialProfile, s: float, ball: AxisBall, params: AmbientParams,
              qcfg: QuadratureConfig) -> float:
    """r^beta times the ball average; the ball must contain s."""
    if not ball.contains(s, tol=1e-12 * max(ball.r, s)):
        raise InfeasibleBallError(f"ball (d={ball.d}, r={ball.r}) does not contain s={s}")
    return ball.r ** params.beta * ball_average(profile, ball, params, qcfg)


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _project(d, r, s, r_min, r_max):
    """Project (d, r) to the nearest feasible ball at evaluation radius s.

    A point outside the constraint |d - s| <= r moves half its gap
    |d - s| - r along the constraint's normal (d toward s, r up), which
    lands it on the boundary family r = |d - s|; then d >= 0 and
    r_min <= r <= r_max are clamped.  The result is feasible whenever
    d <= s + r_max.
    """
    gap = abs(d - s) - r
    if gap > 0.0:
        d += 0.5 * gap if d < s else -0.5 * gap
        r += 0.5 * gap
    d = max(d, 0.0)
    return d, min(max(r, abs(d - s), r_min), r_max)


def _compass(d0, r0, step_d, step_r, project, tol):
    """Derivative-free maximization by comparisons only (scale-equivariant).

    A generator driven by :func:`_lockstep`: it yields the balls it needs
    evaluated and is sent their values.  The four neighbors go out in one
    request, each projected to the nearest feasible ball, so at the
    constraint the d and r steps slide along the boundary family in
    opposite directions.  After an improving move the step doubles along
    the same direction while it keeps improving, so long travels cost log
    many evaluations.  Returns (d, r, value, converged).
    """
    d, r = project(d0, r0)
    (best,) = yield [(d, r)]
    evals = 1
    sd, sr = step_d, step_r
    while evals < REFINE_MAX_EVALS:
        if max(sd, sr) <= tol:
            return d, r, float(best), True
        fresh = []
        for vd, vr in _DIRS:
            cand = project(d + vd * sd, r + vr * sr)
            if cand != (d, r):
                fresh.append(((vd, vr), cand))
        k = None
        if fresh:
            vals = yield [c for _, c in fresh]
            evals += len(fresh)
            k = int(np.argmax(vals))
        if k is None or vals[k] <= best:
            sd *= 0.5
            sr *= 0.5
            continue
        (vd, vr), (d, r) = fresh[k]
        best = vals[k]
        grow = 2.0
        while evals < REFINE_MAX_EVALS:
            cand = project(d + vd * sd * grow, r + vr * sr * grow)
            if cand == (d, r):
                break
            (val,) = yield [cand]
            evals += 1
            if val <= best:
                break
            (d, r), best = cand, val
            grow *= 2.0
    return d, r, float(best), False


def _lockstep(evaluate, runs):
    """Drive compass runs together: each round makes one evaluate call for
    the balls that every live run asks for.  Returns the runs' results."""
    results = [None] * len(runs)
    asks = {i: next(run) for i, run in enumerate(runs)}
    while asks:
        balls = [b for ask in asks.values() for b in ask]
        vals = evaluate(np.array([b[0] for b in balls]), np.array([b[1] for b in balls]))
        pos = 0
        pending = {}
        for i, ask in asks.items():
            part = vals[pos:pos + len(ask)]
            pos += len(ask)
            try:
                pending[i] = runs[i].send(part)
            except StopIteration as done:
                results[i] = done.value
        asks = pending
    return results


def _dedupe_candidates(cands, limit, rel=0.05):
    """Keep the top candidates that differ by more than rel in (d, r)."""
    kept = []
    for val, d, r in cands:
        close = False
        for _, dk, rk in kept:
            scale = max(r, rk)
            if abs(d - dk) <= rel * scale and abs(r - rk) <= rel * scale:
                close = True
                break
        if not close:
            kept.append((val, d, r))
            if len(kept) >= limit:
                break
    return kept


def _objective_bound(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Upper bound r^beta * min(max F over the ball, ||f||_1 / |B|) on the
    objective of each ball (d, r)."""
    lo = np.maximum(0.0, ds - rs)
    hi = np.maximum(np.minimum(ds + rs, profile.support_radius), lo)
    mass = l1_norm(profile, params) / (params.omega_n * rs**params.n)
    return rs**params.beta * np.minimum(profile.max_on(lo, hi), mass)


def _can_seed(profile: RadialProfile, s: float, ds, rs, params: AmbientParams, warm_ball):
    """Mask of the coarse balls (ds, rs) that could reach the start pool.

    The floor is a value that a feasible ball reaches: the covering ball's,
    in closed form, or the projected warm ball's.  The covering ball is in
    the grid, and a grid ball containing the optimal ball has at most 1.125
    times its radius, so at least 1.125^-(n - beta) times its value.  So
    the best coarse value is at least floor / 2 for n - beta <= 5, and the
    pool threshold is POOL_FRACTION times it.  At odd n the ranked value is
    exact and never exceeds the bound; at even n a midpoint value exceeds
    it by at most 0.4% on measured balls of up to 40 knots, and by 8% at
    200 knots, where the midpoint rule's own error dominates.  So a ball
    with 2 * bound < POOL_FRACTION * floor / 2 stays below the threshold
    and is not evaluated; up to n - beta = 10 the slack in that factor 2
    still covers 1.125^(n - beta).  At n = 1 the bound keeps 92% of the
    balls of a median cold query and costs what it saves: all are kept.
    """
    if params.n == 1:
        return np.ones(len(ds), dtype=bool)
    floor = (s + profile.support_radius) ** (params.beta - params.n) \
        * l1_norm(profile, params) / params.omega_n
    if warm_ball is not None:
        warm_val = fixed_rule_objective(profile, np.array([warm_ball[0]]),
                                        np.array([warm_ball[1]]), params)
        floor = max(floor, float(warm_val[0]))
    return 2.0 * _objective_bound(profile, ds, rs, params) >= POOL_FRACTION * floor / 2.0


def _coarse_balls(s: float, T: float):
    """The coarse grid (log-spaced radii, linear centers per row) and the
    boundary family r = |d - s|, as arrays ds, rs, with the relative step
    between grid rows."""
    r_min = R_MIN_FRAC * T
    r_max = s + T
    # rows whose balls cannot reach the support (r <= (s - T)/2) carry zero objective
    r_low = max(r_min, 0.5 * (s - T))
    decades = math.log10(r_max / max(r_low, 1e-300))
    n_r = max(2, int(math.ceil(R_PER_DECADE * decades)) + 1)
    rs_rows = np.geomspace(r_low, r_max, n_r)
    lo_d = np.maximum(0.0, s - rs_rows)
    hi_d = np.minimum(s, T) + rs_rows
    frac = np.linspace(0.0, 1.0, D_PER_ROW)
    ds_grid = (lo_d[:, None] + np.maximum(hi_d - lo_d, 0.0)[:, None] * frac[None, :]).ravel()
    rs_grid = np.repeat(rs_rows, D_PER_ROW)

    rs_b = np.geomspace(r_low, r_max, BOUNDARY_POINTS)
    if s <= T:  # outer-contact balls span [s, s+2r]; dead beyond the support
        d_outer, rs_outer = s + rs_b, rs_b
    else:
        d_outer = rs_outer = np.empty(0)
    keep_inner = rs_b <= s
    d_inner = s - rs_b[keep_inner]
    ds = np.concatenate((ds_grid, d_outer, d_inner))
    rs = np.concatenate((rs_grid, rs_outer, rs_b[keep_inner]))
    return ds, rs, rs_rows[1] / rs_rows[0] - 1.0


def _coarse_starts(profile: RadialProfile, s: float, ds, rs, params: AmbientParams,
                   warm_ball):
    """Rank the coarse balls (ds, rs) by the batch objective and
    return the starts of the refinement and the number of balls ranked.

    The top balls within POOL_FRACTION of the best form the pool,
    deduplicated to MULTISTARTS starts.  Balls that cannot reach the pool
    (:func:`_can_seed`, given the feasible warm_ball or None) are not
    evaluated and keep value 0.
    """
    ranked = _can_seed(profile, s, ds, rs, params, warm_ball)
    values = np.zeros(len(ds))
    values[ranked] = batch_objective(profile, ds[ranked], rs[ranked], params)
    # a stable sort keeps exact ties in grid order, whichever balls were skipped
    order = np.argsort(-values, kind="stable")
    top_val = float(values[order[0]])
    pool = []
    for i in order[: 16 * MULTISTARTS]:
        v = float(values[i])
        if v < POOL_FRACTION * top_val or v <= 0.0:
            break
        pool.append((v, float(ds[i]), float(rs[i])))
    if not pool:
        pool = [(top_val, float(ds[order[0]]), float(rs[order[0]]))]
    return _dedupe_candidates(pool, MULTISTARTS), int(np.count_nonzero(ranked))


def search(profile: RadialProfile, s: float, params: AmbientParams,
           warm: AxisBall | None = None) -> BestBallResult:
    """Globally maximize the objective over feasible axis balls at radius s.

    Among maxima within the tie tolerance the smallest radius wins, then
    the smallest center distance.  The returned value is recomputed at the
    identity-suite quadrature tolerance.
    """
    if s < 0.0:
        raise ValueError("evaluation radius must be nonnegative")
    T = profile.support_radius
    r_min = R_MIN_FRAC * T
    r_max = s + T
    evals = 0

    def evaluate(ds, rs):
        nonlocal evals
        evals += len(ds)
        return fixed_rule_objective(profile, ds, rs, params)

    def project(d, r):
        return _project(d, r, s, r_min, r_max)

    ds_all, rs_all, grid_step_r = _coarse_balls(s, T)
    warm_ball = None if warm is None else project(warm.d, warm.r)
    starts, ranked = _coarse_starts(profile, s, ds_all, rs_all, params, warm_ball)
    evals += ranked
    if warm is not None:
        starts.append((None, warm.d, warm.r))

    # --- refinement: a coarse compass pass per start, dedupe the endpoints,
    # then refine only distinct local optima to REFINE_TOL
    runs = []
    for _, d0, r0 in starts:
        scale = max(r0, r_min)
        step = grid_step_r * scale
        runs.append(_compass(d0, r0, max(step, 1e-3 * scale), step, project, 1e-4 * scale))
    stage_one = [(v, d, r) for d, r, v, _ in _lockstep(evaluate, runs)]
    # endpoints of the coarse pass within 1% of each other lie in one basin;
    # refining more than one of them to REFINE_TOL repeats the same work
    stage_one.sort(key=lambda c: -c[0])
    survivors = _dedupe_candidates(stage_one, MULTISTARTS, rel=0.01)
    runs = [_compass(d1, r1, 1e-3 * max(r1, r_min), 1e-3 * max(r1, r_min), project,
                     REFINE_TOL * max(r1, r_min)) for _, d1, r1 in survivors]
    finals = [(v, d, r, ok) for d, r, v, ok in _lockstep(evaluate, runs)]

    best_val = max(f[0] for f in finals)
    tie = [f for f in finals if f[0] >= best_val - TIE_TOL * abs(best_val)]
    tie.sort(key=lambda f: (f[2], f[1]))
    v, d, r, ok = tie[0]
    ball = AxisBall(d, r)
    final_value = ball.r ** params.beta * ball_average(profile, ball, params,
                                                       IDENTITY_QUADRATURE)
    contact = classify_contact(ball, s, CONTACT_TOL)
    region = _region_label(contact, s)
    return BestBallResult(s=s, value=float(final_value), ball=ball, contact=contact,
                          region=region, objective_evals=evals, converged=bool(ok),
                          tie_candidates=len(_dedupe_candidates([f[:3] for f in tie], len(tie),
                                                                rel=TIE_BALL_REL)))


def _region_label(contact: Contact, s: float) -> str:
    if contact.kind == "interior":
        return "zero_derivative"
    if s <= 0.0 or math.isnan(contact.c):
        return "unclassified"
    c = contact.c
    if c > 1.25:
        return "E1"
    if c < 0.75:
        return "E2"
    return "E3"


def _sweep_chunk(args):
    """Search the points in order, each warm-started from its entry of
    warms or, with chain set, from the previous point's ball."""
    profile, pts, params, warms, chain = args
    results = []
    for s, warm in zip(pts, warms):
        if chain and results:
            warm = results[-1].ball
        results.append(search(profile, float(s), params, warm=warm))
    return results


def _sweep(profile, pts, params, warms, chain, workers=None):
    """_sweep_chunk over all points; with workers > 1 (default:
    MAXVAR_THREADS) contiguous chunks run in parallel processes."""
    if workers is None:
        workers = int(os.environ.get("MAXVAR_THREADS", "1"))
    workers = max(1, min(workers, len(pts)))
    if workers == 1:
        return _sweep_chunk((profile, pts, params, warms, chain))
    from concurrent.futures import ProcessPoolExecutor
    chunks = [c for c in np.array_split(np.arange(len(pts)), workers) if len(c)]
    jobs = [(profile, pts[c], params, [warms[i] for i in c], chain) for c in chunks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for part in pool.map(_sweep_chunk, jobs) for r in part]


def _formula_channel(profile, results, params) -> np.ndarray:
    return np.array([derivative_by_formula(profile, r, params, IDENTITY_QUADRATURE)
                     for r in results])


def _assemble(profile, pts, results, formula) -> MaximalProfile:
    mp = MaximalProfile(grid=pts, values=np.array([r.value for r in results]),
                        results=results, deriv_formula=formula)
    derivative_by_fd(mp, profile)
    return mp


def maximal_profile(profile: RadialProfile, grid, params: AmbientParams,
                    warm_start: bool = True, workers: int | None = None) -> MaximalProfile:
    """Sweep the grid, warm-starting each point from its neighbor's ball.

    Warm starts only add refinement candidates; the global coarse stage
    always runs, so disabling them changes nothing beyond tie tolerance.
    With workers > 1 (default: MAXVAR_THREADS) contiguous chunks run in
    parallel processes, each warm-starting internally.
    """
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if np.any(pts <= 0.0):
        raise ValueError("maximal-profile grids must be strictly positive")
    results = _sweep(profile, pts, params, [None] * len(pts), warm_start, workers)
    return _assemble(profile, pts, results, _formula_channel(profile, results, params))


def refined_profile(profile: RadialProfile, grid: GridSpec, base: MaximalProfile,
                    params: AmbientParams) -> MaximalProfile:
    """The maximal profile on ``grid.refined()``, given the sweep of ``grid``.

    Only the midpoints are searched, each warm-started from its left base
    neighbor's ball (in parallel as in :func:`maximal_profile`); the base
    results and formula derivatives are reused at the even indices.
    """
    fine = grid.refined()
    if not np.array_equal(fine[0::2], base.grid):
        raise ValueError("base sweep is not on the points of this grid")
    mids = _sweep(profile, fine[1::2], params, [r.ball for r in base.results[:-1]],
                  chain=False)
    results = [None] * len(fine)
    results[0::2] = base.results
    results[1::2] = mids
    formula = np.empty(len(fine))
    formula[0::2] = base.deriv_formula
    formula[1::2] = _formula_channel(profile, mids, params)
    return _assemble(profile, fine, results, formula)


def derivative_by_formula(profile: RadialProfile, result: BestBallResult,
                          params: AmbientParams, qcfg: QuadratureConfig) -> float:
    """Signed radial derivative r^beta * (axial gradient average).

    Exactly zero at interior contact; at boundary contact the sign agrees
    with sign(d - s) whenever the derivative is nonzero.
    """
    if result.contact.kind == "interior":
        return 0.0
    ball = result.ball
    return ball.r ** params.beta * gradient_axial_component(profile, ball, params, qcfg)


def derivative_by_fd(mp: MaximalProfile, profile: RadialProfile | None = None) -> np.ndarray:
    """Central differences on the grid plus corner-suspect flags.

    A point is flagged when the best ball jumps by more than JUMP_REL
    between neighbors or the contact kind changes there (a genuine corner
    of m), and, when the profile is supplied, when s or an edge of the
    best ball crosses a profile knot inside the stencil: m loses second
    derivatives at those structural events, which makes the finite
    difference a biased estimate there.
    """
    s = mp.grid
    m = mp.values
    if len(s) < 3:
        raise ValueError("need at least 3 grid points for finite differences")
    d = np.empty_like(m)
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    d[1:-1] = (hm**2 * m[2:] - hp**2 * m[:-2] + (hp**2 - hm**2) * m[1:-1]) \
        / (hm * hp * (hm + hp))
    # second-order one-sided stencils at the ends
    h1, h2 = s[1] - s[0], s[2] - s[1]
    d[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * m[0]
            + (h1 + h2) / (h1 * h2) * m[1] - h1 / (h2 * (h1 + h2)) * m[2])
    g1, g2 = s[-1] - s[-2], s[-2] - s[-3]
    d[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)) * m[-1]
             - (g1 + g2) / (g1 * g2) * m[-2] + g1 / (g2 * (g1 + g2)) * m[-3])

    flags = np.zeros(len(s), dtype=bool)
    knots = profile.knots_t if profile is not None else None
    for i in range(len(s) - 1):
        a, b = mp.results[i], mp.results[i + 1]
        scale = max(a.ball.r, b.ball.r)
        jump = max(abs(a.ball.d - b.ball.d), abs(a.ball.r - b.ball.r)) / scale
        if jump > JUMP_REL or a.contact.kind != b.contact.kind:
            flags[i] = flags[i + 1] = True
        elif knots is not None and _crosses_knot(a, b, knots):
            flags[i] = flags[i + 1] = True
    mp.deriv_fd = d
    mp.corner_flags = flags
    return d


def _crosses_knot(a: BestBallResult, b: BestBallResult, knots) -> bool:
    """True when s or a best-ball edge passes a profile knot between a and b."""
    for fn in (lambda x: x.s, lambda x: x.ball.d + x.ball.r, lambda x: x.ball.d - x.ball.r):
        va, vb = fn(a), fn(b)
        lo, hi = (va, vb) if va <= vb else (vb, va)
        if np.any((knots > lo) & (knots < hi)):
            return True
    return False
