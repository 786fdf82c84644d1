"""Global search for best balls and the maximal-value profile m(s).

The objective r^beta * (ball average) is maximized over axis balls
(d, r) with d >= 0, |d - s| <= r, r_min <= r <= s + T.  Rotational
symmetry about the evaluation axis and the mirror-domination argument
justify the 2D reduction; the covering ball (0, s + T) dominates every
larger radius.  Strategy: a coarse grid (log in r, linear in d per row)
plus a dedicated sweep of the boundary family r = |d - s|, ranked by the
batch objective (the fixed rule's panels, with fewer nodes per cap panel
at even n); compass refinement of the top-K deduplicated starts to 1e-4
and of the distinct endpoints to REFINE_TOL.  Every compass step is
projected to the nearest feasible ball, so from the constraint a step of
d away from s slides the ball outward along the boundary family and a
step of r down slides it inward: the compass follows the family
r = |d - s| without a stage of its own.  The ranking skips the coarse
balls that cannot seed a start, the bounding step of branch and bound: a
ball's objective is at most r^beta * min(max F over the ball,
||f||_1 / |B|), and the balls are ranked in decreasing order of that
bound until no unranked one can reach the start pool; the pool is the
same as without skipping.  Every refinement stage evaluates the
fixed-rule objective, and the compasses of all starts run in lock-step,
one batched call per round; each compass request also asks for the next
one, and the answers are replayed in sequential order.  The reported
value is :func:`objective` of the reported ball, which is the compass's own
value bit for bit: the averages have one rule at every n.  All moves are comparison-based and the
projection is linear in (d, r, s), so scaling the profile by a positive
constant repeats the search path and dilating it dilates the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averages import (ball_average, batch_objective, fixed_rule_objective,
                       gradient_axial_component)
from .core import AmbientParams, RadialProfile, l1_norm
from .geometry import AxisBall, Contact, InfeasibleBallError, classify_contact

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
POOL_SIZE = 16 * MULTISTARTS  # and at most this many of them
BOUND_SLACK = 1.01  # the ranked value exceeds _objective_bound by rounding only
JUMP_REL = 0.10  # a best-ball move larger than this between grid neighbors flags a corner


@dataclass(frozen=True)
class BestBallResult:
    """Search outcome at one evaluation radius.

    objective_evals counts every ball whose objective the search evaluated:
    the coarse balls it ranked (not those the bound skipped) and every
    compass evaluation, the look-ahead included.  tie_candidates counts the
    distinct balls tied with the best value.
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
        if not (0.0 < self.lo < self.hi < np.inf) or self.count < 3:
            raise ValueError(f"need 0 < lo < hi < inf and 3 or more points, got {self.label()}")

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
              qcfg=None) -> float:
    """r^beta times the ball average; the ball must contain s (qcfg is
    ignored).  numpy's power, as in fixed_rule_objective, whose value for
    the ball this is, bit for bit."""
    if not ball.contains(s, tol=1e-12 * max(ball.r, s)):
        raise InfeasibleBallError(f"ball (d={ball.d}, r={ball.r}) does not contain s={s}")
    return float((np.array([ball.r]) ** params.beta * ball_average(profile, ball, params))[0])


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
    # max and min, spelled out: a search projects about a thousand balls
    d = 0.0 if d < 0.0 else d
    gap = abs(d - s)
    r = gap if gap > r else r
    r = r_min if r_min > r else r
    return d, r_max if r_max < r else r


def _polls(d, r, sd, sr, project):
    """The neighbors of (d, r) at steps (sd, sr) that do not project back to it."""
    polls = [(v, project(d + v[0] * sd, r + v[1] * sr)) for v in _DIRS]
    return [(v, cand) for v, cand in polls if cand != (d, r)]


def _compass(d0, r0, step_d, step_r, project, tol):
    """Derivative-free maximization by comparisons only (scale-equivariant).

    A generator driven by :func:`_lockstep`: it yields the balls it needs
    evaluated and is sent their values.  The four neighbors go out in one
    request, each projected to the nearest feasible ball, so at the
    constraint the d and r steps slide along the boundary family in
    opposite directions.  After an improving move the step doubles along
    the same direction while it keeps improving, so long travels cost log
    many evaluations.  Returns (d, r, value, converged).

    Each request also asks for the next one if this one fails to improve
    (the neighbors at half the step) or improves (the next doubled step).
    The answers are replayed in the sequential order and REFINE_MAX_EVALS
    counts only the sequential evaluations, so no path, value or flag moves.
    """
    d, r = project(d0, r0)
    sd, sr = step_d, step_r
    fresh = _polls(d, r, sd, sr, project) if max(sd, sr) > tol else []
    best, *vals = yield [(d, r)] + [c for _, c in fresh]
    # the look-ahead: (poll state or growth ball, poll neighbors, values)
    ahead = (d, r, sd, sr), fresh, vals
    evals = 1
    while evals < REFINE_MAX_EVALS:
        if max(sd, sr) <= tol:
            return d, r, best, True
        if ahead[0] == (d, r, sd, sr):
            _, fresh, vals = ahead
        else:
            fresh = _polls(d, r, sd, sr, project)
            if fresh:
                half = 0.5 * sd, 0.5 * sr
                after = _polls(d, r, *half, project) if max(half) > tol else []
                vals = yield [c for _, c in fresh + after]
                ahead = (d, r) + half, after, vals[len(fresh):]
        k = None
        if fresh:
            evals += len(fresh)
            vals = vals[:len(fresh)]
            k = vals.index(max(vals))
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
            if ahead[0] == cand:
                val = ahead[2][0]
            else:
                after = project(cand[0] + vd * sd * (2.0 * grow), cand[1] + vr * sr * (2.0 * grow))
                val, *vals = yield [cand] if after == cand else [cand, after]
                if vals:
                    ahead = after, None, vals
            evals += 1
            if val <= best:
                break
            (d, r), best = cand, val
            grow *= 2.0
    return d, r, best, False


def _lockstep(evaluate, runs):
    """Drive compass runs together: each round makes one evaluate call for
    the balls that every live run asks for.  Returns the runs' results."""
    results = [None] * len(runs)
    asks = {i: next(run) for i, run in enumerate(runs)}
    while asks:
        ds, rs = zip(*(b for ask in asks.values() for b in ask))
        vals = evaluate(np.array(ds), np.array(rs)).tolist()
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


def _coarse_starts(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Rank the coarse balls (ds, rs) by the batch objective and
    return the starts of the refinement and the number of balls ranked.

    The top POOL_SIZE balls within POOL_FRACTION of the best form the pool,
    deduplicated to MULTISTARTS starts.  Balls are ranked in decreasing
    order of their bound (:func:`_objective_bound`): the first 4 * POOL_SIZE,
    then every one whose bound times BOUND_SLACK reaches the pool's
    threshold among those ranked so far.  That threshold only rises, so the
    balls left out (value 0) cannot enter the pool: it is the unpruned one.
    """
    bound = _objective_bound(profile, ds, rs, params)
    by_bound = np.argsort(-bound, kind="stable")
    reach = -BOUND_SLACK * bound[by_bound]  # increasing
    values = np.zeros(len(ds))
    ranked, end = 0, 4 * POOL_SIZE
    while ranked < end:
        batch = by_bound[ranked:end]
        values[batch] = batch_objective(profile, ds[batch], rs[batch], params)
        ranked += len(batch)
        top = np.partition(values, -POOL_SIZE)[-POOL_SIZE:]  # the grid has >= 432 balls
        threshold = max(top[0], POOL_FRACTION * top.max())
        end = max(ranked, int(reach.searchsorted(-threshold, side="right")))
    # a stable sort keeps exact ties in grid order, whichever balls were skipped
    order = np.argsort(-values, kind="stable")
    top_val = float(values[order[0]])
    pool = []
    for i in order[:POOL_SIZE]:
        v = float(values[i])
        if v < POOL_FRACTION * top_val or v <= 0.0:
            break
        pool.append((v, float(ds[i]), float(rs[i])))
    if not pool:
        pool = [(top_val, float(ds[order[0]]), float(rs[order[0]]))]
    return _dedupe_candidates(pool, MULTISTARTS), ranked


def search(profile: RadialProfile, s: float, params: AmbientParams,
           warm: AxisBall | None = None) -> BestBallResult:
    """Globally maximize the objective over feasible axis balls at radius s.

    Among maxima within the tie tolerance the smallest radius wins, then
    the smallest center distance.  The returned value is the compass's:
    :func:`objective` of the returned ball, bit for bit.
    """
    if not 0.0 <= s < np.inf:
        raise ValueError(f"evaluation radius must be finite and nonnegative, got {s}")
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
    starts, ranked = _coarse_starts(profile, ds_all, rs_all, params)
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
    _, d, r, ok = tie[0]
    ball = AxisBall(d, r)
    # the compass's value; recomputed only for perfbench's tracer test (ROADMAP.md item 7)
    value = objective(profile, s, ball, params)
    contact = classify_contact(ball, s, CONTACT_TOL)
    region = _region_label(contact, s)
    return BestBallResult(s=s, value=value, ball=ball, contact=contact,
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


def _sweep(profile, pts, params, warms):
    """Search the points in order, each warm-started from its entry of
    warms or, where that is None, from the previous point's ball."""
    results = []
    for s, warm in zip(pts, warms):
        if warm is None and results:
            warm = results[-1].ball
        results.append(search(profile, float(s), params, warm=warm))
    return results


def _formula_channel(profile, results, params) -> np.ndarray:
    return np.array([derivative_by_formula(profile, r, params) for r in results])


def _assemble(profile, pts, results, formula) -> MaximalProfile:
    mp = MaximalProfile(grid=pts, values=np.array([r.value for r in results]),
                        results=results, deriv_formula=formula)
    derivative_by_fd(mp, profile)
    return mp


def maximal_profile(profile: RadialProfile, grid, params: AmbientParams) -> MaximalProfile:
    """Sweep the grid in order, warm-starting each point from the previous
    point's ball.

    Warm starts only add refinement candidates; the global coarse stage
    always runs.  The sweep is serial, so its output depends only on the
    profile, the grid and the parameters.
    """
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if np.any(pts <= 0.0):
        raise ValueError("maximal-profile grids must be strictly positive")
    results = _sweep(profile, pts, params, [None] * len(pts))
    return _assemble(profile, pts, results, _formula_channel(profile, results, params))


def refined_profile(profile: RadialProfile, grid: GridSpec, base: MaximalProfile,
                    params: AmbientParams) -> MaximalProfile:
    """The maximal profile on ``grid.refined()``, given the sweep of ``grid``.

    Only the midpoints are searched, in order, each warm-started from its
    left base neighbor's ball; the base results and formula derivatives
    are reused at the even indices.
    """
    fine = grid.refined()
    if not np.array_equal(fine[0::2], base.grid):
        raise ValueError("base sweep is not on the points of this grid")
    mids = _sweep(profile, fine[1::2], params, [r.ball for r in base.results[:-1]])
    results = [None] * len(fine)
    results[0::2] = base.results
    results[1::2] = mids
    formula = np.empty(len(fine))
    formula[0::2] = base.deriv_formula
    formula[1::2] = _formula_channel(profile, mids, params)
    return _assemble(profile, fine, results, formula)


def derivative_by_formula(profile: RadialProfile, result: BestBallResult,
                          params: AmbientParams, qcfg=None) -> float:
    """Signed radial derivative r^beta * (axial gradient average).

    Exactly zero at interior contact; at boundary contact the sign agrees
    with sign(d - s) whenever the derivative is nonzero.
    """
    if result.contact.kind == "interior":
        return 0.0
    ball = result.ball
    return ball.r ** params.beta * gradient_axial_component(profile, ball, params)


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
