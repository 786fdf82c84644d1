"""Global search for best balls and the maximal-value profile m(s).

The objective r^beta * (ball average) is maximized over axis balls
(d, r) with d >= 0, |d - s| <= r, r_min <= r <= s + T.  Rotational
symmetry about the evaluation axis and the mirror-domination argument
justify the 2D reduction; the covering ball (0, s + T) dominates every
larger radius.  Strategy: a coarse grid (log in r, linear in d per row,
the rows ending on the boundary family r = |d - s|), whose rows that can
reach the start pool are ranked in one call of the fixed rule, the
compass's own evaluator: a row whose bound (r / T)^beta max F lies below
POOL_FRACTION of the grid's best centered ball, known in closed form, is
dropped, which changes no start (:func:`_coarse_cut`); plus the best
centered ball, which the radial reduction solves in closed form
(:func:`_centered_best`);
compass refinement of the top-K deduplicated starts down to the hand-off
step (HANDOFF of the radius), at which the compass of the distinct
endpoints starts, and on to REFINE_TOL.  The compass polls the edge
moves (d +- h, r +- h): in the edge coordinates a = d - r and b = d + r
the constraint |d - s| <= r is the box a <= s <= b, and the creases of the
objective, where a ball edge crosses a knot, are coordinate lines, so
each move shifts one edge and holds the other.  Every compass step is
projected to the nearest feasible ball, so a move that holds the edge at
s slides the ball along the boundary family r = |d - s|, and the compass
follows that family without a stage of its own; a move from a centered
ball down past r = s lands on B(0, s).  The compass runs in
rounds, one fixed-rule call per round for every live run.  In a lone
search each round a run asks for its polls at h and at the next steps,
h/2 on the coarse pass and h/2, h/4 and h/8 on the fine one, and reads the
polls at a step only when none at the steps before improves; in a
lock-step sweep, where one round serves hundreds of runs, it asks for its
polls at h alone.  A run whose state (ball, step, stop step, look-ahead and
box) another run of the pass held first stops asking and takes that run's
end: the starts of a point mostly end in one basin.  No point's result
reaches another point's search: one function, :func:`_search_points`,
serves a lone :func:`search` and a lock-step sweep (:func:`_sweep`) of
many points
alike, and a ratio report searches each of its profiles in one call, or,
on two or more CPUs, in one call per process, the odd-indexed radii in a
forked child.  The
search ranks and compares values in units of T, (r / T)^beta times the
ball average, and multiplies the reported one by T^beta once: it is
:func:`objective` of the reported ball, bit for bit, since the averages
have one rule at every n.  All moves are comparison-based, the projection
is piecewise linear and positively homogeneous in (d, r, s), and the
coarse grid and the centered start are built in units of T.  Dilating
the profile by a power of two leaves every r / T and every average, so
every compared value, unchanged bit for bit, and every ball of the
dilated search is the base ball dilated exactly; scaling the profile's
values by a power of two repeats the path.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .averages import _gauss, ball_average, fixed_rule_objective, gradient_axial_averages
from .core import AmbientParams, RadialProfile
from .geometry import AxisBall, Contact, InfeasibleBallError, classify_contact

REGION_LABELS = ("zero_derivative", "E1", "E2", "E3", "unclassified")


# coarse grid, multistart refinement and tie-breaking
R_PER_DECADE = 6
D_PER_ROW = 14
MULTISTARTS = 8
HANDOFF = 1e-3  # of the radius: the coarse compass stops at this step, the fine one starts
# the steps h, h/2, ... a compass round of a lone search asks for polls at:
# its rounds hold a few runs, so their cost is the call, not the balls
COARSE_AHEAD = 2
FINE_AHEAD = 4
REFINE_TOL = 1e-7
TIE_TOL = 1e-9
TIE_BALL_REL = 1e-6  # tied balls closer than this in (d, r) count once
R_MIN_FRAC = 1e-4
CONTACT_TOL = 1e-6
REFINE_MAX_EVALS = 4000
POOL_FRACTION = 0.5  # coarse balls within this fraction of the best one seed starts
JUMP_REL = 0.10  # a best-ball move larger than this between grid neighbors flags a corner


@dataclass(frozen=True)
class BestBallResult:
    """Search outcome at one evaluation radius.

    objective_evals counts the balls the search needed, however it was
    batched: every coarse ball it ranks, those of the rows that can reach
    the start pool (:func:`_coarse_cut`), and every ball its compass runs
    read, the count that REFINE_MAX_EVALS budgets.  A
    look-ahead poll that no run reads is not counted, and a run that shares
    another run's path counts the polls that run read after the join; the
    closed-form centered start reads none.  So a sweep's row and a lone
    search's agree.
    tie_candidates counts the distinct balls tied with the best value.
    """

    s: float
    value: float
    ball: AxisBall
    contact: Contact
    region: str
    objective_evals: int
    converged: bool
    tie_candidates: int = 1


@dataclass(frozen=True)
class MaximalProfile:
    """m(s) on a grid: the per-point results, both derivative channels and
    the corner flags, built whole by :func:`_build_profile`.

    deriv_fd is :func:`derivative_by_fd` of the values and deriv_formula is
    :func:`derivative_by_formula` of each result.  corner_flags marks both
    points of every neighbor pair across which m may lose its second
    derivative, where the finite difference is a biased estimate: the best
    ball jumps by more than JUMP_REL, the contact kind changes, or a profile
    knot lies strictly between the two points' s, d + r or d - r.
    """

    grid: np.ndarray
    values: np.ndarray
    results: list
    deriv_fd: np.ndarray
    deriv_formula: np.ndarray
    corner_flags: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid lo..hi with count points, log- or linearly spaced."""

    lo: float
    hi: float
    count: int
    log: bool = True

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"need an integer point count, got {self.label()}")
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

    STANDARD_POINTS = 64  # of standard(), from 1e-2 T to 8 T

    @staticmethod
    def standard(profile: RadialProfile, count: int = STANDARD_POINTS) -> "GridSpec":
        T = profile.support_radius
        return GridSpec(1e-2 * T, 8.0 * T, count, log=True)

    def label(self) -> str:
        kind = "log" if self.log else "lin"
        return f"{self.lo:g}:{self.hi:g}:{self.count}:{kind}"


def objective(profile: RadialProfile, s: float, ball: AxisBall, params: AmbientParams,
              qcfg=None) -> float:
    """r^beta times the ball average; the ball must contain s (qcfg is
    ignored).  The search's value of the ball, bit for bit: numpy's
    (r / T)^beta times the average, the value fixed_rule_objective gives
    the ball in units of T, times T^beta."""
    if not ball.contains(s, tol=1e-12 * max(ball.r, s)):
        raise InfeasibleBallError(f"ball (d={ball.d}, r={ball.r}) does not contain s={s}")
    T = profile.support_radius
    unit = np.array([ball.r / T]) ** params.beta * ball_average(profile, ball, params)
    return float(unit[0]) * T ** params.beta


def _project(d, r, s, r_min, r_max):
    """Project (d, r) to the nearest feasible ball at evaluation radius s.

    The nearest point of {d >= 0, r >= |d - s|}: a point outside the
    constraint |d - s| <= r moves half its gap |d - s| - r along the
    constraint's normal (d toward s, r up), which lands it on the boundary
    family r = |d - s|, unless that step lands at d < 0; such a point, and
    any other at d < 0, goes to (0, max(r, s)), so the move (-h, r - h)
    from (0, r), s < r < s + h, lands on B(0, s).  Then
    r_min <= r <= r_max are clamped.  The map is piecewise linear and
    positively homogeneous in (d, r, s), and the result is feasible
    whenever d <= s + r_max.  It projects the starts; :func:`_edge_polls`
    projects the polls by the same arithmetic.
    """
    gap = abs(d - s) - r
    if gap > 0.0:
        step = 0.5 * gap if d < s else -0.5 * gap
        if d + step >= 0.0:
            d += step
            r += 0.5 * gap
    d = 0.0 if d < 0.0 else d
    gap = abs(d - s)
    r = gap if gap > r else r
    r = r_min if r_min > r else r
    return d, r_max if r_max < r else r


def _edge_polls(d, r, h, tol, ahead, s, r_min, r_max):
    """The edge moves (d +- h, r +- h) of (d, r) at the steps h, h/2, ...
    above tol, at most ``ahead`` of them, each projected as :func:`_project`
    projects it, without those that project back to (d, r): their centers,
    their radii and the number at each step.  In the edge coordinates
    a = d - r and b = d + r, where the constraint |d - s| <= r is the box
    a <= s <= b, each move shifts one edge by 2h.  The projection is written
    out: a search polls about a thousand balls."""
    ds, rs, sizes = [], [], []
    while h > tol and len(sizes) < ahead:
        count = len(ds)
        out, back, up, down = d + h, d - h, r + h, r - h
        for d1, r1 in ((out, up), (back, down), (out, down), (back, up)):
            gap = abs(d1 - s) - r1
            if gap > 0.0:
                step = 0.5 * gap if d1 < s else -0.5 * gap
                if d1 + step >= 0.0:
                    d1 += step
                    r1 += 0.5 * gap
            if d1 < 0.0:
                d1 = 0.0
            gap = abs(d1 - s)
            if gap > r1:
                r1 = gap
            if r_min > r1:
                r1 = r_min
            if r_max < r1:
                r1 = r_max
            if d1 != d or r1 != r:
                ds.append(d1)
                rs.append(r1)
        sizes.append(len(ds) - count)
        h *= 0.5
    return ds, rs, sizes


class _Run:
    """One compass run from (d0, r0) at step ``step``, down to the stop step
    ``tol``, in the box (s, r_min, r_max) of :func:`_project`, asking each
    round for its polls at ``ahead`` steps h, h/2, ...: its ball (d, r),
    step h, best value, the polls it has read (evals), the polls its next
    round asks for (:func:`_edge_polls`), and its end (d, r, value,
    converged) once it stops.  Its future is a function of its state
    (d, r, h, tol, ahead, box) and, through REFINE_MAX_EVALS, of evals
    alone: best is the fixed rule's value of (d, r)."""

    __slots__ = ("d", "r", "h", "tol", "box", "ahead", "best", "evals",
                 "ds", "rs", "sizes", "end")

    def __init__(self, d0, r0, step, tol, box, ahead):
        self.d, self.r = _project(d0, r0, *box)
        self.h, self.tol, self.box, self.ahead = step, tol, box, ahead
        self.best, self.evals, self.end = None, 0, None
        ds, rs, self.sizes = _edge_polls(self.d, self.r, step, tol, ahead, *box)
        # the first round asks for the start too
        self.ds, self.rs = [self.d] + ds, [self.r] + rs

    def read(self, vals):
        """Read the values of the round's asks in sequential order, the polls
        at h and then, only while none improves, those at the next steps;
        then ask for the next round's polls or end the run."""
        at = 0
        if self.best is None:
            self.best, self.evals, at = vals[0], 1, 1
        for size in self.sizes:
            if self.evals >= REFINE_MAX_EVALS or self.h <= self.tol:
                break
            if size:
                part = vals[at:at + size]
                self.evals += size
                top = max(part)
                if top > self.best:
                    at += part.index(top)
                    self.d, self.r, self.best = self.ds[at], self.rs[at], top
                    break
                at += size
            # no poll at h, or none improves
            self.h *= 0.5
        while self.evals < REFINE_MAX_EVALS and self.h > self.tol:
            self.ds, self.rs, self.sizes = _edge_polls(self.d, self.r, self.h, self.tol,
                                                       self.ahead, *self.box)
            if self.sizes[0]:
                return
            self.h *= 0.5
        self.end = (self.d, self.r, self.best, self.evals < REFINE_MAX_EVALS)


def _compass(evaluate, runs):
    """Derivative-free maximization by comparisons only (scale-equivariant)
    of all runs, in rounds: one ``evaluate(ds, rs)`` call per round for
    the asks of every live run.

    A run polls the edge moves (d +- h, r +- h), each projected to the
    nearest feasible ball: at the constraint the two moves that hold the
    edge at s slide along the boundary family, and a move that projects
    back is not polled.  It moves to the best improving poll and keeps the
    step, or halves the step when none improves.  Asking for the polls at
    the next steps h/2, ... with those at h saves a round at every halving
    and changes no path: REFINE_MAX_EVALS counts the polls read.  Runs at
    any radius and stop step share a round, since the fixed rule's value of
    a ball does not depend on its batch.

    Runs that reach one state share one path.  After each round, a live run
    whose state another run held first, after an earlier read or earlier in
    the same round, stops asking and follows that leader.  When no run is
    live, a follower takes its leader's end and counts its own evals at the
    join plus the polls the leader read after it; where that count would
    reach REFINE_MAX_EVALS, or the leader stopped on it, the follower
    resumes from its join state with its own count, and shares no more.
    Every end and count is the one the run reaches alone.
    """
    held = {}  # a state -> the first run to hold it after a read, and its evals there
    joins = []  # (follower, leader, the leader's evals at the join)
    live, share = runs, True
    while live or joins:
        if not live:
            share, waiting = False, []
            for join in joins:
                run, leader, at = join
                if leader.end is None:  # itself a follower, not yet ended
                    waiting.append(join)
                elif leader.end[3] and run.evals + leader.evals - at < REFINE_MAX_EVALS:
                    run.evals += leader.evals - at
                    run.end = leader.end
                else:
                    live.append(run)
            joins = waiting
            continue
        ds, rs, ends = [], [], []
        for run in live:
            ds += run.ds
            rs += run.rs
            ends.append(len(ds))
        vals = evaluate(np.array(ds), np.array(rs)).tolist()
        start = 0
        for run, end in zip(live, ends):
            run.read(vals[start:end])
            start = end
        kept = []
        for run in live:
            if run.end is None:
                if share:
                    leader, at = held.setdefault(
                        (run.d, run.r, run.h, run.tol, run.ahead, run.box), (run, run.evals))
                    if leader is not run:
                        joins.append((run, leader, at))
                        continue
                kept.append(run)
        live = kept


def _dedupe_candidates(cands, limit, rel=0.05):
    """Keep the top candidates that differ by more than rel in (d, r)."""
    kept = []
    for val, d, r in cands:
        for _, dk, rk in kept:
            if not max(abs(d - dk), abs(r - rk)) > rel * max(r, rk):
                break
        else:
            kept.append((val, d, r))
            if len(kept) >= limit:
                break
    return kept


def _radial_reduction(profile: RadialProfile, params: AmbientParams):
    """The centered balls B(0, r) in units of T: the profile's knots t,
    values v and slopes g, the integrals I(t_k) of F t^(n-1) over [0, t_k]
    at the knots, and the function that gives the objective
    n r^(beta - n) I(r) of B(0, r) at an array of radii r.  The Gauss rule
    of the fixed rule's full-sphere panels integrates each piece exactly,
    and each radius takes arithmetic by element or by row only, so it gets
    the same value in any batch.
    """
    n, beta = params.n, params.beta
    T = profile.support_radius
    t = profile.knots_t / T
    v = profile.knots_v
    g = profile.slope(profile.knots_t) * T  # the last piece, past the support, is flat
    x, w = _gauss(n // 2 + 1)

    def integral(k, end):
        """The integral of F t^(n-1) over [t_k, end] on piece k.  Each row sums
        its own nodes: a BLAS product's order could depend on the other rows."""
        h = end - t[k]
        u = h[:, None] * x
        return h * ((v[k, None] + g[k, None] * u) * (t[k, None] + u) ** (n - 1) * w).sum(axis=1)

    cumulative = np.concatenate(([0.0], integral(np.arange(len(t) - 1), t[1:]).cumsum()))

    def value(r):
        j = t.searchsorted(r, side="right") - 1
        # past the support F = 0: the integral ends at T, however far r lies
        return n * (cumulative[j] + integral(j, np.minimum(r, 1.0))) * r ** (beta - n)

    return t, v, g, cumulative, value


def _centered_best(profile: RadialProfile, pts, params: AmbientParams):
    """The best centered ball B(0, r) over max(s, R_MIN_FRAC T) <= r <= s + T
    at each radius s of pts: the arrays of its radii and of its objective
    n r^(beta - n) I(r), I(r) the integral of F(t) t^(n-1) over [0, r]
    (:func:`_radial_reduction`).  No cap kernel and no search.

    The objective's derivative has the sign of P(r) = (beta - n) I(r) +
    r^n F(r), which on the piece F = alpha + g t from the knot t_k is
    c_k + A r^n + B r^(n+1), with A = alpha beta / n, B = g (beta + 1) / (n + 1)
    and c_k = (beta - n) (I(t_k) - t_k^n (F(t_k) / n - g t_k / (n (n + 1)))).
    P' = r^(n-1) (n A + (n + 1) B r) changes sign only at r* = -n A / ((n + 1) B),
    so P falls only on the pieces with g < 0, past r*: the objective peaks
    at most once per piece, at the root of P on [max(t_k, r*), t_(k+1)] when
    P goes there from + to -.  Safeguarded Newton steps, a bisection
    wherever a step leaves its bracket, find the roots of the brackets of
    every radius and piece at once.  The maximum is at a root, a knot or an
    end of the range.  The profile's integrals and coefficients are shared
    by all radii, and a radius's brackets and candidates take arithmetic by
    element or by row only, so it gets the same ball in any batch.  The
    work is in units of T, so dilating the profile by a power of two
    dilates the radius exactly.
    """
    n, beta = params.n, params.beta
    T = profile.support_radius
    t, v, g, cumulative, value = _radial_reduction(profile, params)
    s_units = np.asarray(pts, dtype=float) / T
    lo, hi = np.maximum(s_units, R_MIN_FRAC), s_units + 1.0
    k = np.arange(len(t) - 1)[g[:-1] < 0.0]
    tk, gk = t[k], g[k]
    A = beta / n * (v[k] - gk * tk)
    B = (beta + 1.0) / (n + 1) * gk
    c = (beta - n) * (cumulative[k] - tk**n * (v[k] / n - gk * tk / (n * (n + 1))))
    # the brackets of every (radius, falling piece), radius by radius
    b = np.minimum(t[k + 1], hi[:, None])
    a = np.minimum(np.maximum(np.maximum(tk, -n * A / ((n + 1) * B)), lo[:, None]), b)
    rises = (a < b) & (c + a**n * (A + B * a) > 0.0) & (c + b**n * (A + B * b) < 0.0)
    piece = rises.nonzero()[1]
    c, A, B, a, b = c[piece], A[piece], B[piece], a[rises], b[rises]
    nA, nB = n * A, (n + 1) * B
    r = 0.5 * (a + b)
    live = np.ones(len(r), dtype=bool)
    # a step from r* divides by P' = 0; it is not finite and bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.any():
            rn = r**n
            p = c + rn * (A + B * r)
            a = np.where(p > 0.0, r, a)
            b = np.where(p > 0.0, b, r)
            step = r - p * r / (rn * (nA + nB * r))
            nxt = np.where((a < step) & (step < b), step, 0.5 * (a + b))
            live &= (step != r) & (nxt != r)
            r = np.where(live, nxt, r)
    # a row of candidates per radius: the low end, the knots inside, the
    # roots and the high end; argmax takes each row's first best one
    roots = np.empty(rises.shape)
    roots[rises] = r
    cand = np.concatenate((lo[:, None], t[None].repeat(len(lo), 0), roots, hi[:, None]), axis=1)
    ends = np.ones((len(lo), 1), dtype=bool)
    live = np.concatenate((ends, (t > lo[:, None]) & (t < hi[:, None]), rises, ends), axis=1)
    vals = np.full(cand.shape, -np.inf)
    vals[live] = value(cand[live])
    rows, best = np.arange(len(lo)), vals.argmax(axis=1)
    return cand[rows, best] * T, vals[rows, best] * T**beta


def _coarse_balls(s: float, T: float):
    """The coarse grid (log-spaced radii, linear centers per row) as arrays
    ds, rs, with the relative step between grid rows.

    Each row runs from max(0, s - r) to min(s, T) + r, so it starts at the
    inner boundary ball (s - r, r) where r <= s and ends at the outer one
    (s + r, r) where s <= T: the boundary family r = |d - s| needs no
    balls of its own.  The grid is built in units of T and scaled at the
    end, so dilating (s, T) by a power of two dilates every ball exactly."""
    x = s / T
    # rows whose balls cannot reach the support (r <= (s - T)/2) carry zero objective
    r_low = max(R_MIN_FRAC, 0.5 * (x - 1.0))
    decades = math.log10((x + 1.0) / r_low)
    n_r = max(2, int(math.ceil(R_PER_DECADE * decades)) + 1)
    rs_rows = np.geomspace(r_low, x + 1.0, n_r)
    lo_d = np.maximum(0.0, x - rs_rows)
    hi_d = min(x, 1.0) + rs_rows
    frac = np.linspace(0.0, 1.0, D_PER_ROW)
    ds = (lo_d[:, None] + np.maximum(hi_d - lo_d, 0.0)[:, None] * frac[None, :]).ravel()
    return ds * T, np.repeat(rs_rows * T, D_PER_ROW), rs_rows[1] / rs_rows[0] - 1.0


def _coarse_cut(profile: RadialProfile, pts, params: AmbientParams):
    """Each point's coarse grid (:func:`_coarse_balls`) and the mask of the
    rows that can reach its start pool, the balls :func:`_coarse_starts`
    ranks: the bounding step of branch and bound, exact.

    In units of T a ball of radius r is worth at most (r / T)^beta max F, a
    bound the fixed rule keeps exactly at odd n and within 1e-12 at even n.
    The grid's centered balls B(0, r), r >= s, the first ball of each of
    their rows, have closed-form values (:func:`_radial_reduction`), one call
    for every point; the largest, L, exists, since the top row's first ball
    is the covering ball B(0, s + T), and it is at most the grid's best
    value.  A row whose bound lies below POOL_FRACTION L, with TIE_TOL of
    room for the rounding of both rules, holds neither the best ball nor a
    pool ball, and the stable sort of the kept balls gives the same starts,
    bit for bit.  A floor of 0, where the closed form underflows at extreme
    s, keeps every row, and so would a floor of nan.
    """
    T = profile.support_radius
    grids = [_coarse_balls(s, T) for s in pts]
    centered = [rs[ds == 0.0] / T for ds, rs, _ in grids]
    offsets = np.cumsum([0] + [len(c) for c in centered[:-1]])
    floors = np.maximum.reduceat(_radial_reduction(profile, params)[-1](np.concatenate(centered)),
                                 offsets)
    top = profile.max_value * (1.0 + TIE_TOL)
    # keep unless the bound is below the threshold, so that a nan floor keeps all
    return [(ds, rs, step,
             ~((rs / T) ** params.beta * top < POOL_FRACTION * floor * (1.0 - TIE_TOL)))
            for (ds, rs, step), floor in zip(grids, floors.tolist())]


def _coarse_starts(profile: RadialProfile, ds, rs, params: AmbientParams):
    """Rank the coarse balls (ds, rs) by the fixed rule in units of T and
    return the starts of the refinement: the balls within POOL_FRACTION of
    the best, by value, deduplicated to the first MULTISTARTS distinct ones.

    A stable sort keeps exact ties in grid order, so the first start is the
    first ball of the best value; when no value is positive, it is the only
    start.
    """
    values = fixed_rule_objective(profile, ds, rs, params, unit=profile.support_radius)
    order = np.argsort(-values, kind="stable")
    vals = values[order]
    # the values fall along order, so the pool is a prefix
    cut = max(1, int(np.count_nonzero((vals >= POOL_FRACTION * vals[0]) & (vals > 0.0))))
    pool = list(zip(vals[:cut].tolist(), ds[order[:cut]].tolist(), rs[order[:cut]].tolist()))
    return _dedupe_candidates(pool, MULTISTARTS)


def search(profile: RadialProfile, s: float, params: AmbientParams) -> BestBallResult:
    """Globally maximize the objective over feasible axis balls at radius s.

    Among maxima within the tie tolerance the smallest radius wins, then
    the smallest center distance.  The returned value is the compass's, in
    units of T, times T^beta: :func:`objective` of the returned ball, bit
    for bit.
    """
    res = _search_points(profile, [s], params)[0]
    # the compass's value; recomputed only for perfbench's tracer test (ROADMAP.md item 7)
    return replace(res, value=objective(profile, s, res.ball, params))


def _search_points(profile: RadialProfile, pts, params: AmbientParams):
    """The BestBallResults, with the compass's values, at the radii pts.

    Ranks the coarse balls of each point that can reach its start pool
    (:func:`_coarse_cut`), then runs one compass pass for the starts of
    every point down to the hand-off step, dedupes each point's endpoints
    and runs one compass pass for all survivors to REFINE_TOL.  The fixed
    rule gives a ball the same value in any batch, so each point gets what a
    search of it alone returns, while a round's fixed-rule call serves every
    point: the 40-point tent report at n = 2 makes 99 compass calls in its
    two lock-step sweeps on one CPU, where lone searches make 1,918.  Runs
    ask for look-ahead polls only when pts holds one point.  One
    :func:`_centered_best` call solves the centered starts of all the
    points, and one closed-form call gives the floors of their cuts.

    A profile whose smallest ball, of radius R_MIN_FRAC T, has a volume
    r^n below the smallest normal float is refused with a ValueError: its
    averages would divide by zero.  So is a radius s whose covering ball
    has a volume omega_n (s + T)^n of 2^1023 or more, half the overflow.
    """
    T = profile.support_radius
    r_min = R_MIN_FRAC * T
    for s in pts:
        if not 0.0 <= s < np.inf:
            raise ValueError(f"evaluation radius must be finite and nonnegative, got {s}")
        if math.log2(params.omega_n) + params.n * math.log2(s + T) >= 1023.0:
            raise ValueError(f"evaluation radius s = {s:g} is too large for n = {params.n}: "
                             "the volume of the covering ball, of radius s + T, overflows")
    if r_min ** params.n < np.finfo(float).tiny:
        raise ValueError(f"support radius T = {T:g} is too small for n = {params.n}: the "
                         f"volume of a ball of radius {R_MIN_FRAC:g} T underflows")
    # the look-ahead saves a round at each halving, which pays only where a
    # round serves few runs
    coarse_ahead, fine_ahead = (COARSE_AHEAD, FINE_AHEAD) if len(pts) == 1 else (1, 1)
    coarse, evals = [], []
    for s, centered, (ds, rs, grid_step_r, keep) in zip(
            pts, _centered_best(profile, pts, params)[0].tolist(),
            _coarse_cut(profile, pts, params)):
        starts = _coarse_starts(profile, ds[keep], rs[keep], params)
        starts.append((None, 0.0, centered))
        box = (s, r_min, s + T)
        coarse.append([_Run(d0, r0, grid_step_r * max(r0, r_min), HANDOFF * max(r0, r_min),
                            box, coarse_ahead) for _, d0, r0 in starts])
        evals.append(int(np.count_nonzero(keep)))
    evaluate = partial(fixed_rule_objective, profile, params=params, unit=T)
    _compass(evaluate, [run for runs in coarse for run in runs])
    fine = []
    for runs in coarse:
        # endpoints of the coarse pass within 1% of each other lie in one basin;
        # refining more than one of them to REFINE_TOL repeats the same work
        ends = [(v, d, r) for d, r, v, _ in (run.end for run in runs)]
        ends.sort(key=lambda c: -c[0])
        fine.append([_Run(d1, r1, HANDOFF * max(r1, r_min), REFINE_TOL * max(r1, r_min),
                          runs[0].box, fine_ahead)
                     for _, d1, r1 in _dedupe_candidates(ends, MULTISTARTS, rel=0.01)])
    _compass(evaluate, [run for runs in fine for run in runs])
    scale = T**params.beta
    return [_best_ball(s, [run.end for run in last],
                       ranked + sum(run.evals for run in first + last), scale)
            for s, ranked, first, last in zip(pts, evals, coarse, fine)]


def _best_ball(s: float, finals, evals: int, scale: float) -> BestBallResult:
    """The result of the fine compass ends (d, r, value, converged) at s,
    whose values are in units of T: the reported value is the best one times
    scale = T^beta."""
    best_val = max(f[2] for f in finals)
    tie = [f for f in finals if f[2] >= best_val - TIE_TOL * abs(best_val)]
    tie.sort(key=lambda f: (f[1], f[0]))
    d, r, value, ok = tie[0]
    ball = AxisBall(d, r)
    contact = classify_contact(ball, s, CONTACT_TOL)
    return BestBallResult(s=s, value=value * scale, ball=ball, contact=contact,
                          region=_region_label(contact, s), objective_evals=evals,
                          converged=bool(ok),
                          tie_candidates=len(_dedupe_candidates(
                              [(v, d, r) for d, r, v, _ in tie], len(tie), rel=TIE_BALL_REL)))


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


def _build_profile(profile: RadialProfile, pts, results, params: AmbientParams) -> MaximalProfile:
    """The MaximalProfile of the results at the radii pts, every field at
    once, the formula channel in one batch: each sweep ends here."""
    values = np.array([res.value for res in results])
    d = np.array([res.ball.d for res in results])
    r = np.array([res.ball.r for res in results])
    kinds = np.array([res.contact.kind for res in results])
    edges = np.array([[res.s for res in results], d + r, d - r])
    lo = np.minimum(edges[:, :-1], edges[:, 1:])
    hi = np.maximum(edges[:, :-1], edges[:, 1:])
    knots = profile.knots_t
    # more knots lie below hi than at or below lo: one lies strictly between
    pairs = ((np.maximum(abs(np.diff(d)), abs(np.diff(r))) / np.maximum(r[:-1], r[1:]) > JUMP_REL)
             | (kinds[1:] != kinds[:-1])
             | (knots.searchsorted(hi, "left") > knots.searchsorted(lo, "right")).any(0))
    flags = np.zeros(len(results), dtype=bool)
    flags[:-1] |= pairs
    flags[1:] |= pairs
    return MaximalProfile(grid=pts, values=values, results=results,
                          deriv_fd=derivative_by_fd(pts, values),
                          deriv_formula=_formula_channel(profile, results, params),
                          corner_flags=flags)


def _formula_channel(profile: RadialProfile, results, params: AmbientParams) -> np.ndarray:
    """r^beta * (axial gradient average), Python's power, at each result's
    boundary ball with d != 0, in one :func:`gradient_axial_averages` batch,
    and 0.0 at the others: m' at each point, by the boundary formula."""
    out = np.zeros(len(results))
    rows = [i for i, res in enumerate(results)
            if res.contact.kind != "interior" and res.ball.d != 0.0]
    if rows:
        r = [float(results[i].ball.r) for i in rows]
        avgs = gradient_axial_averages(profile, [results[i].ball.d for i in rows], r, params)
        out[rows] = [ri ** params.beta * avg for ri, avg in zip(r, avgs.tolist())]
    return out


def maximal_profile(profile: RadialProfile, grid, params: AmbientParams) -> MaximalProfile:
    """Search every point of the grid on its own: a point's result is
    :func:`search` of its radius, whatever the other points are.  An array
    grid must hold 3 or more finite, positive, strictly increasing radii."""
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) < 3 or not np.all(np.isfinite(pts)) \
            or pts[0] <= 0.0 or np.any(np.diff(pts) <= 0.0):
        raise ValueError("maximal-profile grids need 3 or more finite, strictly positive "
                         "and strictly increasing radii")
    return _build_profile(profile, pts, [search(profile, float(s), params) for s in pts], params)


def _sweep(profile: RadialProfile, pts: np.ndarray, params: AmbientParams) -> MaximalProfile:
    """The maximal profile on the radii pts, lock-step: each row what a lone
    :func:`search` of its radius returns, value included.  On two or more
    CPUs one forked child searches the odd-indexed radii while this process
    searches the rest (:func:`_search_forked`), each half in one
    :func:`_search_points` call; on one CPU a single call searches them
    all.  No point's result reaches another point's search, so the rows are
    the same either way."""
    points = pts.tolist()
    if len(points) < 2 or not hasattr(os, "fork") or _cpus() < 2:
        results = _search_points(profile, points, params)
    else:
        results = _search_forked(profile, points, params)
    return _build_profile(profile, pts, results, params)


def _cpus() -> int:
    """The number of CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _search_forked(profile: RadialProfile, pts, params: AmbientParams):
    """:func:`_search_points` of pts: a forked child searches pts[1::2] and
    pickles its results, or the exception it raised, into a pipe; this
    process searches pts[0::2], then reads the pipe to its end and reaps the
    child, killing it first when its own half raised.  The child's exception
    is raised here with its own type."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                outcome = (True, _search_points(profile, pts[1::2], params))
            except BaseException as exc:  # handed to the parent, which raises it
                outcome = (False, exc)
            data = pickle.dumps(outcome)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
        finally:
            # no exit handlers and no flush of buffers the parent also holds;
            # a child that wrote nothing is reported by the parent
            os._exit(0)
    os.close(write_end)
    try:
        even = _search_points(profile, pts[0::2], params)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        try:
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"sweep child ended without a result (wait status {status})")
    ok, odd = pickle.loads(data)
    if not ok:
        raise odd
    results = [None] * len(pts)
    results[0::2], results[1::2] = even, odd
    return results


def derivative_by_formula(profile: RadialProfile, result: BestBallResult,
                          params: AmbientParams) -> float:
    """Signed radial derivative r^beta * (axial gradient average): the row
    of a one-result :func:`_formula_channel`.

    Exactly zero at interior contact; at boundary contact the sign agrees
    with sign(d - s) whenever the derivative is nonzero.
    """
    return float(_formula_channel(profile, [result], params)[0])


def derivative_by_fd(grid, values) -> np.ndarray:
    """m'(s) by finite differences of the values m on the grid s: the
    three-point central stencil inside and second-order one-sided stencils
    at the ends, all exact for quadratics on any increasing grid."""
    s = np.asarray(grid, dtype=float)
    m = np.asarray(values, dtype=float)
    if len(s) < 3:
        raise ValueError("need at least 3 grid points for finite differences")
    d = np.empty_like(m)
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    d[1:-1] = (hm**2 * m[2:] - hp**2 * m[:-2] + (hp**2 - hm**2) * m[1:-1]) \
        / (hm * hp * (hm + hp))
    h1, h2 = s[1] - s[0], s[2] - s[1]
    d[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * m[0]
            + (h1 + h2) / (h1 * h2) * m[1] - h1 / (h2 * (h1 + h2)) * m[2])
    g1, g2 = s[-1] - s[-2], s[-2] - s[-3]
    d[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)) * m[-1]
             - (g1 + g2) / (g1 * g2) * m[-2] + g1 / (g2 * (g1 + g2)) * m[-3])
    return d
