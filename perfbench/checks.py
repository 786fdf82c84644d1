"""Correctness checks applied to every benchmark operation.

Each check returns ``None`` for a correct result or a short reason string.
An operation that raised is passed in as its exception and always fails.
The tolerances are those of the acceptance suite (tests/test_acceptance.py
and tests/test_search.py).
"""

from __future__ import annotations

import math
from collections import Counter

from maxvar import AxisBall, IDENTITY_QUADRATURE, InfeasibleBallError, objective
from maxvar.oracles import oracle_1d_maximal

REFINEMENT_TOL = 0.05      # acceptance criterion 7
DILATION_TOL = 0.01        # acceptance criterion 7
ORACLE_1D_TOL = 1e-3       # acceptance criterion 1
COVER_REL_SLACK = 1e-6     # best value vs the covering ball (test_search)
UPPER_REL_SLACK = 1e-9     # m <= max F * (s + T)^beta
VALUE_REL_TOL = 1e-9       # reported value vs its own ball, same quadrature


class Tally:
    """Attempted and failed operations, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Checker:
    """Checks operations as they finish.

    The 1D oracle comparisons wait for :meth:`finish`, holding only
    (query, value), so that the caller can read the peak RSS first.
    """

    def __init__(self, check, needs_oracle=None):
        self.check = check
        self.needs_oracle = needs_oracle
        self.tally = Tally()
        self.pending = []

    def add(self, op, result) -> None:
        reason = self.check(op, result)
        if reason is None and self.needs_oracle is not None and self.needs_oracle(op):
            self.pending.append((op, result.value))
        else:
            self.tally.record(reason)

    def finish(self) -> Tally:
        # an operation repeated in a run meets the oracle once
        oracles = {}
        for op, value in self.pending:
            if id(op) not in oracles:
                oracles[id(op)] = oracle_1d_maximal(op.profile, op.s, op.params.beta)
            self.tally.record(check_query_oracle(op, value, oracles[id(op)]))
        self.pending.clear()
        return self.tally


def _raised(result) -> str | None:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}"
    return None


def check_query(query, result) -> str | None:
    """A cold best-ball search: converged and inside the a-priori bounds.

    The value must lie between the covering ball's objective and
    max F * (s + T)^beta and must be the objective of the returned ball.
    """
    if (reason := _raised(result)) is not None:
        return reason
    profile, params, s = query.profile, query.params, query.s
    m = result.value
    if not result.converged:
        return "not converged"
    if not math.isfinite(m):
        return "value not finite"
    T = profile.support_radius
    upper = profile.max_value * (s + T) ** params.beta
    if m > upper * (1.0 + UPPER_REL_SLACK):
        return "above max F (s+T)^beta"
    cover = objective(profile, s, AxisBall(0.0, s + T), params, IDENTITY_QUADRATURE)
    if m < cover * (1.0 - COVER_REL_SLACK):
        return "below the covering ball"
    try:
        own = objective(profile, s, result.ball, params, IDENTITY_QUADRATURE)
    except InfeasibleBallError:
        return "ball does not contain s"
    if abs(own - m) > VALUE_REL_TOL * max(abs(own), abs(m)):
        return "value is not the objective of its ball"
    return None


def needs_oracle(query) -> bool:
    return query.params.n == 1


def check_query_oracle(query, value: float, oracle: float | None = None) -> str | None:
    """At n = 1 the value must match the brute-force 1D oracle.

    Apart from :func:`check_query` because the oracle's dense grids take
    far more memory than a search: the benchmark runs it after reading the
    peak RSS, keeping only (query, value) until then.  ``oracle`` is the
    oracle's value for ``query`` when already known.
    """
    if oracle is None:
        oracle = oracle_1d_maximal(query.profile, query.s, query.params.beta)
    if abs(value - oracle) > ORACLE_1D_TOL * oracle:
        return "disagrees with the 1D oracle"
    return None


def check_report(case, report) -> str | None:
    """A variation report: finite positive ratio and stable studies.

    Every grid point converged, or ``lq_norm_derivative`` would have raised
    ``UnconvergedSweepError`` and the report arrives here as that exception.
    """
    if (reason := _raised(report)) is not None:
        return reason
    if not (math.isfinite(report.ratio) and report.ratio > 0.0):
        return "ratio not finite and positive"
    if not report.refinement_deviation <= REFINEMENT_TOL:
        return "refinement deviation above 0.05"
    if not report.dilation_deviation <= DILATION_TOL:
        return "dilation deviation above 0.01"
    return None


def check_identity(case, report) -> str | None:
    """An identity report: applicable and passed."""
    if (reason := _raised(report)) is not None:
        return reason
    if not report.applicable:
        return "not applicable"
    if not report.passed:
        return f"{report.name} failed"
    return None
