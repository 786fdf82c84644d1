"""Seeded benchmark of the maxvar library.

    python3 perfbench/run.py --workload ratio_family --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there.  With ``--trace 0`` the workload's seeded operations run untraced,
in whole passes over all of them, for about ``--seconds`` seconds, and the
end-to-end metrics are reported at a nominal machine speed (see
calibration.py); with ``--trace 1`` a fixed, seeded sample runs once
untraced and once under the span tracer, and the per-layer metrics are
reported.  Every
operation is checked outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PASS_STREAM = 7   # keeps the pass orders apart from the input rounds
ACCURACY_SAMPLE = 6


def _load_library():
    """Put the checkout's src/ first on the path; None when it is missing."""
    if not (SRC / "maxvar" / "__init__.py").is_file():
        return None
    # variation_report takes no workers argument; keep every sweep serial
    os.environ["MAXVAR_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import maxvar
    if not Path(maxvar.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return maxvar


def _child_setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter doing the set-up and exiting, scaled
    to the nominal machine speed by gauges taken before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    before = calibration.gauge()
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    dt = time.perf_counter() - t0
    return dt * math.sqrt(before * calibration.gauge())


def _quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def run_op(w, op):
    """(operation, result or the exception it raised, seconds taken)."""
    t0 = time.perf_counter()
    try:
        result = w.run(op)
    except Exception as exc:   # counted as a failed operation
        result = exc
    return op, result, time.perf_counter() - t0


def measure(w, ops, seed: int, seconds: float):
    """Time passes over ``ops``; each operation's time at nominal speed.

    A pass runs every operation once, in an order of its own drawn from the
    seed, so the repeats of one operation fall at different moments of the
    run.  A :class:`calibration.Meter` gauges the machine between
    operations, and inside a sweep at its per-point searches, and an
    operation's time is the median of its repeats at nominal speed.  Passes
    go on while the next one is expected to fit in ``seconds``; there is at
    least one.  Every result is checked as soon as its pass ends, outside
    the timed region and the time budget.

    Returns the tally, the scaled times, the unscaled best times, the
    number of passes, the gauges and the peak RSS.
    """
    from checks import Checker

    checker = Checker(w.check, w.needs_oracle)
    meter = calibration.Meter()
    repeats = [[] for _ in ops]
    spent, passes = 0.0, 0
    with meter.checkpoints_in("maxvar.search", "search"):
        while passes == 0 or spent * (passes + 1) / passes <= seconds:
            order = np.random.default_rng([seed, PASS_STREAM, passes]).permutation(len(ops))
            t0 = time.perf_counter()
            done = []
            for i in order:
                result, pieces = meter.time(w.run, ops[i])
                done.append((i, result))
                repeats[i].append(pieces)
            spent += time.perf_counter() - t0
            passes += 1
            for i, result in done:
                checker.add(ops[i], result)
    meter.finish()
    # read before the oracle checks, whose grids use far more memory
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [statistics.median(meter.scaled(p) for p in r) for r in repeats]
    best = [min(sum(dt for dt, _ in p) for p in r) for r in repeats]
    return checker.finish(), times, best, passes, meter.gauges, peak_mb


def end_to_end(w, seed: int, seconds: float):
    from workloads import run_inputs, warm_up

    # set-ups before and after the passes, so that one slow spell of the
    # machine does not take them all
    setups = [_child_setup_seconds(w.name, seed) for _ in range(SETUP_REPEATS // 2)]
    ops = run_inputs(w, seed)
    warm_up()
    tally, times, best, passes, gauges, peak_mb = measure(w, ops, seed, seconds)
    setups += [_child_setup_seconds(w.name, seed) for _ in range(SETUP_REPEATS - len(setups))]
    items = sum(w.items(op) for op in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "items_per_s": (items / sum(times), "1/s"),
    }
    # the same figures under the names each workload's users know
    op_name = {"points": "report_s", "queries": "query_ms", "checks": "check_ms"}[w.item]
    scale, unit = (1.0, "s") if op_name == "report_s" else (1e3, "ms")
    samples = f"{len(times)} operations x {passes} passes, at nominal speed"
    notes = [("setup_s", metrics["setup_s"][0], "s", f"median of {SETUP_REPEATS} set-ups"),
             ("peak_rss_mb", peak_mb, "MB", "ru_maxrss"),
             (f"{op_name}.p50", scale * statistics.median(times), unit, samples)]
    # the highest percentile with at least ten samples beyond it
    if len(times) >= 100:
        notes.append((f"{op_name}.p90", scale * _quantile(times, 90), unit, samples))
    notes.append((f"{w.item}_per_s", metrics["items_per_s"][0], f"{w.item}/s",
                  f"{items} {w.item}, at nominal speed"))
    notes.append(("fail_share", tally.fail_share, "failed/attempted",
                  f"{tally.failed}/{tally.attempted}, every pass checked"))
    notes.append(("machine_speed", statistics.fmean(gauges), "x nominal",
                  f"mean of {len(gauges)} gauges"))
    notes.append((f"{op_name}.p50.unscaled", scale * statistics.median(best), unit,
                  "best unscaled time of each operation"))
    return tally, metrics, notes


def _accuracy(tracer, ops, seed: int):
    """Layer accuracy on a seeded sample of the traced run's own balls."""
    from maxvar import AmbientParams, IDENTITY_QUADRATURE
    from maxvar.averages import ball_average, batch_objective
    from maxvar.oracles import oracle_1d_maximal, oracle_dense_average_2d

    rng = np.random.default_rng([seed, 1_000_003])
    balls = [(p, params, res.ball) for p, params, res in tracer.search_results]
    balls += [(op.profile, op.params, op.ball) for op in ops if hasattr(op, "ball")]
    # the dense polar grid resolves a ball only when its axial overlap with
    # the support is at least r / 2 (the acceptance suite's condition)
    dense_balls = [(p, params, b) for p, params, b in balls
                   if min(b.d + b.r, p.support_radius) - max(0.0, b.d - b.r) >= 0.5 * b.r]

    def sample(pool):
        if not pool:
            return []
        idx = rng.choice(len(pool), size=min(ACCURACY_SAMPLE, len(pool)), replace=False)
        return [pool[i] for i in sorted(idx)]

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    batch_err = 0.0
    for profile, params, ball in sample(balls):
        exact = ball.r ** params.beta * ball_average(profile, ball, params, IDENTITY_QUADRATURE)
        fast = float(batch_objective(profile, np.array([ball.d]), np.array([ball.r]), params)[0])
        if exact > 0.0:
            batch_err = max(batch_err, rel(fast, exact))
    p2 = AmbientParams(2, 0.5)
    dense_err = 0.0
    for profile, _, ball in sample(dense_balls):
        value = ball_average(profile, ball, p2, IDENTITY_QUADRATURE)
        dense = oracle_dense_average_2d(profile, ball)
        if max(value, dense) > 0.0:
            dense_err = max(dense_err, rel(value, dense))
    line = [(p, params, res) for p, params, res in tracer.search_results if params.n == 1]
    search_err = 0.0
    for profile, params, res in sample(line):
        search_err = max(search_err, rel(res.value, oracle_1d_maximal(profile, res.s, params.beta)))
    return batch_err, dense_err, search_err


def per_layer(w, seed: int):
    from checks import Checker
    from tracing import Tracer
    from workloads import round_inputs, warm_up

    ops, k = [], 0
    while len(ops) < w.trace_ops:
        ops += round_inputs(w, seed, k)
        k += 1
    ops = ops[:w.trace_ops]
    warm_up()
    tracer = Tracer()
    with tracer, tracer.operation("setup.warm_up"):
        warm_up()
    # each operation runs untraced, then traced, so a slow spell of the
    # machine weighs on both sides of the overhead alike
    samples, untraced, traced = [], 0.0, 0.0
    for op in ops:
        untraced += run_op(w, op)[2]
        with tracer, tracer.operation(f"bench.{w.name}"):
            samples.append(run_op(w, op))
        traced += samples[-1][2]
    tracer.save(HERE / "out" / f"spans-{w.name}-seed{seed}.npz")
    checker = Checker(w.check, w.needs_oracle)
    for op, result, _ in samples:
        checker.add(op, result)
    tally = checker.finish()

    c = tracer.counts
    st = tracer.self_times()
    searches = c["search.search.calls"]
    batch_err, dense_err, search_err = _accuracy(tracer, ops, seed)
    errors = sum(v for k, v in c.items()
                 if k.startswith("quadrature.integrate_adaptive.errors."))

    def share(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in ("averages.batch_objective", "geometry.cap_area", "search.search",
                 "quadrature.integrate_adaptive", "averages.ball_average",
                 "averages.sphere_average", "averages.gradient_axial_component",
                 "averages.gradient_radial_moment"):
        metrics[f"{name}.calls"] = (c[f"{name}.calls"], "count")
    for name in ("averages.batch_objective.balls", "geometry.cap_area.nodes",
                 "geometry.cap_first_moment.nodes", "core.RadialProfile.value.nodes",
                 "quadrature.integrate_adaptive.integrand_nodes",
                 "search.search.objective_evals"):
        metrics[name] = (c[name], "count")
    metrics["search.search.accurate_evals"] = (c["via.search.ball_average"], "count")
    metrics["search.search.converged_share"] = (share(c["search.search.converged"], searches), "ratio")
    metrics["search.search.tie_candidates_mean"] = (
        share(c["search.search.tie_candidates"], searches), "count")
    metrics["quadrature.integrate_adaptive.errors"] = (errors, "count")
    metrics["variation.repeat_search_share"] = (share(c["search.search.repeats"], searches), "ratio")
    for name in tracer.names:
        if not name.startswith(("setup.", "bench.")):
            metrics[f"{name}.self_s"] = (st[name], "s")
    metrics["identities.rel_residual_max"] = (max(tracer.rel_residuals, default=0.0), "ratio")
    metrics["averages.batch_objective.rel_err_max"] = (batch_err, "ratio")
    metrics["averages.ball_average.rel_err_max"] = (dense_err, "ratio")
    metrics["search.value_rel_err_max"] = (search_err, "ratio")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    notes = [(k, v, u, "") for k, (v, u) in metrics.items()]
    notes.append(("spans", len(tracer.span_start), "count",
                  f"{len(ops)} operations plus the warm-up"))
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if _load_library() is None:
        print(f"perfbench: no maxvar package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_inputs, warm_up
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    if args.setup_only:
        run_inputs(w, args.seed)
        warm_up()
        return 0

    if args.trace:
        tally, metrics, notes = per_layer(w, args.seed)
    else:
        tally, metrics, notes = end_to_end(w, args.seed, args.seconds)
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    for name, value, unit, note in notes:
        print(f"  {name:<46} {value:>14.6g} {unit:<16} {note}")
    for reason, count in tally.reasons.most_common():
        print(f"  failed: {count} x {reason}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
