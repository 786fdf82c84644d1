"""Negative controls for the benchmark's checks, and the tracer's reach.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib
from dataclasses import replace

import maxvar
from maxvar import AmbientParams, AxisBall, GridSpec, IDENTITY_QUADRATURE, objective
from maxvar.families import tent
from maxvar.identities import perturbed_ball

import calibration
from checks import Tally, check_query, check_query_oracle
from tracing import Tracer
from workloads import Query


def _query():
    return Query(tent(), AmbientParams(1, 0.5), 0.6)


def test_grown_ball_and_grown_value_count_in_fail_share():
    query = _query()
    good = maxvar.search(query.profile, query.s, query.params)
    # a consistent but suboptimal answer: only the 1D oracle can catch it
    cover = AxisBall(0.0, query.s + query.profile.support_radius)
    cover_value = objective(query.profile, query.s, cover, query.params, IDENTITY_QUADRATURE)
    tally = Tally()
    for result in (good, perturbed_ball(good), replace(good, value=1.05 * good.value),
                   replace(good, ball=cover, value=cover_value)):
        tally.record(check_query(query, result) or check_query_oracle(query, result.value))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_share == 3 / 4
    assert tally.reasons["value is not the objective of its ball"] == 2
    assert tally.reasons["disagrees with the 1D oracle"] == 1


def test_tracer_intercepts_imported_bindings_and_restores_them():
    search_mod = importlib.import_module("maxvar.search")
    averages = importlib.import_module("maxvar.averages")
    originals = (search_mod.ball_average, averages.ball_average, maxvar.search)
    query = _query()
    tracer = Tracer()
    with tracer:
        with tracer.operation("bench.test"):
            maxvar.search(query.profile, query.s, query.params)
    assert (search_mod.ball_average, averages.ball_average, maxvar.search) == originals
    assert tracer.counts["search.search.calls"] == 1
    assert tracer.counts["via.search.ball_average"] > 0
    assert tracer.counts["via.search.ball_average"] == tracer.counts["averages.ball_average.calls"]
    self_times = tracer.self_times()
    total = tracer.span_end[0] - tracer.span_start[0]
    assert 0.0 < self_times["search.search"] < total
    assert abs(sum(self_times.values()) - total) <= 1e-9 * max(total, 1.0)


def test_meter_gauges_at_each_sweep_search_and_restores_the_binding(monkeypatch):
    search_mod = importlib.import_module("maxvar.search")
    original = search_mod.search
    monkeypatch.setattr(calibration, "CHUNK_S", 0.0)   # a gauge at every checkpoint
    profile = tent()
    grid = GridSpec.standard(profile, 3)
    meter = calibration.Meter()
    with meter.checkpoints_in("maxvar.search", "search"):
        mp, pieces = meter.time(
            lambda g: maxvar.maximal_profile(profile, g, AmbientParams(1, 0.5)), grid)
    meter.finish()
    assert search_mod.search is original
    assert len(mp.results) == grid.count
    # one piece before each search, one after the last; a gauge after each
    assert len(pieces) == grid.count + 1
    assert len(meter.gauges) == grid.count + 2
    assert meter.scaled(pieces) > 0.0
