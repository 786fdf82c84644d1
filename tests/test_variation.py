"""Lq norm assembly, scalar and dilation invariance, family sweeps."""

import importlib
import pickle

import numpy as np
import pytest

from maxvar.core import AmbientParams, gradient_l1_norm
from maxvar.families import (annular_bump, dilate_profile, random_profile, scale_profile,
                             standard_family, tent, two_bump)
from maxvar.geometry import AxisBall
from maxvar.search import GridSpec, MaximalProfile, maximal_profile
from maxvar.variation import (UnconvergedSweepError, VariationReport,
                              combined_derivative, family_sweep,
                              lq_norm_derivative, region_histogram, variation_report)

search_module = importlib.import_module("maxvar.search")

from conftest import rel_err


class _StubResult:
    def __init__(self, kind="boundary_inner", converged=True):
        self.ball = AxisBall(1.0, 1.0)
        self.contact = type("C", (), {"kind": kind})()
        self.converged = converged
        self.region = "E2"
        self.tie_candidates = 1


def stub_profile(grid, values, deriv, corners=None, formula=None):
    return MaximalProfile(grid=np.asarray(grid, dtype=float),
                          values=np.asarray(values, dtype=float),
                          results=[_StubResult() for _ in grid],
                          deriv_fd=np.asarray(deriv, dtype=float),
                          deriv_formula=np.asarray(deriv if formula is None else formula,
                                                   dtype=float),
                          corner_flags=np.zeros(len(grid), dtype=bool) if corners is None
                          else np.asarray(corners, dtype=bool))


class TestLqNorm:
    def test_constant_m_is_zero(self):
        mp = stub_profile([1, 2, 3], [5, 5, 5], [0, 0, 0])
        assert lq_norm_derivative(mp, AmbientParams(2, 0.5)) == 0.0

    def test_closed_form_linear_decay(self):
        # m(s) = max(0, 1-s) on [0, 1], n = 1, beta = 1/2 gives q = 2 and
        # norm (2 * integral of 1 ds)^(1/2) = sqrt(2)
        grid = np.linspace(1e-9, 1.0, 300)
        mp = stub_profile(grid, 1.0 - grid, -np.ones_like(grid))
        val = lq_norm_derivative(mp, AmbientParams(1, 0.5))
        assert val == pytest.approx(np.sqrt(2.0), rel=1e-8)

    def test_corner_substitution_takes_larger_magnitude(self):
        mp = stub_profile([1, 2, 3], [1, 2, 3], [1.0, 1.0, 1.0],
                          corners=[False, True, False], formula=[0.5, 2.0, 0.5])
        combined = combined_derivative(mp)
        assert combined[1] == 2.0 and combined[0] == 1.0

    def test_unconverged_points_listed(self):
        mp = stub_profile([1, 2, 3], [1, 1, 1], [0, 0, 0])
        mp.results[1].converged = False
        with pytest.raises(UnconvergedSweepError) as exc:
            lq_norm_derivative(mp, AmbientParams(2, 0.5))
        assert exc.value.radii == [2.0]

    def test_unconverged_error_survives_pickling(self):
        error = UnconvergedSweepError([0.5, 1.0])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is UnconvergedSweepError
        assert copy.radii == [0.5, 1.0]
        assert str(copy) == str(error) == "unconverged sweep points at s = [0.5, 1.0]"


@pytest.fixture(scope="module")
def small_report():
    prof = tent()
    return variation_report(prof, AmbientParams(2, 0.5),
                            GridSpec.standard(prof, 24),
                            include_refinement=False, include_dilation=True)


class TestVariationReport:
    def test_ratio_finite_and_consistent(self, small_report):
        rep = small_report
        assert np.isfinite(rep.ratio) and rep.ratio > 0
        assert rep.ratio == pytest.approx(rep.lq_norm_dm / rep.l1_norm_df)

    def test_dilation_invariance(self, small_report):
        assert small_report.dilation_deviation <= 1e-2

    def test_dilation_of_the_tent_at_n2_beta02_is_exact(self):
        # dilation by 2 dilates every search path, so the ratio repeats to rounding
        prof = tent()
        rep = variation_report(prof, AmbientParams(2, 0.2), GridSpec.standard(prof, 40),
                               include_refinement=False)
        assert rep.dilation_deviation <= 1e-12

    def test_dilation_of_the_trio_is_exact(self):
        for prof in (tent(), annular_bump(), two_bump()):
            grid = GridSpec.standard(prof, 16)
            for n in (1, 2, 3):
                for beta in (0.2, 0.5):
                    rep = variation_report(prof, AmbientParams(n, beta), grid,
                                           include_refinement=False)
                    assert rep.dilation_deviation <= 1e-12, (prof.knots_t, n, beta)

    def test_histogram_partitions_grid(self, small_report):
        assert sum(small_report.region_histogram.values()) == 24

    def test_scalar_invariance(self, small_report):
        prof = scale_profile(tent(), 7.0)
        rep = variation_report(prof, AmbientParams(2, 0.5),
                               GridSpec.standard(tent(), 24),
                               include_refinement=False, include_dilation=False)
        assert rel_err(rep.ratio, small_report.ratio) <= 1e-9

    def test_json_roundtrip(self, small_report):
        import json
        data = json.loads(small_report.to_json())
        assert data["n"] == 2 and data["ratio"] == small_report.ratio


def lone_report(profile, params, grid, refine, dilate, lam=2.0):
    """The fields of variation_report, recomputed from lone maximal_profile
    sweeps of the base, refined and dilated grids."""
    base = maximal_profile(profile, grid, params)
    l1 = gradient_l1_norm(profile, params)
    ratio = lq_norm_derivative(base, params) / l1
    fields = {"ratio": ratio, "refinement_deviation": None, "dilation_deviation": None,
              "region_histogram": region_histogram(base),
              "corner_count": int(np.count_nonzero(base.corner_flags)),
              "info": {"grid_points": len(base.grid),
                       "ties": max(r.tie_candidates for r in base.results)}}
    if refine:
        fine = maximal_profile(profile, grid.refined(), params)
        fields["refinement_deviation"] = abs(lq_norm_derivative(fine, params) / l1 - ratio) / ratio
    if dilate:
        dilated = dilate_profile(profile, lam)
        ratio_d = lq_norm_derivative(maximal_profile(dilated, grid.points() / lam, params),
                                     params) / gradient_l1_norm(dilated, params)
        fields["dilation_deviation"] = abs(ratio_d - ratio) / ratio
    return fields


class TestLockStepReport:
    """A report searches each profile in one lock-step call; its fields are
    those of lone sweeps, bit for bit."""

    STUDIES = [(False, False), (True, False), (False, True), (True, True)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["tent", "random12"])
    def test_equals_lone_sweeps(self, kind, n):
        prof = tent() if kind == "tent" else random_profile(np.random.default_rng(40 + n), 12)
        params = AmbientParams(n, 0.5)
        grid = GridSpec.standard(prof, 8)
        full = lone_report(prof, params, grid, True, True)
        for refine, dilate in self.STUDIES:
            rep = variation_report(prof, params, grid, refine, dilate)
            expected = dict(full,
                            refinement_deviation=full["refinement_deviation"] if refine else None,
                            dilation_deviation=full["dilation_deviation"] if dilate else None)
            assert {k: getattr(rep, k) for k in expected} == expected, (refine, dilate)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("dilate", [False, True])
    def test_one_search_call_per_profile(self, refine, dilate, monkeypatch):
        calls = []
        original = search_module._search_points

        def counting(profile, pts, params):
            calls.append(len(pts))
            return original(profile, pts, params)

        monkeypatch.setattr(search_module, "_search_points", counting)
        # on one CPU every point is searched in this process
        monkeypatch.setattr(search_module, "_cpus", lambda: 1)
        prof = tent()
        variation_report(prof, AmbientParams(2, 0.5), GridSpec.standard(prof, 5), refine, dilate)
        assert calls == [9 if refine else 5] + ([5] if dilate else [])

    def test_unconverged_report_lists_the_base_radii(self, monkeypatch):
        # the base norm is taken before the refined one
        monkeypatch.setattr(search_module, "REFINE_MAX_EVALS", 5)
        prof = tent()
        grid = GridSpec.standard(prof, 5)
        with pytest.raises(UnconvergedSweepError) as err:
            variation_report(prof, AmbientParams(2, 0.5), grid)
        assert err.value.radii == grid.points().tolist()


class TestFamilySweep:
    def test_singleton(self):
        rows, maxima = family_sweep({"tent": tent()}, [AmbientParams(2, 0.5)],
                                    grid_count=16, include_refinement=False,
                                    include_dilation=False)
        assert len(rows) == 1
        assert maxima[(2, 0.5)] == rows[0]["report"].ratio

    def test_deterministic_rerun(self):
        kwargs = dict(grid_count=12, include_refinement=False,
                      include_dilation=False)
        a = family_sweep(standard_family(), [AmbientParams(2, 0.5)], **kwargs)
        b = family_sweep(standard_family(), [AmbientParams(2, 0.5)], **kwargs)
        assert [r["report"].ratio for r in a[0]] == [r["report"].ratio for r in b[0]]
        assert a[1] == b[1]
