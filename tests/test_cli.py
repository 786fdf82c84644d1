"""Command-line interface: subcommands, exit codes, byte-level determinism."""

import json
import warnings

import pytest

from maxvar.cli import build_parser, main
from maxvar.identities import SUITES


@pytest.fixture()
def tent_json(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps({"knots": [[0, 1], [1, 0]]}))
    return str(path)


@pytest.fixture()
def tent_csv(tmp_path):
    path = tmp_path / "tent.csv"
    path.write_text("t,F\n0,1\n1,0\n")
    return str(path)


class TestEval:
    def test_basic_line(self, tent_json, capsys):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        line = [l for l in out.splitlines() if l.startswith("0.5,")][0]
        fields = line.split(",")
        assert fields[4] in ("interior", "boundary_inner", "boundary_outer")

    def test_multiple_points(self, tent_json, capsys):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", "0.3,0.9,1.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 4

    def test_invalid_beta_usage_error(self, tent_json, capsys):
        rc = main(["eval", "--n", "2", "--beta", "2.5", "--profile", tent_json,
                   "--s", "0.5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_profile(self, tmp_path, capsys):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile",
                   str(tmp_path / "nope.json"), "--s", "0.5"])
        assert rc == 2

    @pytest.mark.parametrize("data", [[[0, 1], [1, 0]], {"knot": [[0, 1], [1, 0]]}])
    def test_json_profile_without_a_knots_field(self, tmp_path, capsys, data):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", str(path), "--s", "0.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("maxvar: error:") and '"knots" list' in captured.err

    @pytest.mark.parametrize("s", ["inf", "nan", "-1"])
    def test_bad_radius_rejected_before_output(self, tent_json, capsys, s):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", f"0.5,{s}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"got {float(s)}" in captured.err

    def test_non_finite_grid_rejected(self, tent_json, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                       "--grid", "0.01:inf:5:log"])
        assert rc == 2
        assert "0.01:inf:5:log" in capsys.readouterr().err

    def test_malformed_profile(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"knots": [[0, 0], [1, 0]]}))
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", str(bad),
                   "--s", "0.5"])
        assert rc == 2


class TestSweepDeterminism:
    def test_csv_byte_identical(self, tent_json, tmp_path):
        # a sweep row depends only on its radius, so a rerun repeats the
        # file byte for byte
        for grid in ("0.1:2:12:log", "standard"):
            args = ["sweep", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                    "--grid", grid, "--seed", "9"]
            out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tent_json, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--grid", "0.1:2:8:log", "--format", "json", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 8
        assert set(data["rows"][0]) >= {"s", "value", "d", "r", "contact", "c",
                                        "region", "dmdr_fd", "dmdr_formula",
                                        "corner_flag"}

    def test_csv_column_order(self, tent_json, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--n", "2", "--beta", "0.5", "--profile", tent_json,
              "--grid", "0.1:2:8:log", "--out", str(out)])
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "s,value,d,r,contact,c,region,dmdr_fd,dmdr_formula,corner_flag"

    def test_csv_accepted(self, tent_csv, capsys):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_csv,
                   "--s", "0.5"])
        assert rc == 0

    def test_csv_bad_row_is_an_error(self, tmp_path, capsys):
        # only the first row may be a header; a later bad row once loaded as the bare tent
        path = tmp_path / "bad.csv"
        path.write_text("# tent with a typo\nt,F\n0,1\n0.5,0.8x\n1,0\n")
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", str(path),
                   "--s", "0.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert ":4:" in captured.err and "0.5,0.8x" in captured.err


class TestVerify:
    def test_divergence_all_pass(self, tent_json, capsys):
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "divergence", "--seed", "7", "--count", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert '"ok": true' in out

    def test_verify_deterministic(self, tent_json, tmp_path):
        args = ["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                "--suite", "divergence", "--seed", "3", "--count", "10",
                "--format", "json"]
        a, b = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_annulus_skips_balls_missing_the_support(self, tent_json, capsys):
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "annulus", "--seed", "7", "--count", "20",
                   "--format", "json"])
        reports = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert reports and all(rep["rhs"] != 0.0 for rep in reports)

    def test_stationarity_suite(self, tent_json, capsys):
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "stationarity", "--grid", "0.3:2:8:log"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stationarity" in out and "ctrl-ok" in out

    def test_suite_choices_are_the_runner_names(self):
        command = next(a for a in build_parser()._actions if a.dest == "command")
        suite = next(a for a in command.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == SUITES

    def test_affine_suite(self, tent_json, capsys):
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "affine", "--grid", "0.3:2:8:log"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "affine_family" in out and '"ok": true' in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_a_usage_error(self, tent_json, capsys, count):
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "divergence", "--count", count])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "count" in captured.err

    def test_suite_that_checks_nothing_fails(self, tent_json, capsys):
        # no best ball on this grid touches its evaluation point
        rc = main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--suite", "stationarity", "--grid", "0.001:0.002:3:log"])
        out = capsys.readouterr().out
        assert rc == 1
        assert '"ok": false' in out and '"passed": 0' in out


class TestRatio:
    def test_report_emitted(self, tent_json, tmp_path):
        out = tmp_path / "ratio.json"
        rc = main(["ratio", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--grid", "0.1:2:10:log", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ratio"] > 0
        assert data["refinement_deviation"] is None

    def test_dilate_flag(self, tent_json, tmp_path):
        out = tmp_path / "ratio.json"
        rc = main(["ratio", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--grid", "0.1:2:10:log", "--dilate", "2", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["dilation_deviation"] <= 1e-6

    @pytest.mark.parametrize("lam", ["0", "nan", "inf", "-1"])
    def test_dilate_factor_not_positive_and_finite_is_a_usage_error(self, tent_json, lam,
                                                                    capsys):
        # --dilate 0 once ran the study at 2; nan and inf failed on the knots
        rc = main(["ratio", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--grid", "0.1:2:10:log", "--dilate", lam])
        assert rc == 2
        assert "dilation factor must be positive and finite" in capsys.readouterr().err


class TestOracleCommand:
    def test_1d(self, tent_json, capsys):
        rc = main(["oracle", "--n", "1", "--beta", "0.5", "--profile", tent_json,
                   "--mode", "1d", "--x", "0.6", "--resolution", "500"])
        assert rc == 0
        assert "rel_diff" in capsys.readouterr().out

    def test_1d_requires_n1(self, tent_json, capsys):
        rc = main(["oracle", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--mode", "1d"])
        assert rc == 2

    def test_mc(self, tent_json, capsys):
        rc = main(["oracle", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--mode", "mc", "--d", "0.3", "--r", "0.5", "--samples",
                   "200000", "--seed", "5"])
        assert rc == 0

    def test_dense2d(self, tent_json, capsys):
        rc = main(["oracle", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--mode", "dense2d", "--d", "0.3", "--r", "0.5",
                   "--resolution", "800"])
        assert rc == 0

    @pytest.mark.parametrize("mode, n, resolution", [("1d", 1, 1), ("1d", 1, 0),
                                                     ("dense2d", 2, 0)])
    def test_degenerate_resolution_is_a_usage_error(self, tent_json, capsys,
                                                    mode, n, resolution):
        rc = main(["oracle", "--n", str(n), "--beta", "0.5", "--profile", tent_json,
                   "--mode", mode, "--resolution", str(resolution)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("maxvar: error:") and f"got {resolution}" in err

    @pytest.mark.parametrize("flags", [
        ["--mode", "1d", "--n", "2"],
        ["--mode", "dense2d", "--n", "3"],
        ["--mode", "mc", "--n", "2", "--samples", "0"],
        ["--mode", "mc", "--n", "1"],
        ["--mode", "1d", "--n", "1", "--resolution", "1"],
        ["--mode", "1d", "--n", "1", "--x", "inf"],
    ], ids=["1d_n2", "dense2d_n3", "mc_no_samples", "mc_n1", "1d_resolution1", "1d_x_inf"])
    def test_usage_error_prints_nothing_to_stdout(self, tent_json, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["oracle", "--beta", "0.5", "--profile", tent_json] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("maxvar: error:") and captured.err.count("\n") == 1


class TestFamily:
    def test_family_deterministic(self, tmp_path):
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps({
            "profiles": {"tent": [[0, 1], [1, 0]]},
            "random": {"count": 2, "knots": 5},
            "n": 2, "betas": [0.5], "grid_count": 10,
        }))
        args = ["family", "--spec", str(spec), "--seed", "11"]
        a, b = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "max_ratio" in a.read_text()

    def test_missing_spec_file_is_an_input_error(self, tmp_path, capsys):
        rc = main(["family", "--spec", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("maxvar: error:") and "nope.json" in captured.err

    @pytest.mark.parametrize("spec, field", [
        ([1, 2], "family spec"),
        ({"betas": 0.5}, "betas"),
        ({"betas": [0.5, True]}, "betas[1]"),
        ({"profiles": {"tent": 5}}, "profiles.tent"),
        ({"profiles": [[0, 1], [1, 0]]}, "profiles"),
        ({"n": "2"}, "n"),
        ({"grid_count": 8.5}, "grid_count"),
        ({"random": {"count": 2, "knots": "6"}}, "random.knots"),
        ({"refine": 1}, "refine"),
    ])
    def test_malformed_spec_is_an_input_error(self, tmp_path, capsys, spec, field):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        rc = main(["family", "--spec", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"maxvar: error: {field} must be")

    @pytest.mark.parametrize("spec, message", [
        ({"profiles": {}}, "selects no profile"),
        ({}, "selects no profile"),
        ({"random": {"count": 0, "knots": 5}}, "selects no profile"),
        ({"random": {"count": -2}}, "random.count must be 0 or more, got -2"),
        ({"profiles": {"tent": [[0, 1], [1, 0]]}, "betas": []}, "selects no beta"),
    ], ids=["empty_profiles", "empty_spec", "no_random_count", "negative_random_count",
            "empty_betas"])
    def test_spec_that_selects_nothing_is_an_input_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        rc = main(["family", "--spec", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("maxvar: error:") and message in captured.err


class TestConfigFile:
    def test_missing_config_file(self, tent_json, tmp_path, capsys):
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", "0.5", "--config", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("maxvar: error: config file not found")

    def test_explicit_flags_win(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": "0.5", "beta": 0.25}))
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", "0.9", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#") and not l.startswith("s,")]
        assert [float(r[0]) for r in rows] == [0.9]

    def test_config_replaces_missing_flags(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": "0.5", "beta": 0.5, "n": 2,
                                   "profile": tent_json}))
        rc = main(["eval", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#") and not l.startswith("s,")]
        assert [float(r[0]) for r in rows] == [0.5]

    # config values pass the flags' own type and choices checks
    def test_config_suite_outside_the_choices(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "bogus"}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                  "--config", str(cfg)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "invalid choice: 'bogus'" in captured.err

    def test_config_number_written_as_a_string(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "2"}))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--beta", "0.5", "--profile", tent_json, "--s", "0.5",
                  "--config", str(cfg)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--n" in captured.err and "wrong type" in captured.err

    def test_config_format_outside_the_choices(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        out = tmp_path / "sweep.out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                  "--grid", "0.1:2:8:log", "--out", str(out), "--config", str(cfg)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tent_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[2, 0.5]")
        rc = main(["eval", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--s", "0.5", "--config", str(cfg)])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_switch(self, tent_json, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refine": True}))
        out = tmp_path / "ratio.json"
        rc = main(["ratio", "--n", "2", "--beta", "0.5", "--profile", tent_json,
                   "--grid", "0.1:2:6:log", "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        assert json.loads(out.read_text())["refinement_deviation"] is not None

    def test_missing_flags_usage_error(self, capsys):
        rc = main(["eval", "--n", "2"])
        assert rc == 2
        assert "missing required" in capsys.readouterr().err
