"""Batch command-line front end.

Subcommands: eval, sweep, verify, ratio, oracle, family.  All randomness
flows from --seed; identical invocations produce byte-identical output.
Exit codes: 0 success, 1 failed assertions, 2 usage or input errors,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .averages import ball_average
from .core import AmbientParams, ProfileError, RadialProfile, load_profile
from .families import random_profile
from .geometry import AxisBall
from .identities import (SUITES, format_reports, reports_to_json, suite_outcome,
                         verify_suite)
from .oracles import (oracle_1d_maximal, oracle_dense_average_2d,
                      oracle_mc_ball_average)
from .search import GridSpec, maximal_profile, search
from .variation import UnconvergedSweepError, family_sweep, variation_report

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _load_profile_file(path: str) -> RadialProfile:
    p = Path(path)
    if not p.exists():
        raise ProfileError(f"profile file not found: {path}")
    text = p.read_text()
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict) or "knots" not in data:
            raise ProfileError(f"{path}: a JSON profile is an object with a \"knots\" list")
        return load_profile(data["knots"])
    knots, rows = [], 0
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows += 1
        parts = line.replace(",", " ").split()
        try:
            knots.append((float(parts[0]), float(parts[1])))
        except (ValueError, IndexError):
            if rows > 1:  # only the first row may be a header
                raise ProfileError(f"{path}:{number}: not a knot row: {line!r}") from None
    return load_profile(knots)


def _parse_grid(spec: str, profile: RadialProfile) -> GridSpec:
    if spec == "standard":
        return GridSpec.standard(profile)
    parts = spec.split(":")
    if len(parts) != 4 or parts[3] not in ("log", "lin"):
        raise ValueError(f"grid must be lo:hi:count:log|lin, got {spec!r}")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]),
                    log=parts[3] == "log")


def _header_lines(cmd: str, args: argparse.Namespace, keys) -> list[str]:
    kv = " ".join(f"{k}={_fmt(getattr(args, k))}" for k in keys
                  if getattr(args, k, None) is not None)
    return [f"# maxvar {cmd}", f"# {kv}"]


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _sweep_rows(mp) -> list[dict]:
    rows = []
    for i, (s, res) in enumerate(zip(mp.grid, mp.results)):
        rows.append({
            "s": float(s), "value": res.value, "d": res.ball.d, "r": res.ball.r,
            "contact": res.contact.kind, "c": res.contact.c, "region": res.region,
            "dmdr_fd": float(mp.deriv_fd[i]), "dmdr_formula": float(mp.deriv_formula[i]),
            "corner_flag": bool(mp.corner_flags[i]), "converged": res.converged,
        })
    return rows


SWEEP_COLUMNS = ("s", "value", "d", "r", "contact", "c", "region",
                 "dmdr_fd", "dmdr_formula", "corner_flag")


def _rows_to_csv(rows, header) -> str:
    lines = list(header)
    lines.append(",".join(SWEEP_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _add_common(p: argparse.ArgumentParser):
    # required-ness is validated after the config merge so a config file
    # can stand in for any flag
    p.add_argument("--n", type=int, default=None, help="space dimension")
    p.add_argument("--beta", type=float, default=None, help="fractional order in (0, n)")
    p.add_argument("--profile", default=None, help="knot file (JSON or CSV)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file with default flag values")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maxvar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="best ball and maximal value at given radii")
    _add_common(p)
    p.add_argument("--s", default=None, help="evaluation radius, comma separated list")

    p = sub.add_parser("sweep", help="maximal profile with derivatives and regions")
    _add_common(p)
    p.add_argument("--grid", default="standard", help="lo:hi:count:log|lin")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="identity and estimate verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--count", type=int, default=100, help="random configurations")
    p.add_argument("--grid", default="standard")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ratio", help="variation-ratio report")
    _add_common(p)
    p.add_argument("--grid", default="standard")
    p.add_argument("--refine", action="store_true", help="grid-doubling study")
    p.add_argument("--dilate", type=float, default=None, metavar="L",
                   help="dilation study factor")
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="independent reference cross-checks")
    _add_common(p)
    p.add_argument("--mode", choices=("1d", "mc", "dense2d"), default=None)
    p.add_argument("--x", type=float, default=0.5, help="evaluation point (1d mode)")
    p.add_argument("--d", type=float, default=0.5, help="ball center distance")
    p.add_argument("--r", type=float, default=0.5, help="ball radius")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--resolution", type=int, default=2000)

    p = sub.add_parser("family", help="variation reports across a profile family")
    p.add_argument("--spec", required=True, help="family spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list[str]) -> argparse.Namespace:
    """Fill the flags not given on the command line from the --config file.
    Each value, overridden or not, is parsed as its flag's text, type and
    choices included, and must read back as itself: {"n": "2"} is refused."""
    if not getattr(args, "config", None):
        return args
    if not Path(args.config).exists():
        raise ValueError(f"config file not found: {args.config}")
    data = json.loads(Path(args.config).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"config file {args.config} does not hold a JSON object")
    values = {k: v for k, v in data.items() if hasattr(args, k)}
    switches = {k for k in values if isinstance(getattr(args, k), bool)}  # true or false
    tokens = [f"--{k}" if k in switches else f"--{k}={v if isinstance(v, str) else json.dumps(v)}"
              for k, v in values.items() if v is not False]
    as_written = parser.parse_args(argv + tokens)
    for key, val in values.items():
        if not (isinstance(val, bool) if key in switches else getattr(as_written, key) == val):
            parser.error(f"argument --{key}: config value {json.dumps(val)} has the "
                         f"wrong type (the flag reads it as {getattr(as_written, key)!r})")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])  # the command line wins


def _cmd_eval(args) -> int:
    params = AmbientParams(args.n, args.beta)
    profile = _load_profile_file(args.profile)
    # every radius is searched, and so checked, before anything is printed
    results = [(s, search(profile, s, params)) for s in map(float, args.s.split(","))]
    print("\n".join(_header_lines("eval", args, ("n", "beta", "profile", "seed"))))
    print("s,value,d,r,contact,c,region,converged")
    status = EXIT_OK
    for s, res in results:
        if not res.converged:
            status = EXIT_NONCONVERGED
        print(",".join(_fmt(v) for v in (
            s, res.value, res.ball.d, res.ball.r, res.contact.kind,
            res.contact.c, res.region, res.converged)))
    return status


def _cmd_sweep(args) -> int:
    params = AmbientParams(args.n, args.beta)
    profile = _load_profile_file(args.profile)
    grid = _parse_grid(args.grid, profile)
    mp = maximal_profile(profile, grid, params)
    rows = _sweep_rows(mp)
    status = EXIT_OK if all(r["converged"] for r in rows) else EXIT_NONCONVERGED
    header = _header_lines("sweep", args, ("n", "beta", "profile", "grid", "seed"))
    if args.format == "csv":
        _emit(_rows_to_csv(rows, header), args.out)
    else:
        _emit(json.dumps({"meta": {"n": args.n, "beta": args.beta, "grid": grid.label(),
                                   "seed": args.seed}, "rows": rows},
                         sort_keys=True, indent=1) + "\n", args.out)
    return status


def _cmd_verify(args) -> int:
    params = AmbientParams(args.n, args.beta)
    profile = _load_profile_file(args.profile)
    reports = verify_suite(profile, params, args.suite, np.random.default_rng(args.seed),
                           args.count, _parse_grid(args.grid, profile))
    counts = suite_outcome(reports)
    header = _header_lines("verify", args, ("n", "beta", "profile", "suite", "seed"))
    if args.format == "json":
        _emit(reports_to_json(reports) + "\n", args.out)
    else:
        body = "\n".join(header) + "\n" + format_reports(reports) + "\n" + \
            f"# summary {json.dumps(counts, sort_keys=True)}\n"
        _emit(body, args.out)
    return EXIT_OK if counts["ok"] else EXIT_ASSERTION


def _cmd_ratio(args) -> int:
    params = AmbientParams(args.n, args.beta)
    profile = _load_profile_file(args.profile)
    grid = _parse_grid(args.grid, profile)
    rep = variation_report(profile, params, grid,
                           include_refinement=args.refine,
                           include_dilation=args.dilate is not None,
                           dilation_lambda=args.dilate)
    _emit(rep.to_json() + "\n", args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    params = AmbientParams(args.n, args.beta)
    profile = _load_profile_file(args.profile)
    # every check and computation runs before the header is printed
    need = {"1d": 1, "dense2d": 2}.get(args.mode)
    if need is not None and args.n != need:
        raise ValueError(f"oracle mode {args.mode} requires --n {need}")
    if args.mode == "1d":
        oracle = oracle_1d_maximal(profile, args.x, args.beta, args.resolution)
        fast = search(profile, abs(args.x), params).value
        rel = abs(oracle - fast) / max(oracle, 1e-300)
        line, ok = f"oracle={_fmt(oracle)} search={_fmt(fast)} rel_diff={_fmt(rel)}", rel <= 1e-3
    else:
        ball = AxisBall(args.d, args.r)
        det = ball_average(profile, ball, params)
    if args.mode == "mc":
        mean, stderr = oracle_mc_ball_average(profile, ball, params,
                                              args.samples, args.seed)
        z = abs(det - mean) / max(stderr, 1e-300)
        line, ok = (f"mc_mean={_fmt(mean)} stderr={_fmt(stderr)} "
                    f"ball_average={_fmt(det)} z={_fmt(z)}"), z <= 3.0
    elif args.mode == "dense2d":
        dense = oracle_dense_average_2d(profile, ball, args.resolution)
        rel = abs(dense - det) / max(abs(dense), abs(det), 1e-300)
        line, ok = f"dense={_fmt(dense)} ball_average={_fmt(det)} rel_diff={_fmt(rel)}", rel <= 1e-5
    print("\n".join(_header_lines("oracle", args, ("mode", "n", "beta", "seed")) + [line]))
    return EXIT_OK if ok else EXIT_ASSERTION


# a family spec's fields and their JSON types; every field may be left out
FAMILY_SPEC = {"profiles": dict, "random": dict, "n": int, "betas": list,
               "grid_count": int, "refine": bool, "dilate": bool}
_JSON_NAMES = {dict: "an object", list: "a list", int: "an integer", float: "a number",
               bool: "true or false"}


def _check_json(what: str, value, kind):
    """Raise ValueError unless value has the JSON type kind (float: any
    number; true and false are no numbers)."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_NAMES[kind]}, got {json.dumps(value)}")


def _load_family_spec(path: str) -> dict:
    """The family spec at path, each field of FAMILY_SPEC checked, with each
    profile a knot list, each beta a number and the random count and knots
    integers; it must select a profile and a beta."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"family spec file not found: {path}")
    spec = json.loads(p.read_text())
    _check_json("family spec", spec, dict)
    for key, kind in FAMILY_SPEC.items():
        if key in spec:
            _check_json(key, spec[key], kind)
    for name, knots in spec.get("profiles", {}).items():
        _check_json(f"profiles.{name}", knots, list)
    for i, beta in enumerate(spec.get("betas", [])):
        _check_json(f"betas[{i}]", beta, float)
    for key in ("count", "knots"):
        if key in spec.get("random", {}):
            _check_json(f"random.{key}", spec["random"][key], int)
    count = spec.get("random", {}).get("count", 0)
    if count < 0:
        raise ValueError(f"random.count must be 0 or more, got {count}")
    if not (spec.get("profiles") or count):
        raise ValueError("family spec selects no profile: give profiles or a positive random.count")
    if not spec.get("betas", [0.5]):
        raise ValueError("family spec selects no beta: betas is empty")
    return spec


def _cmd_family(args) -> int:
    spec = _load_family_spec(args.spec)
    members = {name: load_profile(knots)
               for name, knots in spec.get("profiles", {}).items()}
    rnd = spec.get("random", {})
    if rnd:
        rng = np.random.default_rng(args.seed)
        for i in range(int(rnd.get("count", 0))):
            members[f"random_{i:02d}"] = random_profile(rng, int(rnd.get("knots", 6)))
    params_list = [AmbientParams(int(spec.get("n", 2)), float(b))
                   for b in spec.get("betas", [0.5])]
    rows, maxima = family_sweep(members, params_list,
                                grid_count=int(spec.get("grid_count", 64)),
                                include_refinement=bool(spec.get("refine", False)),
                                include_dilation=bool(spec.get("dilate", False)))
    header = _header_lines("family", args, ("spec", "seed"))
    if args.format == "json":
        payload = {"rows": [{"name": r["name"], **r["report"].as_dict()} for r in rows],
                   "max_ratio": {f"{k[0]},{_fmt(k[1])}": v for k, v in maxima.items()}}
        _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    else:
        lines = list(header)
        lines.append("name,n,beta,q,ratio,lq_norm_dm,l1_norm_df,"
                     "refinement_deviation,dilation_deviation,corners")
        for r in rows:
            rep = r["report"]
            lines.append(",".join(_fmt(v) for v in (
                r["name"], rep.n, rep.beta, rep.q, rep.ratio, rep.lq_norm_dm,
                rep.l1_norm_df, rep.refinement_deviation, rep.dilation_deviation,
                rep.corner_count)))
        for key in sorted(maxima):
            lines.append(f"# max_ratio n={key[0]} beta={_fmt(key[1])}: "
                         f"{_fmt(maxima[key])}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


REQUIRED = {
    "eval": ("n", "beta", "profile", "s"),
    "sweep": ("n", "beta", "profile"),
    "verify": ("n", "beta", "profile"),
    "ratio": ("n", "beta", "profile"),
    "oracle": ("n", "beta", "profile", "mode"),
    "family": ("spec",),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        missing = [k for k in REQUIRED[args.command] if getattr(args, k, None) is None]
        if missing:
            raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
        handler = {
            "eval": _cmd_eval, "sweep": _cmd_sweep, "verify": _cmd_verify,
            "ratio": _cmd_ratio, "oracle": _cmd_oracle, "family": _cmd_family,
        }[args.command]
        return handler(args)
    except (ProfileError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"maxvar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnconvergedSweepError as exc:
        print(f"maxvar: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
