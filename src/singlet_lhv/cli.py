"""Command-line front end; every command emits reproducible CSV or JSON.

Angles are radians unless --degrees is given; outputs are always
radians.  Each run prints an effective-config header with every default
resolved, and re-running with the same flags reproduces byte-identical
output.  Exit codes: 0 success, 1 usage error, 2 numerical-contract
failure, 3 I/O error.  The only environment variable honored is
SINGLET_LHV_OUTDIR, prepended to relative --out paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .analytic import (
    ChshSetting,
    bell_inequality_sides,
    bell_violation_map,
    chsh_value,
    correlation,
    transform_curve,
)
from .harness import (
    RunConfig,
    estimate_chsh,
    run_weihs_zeilinger,
    scan_correlation,
)
from .hidden_values import verify_weak_value_match
from .model import MeasurementSetting, wrap_angle
from .quantum import bell_state, load_operator, path_ensemble

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

OUTDIR_ENV = "SINGLET_LHV_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-1e-05", "-2.5,1" and "-3:3:25" as values, like "-0.5"; argparse knows only the last
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}([,:]-?{number})*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_from(low, below=None):
    """argparse type: an int in [low, below), so that argparse names the option of a bad one."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # a malformed value reads "invalid int value: 'x'", as for int
    return parse


def _angle(value, degrees):
    x = float(value)
    return math.radians(x) if degrees else x


def _number_list(option, text, degrees=False):
    """Comma-separated numbers of `option` (angles if `degrees`); a bad or empty list names it."""
    try:
        values = [_angle(tok, degrees) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None
    if not values:
        raise ValueError(f"{option} {text!r} has no values")
    return values


def _delta_grid(spec, degrees):
    """Grid spec 'start:stop:count' (inclusive) or comma-separated list."""
    if ":" not in spec:
        return _number_list("--delta-grid", spec, degrees)
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = _angle(lo, degrees), _angle(hi, degrees), int(count)
    except ValueError:
        raise ValueError(f"--delta-grid {spec!r} is not 'start:stop:count' (integer count)") from None
    if not math.isfinite(hi - lo):
        raise ValueError(f"--delta-grid {spec!r} spans no finite interval")
    if count <= 0:
        raise ValueError(f"--delta-grid {spec!r} has no points")
    return np.linspace(lo, hi, count).tolist()


def _emit(args, columns, rows, payload=None):
    """Write the table as CSV, or the payload (the table without one) as JSON.

    Either form carries the effective-config header: every parsed option
    but the destination path, so re-runs to new files compare equal.
    """
    config = {k: v for k, v in vars(args).items() if k != "out"}
    config["version"] = __version__
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(f"# effective-config: {json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        if payload is None:
            payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        text = json.dumps({"effective_config": config, **payload}, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        # join keeps an absolute --out, and a relative one when the variable is unset
        with open(os.path.join(os.environ.get(OUTDIR_ENV, ""), args.out), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(text)


# name: (help, parent, own options); the parent is "output", or a run's trials default
_COMMANDS = {
    "transform-curve": ("frame-transform curve data", "output", [
        ("--delta", {"type": float, "required": True}),
        ("--n", {"type": _int_from(1), "default": 1}),
        ("--grid-points", {"type": _int_from(2), "default": 2001})]),
    "correlate": ("Monte Carlo correlation scan", 1_000_000, [
        ("--delta-grid", {"required": True, "help": "effective parameters, 'start:stop:count' or 'a,b,c'"})]),
    "chsh": ("CHSH estimate at three relative angles", 10_000_000, [
        ("--d-omega", {"type": float, "required": True}),
        ("--d-omega-p", {"type": float, "required": True}),
        ("--d-omega-pp", {"type": float, "required": True}),
        ("--independent", {"action": "store_true", "help": "orthodox estimator"}),
        ("--per-trial-distribution", {"action": "store_true"}),
        ("--phi", {"type": float, "default": 0.0, "help": "state phase"})]),
    "bell-check": ("two-angle inequality verdict", "output", [
        ("--d1", {"type": float}),
        ("--d2", {"type": float}),
        ("--grid", {"type": _int_from(0), "default": 0, "help": "emit full violation map"})]),
    "weak-values": ("subset averages vs oracle weak values", "output", [
        ("--phi", {"type": float, "required": True}),
        ("--delta-omega", {"type": float, "required": True})]),
    "paths": ("post-selection branch probabilities and values", "output", [
        ("--phi", {"type": float, "default": 0.0}),
        ("--omega-a", {"type": float, "default": 0.0}),
        ("--omega-b", {"type": float, "required": True}),
        ("--hamiltonian", {"required": True, "help": "operator JSON file"}),
        ("--operators", {"required": True, "help": "JSON file of named operators"}),
        ("--times", {"required": True, "help": "comma-separated times"})]),
    "wz": ("random-modulator experiment", 1_000_000, [
        ("--d-omega", {"type": float, "default": 0.0}),
        ("--alpha-set", {"required": True, "help": "comma-separated angles"}),
        ("--beta-set", {"required": True, "help": "comma-separated angles"}),
        ("--dump-records", {"type": _int_from(0), "default": 0,
                            "help": "first K trial records of the run"}),
        ("--phi", {"type": float, "default": 0.0, "help": "state phase"})]),
}


def build_parser(command=None):
    """The full parser, or for a known `command` one where only that subcommand has options.

    Every name stays registered, so an argv starting with `command` parses, or
    fails, as on the full parser, at a fraction of its build cost."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, help="output path (default stdout)")
    output.add_argument("--degrees", action="store_true", help="angle inputs are degrees")

    def run(trials):
        # one parent per default: the parsers built from a parent share its
        # option objects, so set_defaults on one would reach all of them
        p = argparse.ArgumentParser(add_help=False, parents=[output])
        p.add_argument("--trials", type=_int_from(1), default=trials)
        p.add_argument("--seed", type=_int_from(0, 2**64), default=0)
        p.add_argument("--streams", type=_int_from(1), default=4, help="worker threads only")
        p.add_argument("--n", type=_int_from(1), default=1, help="density index")
        return p

    parser = _Parser(prog="singlet-lhv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {"output": output}
    for name, (text, parent, options) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            sub.add_parser(name, help=text, add_help=False)
            continue
        if parent not in parents:
            parents[parent] = run(parent)
        p = sub.add_parser(name, parents=[parents[parent]], help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _cmd_transform_curve(args):
    omega, transformed, linear = transform_curve(
        _angle(args.delta, args.degrees), args.grid_points, args.n
    )
    rows = zip(omega.tolist(), transformed.tolist(), linear.tolist())
    return ("omega", "transformed", "linear_ref"), rows


def _cmd_correlate(args):
    grid = _delta_grid(args.delta_grid, args.degrees)
    setting = MeasurementSetting(delta_omega=0.0, phi=0.0, n=args.n)
    config = RunConfig(trials=args.trials, seed=args.seed, streams=args.streams, setting=setting)
    rows = [
        (row.delta, row.estimate, row.std_error, row.analytic, row.n)
        for row in scan_correlation(grid, config)
    ]
    return ("delta_rad", "estimate", "std_error", "analytic", "n"), rows


def _cmd_chsh(args):
    setting = ChshSetting(
        d_omega=_angle(args.d_omega, args.degrees),
        d_omega_p=_angle(args.d_omega_p, args.degrees),
        d_omega_pp=_angle(args.d_omega_pp, args.degrees),
    )
    ms = MeasurementSetting(delta_omega=0.0, phi=_angle(args.phi, args.degrees), n=args.n)
    config = RunConfig(
        trials=args.trials,
        seed=args.seed,
        streams=args.streams,
        setting=ms,
        gauge_fixed=not args.independent,
    )
    result = estimate_chsh(setting, config)
    payload = {
        "estimate": result.estimate.value,
        "abs_estimate": abs(result.estimate.value),
        "std_error": result.estimate.std_error,
        "n": result.estimate.n,
        "analytic": result.analytic,
        "analytic_abs": chsh_value(setting, ms.phi, ms.n),
        "out_of_range_fraction": result.out_of_range_fraction,
    }
    if args.per_trial_distribution and result.per_trial_counts is not None:
        payload["per_trial_counts"] = {str(k): v for k, v in result.per_trial_counts.items()}
    rows = [(k, json.dumps(v) if isinstance(v, dict) else v) for k, v in payload.items()]
    return ("quantity", "value"), rows, payload


def _cmd_bell_check(args):
    if args.grid:
        rows = [
            (d1, d2, lhs, rhs, int(v))
            for d1, d2, lhs, rhs, v in bell_violation_map(args.grid)
        ]
        return ("d1", "d2", "lhs", "rhs", "violated"), rows
    if args.d1 is None or args.d2 is None:
        raise ValueError("bell-check needs both --d1 and --d2, or --grid")
    chk = bell_inequality_sides(_angle(args.d1, args.degrees), _angle(args.d2, args.degrees))
    payload = {"lhs": chk.lhs, "rhs": chk.rhs, "violated": chk.violated}
    return ("lhs", "rhs", "violated"), [(chk.lhs, chk.rhs, int(chk.violated))], payload


def _cmd_weak_values(args):
    report = verify_weak_value_match(
        _angle(args.phi, args.degrees), _angle(args.delta_omega, args.degrees)
    )
    rows = [
        (r.s_a, r.s_b, r.operator, r.subsystem,
         r.model_average.real, r.model_average.imag,
         r.oracle_weak_value.real, r.oracle_weak_value.imag, r.abs_diff)
        for r in (*report.comparisons, *report.b_side_comparisons)
    ]
    columns = ("s_a", "s_b", "operator", "subsystem",
               "model_re", "model_im", "oracle_re", "oracle_im", "abs_diff")
    return columns, rows, report.as_dict()


def _cmd_paths(args):
    with open(args.operators, "r", encoding="utf-8") as fh:
        named = json.load(fh)
    if not isinstance(named, dict) or not all(isinstance(v, dict) for v in named.values()):
        raise ValueError("--operators must be a JSON object of named operators {dim, re, im}")
    ops = {name: load_operator(spec) for name, spec in named.items()}
    hamiltonian = load_operator(args.hamiltonian)
    times = _number_list("--times", args.times)
    state = bell_state(_angle(args.phi, args.degrees))
    ensembles = path_ensemble(
        state,
        _angle(args.omega_a, args.degrees),
        _angle(args.omega_b, args.degrees),
        ops,
        hamiltonian,
        times,
    )
    rows = []
    for ens in ensembles:
        for br in ens.branches:
            for name in ops:
                wv = br.weak_values.get(name) if br.weak_values else None
                rows.append(
                    (ens.time, br.s_a, br.s_b, br.probability, name,
                     "" if wv is None else wv.real, "" if wv is None else wv.imag)
                )
    return ("time", "s_a", "s_b", "probability", "operator", "wv_re", "wv_im"), rows


def _cmd_wz(args):
    setting = MeasurementSetting(
        delta_omega=_angle(args.d_omega, args.degrees),
        phi=_angle(args.phi, args.degrees),
        n=args.n,
    )
    config = RunConfig(trials=args.trials, seed=args.seed, streams=args.streams, setting=setting)
    result = run_weihs_zeilinger(
        setting.phi,
        _number_list("--alpha-set", args.alpha_set, args.degrees),
        _number_list("--beta-set", args.beta_set, args.degrees),
        config,
        keep_records=args.dump_records,
    )
    correlations = {
        f"{a:.12g},{b:.12g}": {
            "estimate": est.value,
            "std_error": est.std_error,
            "n": est.n,
            "analytic": float(
                correlation(wrap_angle(setting.delta_omega - setting.phi + a + b), setting.n)
            ),
        }
        for (a, b), est in sorted(result.pair_correlations().items())
    }
    payload = {
        "pair_correlations": correlations,
        "chsh_pairs": [list(p) for p in result.chsh_pairs],
        "chsh": {
            "estimate": result.chsh.value,
            "abs_estimate": abs(result.chsh.value),
            "std_error": result.chsh.std_error,
        },
        "records": [
            {"alpha": r.alpha, "beta": r.beta, "s_a": r.s_a, "s_b": r.s_b}
            for r in result.records
        ],
    }
    if args.dump_records:
        rows = [(r.alpha, r.beta, r.s_a, r.s_b) for r in result.records]
        return ("alpha_rad", "beta_rad", "s_a", "s_b"), rows, payload
    rows = [
        (pair, c["estimate"], c["std_error"], c["analytic"], c["n"])
        for pair, c in correlations.items()
    ]
    rows.append(("chsh", result.chsh.value, result.chsh.std_error, "", ""))
    return ("setting", "estimate", "std_error", "analytic", "n"), rows, payload


_DISPATCH = {
    "transform-curve": _cmd_transform_curve,
    "correlate": _cmd_correlate,
    "chsh": _cmd_chsh,
    "bell-check": _cmd_bell_check,
    "weak-values": _cmd_weak_values,
    "paths": _cmd_paths,
    "wz": _cmd_wz,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        _emit(args, *_DISPATCH[args.command](args))
    except SystemExit as exc:  # from parsing: --help, or a usage line already printed
        return int(exc.code or 0)
    except ArithmeticError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
