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
        raise SystemExit(EXIT_USAGE)


def _angle(value, degrees):
    x = float(value)
    return math.radians(x) if degrees else x


def _angle_list(text, degrees):
    return [_angle(tok, degrees) for tok in text.split(",") if tok.strip()]


def _delta_grid(spec, degrees):
    """Grid spec 'start:stop:count' (inclusive) or comma-separated list."""
    if ":" in spec:
        lo, hi, count = spec.split(":")
        grid = np.linspace(_angle(lo, degrees), _angle(hi, degrees), max(int(count), 0)).tolist()
    else:
        grid = _angle_list(spec, degrees)
    if not grid:
        raise ValueError(f"--delta-grid {spec!r} has no points")
    return grid


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


def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, help="output path (default stdout)")
    output.add_argument("--degrees", action="store_true", help="angle inputs are degrees")

    def run(trials):
        # one parent per default: the parsers built from a parent share its
        # option objects, so set_defaults on one would reach all of them
        p = argparse.ArgumentParser(add_help=False, parents=[output])
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--streams", type=int, default=4, help="worker threads only")
        p.add_argument("--n", type=int, default=1, help="density index")
        return p

    monte_carlo = run(1_000_000)
    parser = _Parser(
        prog="singlet-lhv",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform-curve", parents=[output], help="frame-transform curve data")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid-points", type=int, default=2001)

    p = sub.add_parser("correlate", parents=[monte_carlo], help="Monte Carlo correlation scan")
    p.add_argument(
        "--delta-grid", required=True,
        help="effective parameters, 'start:stop:count' or 'a,b,c'",
    )

    p = sub.add_parser("chsh", parents=[run(10_000_000)],
                       help="CHSH estimate at three relative angles")
    p.add_argument("--d-omega", type=float, required=True)
    p.add_argument("--d-omega-p", type=float, required=True)
    p.add_argument("--d-omega-pp", type=float, required=True)
    p.add_argument("--independent", action="store_true", help="orthodox estimator")
    p.add_argument("--per-trial-distribution", action="store_true")
    p.add_argument("--phi", type=float, default=0.0, help="state phase")

    p = sub.add_parser("bell-check", parents=[output], help="two-angle inequality verdict")
    p.add_argument("--d1", type=float)
    p.add_argument("--d2", type=float)
    p.add_argument("--grid", type=int, default=0, help="emit full violation map")

    p = sub.add_parser("weak-values", parents=[output], help="subset averages vs oracle weak values")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)

    p = sub.add_parser("paths", parents=[output], help="post-selection branch probabilities and values")
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--omega-a", type=float, default=0.0)
    p.add_argument("--omega-b", type=float, required=True)
    p.add_argument("--hamiltonian", required=True, help="operator JSON file")
    p.add_argument("--operators", required=True, help="JSON file of named operators")
    p.add_argument("--times", required=True, help="comma-separated times")

    p = sub.add_parser("wz", parents=[monte_carlo], help="random-modulator experiment")
    p.add_argument("--d-omega", type=float, default=0.0)
    p.add_argument("--alpha-set", required=True, help="comma-separated angles")
    p.add_argument("--beta-set", required=True, help="comma-separated angles")
    p.add_argument("--dump-records", type=int, default=0, help="first K trial records of the run")
    p.add_argument("--phi", type=float, default=0.0, help="state phase")

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
    times = [float(t) for t in args.times.split(",") if t.strip()]
    if not times:
        raise ValueError(f"--times {args.times!r} has no times")
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
        _angle_list(args.alpha_set, args.degrees),
        _angle_list(args.beta_set, args.degrees),
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
    try:
        args = build_parser().parse_args(argv)
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
