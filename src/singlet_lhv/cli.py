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
from .model import AcosDomainError, MeasurementSetting, wrap_angle
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


def _resolve_out(path):
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _config_header(args, parser_dests):
    # everything that determines the output bytes; the destination path
    # deliberately excluded so re-runs to new files compare equal
    resolved = {
        k: getattr(args, k)
        for k in sorted(parser_dests)
        if k != "out" and hasattr(args, k)
    }
    resolved["version"] = __version__
    return json.dumps(resolved, sort_keys=True, default=str)


def _emit(args, header, rows=None, columns=None, payload=None):
    """Write CSV rows or a JSON payload, with the config header embedded."""
    fmt = args.format
    buf = io.StringIO()
    if fmt == "csv":
        buf.write(f"# effective-config: {header}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
    else:
        body = {"effective_config": json.loads(header)}
        if payload is not None:
            body.update(payload)
        else:
            body["columns"] = list(columns)
            body["rows"] = [list(r) for r in rows]
        buf.write(json.dumps(body, indent=2, sort_keys=True))
        buf.write("\n")
    text = buf.getvalue()
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_common(p, trials_default=1_000_000, phi=True):
    p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=4)
    p.add_argument("--n", type=int, default=1, help="density index")
    if phi:
        p.add_argument("--phi", type=float, default=0.0, help="state phase")


def _add_output(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--degrees", action="store_true", help="angle inputs are degrees")


def build_parser():
    parser = _Parser(
        prog="singlet-lhv",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform-curve", help="frame-transform curve data")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid-points", type=int, default=2001)
    _add_output(p)

    p = sub.add_parser("correlate", help="Monte Carlo correlation scan")
    p.add_argument(
        "--delta-grid", required=True,
        help="effective parameters, 'start:stop:count' or 'a,b,c'",
    )
    _add_common(p, phi=False)
    _add_output(p)

    p = sub.add_parser("chsh", help="CHSH estimate at three relative angles")
    p.add_argument("--d-omega", type=float, required=True)
    p.add_argument("--d-omega-p", type=float, required=True)
    p.add_argument("--d-omega-pp", type=float, required=True)
    p.add_argument("--independent", action="store_true", help="orthodox estimator")
    p.add_argument("--per-trial-distribution", action="store_true")
    _add_common(p, trials_default=10_000_000)
    _add_output(p)

    p = sub.add_parser("bell-check", help="two-angle inequality verdict")
    p.add_argument("--d1", type=float)
    p.add_argument("--d2", type=float)
    p.add_argument("--grid", type=int, default=0, help="emit full violation map")
    _add_output(p)

    p = sub.add_parser("weak-values", help="subset averages vs oracle weak values")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)
    _add_output(p)

    p = sub.add_parser("paths", help="post-selection branch probabilities and values")
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--omega-a", type=float, default=0.0)
    p.add_argument("--omega-b", type=float, required=True)
    p.add_argument("--hamiltonian", required=True, help="operator JSON file")
    p.add_argument("--operators", required=True, help="JSON file of named operators")
    p.add_argument("--times", required=True, help="comma-separated times")
    _add_output(p)

    p = sub.add_parser("wz", help="random-modulator experiment")
    p.add_argument("--d-omega", type=float, default=0.0)
    p.add_argument("--alpha-set", required=True, help="comma-separated angles")
    p.add_argument("--beta-set", required=True, help="comma-separated angles")
    p.add_argument("--dump-records", type=int, default=0, help="records to include")
    _add_common(p)
    _add_output(p)

    return parser


def _cmd_transform_curve(args, header):
    omega, transformed, linear = transform_curve(
        _angle(args.delta, args.degrees), args.grid_points, args.n
    )
    rows = zip(
        (float(x) for x in omega),
        (float(x) for x in transformed),
        (float(x) for x in linear),
    )
    _emit(args, header, rows=rows, columns=("omega", "transformed", "linear_ref"))


def _cmd_correlate(args, header):
    grid = _delta_grid(args.delta_grid, args.degrees)
    setting = MeasurementSetting(delta_omega=0.0, phi=0.0, n=args.n)
    config = RunConfig(trials=args.trials, seed=args.seed, streams=args.streams, setting=setting)
    rows = [
        (row.delta, row.estimate, row.std_error, row.analytic, row.n)
        for row in scan_correlation(grid, config)
    ]
    _emit(args, header, rows=rows, columns=("delta_rad", "estimate", "std_error", "analytic", "n"))


def _cmd_chsh(args, header):
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
        "analytic_abs": chsh_value(setting),
        "out_of_range_fraction": result.out_of_range_fraction,
    }
    if args.per_trial_distribution and result.per_trial_counts is not None:
        payload["per_trial_counts"] = {str(k): v for k, v in result.per_trial_counts.items()}
    if args.format == "csv":
        rows = [(k, json.dumps(v) if isinstance(v, dict) else v) for k, v in payload.items()]
        _emit(args, header, rows=rows, columns=("quantity", "value"))
    else:
        _emit(args, header, payload=payload)


def _cmd_bell_check(args, header):
    if args.grid:
        rows = [
            (d1, d2, lhs, rhs, int(v))
            for d1, d2, lhs, rhs, v in bell_violation_map(args.grid)
        ]
        _emit(args, header, rows=rows, columns=("d1", "d2", "lhs", "rhs", "violated"))
        return
    if args.d1 is None or args.d2 is None:
        raise ValueError("bell-check needs both --d1 and --d2, or --grid")
    chk = bell_inequality_sides(_angle(args.d1, args.degrees), _angle(args.d2, args.degrees))
    payload = {"lhs": chk.lhs, "rhs": chk.rhs, "violated": chk.violated}
    if args.format == "csv":
        _emit(args, header, rows=[(chk.lhs, chk.rhs, int(chk.violated))],
              columns=("lhs", "rhs", "violated"))
    else:
        _emit(args, header, payload=payload)


def _cmd_weak_values(args, header):
    report = verify_weak_value_match(
        _angle(args.phi, args.degrees), _angle(args.delta_omega, args.degrees)
    )
    if args.format == "csv":
        rows = [
            (r.s_a, r.s_b, r.operator, r.subsystem,
             r.model_average.real, r.model_average.imag,
             r.oracle_weak_value.real, r.oracle_weak_value.imag, r.abs_diff)
            for r in (*report.comparisons, *report.b_side_comparisons)
        ]
        _emit(args, header, rows=rows,
              columns=("s_a", "s_b", "operator", "subsystem",
                       "model_re", "model_im", "oracle_re", "oracle_im", "abs_diff"))
    else:
        _emit(args, header, payload=report.as_dict())


def _cmd_paths(args, header):
    with open(args.operators, "r", encoding="utf-8") as fh:
        named = json.load(fh)
    ops = {name: load_operator(spec) for name, spec in named.items()}
    hamiltonian = load_operator(args.hamiltonian)
    times = [float(t) for t in args.times.split(",") if t.strip()]
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
    _emit(args, header, rows=rows,
          columns=("time", "s_a", "s_b", "probability", "operator", "wv_re", "wv_im"))


def _cmd_wz(args, header):
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
    if args.format == "csv" and args.dump_records:
        rows = [(r.alpha, r.beta, r.s_a, r.s_b) for r in result.records]
        _emit(args, header, rows=rows, columns=("alpha_rad", "beta_rad", "s_a", "s_b"))
        return
    correlations = {
        f"{a:.12g},{b:.12g}": {
            "estimate": est.value,
            "std_error": est.std_error,
            "n": est.n,
            "analytic": float(
                correlation(wrap_angle(setting.delta_omega - setting.phi + a + b))
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
    if args.format == "csv":
        rows = [
            (pair, c["estimate"], c["std_error"], c["analytic"], c["n"])
            for pair, c in correlations.items()
        ]
        rows.append(("chsh", result.chsh.value, result.chsh.std_error, "", ""))
        _emit(args, header, rows=rows,
              columns=("setting", "estimate", "std_error", "analytic", "n"))
    else:
        _emit(args, header, payload=payload)


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    dests = vars(args).keys()
    header = _config_header(args, dests)
    try:
        _DISPATCH[args.command](args, header)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (AcosDomainError, ArithmeticError) as exc:
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
