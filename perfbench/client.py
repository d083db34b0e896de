"""Closed-loop client: one process, one command at a time, through singlet_lhv.cli.main.

Repeats the workload's command sequence until the next one would end
after ``--seconds`` (at least two sequences), checks every output, and
prints one JSON summary line.  With ``--trace 1`` sequences alternate
between traced and untraced, so the tracing overhead is measured in the
same process, and a traced census (``workloads.census``) supplies the
timings of layers the workload never calls; spans are written to the
work directory at the end.

Run by ``run.py`` with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import checks
import spans
import workloads

MIN_SEQUENCES = 2
MAX_FAILURE_MESSAGES = 20


def run_command(main, command):
    """Run one command in-process; return (latency_s, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(command.argv))
    except Exception as exc:  # a crashing command is a failed command; the loop goes on
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"exit {code}: {err.getvalue().strip()[:200]}"
    try:
        command.check(out.getvalue())
    except checks.CheckFailed as exc:
        return latency, f"check: {exc}"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return latency, f"check: malformed output ({type(exc).__name__}: {exc})"
    return latency, None


def run_loop(main, workload, seed, seconds, size, workdir, tracer=None, extra_commands=()):
    """Closed loop over sequences; returns the raw measurements.

    Latencies and throughput come from untraced sequences only.

    ``extra_commands`` are appended to the first sequence (used by the
    self-tests to inject a failing command).
    """
    make = workloads.SEQUENCES[workload]
    rng = random.Random(seed)
    traced_main = tracer.wrap(main, spans.TOP, "cli") if tracer else None
    seqs = []  # (wall_s, traced, commands)
    spent = []  # real time per sequence, checks included: predicts the next one
    latencies, failures = [], []
    attempted = failed = trials = 0
    mc_seconds = 0.0
    start = time.perf_counter()
    while True:
        commands = make(rng, size, workdir)
        if not seqs:
            commands += list(extra_commands)
        traced = tracer is not None and len(seqs) % 2 == 0
        if traced:
            tracer.install()
        wall = 0.0
        t0 = time.perf_counter()
        for command in commands:
            if traced:
                tracer.run = attempted
            latency, error = run_command(traced_main if traced else main, command)
            attempted += 1
            wall += latency
            if not traced:
                latencies.append(latency)
                trials += command.trials
                mc_seconds += latency if command.trials else 0.0
            if error is not None:
                failed += 1
                if len(failures) < MAX_FAILURE_MESSAGES:
                    failures.append(f"{command.argv[0]}: {error}")
        if traced:
            tracer.uninstall()
        seqs.append((wall, traced, len(commands)))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(seqs) >= MIN_SEQUENCES and elapsed + statistics.median(spent) > seconds:
            break
    return {
        "sequences": seqs,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trials": trials,
        "mc_seconds": mc_seconds,
    }


def run_census(main, seed, workdir):
    """Traced pass over workloads.census; returns (tracer, commands run, errors)."""
    tracer = spans.Tracer()
    commands = workloads.census(random.Random(seed), workdir)
    traced_main = tracer.wrap(main, spans.TOP, "cli")
    tracer.install()
    try:
        errors = [run_command(traced_main, command)[1] for command in commands]
    finally:
        tracer.uninstall()
    return tracer, len(commands), [e for e in errors if e is not None]


def summarize(raw, tracer=None, census=None):
    walls = [w for w, traced, _ in raw["sequences"] if not traced]
    lat = sorted(raw["latencies"])
    summary = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "sequences": len(raw["sequences"]),
        "wall_s": statistics.median(walls),
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]) * 1e3,
        "mtrials_per_s": raw["trials"] / raw["mc_seconds"] / 1e6 if raw["mc_seconds"] else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        traced = [(w, n) for w, t, n in raw["sequences"] if t]
        traced_wall = sum(w for w, _ in traced)
        recorded = tracer.spans
        covered = sum(s.duration for s in recorded if s.name == spans.TOP) / 1e9
        layer = spans.layer_metrics(recorded, len(traced), sum(n for _, n in traced))
        census_tracer, census_commands = census
        fallback = spans.layer_metrics(census_tracer.spans, 1, census_commands)
        summary["from_census"] = [k for k, v in layer.items() if v is None]
        layer.update({k: fallback[k] for k in summary["from_census"]})
        layer["trace.overhead_frac"] = statistics.median(w for w, _ in traced) / summary["wall_s"] - 1.0
        layer["trace.coverage"] = covered / traced_wall
        summary["per_layer"] = layer
        summary["spans"] = len(recorded)
    return summary


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.TRIALS), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    args = parser.parse_args(argv)

    import singlet_lhv.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"client: singlet_lhv imported from {cli.__file__}, not {args.src}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    raw = run_loop(cli.main, args.workload, args.seed, args.seconds, args.size, args.workdir, tracer)
    census = None
    if tracer is not None:
        census_tracer, count, errors = run_census(cli.main, args.seed, args.workdir)
        raw["attempted"] += count
        raw["failed"] += len(errors)
        raw["failures"] += [f"census: {e}" for e in errors]
        census = (census_tracer, count)
    summary = summarize(raw, tracer, census)
    summary["versions"] = {name: _version(name) for name in ("numpy", "scipy")}
    if tracer is not None:
        for name, spans_of in (("spans", tracer), ("census-spans", census[0])):
            spans_of.write(os.path.join(args.workdir, f"{name}-{args.workload}-seed{args.seed}.csv.gz"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
