"""Benchmark of singlet-lhv: four closed-loop workloads through singlet_lhv.cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--workload all`` runs the four workloads one after another.  Each
workload first times start-up in fresh interpreters, then runs the
closed-loop client (``client.py``) in its own process for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics, measured untraced;
with ``--trace 1`` the per-layer metrics of the traced run.  Every
command's output is checked against closed forms (``checks.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give
every metric by name and unit, plus ``failed_frac`` and, for the Monte
Carlo workloads, ``mtrials_per_s``, and the provenance record.  Results
and spans are also written to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 5
CLIENT_GRACE_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed for reading, not gated: failed_frac is 0 on a correct run and
# mtrials_per_s does not exist on the oracle workload.
REPORTED = {"mtrials_per_s": "Mtrials/s", "failed_frac": "ratio"}
PER_LAYER = {
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.own_s": "s",
    "cli.self_ms_per_call": "ms",
    "harness.self_s": "s",
    "harness.cpu_per_wall": "ratio",
    "harness.max_block_trials": "count",
    "harness.trials": "count",
    "model.sample.ns_per_trial": "ns",
    "model.frame.ns_per_eval": "ns",
    "model.frame.evals": "count",
    "model.response.ns_per_eval": "ns",
    "model.frame_vec.ns_per_eval": "ns",
    "model.wrap.ns_per_elem": "ns",
    "hidden_values.self_ms_per_report": "ms",
    "hidden_values.quad_ms_per_report": "ms",
    "hidden_values.quad_calls_per_report": "count",
    "quantum.weak_value.us_per_call": "us",
    "quantum.weak_value.calls_per_report": "count",
    "quantum.paths.ms_per_call": "ms",
    "analytic.ms_per_call": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

# Start-up as a user pays it: a fresh interpreter until the parser is built.
SETUP_PROBE = """
import singlet_lhv.cli
singlet_lhv.cli.build_parser()
print(singlet_lhv.cli.__file__, flush=True)
"""

# The same start-up split into timed imports, in this order.  A missing
# scipy reads 0 s.
SPLIT_PROBE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
try:
    import scipy.integrate
except ImportError:
    pass
t2 = time.perf_counter()
import singlet_lhv.cli
singlet_lhv.cli.build_parser()
t3 = time.perf_counter()
print(json.dumps({"cli.import.numpy_s": t1 - t0, "cli.import.scipy_s": t2 - t1, "cli.import.own_s": t3 - t2}))
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _setup_once(src, env):
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], env=env, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith(src + os.sep):
        raise BenchError(f"start-up probe failed (exit {proc.returncode}, loaded {line!r})")
    return elapsed


def _split_once(env):
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(src, env, trace):
    """Median over fresh interpreters, after one untimed run that fills the bytecode cache."""
    _setup_once(src, env)
    if not trace:
        return {"setup_s": statistics.median(_setup_once(src, env) for _ in range(SETUP_REPEATS))}
    splits = [_split_once(env) for _ in range(SETUP_REPEATS)]
    return {k: statistics.median(s[k] for s in splits) for k in splits[0]}


def run_client(args, workload, src, env, workdir):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [
        sys.executable, os.path.join(here, "client.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", workdir, "--src", src,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=args.seconds + CLIENT_GRACE_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: client did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: client exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha(root):
    """HEAD of a git checkout read from .git, or None outside one."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_record(src):
    digest = hashlib.sha256()
    nonblank = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
            if name.endswith(".py"):
                nonblank += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    return {"src_sha256": digest.hexdigest(), "src_nonblank_py_lines": nonblank}


def _llc_bytes():
    """Size of the highest-level cache of cpu0, or None where sysfs lacks it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for index in sorted(n for n in os.listdir(base) if n.startswith("index")):
            with open(os.path.join(base, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
            best = max(best, (level, int(text.rstrip("KM")) * scale))
    except (OSError, ValueError):
        return None
    return best[1]


def provenance(args, workload, root, src, summary):
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "streams": workloads.STREAMS,
        "per_stream_doubles": workloads.per_stream_array(workload, args.size),
        "sequences": summary["sequences"],
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        **summary["versions"],
        "git_sha": _git_sha(root),
        **_src_record(src),
    }


def run_workload(args, workload, root, src, env, workdir):
    setup = measure_setup(src, env, args.trace)
    summary = run_client(args, workload, src, env, workdir)
    if args.trace:
        values = {**setup, **summary["per_layer"]}
        units = PER_LAYER
    else:
        values = {**setup, **{k: summary[k] for k in END_TO_END if k in summary}}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    extra = {"failed_frac": summary["failed"] / summary["attempted"]}
    if summary["mtrials_per_s"] is not None:
        extra["mtrials_per_s"] = summary["mtrials_per_s"]
    record = {
        "metrics": metrics,
        "reported": {k: {"value": v, "unit": REPORTED[k]} for k, v in extra.items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failures": summary["failures"],
        "from_census": summary.get("from_census", []),
        "provenance": provenance(args, workload, root, src, summary),
    }
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def print_record(workload, record):
    for name, m in {**record["metrics"], **record["reported"]}.items():
        print(f"{workload:7s} {name:38s} {m['value']:.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"{workload:7s} FAILED {failure}")
    if record["from_census"]:
        print(f"{workload:7s} census-timed (layer idle here) {' '.join(record['from_census'])}")
    print(f"{workload:7s} provenance {json.dumps(record['provenance'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.TRIALS), default="full",
                        help="'tiny' shrinks the Monte Carlo trials for self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "singlet_lhv", "cli.py")):
        print("perfbench: no src/singlet_lhv here; run from the repository root", file=sys.stderr)
        return 2
    workdir = os.path.join(root, OUT_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    env = _env(src)
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = {w: run_workload(args, w, root, src, env, workdir) for w in chosen}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, record in records.items():
        print_record(workload, record)
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(records) == 1:
        metrics = records[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in records.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
