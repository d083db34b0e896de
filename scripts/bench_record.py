#!/usr/bin/env python3
"""Collate the perfbench records of one seed into a BENCH_<pr>.json file.

    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 3 --trace 1   # optional
    python3 scripts/bench_record.py --seed 7 --out BENCH_26.json

Reads .perfbench_out/<workload>-seed<S>-trace<T>.json and writes, per trace,
the perfbench command line and the records keyed by workload.  Each record
keeps its provenance: git sha, core count, Python and numpy versions.  It
times nothing.
"""

import argparse
import glob
import json
import os

parser = argparse.ArgumentParser(description="Collate one seed's perfbench records.")
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--dir", default=".perfbench_out")
args = parser.parse_args()

bench = {}
for trace in (0, 1):
    records = {}
    for path in sorted(glob.glob(os.path.join(args.dir, f"*-seed{args.seed}-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        records[record["provenance"]["workload"]] = record
    runs = {(r["provenance"]["seconds"], r["provenance"]["size"]) for r in records.values()}
    if len(runs) > 1:
        raise SystemExit(f"trace {trace}: records of more than one run: {sorted(runs)}")
    if records:
        (seconds, size), = runs
        command = (f"python3 perfbench/run.py --workload all --seed {args.seed} "
                   f"--seconds {seconds:g} --trace {trace} --size {size}")
        bench[f"trace{trace}"] = {"command": command, "records": records}
if "trace0" not in bench:
    raise SystemExit(f"no trace-0 records for seed {args.seed} in {args.dir}")
with open(args.out, "w", encoding="utf-8") as fh:
    json.dump(bench, fh, indent=1, sort_keys=True)
    fh.write("\n")
