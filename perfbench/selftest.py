"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

They run the benchmark at tiny size, tamper with real program outputs to
show the checker rejects them, and show that a failing command is counted
without stopping the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import client  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import singlet_lhv.cli as cli  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


class TinyRun(unittest.TestCase):
    """A tiny-size run prints every named metric with its unit."""

    def _run(self, trace):
        proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--size", "tiny", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return lines, result

    def _assert_printed(self, lines, names_units):
        for workload in workloads.WORKLOADS:
            for name, unit in names_units.items():
                if name == "mtrials_per_s" and workload == "oracle":
                    continue
                self.assertTrue(
                    any(line.split()[:2] == [workload, name] and line.split()[-1] == unit for line in lines),
                    f"{workload} {name} [{unit}] not printed",
                )
            self.assertTrue(any(line.startswith(f"{workload:7s} provenance ") for line in lines))

    def test_end_to_end(self):
        lines, result = self._run(0)
        self._assert_printed(lines, {**run.END_TO_END, **run.REPORTED})
        for workload in workloads.WORKLOADS:
            for name, unit in run.END_TO_END.items():
                metric = result["metrics"][f"{workload}.{name}"]
                self.assertEqual(metric["unit"], unit)
                self.assertGreater(metric["value"], 0.0)

    def test_per_layer(self):
        lines, result = self._run(1)
        self._assert_printed(lines, run.PER_LAYER)
        self.assertGreaterEqual(result["metrics"]["scan.trace.coverage"]["value"], 0.9)
        self.assertEqual(result["metrics"]["oracle.hidden_values.quad_calls_per_report"]["value"], 48)
        self.assertEqual(result["metrics"]["chsh.model.frame.evals"]["value"], 4 * workloads.TRIALS["tiny"]["chsh"])
        for workload in workloads.WORKLOADS:
            for name, unit in run.PER_LAYER.items():
                if unit in ("s", "ms", "us", "ns"):
                    self.assertGreater(result["metrics"][f"{workload}.{name}"]["value"], 0.0, f"{workload} {name}")

    def test_benchmark_json_names_match(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class CheckerRejectsTampering(unittest.TestCase):
    trials = 20_000

    def _scan(self):
        argv = ("correlate", "--delta-grid", "0:3.14159265:5", "--trials", str(self.trials), "--seed", "11",
                "--streams", "2")
        check = lambda text: checks.check_correlate(  # noqa: E731
            text, start=0.0, stop=3.14159265, points=5, trials=self.trials, seed=11, n=1
        )
        return _output(argv), check

    def _edit_row(self, text, index, edit):
        lines = text.splitlines()
        cells = lines[2 + index].split(",")
        edit(cells)
        lines[2 + index] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_untampered_outputs_pass(self):
        text, check = self._scan()
        check(text)

    def test_estimate_shifted_by_ten_sigma(self):
        text, check = self._scan()
        delta = 3.14159265 * 2 / 4
        sigma = math.sqrt(1.0 - checks.correlation(delta, 1) ** 2) / math.sqrt(self.trials)

        def shift(cells):
            cells[1] = repr(float(cells[1]) + 10 * sigma)

        with self.assertRaisesRegex(checks.CheckFailed, "sigma"):
            check(self._edit_row(text, 2, shift))

    def test_aligned_row_not_minus_one(self):
        text, check = self._scan()

        def nudge(cells):
            cells[1] = repr(-1.0 + 2.0 / self.trials)

        with self.assertRaisesRegex(checks.CheckFailed, "exactly -1"):
            check(self._edit_row(text, 0, nudge))

    def test_dropped_weak_value_row(self):
        phi, d_omega = 0.4, 1.9
        payload = json.loads(_output(("weak-values", "--phi", repr(phi), "--delta-omega", repr(d_omega), "--format", "json")))
        checks.check_weak_values(json.dumps(payload), phi=phi, delta_omega=d_omega)
        payload["comparisons"].pop(5)
        with self.assertRaisesRegex(checks.CheckFailed, "rows"):
            checks.check_weak_values(json.dumps(payload), phi=phi, delta_omega=d_omega)

    def test_probabilities_not_summing_to_one(self):
        with tempfile.TemporaryDirectory() as work:
            command = workloads._paths(random.Random(5), work, 0)
            text = _output(command.argv)
        command.check(text)
        lines = text.splitlines()
        cells = lines[2].split(",")
        first_branch = cells[:3]
        for k in range(2, len(lines)):
            row = lines[k].split(",")
            if row[:3] == first_branch:
                row[3] = repr(float(row[3]) + 1e-6)
                lines[k] = ",".join(row)
        with self.assertRaises(checks.CheckFailed):
            command.check("\n".join(lines) + "\n")


class FailedCommandsAreCounted(unittest.TestCase):
    def test_failure_counted_and_loop_continues(self):
        bad = workloads.Command(("correlate", "--delta-grid", "0:1:3", "--trials", "0"), check=lambda text: None)
        with tempfile.TemporaryDirectory() as work:
            raw = client.run_loop(cli.main, "wz-n", 1, 0.0, "tiny", work, extra_commands=[bad])
        self.assertEqual(len(raw["sequences"]), client.MIN_SEQUENCES)
        self.assertEqual(raw["attempted"], client.MIN_SEQUENCES + 1)
        self.assertEqual(raw["failed"], 1)
        self.assertIn("exit 1", raw["failures"][0])

    def test_raising_command_is_a_failure(self):
        def crash(argv):
            raise RuntimeError("boom")

        latency, error = client.run_command(crash, workloads.Command(("x",), check=lambda text: None))
        self.assertIn("RuntimeError", error)
        self.assertGreaterEqual(latency, 0.0)

    def test_failed_check_is_a_failure(self):
        def wrong(text):
            raise checks.CheckFailed("tampered")

        _, error = client.run_command(cli.main, workloads.Command(("bell-check", "--d1", "0.5", "--d2", "1.0"), wrong))
        self.assertIn("tampered", error)


class Summary(unittest.TestCase):
    def test_one_untraced_command(self):
        # A traced chsh run can leave a single untraced command.
        raw = {"sequences": [(6.0, True, 1), (5.0, False, 1)], "latencies": [5.0], "attempted": 2,
               "failed": 0, "failures": [], "trials": 10, "mc_seconds": 5.0}
        summary = client.summarize(raw)
        self.assertEqual(summary["call_p90_ms"], 5000.0)
        self.assertEqual(summary["wall_s"], 5.0)


if __name__ == "__main__":
    unittest.main()
