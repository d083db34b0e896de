"""Command sequences of the four workloads, generated from the workload seed.

One sequence is what a researcher runs to get one result at the
workload's stated accuracy.  The client repeats sequences in a closed
loop; each repetition draws fresh program seeds and parameters from the
same ``random.Random(seed)``, so a seed fixes every input of a run.

Why these workloads:

* ``scan``: the headline claim, E = -cos(delta) over a 25-point grid at
  1e6 trials per point.  Each stream holds ~5e5 doubles, so the frame
  transform dominates; hidden_values and quantum stay idle.
* ``chsh``: gauge-fixed CHSH at 1e7 trials with the per-trial
  distribution.  One sample is evaluated at four B settings and each
  stream's 5e6-double temporaries exceed the last-level cache.
* ``wz-n``: the random-modulator experiment at n = 7.  It takes the
  general-n transform with a per-trial delta vector, integer draws and
  a per-pair mask tally, so a kernel specialised for n = 1 shows its
  cost here.
* ``oracle``: 100 short commands with no Monte Carlo (weak values,
  paths, Bell checks, transform curves): start-up-sized work in
  hidden_values, quantum, analytic and cli formatting.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# Fixed rather than taken from the core count: the sample set depends on it.
STREAMS = 2

SCAN_GRID = (0.0, 3.14159265, 25)
CHSH_ANGLES = (1.5707963, 0.78539816, -0.78539816)
WZ_ALPHAS = (0.0, 1.5707963)
WZ_BETAS = (0.78539816, -0.78539816)
WZ_N = 7

# Trials per Monte Carlo command, and the per-stream array length they imply.
TRIALS = {
    "full": {"scan": 1_000_000, "chsh": 10_000_000, "wz-n": 4_000_000},
    "tiny": {"scan": 4_000, "chsh": 40_000, "wz-n": 20_000},
}

# Oracle mix per sequence.  Transform curves and Bell grids (~10% + 4%)
# are slower than a weak-value report, so p90 lands among them and p50
# among the weak values.
ORACLE_MIX = {"weak-values": 76, "paths": 4, "bell": 4, "curve": 12, "bell-grid": 4}
PATH_TIMES = tuple(round(0.1 * k, 10) for k in range(21))
BELL_GRID_POINTS = 30
CURVE_POINTS = 2001
# Keep delta clear of the degenerate settings {0, +-pi} of the weak-value report.
WEAK_VALUE_MARGIN = 0.05

WORKLOADS = ("scan", "chsh", "wz-n", "oracle")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], None]
    trials: int = 0


def _opt(name, x):
    """``--name=value``: argparse reads a separate ``-1e-05`` as an option, not a value."""
    return f"--{name}={float(x)!r}"


def _program_seed(rng):
    return rng.getrandbits(63)


def scan(rng, size, workdir):
    trials, seed = TRIALS[size]["scan"], _program_seed(rng)
    start, stop, points = SCAN_GRID
    argv = (
        "correlate", "--delta-grid", f"{start!r}:{stop!r}:{points}",
        "--trials", str(trials), "--seed", str(seed), "--streams", str(STREAMS),
    )
    check = functools.partial(
        checks.check_correlate, start=start, stop=stop, points=points, trials=trials, seed=seed, n=1
    )
    return [Command(argv, check, trials * points)]


def chsh(rng, size, workdir):
    trials, seed = TRIALS[size]["chsh"], _program_seed(rng)
    d, dp, dpp = CHSH_ANGLES
    argv = (
        "chsh", _opt("d-omega", d), _opt("d-omega-p", dp), _opt("d-omega-pp", dpp),
        "--trials", str(trials), "--seed", str(seed), "--streams", str(STREAMS),
        "--per-trial-distribution", "--format", "json",
    )
    check = functools.partial(
        checks.check_chsh, d_omega=d, d_omega_p=dp, d_omega_pp=dpp, trials=trials, seed=seed
    )
    return [Command(argv, check, trials)]


def wz_n(rng, size, workdir):
    trials, seed = TRIALS[size]["wz-n"], _program_seed(rng)
    argv = (
        "wz", "--alpha-set=" + ",".join(map(repr, WZ_ALPHAS)),
        "--beta-set=" + ",".join(map(repr, WZ_BETAS)), "--n", str(WZ_N),
        "--trials", str(trials), "--seed", str(seed), "--streams", str(STREAMS),
        "--format", "json",
    )
    check = functools.partial(
        checks.check_wz, alphas=WZ_ALPHAS, betas=WZ_BETAS, trials=trials, seed=seed, n=WZ_N
    )
    return [Command(argv, check, trials)]


def _weak_values(rng):
    phi = rng.uniform(-math.pi, math.pi)
    span = math.pi - 2 * WEAK_VALUE_MARGIN
    delta = rng.choice((1.0, -1.0)) * (WEAK_VALUE_MARGIN + rng.uniform(0.0, span))
    d_omega = checks.wrap(delta + phi)
    argv = ("weak-values", _opt("phi", phi), _opt("delta-omega", d_omega), "--format", "json")
    return Command(argv, functools.partial(checks.check_weak_values, phi=phi, delta_omega=d_omega))


def _hermitian(rng, dim):
    re = [[0.0] * dim for _ in range(dim)]
    im = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        re[i][i] = rng.uniform(-1.0, 1.0)
        for j in range(i + 1, dim):
            re[i][j] = re[j][i] = rng.uniform(-1.0, 1.0)
            im[i][j] = rng.uniform(-1.0, 1.0)
            im[j][i] = -im[i][j]
    return {"dim": dim, "re": re, "im": im}


def _paths(rng, workdir, index):
    """Random Hermitian Hamiltonian and operators, written as JSON files."""
    ham = os.path.join(workdir, f"hamiltonian-{index}.json")
    ops = os.path.join(workdir, f"operators-{index}.json")
    operators = {"a_local": _hermitian(rng, 2), "joint": _hermitian(rng, 4)}
    with open(ham, "w", encoding="utf-8") as fh:
        json.dump(_hermitian(rng, rng.choice((2, 4))), fh)
    with open(ops, "w", encoding="utf-8") as fh:
        json.dump(operators, fh)
    phi, omega_a, omega_b = (rng.uniform(-math.pi, math.pi) for _ in range(3))
    argv = (
        "paths", _opt("phi", phi), _opt("omega-a", omega_a), _opt("omega-b", omega_b),
        "--hamiltonian", ham, "--operators", ops, "--times", ",".join(map(repr, PATH_TIMES)),
    )
    check = functools.partial(
        checks.check_paths, phi=phi, omega_a=omega_a, omega_b=omega_b,
        times=PATH_TIMES, operators=tuple(operators),
    )
    return Command(argv, check)


def _bell(rng):
    d1, d2 = sorted(rng.uniform(0.0, math.pi) for _ in range(2))
    argv = ("bell-check", _opt("d1", d1), _opt("d2", d2), "--format", "json")
    return Command(argv, functools.partial(checks.check_bell, d1=d1, d2=d2))


def _bell_grid():
    argv = ("bell-check", "--grid", str(BELL_GRID_POINTS))
    return Command(argv, functools.partial(checks.check_bell_grid, points=BELL_GRID_POINTS))


def _curve(rng, index):
    n = (1, 7)[index % 2]
    delta = rng.uniform(-math.pi, math.pi)
    argv = ("transform-curve", _opt("delta", delta), "--n", str(n), "--grid-points", str(CURVE_POINTS))
    check = functools.partial(checks.check_transform_curve, delta=delta, n=n, points=CURVE_POINTS)
    return Command(argv, check)


def oracle(rng, size, workdir):
    commands = [_weak_values(rng) for _ in range(ORACLE_MIX["weak-values"])]
    commands += [_paths(rng, workdir, k) for k in range(ORACLE_MIX["paths"])]
    commands += [_bell(rng) for _ in range(ORACLE_MIX["bell"])]
    commands += [_curve(rng, k) for k in range(ORACLE_MIX["curve"])]
    commands += [_bell_grid() for _ in range(ORACLE_MIX["bell-grid"])]
    rng.shuffle(commands)
    return commands


SEQUENCES = {"scan": scan, "chsh": chsh, "wz-n": wz_n, "oracle": oracle}


def census(rng, workdir):
    """One small pass through every layer.

    The traced run takes a layer's per-call timings from here when its
    workload never calls that layer, so no timing reads a placeholder.
    """
    return [*scan(rng, "tiny", workdir), *wz_n(rng, "tiny", workdir),
            _weak_values(rng), _paths(rng, workdir, 0), _bell(rng)]


def per_stream_array(workload, size):
    """Doubles per stream in one Monte Carlo sample array (0 for oracle)."""
    return TRIALS[size].get(workload, 0) // STREAMS
