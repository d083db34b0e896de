"""Seeded, block-keyed Monte Carlo experiment runner.

A run is identified by (seed, trials).  Its trials fall into fixed blocks
of BLOCK: block b holds trials [b BLOCK, (b + 1) BLOCK) and draws them
from its own counter-based Philox generator keyed by sha256(seed:b)
(``block_generator``, the only seeding rule).  Inside a block every
command tallies joint-outcome histograms of exact integer counts in
CHUNK-trial steps (``_joint_counts``; ``wz`` bins by modulator pair), and
every estimate comes from one moment rule (``EstimateWithError.of_counts``).
Neither the chunk size nor the stream count changes a result, and memory
stays O(BLOCK x streams) whatever the trial count.
Uniform doubles use the 53-bit construction, so the uniform stream is the
same on every platform.

``streams`` only sets the number of worker threads (numpy releases the
GIL): stream i takes the i-th contiguous range of block indices, and the
partial tallies are added in stream order.  The first SPOT outcomes of
block 0 are checked against the validated public transform.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analytic import ChshSetting, chsh_expectation, correlation
from .model import (
    MeasurementSetting,
    _b_positive,
    b_frame_coordinate,
    circle_transform_n,
    response,
    sample_orientations,
    wrap_angle,
)

MAX_TALLY_WORKERS = 8
# Trials per seeded block; a run gets at most one thread per block.
BLOCK = 250_000
# Trials per kernel step: 2^13 and 2^16 ran the scan 30-40% slower, 2^15 added 1.3 MB to wz-n RSS.
CHUNK = 1 << 14
# Leading trials of block 0 checked against the public transform.  tests/test_kernel.py
# covers the kernel; this stays only while perfbench traces these calls (ROADMAP item 1).
SPOT = 256
# Settings per kernel call on a chunk: 7 ran the 25-point scan 13% faster than 4.
# At most 7, as a trial's joint-histogram bin is a uint8.
ROWS = 7


@dataclass(frozen=True)
class RunConfig:
    """Size, seeding, and setting of one Monte Carlo run."""

    trials: int
    seed: int
    streams: int = 1
    setting: MeasurementSetting = field(
        default_factory=lambda: MeasurementSetting(delta_omega=0.0)
    )
    gauge_fixed: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def blocks(self) -> int:
        """Number of trial blocks; the last may hold fewer than BLOCK."""
        return -(-self.trials // BLOCK)


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with standard error and the trial count behind it."""

    value: float
    std_error: float
    n: int

    @classmethod
    def of_counts(cls, counts: dict[int, int]) -> "EstimateWithError":
        """Mean of an integer variable from its exact {value: count} histogram."""
        n = sum(counts.values())
        mean = sum(v * c for v, c in counts.items()) / n
        second = sum(v * v * c for v, c in counts.items()) / n
        return cls(value=mean, std_error=float(np.sqrt(max(0.0, second - mean * mean) / n)), n=n)


def block_generator(seed, block) -> np.random.Generator:
    """Philox generator of trial block ``block``, keyed by sha256(seed:block)."""
    digest = hashlib.sha256(f"{int(seed)}:{int(block)}".encode("ascii")).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def _map_streams(worker, assignments):
    """Run worker(*assignment) per stream; results in stream order."""
    if len(assignments) <= 1:
        return [worker(*a) for a in assignments]
    with ThreadPoolExecutor(max_workers=min(len(assignments), MAX_TALLY_WORKERS)) as pool:
        return list(pool.map(worker, *zip(*assignments)))


def _map_blocks(config: RunConfig, tally_block, first=0):
    """Per stream, the sum of tally_block(rng, block, count) over its range of blocks.

    Block b draws from block_generator(seed, first + b); ``first`` gives
    each of several runs under one seed its own block indices.
    """
    streams = min(config.streams, config.blocks)
    edges = [config.blocks * i // streams for i in range(streams + 1)]

    def worker(lo, hi):
        return sum(
            tally_block(block_generator(config.seed, first + b), b,
                        min(BLOCK, config.trials - b * BLOCK))
            for b in range(lo, hi)
        )

    return _map_streams(worker, list(zip(edges[:-1], edges[1:])))


@dataclass(frozen=True)
class TrialTally:
    """Exact integer outcome counts for one joint-measurement run."""

    n: int
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __add__(self, other: "TrialTally") -> "TrialTally":
        return TrialTally(
            n=self.n + other.n,
            n_pp=self.n_pp + other.n_pp,
            n_pm=self.n_pm + other.n_pm,
            n_mp=self.n_mp + other.n_mp,
            n_mm=self.n_mm + other.n_mm,
        )

    def estimate(self) -> EstimateWithError:
        """Mean of the outcome product s_a * s_b with its standard error."""
        return EstimateWithError.of_counts({1: self.n_pp + self.n_mm, -1: self.n_pm + self.n_mp})

    @property
    def discordant(self) -> int:
        """Trials that failed to anti-correlate."""
        return self.n_pp + self.n_mm

    def frequencies(self):
        return {
            "p_pp": self.n_pp / self.n,
            "p_pm": self.n_pm / self.n,
            "p_mp": self.n_mp / self.n,
            "p_mm": self.n_mm / self.n,
        }


EMPTY_TALLY = TrialTally(0, 0, 0, 0, 0)


def _spot_check(kernel_pos_b, public_s_b):
    """The kernel's B outcomes must equal those of the validated public path."""
    if not np.array_equal(kernel_pos_b, public_s_b > 0):
        raise ArithmeticError("outcome kernel disagrees with the public frame transform")


def _draw_checked(rng, count, settings, n_index, block):
    """A block's orientations; in block 0, once the kernel matched the public path on SPOT."""
    omega = sample_orientations(rng, count, n_index)
    if block == 0:
        head = omega[:SPOT]
        for ms in settings:
            _spot_check(_b_positive(head, ms.delta, n_index), response(b_frame_coordinate(head, ms)))
    return omega


def _signed_sum(estimates, n) -> EstimateWithError:
    """E1 + E2 + E3 - E4 over independent estimates, variances added."""
    value = variance = 0.0
    for sign, est in zip((1.0, 1.0, 1.0, -1.0), estimates):
        value += sign * est.value
        variance += est.std_error**2
    return EstimateWithError(value=value, std_error=float(np.sqrt(variance)), n=n)


def _joint_counts(omega, column, n):
    """Joint-outcome histograms of omega's trials at a column of settings, one per ROWS rows.

    Group g holds rows [g ROWS, (g + 1) ROWS) of the column; its bin is
    a + 2 b_0 + 4 b_1 + ..., with a = [A = +1] and b_j = [B = +1] at its row
    j: 2 << ROWS bins of exact counts, tallied CHUNK trials at a time.
    """
    groups = [column[i:i + ROWS] for i in range(0, len(column), ROWS)]
    hist = np.zeros((len(groups), 2 << ROWS), dtype=np.int64)
    for lo in range(0, omega.size, CHUNK):
        o = omega[lo:lo + CHUNK]
        pos_a = (o >= 0.0).view(np.uint8)
        for h, rows in zip(hist, groups):
            code = pos_a.copy()
            for j, pos_b in enumerate(_b_positive(o, rows, n), start=1):
                code += pos_b.view(np.uint8) << j
            h += np.bincount(code, minlength=h.size)
    return hist


def _tally(joint, row=0) -> TrialTally:
    """Tally of one row of a _joint_counts histogram: its marginal counts [b, a]."""
    (mm, pm), (mp, pp) = joint.reshape(-1, 2, 1 << row, 2).sum(axis=(0, 2)).tolist()
    return TrialTally(mm + pm + mp + pp, pp, pm, mp, mm)


def _joints(config: RunConfig, settings, first=0):
    """Per stream, the _joint_counts of the settings, summed over its blocks."""
    n_index = config.setting.n
    column = np.array([[ms.delta] for ms in settings])

    def tally_block(rng, block, count):
        return _joint_counts(_draw_checked(rng, count, settings, n_index, block), column, n_index)

    return _map_blocks(config, tally_block, first)


def _tallies(config: RunConfig, settings, first=0) -> list[list[TrialTally]]:
    """Per stream, one tally per setting: the settings share the run's sample set."""
    return [
        [_tally(part[i // ROWS], i % ROWS) for i in range(len(settings))]
        for part in _joints(config, settings, first)
    ]


def stream_tallies(config: RunConfig) -> list[TrialTally]:
    """Per-stream partial tallies in stream order; their sum depends on (seed, trials) only."""
    return [tally for (tally,) in _tallies(config, [config.setting])]


def tally_outcomes(config: RunConfig) -> TrialTally:
    """Sample hidden orientations and tally the four joint outcomes."""
    return sum(stream_tallies(config), EMPTY_TALLY)


def estimate_correlation(config: RunConfig) -> EstimateWithError:
    """Monte Carlo mean of the outcome product s_a * s_b."""
    return tally_outcomes(config).estimate()


@dataclass(frozen=True)
class ScanRow:
    delta: float
    estimate: float
    std_error: float
    analytic: float
    n: int


def scan_correlation(delta_grid: Sequence[float], config: RunConfig) -> list[ScanRow]:
    """One correlation estimate per effective parameter value.

    Each grid point runs with phi = 0 and delta_omega = delta on the
    run's one sample set: each block is drawn once and tallied at all
    points.  The analytic column is the exact expectation at the run's
    density index.
    """
    settings = [MeasurementSetting.from_delta(delta, n=config.setting.n) for delta in delta_grid]
    estimates = [sum(tallies, EMPTY_TALLY).estimate() for tallies in zip(*_tallies(config, settings))]
    return [
        ScanRow(ms.delta, est.value, est.std_error, float(correlation(ms.delta, ms.n)), est.n)
        for ms, est in zip(settings, estimates)
    ]


@dataclass(frozen=True)
class ChshEstimate:
    estimate: EstimateWithError
    analytic: float
    out_of_range_fraction: float | None
    per_trial_counts: dict[int, int] | None


def estimate_chsh(setting: ChshSetting, config: RunConfig) -> ChshEstimate:
    """Monte Carlo CHSH estimate.

    Gauge-fixed mode (default): one hidden orientation per trial is
    evaluated against the four relative B orientations, forming the
    per-trial variable s_a * (s1 + s2 + s3 - s4) whose values lie in
    {0, +-2, +-4}; the fraction outside [-2, 2] is reported along with
    the exact per-value counts.  Orthodox mode draws independent trials
    for each of the four correlations and reports their combination.
    Both measure the settings of ``relative_orientations(phi)`` and report
    ``chsh_expectation`` as ``analytic``.
    """
    phi = config.setting.phi
    n_index = config.setting.n
    settings = [MeasurementSetting.from_delta(r, n=n_index) for r in setting.relative_orientations(phi)]
    analytic = float(chsh_expectation(setting, phi, n_index))

    if not config.gauge_fixed:
        # fresh trials per term: its own range of block indices
        estimates = [
            sum((t for (t,) in _tallies(config, [ms], first=k * config.blocks)), EMPTY_TALLY).estimate()
            for k, ms in enumerate(settings)
        ]
        return ChshEstimate(_signed_sum(estimates, config.trials), analytic, None, None)

    # per joint bin: s_a * (s1 + s2 + s3 - s4), with s = +1 where the bin's bit is set
    counts = {}
    for i, c in enumerate(sum(_joints(config, settings))[0].tolist()):
        s = [2 * (i >> j & 1) - 1 for j in range(5)]
        x = s[0] * (s[1] + s[2] + s[3] - s[4])
        counts[x] = counts.get(x, 0) + c
    counts = {x: c for x, c in sorted(counts.items()) if c}
    est = EstimateWithError.of_counts(counts)
    outside = sum(c for x, c in counts.items() if abs(x) > 2)
    return ChshEstimate(est, analytic, out_of_range_fraction=outside / est.n, per_trial_counts=counts)


@dataclass(frozen=True)
class WZTrialRecord:
    alpha: float
    beta: float
    s_a: int
    s_b: int
    omega_a: float


@dataclass(frozen=True)
class WZResult:
    pair_tallies: dict[tuple[float, float], TrialTally]
    chsh_pairs: tuple[tuple[float, float], ...]
    chsh: EstimateWithError
    records: tuple[WZTrialRecord, ...]

    def pair_correlations(self):
        return {pair: t.estimate() for pair, t in self.pair_tallies.items() if t.n > 0}


def run_weihs_zeilinger(
    base_phi,
    alpha_choices: Sequence[float],
    beta_choices: Sequence[float],
    config: RunConfig,
    keep_records: int = 0,
) -> WZResult:
    """Modulator experiment: random per-trial phase twists.

    Each trial independently draws modulator angles alpha and beta
    uniformly from their choice sets; together they shift the state
    phase to phi - (alpha + beta), so the trial runs at the effective
    parameter wrap(d_omega - phi + alpha + beta).  Per-(alpha, beta)
    tallies are returned together with the CHSH combination over the
    designated 2x2 sub-grid (the first two sorted angles of each set;
    sign convention E(a,b) + E(a,b') + E(a',b) - E(a',b')).

    Choices equal after wrapping count once.  ``keep_records`` (>= 0)
    retains the first that many trial records of the run, in trial order
    (for dump/inspection; tallies use all trials).
    """
    alphas = sorted({float(wrap_angle(a)) for a in alpha_choices})
    betas = sorted({float(wrap_angle(b)) for b in beta_choices})
    if not alphas or not betas:
        raise ValueError("modulator choice sets must be non-empty")
    if keep_records < 0:
        raise ValueError(f"keep_records must be >= 0, got {keep_records}")
    n_index = config.setting.n
    # effective parameter per (alpha, beta) pair, pair index i * len(betas) + j
    offset = config.setting.delta_omega - wrap_angle(base_phi)
    pair_delta = wrap_angle(np.add.outer(offset + np.array(alphas), betas)).ravel()

    records = {}

    def tally_block(rng, block, count):
        pair = rng.integers(0, pair_delta.size, size=count)
        omega = sample_orientations(rng, count, n_index)
        keep = max(0, min(count, keep_records - block * BLOCK))
        head = slice(0, max(keep, SPOT if block == 0 else 0))
        if head.stop:
            o, d = omega[head], pair_delta[pair[head]]
            s_b = response(wrap_angle(-circle_transform_n(o, d, n_index)))
            _spot_check(_b_positive(o, d, n_index), s_b)
            records[block] = [
                WZTrialRecord(alphas[p // len(betas)], betas[p % len(betas)], response(w), int(s), w)
                for p, w, s in zip(pair[:keep].tolist(), omega[:keep].tolist(), s_b)
            ]
        counts = np.zeros(4 * pair_delta.size, dtype=np.int64)
        for lo in range(0, count, CHUNK):
            p, o = pair[lo:lo + CHUNK], omega[lo:lo + CHUNK]
            code = 4 * p + (o >= 0.0) + 2 * _b_positive(o, pair_delta[p], n_index)
            counts += np.bincount(code, minlength=counts.size)
        return counts.reshape(-1, 4)

    counts = sum(_map_blocks(config, tally_block))
    pairs = [(a, b) for a in alphas for b in betas]
    pair_tallies = {pair: _tally(c) for pair, c in zip(pairs, counts)}

    chsh_pairs = tuple((a, b) for a in alphas[:2] for b in betas[:2])
    # E(a,b) + E(a,b') + E(a',b) - E(a',b'), or E(a,b) alone without a 2x2 sub-grid
    used = chsh_pairs if len(chsh_pairs) == 4 else chsh_pairs[:1]
    empty = [pair for pair in used if pair_tallies[pair].n == 0]
    if empty:
        raise ValueError(f"no trials observed for modulator pair {empty[0]}")
    estimates = [pair_tallies[pair].estimate() for pair in used]
    return WZResult(
        pair_tallies=pair_tallies,
        chsh_pairs=chsh_pairs,
        chsh=_signed_sum(estimates, config.trials),
        records=tuple(r for block in sorted(records) for r in records[block]),
    )
