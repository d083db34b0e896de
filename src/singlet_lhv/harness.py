"""Seeded, block-keyed Monte Carlo experiment runner.

A run is identified by (seed, trials).  Its trials fall into fixed blocks
of BLOCK: block b holds trials [b BLOCK, (b + 1) BLOCK) and draws them
from its own counter-based Philox generator keyed by sha256(seed:b)
(``block_generator``, the only seeding rule), through the public
``sample_orientations``, the only draw path.  Inside a block every command
tallies joint-outcome histograms of exact integer counts: ``correlate`` and
``chsh`` from one sort (``_joint_counts``), ``wz`` by modulator pair and
orientation cell (``_grid_histogram``), where a cell away from every cut
has one outcome.  Every estimate comes from one moment rule
(``EstimateWithError.of_counts``).  Neither the cell count nor the stream
count changes a result, and memory stays O(BLOCK x streams) whatever the
trial count.
Uniform doubles use the 53-bit construction, so the uniform stream is the
same on every platform.

``streams`` only sets the number of worker threads (numpy releases the
GIL): stream i takes the i-th contiguous range of block indices, and the
partial tallies are added in stream order.  The first SPOT outcomes of
block 0 are checked against the validated public transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analytic import ChshSetting, chsh_expectation, correlation
from .model import (
    CUT_BAND,
    TWO_PI,
    MeasurementSetting,
    _b_positive,
    _wrap,
    b_frame_coordinate,
    circle_transform_n,
    response,
    sample_orientations,
    wrap_angle,
)

MAX_TALLY_WORKERS = 8
# Trials per seeded block; a run gets at most one thread per block.
BLOCK = 250_000
# Orientation cells of a wz run: each of its P modulator pairs splits the circle
# into max(1, CELLS // P) cells.
CELLS = 1 << 14
# Leading trials of block 0 checked against the public transform.  tests/test_kernel.py
# covers the kernel; this stays only while perfbench traces these calls (ROADMAP item 1).
SPOT = 256
# Settings per joint histogram: at most 7, as a trial's bin is a uint8.
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
    import hashlib  # here, not at the top: commands without Monte Carlo never load it

    digest = hashlib.sha256(f"{int(seed)}:{int(block)}".encode("ascii")).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def _map_streams(worker, assignments):
    """Run worker(*assignment) per stream; results in stream order."""
    if len(assignments) <= 1:
        return [worker(*a) for a in assignments]
    from concurrent.futures import ThreadPoolExecutor  # loaded by multi-stream runs only

    with ThreadPoolExecutor(max_workers=min(len(assignments), MAX_TALLY_WORKERS)) as pool:
        return list(pool.map(worker, *zip(*assignments)))


def _map_blocks(config: RunConfig, tally_block, first=0):
    """Per stream, the sum of tally_block(rng, block, count) over its range of blocks.

    Block b draws from rng = block_generator(seed, first + b); ``first`` gives
    each of several runs under one seed its own block indices.
    """
    streams = min(config.streams, config.blocks)
    edges = [config.blocks * i // streams for i in range(streams + 1)]

    def worker(lo, hi):
        # Allocated and freed at once, to keep blocks fault-free: freeing a 4 MB
        # mapping raises glibc's mmap threshold to 4 MB and its trim threshold to
        # 8 MB (mallopt(3), "dynamic mmap threshold"), so a block's arrays, all
        # below 4 MB, come from the heap and stay there between blocks.  Minor
        # faults per warm call at the benchmark's sizes: 3-4 on scan, chsh and
        # wz-n with this line; 11k-29k on wz-n without it, at 1.2-1.8 times the time.
        np.empty((2, BLOCK))
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
    j: 2 << ROWS bins of exact counts.

    The block is sorted once.  A code changes only at A's cut 0, an exact
    boundary, or near a cut d + k pi (k = -2..2) of a setting d: r = fl(omega - d)
    <= 0 exactly when omega <= d, |r| > pi flips within ulps of d -+ pi as fl is
    monotone, and _b_positive's band test holds only within CUT_BAND of a cut.
    So the trials within 2 CUT_BAND of a cut go through _b_positive, and the first
    trial of each run between them stands for the run, counted with its length.
    _b_positive stays the only outcome rule; the sort only compresses its input.
    """
    s = np.sort(omega)
    d = _wrap(np.array(column, dtype=float)).ravel()
    cuts = np.add.outer(np.pi * np.arange(-2, 3), d).ravel()
    lo = s.searchsorted(cuts - 2 * CUT_BAND, "left")
    hi = s.searchsorted(cuts + 2 * CUT_BAND, "right")
    # every trial in a window, and the first of each run: after a window or at A's cut
    width = hi - lo
    inside = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
    idx = np.unique(np.concatenate([[0, s.searchsorted(0.0)], hi, inside]))
    idx = idx[idx < s.size]
    weight = np.diff(idx, append=s.size)
    o = s[idx]
    pos_a = (o >= 0.0).view(np.uint8)
    hist = []
    for i in range(0, len(column), ROWS):
        code = pos_a.copy()
        for j, pos_b in enumerate(_b_positive(o, column[i:i + ROWS], n), start=1):
            code += pos_b.view(np.uint8) << j
        hist.append(np.bincount(code, weights=weight, minlength=2 << ROWS))
    return np.array(hist, dtype=np.int64)


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


def stream_tallies(config: RunConfig) -> list[TrialTally]:
    """Per-stream partial tallies in stream order; their sum depends on (seed, trials) only."""
    return [_tally(joint[0]) for joint in _joints(config, [config.setting])]


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
    joint = sum(_joints(config, settings))
    estimates = [_tally(joint[i // ROWS], i % ROWS).estimate() for i in range(len(settings))]
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
            _tally(sum(_joints(config, [ms], first=k * config.blocks))[0]).estimate()
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


def _cell_codes(pair_delta, n, cells):
    """wz's joint code 4 p + [A = +1] + 2 [B = +1] per (orientation cell, modulator pair p), or -1.

    Cell j holds the trials whose key floor((omega + pi) cells / 2 pi), at most
    cells - 1, is j: up to the key's rounding, which moves a trial by ulps, the
    trials on [-pi + j w, -pi + (j + 1) w) with w = 2 pi / cells.  A cell of a
    pair is flagged (-1) when, widened by 2 CUT_BAND and a rounding slack, it
    meets 0, +-pi or a cut d, d -+ pi of the pair's setting d (the images d -+ 2 pi
    reach only the end cells, which meet -+pi).  In any other cell A is constant, and
    _b_positive is arc membership (its docstring), which is constant between
    cuts; so the cell's midpoint gives every trial's code.
    """
    edges = np.linspace(-np.pi, np.pi, cells + 1)[:, None, None]
    cuts = np.concatenate([np.add.outer(pair_delta, np.pi * np.arange(-1, 2)),
                           np.tile([0.0, -np.pi, np.pi], (pair_delta.size, 1))], axis=1)
    reach = 2 * CUT_BAND + 1e-9
    flagged = ((edges[:-1] - reach <= cuts) & (cuts <= edges[1:] + reach)).any(axis=2)
    mid = 0.5 * (edges[:-1, :, 0] + edges[1:, :, 0])
    code = 4 * np.arange(pair_delta.size) + (mid >= 0.0) + 2 * _b_positive(mid, pair_delta, n)
    return np.where(flagged, -1, code)


def _grid_histogram(pair, omega, pair_delta, codes, n):
    """Histogram of trials over the keys cell * pairs + pair of _cell_codes.

    A trial in a flagged cell takes _b_positive at its own pair's setting and
    is binned past the cells, at codes.size + its code.
    """
    cells, pairs = codes.shape
    t = omega + np.pi
    t *= cells / TWO_PI
    key = t.view(np.int64)
    np.copyto(key, t, casting="unsafe")  # in place, and the floor as t >= 0
    np.minimum(key, cells - 1, out=key)
    key *= pairs
    key += pair
    (idx,) = (codes < 0).ravel()[key].nonzero()
    p, o = pair[idx], omega[idx]
    key[idx] = codes.size + 4 * p + (o >= 0.0) + 2 * _b_positive(o, pair_delta[p], n)
    return np.bincount(key, minlength=codes.size + 4 * pairs)


def _grid_counts(hist, codes):
    """Joint counts (pairs, 4) of a sum of _grid_histogram."""
    flat = codes.ravel()
    counts = hist[flat.size:].copy()
    np.add.at(counts, flat[flat >= 0], hist[:flat.size][flat >= 0])
    return counts.reshape(-1, 4)


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

    codes = _cell_codes(pair_delta, n_index, max(1, CELLS // pair_delta.size))
    records = {}

    def tally_block(rng, block, count):
        pair = rng.integers(0, pair_delta.size, size=count, dtype=np.uint32)
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
        return _grid_histogram(pair, omega, pair_delta, codes, n_index)

    counts = _grid_counts(sum(_map_blocks(config, tally_block)), codes)
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
