"""Seeded, stream-parallel Monte Carlo experiment runner.

Randomness comes from counter-based Philox generators: each stream owns
an independent generator keyed by a hash of (seed, stream index) and
draws its whole share of the trials at once.  The outcome kernel and
the tally then run over fixed chunks of CHUNK trials (its first SPOT
outcomes are checked against the validated public transform); tallies
are exact integers merged in stream-index order.  Results depend only on
(seed, trials, stream partition), never on execution or merge timing,
and are reproducible across platforms (uniform doubles use the 53-bit
construction).

Streams are embarrassingly parallel; when more than one stream is
requested the tally loop runs them on a small thread pool (numpy
releases the GIL) and still reduces in index order.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .analytic import ChshSetting, correlation
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
# Trials per transform-and-tally step; a chunk boundary never changes a result.
CHUNK = 1 << 15
# Leading trials per stream checked against the public transform.  The
# kernel's correctness rests on tests/test_kernel.py; this check stays only
# while perfbench's traced frame metrics need these public calls (ROADMAP 6).
SPOT = 256
# Settings evaluated together on a chunk; they share cos omega.  On the
# 25-point scan, 4 rows ran faster than 1, 2, 8 or all 25 (cache-sized
# temporaries).
ROWS = 4


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


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with standard error and the trial count behind it."""

    value: float
    std_error: float
    n: int

    @classmethod
    def for_product_mean(cls, product_sum: int, n: int) -> "EstimateWithError":
        value = product_sum / n
        return cls(value=value, std_error=float(np.sqrt(max(0.0, 1.0 - value * value) / n)), n=n)


def partition_streams(seed, streams, trials):
    """Deterministic per-stream (sub_seed, sub_count) assignments.

    Sub-seeds are 128-bit integers derived by hashing (seed, index);
    counts split trials as evenly as possible, remainder to the lowest
    indices.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    base, extra = divmod(int(trials), int(streams))
    out = []
    for idx in range(streams):
        digest = hashlib.sha256(f"{int(seed)}:{idx}".encode("ascii")).digest()
        sub_seed = int.from_bytes(digest[:16], "little")
        count = base + (1 if idx < extra else 0)
        out.append((sub_seed, count))
    return out


def stream_generator(sub_seed) -> np.random.Generator:
    """Philox generator keyed directly by a 128-bit sub-seed."""
    return np.random.Generator(np.random.Philox(key=sub_seed))


def _map_streams(worker, assignments):
    """Run worker(sub_seed, count) per stream; results in index order."""
    jobs = [(s, c) for s, c in assignments if c > 0]
    if len(jobs) <= 1:
        return [worker(s, c) for s, c in jobs]
    with ThreadPoolExecutor(max_workers=min(len(jobs), MAX_TALLY_WORKERS)) as pool:
        futures = [pool.submit(worker, s, c) for s, c in jobs]
        return [f.result() for f in futures]


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

    @property
    def product_sum(self) -> int:
        return self.n_pp + self.n_mm - self.n_pm - self.n_mp

    def estimate(self) -> EstimateWithError:
        """Mean of the outcome product s_a * s_b with its standard error."""
        return EstimateWithError.for_product_mean(self.product_sum, self.n)

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


def _draw_checked(sub_seed, count, settings, n_index):
    """A stream's orientations, once the kernel matched the public path on the first SPOT."""
    omega = sample_orientations(stream_generator(sub_seed), count, n_index)
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


def _tallies(config: RunConfig, settings) -> list[list[TrialTally]]:
    """Per stream, one tally per setting: the settings share the stream's sample set."""
    n_index = config.setting.n
    column = np.array([[ms.delta] for ms in settings])

    def worker(sub_seed, count):
        omega = _draw_checked(sub_seed, count, settings, n_index)
        n_a, (n_pp, n_b) = 0, np.zeros((2, len(settings)), dtype=np.int64)
        for lo in range(0, count, CHUNK):
            o = omega[lo:lo + CHUNK]
            pos_a = o >= 0.0
            n_a += int(np.count_nonzero(pos_a))
            for i in range(0, len(settings), ROWS):
                pos_b = _b_positive(o, column[i:i + ROWS], n_index)
                n_pp[i:i + ROWS] += np.count_nonzero(pos_a & pos_b, axis=1)
                n_b[i:i + ROWS] += np.count_nonzero(pos_b, axis=1)
        return [
            TrialTally(count, pp, n_a - pp, b - pp, count - n_a - b + pp)
            for pp, b in zip(n_pp.tolist(), n_b.tolist())
        ]

    return _map_streams(worker, partition_streams(config.seed, config.streams, config.trials))


def stream_tallies(config: RunConfig) -> list[TrialTally]:
    """Per-stream outcome tallies, ordered by stream index."""
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

    Each grid point runs with phi = 0 and delta_omega = delta under the
    same (seed, streams) configuration, so every point sees the same
    sample set; each stream draws it once and tallies it at all points.
    The analytic column is the n = 1 closed form -cos(delta); for n > 1
    it is a reference curve only (no closed form exists for the
    estimate's expectation).
    """
    settings = [MeasurementSetting.from_delta(delta, n=config.setting.n) for delta in delta_grid]
    rows = []
    for delta, per_stream in zip(delta_grid, zip(*_tallies(config, settings))):
        est = sum(per_stream, EMPTY_TALLY).estimate()
        analytic = float(correlation(delta))
        rows.append(ScanRow(float(wrap_angle(delta)), est.value, est.std_error, analytic, est.n))
    return rows


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
    """
    orientations = setting.relative_orientations()
    phi = config.setting.phi
    n_index = config.setting.n

    if config.gauge_fixed:
        settings = [MeasurementSetting(delta_omega=r - phi, phi=0.0, n=n_index) for r in orientations]
        column = np.array([[ms.delta] for ms in settings])

        def worker(sub_seed, count):
            omega = _draw_checked(sub_seed, count, settings, n_index)
            hist = np.zeros(9, dtype=np.int64)
            for lo in range(0, count, CHUNK):
                o = omega[lo:lo + CHUNK]
                b = _b_positive(o, column, n_index).view(np.int8)
                # s_a * (s1 + s2 + s3 - s4) with s = 2 [B = +1] - 1
                x = 2 * (b[0] + b[1] + b[2] - b[3]) - 2
                x = np.where(o >= 0.0, x, -x)
                hist += np.bincount(x + 4, minlength=9)
            return hist

        assignments = partition_streams(config.seed, config.streams, config.trials)
        hist = sum(_map_streams(worker, assignments))
        counts = {v - 4: int(c) for v, c in enumerate(hist) if c}
        n = sum(counts.values())
        total = sum(v * c for v, c in counts.items())
        total_sq = sum(v * v * c for v, c in counts.items())
        mean = total / n
        var = max(0.0, total_sq / n - mean * mean)
        est = EstimateWithError(value=mean, std_error=float(np.sqrt(var / n)), n=n)
        outside = sum(c for v, c in counts.items() if abs(v) > 2)
        c = [correlation(ms.delta) for ms in settings]
        return ChshEstimate(
            estimate=est,
            analytic=float(c[0] + c[1] + c[2] - c[3]),
            out_of_range_fraction=outside / n,
            per_trial_counts=counts,
        )

    estimates = []
    for k, rel in enumerate(orientations):
        # fresh trials per orientation: derive a distinct sub-seed so the
        # four correlations use disjoint sample sets
        digest = hashlib.sha256(f"{int(config.seed)}/orientation:{k}".encode("ascii")).digest()
        sub = replace(
            config,
            seed=int.from_bytes(digest[:8], "little"),
            setting=MeasurementSetting(delta_omega=rel, phi=phi, n=n_index),
        )
        estimates.append(estimate_correlation(sub))
    signs = (1.0, 1.0, 1.0, -1.0)
    return ChshEstimate(
        estimate=_signed_sum(estimates, config.trials),
        analytic=float(
            sum(sign * correlation(wrap_angle(rel - phi)) for sign, rel in zip(signs, orientations))
        ),
        out_of_range_fraction=None,
        per_trial_counts=None,
    )


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

    ``keep_records`` retains that many trial records from the start of
    each stream (for dump/inspection; tallies always use all trials).
    """
    alphas = sorted(float(wrap_angle(a)) for a in set(alpha_choices))
    betas = sorted(float(wrap_angle(b)) for b in set(beta_choices))
    if not alphas or not betas:
        raise ValueError("modulator choice sets must be non-empty")
    n_index = config.setting.n
    # effective parameter per (alpha, beta) pair, pair index i * len(betas) + j
    offset = config.setting.delta_omega - wrap_angle(base_phi)
    pair_delta = wrap_angle(np.add.outer(offset + np.array(alphas), betas)).ravel()

    def worker(sub_seed, count):
        rng = stream_generator(sub_seed)
        ai = rng.integers(0, len(alphas), size=count)
        bi = rng.integers(0, len(betas), size=count)
        omega = sample_orientations(rng, count, n_index)
        pair = ai * len(betas) + bi
        head = slice(0, max(SPOT, keep_records))
        o, d = omega[head], pair_delta[pair[head]]
        s_b = response(wrap_angle(-circle_transform_n(o, d, n_index)))
        _spot_check(_b_positive(o, d, n_index), s_b)
        hist = np.zeros(4 * pair_delta.size, dtype=np.int64)
        for lo in range(0, count, CHUNK):
            o, p = omega[lo:lo + CHUNK], pair[lo:lo + CHUNK]
            pos_a, pos_b = o >= 0.0, _b_positive(o, pair_delta[p], n_index)
            hist += np.bincount(4 * p + 2 * pos_a + pos_b, minlength=hist.size)
        records = tuple(
            WZTrialRecord(alphas[ai[k]], betas[bi[k]], response(float(omega[k])), int(s_b[k]),
                          float(omega[k]))
            for k in range(min(keep_records, count))
        )
        return hist, records

    partials = _map_streams(worker, partition_streams(config.seed, config.streams, config.trials))
    # per pair: counts of (s_a, s_b) = (-, -), (-, +), (+, -), (+, +)
    counts = sum(hist for hist, _ in partials).reshape(-1, 4)
    pairs = [(a, b) for a in alphas for b in betas]
    pair_tallies = {
        pair: TrialTally(int(c.sum()), int(c[3]), int(c[2]), int(c[1]), int(c[0]))
        for pair, c in zip(pairs, counts)
    }
    records = [r for _, recs in partials for r in recs]

    chsh_pairs = tuple((a, b) for a in alphas[:2] for b in betas[:2])
    # E(a,b) + E(a,b') + E(a',b) - E(a',b'), or E(a,b) alone without a 2x2 sub-grid
    used = chsh_pairs if len(chsh_pairs) == 4 else chsh_pairs[:1]
    empty = [pair for pair in used if pair_tallies[pair].n == 0]
    if len(used) == 4 and empty:
        raise ValueError(f"no trials observed for modulator pair {empty[0]}")
    estimates = [pair_tallies[pair].estimate() for pair in used]
    return WZResult(
        pair_tallies=pair_tallies,
        chsh_pairs=chsh_pairs,
        chsh=_signed_sum(estimates, config.trials),
        records=tuple(records),
    )
