"""Calibration of the Monte Carlo error bars across seeds.

For each estimator and density index, z = (estimate - exact) / std_error is
taken over SEEDS fixed seeds of TRIALS trials each.  If every estimate is
unbiased and its std_error is its true spread, the z are close to
independent standard normals (each estimate is a mean of at least about 500
bounded trials).  Then their mean is N(0, 1/S), and (S - 1) times their
sample variance is chi-square with S - 1 degrees of freedom, for S = SEEDS.

Each case has its own seeds, so the z of different cases are independent,
and C (S - 1) times the mean of the C cases' sample variances is
chi-square with C (S - 1) degrees of freedom.

The bounds are quantiles of those laws, set by FALSE_ALARM alone: both
tails of the mean and of the variance in every case, and both tails of the
pooled variance.  With Bonferroni over all of those tails, a correct program
fails this file with probability at most FALSE_ALARM.  If a check fails,
investigate the estimator; never re-seed or resize to pass.

What the checks catch, measured: a std_error scaled by 1.2 takes the pooled
variance of z to 0.68, below its lower bound of 0.86.  Orthodox CHSH drawing
all four terms from the same blocks takes the variance of its z to 1.68 at
n = 1, above the case bound of 1.45 (and to 1.27 at n = 7).
"""

import functools
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from singlet_lhv.analytic import OPTIMAL_CHSH_SETTING, chsh_expectation, correlation
from singlet_lhv.harness import RunConfig, estimate_chsh, estimate_correlation, run_weihs_zeilinger
from singlet_lhv.model import MeasurementSetting, wrap_angle

SEEDS = 200
TRIALS = 2_000
FALSE_ALARM = 1e-3
DELTA = 1.1
# state phase of the CHSH runs, so phi enters both the estimate and the exact value
PHI = 0.3
ALPHAS, BETAS = (0.0, math.pi / 2), (math.pi / 4, -math.pi / 4)


def _config(seed, setting):
    return RunConfig(trials=TRIALS, seed=seed, streams=1, setting=setting)


def _correlate(seed, n):
    est = estimate_correlation(_config(seed, MeasurementSetting.from_delta(DELTA, n=n)))
    return est, correlation(DELTA, n)


def _chsh(independent):
    def run(seed, n):
        cfg = _config(seed, MeasurementSetting(delta_omega=0.0, phi=PHI, n=n))
        est = estimate_chsh(OPTIMAL_CHSH_SETTING, cfg, independent=independent).estimate
        return est, chsh_expectation(OPTIMAL_CHSH_SETTING, PHI, n)

    return run


def _wz(seed, n):
    setting = MeasurementSetting(delta_omega=0.0, phi=PHI, n=n)
    result = run_weihs_zeilinger(ALPHAS, BETAS, _config(seed, setting))
    # E(a,b) + E(a,b') + E(a',b) - E(a',b') over the result's CHSH pairs
    exact = sum(
        sign * correlation(wrap_angle(setting.delta_omega - PHI + a + b), n)
        for sign, (a, b) in zip((1, 1, 1, -1), result.chsh_pairs)
    )
    return result.chsh, exact


ESTIMATORS = {
    "correlate": _correlate,
    "chsh": _chsh(independent=False),
    "chsh-independent": _chsh(independent=True),
    "wz": _wz,
}
CASES = [(name, n) for name in ESTIMATORS for n in (1, 7)]

# per case, the mean and the variance of z, each with two tails; then the pooled variance's two
TAIL = FALSE_ALARM / (4 * len(CASES) + 2)
MEAN_BOUND = norm.isf(TAIL) / math.sqrt(SEEDS)


def _variance_bounds(dof):
    """Quantiles at TAIL of a sample variance with dof degrees of freedom, for unit variance."""
    return chi2.ppf(TAIL, dof) / dof, chi2.isf(TAIL, dof) / dof


@functools.cache
def z_scores(name, n):
    """z of ESTIMATORS[name] at density index n over SEEDS seeds.

    Each case has its own seeds, so z scores of different cases are independent.
    """
    first = CASES.index((name, n)) * SEEDS
    z = []
    for seed in range(first, first + SEEDS):
        est, exact = ESTIMATORS[name](seed, n)
        assert est.n == TRIALS and est.std_error > 0
        z.append((est.value - float(exact)) / est.std_error)
    return np.array(z)


def test_bounds_are_the_stated_quantiles():
    # 34 tails at 1e-3 in all: about 4 sigma on each statistic
    assert MEAN_BOUND == pytest.approx(0.284, abs=0.001)
    assert _variance_bounds(SEEDS - 1) == pytest.approx((0.647, 1.454), abs=0.001)
    assert _variance_bounds(len(CASES) * (SEEDS - 1)) == pytest.approx((0.864, 1.149), abs=0.001)


@pytest.mark.parametrize("name, n", CASES)
def test_error_bars_are_calibrated_across_seeds(name, n):
    z = z_scores(name, n)
    lo, hi = _variance_bounds(SEEDS - 1)
    assert abs(z.mean()) <= MEAN_BOUND, f"mean z {z.mean():.3f}, bound {MEAN_BOUND:.3f}"
    assert lo <= z.var(ddof=1) <= hi, f"variance of z {z.var(ddof=1):.3f}, bounds [{lo:.3f}, {hi:.3f}]"


def test_pooled_variance_of_z_is_one():
    # a std_error off by the same factor everywhere shows here first
    variance = np.mean([z_scores(*case).var(ddof=1) for case in CASES])
    lo, hi = _variance_bounds(len(CASES) * (SEEDS - 1))
    assert lo <= variance <= hi, f"pooled variance of z {variance:.3f}, bounds [{lo:.3f}, {hi:.3f}]"
