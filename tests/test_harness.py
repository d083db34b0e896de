import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_lhv import harness
from singlet_lhv.analytic import (
    OPTIMAL_CHSH_SETTING,
    ChshSetting,
    chsh_expectation,
    chsh_value,
    correlation,
    joint_probabilities,
)
from singlet_lhv.cli import EXIT_OK, main
from singlet_lhv.harness import (
    EMPTY_TALLY,
    EstimateWithError,
    RunConfig,
    TrialTally,
    block_generator,
    estimate_chsh,
    estimate_correlation,
    run_weihs_zeilinger,
    scan_correlation,
    tally_outcomes,
)
from singlet_lhv.model import MeasurementSetting, sample_orientations


def config(delta, trials=100_000, seed=0, streams=4, n=1, **kw):
    return RunConfig(
        trials=trials,
        seed=seed,
        streams=streams,
        setting=MeasurementSetting.from_delta(delta, n=n),
        **kw,
    )


# --------------------------------------------------------- plumbing


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0, seed=1)
    with pytest.raises(ValueError):
        RunConfig(trials=1, seed=1, streams=0)
    with pytest.raises(ValueError):
        RunConfig(trials=1, seed=-1)


def test_estimate_with_error_formula():
    est = EstimateWithError.of_counts({1: 50, -1: 50})
    assert est.std_error == pytest.approx(0.1)
    est = EstimateWithError.of_counts({-1: 100})
    assert est.value == -1.0 and est.std_error == 0.0


def test_estimate_of_counts_is_the_sample_mean_with_its_standard_error():
    values = np.repeat([-4, -2, 0, 2, 4], [3, 11, 20, 9, 7])
    est = EstimateWithError.of_counts({-4: 3, -2: 11, 0: 20, 2: 9, 4: 7})
    assert est.n == values.size
    assert est.value == pytest.approx(values.mean(), abs=1e-15)
    assert est.std_error == pytest.approx(values.std() / math.sqrt(values.size), rel=1e-12)


def test_tally_merge_is_order_invariant():
    # merge is exact integer addition: reversed stream order is identical
    tallies = [
        TrialTally(n=i, n_pp=i, n_pm=0, n_mp=0, n_mm=0) for i in range(1, 6)
    ]
    fwd = sum(tallies, EMPTY_TALLY)
    rev = sum(reversed(tallies), EMPTY_TALLY)
    assert fwd == rev


def test_tally_deterministic_and_stream_count_changes_samples():
    a = tally_outcomes(config(1.0, seed=21, streams=4))
    b = tally_outcomes(config(1.0, seed=21, streams=4))
    assert a == b
    c = tally_outcomes(config(1.0, seed=21, streams=1))
    assert c.n == a.n
    assert c == a  # the stream count only sets the thread count


# ------------------------------------------------------ correlation


def test_exact_anticorrelation_at_zero():
    tally = tally_outcomes(config(0.0, trials=200_000, seed=2))
    assert tally.discordant == 0
    est = estimate_correlation(config(0.0, trials=10_000, seed=3))
    assert est.value == -1.0 and est.std_error == 0.0


@pytest.mark.parametrize("delta", [math.pi / 2, math.pi / 3, 2.4, -1.1])
def test_correlation_within_four_sigma(delta):
    est = estimate_correlation(config(delta, trials=200_000, seed=11))
    bound = 4 * math.sqrt((1 - correlation(delta) ** 2) / 200_000)
    assert abs(est.value - correlation(delta)) <= max(bound, 4 * est.std_error)


def test_joint_frequencies_within_four_sigma():
    delta = math.pi / 3
    tally = tally_outcomes(config(delta, trials=200_000, seed=13))
    jp = joint_probabilities(delta).as_dict()
    for key, freq in tally.frequencies().items():
        p = jp[key]
        sigma = math.sqrt(p * (1 - p) / tally.n)
        assert abs(freq - p) <= 4 * sigma


def test_scan_correlation_rows():
    grid = [0.0, math.pi / 2, math.pi / 3]
    rows = scan_correlation(grid, config(0.0, trials=50_000, seed=5))
    assert [r.delta for r in rows] == pytest.approx(grid)
    assert rows[0].estimate == -1.0
    for r in rows:
        assert abs(r.estimate - r.analytic) <= max(4 * r.std_error, 1e-12)
        assert r.n == 50_000


def test_correlation_with_n_index():
    # at n = 2 the correlation is no longer -cos; just check the
    # estimator is deterministic and bounded
    est1 = estimate_correlation(config(1.0, n=2, seed=8))
    est2 = estimate_correlation(config(1.0, n=2, seed=8))
    assert est1 == est2
    assert -1.0 <= est1.value <= 1.0


# ------------------------------------------------------------- chsh


def test_chsh_gauge_fixed_at_optimal_setting():
    result = estimate_chsh(OPTIMAL_CHSH_SETTING, config(0.0, trials=400_000, seed=17))
    assert abs(result.estimate.value) == pytest.approx(
        2 * math.sqrt(2), abs=4 * result.estimate.std_error
    )
    assert result.out_of_range_fraction > 0.0
    assert set(result.per_trial_counts) <= {-4, -2, 0, 2, 4}
    assert abs(result.analytic) == pytest.approx(chsh_value(OPTIMAL_CHSH_SETTING), abs=1e-12)


def test_chsh_all_zero_angles_is_constant_minus_two():
    # sign-table enumeration: three anti-correlated terms and one
    # subtracted anti-correlated term give s_a * (-2 s_a) = -2 always
    result = estimate_chsh(ChshSetting(0.0, 0.0, 0.0), config(0.0, trials=20_000, seed=19))
    assert result.per_trial_counts == {-2: 20_000}
    assert result.estimate.value == -2.0
    assert result.estimate.std_error == 0.0
    assert result.out_of_range_fraction == 0.0


def test_chsh_agrees_with_analytic_at_three_settings():
    for setting in (
        OPTIMAL_CHSH_SETTING,
        ChshSetting(0.0, 0.0, 0.0),
        ChshSetting(math.pi / 2, 0.0, math.pi),
    ):
        result = estimate_chsh(setting, config(0.0, trials=300_000, seed=23))
        tol = max(4 * result.estimate.std_error, 1e-12)
        assert abs(result.estimate.value) == pytest.approx(chsh_value(setting), abs=tol)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0), st.integers(1, 12))
def test_both_chsh_estimators_report_the_same_analytic(phi, n):
    setting = ChshSetting(1.1, -0.4, 2.9)
    ms = MeasurementSetting(delta_omega=0.0, phi=phi, n=n)
    gauge, orthodox = (
        estimate_chsh(setting, RunConfig(trials=300, seed=2, setting=ms, gauge_fixed=g))
        for g in (True, False)
    )
    assert gauge.analytic == orthodox.analytic == float(chsh_expectation(setting, ms.phi, n))


def test_chsh_orthodox_estimator():
    cfg = config(0.0, trials=200_000, seed=29, gauge_fixed=False)
    result = estimate_chsh(OPTIMAL_CHSH_SETTING, cfg)
    assert result.out_of_range_fraction is None
    assert result.per_trial_counts is None
    assert abs(result.estimate.value) == pytest.approx(
        2 * math.sqrt(2), abs=4 * result.estimate.std_error
    )


def test_chsh_deterministic():
    r1 = estimate_chsh(OPTIMAL_CHSH_SETTING, config(0.0, trials=50_000, seed=31))
    r2 = estimate_chsh(OPTIMAL_CHSH_SETTING, config(0.0, trials=50_000, seed=31))
    assert r1.estimate == r2.estimate
    assert r1.per_trial_counts == r2.per_trial_counts


# --------------------------------------------------------------- wz


def test_wz_single_choice_reduces_to_plain_correlation():
    delta = 1.0
    cfg = config(delta, trials=100_000, seed=37)
    wz = run_weihs_zeilinger(0.0, [0.0], [0.0], cfg)
    only = wz.pair_correlations()[(0.0, 0.0)]
    assert abs(only.value - correlation(delta)) <= 4 * only.std_error
    assert only.n == 100_000


def test_wz_choice_frequencies_uniform():
    cfg = config(0.0, trials=80_000, seed=41)
    wz = run_weihs_zeilinger(0.0, [0.0, math.pi / 2], [math.pi / 4, -math.pi / 4], cfg)
    for tally in wz.pair_tallies.values():
        p = tally.n / 80_000
        assert abs(p - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / 80_000)


def test_wz_effective_parameter_per_pair():
    phi = 0.4
    d_omega = 0.3
    cfg = RunConfig(
        trials=200_000,
        seed=43,
        streams=4,
        setting=MeasurementSetting(delta_omega=d_omega, phi=phi),
    )
    wz = run_weihs_zeilinger(phi, [0.5], [-0.2], cfg)
    est = wz.pair_correlations()[(0.5, -0.2)]
    want = correlation(d_omega - phi + 0.5 - 0.2)
    assert abs(est.value - want) <= 4 * est.std_error


def test_wz_optimal_modulators_reach_quantum_bound():
    cfg = config(0.0, trials=400_000, seed=47)
    wz = run_weihs_zeilinger(0.0, [0.0, math.pi / 2], [math.pi / 4, -math.pi / 4], cfg)
    assert abs(wz.chsh.value) == pytest.approx(2 * math.sqrt(2), abs=4 * wz.chsh.std_error)
    assert wz.chsh_pairs == ((0.0, -math.pi / 4), (0.0, math.pi / 4),
                             (math.pi / 2, -math.pi / 4), (math.pi / 2, math.pi / 4))


def test_large_index_correlations_approach_linear_model():
    # with a large density index the correlations move from -cos toward
    # the uniform linear-model sawtooth 2|delta|/pi - 1
    from singlet_lhv.analytic import linear_model_correlation

    grid = np.linspace(-math.pi, math.pi, 13)
    gaps = {}
    for n in (1, 32):
        worst = 0.0
        for i, delta in enumerate(grid):
            est = estimate_correlation(config(delta, trials=100_000, seed=700 + i, n=n))
            worst = max(worst, abs(est.value - float(linear_model_correlation(delta))))
        gaps[n] = worst
    assert gaps[32] < gaps[1]
    assert gaps[1] > 0.15  # -cos is genuinely far from the sawtooth
    assert gaps[32] < 0.05


def test_wz_records_and_empty_sets():
    cfg = config(0.0, trials=1000, seed=51)
    wz = run_weihs_zeilinger(0.0, [0.1], [0.2], cfg, keep_records=5)
    assert len(wz.records) == 5
    for rec in wz.records:
        assert (rec.alpha, rec.beta) == (0.1, 0.2)
        assert rec.s_a in (-1, 1) and rec.s_b in (-1, 1)
    with pytest.raises(ValueError):
        run_weihs_zeilinger(0.0, [], [0.2], cfg)


def test_wz_records_consistent_with_measure_pair():
    from singlet_lhv.model import measure_pair, wrap_angle

    phi, d_omega = 0.3, 0.8
    cfg = RunConfig(
        trials=2000,
        seed=53,
        streams=2,
        setting=MeasurementSetting(delta_omega=d_omega, phi=phi),
    )
    wz = run_weihs_zeilinger(phi, [0.2, 1.0], [-0.4, 0.6], cfg, keep_records=40)
    assert wz.records
    for rec in wz.records:
        effective = wrap_angle(d_omega - phi + rec.alpha + rec.beta)
        out = measure_pair(rec.omega_a, MeasurementSetting.from_delta(effective))
        assert (out.s_a, out.s_b) == (rec.s_a, rec.s_b)


# ----------------------------------------------------------- blocks

SMALL_BLOCK = 4_099


def test_block_generators_are_distinct_and_reproducible():
    seed = 2**64 - 2
    draws = [block_generator(s, b).random(8) for s, b in ((seed, 0), (seed, 1), (seed + 1, 0))]
    assert np.array_equal(block_generator(seed, 0).random(8), draws[0])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert not np.any(draws[i] == draws[j])

BLOCK_RUNS = {
    "correlate": ("correlate", "--delta-grid=-3:3:5", "--n", "3", "--trials", "30001", "--seed", "61"),
    "chsh": ("chsh", "--d-omega", "1.5707963", "--d-omega-p", "0.78539816", "--d-omega-pp=-0.78539816",
             "--trials", "30001", "--seed", "62", "--per-trial-distribution"),
    "chsh-orthodox": ("chsh", "--d-omega", "1.5707963", "--d-omega-p", "0.78539816",
                      "--d-omega-pp=-0.78539816", "--trials", "30001", "--seed", "63", "--independent"),
    "wz": ("wz", "--alpha-set", "0,1.5707963", "--beta-set=0.78539816,-0.78539816", "--n", "7",
           "--trials", "30001", "--seed", "64"),
    "wz-records": ("wz", "--alpha-set", "0,1.5707963", "--beta-set=0.78539816,-0.78539816",
                   "--trials", "30001", "--seed", "65", "--dump-records", "5000"),
}


def cli_body(capsys, argv):
    """CLI output after its effective-config header line."""
    assert main(list(argv)) == EXIT_OK
    header, body = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("# effective-config: ")
    return body


@pytest.mark.parametrize("name", sorted(BLOCK_RUNS))
def test_results_do_not_depend_on_the_stream_count(monkeypatch, capsys, name):
    monkeypatch.setattr(harness, "BLOCK", SMALL_BLOCK)
    bodies = {s: cli_body(capsys, (*BLOCK_RUNS[name], "--streams", str(s))) for s in (1, 2, 3, 8)}
    assert bodies[1].count("\n") > 1
    assert bodies[2] == bodies[1] and bodies[3] == bodies[1] and bodies[8] == bodies[1]


def test_no_draw_exceeds_one_block(monkeypatch, capsys):
    monkeypatch.setattr(harness, "BLOCK", SMALL_BLOCK)
    sizes = []

    def recording(rng, size, n=1):
        sizes.append(size)
        return sample_orientations(rng, size, n)

    monkeypatch.setattr(harness, "sample_orientations", recording)
    for argv in BLOCK_RUNS.values():
        cli_body(capsys, (*argv, "--streams", "3"))
    assert max(sizes) == SMALL_BLOCK
    assert sum(sizes) == 30001 * (1 + 1 + 4 + 1 + 1)


def test_records_are_the_first_trials_across_block_boundaries(monkeypatch):
    # 5 blocks on 5 threads; the first four add their records to one shared dict
    monkeypatch.setattr(harness, "BLOCK", SMALL_BLOCK)
    alphas, betas = [0.0, 1.0], [-0.5, 0.5, 2.0]
    cfg = config(0.3, trials=20_000, seed=67, streams=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = run_weihs_zeilinger(0.0, alphas, betas, cfg, keep_records=15_000).records
    finally:
        sys.setswitchinterval(interval)
    want = []
    for block in range(cfg.blocks):
        count = min(SMALL_BLOCK, cfg.trials - block * SMALL_BLOCK)
        rng = block_generator(67, block)
        pair = rng.integers(0, len(alphas) * len(betas), size=count)
        omega = sample_orientations(rng, count)
        want += [(alphas[p // 3], betas[p % 3], w) for p, w in zip(pair.tolist(), omega.tolist())]
    assert [(r.alpha, r.beta, r.omega_a) for r in records] == want[:15_000]


def test_orthodox_chsh_draws_each_term_from_its_own_blocks(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", SMALL_BLOCK)
    keys = []

    def recording(seed, block):
        keys.append((seed, block))
        return block_generator(seed, block)

    monkeypatch.setattr(harness, "block_generator", recording)
    cfg = config(0.0, trials=10_000, seed=71, streams=2, gauge_fixed=False)
    estimate_chsh(OPTIMAL_CHSH_SETTING, cfg)
    assert sorted(keys) == [(71, b) for b in range(4 * cfg.blocks)]
