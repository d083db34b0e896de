"""The outcome kernel and the tallies built on it, against the public transform, an arc oracle
and passes over every trial."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlet_lhv import harness, model
from singlet_lhv.analytic import OPTIMAL_CHSH_SETTING
from singlet_lhv.harness import (
    RunConfig,
    block_generator,
    estimate_chsh,
    run_weihs_zeilinger,
    stream_tallies,
    tally_outcomes,
)
from singlet_lhv.model import (
    MeasurementSetting,
    _b_positive,
    b_frame_coordinate,
    circle_transform_n,
    response,
    sample_orientations,
    wrap_angle,
)

deltas = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)
# the kernel wraps its settings itself, so an unwrapped +pi must give the public outcomes too
wrapped_deltas = st.one_of(deltas, st.just(math.pi))
density_index = st.sampled_from([1, 2, 7])


def public_b_positive(omega, delta, n):
    """B = +1 through the validated public path, one trial at a time."""
    return np.array([
        response(b_frame_coordinate(o, MeasurementSetting.from_delta(d, n=n))) > 0
        for o, d in zip(omega, np.broadcast_to(delta, np.shape(omega)))
    ])


def cut_points(delta, n=1):
    """{delta - pi, 0, delta, -pi}, the cell edges k pi / n, and their float neighbours, wrapped."""
    cuts = np.array([delta - math.pi, 0.0, -0.0, delta, -math.pi, delta + math.pi])
    cuts = np.concatenate([cuts, np.arange(-n, n + 1) * math.pi / n])
    near = [cuts, np.nextafter(cuts, math.inf), np.nextafter(cuts, -math.inf)]
    return np.asarray(wrap_angle(np.concatenate(near)))


@given(
    delta=deltas,
    n=density_index,
    others=st.lists(deltas, min_size=1, max_size=8),
)
def test_kernel_matches_public_path_scalar_delta(delta, n, others):
    omega = np.concatenate([cut_points(delta, n), others])
    np.testing.assert_array_equal(_b_positive(omega, delta, n), public_b_positive(omega, delta, n))


@given(
    centre=deltas,
    n=density_index,
    pairs=st.lists(st.tuples(deltas, wrapped_deltas), min_size=1, max_size=8),
)
def test_kernel_matches_public_path_per_trial_delta(centre, n, pairs):
    cuts = cut_points(centre, n)
    omega = np.concatenate([cuts, [o for o, _ in pairs]])
    delta = np.concatenate([np.full(cuts.size, centre), [d for _, d in pairs]])
    np.testing.assert_array_equal(_b_positive(omega, delta, n), public_b_positive(omega, delta, n))


def test_kernel_matches_public_path_on_samples():
    omega = sample_orientations(np.random.Generator(np.random.Philox(key=4)), 20_000)
    for n in (1, 2, 7):
        for delta in np.linspace(-math.pi, math.pi, 17)[:-1]:
            setting = MeasurementSetting.from_delta(delta, n=n)
            expected = response(b_frame_coordinate(omega, setting)) > 0
            np.testing.assert_array_equal(_b_positive(omega, setting.delta, n), expected)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_kernel_wraps_a_setting_of_plus_pi(n):
    # the public path takes delta = +pi as -pi; near omega = -pi the two disagree unwrapped
    omega = cut_points(0.4, n)
    np.testing.assert_array_equal(_b_positive(omega, math.pi, n), public_b_positive(omega, math.pi, n))


def test_kernel_takes_a_column_of_settings():
    omega = sample_orientations(np.random.Generator(np.random.Philox(key=5)), 5_000, 7)
    column = np.array([[-2.0], [0.0], [0.5], [math.pi]])
    expected = np.stack([_b_positive(omega, d, 7) for d in column[:, 0]])
    np.testing.assert_array_equal(_b_positive(omega, column, 7), expected)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("rows", [1, 3, harness.ROWS])
def test_joint_counts_bin_the_public_outcomes(n, rows):
    drawn = sample_orientations(np.random.Generator(np.random.Philox(key=6)), 4_321, n)
    omega = np.concatenate([drawn, cut_points(0.4, n)])
    column = np.array([[-2.5], [0.4], [1.9], [-math.pi]])[:rows]
    public = [MeasurementSetting.from_delta(d, n=n) for d in column[:, 0]]
    bits = [response(omega) > 0] + [response(b_frame_coordinate(omega, ms)) > 0 for ms in public]
    code = sum(b.astype(int) << j for j, b in enumerate(bits))
    joint = harness._joint_counts(omega, column, n)
    np.testing.assert_array_equal(joint, [np.bincount(code, minlength=2 << harness.ROWS)])


@pytest.mark.parametrize("n", [1, 7])
def test_joint_counts_of_all_scan_settings_equal_the_per_group_histograms(n):
    omega = sample_orientations(np.random.Generator(np.random.Philox(key=7)), 3_333, n)
    column = np.array([[wrap_angle(d)] for d in np.linspace(0.0, 3.14159265, 25)])
    together = harness._joint_counts(omega, column, n)
    groups = [column[i:i + harness.ROWS] for i in range(0, len(column), harness.ROWS)]
    assert together.shape == (len(groups), 2 << harness.ROWS)
    for joint, group in zip(together, groups):
        np.testing.assert_array_equal(joint, harness._joint_counts(omega, group, n)[0])
        assert joint.sum() == omega.size


def on_arc(omega, delta):
    """Arc membership: omega in [delta - pi, delta) on the circle."""
    if delta >= 0.0:
        return (omega >= delta - math.pi) & (omega < delta)
    return (omega < delta) | (omega >= delta + math.pi)


def off_cuts(omega, delta, tol=1e-6):
    gap = lambda c: np.abs(wrap_angle(omega - c))  # noqa: E731
    return (gap(delta) > tol) & (gap(delta - math.pi) > tol)


@given(delta=deltas, omega=st.lists(deltas, min_size=1, max_size=40))
def test_b_is_plus_exactly_on_the_arc(delta, omega):
    omega = np.array(omega)
    keep = off_cuts(omega, delta)
    np.testing.assert_array_equal(_b_positive(omega, delta)[keep], on_arc(omega, delta)[keep])


def test_b_is_plus_exactly_on_the_arc_for_samples():
    omega = sample_orientations(np.random.Generator(np.random.Philox(key=8)), 200_000)
    for delta in np.linspace(-math.pi, math.pi, 33)[:-1]:
        keep = off_cuts(omega, delta)
        assert keep.mean() > 0.999
        np.testing.assert_array_equal(_b_positive(omega, delta)[keep], on_arc(omega, delta)[keep])


def band_points(deltas):
    """(omega, delta) pairs with omega at +-1e-16 ... 1e-5 from delta and from delta - pi, wrapped."""
    offsets = np.logspace(-16, -5, 45)
    offsets = np.concatenate([offsets, -offsets])
    d = np.repeat(np.asarray(wrap_angle(np.asarray(deltas))), 2 * offsets.size)
    near = np.tile(np.concatenate([offsets, offsets - math.pi]), len(deltas))
    return np.asarray(wrap_angle(d + near)), d


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_kernel_matches_public_path_in_the_band_around_the_cuts(n):
    # the arc rule alone disagrees with the transform up to about 1e-8 from a cut
    deltas = np.concatenate([
        np.random.Generator(np.random.Philox(key=9)).uniform(-math.pi, math.pi, 300),
        [0.0, math.pi / 2, -math.pi / 2, -math.pi],
    ])
    omega, delta = band_points(deltas)
    public = response(wrap_angle(-circle_transform_n(omega, delta, n))) > 0
    np.testing.assert_array_equal(_b_positive(omega, delta, n), public)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("shape", ["scalar", "column", "per-trial"])
def test_kernel_sends_exactly_the_band_to_the_transform(monkeypatch, n, shape):
    sent = []
    name = "_transform" if n == 1 else "_transform_n"
    transform = getattr(model, name)

    def counted(o, *rest):
        sent.append(o.size)
        return transform(o, *rest)

    monkeypatch.setattr(model, name, counted)
    rng = np.random.Generator(np.random.Philox(key=10))
    drawn = sample_orientations(rng, 200_000, n)
    # planted trials on both sides of the band's edges, around both cuts of delta = 1.1 and -2.3
    offsets = model.CUT_BAND * np.array([0.0, 1e-10, 0.5, 0.99, 1.01, 2.0])
    offsets = np.concatenate([offsets, -offsets, offsets - math.pi, -offsets - math.pi])
    planted_delta = np.repeat([1.1, -2.3], offsets.size)
    omega = np.concatenate([drawn, wrap_angle(planted_delta + np.tile(offsets, 2))])
    if shape == "scalar":
        delta = 1.1
    elif shape == "column":
        delta = np.array([[1.1], [-2.3], [0.0], [math.pi]])
    else:
        delta = np.concatenate([rng.uniform(-math.pi, math.pi, drawn.size), planted_delta])
    _b_positive(omega, delta, n)
    direct = np.sum(~off_cuts(omega, delta, model.CUT_BAND))
    assert direct > 0
    assert sum(sent) == direct


# Trials per step of the reference passes over every trial below.
REFERENCE_CHUNK = 1 << 14


def chunked_joint_counts(omega, column, n):
    """The pass over every trial, in chunks, that the sorted _joint_counts replaced."""
    groups = [column[i:i + harness.ROWS] for i in range(0, len(column), harness.ROWS)]
    hist = np.zeros((len(groups), 2 << harness.ROWS), dtype=np.int64)
    for lo in range(0, omega.size, REFERENCE_CHUNK):
        o = omega[lo:lo + REFERENCE_CHUNK]
        pos_a = (o >= 0.0).view(np.uint8)
        for h, rows in zip(hist, groups):
            code = pos_a.copy()
            for j, pos_b in enumerate(_b_positive(o, rows, n), start=1):
                code += pos_b.view(np.uint8) << j
            h += np.bincount(code, minlength=h.size)
    return hist


def settings_around(values):
    """The values, their float neighbours and antipodes, and points 0.5 and 1.5 CUT_BAND off them."""
    v = np.asarray(values, dtype=float)
    band = model.CUT_BAND * np.array([[0.5], [1.5]])
    near = [v, np.nextafter(v, math.inf), np.nextafter(v, -math.inf), v + math.pi, v + band, v - band]
    return np.asarray(wrap_angle(np.concatenate([np.ravel(x) for x in near])))


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_sorted_joint_counts_equal_the_pass_over_every_trial(n):
    rng = np.random.Generator(np.random.Philox(key=12))
    drawn = sample_orientations(rng, 20_000, n)
    edges = [0.0, -0.0, math.pi, -math.pi, math.pi - 1e-7, 1e-7 - math.pi]
    settings = np.concatenate([settings_around(np.concatenate([edges, drawn[:4]])), rng.uniform(-3, 3, 6)])
    # trials in the band around every cut, and repeats of cuts, of A's cut 0 and of -pi
    planted, _ = band_points(settings)
    repeats = np.repeat(np.concatenate([settings[:6], wrap_angle(settings[:6] - math.pi)]), 4)
    omega = rng.permutation(np.concatenate([drawn, planted, repeats]))
    columns = [settings[:, None]] + [settings[i:i + 1, None] for i in range(settings.size)]
    for block in (omega, omega[:1], omega[:2], repeats):
        for column in columns:
            np.testing.assert_array_equal(
                harness._joint_counts(block, column, n), chunked_joint_counts(block, column, n)
            )


def run_all(n):
    setting = MeasurementSetting(delta_omega=0.9, phi=0.2, n=n)
    config = RunConfig(trials=70_001, seed=21, streams=2, setting=setting)
    wz = run_weihs_zeilinger(0.2, [0.0, 1.3, -2.0], [0.4, -0.4], config, keep_records=5_000)
    return (
        stream_tallies(config),
        estimate_chsh(OPTIMAL_CHSH_SETTING, config).per_trial_counts,
        wz.pair_tallies,
        wz.records,
    )


@pytest.mark.parametrize("n", [1, 7])
def test_cell_count_does_not_change_any_tally(monkeypatch, n):
    reference = run_all(n)
    for cells in (1, 64, 1 << 14, 1 << 16):
        monkeypatch.setattr(harness, "CELLS", cells)
        assert run_all(n) == reference


def chunked_wz_counts(pair, omega, pair_delta, n):
    """wz's joint counts (pairs, 4) from _b_positive on every trial, in chunks, as before the grid."""
    counts = np.zeros(4 * pair_delta.size, dtype=np.int64)
    for lo in range(0, omega.size, REFERENCE_CHUNK):
        p, o = pair[lo:lo + REFERENCE_CHUNK], omega[lo:lo + REFERENCE_CHUNK]
        code = 4 * p + (o >= 0.0) + 2 * _b_positive(o, pair_delta[p], n)
        counts += np.bincount(code, minlength=counts.size)
    return counts.reshape(-1, 4)


def grid_counts(pair, omega, pair_delta, n):
    codes = harness._cell_codes(pair_delta, n, max(1, harness.CELLS // pair_delta.size))
    hist = harness._grid_histogram(pair, omega, pair_delta, codes, n, np.empty(omega.size))
    return harness._grid_counts(hist, codes)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("pairs", [1, 4, 900])
def test_grid_tally_equals_the_pass_over_every_trial(n, pairs):
    rng = np.random.Generator(np.random.Philox(key=13))
    special = [0.0, -math.pi, math.pi / 2, -math.pi / 2, math.pi - 1e-7, 1e-7 - math.pi]
    drawn_delta = rng.uniform(-math.pi, math.pi, pairs)
    pair_delta = np.asarray(wrap_angle(np.concatenate([special, drawn_delta])))[:pairs]
    cells = max(1, harness.CELLS // pairs)
    # per pair: its cuts, A's cut +-0 and the ends of the circle, each also 0.5 and 1.5 CUT_BAND off,
    # then the cell edges and the points where the key's floor steps
    cuts = np.concatenate([np.add.outer(pair_delta, math.pi * np.arange(-1, 2)),
                           np.tile([0.0, -0.0, -math.pi, math.pi], (pairs, 1))], axis=1)
    near_cuts = (cuts[:, :, None] + model.CUT_BAND * np.array([0.0, 0.5, -0.5, 1.5, -1.5])).reshape(pairs, -1)
    edges = np.concatenate([np.linspace(-math.pi, math.pi, cells + 1),
                            np.arange(cells + 1) * (2 * math.pi / cells) - math.pi])
    points = np.concatenate([near_cuts, np.tile(edges, (pairs, 1))], axis=1)
    # each point and its float neighbours, wrapped, at its own pair
    points = np.stack([points, np.nextafter(points, 4.0), np.nextafter(points, -4.0)], axis=2)
    planted = np.asarray(wrap_angle(points.ravel()))
    planted_pair = np.repeat(np.arange(pairs), points[0].size)
    drawn = sample_orientations(rng, 20_000, n)
    omega = np.concatenate([drawn, planted])
    pair = np.concatenate([rng.integers(0, pairs, size=drawn.size), planted_pair]).astype(np.uint32)
    order = rng.permutation(omega.size)
    omega, pair = omega[order], pair[order]
    np.testing.assert_array_equal(
        grid_counts(pair, omega, pair_delta, n), chunked_wz_counts(pair, omega, pair_delta, n)
    )


def test_spot_check_stops_a_wrong_kernel(monkeypatch):
    monkeypatch.setattr(harness, "_b_positive", lambda o, d, n=1: o < d)
    config = RunConfig(trials=5_000, seed=2, setting=MeasurementSetting.from_delta(0.8, n=7))
    with pytest.raises(ArithmeticError, match="kernel disagrees"):
        stream_tallies(config)
    with pytest.raises(ArithmeticError, match="kernel disagrees"):
        estimate_chsh(OPTIMAL_CHSH_SETTING, config)
    with pytest.raises(ArithmeticError, match="kernel disagrees"):
        run_weihs_zeilinger(0.0, [0.0, 1.0], [0.5, -0.5], config)


def reference_draws(config, n_pairs=0):
    """(pair index or None, orientations) of the run, drawn block by block as the harness does.

    With n_pairs (WZ), each block draws its modulator pair indices first.
    """
    pairs, omegas = [], []
    for b in range(config.blocks):
        rng = block_generator(config.seed, b)
        count = min(harness.BLOCK, config.trials - b * harness.BLOCK)
        if n_pairs:
            pairs.append(rng.integers(0, n_pairs, size=count))
        omegas.append(sample_orientations(rng, count, config.setting.n))
    return (np.concatenate(pairs) if pairs else None), np.concatenate(omegas)


@pytest.mark.parametrize("n", [1, 7])
def test_tallies_match_the_public_path_on_the_same_draws(monkeypatch, n):
    monkeypatch.setattr(harness, "BLOCK", 4_099)
    setting = MeasurementSetting(delta_omega=2.2, phi=0.4, n=n)
    config = RunConfig(trials=50_001, seed=31, streams=2, setting=setting)

    tally = tally_outcomes(config)
    _, omega = reference_draws(config)
    s_a, s_b = response(omega), response(b_frame_coordinate(omega, setting))
    assert (tally.n_pp, tally.n_pm, tally.n_mp) == (
        np.sum((s_a > 0) & (s_b > 0)), np.sum((s_a > 0) & (s_b < 0)), np.sum((s_a < 0) & (s_b > 0))
    )

    deltas = [wrap_angle(r - setting.phi) for r in OPTIMAL_CHSH_SETTING.relative_orientations()]
    s = [response(b_frame_coordinate(omega, MeasurementSetting.from_delta(d, n=n))) for d in deltas]
    found, counts = np.unique(response(omega) * (s[0] + s[1] + s[2] - s[3]), return_counts=True)
    expected = {int(v): int(c) for v, c in zip(found, counts)}
    assert estimate_chsh(OPTIMAL_CHSH_SETTING, config).per_trial_counts == expected

    alphas, betas = [-1.0, 0.3], [0.2, 1.1, 2.9]
    wz = run_weihs_zeilinger(setting.phi, alphas, betas, config)
    pair, omega = reference_draws(config, len(alphas) * len(betas))
    for (a, b), tally in wz.pair_tallies.items():
        mask = pair == alphas.index(a) * len(betas) + betas.index(b)
        delta = wrap_angle(setting.delta_omega - setting.phi + a + b)
        s_a = response(omega[mask])
        s_b = response(wrap_angle(-circle_transform_n(omega[mask], delta, n)))
        assert (tally.n_pp, tally.n_pm, tally.n_mp) == (
            np.sum((s_a > 0) & (s_b > 0)), np.sum((s_a > 0) & (s_b < 0)), np.sum((s_a < 0) & (s_b > 0))
        )
