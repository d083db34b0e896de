import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from singlet_lhv.analytic import (
    OPTIMAL_CHSH_SETTING,
    BellCheck,
    ChshSetting,
    JointDistribution,
    bell_inequality_sides,
    bell_violation_map,
    chsh_expectation,
    chsh_value,
    correlation,
    joint_probabilities,
    linear_law_curve,
    linear_model_correlation,
    transform_curve,
)
from singlet_lhv.hidden_values import coarse_partition
from singlet_lhv.model import orientation_density, wrap_angle

deltas = st.floats(min_value=-math.pi, max_value=math.pi - 1e-9)


def test_joint_probabilities_examples():
    d = joint_probabilities(math.pi / 2)
    assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == pytest.approx((0.25,) * 4)
    d = joint_probabilities(0.0)
    assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == pytest.approx((0.0, 0.5, 0.5, 0.0))
    d = joint_probabilities(math.pi)
    assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == pytest.approx((0.5, 0.0, 0.0, 0.5))


def test_joint_distribution_validates():
    with pytest.raises(ValueError):
        JointDistribution(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        JointDistribution(1.5, -0.5, 0.0, 0.0)


@given(deltas)
def test_joint_probabilities_symmetry_and_sum(delta):
    d = joint_probabilities(delta)
    assert d.p_pp == d.p_mm
    assert d.p_pm == d.p_mp
    assert d.p_pp + d.p_pm + d.p_mp + d.p_mm == pytest.approx(1.0, abs=1e-12)


def test_correlation_examples():
    assert correlation(0.0) == -1.0
    assert correlation(math.pi / 2) == pytest.approx(0.0, abs=1e-16)
    assert correlation(math.pi / 3) == pytest.approx(-0.5, abs=1e-15)


@given(deltas)
def test_correlation_consistent_with_joint(delta):
    assert joint_probabilities(delta).correlation == pytest.approx(
        float(correlation(delta)), abs=1e-12
    )


@pytest.mark.parametrize("delta", np.linspace(0.01, math.pi, 25))
def test_correlation_equals_subset_integral(delta):
    # E = 4 * integral of the density over [0, delta] - 1
    integral, _ = quad(orientation_density, 0.0, delta, epsabs=1e-13)
    assert 4.0 * integral - 1.0 == pytest.approx(float(correlation(delta)), abs=1e-10)


def test_bell_inequality_examples():
    chk = bell_inequality_sides(math.pi / 3, 2 * math.pi / 3)
    assert chk == BellCheck(lhs=pytest.approx(1.0), rhs=pytest.approx(0.5), violated=True)
    chk = bell_inequality_sides(0.0, 0.0)
    assert (chk.lhs, chk.rhs, chk.violated) == (0.0, 0.0, False)
    chk = bell_inequality_sides(0.0, math.pi / 2)
    assert chk.lhs == pytest.approx(1.0)
    assert chk.rhs == pytest.approx(1.0)
    assert not chk.violated  # equality is not a violation


def test_bell_inequality_rejects_bad_order():
    with pytest.raises(ValueError):
        bell_inequality_sides(2.0, 1.0)
    with pytest.raises(ValueError):
        bell_inequality_sides(-0.1, 1.0)


def test_bell_violation_map_finds_violations():
    rows = bell_violation_map(40)
    assert any(v for *_xs, v in rows)
    d1, d2, lhs, rhs, violated = max(rows, key=lambda r: r[2] - r[3])
    assert violated and lhs > rhs


@pytest.mark.parametrize("points", [1, 2, 7, 30])
def test_bell_violation_map_equals_the_loop_over_pairs(points):
    grid = np.linspace(0.0, math.pi, points)
    want = []
    for i, d1 in enumerate(grid):
        for d2 in grid[i:]:
            chk = bell_inequality_sides(d1, d2)
            want.append((float(d1), float(d2), chk.lhs, chk.rhs, chk.violated))
    assert bell_violation_map(points) == want


def test_chsh_value_frozen_examples():
    # optimal setting reaches the quantum bound
    assert chsh_value(OPTIMAL_CHSH_SETTING) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    # degenerate all-zero angles: the first two terms add to -2, the
    # last two cancel; confirmed by direct evaluation
    assert chsh_value(ChshSetting(0.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
    # and this arrangement cancels completely
    assert chsh_value(ChshSetting(math.pi / 2, 0.0, math.pi)) == pytest.approx(0.0, abs=1e-15)


def test_chsh_value_matches_term_sum():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = rng.uniform(-math.pi, math.pi, 3)
        s = ChshSetting(a, b, c)
        direct = abs(
            correlation(b)
            + correlation(c)
            + correlation(wrap_angle(b - a))
            - correlation(wrap_angle(c - a))
        )
        assert chsh_value(s) == pytest.approx(float(direct), abs=1e-14)


@given(st.floats(min_value=-1e3, max_value=1e3))
def test_correlation_at_n1_is_minus_cos(delta):
    assert correlation(delta) == -np.cos(wrap_angle(delta))
    assert correlation(delta, 1) == -np.cos(wrap_angle(delta))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_correlation_is_the_arc_measure_expectation(n):
    # E_n = sum of s_a s_b times the |sin(n w)|/4 mass of each outcome subset
    grid = np.linspace(-math.pi, math.pi, 400)
    for delta in grid:
        want = sum(sub.s_a * sub.s_b * sub.measure(n) for sub in coarse_partition(delta))
        assert abs(correlation(delta, n) - want) <= 1e-12
    assert correlation(grid, n).tolist() == [correlation(d, n) for d in grid]


def test_correlation_rejects_a_bad_density_index():
    for n in (0, -2, 1.5):
        with pytest.raises(ValueError):
            correlation(0.3, n)


@given(deltas, deltas, deltas, deltas)
def test_relative_orientations_shift_by_the_phase(a, b, c, phi):
    s = ChshSetting(a, b, c)
    want = [wrap_angle(r - phi) for r in s.relative_orientations()]
    assert s.relative_orientations(phi).tolist() == want


@given(deltas, deltas, deltas, deltas, st.integers(1, 40))
def test_chsh_value_is_the_magnitude_of_the_expectation(a, b, c, phi, n):
    s = ChshSetting(a, b, c)
    r = s.relative_orientations(phi)
    e = chsh_expectation(s, phi, n)
    assert e == correlation(r[0], n) + correlation(r[1], n) + correlation(r[2], n) - correlation(r[3], n)
    assert chsh_value(s, phi, n) == abs(e)


def chsh_grid_max(points=21):
    """Maximum of chsh_value over a grid containing the optimal setting.

    Axis ranges [0, pi] x [0, pi] x [-pi, 0] with `points` uniform values
    each put (pi/2, pi/4, -pi/4) exactly on the grid for points = 21.
    Returns (max_value, argmax ChshSetting).
    """
    base = np.linspace(0.0, np.pi, points)
    # chsh_value over all (d, d', d'') at once; argmax keeps the loop's first maximum
    values = np.abs(chsh_expectation(ChshSetting(*np.meshgrid(base, base, -base, indexing="ij"))))
    i, j, k = np.unravel_index(np.argmax(values), values.shape)
    return float(values[i, j, k]), ChshSetting(d_omega=base[i], d_omega_p=base[j], d_omega_pp=-base[k])


def test_chsh_grid_scan_attains_quantum_bound():
    best, argmax = chsh_grid_max(points=21)
    assert best > 2.0
    assert best == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    # the optimum lies on the grid, so the argmax matches it exactly
    assert (argmax.d_omega, argmax.d_omega_p, argmax.d_omega_pp) == pytest.approx(
        (math.pi / 2, math.pi / 4, -math.pi / 4), abs=1e-9
    )


@pytest.mark.parametrize("points", [1, 2, 5, 9])
def test_chsh_grid_max_equals_the_loop_over_settings(points):
    # the reference loop: first strict maximum of chsh_value in (d, d', d'') order
    base = np.linspace(0.0, np.pi, points)
    best, best_setting = -1.0, None
    for d in base:
        for dp in base:
            for dpp in -base:
                s = ChshSetting(d_omega=d, d_omega_p=dp, d_omega_pp=dpp)
                if chsh_value(s) > best:
                    best, best_setting = chsh_value(s), s
    assert chsh_grid_max(points) == (best, best_setting)


# sup over delta of |E_n - sawtooth| is exactly this constant over n
SAWTOOTH_GAP = math.cos(math.asin(2 / math.pi)) + (2 / math.pi) * math.asin(2 / math.pi) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_family_reaches_the_sawtooth_at_rate_c_over_n(n):
    delta = np.linspace(-math.pi, math.pi, 2_000_001)
    gap = np.max(np.abs(correlation(delta, n) - (2 * np.abs(delta) / math.pi - 1)))
    # a grid maximum stays below the supremum; this grid came within 6e-11 of it at n = 16
    assert -1e-13 < SAWTOOTH_GAP - n * gap < 1e-10


def degree_grid_chsh_max(n, step=1):
    """Max |chsh_expectation| at density index n on chsh_grid_max's axes in `step`-degree steps.

    The CHSH sum is f(d, d') + g(d, d'') with f = E(d') + E(d' - d) and
    g = E(d'') - E(d'' - d), so at each d the maximum over (d', d'') adds two
    one-dimensional extremes.  Returns (maximum, its ChshSetting).
    """
    base = np.radians(np.arange(0, 181, step))
    d, e = np.meshgrid(base, base, indexing="ij")
    f = correlation(e, n) + correlation(wrap_angle(e - d), n)
    g = correlation(-e, n) - correlation(wrap_angle(-e - d), n)
    rows = np.arange(base.size)
    found = []
    for sign in (1.0, -1.0):
        j, k = np.argmax(sign * f, axis=1), np.argmax(sign * g, axis=1)
        total = sign * (f[rows, j] + g[rows, k])
        i = int(np.argmax(total))
        found.append((float(total[i]), ChshSetting(base[i], base[j[i]], -base[k[i]])))
    return max(found, key=lambda item: item[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 32])
def test_chsh_maximum_on_a_degree_grid_is_2_plus_2_root2_minus_1_over_n(n):
    # every finite n violates CHSH, by an excess falling as 1/n
    bound = 2 + 2 * (math.sqrt(2) - 1) / n
    best, setting = degree_grid_chsh_max(n)
    assert bound - 5e-4 < best <= bound + 1e-12
    assert abs(chsh_expectation(setting, 0.0, n)) == pytest.approx(best, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 32])
def test_chsh_bound_is_attained_at_the_n1_optimum_scaled_by_1_over_n(n):
    # three terms at spacing pi/(4n), one at 3 pi/(4n): 3 E_n(pi/4n) - E_n(3 pi/4n)
    setting = ChshSetting(math.pi / (2 * n), math.pi / (4 * n), -math.pi / (4 * n))
    assert chsh_expectation(setting, 0.0, n) == pytest.approx(-2 - 2 * (math.sqrt(2) - 1) / n, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_degree_grid_chsh_max_equals_the_full_grid_scan(n):
    base = np.radians(np.arange(0, 181, 4))
    grid = ChshSetting(*np.meshgrid(base, base, -base, indexing="ij"))
    full = np.max(np.abs(chsh_expectation(grid, 0.0, n)))
    assert degree_grid_chsh_max(n, step=4)[0] == pytest.approx(full, abs=1e-14)


def test_linear_law_curve_examples():
    omegas, linear = linear_law_curve(0.0, 64)
    np.testing.assert_allclose(linear, omegas, atol=1e-15)
    omegas, linear = linear_law_curve(math.pi / 3, 6)
    idx = np.argmin(np.abs(omegas))
    assert linear[idx] == pytest.approx(wrap_angle(omegas[idx] - math.pi / 3), abs=1e-15)
    with pytest.raises(ValueError):
        linear_law_curve(0.0, 1)


def test_transform_curve_passes_through_anchor_points():
    omegas, transformed, linear = transform_curve(math.pi / 3, 2001)
    at = lambda x: transformed[np.argmin(np.abs(omegas - x))]
    assert at(math.pi / 3) == pytest.approx(0.0, abs=1e-3)
    assert at(0.0) == pytest.approx(-math.pi / 3, abs=1e-3)
    dev7 = np.max(np.abs(wrap_angle(transform_curve(math.pi / 3, 2001, 7)[1] - linear)))
    dev1 = np.max(np.abs(wrap_angle(transformed - linear)))
    assert dev7 < dev1


def test_linear_model_correlation_is_the_sawtooth():
    assert linear_model_correlation(0.0) == -1.0
    assert linear_model_correlation(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert linear_model_correlation(-math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_linear_model_correlation_verified_by_brute_force():
    # uniform orientations pushed through the linear map, then signs
    rng = np.random.default_rng(12)
    omega = rng.uniform(-math.pi, math.pi, 400_000)
    for delta in (0.4, 1.2, 2.5):
        s_a = np.where(omega >= 0, 1, -1)
        s_b = np.where(wrap_angle(-(omega - delta)) >= 0, 1, -1)
        mc = float(np.mean(s_a * s_b))
        assert mc == pytest.approx(float(linear_model_correlation(delta)), abs=0.01)
