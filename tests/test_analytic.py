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
    chsh_grid_max,
    chsh_value,
    correlation,
    joint_probabilities,
    linear_law_curve,
    linear_model_correlation,
    transform_curve,
)
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
