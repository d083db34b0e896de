import cmath
import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_lhv import hidden_values
from singlet_lhv.analytic import joint_probabilities
from singlet_lhv.harness import block_generator
from singlet_lhv.hidden_values import (
    MATCH_TOL,
    CoarseSubset,
    ZeroMeasureSubsetError,
    _checked_measure,
    _sign,
    b_coarse_partition,
    coarse_partition,
    hidden_at_direction,
    hidden_triple,
    subset_averages,
    verify_weak_value_match,
)
from singlet_lhv.model import (
    MeasurementSetting,
    b_frame_coordinate,
    sample_orientations,
    wrap_angle,
)
from singlet_lhv.quantum import (
    AXES,
    PostSelection,
    bell_state,
    embed_a,
    polarization_operator,
    polarization_operator_b,
    weak_value,
)


# ------------------------------------------- quadrature reference


QUAD_EPSABS = 1e-10


def coarse_average(
    quantity: Callable[[float], complex],
    subset: CoarseSubset,
    *,
    weighted_integrand: Callable[[float], complex] | None = None,
    epsabs: float = QUAD_EPSABS,
) -> complex:
    """Density-weighted mean of a quantity over one coarse subset.

    Adaptive quadrature of quantity(w) * density(w); pass
    ``weighted_integrand`` when the product has a bounded closed form
    that the pointwise factors lack (the cotangent components).  The
    independent reference for subset_averages; needs scipy.
    """
    from scipy.integrate import quad

    den = _checked_measure(subset)
    if weighted_integrand is None:
        def weighted_integrand(w, _q=quantity):
            return _q(w) * 0.25 * abs(math.sin(w))

    num = 0.0 + 0.0j
    for lo, hi in subset.intervals:
        if hi - lo <= 0.0:
            continue
        re, _ = quad(lambda w: weighted_integrand(w).real, lo, hi, epsabs=epsabs, limit=200)
        im, _ = quad(lambda w: weighted_integrand(w).imag, lo, hi, epsabs=epsabs, limit=200)
        num += re + 1j * im
    return num / den


# Quantities paired with the three operators, with bounded g-weighted
# integrands (|sin| cancels every cotangent pole).
def quantity_reference(w: float) -> complex:
    return complex(_sign(w))


def _reference_weighted(w: float) -> complex:
    return complex(0.25 * math.sin(w))


def quantity_transverse(w: float) -> complex:
    """The cotangent component -sign(w) * cot(w) (bare s_flight)."""
    return complex(-_sign(w) / math.tan(w))


def _transverse_weighted(w: float) -> complex:
    return complex(-0.25 * math.cos(w))


def quantity_flight_axis(w: float) -> complex:
    """-s_perp * s_flight = i * cot(w), the flight-axis pairing."""
    return 1j / math.tan(w)


def _flight_axis_weighted(w: float) -> complex:
    return 1j * _sign(w) * 0.25 * math.cos(w)


def quantity_perp_phasor(w: float) -> complex:
    """Bare transverse phasor i * s_ref (not paired with an operator)."""
    return 1j * _sign(w)


OPERATOR_QUANTITIES = {
    "in-plane": (quantity_reference, _reference_weighted),
    "orthogonal-in-plane": (quantity_transverse, _transverse_weighted),
    "flight": (quantity_flight_axis, _flight_axis_weighted),
}


# ------------------------------------------------------------ triple


def test_hidden_triple_examples():
    t = hidden_triple(math.pi / 2)
    assert (t.s_ref, t.s_perp) == (1, 1j)
    assert t.s_flight == pytest.approx(0.0, abs=1e-15)
    t = hidden_triple(-math.pi / 2)
    assert (t.s_ref, t.s_perp) == (-1, -1j)
    assert t.s_flight == pytest.approx(0.0, abs=1e-15)
    t = hidden_triple(math.pi / 4)
    assert t.s_flight == pytest.approx(-1.0, abs=1e-12)


def test_hidden_triple_structure():
    for w in np.linspace(-math.pi + 0.01, math.pi - 0.01, 41):
        if abs(w) < 1e-9:
            continue
        t = hidden_triple(w)
        assert t.s_perp == 1j * t.s_ref
        assert t.s_flight == pytest.approx(-t.s_ref / math.tan(w), abs=1e-12)


def test_hidden_triple_pole_flags():
    assert hidden_triple(0.0).s_flight.real == -math.inf
    assert hidden_triple(-math.pi).s_flight.real == math.inf
    assert not cmath.isfinite(hidden_triple(0.0).s_flight)


def test_hidden_at_direction_examples():
    t = hidden_triple(0.7)
    assert hidden_at_direction(0.7, 0.0) == t.s_ref
    assert hidden_at_direction(0.7, math.pi / 2) == pytest.approx(t.s_perp, abs=1e-15)
    got = hidden_at_direction(math.pi / 4, math.pi / 4)
    want = math.sqrt(2) / 2 * (1 + 1j)
    assert got == pytest.approx(want, abs=1e-12)


def test_hidden_at_direction_is_a_phasor():
    for w in (0.3, -2.0):
        for dw in np.linspace(-math.pi, math.pi, 17):
            got = hidden_at_direction(w, dw)
            want = hidden_triple(w).s_ref * cmath.exp(1j * dw)
            assert got == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------- partition


@pytest.mark.parametrize("delta", [0.5, math.pi / 3, 2.9, -0.5, -2.9])
def test_partition_covers_circle_and_matches_probabilities(delta):
    subsets = coarse_partition(delta)
    total = sum(s.measure() for s in subsets)
    assert total == pytest.approx(1.0, abs=1e-12)
    jp = joint_probabilities(delta)
    by_label = {(s.s_a, s.s_b): s.measure() for s in subsets}
    assert by_label[(1, 1)] == pytest.approx(jp.p_pp, abs=1e-12)
    assert by_label[(1, -1)] == pytest.approx(jp.p_pm, abs=1e-12)
    assert by_label[(-1, 1)] == pytest.approx(jp.p_mp, abs=1e-12)
    assert by_label[(-1, -1)] == pytest.approx(jp.p_mm, abs=1e-12)


@pytest.mark.parametrize("delta", [0.5, 2.2, -1.3])
def test_b_side_partition_measures_match(delta):
    a_measures = {(s.s_a, s.s_b): s.measure() for s in coarse_partition(delta)}
    b_measures = {(s.s_a, s.s_b): s.measure() for s in b_coarse_partition(delta)}
    for key in a_measures:
        assert b_measures[key] == pytest.approx(a_measures[key], abs=1e-12)


def test_b_side_intervals_have_matching_sign():
    # on the B side the outcome s_b is the sign of the coordinate
    for delta in (0.8, -0.8):
        for s in b_coarse_partition(delta):
            for lo, hi in s.intervals:
                if hi - lo <= 0:
                    continue
                mid = 0.5 * (lo + hi)
                assert (1 if mid >= 0 else -1) == s.s_b


@pytest.mark.parametrize("delta", [0.8, 2.9, -0.8, -2.9])
def test_b_side_subsets_are_images_of_a_side_subsets(delta):
    # the frame map carries each A subset onto the B subset of the same outcome pair
    setting = MeasurementSetting.from_delta(delta)
    b_side = {(s.s_a, s.s_b): s.intervals for s in b_coarse_partition(delta)}
    for s in coarse_partition(delta):
        ((lo, hi),) = s.intervals
        omega_b = b_frame_coordinate(np.linspace(lo, hi, 41)[1:-1], setting)
        ((b_lo, b_hi),) = b_side[(s.s_a, s.s_b)]
        assert np.all((omega_b >= b_lo - 1e-12) & (omega_b <= b_hi + 1e-12)), (s.s_a, s.s_b)


# ----------------------------------------------------- coarse_average


def test_coarse_average_constant_is_exact():
    subsets = coarse_partition(1.1)
    pp = next(s for s in subsets if (s.s_a, s.s_b) == (1, 1))
    assert coarse_average(quantity_reference, pp) == pytest.approx(1.0 + 0j, abs=1e-12)


def test_coarse_average_cotangent_closed_forms():
    # -sin(d)/(1 - cos(d)) over the concordant-positive subset
    for delta in (math.pi / 2, 1.0, 2.5):
        pp = next(s for s in coarse_partition(delta) if (s.s_a, s.s_b) == (1, 1))
        got = coarse_average(quantity_transverse, pp)
        want = -math.sin(delta) / (1.0 - math.cos(delta))
        assert got == pytest.approx(want, abs=1e-10)
    # boundary case via an explicit full half-circle interval
    full = CoarseSubset(s_a=1, s_b=1, intervals=((0.0, math.pi),))
    assert coarse_average(quantity_transverse, full) == pytest.approx(0.0, abs=1e-10)


def test_coarse_average_zero_measure_raises():
    empty = next(s for s in coarse_partition(0.0) if (s.s_a, s.s_b) == (1, 1))
    with pytest.raises(ZeroMeasureSubsetError):
        coarse_average(quantity_reference, empty)


def test_coarse_average_handles_pointwise_pole_without_override():
    # integrand cot(w)*|sin(w)| is bounded; adaptive quadrature sees
    # finite interior nodes only
    pp = next(s for s in coarse_partition(2.0) if (s.s_a, s.s_b) == (1, 1))
    got = coarse_average(quantity_transverse, pp, weighted_integrand=None)
    want = -math.sin(2.0) / (1.0 - math.cos(2.0))
    assert got == pytest.approx(want, abs=1e-8)


def test_monte_carlo_matches_quadrature_for_bounded_quantities():
    # s_ref and the transverse phasor have unit-bounded estimators; the
    # cotangent component is averaged only by quadrature (its sample
    # mean has infinite variance) and is covered by the closed forms
    rng = block_generator(99, 0)
    omega = sample_orientations(rng, 1_000_000)
    delta = 1.2
    subsets = coarse_partition(delta)
    for s in subsets:
        inside = np.zeros(omega.shape, dtype=bool)
        for lo, hi in s.intervals:
            inside |= (omega >= lo) & (omega < hi)
        count = int(np.count_nonzero(inside))
        sel = omega[inside]
        stderr = 1.0 / math.sqrt(count)
        mc_ref = float(np.mean(np.where(sel >= 0, 1.0, -1.0)))
        qd_ref = coarse_average(quantity_reference, s)
        assert abs(mc_ref - qd_ref.real) < 4 * stderr
        mc_perp = complex(np.mean(1j * np.where(sel >= 0, 1.0, -1.0)))
        qd_perp = coarse_average(quantity_perp_phasor, s)
        assert abs(mc_perp - qd_perp) < 4 * stderr


def test_global_phasor_average_matches_marginal():
    # whole-circle average of the directional phasor vanishes, exactly
    # like the single-particle marginal of the entangled state
    for dw in (0.0, 0.9, -2.1):
        total = 0.0 + 0.0j
        for s in coarse_partition(0.7):
            total += s.measure() * coarse_average(
                lambda w, _dw=dw: hidden_at_direction(w, _dw), s
            )
        assert abs(total) < 1e-10
        psi = bell_state(0.3)
        op = embed_a(polarization_operator(dw, "in-plane"))
        assert abs(np.vdot(psi, op @ psi)) < 1e-10


# a spread of settings plus points within 0.05 rad of the degenerate {0, +-pi}
CLOSED_FORM_DELTAS = [
    d
    for d in (
        *np.linspace(-3.0, 3.0, 13),
        *(c + s * e for c in (0.0, math.pi, -math.pi) for e in (0.01, 0.03, 0.049) for s in (1, -1)),
    )
    if -math.pi < d < math.pi and d != 0.0
]


@pytest.mark.parametrize("delta", CLOSED_FORM_DELTAS)
def test_closed_form_averages_match_quadrature(delta):
    # quad is the independent reference for the closed forms the report uses
    for partition in (coarse_partition(delta), b_coarse_partition(delta)):
        for s in partition:
            averages = subset_averages(s)
            for axis, (quantity, weighted) in OPERATOR_QUANTITIES.items():
                want = coarse_average(quantity, s, weighted_integrand=weighted)
                assert abs(averages[axis] - want) <= 1e-12, (s.s_a, s.s_b, axis)


def test_quadrature_pairing_lists_the_operator_axes_in_order():
    # the closed forms iterate quantum.AXES; the quadrature pairing must name the same axes
    assert tuple(OPERATOR_QUANTITIES) == AXES


def test_closed_form_averages_reject_zero_measure():
    empty = next(s for s in coarse_partition(0.0) if (s.s_a, s.s_b) == (1, 1))
    with pytest.raises(ZeroMeasureSubsetError):
        subset_averages(empty)


def test_b_subsets_carry_the_measure_of_their_mirrored_a_subsets():
    for delta in (-2.5, -0.3, 0.7, 3.0):
        a_side = {(s.s_a, s.s_b): s.measure() for s in coarse_partition(delta)}
        for s in b_coarse_partition(delta):
            assert s.measure() == a_side[s.s_b, s.s_a]


# ------------------------------------------------------- match report


def test_weak_value_report_measures_each_a_subset_once(monkeypatch):
    calls = []
    measure = CoarseSubset.measure
    monkeypatch.setattr(CoarseSubset, "measure", lambda self, n=1: calls.append(self) or measure(self, n))
    report = verify_weak_value_match(0.3, 1.1)
    assert len(report.comparisons) == len(report.b_side_comparisons) == 12
    assert sorted((s.s_a, s.s_b) for s in calls) == sorted((s.s_a, s.s_b) for s in coarse_partition(report.delta))


def test_weak_value_report_averages_each_a_subset_once(monkeypatch):
    calls = []
    averages = hidden_values.subset_averages
    monkeypatch.setattr(hidden_values, "subset_averages", lambda s: calls.append(s) or averages(s))
    report = verify_weak_value_match(0.3, 1.1)
    assert len(report.comparisons) == len(report.b_side_comparisons) == 12
    assert calls == list(coarse_partition(report.delta))


@pytest.mark.parametrize(
    "phi, delta_omega", [(0.0, 0.4), (0.3, 2.9), (0.9, -1.3), (0.37, -2.1), (2.0, -0.1)]
)
def test_b_rows_read_the_mirrored_a_average(phi, delta_omega):
    report = verify_weak_value_match(phi, delta_omega)
    a_side = {(r.s_a, r.s_b, r.operator): r.model_average for r in report.comparisons}
    assert len(report.b_side_comparisons) == 12
    for row in report.b_side_comparisons:
        assert row.model_average == a_side[row.s_b, row.s_a, row.operator]


def test_weak_value_match_at_quarter_turn():
    report = verify_weak_value_match(0.0, math.pi / 2)
    assert not report.degenerate
    assert len(report.comparisons) == 12
    assert report.passed
    assert report.max_abs_diff <= MATCH_TOL
    assert report.b_side_passed
    assert len(report.b_side_comparisons) == 12


def test_weak_value_match_degenerate_cases():
    report = verify_weak_value_match(math.pi / 3, math.pi / 3)
    assert report.degenerate
    assert report.comparisons == ()
    assert not report.passed
    report = verify_weak_value_match(0.0, math.pi)
    assert report.degenerate


def test_weak_value_match_negative_delta():
    report = verify_weak_value_match(0.9, -1.3)
    assert not report.degenerate
    assert report.passed and report.b_side_passed


@settings(max_examples=25)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi - 1e-9),
    st.floats(min_value=-math.pi, max_value=math.pi - 1e-9),
)
def test_weak_value_match_random_settings(phi, delta_omega):
    # the absolute tolerance is meaningful away from the degenerate
    # settings, where both sides diverge like cot(delta/2) and float
    # cancellation dominates; stay 0.05 rad clear of them
    delta = wrap_angle(delta_omega - phi)
    if min(abs(delta), math.pi - abs(delta)) < 0.05:
        return
    report = verify_weak_value_match(phi, delta_omega)
    assert not report.degenerate
    assert report.passed, (phi, delta_omega, report.max_abs_diff)
    assert report.b_side_passed


@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_report_oracle_equals_scalar_weak_value(phi, delta_omega):
    # the report's batched oracle is held to one weak_value call per row, exactly
    report = verify_weak_value_match(phi, delta_omega)
    psi, omega_b_ref = bell_state(report.phi), report.delta_omega
    operators = {"A": (polarization_operator, 0.0), "B": (polarization_operator_b, omega_b_ref)}
    for row in report.comparisons + report.b_side_comparisons:
        post = PostSelection(0.0, row.s_a, omega_b_ref, row.s_b)
        operator, ref = operators[row.subsystem]
        want = weak_value(psi, post, operator(ref, row.operator), row.subsystem)
        assert row.oracle_weak_value == want


def test_weak_value_match_report_serializes():
    report = verify_weak_value_match(0.0, 2.0)
    payload = report.as_dict()
    assert payload["passed"] is True
    assert payload["b_side"]["note"].startswith("extrapolation")
    row = payload["comparisons"][0]
    assert set(row) >= {"s_a", "s_b", "operator", "model_average", "oracle_weak_value"}


def test_flight_axis_quantity_identity():
    # the flight-axis pairing equals -s_perp * s_flight pointwise
    for w in (0.4, 2.2, -0.4, -2.6):
        t = hidden_triple(w)
        assert quantity_flight_axis(w) == pytest.approx(-t.s_perp * t.s_flight, abs=1e-12)


def test_reference_quantity_under_own_postselection_is_exact():
    # outcome-defining component averages to exactly +-1 on its subset
    for delta in (2 * math.pi / 3, 1.1):
        for s in coarse_partition(delta):
            avg = coarse_average(quantity_reference, s)
            assert avg == pytest.approx(complex(s.s_a), abs=1e-12)
