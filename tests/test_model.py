import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from singlet_lhv.analytic import correlation
from singlet_lhv.model import (
    MAX_N,
    AcosDomainError,
    HiddenConfig,
    MeasurementSetting,
    b_frame_coordinate,
    circle_transform,
    circle_transform_n,
    linear_reference,
    measure_pair,
    orientation_cdf,
    orientation_density,
    response,
    responses_for,
    _branch_arg,
    _maybe_scalar,
    _wrap,
    sample_orientations,
    wrap_angle,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
wrapped = st.floats(min_value=-math.pi, max_value=math.pi - 1e-12)
deltas = st.floats(min_value=-math.pi, max_value=math.pi - 1e-9)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def circle_distance(a, b):
    """Absolute distance between two angles measured along the circle."""
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def branch_sign(omega, delta):
    """Sign selector for the transform: -1 where wrap(omega - delta) < 0.

    sign(0) is fixed to +1; at the only point where the choice could
    matter the arccos factor vanishes, so it is observationally inert.
    """
    return _maybe_scalar(np.where(linear_reference(omega, delta) >= 0.0, 1.0, -1.0), omega, delta)


# ---------------------------------------------------------------- wrap


def test_wrap_examples():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)


def test_wrap_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(np.array([0.0, np.inf]))


@given(angles)
def test_wrap_range_and_idempotence(x):
    w = wrap_angle(x)
    assert -math.pi <= w < math.pi
    assert wrap_angle(w) == w


@given(angles)
def test_wrap_is_translation_by_two_pi(x):
    assert wrap_angle(x + 2 * math.pi) == pytest.approx(wrap_angle(x), abs=1e-9)


def test_wrap_just_below_minus_pi_stays_in_range():
    # mod(x + pi, 2 pi) rounds up to 2 pi here, which would give +pi
    below = np.nextafter(-math.pi, -math.inf)
    assert wrap_angle(below) == -math.pi
    got = wrap_angle(np.array([below, 0.5, -math.pi, math.pi]))
    np.testing.assert_array_equal(got, [-math.pi, 0.5, -math.pi, -math.pi])
    for n in (2, 3, 7):
        assert wrap_angle(n * np.nextafter(-math.pi / n, -math.inf)) == -math.pi


def test_wrap_huge_magnitudes_stay_in_range():
    for x in (1e12, -1e12, 1e300, -1e300):
        assert -math.pi <= wrap_angle(x) < math.pi


def _mod_form(x):
    """Reference wrap: np.mod on every out-of-range element, then +pi moved to -pi."""
    x = np.asarray(x, dtype=float)
    out = np.where((x >= -np.pi) & (x < np.pi), x, np.mod(x + np.pi, 2 * np.pi) - np.pi)
    out[out == np.pi] = -np.pi
    return out


def _ulps_from(x, steps):
    x = np.float64(x)
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return x


def _assert_wraps_like_the_mod_form(values):
    x = np.array(values, dtype=float)
    want = _mod_form(x).tobytes()
    assert wrap_angle(x).tobytes() == want
    assert np.array([wrap_angle(v) for v in x.tolist()]).tobytes() == want
    assert _wrap(x.copy()).tobytes() == want


def test_wrap_equals_the_mod_form_near_every_multiple_of_pi():
    # every k pi for |k| <= 17, and each of the 50 doubles on either side
    _assert_wraps_like_the_mod_form(
        [_ulps_from(k * math.pi, j) for k in range(-17, 18) for j in range(-50, 51)]
    )


@given(st.lists(
    st.one_of(
        st.floats(min_value=-17 * math.pi, max_value=17 * math.pi),
        st.builds(lambda n, w: n * w, st.integers(1, 16), wrapped),
        st.builds(_ulps_from, st.integers(-17, 17).map(lambda k: k * math.pi), st.integers(-50, 50)),
    ),
    min_size=1, max_size=16,
))
def test_wrap_equals_the_mod_form_bit_for_bit(values):
    _assert_wraps_like_the_mod_form(values)


def _ulp_neighbourhoods(centres, steps=50):
    """Each centre and the ``steps`` doubles on either side of it."""
    up = down = np.asarray(centres, dtype=float)
    out = [up]
    for _ in range(steps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [up, down]
    return np.concatenate(out)


def test_wrap_equals_the_mod_form_on_both_sides_of_its_exactness_bound():
    # powers of two times pi up to 2^60 pi, their neighbours, and huge magnitudes
    huge = [1e30, -1e30, 1e300, -1e300, 2.0**31, -(2.0**31), 2.0**60, -(2.0**60)]
    centres = [s * 2.0**k * math.pi for k in range(61) for s in (1, -1)]
    _assert_wraps_like_the_mod_form(np.concatenate([_ulp_neighbourhoods(centres), huge]))


@pytest.mark.parametrize("n", [16, 33, 1000])
def test_wrap_equals_the_mod_form_around_every_cell_edge(n):
    # the cell edges k pi / n, and n times their neighbours: the wrap(n omega) of circle_transform_n
    edges = _ulp_neighbourhoods(np.arange(-n, n + 1) * math.pi / n)
    _assert_wraps_like_the_mod_form(np.concatenate([edges, n * edges]))


SCALAR_TYPES = (float, np.float64, np.float32, lambda x: np.array(x, dtype=float))


@pytest.mark.parametrize("make", SCALAR_TYPES)
def test_scalar_wrap_is_a_float_with_the_array_paths_bits(make):
    edges = [_ulps_from(k * math.pi, j) for k in range(-5, 6) for j in (-2, -1, 0, 1, 2)]
    for v in [*map(float, edges), 0.0, -0.0, 1e30, -1e30, 123.456]:
        x = make(v)
        want = _wrap(np.array([x], dtype=float))
        got = wrap_angle(x)
        assert type(got) is float
        assert np.array([got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", (int, np.int64, np.int32))
def test_scalar_wrap_of_an_integer_is_a_float_with_the_array_paths_bits(make):
    for v in (0, 1, 3, 4, -3, -4, 7, 200, -1000):
        got = wrap_angle(make(v))
        assert type(got) is float
        assert np.array([got]).tobytes() == _wrap(np.array([v], dtype=float)).tobytes()


@pytest.mark.parametrize("make", (*SCALAR_TYPES, lambda x: np.array([x])))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_wrap_rejects_every_non_finite_scalar_alike(make, bad):
    with pytest.raises(ValueError, match="^non-finite angle rejected$"):
        wrap_angle(make(bad))


def test_transform_never_returns_plus_pi():
    # arccos gives pi just below a cut, on the branch whose sign is +
    below_pi = np.nextafter(math.pi, 0.0)
    assert circle_transform(below_pi, 0.0) == -math.pi
    d = np.linspace(-math.pi, math.pi, 2001, endpoint=False)
    o = np.nextafter(wrap_angle(d - math.pi), -math.inf)
    o = np.where(o < -math.pi, below_pi, o)
    for n in (1, 2, 7):
        t = circle_transform_n(o, d, n)
        assert np.all((t >= -math.pi) & (t < math.pi))


# Signs of (cos delta, cos omega, 1) in the arccos argument, one column per
# branch.  Branch k of omega counts the cuts at or below it, {delta - pi, 0,
# delta} for delta >= 0; for delta < 0, {delta, 0, delta + pi} and k -> 3 - k.
_BRANCH_SIGNS = np.array([(-1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, -1.0, 1.0), (-1.0, -1.0, 1.0, 1.0)])


def _table_branch_arg(o, d):
    """Reference arccos argument of the n = 1 transform, its signs gathered from a branch table."""
    neg = d < 0.0
    k = (o >= np.where(neg, d, d - np.pi)).astype(np.intp)
    k += o >= 0.0
    k += o >= np.where(neg, d + np.pi, d)
    k ^= 3 * neg
    s_d, s_o, s_1 = (np.take(col, k) for col in _BRANCH_SIGNS)
    return (s_d * np.cos(d) + s_o * np.cos(o)) + s_1


def test_branch_arg_matches_the_branch_table_bit_for_bit_at_the_cuts():
    # 3 ulps either side of delta - pi, 0, delta and delta + pi, where the branch signs switch
    special = [0.0, math.pi / 2, -math.pi / 2, -math.pi]
    delta = np.concatenate([rng(21).uniform(-math.pi, math.pi, 300), special])
    cuts = wrap_angle(np.stack([delta - math.pi, 0.0 * delta, delta, delta + math.pi], axis=1).ravel())
    o = np.asarray(wrap_angle(_ulp_neighbourhoods(cuts, steps=3)))
    d = np.tile(np.repeat(delta, 4), 7)
    assert _branch_arg(o, d).tobytes() == _table_branch_arg(o, d).tobytes()


# ------------------------------------------------------- branch sign


def test_branch_sign_examples():
    assert branch_sign(0.0, math.pi / 3) == -1.0
    assert branch_sign(math.pi / 3, math.pi / 3) == 1.0  # sign(0) := +1
    # fixed by the outcome-subset oracle below: -pi/2 lies on the arc
    # (delta - pi, delta), so the sign is -1
    assert branch_sign(-math.pi / 2, math.pi / 3) == -1.0


@given(wrapped, deltas)
def test_branch_sign_matches_subset_arc(omega, delta):
    on_negative_arc = wrap_angle(omega - delta) < 0.0
    assert branch_sign(omega, delta) == (-1.0 if on_negative_arc else 1.0)


# ------------------------------------------------- transform, n = 1


def test_transform_frozen_examples():
    assert circle_transform(math.pi / 2, math.pi / 3) == pytest.approx(math.pi / 3, abs=1e-12)
    assert circle_transform(0.0, math.pi / 3) == pytest.approx(-math.pi / 3, abs=1e-12)
    for d in (0.3, 1.2, 2.9):
        assert circle_transform(d, d) == 0.0


def test_transform_identity_at_zero_parameter():
    w = np.linspace(-np.pi, np.pi, 1001, endpoint=False)
    np.testing.assert_allclose(circle_transform(w, 0.0), w, atol=1e-12)


def _branch_formula(omega, delta, branch):
    """Independent re-derivation of one branch expression at a point."""
    cd, co = math.cos(delta), math.cos(omega)
    u = {
        "outer-low": -cd - co - 1.0,
        "mid-low": cd + co - 1.0,
        "mid-high": cd - co + 1.0,
        "outer-high": -cd + co + 1.0,
    }[branch]
    return math.acos(max(-1.0, min(1.0, u)))


def test_branch_formulas_agree_at_smooth_boundary():
    # at omega = 0 the two middle branch formulas coincide exactly
    for delta in (0.2, math.pi / 3, 2.5):
        lo = _branch_formula(0.0, delta, "mid-low")
        hi = _branch_formula(0.0, delta, "mid-high")
        assert abs(lo - hi) < 1e-12  # both give acos(cos delta)
        assert _branch_formula(delta, delta, "mid-high") == pytest.approx(0.0, abs=1e-7)
        assert _branch_formula(delta, delta, "outer-high") == pytest.approx(0.0, abs=1e-7)


def _one_sided_limit(boundary, delta, side):
    """Limit of the transform at a branch boundary.

    The map has square-root corners, so the limit is extracted by
    cancelling the sqrt(eps) term: 2 f(b +- eps) - f(b +- 4 eps).
    """
    eps = 1e-8 * side
    f1 = circle_transform(boundary + eps, delta)
    f2 = circle_transform(boundary + 4 * eps, delta)
    return wrap_angle(2 * f1 - f2)


@pytest.mark.parametrize("delta", [0.3, math.pi / 3, 2.2, -0.9, -2.5])
def test_branch_boundary_limits_agree(delta):
    cuts = (
        [wrap_angle(delta - math.pi), 0.0, delta]
        if delta >= 0
        else [delta, 0.0, wrap_angle(delta + math.pi)]
    )
    for b in cuts:
        left = _one_sided_limit(b, delta, -1.0)
        right = _one_sided_limit(b, delta, +1.0)
        assert circle_distance(left, right) < 1e-9


@pytest.mark.parametrize("delta", [0.0, 0.4, math.pi / 3, 2.8, -0.4, -math.pi / 3, -2.8, -math.pi])
def test_transform_continuous_increasing_circle_map(delta):
    w = np.linspace(-np.pi, np.pi, 40001, endpoint=False)
    y = circle_transform(w, delta)
    steps = wrap_angle(np.diff(y))
    assert np.min(steps) >= -1e-12  # monotone up around the circle
    assert np.max(np.abs(steps)) < 0.05  # no jumps beyond grid scale


@pytest.mark.parametrize("delta", [math.pi / 3, -math.pi / 3, 2.0])
def test_transform_bijective_on_grid(delta):
    w = np.linspace(-np.pi, np.pi, 10001, endpoint=False)
    y = np.sort(circle_transform(w, delta))
    assert np.all(np.diff(y) > 0.0)  # injective on the grid
    gaps = np.diff(np.concatenate([y, [y[0] + 2 * np.pi]]))
    assert np.max(gaps) < 0.05  # image fills the circle at grid resolution


def _boundary_points(delta, n):
    """Orientations where the n-fold transform has a corner."""
    mu = wrap_angle(n * delta)
    pts = [-math.pi]
    for base in (0.0, mu, wrap_angle(mu - math.pi)):
        for k in range(-2 * n, 2 * n + 1):
            pts.append((base + k * 2.0 * math.pi) / n)
    return wrap_angle(np.array(pts))


def _fd_jacobian_error(delta, n, points=4001, h=1e-6, margin=3e-3):
    w = np.linspace(-np.pi, np.pi, points, endpoint=False)
    bad = _boundary_points(delta, n)
    keep = np.all(np.abs(wrap_angle(w[:, None] - bad[None, :])) > margin, axis=1)
    w = w[keep]
    lo = circle_transform_n(w - h, delta, n)
    hi = circle_transform_n(w + h, delta, n)
    deriv = wrap_angle(hi - lo) / (2 * h)
    image = circle_transform_n(w, delta, n)
    return np.max(
        np.abs(
            orientation_density(image, n) * np.abs(deriv) - orientation_density(w, n)
        )
    )


@pytest.mark.parametrize("delta", [math.pi / 6, math.pi / 3, math.pi / 2, 3 * math.pi / 4])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_measure_preservation_finite_differences(delta, n):
    assert _fd_jacobian_error(delta, n) < 1e-6


@given(wrapped, deltas)
def test_measure_preservation_pointwise(omega, delta):
    # skip points too close to a corner for the finite difference
    bad = _boundary_points(delta, 1)
    if np.min(np.abs(wrap_angle(omega - bad))) < 3e-3:
        return
    h = 1e-6
    deriv = wrap_angle(
        circle_transform(omega + h, delta) - circle_transform(omega - h, delta)
    ) / (2 * h)
    image = circle_transform(omega, delta)
    assert abs(
        orientation_density(image) * abs(deriv) - orientation_density(omega)
    ) < 1e-6


def test_acos_domain_error_is_reserved_for_bugs():
    # the public surface never raises it; simulate a broken argument
    from singlet_lhv.model import _acos_checked

    with pytest.raises(AcosDomainError):
        _acos_checked(np.array([1.0 + 1e-9]))
    assert _acos_checked(np.array([1.0 + 1e-13]))[0] == 0.0


# ------------------------------------------------------ transform_n


@given(wrapped, deltas)
def test_transform_n_reduces_at_one(omega, delta):
    assert circle_transform_n(omega, delta, 1) == circle_transform(omega, delta)


def test_transform_n_rejects_bad_index():
    with pytest.raises(ValueError):
        circle_transform_n(0.1, 0.2, 0)
    with pytest.raises(ValueError):
        circle_transform_n(0.1, 0.2, 1.5)


# every entry point that takes a density index, at n
_TAKES_N = {
    "MeasurementSetting": lambda n: MeasurementSetting(delta_omega=0.3, n=n).n,
    "circle_transform_n": lambda n: circle_transform_n(0.1, 0.2, n),
    "sample_orientations": lambda n: sample_orientations(rng(1), 5, n),
    "correlation": lambda n: correlation(0.3, n),
}


@pytest.mark.parametrize("name", list(_TAKES_N))
def test_density_index_range_ends_at_max_n(name):
    assert MAX_N == 2**30
    assert np.all(np.isfinite(_TAKES_N[name](MAX_N)))
    for n in (MAX_N + 1, 2**63):
        with pytest.raises(ValueError, match=rf"in \[1, {MAX_N}\], got {n}$"):
            _TAKES_N[name](n)


def test_transform_n_closer_to_linear_than_base():
    w = np.linspace(-np.pi, np.pi, 10001, endpoint=False)
    lin = linear_reference(w, math.pi / 3)
    d1 = np.max(np.abs(wrap_angle(circle_transform_n(w, math.pi / 3, 1) - lin)))
    d32 = np.max(np.abs(wrap_angle(circle_transform_n(w, math.pi / 3, 32) - lin)))
    assert d32 < d1


def test_transform_n_at_parameter_point():
    # at omega = delta the inner map sees matching arguments, so the
    # deviation term vanishes and the value is zero for every n
    assert circle_transform_n(math.pi / 3, math.pi / 3, 1) == 0.0
    for n in (2, 7, 32):
        got = circle_transform_n(math.pi / 3, math.pi / 3, n)
        assert got == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_transform_broadcasts_over_parameter_arrays(n):
    # per-trial parameters arrive as arrays alongside the orientations
    omega = np.array([0.3, -1.2, 2.8, -2.9])
    delta = np.array([0.9, -0.4, 1.7, -2.2])
    together = circle_transform_n(omega, delta, n)
    for i in range(omega.size):
        assert together[i] == circle_transform_n(float(omega[i]), float(delta[i]), n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("form", ["float", "numpy scalar", "0-d", "per-trial", "column"])
def test_transform_of_delta_at_its_own_shape_has_the_bits_of_a_materialised_delta(n, form):
    # delta reaches the arithmetic unbroadcast; each element must see what a full array gives it
    sweep = [0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0), 1.0, -2.5]
    sweep += [float(_ulps_from(m * math.pi / n, j)) for m in (1, -1, 1 - 2 * (n // 2)) for j in (-1, 0, 1)]
    omega = np.concatenate([sample_orientations(rng(3), 2_000, n), sweep])
    if form == "per-trial":
        cases = [(omega, rng(4).choice(sweep, omega.size))]
    elif form == "column":
        cases = [(omega, np.array(sweep)[:, None])]
    else:
        make = {"float": float, "numpy scalar": np.float64, "0-d": np.array}[form]
        cases = [(o, make(d)) for d in sweep for o in (omega, *sweep[:5])]
    for o, d in cases:
        shape = np.broadcast_shapes(np.shape(o), np.shape(d))
        got = circle_transform_n(o, d, n)
        want = circle_transform_n(o, np.broadcast_to(d, shape).copy(), n)
        assert np.shape(got) == shape
        if not shape:
            assert type(got) is float
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("n", [2, 7, 16])
@pytest.mark.parametrize(
    "omega, delta",
    [(0.5 + 6 * math.pi, 1.0), (0.5, -1.0 - 4 * math.pi), (-3.0 - 2 * math.pi, 2.0 + 2 * math.pi),
     (0.5, 1e6), (1e6, -0.7), (1e300, 1.7e308), (-1.7e308, 0.3), (2.0, -1.7e308)],
)
def test_transform_n_of_an_out_of_range_angle_is_that_of_its_wrapped_value(n, omega, delta):
    # the map is of the circle: no n * omega of an unwrapped input reaches the arithmetic
    got = circle_transform_n(omega, delta, n)
    assert repr(got) == repr(circle_transform_n(wrap_angle(omega), wrap_angle(delta), n))
    assert math.isfinite(got) and -math.pi <= got < math.pi
    arrays = circle_transform_n(np.array([omega, 0.1]), np.array([delta, delta]), n)
    assert repr(float(arrays[0])) == repr(got)


def test_transform_n_preserves_its_density_in_distribution():
    # pushing g_n samples through the map leaves the distribution fixed
    for n, delta in [(2, math.pi / 3), (7, 2.0)]:
        omega = sample_orientations(rng(11), 200_000, n)
        pushed = wrap_angle(-circle_transform_n(omega, delta, n))
        stat = kstest(pushed, lambda x: orientation_cdf(x, n)).statistic
        assert stat < 1.36 / math.sqrt(200_000) * 1.25


# -------------------------------------------------- density and CDF


def test_density_examples():
    assert orientation_density(0.0, 1) == 0.0
    assert orientation_density(math.pi / 2, 1) == 0.25
    assert orientation_density(math.pi / 2, 2) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_density_integrates_to_one(n):
    total, _ = quad(lambda w: orientation_density(w, n), -math.pi, math.pi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cdf_matches_quadrature(n):
    kinks = [-math.pi + k * math.pi / n for k in range(2 * n + 1)]
    for w in np.linspace(-math.pi, math.pi, 37):
        inner = [k for k in kinks if -math.pi < k < w]
        expected, _ = quad(
            lambda t: orientation_density(t, n),
            -math.pi,
            w,
            points=inner or None,
            epsabs=1e-13,
            limit=400,
        )
        assert orientation_cdf(w, n) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------- sampling


def test_sampler_deterministic_for_fixed_seed():
    a = sample_orientations(rng(123), 1000)
    b = sample_orientations(rng(123), 1000)
    np.testing.assert_array_equal(a, b)


def test_sampler_never_emits_poles():
    omega = sample_orientations(rng(5), 500_000)
    assert np.all(omega != 0.0)
    assert np.all(omega != -np.pi)
    assert np.all((omega >= -np.pi) & (omega < np.pi))


class EdgeStream:
    """Generator stub: every edge uniform double meets every integer draw in [0, 4n)."""

    EDGES = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])

    def __init__(self, n):
        self.k = 4 * n

    def random(self, size):
        assert size == self.EDGES.size * self.k
        return np.repeat(self.EDGES, self.k)

    def integers(self, low, high, size, dtype=np.int64):
        assert (low, high) == (0, self.k)
        return np.tile(np.arange(self.k), self.EDGES.size)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_sampler_edges_of_the_uniform_stream_miss_the_poles(n):
    omega = sample_orientations(EdgeStream(n), EdgeStream.EDGES.size * 4 * n, n)
    assert np.all(omega != 0.0)
    assert np.all(omega != -np.pi)
    assert np.all((omega >= -np.pi) & (omega < np.pi))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_sampler_ks_against_cdf(n):
    omega = sample_orientations(rng(42 + n), 1_000_000, n)
    stat = kstest(omega, lambda x: orientation_cdf(x, n)).statistic
    assert stat < 0.0017


def test_sampler_cosine_mean_is_centered():
    omega = sample_orientations(rng(9), 1_000_000)
    mean = float(np.mean(np.cos(omega)))
    # Var(cos) = 1/2 under the |sin|/4 density
    assert abs(mean) < 4 * math.sqrt(0.5 / 1_000_000)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 1000, 2**20, 2**30])
def test_sampler_folds_its_draws_like_the_mod_form(n):
    # the same draws rebuilt unfolded, sign * acos(u) / n + cell pi / n, then wrapped the reference way
    g = rng(50 + n)
    x = np.arccos(2.0 * g.random(200_000) - (1.0 - 2.0**-53))
    k = g.integers(0, 4 * n, size=x.size)
    x *= (k & 1) * 2 - 1
    if n > 1:
        x /= n
        x += (k >> 1) * (np.pi / n)
    assert sample_orientations(rng(50 + n), x.size, n).tobytes() == _mod_form(x).tobytes()


def plain_values(state):
    """A bit generator's state dict with its arrays as lists, for ==."""
    if isinstance(state, dict):
        return {k: plain_values(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("high", [3, 4, 6, 28, 2**24, 2**32])
def test_uint32_draws_equal_int64_draws(high):
    # the sampler's k and wz's pair draws rest on this: uint32 where the range fits
    plain, narrow = rng(60), rng(60)
    for size in (7, 30_001, 250_000, 1):
        k = narrow.integers(0, high, size=size, dtype=np.uint32)
        np.testing.assert_array_equal(k, plain.integers(0, high, size=size))
        # the generator's buffered 32-bit half carries over into the next draws alike
        assert plain.random(3).tobytes() == narrow.random(3).tobytes()
    assert plain_values(plain.bit_generator.state) == plain_values(narrow.bit_generator.state)


# ------------------------------------------------------- measurement


def test_response_convention():
    assert response(0.0) == 1
    assert response(-math.pi) == -1
    assert response(math.pi / 2) == 1


def test_measure_pair_frozen_examples():
    s = MeasurementSetting.from_delta(math.pi / 3)
    out = measure_pair(math.pi / 4, s)
    assert (out.s_a, out.s_b) == (1, 1)
    out = measure_pair(-math.pi / 2, s)
    assert (out.s_a, out.s_b) == (-1, 1)


def test_measure_pair_accepts_hidden_config():
    s = MeasurementSetting.from_delta(math.pi / 3)
    assert measure_pair(HiddenConfig(math.pi / 4), s) == measure_pair(math.pi / 4, s)


@given(wrapped)
def test_perfect_anticorrelation_at_zero(omega):
    # cos() rounding absorbs magnitudes below ~1.05e-8 into the poles;
    # the sampler cannot emit such values (see the structural test)
    if circle_distance(omega, 0.0) < 2e-8 or circle_distance(omega, -math.pi) < 2e-8:
        return
    out = measure_pair(omega, MeasurementSetting.from_delta(0.0))
    assert out.s_b == -out.s_a


def test_sampler_minimum_magnitude_clears_rounding_threshold():
    # smallest |omega| the sampler can emit: acos of the largest double
    # below 1.  It must survive the cos/acos round trip, which absorbs
    # anything below sqrt(2 ulp(1)); that guarantees structurally exact
    # anti-correlation at delta = 0 for every emittable sample.
    tiniest = math.acos(1.0 - 2.0**-53)
    assert tiniest >= math.sqrt(2 * 2.0**-53)
    assert math.acos(math.cos(tiniest)) > 0.0
    out = measure_pair(tiniest, MeasurementSetting.from_delta(0.0))
    assert (out.s_a, out.s_b) == (1, -1)
    out = measure_pair(-tiniest, MeasurementSetting.from_delta(0.0))
    assert (out.s_a, out.s_b) == (-1, 1)


def test_outcomes_match_subset_table_off_boundary():
    # the half-open subset classification and the transform composition
    # agree everywhere except the two zero-density boundary points
    from singlet_lhv.hidden_values import coarse_partition

    for delta in (math.pi / 3, 2.2, -1.0, -2.7):
        setting = MeasurementSetting.from_delta(delta)
        subsets = coarse_partition(delta)
        omega = sample_orientations(rng(31), 20_000)
        s_a, s_b = responses_for(omega, setting)
        for sub in subsets:
            inside = np.zeros(omega.shape, dtype=bool)
            for lo, hi in sub.intervals:
                inside |= (omega >= lo) & (omega < hi)
            assert np.all(s_a[inside] == sub.s_a)
            assert np.all(s_b[inside] == sub.s_b)


def test_b_frame_coordinate_examples():
    setting = MeasurementSetting(delta_omega=0.7, phi=0.7)
    w = np.linspace(-np.pi, np.pi, 101, endpoint=False)
    np.testing.assert_allclose(b_frame_coordinate(w, setting), wrap_angle(-w), atol=1e-12)
    s = MeasurementSetting.from_delta(math.pi / 3)
    assert b_frame_coordinate(math.pi / 2, s) == pytest.approx(-math.pi / 3, abs=1e-12)
    assert b_frame_coordinate(0.0, s) == pytest.approx(math.pi / 3, abs=1e-12)


# ------------------------------------------------------- composition


def test_setting_composition_parameter_level():
    base = MeasurementSetting(delta_omega=0.9, phi=0.25)
    extra = 1.1
    composed = base.rotated(extra)
    assert composed.delta == wrap_angle(wrap_angle(base.delta_omega + extra) - base.phi)
    # two-step reading: re-anchor to the intermediate frame, then rotate
    intermediate_phase = wrap_angle(base.phi - base.delta_omega)
    two_step = wrap_angle(extra - intermediate_phase)
    assert composed.delta == pytest.approx(two_step, abs=1e-12)


def test_pointwise_composition_fails_parameter_additivity():
    # composing the maps pointwise is NOT the same as adding parameters;
    # the symmetry composes at the setting level only.  Recorded gap at
    # delta = delta' = pi/3 exceeds 0.3 radians.
    d = math.pi / 3
    w = np.linspace(-np.pi, np.pi, 2001, endpoint=False)
    once = wrap_angle(-circle_transform(w, d))
    twice = wrap_angle(-circle_transform(once, d))
    direct = wrap_angle(-circle_transform(w, wrap_angle(2 * d)))
    gap = np.max(np.abs(wrap_angle(twice - direct)))
    assert gap > 0.3


def test_sample_hidden_scalar_draw():
    from singlet_lhv.model import sample_hidden

    cfg = sample_hidden(rng(77))
    assert isinstance(cfg, HiddenConfig)
    assert -math.pi < cfg.omega_a < math.pi and cfg.omega_a != 0.0
