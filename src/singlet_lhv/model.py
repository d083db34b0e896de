"""Hidden-orientation model of an entangled particle pair.

A hidden configuration of the pair is a single angular coordinate on the
circle [-pi, pi).  The same configuration is described in the frame of
apparatus A by ``omega_a`` and in the frame of apparatus B by

    omega_b = wrap(-circle_transform_n(omega_a, delta, n))

where ``delta = wrap(d_omega - phi)`` is the only physical setting
parameter: the relative apparatus angle minus the state phase.  A strong
measurement returns the sign of the coordinate in the local frame, with
the half-open convention that [0, pi) maps to +1.

``circle_transform`` is a continuous, strictly increasing, degree-one
circle map built from four arccos branches.  On every branch the cosine
of the image differs from the cosine of the argument by a constant, so
the density ``orientation_density`` (proportional to |sin|) is exactly
invariant under the map.  ``circle_transform_n`` generalizes the map to
the density family |sin(n w)|/4 and converges uniformly to the linear
map ``wrap(omega - delta)`` as n grows.

Angle-valued functions accept floats or numpy arrays and always return
values wrapped to [-pi, pi).  Wrapping is done by constructors and by
the functions themselves; callers never need to pre-wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Branch algebra keeps arccos arguments inside [-1, 1] exactly; anything
# beyond this tolerance is a branch-selection bug, not rounding.
ACOS_CLAMP_TOL = 1e-12


class AcosDomainError(ArithmeticError):
    """An arccos argument strayed outside [-1, 1] beyond rounding error."""


def _density_index(n):
    if int(n) != n or n < 1:
        raise ValueError(f"density index must be a positive integer, got {n!r}")
    return int(n)


def _as_float_array(x, name="angle"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {name} rejected")
    return arr


def _maybe_scalar(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def wrap_angle(x):
    """Wrap radians to the half-open interval [-pi, pi); wrap(pi) == -pi.

    Values already in range pass through bit-exactly (the mod form
    would absorb magnitudes below one ulp of pi).  Just below -pi the mod
    form rounds to +pi, which is moved to -pi.  A Python or numpy scalar
    takes the same steps in ``math`` and returns a float: Python's float
    ``%`` and ``np.mod`` share one fmod-then-adjust rule, so the bits agree.
    """
    if isinstance(x, (float, int, np.floating, np.integer)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("non-finite angle rejected")
        if -math.pi <= x < math.pi:
            return x
        w = (x + math.pi) % TWO_PI - math.pi
        return -math.pi if w == math.pi else w
    return _maybe_scalar(_wrap(_as_float_array(x).copy()), x)


def _wrap(x):
    """wrap_angle of a finite float array, in place; np.mod only on out-of-range elements."""
    x = np.asarray(x)
    flat = x.reshape(-1)
    (out,) = ((flat < -np.pi) | (flat >= np.pi)).nonzero()
    if out.size:
        w = np.mod(flat[out] + np.pi, TWO_PI) - np.pi
        w[w == np.pi] = -np.pi
        flat[out] = w
    return flat.reshape(x.shape)


def _acos_checked(u):
    bad = max(np.max(u), -np.min(u)) - 1.0 if np.size(u) else 0.0
    if bad > ACOS_CLAMP_TOL:
        raise AcosDomainError(
            f"arccos argument excursion {bad:.3e} beyond [-1, 1]; branch selection is broken"
        )
    return np.arccos(np.clip(u, -1.0, 1.0))


def _branch_arg(o, d):
    """arccos argument s_d (cos d - s_1 cos o) + s_1 of the n = 1 transform.

    s_d = +1 on the arc [delta - pi, delta) for delta >= 0 and [delta, delta + pi)
    for delta < 0; s_1 = +1 on o >= 0 for delta >= 0 and on o < 0 for delta < 0.
    """
    neg = d < 0.0
    lo = np.where(neg, d, d - np.pi)
    hi = np.where(neg, d + np.pi, d)
    s_d = 2.0 * ((o >= lo) & (o < hi)) - 1.0
    s_1 = 2.0 * ((o >= 0.0) != neg) - 1.0
    return s_d * (np.cos(d) - s_1 * np.cos(o)) + s_1


def _transform(o, d):
    """circle_transform of wrapped arrays, unchecked.

    The arccos of _branch_arg, negated on the arc wrap(o - d) < 0; +pi is returned as -pi.
    """
    rel, a = _wrap(o - d), _acos_checked(_branch_arg(o, d))
    return a * (2.0 * ((rel >= 0.0) & (a < np.pi)) - 1.0)


def _transform_n(o, d, n):
    """circle_transform_n of finite arrays for n > 1, unchecked."""
    linear_n = _wrap(n * o - n * d)
    inner = _transform(_wrap(n * o), _wrap(n * d))
    return _wrap(_wrap(o - d) + _wrap(inner - linear_n) / n)


CUT_BAND = 1e-6


def _b_positive(omega, delta, n=1):
    """Outcome kernel: True where B = +1, bit for bit response(b_frame_coordinate) > 0.

    Unchecked: omega is a wrapped finite array; delta a finite scalar, per-trial
    array or column of settings (one row of outcomes each), wrapped here; n a
    positive int.  At every n, B is +1 exactly on the A-frame arc (delta - pi,
    delta], r = omega - delta in (-pi, 0] or above pi, except that trials within
    CUT_BAND of a cut take their outcome from the transform T itself.  Near +-1,
    arccos turns an argument error e into an angle error of about sqrt(2 e), 3e-8
    for 4 ulps of 1 (Goldberg, "What every computer scientist should know about
    floating-point arithmetic", 1991); the n > 1 form divides it by n.  As
    |sin(n w)|/4 vanishes at both cuts, measure preservation keeps |T - cut| above
    half of omega's distance to its cut: beyond 6e-8 the computed outcome is the arc's.
    """
    d = _wrap(np.array(delta, dtype=float))
    r = omega - d
    gap = np.abs(r)
    pos = (r <= 0.0) ^ (gap > np.pi)
    # gap becomes the distance to delta - pi on the circle, and pi - gap that to delta
    gap -= np.pi
    np.abs(gap, out=gap)
    near = (gap < CUT_BAND) | (gap > np.pi - CUT_BAND)
    if near.any():
        o, d = np.broadcast_to(omega, r.shape)[near], np.broadcast_to(d, r.shape)[near]
        t = _transform(o, d) if n == 1 else _transform_n(o, d, n)
        pos[near] = (t > -np.pi) & (t <= 0.0)
    return pos


def circle_transform(omega, delta):
    """Measure-preserving frame transform for density index n = 1.

    Four half-open branches, cut at {delta - pi, 0, delta} for
    delta >= 0 and at {delta, 0, delta + pi} for delta < 0.  Continuous
    on the circle, strictly increasing, and satisfies
    |d cos(out)| = |d cos(omega)| on every branch.
    """
    return circle_transform_n(omega, delta)


def circle_transform_n(omega, delta, n=1):
    """Frame transform preserving the density |sin(n w)|/4.

    Both angles are wrapped first, at every n, so an input and its
    wrapped value give the same bits.  Defined as the linear map plus the
    n = 1 deviation evaluated on the n-fold covering and scaled down by n:

        wrap(omega - delta) + wrap(T(wrap(n omega), wrap(n delta)) - wrap(n (omega - delta))) / n

    with T = circle_transform.  This collapses to circle_transform at
    n = 1, preserves |sin(n w)|/4 because n times it equals
    T(n omega; n delta) modulo 2 pi, and approaches the linear map
    uniformly with deviation bounded by sup|T - linear| / n.
    """
    n = _density_index(n)
    o, d = wrap_angle(omega), wrap_angle(delta)
    out = _transform(o, d) if n == 1 else _transform_n(o, d, n)
    return _maybe_scalar(out, omega, delta)


def linear_reference(omega, delta):
    """The linear frame map wrap(omega - delta), the n -> infinity limit."""
    return wrap_angle(np.asarray(omega, dtype=float) - np.asarray(delta, dtype=float))


def orientation_density(omega, n=1):
    """Probability density |sin(n w)| / 4 of hidden orientations."""
    out = 0.25 * np.abs(np.sin(n * np.asarray(omega, dtype=float)))
    return _maybe_scalar(out, omega)


def orientation_cdf(omega, n=1):
    """Closed-form CDF of orientation_density on [-pi, pi).

    Each half-period cell of width pi/n carries mass 1/(2n); inside a
    cell the mass accumulates as (1 - cos(n r)) / (4 n), evaluated in
    the cancellation-free half-angle form sin^2(n r / 2) / (2 n).
    """
    o = np.asarray(omega, dtype=float)
    cell = np.pi / n
    m = np.floor((o + np.pi) / cell)
    m = np.clip(m, 0, 2 * n)
    r = o - (-np.pi + m * cell)
    out = m / (2.0 * n) + np.sin(0.5 * n * r) ** 2 / (2.0 * n)
    return _maybe_scalar(out, omega)


def sample_orientations(rng, size, n=1):
    """Draw hidden orientations with density |sin(n w)|/4, vectorized.

    Inverse-CDF in the cosine variable: u uniform on the open (-1, 1),
    a fair sign, then sign * acos(u), already in (-pi, pi).  u = 2 r - (1 - 2^-53) is
    exact for the 53-bit uniform r and takes only odd multiples of 2^-53,
    so the zero-density poles {0, -pi} are unreachable by construction and
    exact anti-correlation at delta = 0 holds for every emitted sample.
    For n > 1 the n = 1 draw is compressed into one double cell and
    shifted by a uniformly chosen whole cell, into (-pi/n, 2 pi + a few
    ulps); draws at or above pi move back by one period.

    Draw order per call is fixed (u block, then one integer block k in
    [0, 4n) giving sign k & 1 and cell k >> 1), so a seeded generator
    reproduces the same samples.  k is drawn as uint32 where 4n <= 2^32, else as
    int64: numpy's uint32 draws have the int64 values, and leave the generator in
    the same state.  ``rng`` is a numpy Generator, or any object with its
    ``random(size)`` and ``integers(low, high, size, dtype)``.
    """
    n = _density_index(n)
    omega = rng.random(size)
    work = np.empty(size)
    # in place, value for value: sign * arccos(2 r - (1 - 2^-53))
    omega *= 2.0
    omega -= 1.0 - 2.0**-53
    np.arccos(omega, out=omega)
    k = rng.integers(0, 4 * n, size=size, dtype=np.uint32 if 4 * n <= 2**32 else np.int64)
    # sign + for odd k: copysign of the positive arccos is exact, for int64 or uint32 k
    np.bitwise_and(k, 1, out=work, casting="unsafe")
    work -= 0.5
    np.copysign(omega, work, out=omega)
    if n > 1:
        k >>= 1
        np.multiply(k, np.pi / n, out=work)
        omega /= n
        omega += work
        # pi <= x < 3 pi, so (x + pi) - TWO_PI is exact (Sterbenz): the mod form's bits
        (out,) = (omega >= np.pi).nonzero()
        z = np.take(omega, out, out=work[:out.size], mode="clip")  # "raise" would buffer out
        z += np.pi
        z -= TWO_PI
        z -= np.pi
        omega[out] = z
    return omega


def sample_hidden(rng, n=1) -> "HiddenConfig":
    """Draw a single hidden configuration (see sample_orientations)."""
    return HiddenConfig(float(sample_orientations(rng, 1, n)[0]))


def response(omega):
    """Strong-measurement outcome: +1 on [0, pi), -1 on [-pi, 0)."""
    out = np.where(np.asarray(omega, dtype=float) >= 0.0, 1, -1)
    return int(out) if np.ndim(omega) == 0 else out


@dataclass(frozen=True)
class MeasurementSetting:
    """Relative apparatus angle, state phase, and density index.

    Only the combination delta = wrap(d_omega - phi) is physical.
    """

    delta_omega: float
    phi: float = 0.0
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", wrap_angle(self.delta_omega))
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "n", _density_index(self.n))

    @property
    def delta(self) -> float:
        return wrap_angle(self.delta_omega - self.phi)

    @classmethod
    def from_delta(cls, delta, n=1):
        return cls(delta_omega=delta, phi=0.0, n=n)

    def rotated(self, extra_rotation: float) -> "MeasurementSetting":
        """Setting after rotating the apparatus by an additional angle.

        Equivalently: re-anchor to the current frame, where the pair
        appears with phase wrap(phi - delta_omega), and rotate by
        extra_rotation.  Both readings give the parameter
        wrap(extra_rotation + delta_omega - phi).
        """
        return MeasurementSetting(
            delta_omega=wrap_angle(self.delta_omega + extra_rotation),
            phi=self.phi,
            n=self.n,
        )


@dataclass(frozen=True)
class HiddenConfig:
    """One hidden configuration: orientation in the A-apparatus frame."""

    omega_a: float

    def __post_init__(self):
        object.__setattr__(self, "omega_a", wrap_angle(self.omega_a))


@dataclass(frozen=True)
class TrialOutcome:
    s_a: int
    s_b: int
    omega_a: float


def b_frame_coordinate(omega_a, setting: MeasurementSetting):
    """Orientation of the configuration as seen from apparatus B."""
    return wrap_angle(-circle_transform_n(omega_a, setting.delta, setting.n))


def responses_for(omega_a, setting: MeasurementSetting):
    """Vectorized pair of outcomes (s_a, s_b) for orientations omega_a."""
    s_a = response(omega_a)
    s_b = response(b_frame_coordinate(omega_a, setting))
    return s_a, s_b


def measure_pair(config, setting: MeasurementSetting) -> TrialOutcome:
    """Outcome pair produced by one hidden configuration.

    The +1 region for B is the arc (delta - pi, delta]; it differs from
    the half-open subset table used by coarse_partition only at the two
    boundary points, which carry zero density.
    """
    omega = config.omega_a if isinstance(config, HiddenConfig) else float(config)
    s_a, s_b = responses_for(omega, setting)
    return TrialOutcome(s_a=int(s_a), s_b=int(s_b), omega_a=wrap_angle(omega))
