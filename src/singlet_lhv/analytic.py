"""Closed-form predictions and Bell/CHSH inequality expressions.

These are the exact references against which the Monte Carlo harness is
checked: joint outcome probabilities, the correlation at every density
index, the two-angle Bell inequality, and the three-angle CHSH combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _density_index, circle_transform_n, linear_reference, wrap_angle

VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four joint outcomes (s_a, s_b)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            p = getattr(self, name)
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"{name}={p!r} outside [0, 1]")

    @property
    def correlation(self) -> float:
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    def as_dict(self):
        return {
            "p_pp": self.p_pp,
            "p_pm": self.p_pm,
            "p_mp": self.p_mp,
            "p_mm": self.p_mm,
        }


def joint_probabilities(delta) -> JointDistribution:
    """Exact four-outcome distribution at effective parameter delta."""
    c = float(np.cos(wrap_angle(delta)))
    anti = 0.25 * (1.0 - c)
    corr = 0.25 * (1.0 + c)
    return JointDistribution(p_pp=anti, p_pm=corr, p_mp=corr, p_mm=anti)


def correlation(delta, n=1):
    """Expected product of the two outcomes at density index n; -cos(delta) at n = 1.

    The product is +1 on two arcs that each carry the |sin(n w)|/4 mass of
    [0, |delta|).  With n |delta| = m pi + x, integer m and x in [0, pi),
    that is E_n = (2 m + 1 - cos x) / n - 1; n = 1 keeps the bit-exact -cos.
    """
    d, n = wrap_angle(delta), _density_index(n)
    if n == 1:
        return -np.cos(d)
    m, x = np.divmod(n * np.abs(d), np.pi)
    return (2.0 * m + 1.0 - np.cos(x)) / n - 1.0


def linear_model_correlation(delta):
    """Correlation of the uniform-density linear-map reference model.

    The sawtooth 2|delta|/pi - 1: the limit the circle-map family
    approaches as the density index grows.  Verified against brute-force
    Monte Carlo of the linear map before being frozen here.
    """
    return 2.0 * np.abs(wrap_angle(delta)) / np.pi - 1.0


@dataclass(frozen=True)
class BellCheck:
    lhs: float
    rhs: float
    violated: bool


def _bell_sides(d1, d2):
    """lhs, rhs and verdict of |E(d1) - E(d2)| <= 1 + E(d2 - d1), at floats or equal-shape arrays."""
    lhs = np.abs(correlation(d1) - correlation(d2))
    rhs = 1.0 + correlation(wrap_angle(d2 - d1))
    return lhs, rhs, lhs > rhs + VIOLATION_TOL


def bell_inequality_sides(d1, d2) -> BellCheck:
    """Two-angle Bell inequality |E(d1) - E(d2)| <= 1 + E(d2 - d1).

    Requires the conventional ordering 0 <= d1 <= d2 <= pi.
    """
    d1 = float(d1)
    d2 = float(d2)
    if not (0.0 <= d1 <= d2 <= np.pi):
        raise ValueError(f"require 0 <= d1 <= d2 <= pi, got ({d1!r}, {d2!r})")
    lhs, rhs, violated = _bell_sides(d1, d2)
    return BellCheck(lhs=float(lhs), rhs=float(rhs), violated=bool(violated))


def bell_violation_map(points=60):
    """Scan the ordered (d1, d2) triangle; rows (d1, d2, lhs, rhs, violated)."""
    grid = np.linspace(0.0, np.pi, points)
    d1, d2 = (grid[k] for k in np.triu_indices(points))
    lhs, rhs, violated = _bell_sides(d1, d2)
    return list(zip(d1.tolist(), d2.tolist(), lhs.tolist(), rhs.tolist(), violated.tolist()))


@dataclass(frozen=True)
class ChshSetting:
    """The three relative angles of the CHSH combination: floats, or equal-shape arrays (a grid)."""

    d_omega: float
    d_omega_p: float
    d_omega_pp: float

    def __post_init__(self):
        object.__setattr__(self, "d_omega", wrap_angle(self.d_omega))
        object.__setattr__(self, "d_omega_p", wrap_angle(self.d_omega_p))
        object.__setattr__(self, "d_omega_pp", wrap_angle(self.d_omega_pp))

    def relative_orientations(self, phi=0.0):
        """Effective parameters wrap(r - phi) of the four CHSH terms, stacked on a first axis of 4.

        r = d', d'', wrap(d' - d), wrap(d'' - d): the B orientations against
        the common reference.  A run's settings use its wrapped state phase.
        """
        d, dp, dpp = self.d_omega, self.d_omega_p, self.d_omega_pp
        return wrap_angle(np.array([dp, dpp, wrap_angle(dp - d), wrap_angle(dpp - d)]) - phi)


OPTIMAL_CHSH_SETTING = ChshSetting(
    d_omega=np.pi / 2, d_omega_p=np.pi / 4, d_omega_pp=-np.pi / 4
)


def chsh_expectation(setting: ChshSetting, phi=0.0, n=1):
    """Exact E(r1) + E(r2) + E(r3) - E(r4) over relative_orientations(phi), E = correlation at n.

    An array-valued setting gives an array.
    """
    e = correlation(setting.relative_orientations(phi), n)
    return e[0] + e[1] + e[2] - e[3]


def chsh_value(setting: ChshSetting, phi=0.0, n=1) -> float:
    """|chsh_expectation(setting, phi, n)|, the CHSH magnitude compared with 2."""
    return float(abs(chsh_expectation(setting, phi, n)))


def linear_law_curve(delta, grid_points):
    """Reference pairs (omega, wrap(omega - delta)) on a uniform grid."""
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    omegas = np.linspace(-np.pi, np.pi, grid_points, endpoint=False)
    return omegas, linear_reference(omegas, delta)


def transform_curve(delta, grid_points, n=1):
    """Columns (omega, transformed, linear reference) for plotting."""
    omegas, linear = linear_law_curve(delta, grid_points)
    return omegas, circle_transform_n(omegas, delta, n), linear
