"""Closed-form predictions and Bell/CHSH inequality expressions.

These are the exact references against which the Monte Carlo harness is
checked: joint outcome probabilities, the correlation -cos(delta), the
two-angle Bell inequality, and the three-angle CHSH combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import circle_transform_n, linear_reference, wrap_angle

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


def correlation(delta):
    """Expected product of the two outcomes: -cos(delta)."""
    return -np.cos(wrap_angle(delta))


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


def bell_inequality_sides(d1, d2) -> BellCheck:
    """Two-angle Bell inequality |E(d1) - E(d2)| <= 1 + E(d2 - d1).

    Requires the conventional ordering 0 <= d1 <= d2 <= pi.
    """
    d1 = float(d1)
    d2 = float(d2)
    if not (0.0 <= d1 <= d2 <= np.pi):
        raise ValueError(f"require 0 <= d1 <= d2 <= pi, got ({d1!r}, {d2!r})")
    lhs = float(abs(correlation(d1) - correlation(d2)))
    rhs = float(1.0 + correlation(wrap_angle(d2 - d1)))
    return BellCheck(lhs=lhs, rhs=rhs, violated=lhs > rhs + VIOLATION_TOL)


def bell_violation_map(points=60):
    """Scan the ordered (d1, d2) triangle; rows (d1, d2, lhs, rhs, violated)."""
    grid = np.linspace(0.0, np.pi, points)
    rows = []
    for i, d1 in enumerate(grid):
        for d2 in grid[i:]:
            chk = bell_inequality_sides(d1, d2)
            rows.append((float(d1), float(d2), chk.lhs, chk.rhs, chk.violated))
    return rows


@dataclass(frozen=True)
class ChshSetting:
    """The three relative angles entering the CHSH combination."""

    d_omega: float
    d_omega_p: float
    d_omega_pp: float

    def __post_init__(self):
        object.__setattr__(self, "d_omega", wrap_angle(self.d_omega))
        object.__setattr__(self, "d_omega_p", wrap_angle(self.d_omega_p))
        object.__setattr__(self, "d_omega_pp", wrap_angle(self.d_omega_pp))

    def relative_orientations(self):
        """The four B orientations measured against the common reference."""
        return (
            self.d_omega_p,
            self.d_omega_pp,
            wrap_angle(self.d_omega_p - self.d_omega),
            wrap_angle(self.d_omega_pp - self.d_omega),
        )


OPTIMAL_CHSH_SETTING = ChshSetting(
    d_omega=np.pi / 2, d_omega_p=np.pi / 4, d_omega_pp=-np.pi / 4
)


def chsh_value(setting: ChshSetting) -> float:
    """|E(d') + E(d'') + E(d' - d) - E(d'' - d)| with E = -cos."""
    r1, r2, r3, r4 = setting.relative_orientations()
    return float(abs(correlation(r1) + correlation(r2) + correlation(r3) - correlation(r4)))


def chsh_grid_max(points=21):
    """Maximum of chsh_value over a grid containing the optimal setting.

    Axis ranges [0, pi] x [0, pi] x [-pi, 0] with `points` uniform values
    each put (pi/2, pi/4, -pi/4) exactly on the grid for points = 21.
    Returns (max_value, argmax ChshSetting).
    """
    base = np.linspace(0.0, np.pi, points)
    # the loop over (d, d', d'') of chsh_value, elementwise; argmax keeps its first maximum
    d, dp, dpp = np.meshgrid(wrap_angle(base), wrap_angle(base), wrap_angle(-base), indexing="ij")
    partial = correlation(dp) + correlation(dpp) + correlation(wrap_angle(dp - d))
    values = np.abs(partial - correlation(wrap_angle(dpp - d)))
    i, j, k = np.unravel_index(np.argmax(values), values.shape)
    return float(values[i, j, k]), ChshSetting(d_omega=base[i], d_omega_p=base[j], d_omega_pp=-base[k])


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
