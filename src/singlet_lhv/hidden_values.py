"""Hidden polarization values and their coarse-subset averages.

Each hidden orientation omega carries a triple of assigned polarization
values in the observer's frame:

    s_ref    = +1 on [0, pi), -1 on [-pi, 0)
    s_perp   = i * s_ref            (transverse phasor component)
    s_flight = -s_ref / tan(omega)  (cotangent component)

The linear extension to an arbitrary in-plane direction is
cos(dw) * s_ref + sin(dw) * s_perp = s_ref * exp(i dw).

Averaging over the four coarse subsets selected by a joint strong
outcome must reproduce the conditioned (weak) values of the quantum
reference.  The quantity-to-operator pairing is fixed by that
requirement, not by the component labels:

    in-plane reference operator      <->  s_ref
    orthogonal in-plane operator     <->  s_flight        (-sign * cot)
    flight-axis operator             <->  -s_perp*s_flight (= i * cot)

No Hermitian observable can have the constant imaginary conditioned
value +-i that the bare s_perp column would demand: together with the
reference identity it would force the post-selected state onto the
flight axis, contradicting the in-plane post-selection.  The pairing
above is the unique one consistent with the defining identities, and
verify_weak_value_match checks it exactly (closed-form subset averages
vs. oracle).  Those closed forms (subset_averages) are the only runtime
path; tests/test_hidden_values.py holds the adaptive-quadrature reference
they are tested against.
B-side quantities are an extrapolation of the same formulas to the
B-frame coordinate and are flagged as such in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import orientation_cdf, wrap_angle
from .quantum import (
    AXES,
    OUTCOME_PAIRS,
    bell_state,
    polarization_operator,
    polarization_operator_b,
    post_selection_bras,
    weak_value,
)

MATCH_TOL = 1e-8
ZERO_MEASURE_TOL = 1e-12


class ZeroMeasureSubsetError(ValueError):
    """Requested an average over a subset of vanishing density measure."""


@dataclass(frozen=True)
class HiddenValueTriple:
    s_ref: int
    s_perp: complex
    s_flight: complex


def hidden_triple(omega) -> HiddenValueTriple:
    """Assigned polarization values at one hidden orientation.

    At the poles {0, -pi} the cotangent component is non-finite; it is
    returned as a signed infinity (the common one-sided limit) rather
    than raised, so samplers can still carry the triple.  Density-
    weighted averages never see the poles with nonzero weight.
    """
    w = wrap_angle(float(omega))
    s_ref = 1 if w >= 0.0 else -1
    s_perp = 1j * s_ref
    if w == 0.0:
        s_flight = complex(-math.inf)
    elif w == -math.pi:
        s_flight = complex(math.inf)
    else:
        s_flight = complex(-s_ref / math.tan(w))
    return HiddenValueTriple(s_ref=s_ref, s_perp=s_perp, s_flight=s_flight)


def hidden_at_direction(omega, delta_omega) -> complex:
    """Polarization value along a direction rotated by delta_omega."""
    t = hidden_triple(omega)
    dw = float(delta_omega)
    return math.cos(dw) * t.s_ref + math.sin(dw) * t.s_perp


@dataclass(frozen=True)
class CoarseSubset:
    """Region of orientation space selected by one joint outcome."""

    s_a: int
    s_b: int
    intervals: tuple[tuple[float, float], ...]

    def measure(self, n=1) -> float:
        total = 0.0
        for lo, hi in self.intervals:
            total += float(orientation_cdf(hi, n) - orientation_cdf(lo, n))
        return total


def coarse_partition(delta) -> tuple[CoarseSubset, ...]:
    """Four subsets of the A-frame coordinate, one per outcome pair.

    B responds +1 on the kernel's arc (delta - pi, delta].  These half-open
    subsets, [delta - pi, delta) for delta >= 0 and wrapping around -pi for
    delta < 0, match it up to their zero-density endpoints.
    """
    d = wrap_angle(float(delta))
    # B's cut pair lo <= 0 <= hi; s, the sign of delta, is B's outcome just above 0
    s = 1 if d >= 0.0 else -1
    lo, hi = (d - math.pi, d) if s > 0 else (d, d + math.pi)
    table = {
        (1, s): ((0.0, hi),),
        (1, -s): ((hi, math.pi),),
        (-1, s): ((lo, 0.0),),
        (-1, -s): ((-math.pi, lo),),
    }
    return tuple(
        CoarseSubset(s_a=sa, s_b=sb, intervals=table[(sa, sb)]) for sa, sb in OUTCOME_PAIRS
    )


def b_coarse_partition(delta) -> tuple[CoarseSubset, ...]:
    """The same four branches expressed in the B-frame coordinate.

    Images of the A-frame subsets under the measure-preserving frame
    map; each is a single interval with the same density measure as its
    A-side counterpart.  B's coordinate carries s_b as its sign, as A's
    carries s_a, so the B subset of (s_a, s_b) is the A interval of
    (s_b, s_a).
    """
    a_side = {(s.s_a, s.s_b): s.intervals for s in coarse_partition(delta)}
    return tuple(
        CoarseSubset(s_a=sa, s_b=sb, intervals=a_side[(sb, sa)]) for sa, sb in OUTCOME_PAIRS
    )


def _checked_measure(subset: CoarseSubset) -> float:
    den = subset.measure()
    if den <= ZERO_MEASURE_TOL:
        raise ZeroMeasureSubsetError(
            f"subset for outcome ({subset.s_a:+d},{subset.s_b:+d}) has measure {den:.3e}"
        )
    return den


def __getattr__(name):
    # only for the ("hidden_values", "quad", "scipy") entry of WRAPPED in
    # perfbench/spans.py, which looks quad up here; scipy is imported on that
    # access, never at start-up.  Goes with that entry (ROADMAP item 1).
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sign(w: float) -> float:
    return 1.0 if w >= 0.0 else -1.0


def subset_averages(subset: CoarseSubset, measure: float | None = None) -> dict[str, complex]:
    """Density-weighted mean of each operator's quantity over a subset, in closed form.

    On an interval [lo, hi] on one side of 0, with sign s, the quantities
    times the density 0.25 |sin w| integrate exactly to
    0.25 (cos lo - cos hi) (in-plane), -0.25 (sin hi - sin lo)
    (orthogonal-in-plane) and i s 0.25 (sin hi - sin lo) (flight); they are
    evaluated in the cancellation-free product forms of those differences.  ``measure``, if
    given, is the subset's already checked density measure.
    """
    den = _checked_measure(subset) if measure is None else measure
    num = dict.fromkeys(AXES, 0j)
    for lo, hi in subset.intervals:
        mid, half = 0.5 * (lo + hi), math.sin(0.5 * (hi - lo))
        dsin = 0.5 * math.cos(mid) * half
        num["in-plane"] += 0.5 * math.sin(mid) * half
        num["orthogonal-in-plane"] -= dsin
        num["flight"] += 1j * _sign(mid) * dsin
    return {axis: v / den for axis, v in num.items()}


@dataclass(frozen=True)
class MatchRow:
    s_a: int
    s_b: int
    operator: str
    subsystem: str
    model_average: complex
    oracle_weak_value: complex

    @property
    def difference(self) -> complex:
        return self.model_average - self.oracle_weak_value

    @property
    def abs_diff(self) -> float:
        return abs(self.difference)

    def as_dict(self):
        return {
            "s_a": self.s_a,
            "s_b": self.s_b,
            "operator": self.operator,
            "subsystem": self.subsystem,
            "model_average": [self.model_average.real, self.model_average.imag],
            "oracle_weak_value": [
                self.oracle_weak_value.real,
                self.oracle_weak_value.imag,
            ],
            "difference": [self.difference.real, self.difference.imag],
            "abs_diff": self.abs_diff,
        }


@dataclass(frozen=True)
class WeakValueReport:
    phi: float
    delta_omega: float
    delta: float
    degenerate: bool
    comparisons: tuple[MatchRow, ...]
    b_side_comparisons: tuple[MatchRow, ...]
    tolerance: float = MATCH_TOL

    @property
    def max_abs_diff(self) -> float:
        if not self.comparisons:
            return math.nan
        return max(row.abs_diff for row in self.comparisons)

    @property
    def passed(self) -> bool:
        return (not self.degenerate) and all(
            row.abs_diff <= self.tolerance for row in self.comparisons
        )

    @property
    def b_side_passed(self) -> bool:
        return (not self.degenerate) and all(
            row.abs_diff <= self.tolerance for row in self.b_side_comparisons
        )

    def as_dict(self):
        return {
            "phi": self.phi,
            "delta_omega": self.delta_omega,
            "delta": self.delta,
            "degenerate": self.degenerate,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "comparisons": [row.as_dict() for row in self.comparisons],
            "b_side": {
                "note": "extrapolation: A-side formulas applied to the B-frame coordinate",
                "passed": self.b_side_passed,
                "comparisons": [row.as_dict() for row in self.b_side_comparisons],
            },
        }


def verify_weak_value_match(phi, delta_omega) -> WeakValueReport:
    """Compare subset averages against oracle weak values, both sides.

    Twelve A-side comparisons (four post-selections, three operators)
    plus the twelve B-side extrapolations.  Degenerate settings
    (delta in {0, +-pi}) are reported without comparisons.
    """
    phi = wrap_angle(float(phi))
    d_omega = wrap_angle(float(delta_omega))
    delta = wrap_angle(d_omega - phi)
    partition = coarse_partition(delta)
    # the B subset of (s_a, s_b) is the A interval of (s_b, s_a): one measure serves both
    measures = {(s.s_a, s.s_b): s.measure() for s in partition}
    if min(measures.values()) <= ZERO_MEASURE_TOL:
        return WeakValueReport(
            phi=phi,
            delta_omega=d_omega,
            delta=delta,
            degenerate=True,
            comparisons=(),
            b_side_comparisons=(),
        )

    psi = bell_state(phi)
    omega_a_ref = 0.0
    omega_b_ref = wrap_angle(omega_a_ref + d_omega)
    bras = post_selection_bras(omega_a_ref, omega_b_ref)
    ops = {
        "A": [polarization_operator(omega_a_ref, axis) for axis in AXES],
        "B": [polarization_operator_b(omega_b_ref, axis) for axis in AXES],
    }
    sides = {"A": partition, "B": b_coarse_partition(delta)}
    rows = {"A": [], "B": []}
    for side, subsets in sides.items():
        # one call per side: the k-th row belongs to the bra of OUTCOME_PAIRS[k]
        oracle = dict(zip(OUTCOME_PAIRS, weak_value(psi, bras, ops[side], side)))
        for subset in subsets:
            pair = (subset.s_a, subset.s_b) if side == "A" else (subset.s_b, subset.s_a)
            averages = subset_averages(subset, measures[pair])
            for axis, value in zip(AXES, oracle[subset.s_a, subset.s_b]):
                rows[side].append(
                    MatchRow(
                        s_a=subset.s_a,
                        s_b=subset.s_b,
                        operator=axis,
                        subsystem=side,
                        model_average=averages[axis],
                        oracle_weak_value=value,
                    )
                )
    return WeakValueReport(
        phi=phi,
        delta_omega=d_omega,
        delta=delta,
        degenerate=False,
        comparisons=tuple(rows["A"]),
        b_side_comparisons=tuple(rows["B"]),
    )
