"""Exact quantum reference: entangled states, polarization operators,
Born probabilities, weak values, Heisenberg evolution, path ensembles.

Dense complex linear algebra in dimensions 2 and 4 only.  Basis order is
(uu, ud, du, dd) with subsystem A as the left tensor factor.  In-plane
polarization directions at angle w map to cos(w) X + sin(w) Y; the
flight axis of particle A maps to Z.  Particle B propagates the other
way, so its transverse orientation is mirrored (perpendicular at
w - pi/2) and its flight operator is -Z.  With these conventions the
correlation of joint strong measurements is -cos(d_omega - phi) for
d_omega = omega_b_ref - omega_a_ref, matching the analytic module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analytic import JointDistribution
from .model import _as_float_array, wrap_angle

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
OVERLAP_TOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

AXES = ("in-plane", "orthogonal-in-plane", "flight")
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class PostSelectionOverlapError(ValueError):
    """Post-selection state orthogonal to the prepared state."""


def bell_state(phi) -> np.ndarray:
    """Entangled pair state with relative phase phi.

    Amplitudes (0, 1, -exp(-i phi), 0) / sqrt(2) in the (uu, ud, du, dd)
    basis; phi = 0 is the singlet that anti-correlates along every
    in-plane direction pair with zero relative angle.
    """
    phi = wrap_angle(phi)
    return np.array([0.0, 1.0, -np.exp(-1j * phi), 0.0], dtype=complex) / np.sqrt(2.0)


def polarization_operator(omega_ref, axis: str) -> np.ndarray:
    """Polarization component of particle A along the requested axis.

    ``in-plane`` at angle omega_ref, ``orthogonal-in-plane`` at
    omega_ref + pi/2 (right-oriented about the +Z flight direction),
    ``flight`` along +Z.  All outputs are Hermitian with eigenvalues +-1.
    """
    w = wrap_angle(omega_ref)
    if axis == "in-plane":
        return np.cos(w) * PAULI_X + np.sin(w) * PAULI_Y
    if axis == "orthogonal-in-plane":
        return polarization_operator(w + np.pi / 2.0, "in-plane")
    if axis == "flight":
        return PAULI_Z.copy()
    raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")


def polarization_operator_b(omega_ref, axis: str) -> np.ndarray:
    """Polarization component of particle B along the requested axis.

    B flies opposite to A, so right-orientation about its own flight
    direction mirrors the transverse sense: the orthogonal in-plane
    component sits at omega_ref - pi/2 and the flight operator is -Z.
    In-plane components use the same absolute-angle family as A.
    """
    w = wrap_angle(omega_ref)
    if axis == "in-plane":
        return polarization_operator(w, "in-plane")
    if axis == "orthogonal-in-plane":
        return polarization_operator(w - np.pi / 2.0, "in-plane")
    if axis == "flight":
        return -PAULI_Z.copy()
    raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")


def embed_a(op2: np.ndarray) -> np.ndarray:
    """Lift a single-particle operator to act on subsystem A."""
    return np.kron(op2, IDENTITY_2)


def embed_b(op2: np.ndarray) -> np.ndarray:
    """Lift a single-particle operator to act on subsystem B."""
    return np.kron(IDENTITY_2, op2)


def in_plane_eigenstate(omega_ref, outcome) -> np.ndarray:
    """Normalized eigenvector of the in-plane operator at omega_ref."""
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    w = wrap_angle(omega_ref)
    return np.array([1.0, outcome * np.exp(1j * w)], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class PostSelection:
    """Joint strong-measurement outcome used as the post-selected bra."""

    omega_a_ref: float
    s_a: int
    omega_b_ref: float
    s_b: int

    def __post_init__(self):
        object.__setattr__(self, "omega_a_ref", wrap_angle(self.omega_a_ref))
        object.__setattr__(self, "omega_b_ref", wrap_angle(self.omega_b_ref))
        if self.s_a not in (1, -1) or self.s_b not in (1, -1):
            raise ValueError("outcomes must be +1 or -1")

    def state(self) -> np.ndarray:
        return np.kron(
            in_plane_eigenstate(self.omega_a_ref, self.s_a),
            in_plane_eigenstate(self.omega_b_ref, self.s_b),
        )


def post_selection_bras(omega_a_ref, omega_b_ref) -> np.ndarray:
    """Rows are PostSelection(omega_a_ref, s_a, omega_b_ref, s_b).state() in OUTCOME_PAIRS order."""
    bases = [[in_plane_eigenstate(w, s) for s in (1, -1)] for w in (omega_a_ref, omega_b_ref)]
    return np.kron(*np.array(bases))


def _amplitudes(psi, bras, ops=()):
    """<f|psi> per bra row f and <f|O|psi> per 4x4 O, each one np.vdot, as Python complex."""
    images = np.asarray(ops, dtype=complex).reshape(-1, 4, 4) @ psi
    overlaps = [complex(np.vdot(f, psi)) for f in bras]
    return overlaps, [[complex(np.vdot(f, v)) for v in images] for f in bras]


def _check_normalized(state):
    state = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm!r} is not 1")
    return state


def born_probabilities(state, omega_a_ref, omega_b_ref) -> JointDistribution:
    """Joint outcome probabilities for strong in-plane measurements."""
    overlaps, _ = _amplitudes(
        _check_normalized(state), post_selection_bras(omega_a_ref, omega_b_ref)
    )
    return JointDistribution(*(float(abs(amp) ** 2) for amp in overlaps))


def weak_value(pre_state, post, op: np.ndarray, subsystem="A") -> complex | list:
    """Conditioned value <f|O|psi> / <f|psi> between pre- and post-selection.

    ``op`` may be 2x2 (lifted onto the requested subsystem) or 4x4
    (subsystem ignored), or a (k, 2, 2) or (k, 4, 4) stack, which gives the
    list of the k single-operator values.  ``post`` is a PostSelection, or a
    (m, 4) stack of post-selected bras such as ``post_selection_bras``; a
    stack gives m rows, row i being what the PostSelection of bra i gives.
    The operators are lifted once for all bras.  Raises
    PostSelectionOverlapError when a post-selected bra is orthogonal to the
    prepared state.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    psi = np.asarray(pre_state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"operator shape {op.shape} unsupported")
    if op.shape[-1] == 2:
        op = embed_a(op) if subsystem == "A" else embed_b(op)
    single = isinstance(post, PostSelection)
    bras = np.asarray([post.state()] if single else post, dtype=complex)
    if bras.ndim != 2 or bras.shape[1] != 4:
        raise ValueError(f"post-selected bra stack shape {bras.shape} unsupported")
    overlaps, nums = _amplitudes(psi, bras, op)
    rows = []
    for den, row_nums in zip(overlaps, nums):
        if abs(den) <= OVERLAP_TOL:
            raise PostSelectionOverlapError(
                f"post-selection overlap {abs(den):.3e} below {OVERLAP_TOL:.0e}"
            )
        values = [num / den for num in row_nums]
        rows.append(values if op.ndim == 3 else values[0])
    return rows[0] if single else rows


def is_hermitian(op, tol=HERMITICITY_TOL) -> bool:
    op = np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.abs(op).max()))
    return float(np.abs(op - op.conj().T).max()) <= tol * scale


def _unitary_exp(hamiltonian, t):
    """exp(-i H t) for Hermitian H of dimension 2 or 4, by eigh."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"hamiltonian shape {h.shape} unsupported")
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def heisenberg_evolve(op, hamiltonian, t) -> np.ndarray:
    """exp(+i H t) op exp(-i H t); requires a Hermitian hamiltonian and a finite t."""
    h = np.asarray(hamiltonian, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("hamiltonian is not Hermitian")
    op = np.asarray(op, dtype=complex)
    if op.shape != h.shape:
        raise ValueError(f"operator shape {op.shape} does not match hamiltonian {h.shape}")
    u = _unitary_exp(h, float(_as_float_array(t, "time")))
    defect = float(np.abs(u @ u.conj().T - np.eye(h.shape[0])).max())
    if not defect <= UNITARITY_TOL:
        raise ArithmeticError(f"propagator unitarity defect {defect:.3e}")
    return u.conj().T @ op @ u


@dataclass(frozen=True)
class PathBranch:
    """One post-selection branch: probability plus conditioned values."""

    s_a: int
    s_b: int
    probability: float
    weak_values: Mapping[str, complex] | None


@dataclass(frozen=True)
class PathEnsemble:
    time: float
    branches: tuple[PathBranch, ...]

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def path_ensemble(
    state,
    omega_a_ref,
    omega_b_ref,
    ops: Mapping[str, np.ndarray],
    hamiltonian,
    times: Sequence[float],
) -> list[PathEnsemble]:
    """Branch probabilities and per-branch conditioned operator values.

    Each named operator is evolved to every requested time and its weak
    value recorded on the four post-selection branches.  Branches with
    vanishing probability carry no weak values.
    """
    psi = _check_normalized(state)
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape == (2, 2):
        h = embed_a(h)
    full_ops = {}
    for name, op in ops.items():
        op = np.asarray(op, dtype=complex)
        full_ops[name] = embed_a(op) if op.shape == (2, 2) else op
    bras = post_selection_bras(omega_a_ref, omega_b_ref)
    out = []
    for t in times:
        evolved = [heisenberg_evolve(op, h, t) for op in full_ops.values()]
        overlaps, nums = _amplitudes(psi, bras, evolved)
        branches = []
        for (s_a, s_b), amp, branch_nums in zip(OUTCOME_PAIRS, overlaps, nums):
            wvs = None
            if abs(amp) > OVERLAP_TOL:
                wvs = {name: num / amp for name, num in zip(full_ops, branch_nums)}
            branches.append(PathBranch(s_a, s_b, probability=float(abs(amp) ** 2), weak_values=wvs))
        if not any(b.probability > 0.0 for b in branches):
            raise ValueError("no branch has positive probability")
        out.append(PathEnsemble(time=float(t), branches=tuple(branches)))
    return out


def load_operator(source) -> np.ndarray:
    """Read an operator from JSON: fields dim (2 or 4), re, im (row-major).

    Accepts a path, a JSON string, or an already-parsed mapping.
    Hermiticity is validated on load.
    """
    if isinstance(source, Mapping):
        payload = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            payload = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
    if not isinstance(payload, Mapping):
        raise ValueError(f"operator must be a JSON object, got {type(payload).__name__}")
    dim = payload.get("dim")
    if dim not in (2, 4):
        raise ValueError(f"dim must be 2 or 4, got {dim!r}")
    if "re" not in payload or "im" not in payload:
        raise ValueError("operator needs both fields re and im")
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix shapes {re.shape}/{im.shape} do not match dim {dim}")
    op = re + 1j * im
    if not is_hermitian(op):
        raise ValueError("operator is not Hermitian")
    return op
