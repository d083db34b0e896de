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
from .model import wrap_angle

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
OVERLAP_TOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

AXES = ("in-plane", "orthogonal-in-plane", "flight")


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


def _check_normalized(state, tol=1e-12):
    state = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm!r} is not 1")
    return state


def born_probabilities(state, omega_a_ref, omega_b_ref) -> JointDistribution:
    """Joint outcome probabilities for strong in-plane measurements."""
    psi = _check_normalized(state)
    probs = {}
    for s_a in (1, -1):
        for s_b in (1, -1):
            f = PostSelection(omega_a_ref, s_a, omega_b_ref, s_b).state()
            probs[(s_a, s_b)] = float(abs(np.vdot(f, psi)) ** 2)
    return JointDistribution(
        p_pp=probs[(1, 1)],
        p_pm=probs[(1, -1)],
        p_mp=probs[(-1, 1)],
        p_mm=probs[(-1, -1)],
    )


def weak_value(pre_state, post: PostSelection, op: np.ndarray, subsystem="A") -> complex:
    """Conditioned value <f|O|psi> / <f|psi> between pre- and post-selection.

    ``op`` may be 2x2 (lifted onto the requested subsystem) or 4x4
    (subsystem ignored).  Raises PostSelectionOverlapError when the
    post-selected bra is orthogonal to the prepared state.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    psi = np.asarray(pre_state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if op.shape == (2, 2):
        full = embed_a(op) if subsystem == "A" else embed_b(op)
    elif op.shape == (4, 4):
        full = op
    else:
        raise ValueError(f"operator shape {op.shape} unsupported")
    f = post.state()
    den = complex(np.vdot(f, psi))
    if abs(den) <= OVERLAP_TOL:
        raise PostSelectionOverlapError(
            f"post-selection overlap {abs(den):.3e} below {OVERLAP_TOL:.0e}"
        )
    return complex(np.vdot(f, full @ psi)) / den


def is_hermitian(op, tol=HERMITICITY_TOL) -> bool:
    op = np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.abs(op).max()))
    return float(np.abs(op - op.conj().T).max()) <= tol * scale


def _pauli_components(h2):
    a = complex(np.trace(h2)).real / 2.0
    v = np.array(
        [
            complex(np.trace(PAULI_X @ h2)).real / 2.0,
            complex(np.trace(PAULI_Y @ h2)).real / 2.0,
            complex(np.trace(PAULI_Z @ h2)).real / 2.0,
        ]
    )
    return a, v


def _unitary_exp(hamiltonian, t):
    """exp(-i H t) for Hermitian H of dimension 2 (closed form) or 4 (eigh)."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape == (2, 2):
        a, v = _pauli_components(h)
        b = float(np.linalg.norm(v))
        phase = np.exp(-1j * a * t)
        if b == 0.0:
            return phase * IDENTITY_2
        n = v / b
        sigma_n = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        return phase * (np.cos(b * t) * IDENTITY_2 - 1j * np.sin(b * t) * sigma_n)
    if h.shape == (4, 4):
        evals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
    raise ValueError(f"hamiltonian shape {h.shape} unsupported")


def heisenberg_evolve(op, hamiltonian, t) -> np.ndarray:
    """exp(+i H t) op exp(-i H t); requires a Hermitian hamiltonian."""
    h = np.asarray(hamiltonian, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("hamiltonian is not Hermitian")
    op = np.asarray(op, dtype=complex)
    if op.shape != h.shape:
        raise ValueError(f"operator shape {op.shape} does not match hamiltonian {h.shape}")
    u = _unitary_exp(h, float(t))
    defect = float(np.abs(u @ u.conj().T - np.eye(h.shape[0])).max())
    if defect > UNITARITY_TOL:
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
    posts = [
        PostSelection(omega_a_ref, s_a, omega_b_ref, s_b)
        for s_a in (1, -1)
        for s_b in (1, -1)
    ]
    out = []
    for t in times:
        evolved = {name: heisenberg_evolve(op, h, t) for name, op in full_ops.items()}
        branches = []
        for post in posts:
            f = post.state()
            amp = complex(np.vdot(f, psi))
            p = float(abs(amp) ** 2)
            if abs(amp) <= OVERLAP_TOL:
                branches.append(
                    PathBranch(post.s_a, post.s_b, probability=p, weak_values=None)
                )
                continue
            wvs = {
                name: complex(np.vdot(f, op_t @ psi)) / amp
                for name, op_t in evolved.items()
            }
            branches.append(
                PathBranch(post.s_a, post.s_b, probability=p, weak_values=wvs)
            )
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
    dim = payload.get("dim")
    if dim not in (2, 4):
        raise ValueError(f"dim must be 2 or 4, got {dim!r}")
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix shapes {re.shape}/{im.shape} do not match dim {dim}")
    op = re + 1j * im
    if not is_hermitian(op):
        raise ValueError("operator is not Hermitian")
    return op
