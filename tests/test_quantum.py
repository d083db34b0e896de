import json
import math

import numpy as np
import pytest

from singlet_lhv.model import wrap_angle
from singlet_lhv.quantum import (
    OUTCOME_PAIRS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PathEnsemble,
    PostSelection,
    PostSelectionOverlapError,
    bell_state,
    born_probabilities,
    embed_a,
    embed_b,
    heisenberg_evolve,
    in_plane_eigenstate,
    is_hermitian,
    load_operator,
    path_ensemble,
    polarization_operator,
    polarization_operator_b,
    post_selection_bras,
    weak_value,
)

SQ2 = math.sqrt(2.0)


def rand_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


# ----------------------------------------------------------- states


def test_bell_state_amplitudes():
    psi = bell_state(0.0)
    np.testing.assert_allclose(psi, [0, 1 / SQ2, -1 / SQ2, 0], atol=1e-15)
    psi = bell_state(math.pi)
    np.testing.assert_allclose(psi, [0, 1 / SQ2, 1 / SQ2, 0], atol=1e-12)
    for phi in np.linspace(-math.pi, math.pi, 17):
        assert np.linalg.norm(bell_state(phi)) == pytest.approx(1.0, abs=1e-15)


# -------------------------------------------------------- operators


def test_polarization_operator_axes():
    np.testing.assert_allclose(polarization_operator(0.0, "in-plane"), PAULI_X, atol=1e-15)
    np.testing.assert_allclose(
        polarization_operator(0.0, "orthogonal-in-plane"), PAULI_Y, atol=1e-15
    )
    np.testing.assert_allclose(polarization_operator(0.0, "flight"), PAULI_Z, atol=1e-15)
    with pytest.raises(ValueError):
        polarization_operator(0.0, "sideways")


def test_polarization_operator_b_mirrors_transverse_sense():
    np.testing.assert_allclose(
        polarization_operator_b(0.0, "orthogonal-in-plane"), -PAULI_Y, atol=1e-15
    )
    np.testing.assert_allclose(polarization_operator_b(0.3, "flight"), -PAULI_Z, atol=1e-15)
    np.testing.assert_allclose(
        polarization_operator_b(0.3, "in-plane"),
        polarization_operator(0.3, "in-plane"),
        atol=1e-15,
    )


@pytest.mark.parametrize("axis", ["in-plane", "orthogonal-in-plane", "flight"])
def test_polarization_operator_spectrum(axis):
    for w in np.linspace(-math.pi, math.pi, 9):
        op = polarization_operator(w, axis)
        assert is_hermitian(op)
        evals = np.sort(np.linalg.eigvalsh(op))
        np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-12)


def test_eigenstate_property():
    for w in np.linspace(-math.pi, math.pi, 9):
        op = polarization_operator(w, "in-plane")
        for s in (1, -1):
            v = in_plane_eigenstate(w, s)
            np.testing.assert_allclose(op @ v, s * v, atol=1e-12)


# ------------------------------------------------------------- born


def test_born_examples():
    d = born_probabilities(bell_state(0.0), 0.0, 0.0)
    assert d.correlation == pytest.approx(-1.0, abs=1e-12)
    d = born_probabilities(bell_state(0.0), 0.0, math.pi / 2)
    assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == pytest.approx((0.25,) * 4, abs=1e-12)
    d = born_probabilities(bell_state(math.pi / 3), 0.0, math.pi / 3)
    assert d.correlation == pytest.approx(-1.0, abs=1e-12)


def test_born_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        born_probabilities(np.array([1.0, 1.0, 0.0, 0.0]), 0.0, 0.0)


def test_born_correlation_grid():
    # E = -cos(d_omega - phi) on a full 25 x 25 grid
    grid = np.linspace(-math.pi, math.pi, 25)
    worst = 0.0
    for phi in grid:
        psi = bell_state(phi)
        for d_omega in grid:
            got = born_probabilities(psi, 0.4, 0.4 + d_omega).correlation
            worst = max(worst, abs(got - (-math.cos(d_omega - phi))))
    assert worst < 1e-10


def test_born_depends_only_on_relative_angle():
    psi = bell_state(0.7)
    a = born_probabilities(psi, 0.0, 1.1)
    b = born_probabilities(psi, -2.0, -0.9)
    assert a.p_pp == pytest.approx(b.p_pp, abs=1e-12)
    assert a.p_pm == pytest.approx(b.p_pm, abs=1e-12)


# ------------------------------------------------------ weak values


def _bloch_weak_value(direction, post_vec, pre_vec):
    """Independent oracle: [m.(u+v) - i m.(u x v)] / (1 + u.v)."""
    m = np.asarray(direction, float)
    u = np.asarray(post_vec, float)
    v = np.asarray(pre_vec, float)
    return (m @ (u + v) - 1j * (m @ np.cross(u, v))) / (1.0 + u @ v)


def test_weak_value_identity_and_eigenbra():
    psi = bell_state(0.4)
    post = PostSelection(0.3, 1, 1.2, -1)
    assert weak_value(psi, post, np.eye(2), "A") == pytest.approx(1.0 + 0.0j, abs=1e-12)
    op = polarization_operator(0.3, "in-plane")
    assert weak_value(psi, post, op, "A") == pytest.approx(1.0 + 0.0j, abs=1e-12)
    op_b = polarization_operator(1.2, "in-plane")
    assert weak_value(psi, post, op_b, "B") == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_weak_value_against_bloch_formula():
    # project B out of the singlet: pre-collapsed A state has Bloch
    # vector -s_b * b_hat; the post vector is s_a * a_hat (in-plane)
    rng = np.random.default_rng(8)
    psi = bell_state(0.0)
    for _ in range(60):
        oa, ob = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.cos(oa - ob)) > 0.999:
            continue
        s_a, s_b = rng.choice([1, -1], 2)
        post = PostSelection(oa, s_a, ob, s_b)
        u = s_a * np.array([math.cos(oa), math.sin(oa), 0.0])
        v = -s_b * np.array([math.cos(ob), math.sin(ob), 0.0])
        for direction, op in [
            ((1, 0, 0), PAULI_X),
            ((0, 1, 0), PAULI_Y),
            ((0, 0, 1), PAULI_Z),
        ]:
            got = weak_value(psi, post, op, "A")
            want = _bloch_weak_value(direction, u, v)
            assert got == pytest.approx(want, abs=1e-10)


def test_weak_value_flight_closed_form():
    # flight-axis weak value at post (+1, +1): i * cot(delta / 2); the
    # cotangent form -sin(d)/(1 - cos(d)) shows up on the orthogonal
    # in-plane axis (see the hidden-values pairing)
    for delta in (0.6, math.pi / 2, 2.4):
        psi = bell_state(0.0)
        post = PostSelection(0.0, 1, delta, 1)
        got = weak_value(psi, post, polarization_operator(0.0, "flight"), "A")
        assert got == pytest.approx(1j / math.tan(delta / 2), abs=1e-12)
        got = weak_value(psi, post, polarization_operator(0.0, "orthogonal-in-plane"), "A")
        assert got == pytest.approx(-math.sin(delta) / (1 - math.cos(delta)), abs=1e-12)
    # the worked value: at delta = pi/2 the orthogonal axis gives -1
    post = PostSelection(0.0, 1, math.pi / 2, 1)
    got = weak_value(bell_state(0.0), post, polarization_operator(0.0, "orthogonal-in-plane"), "A")
    assert got == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_post_selection_bras_rows_are_post_selection_states():
    rng = np.random.default_rng(61)
    for oa, ob in [(0.0, 0.0), (math.pi, -math.pi), *rng.uniform(-4, 4, (20, 2))]:
        bras = post_selection_bras(oa, ob)
        for row, (s_a, s_b) in zip(bras, [(1, 1), (1, -1), (-1, 1), (-1, -1)]):
            assert np.array_equal(row, PostSelection(oa, s_a, ob, s_b).state())


@pytest.mark.parametrize(
    "subsystem, dim, embed", [("A", 2, embed_a), ("B", 2, embed_b), ("A", 4, None)]
)
def test_weak_value_of_a_stack_equals_per_operator_calls(subsystem, dim, embed):
    rng = np.random.default_rng(62)
    for _ in range(10):
        psi = bell_state(rng.uniform(-math.pi, math.pi))
        oa, ob = rng.uniform(-math.pi, math.pi, 2)
        post = PostSelection(oa, int(rng.choice([1, -1])), ob, -1)
        stack = np.array([rand_hermitian(rng, dim) for _ in range(5)])
        got = weak_value(psi, post, stack, subsystem)
        assert got == [weak_value(psi, post, op, subsystem) for op in stack]
        f, full = post.state(), stack if dim == 4 else [embed(op) for op in stack]
        assert got == [complex(np.vdot(f, op @ psi)) / complex(np.vdot(f, psi)) for op in full]


@pytest.mark.parametrize("subsystem, dim", [("A", 2), ("B", 2), ("A", 4)])
def test_weak_value_of_a_bra_stack_equals_per_post_selection_calls(subsystem, dim):
    rng = np.random.default_rng(63)
    for _ in range(10):
        psi = bell_state(rng.uniform(-math.pi, math.pi))
        oa, ob = rng.uniform(-4, 4, 2)
        bras = post_selection_bras(oa, ob)
        posts = [PostSelection(oa, s_a, ob, s_b) for s_a, s_b in OUTCOME_PAIRS]
        stack = np.array([rand_hermitian(rng, dim) for _ in range(3)])
        for op in (stack, stack[0]):
            want = [weak_value(psi, post, op, subsystem) for post in posts]
            assert weak_value(psi, bras, op, subsystem) == want
            assert weak_value(psi, bras[2:], op, subsystem) == want[2:]


def test_weak_value_bra_stack_checks_shape_and_every_overlap():
    with pytest.raises(ValueError, match="bra stack shape"):
        weak_value(bell_state(0.0), np.zeros(4), PAULI_Z, "A")
    # at delta = 0 the (+1, +1) and (-1, -1) bras are orthogonal to the singlet
    for rows in (slice(None), slice(1, None)):
        with pytest.raises(PostSelectionOverlapError):
            weak_value(bell_state(0.0), post_selection_bras(0.4, 0.4)[rows], PAULI_Z, "A")


def test_weak_value_rejects_unsupported_stack_shape():
    post = PostSelection(0.3, 1, 1.2, -1)
    with pytest.raises(ValueError, match="shape"):
        weak_value(bell_state(0.0), post, np.zeros((2, 3, 3)), "A")


def test_weak_value_orthogonal_postselection_raises():
    psi = bell_state(0.0)
    # at delta = 0 the (+1, +1) branch has zero amplitude
    with pytest.raises(PostSelectionOverlapError):
        weak_value(psi, PostSelection(0.0, 1, 0.0, 1), PAULI_Z, "A")


# ------------------------------------------------------- heisenberg


def test_heisenberg_identity_at_zero_time():
    rng = np.random.default_rng(3)
    h = rand_hermitian(rng, 2)
    op = rand_hermitian(rng, 2)
    np.testing.assert_allclose(heisenberg_evolve(op, h, 0.0), op, atol=1e-12)


def test_heisenberg_precession_closed_form():
    # exp(+iZt) X exp(-iZt) = cos(2t) X - sin(2t) Y
    for t in (0.2, math.pi / 4, math.pi / 2, 1.9):
        got = heisenberg_evolve(PAULI_X, PAULI_Z, t)
        want = math.cos(2 * t) * PAULI_X - math.sin(2 * t) * PAULI_Y
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(
        heisenberg_evolve(PAULI_X, PAULI_Z, math.pi / 2), -PAULI_X, atol=1e-12
    )


def test_heisenberg_leaves_other_subsystem_alone():
    rng = np.random.default_rng(5)
    h_a = embed_a(rand_hermitian(rng, 2))
    op_b = embed_b(rand_hermitian(rng, 2))
    np.testing.assert_allclose(heisenberg_evolve(op_b, h_a, 0.83), op_b, atol=1e-12)


def test_heisenberg_preserves_hermiticity_and_spectrum():
    rng = np.random.default_rng(6)
    for dim in (2, 4):
        h = rand_hermitian(rng, dim)
        op = rand_hermitian(rng, dim)
        evolved = heisenberg_evolve(op, h, 1.37)
        assert is_hermitian(evolved)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(evolved)),
            np.sort(np.linalg.eigvalsh(op)),
            atol=1e-10,
        )


def test_heisenberg_rejects_non_hermitian():
    with pytest.raises(ValueError):
        heisenberg_evolve(PAULI_X, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_heisenberg_rejects_a_hamiltonian_of_unsupported_dimension():
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        heisenberg_evolve(np.eye(3), np.eye(3), 1.0)


def test_closed_form_matrix_exponential_matches_eigh():
    rng = np.random.default_rng(7)
    from singlet_lhv.quantum import _unitary_exp

    for _ in range(20):
        h = rand_hermitian(rng, 2)
        t = rng.uniform(-3, 3)
        evals, vecs = np.linalg.eigh(h)
        want = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        np.testing.assert_allclose(_unitary_exp(h, t), want, atol=1e-12)


# ------------------------------------------------------------ paths


def test_path_probabilities_sum_to_one():
    ens = path_ensemble(
        bell_state(0.3), 0.0, 1.0, {"sz": PAULI_Z}, PAULI_Z, [0.0, 0.5]
    )
    for e in ens:
        assert isinstance(e, PathEnsemble)
        assert e.total_probability == pytest.approx(1.0, abs=1e-12)


def test_path_sum_rules_randomized():
    rng = np.random.default_rng(2024)
    psi = None
    for _ in range(30):
        phi = rng.uniform(-math.pi, math.pi)
        oa = rng.uniform(-math.pi, math.pi)
        ob = rng.uniform(-math.pi, math.pi)
        if abs(abs(wrap_angle(ob - oa - phi))) < 0.05:
            continue
        psi = bell_state(phi)
        h = embed_a(rand_hermitian(rng, 2))
        o1 = rand_hermitian(rng, 4)
        o2 = rand_hermitian(rng, 4)
        t1, t2 = rng.uniform(-2, 2, 2)
        (e1,) = path_ensemble(psi, oa, ob, {"o1": o1}, h, [t1])
        (e2,) = path_ensemble(psi, oa, ob, {"o2": o2}, h, [t2])
        o1_t = heisenberg_evolve(o1, h, t1)
        o2_t = heisenberg_evolve(o2, h, t2)
        avg = sum(
            b.probability * b.weak_values["o1"] for b in e1.branches if b.weak_values
        )
        assert avg == pytest.approx(complex(np.vdot(psi, o1_t @ psi)), abs=1e-10)
        corr = sum(
            b1.probability * np.conj(b1.weak_values["o1"]) * b2.weak_values["o2"]
            for b1, b2 in zip(e1.branches, e2.branches)
            if b1.weak_values and b2.weak_values
        )
        assert corr == pytest.approx(complex(np.vdot(psi, o1_t @ o2_t @ psi)), abs=1e-10)
    assert psi is not None


def test_paths_and_born_equal_per_post_vdot_ratios():
    # the shared amplitude routine is held to the scalar form, exactly
    rng = np.random.default_rng(63)
    for _ in range(20):
        phi, oa, ob = rng.uniform(-math.pi, math.pi, 3)
        psi = bell_state(phi)
        ops = {"a": rand_hermitian(rng, 2), "j": rand_hermitian(rng, 4)}
        h = rand_hermitian(rng, int(rng.choice([2, 4])))
        h4 = embed_a(h) if h.shape == (2, 2) else h
        t = rng.uniform(-2, 2)
        (ens,) = path_ensemble(psi, oa, ob, ops, h, [t])
        born = born_probabilities(psi, oa, ob)
        for br, p in zip(ens.branches, (born.p_pp, born.p_pm, born.p_mp, born.p_mm)):
            f = PostSelection(oa, br.s_a, ob, br.s_b).state()
            amp = complex(np.vdot(f, psi))
            assert br.probability == p == float(abs(np.vdot(f, psi)) ** 2)
            for name, op in ops.items():
                op_t = heisenberg_evolve(embed_a(op) if op.shape == (2, 2) else op, h4, t)
                assert br.weak_values[name] == complex(np.vdot(f, op_t @ psi)) / amp


def test_path_zero_probability_branch_flagged():
    # delta = 0: the concordant branches are empty
    ens, = path_ensemble(bell_state(0.0), 0.0, 0.0, {"sz": PAULI_Z}, PAULI_Z, [0.0])
    flags = {(b.s_a, b.s_b): b.weak_values is None for b in ens.branches}
    assert flags[(1, 1)] and flags[(-1, -1)]
    assert not flags[(1, -1)] and not flags[(-1, 1)]


# -------------------------------------------------------- operator IO


def test_load_operator_roundtrip(tmp_path):
    spec = {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
    np.testing.assert_allclose(load_operator(spec), PAULI_X, atol=1e-15)
    p = tmp_path / "op.json"
    p.write_text(json.dumps(spec))
    np.testing.assert_allclose(load_operator(str(p)), PAULI_X, atol=1e-15)
    np.testing.assert_allclose(load_operator(json.dumps(spec)), PAULI_X, atol=1e-15)


def test_load_operator_validates():
    with pytest.raises(ValueError):
        load_operator({"dim": 3, "re": [[0]], "im": [[0]]})
    with pytest.raises(ValueError):
        load_operator({"dim": 2, "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        load_operator({"dim": 2, "re": [[0, 1]], "im": [[0, 0], [0, 0]]})


@pytest.mark.parametrize("subsystem", ["a", "C", None, ""])
def test_weak_value_rejects_unknown_subsystem(subsystem):
    post = PostSelection(0.3, 1, 1.2, -1)
    with pytest.raises(ValueError, match="subsystem"):
        weak_value(bell_state(0.4), post, polarization_operator(0.3, "in-plane"), subsystem)
