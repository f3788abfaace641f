"""Core engine tests: gates, measurements, expansions, label algebra."""
import numpy as np
import pytest

from osbmdi.quantum import (
    ATOL,
    BELL_VECTORS,
    PAULI_MATRICES,
    BellLabel,
    InvalidOperatorError,
    InvalidRegisterError,
    PauliLabel,
    QubitArena,
    StateVector,
    UnknownQubitError,
    apply_cnot,
    apply_pauli,
    apply_unitary1q,
    basis_state,
    bell_expand,
    bell_measure,
    comp_measure,
    fidelity,
    frame_correction,
    label_of,
    make_bell,
    pauli_frame,
    single_qubit,
    swapped_home_label,
    tensor,
)

SQ2 = 1.0 / np.sqrt(2.0)
PSIP = BellLabel.PSI_PLUS
PSIM = BellLabel.PSI_MINUS
PHIP = BellLabel.PHI_PLUS
PHIM = BellLabel.PHI_MINUS


def dephasing(phi):
    return np.diag([1.0, np.exp(1j * phi)])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


# --- state construction -----------------------------------------------------


def test_make_bell_psi_plus_amplitudes():
    s = make_bell(PSIP, "a", "b")
    assert np.allclose(s.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_make_bell_phi_minus_amplitudes():
    s = make_bell(PHIM, "a", "b")
    assert np.allclose(s.amplitudes, [0, SQ2, -SQ2, 0], atol=1e-12)


def test_make_bell_psi_minus_is_sign_flip():
    s = make_bell(PSIM, "a", "b")
    assert np.allclose(s.amplitudes, [SQ2, 0, 0, -SQ2], atol=1e-12)


def test_make_bell_duplicate_ids_rejected():
    with pytest.raises(InvalidRegisterError):
        make_bell(PSIP, "a", "a")


def test_statevector_validates_norm_and_length():
    with pytest.raises(InvalidRegisterError):
        StateVector(("a",), np.array([1.0, 1.0]))
    with pytest.raises(InvalidRegisterError):
        StateVector(("a", "b"), np.array([1.0, 0.0]))


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
def test_statevector_rejects_non_finite_amplitudes(amps):
    with pytest.raises(InvalidRegisterError):
        StateVector(("a",), amps)


def test_tensor_of_basis_states():
    s = tensor(single_qubit("a", 1, 0), single_qubit("b", 0, 1))
    assert np.allclose(s.amplitudes, [0, 1, 0, 0])
    assert s.qubit_ids == ("a", "b")


def test_tensor_of_two_bell_pairs():
    s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
    expect = np.zeros(16)
    expect[0b0000] = expect[0b0011] = expect[0b1100] = expect[0b1111] = 0.5
    assert np.allclose(s.amplitudes, expect, atol=1e-12)


def test_tensor_rejects_overlap():
    with pytest.raises(InvalidRegisterError):
        tensor(make_bell(PSIP, "a", "b"), make_bell(PSIP, "b", "c"))


def test_tensor_preserves_norm_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        va = rng.normal(size=4) + 1j * rng.normal(size=4)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = StateVector(("a", "b"), va / np.linalg.norm(va))
        b = StateVector(("c",), vb / np.linalg.norm(vb))
        t = tensor(a, b)
        assert abs(np.vdot(t.amplitudes, t.amplitudes).real - 1.0) < ATOL


# --- single-qubit gates ------------------------------------------------------


def test_x_on_first_qubit_of_psi_plus_gives_phi_plus():
    s = apply_pauli(make_bell(PSIP, "a", "b"), "a", PauliLabel.X)
    assert np.allclose(s.amplitudes, BELL_VECTORS[PHIP], atol=1e-12)


def test_iy_on_first_qubit_of_psi_plus_gives_phi_minus_exactly():
    s = apply_pauli(make_bell(PSIP, "a", "b"), "a", PauliLabel.IY)
    # coefficient +1, not just up to phase
    assert np.allclose(s.amplitudes, BELL_VECTORS[PHIM], atol=1e-12)


def test_z_on_first_qubit_of_psi_plus_gives_psi_minus():
    s = apply_pauli(make_bell(PSIP, "a", "b"), "a", PauliLabel.Z)
    assert np.allclose(s.amplitudes, BELL_VECTORS[PSIM], atol=1e-12)


def test_apply_pauli_unknown_qubit():
    with pytest.raises(UnknownQubitError):
        apply_pauli(make_bell(PSIP, "a", "b"), "c", PauliLabel.X)


def test_pauli_matrices_are_real():
    for mat in PAULI_MATRICES.values():
        assert np.allclose(mat.imag, 0.0)


def test_apply_unitary_identity_dephasing():
    s = make_bell(PSIP, "a", "b")
    out = apply_unitary1q(s, "a", dephasing(0.0))
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_apply_unitary_rejects_nonunitary():
    with pytest.raises(InvalidOperatorError):
        apply_unitary1q(make_bell(PSIP, "a", "b"), "a", np.array([[1, 0], [0, 2.0]]))
    with pytest.raises(InvalidOperatorError):
        apply_unitary1q(make_bell(PSIP, "a", "b"), "a", np.eye(3))


def test_unitarity_tolerance_matches_allclose_boundary():
    # The accepted set is |u^dag u - I| <= ATOL + 1e-5 * |I| elementwise, the
    # tolerance np.allclose(u^dag u, I, atol=ATOL) applies with its default rtol.
    # |1> keeps its norm under the stretched |0> component, so the result is valid.
    s = basis_state(("a", "b"), (1, 0))
    diagonal = np.diag([np.sqrt(1.0 + 5e-6), 1.0])
    assert np.allclose(diagonal.conj().T @ diagonal, np.eye(2), atol=ATOL)
    assert np.array_equal(apply_unitary1q(s, "a", diagonal).amplitudes, s.amplitudes)
    off_diagonal = np.array([[1.0, 1e-6], [0.0, 1.0]])
    assert not np.allclose(off_diagonal.conj().T @ off_diagonal, np.eye(2), atol=ATOL)
    with pytest.raises(InvalidOperatorError):
        apply_unitary1q(s, "a", off_diagonal)


@pytest.mark.parametrize("theta", np.linspace(0.0, 2 * np.pi, 9))
def test_collective_rotation_fixes_psi_plus_and_phi_minus(theta):
    for lab in (PSIP, PHIM):
        s = make_bell(lab, "a", "b")
        out = apply_unitary1q(apply_unitary1q(s, "a", rotation(theta)), "b", rotation(theta))
        assert fidelity(out, s) > 1 - 1e-9


@pytest.mark.parametrize("phi", np.linspace(0.0, 2 * np.pi, 9))
def test_collective_dephasing_fixes_phi_states(phi):
    for lab in (PHIP, PHIM):
        s = make_bell(lab, "a", "b")
        out = apply_unitary1q(apply_unitary1q(s, "a", dephasing(phi)), "b", dephasing(phi))
        assert fidelity(out, s) > 1 - 1e-9


@pytest.mark.parametrize("phi", np.linspace(0.0, np.pi, 7))
def test_dephased_psi_plus_fidelity_is_cos_squared(phi):
    # both |00> and |11> terms: the pair picks up e^{2i phi} on |11>,
    # so |<psi+|noised>|^2 = |(1+e^{2i phi})/2|^2 = cos^2 phi
    s = make_bell(PSIP, "a", "b")
    out = apply_unitary1q(apply_unitary1q(s, "a", dephasing(phi)), "b", dephasing(phi))
    assert abs(fidelity(out, s) - np.cos(phi) ** 2) < 1e-9


def test_gates_preserve_norm_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(("a", "b", "c"), v / np.linalg.norm(v))
        for p in PauliLabel:
            out = apply_pauli(s, "b", p)
            assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < ATOL
        out = apply_cnot(s, "a", "c")
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < ATOL


# --- CNOT ---------------------------------------------------------------------


def test_cnot_basis_action():
    s = basis_state(("c", "t"), (1, 0))
    out = apply_cnot(s, "c", "t")
    assert np.allclose(out.amplitudes, basis_state(("c", "t"), (1, 1)).amplitudes)


def test_cnot_twice_is_identity():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = StateVector(("a", "b", "c"), v / np.linalg.norm(v))
    out = apply_cnot(apply_cnot(s, "c", "a"), "c", "a")
    assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_cnot_rejects_same_qubit():
    with pytest.raises(InvalidRegisterError):
        apply_cnot(make_bell(PSIP, "a", "b"), "a", "a")


def test_cnot_ancilla_onto_travel_qubit_branches():
    # Brute-force oracle: CNOT(control=e, target=t) on psi+_{ht} (x) (a|0>+b|1>)_e
    # expands to a*psi+_{ht}|0>_e + b*phi+_{ht}|1>_e.  Build the expected
    # 8-amplitude vector directly and compare.
    alpha, beta = 0.6, 0.8
    s = tensor(make_bell(PSIP, "h", "t"), single_qubit("e", alpha, beta))
    out = apply_cnot(s, "e", "t")
    expect = alpha * np.kron(BELL_VECTORS[PSIP], [1, 0]) + beta * np.kron(
        BELL_VECTORS[PHIP], [0, 1]
    )
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


# --- measurements --------------------------------------------------------------


def test_bell_measure_certain_outcome():
    rng = np.random.default_rng(0)
    label, rest = bell_measure(make_bell(PHIM, "a", "b"), "a", "b", rng)
    assert label is PHIM
    assert rest is None


def test_bell_measure_swaps_entanglement():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(200):
        s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
        label, rest = bell_measure(s, "2", "4", rng)
        seen.add(label)
        assert rest.qubit_ids == ("1", "3")
        assert label_of(rest) is label
    assert seen == set(BellLabel)


def test_bell_measure_mixed_product_pairing():
    # psi+ (x) psi- : announced phi- forces home pair phi+ (second expansion line)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(200):
        s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIM, "3", "4"))
        label, rest = bell_measure(s, "2", "4", rng)
        if label is PHIM:
            hits += 1
            assert label_of(rest) is PHIP
    assert hits > 0


def test_comp_measure_anticorrelation_of_phi_plus():
    rng = np.random.default_rng(21)
    for _ in range(50):
        bit, rest = comp_measure(make_bell(PHIP, "a", "b"), "a", rng)
        partner, _ = comp_measure(rest, "b", rng)
        assert partner == 1 - bit


def test_comp_measure_deterministic_one():
    rng = np.random.default_rng(1)
    bit, rest = comp_measure(single_qubit("q", 0, 1), "q", rng)
    assert bit == 1 and rest is None


def test_measure_unknown_qubit():
    rng = np.random.default_rng(0)
    with pytest.raises(UnknownQubitError):
        comp_measure(make_bell(PSIP, "a", "b"), "zz", rng)
    with pytest.raises(UnknownQubitError):
        bell_measure(make_bell(PSIP, "a", "b"), "a", "zz", rng)


def test_born_consistency_comp_measure():
    # >= 1e5 seeded trials against the analytic probability, 4 standard errors
    theta = 0.4
    s = single_qubit("q", np.cos(theta), np.sin(theta))
    rng = np.random.default_rng(123)
    n = 100_000
    ones = sum(comp_measure(s, "q", rng)[0] for _ in range(n))
    p = np.sin(theta) ** 2
    se = np.sqrt(p * (1 - p) / n)
    assert abs(ones / n - p) < 4 * se


def test_born_consistency_bell_measure():
    s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
    rng = np.random.default_rng(77)
    n = 100_000
    counts = {lab: 0 for lab in BellLabel}
    for _ in range(n):
        label, _ = bell_measure(s, "2", "4", rng)
        counts[label] += 1
    se = np.sqrt(0.25 * 0.75 / n)
    for lab in BellLabel:
        assert abs(counts[lab] / n - 0.25) < 4 * se


# --- bell_expand ----------------------------------------------------------------


def test_expand_psi_plus_psi_plus_first_line():
    s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
    exp = bell_expand(s, (("1", "3"), ("2", "4")))
    want = {(PSIP, PSIP): 0.5, (PHIP, PHIP): 0.5, (PHIM, PHIM): 0.5, (PSIM, PSIM): 0.5}
    for key, val in want.items():
        assert abs(exp.coeff(*key) - val) < 1e-12
    assert set(exp.nonzero()) == set(want)


def test_expand_psi_plus_psi_minus_second_line():
    s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIM, "3", "4"))
    exp = bell_expand(s, (("1", "3"), ("2", "4")))
    want = {
        (PSIP, PSIM): 0.5,
        (PHIP, PHIM): -0.5,
        (PHIM, PHIP): -0.5,
        (PSIM, PSIP): 0.5,
    }
    for key, val in want.items():
        assert abs(exp.coeff(*key) - val) < 1e-12
    assert set(exp.nonzero()) == set(want)


def test_expand_identity_pairing():
    s = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
    exp = bell_expand(s, (("1", "2"), ("3", "4")))
    assert abs(exp.coeff(PSIP, PSIP) - 1.0) < 1e-12
    assert len(exp.nonzero()) == 1


@pytest.mark.parametrize("la", list(BellLabel))
@pytest.mark.parametrize("lb", list(BellLabel))
def test_expand_completeness_all_products(la, lb):
    # every product expands into exactly four coefficients of magnitude 1/2,
    # and re-summing reproduces the input to 1e-12
    s = tensor(make_bell(la, "1", "2"), make_bell(lb, "3", "4"))
    exp = bell_expand(s, (("1", "3"), ("2", "4")))
    nz = exp.nonzero(tol=1e-9)
    assert len(nz) == 4
    for coeff in nz.values():
        assert abs(abs(coeff) - 0.5) < 1e-12
    # outcomes form a bijection home <-> announced
    homes = {k[0] for k in nz}
    announced = {k[1] for k in nz}
    assert homes == set(BellLabel) and announced == set(BellLabel)
    rebuilt = exp.reconstruct()
    reordered = np.transpose(
        rebuilt.tensor_view(), [rebuilt.axis(q) for q in s.qubit_ids]
    ).reshape(-1)
    assert np.allclose(reordered, s.amplitudes, atol=1e-12)


def test_expand_rejects_bad_input():
    s = make_bell(PSIP, "a", "b")
    with pytest.raises(InvalidRegisterError):
        bell_expand(s, (("a", "b"), ("a", "b")))
    s4 = tensor(make_bell(PSIP, "1", "2"), make_bell(PSIP, "3", "4"))
    with pytest.raises(InvalidRegisterError):
        bell_expand(s4, (("1", "2"), ("3", "3")))


# --- fidelity --------------------------------------------------------------------


def test_fidelity_self_and_orthogonal():
    s = make_bell(PSIP, "a", "b")
    assert abs(fidelity(s, s) - 1.0) < 1e-12
    assert fidelity(s, make_bell(PSIM, "a", "b")) < 1e-12


def test_fidelity_global_phase_invariance():
    s = make_bell(PSIP, "a", "b")
    t = StateVector(("a", "b"), np.exp(1j * 0.37) * s.amplitudes)
    assert abs(fidelity(s, t) - 1.0) < 1e-12


def test_fidelity_register_order_independence():
    s = make_bell(PHIM, "a", "b")
    swapped = StateVector(("b", "a"), np.transpose(s.tensor_view(), [1, 0]).reshape(-1))
    assert abs(fidelity(s, swapped) - 1.0) < 1e-12


def test_fidelity_register_mismatch():
    with pytest.raises(InvalidRegisterError):
        fidelity(make_bell(PSIP, "a", "b"), make_bell(PSIP, "a", "c"))


# --- label algebra -----------------------------------------------------------------


def test_pauli_frame_closure():
    # applying any Pauli to either qubit of any Bell state lands on a Bell
    # label again (up to a unit-magnitude global phase)
    for lab in BellLabel:
        for p in PauliLabel:
            for side in (0, 1):
                out = pauli_frame(lab, p, side)
                assert isinstance(out, BellLabel)
    # the action of the four Paulis on a fixed label covers all four labels
    for lab in BellLabel:
        images = {pauli_frame(lab, p, 0) for p in PauliLabel}
        assert images == set(BellLabel)


def test_pauli_frame_sides_agree_on_labels():
    for lab in BellLabel:
        for p in PauliLabel:
            assert pauli_frame(lab, p, 0) is pauli_frame(lab, p, 1)


def test_frame_correction_inverts_frame():
    for lab in BellLabel:
        for p in PauliLabel:
            end = pauli_frame(lab, p, 0)
            assert frame_correction(lab, end, 0) is p


def test_x_tensor_x_fixes_every_label():
    for lab in BellLabel:
        s = make_bell(lab, "a", "b")
        out = apply_pauli(apply_pauli(s, "a", PauliLabel.X), "b", PauliLabel.X)
        assert fidelity(out, s) > 1 - 1e-9


def test_swapped_home_label_matches_measurement():
    rng = np.random.default_rng(31)
    for la in BellLabel:
        for lb in BellLabel:
            for _ in range(8):
                s = tensor(make_bell(la, "ah", "at"), make_bell(lb, "bh", "bt"))
                announced, rest = bell_measure(s, "at", "bt", rng)
                assert label_of(rest) is swapped_home_label(la, lb, announced)


def test_pauli_label_bit_encoding():
    assert PauliLabel.I.bits == (0, 0)
    assert PauliLabel.X.bits == (0, 1)
    assert PauliLabel.IY.bits == (1, 0)
    assert PauliLabel.Z.bits == (1, 1)
    for i in range(4):
        assert PauliLabel.from_symbol(i).symbol == i


# --- arena --------------------------------------------------------------------------


def test_arena_merges_and_measures():
    rng = np.random.default_rng(17)
    arena = QubitArena()
    arena.add_state(make_bell(PSIP, "1", "2"), "alice")
    arena.add_state(make_bell(PSIP, "3", "4"), "bob")
    label = arena.bell_measure("2", "4", rng)
    rest = arena.state_of("1")
    assert set(rest.qubit_ids) == {"1", "3"}
    assert label_of(rest) is label
    assert not arena.has("2")


def test_arena_rejects_duplicate_registration():
    arena = QubitArena()
    arena.add_state(make_bell(PSIP, "1", "2"), "alice")
    with pytest.raises(InvalidRegisterError):
        arena.add_state(single_qubit("1", 1, 0), "eve")


def test_arena_holder_tracking():
    arena = QubitArena()
    arena.add_state(make_bell(PSIP, "1", "2"), "alice")
    assert arena.holder_of("1") == "alice"
    arena.transfer("2", "charlie", expect="alice")
    assert arena.holder_of("2") == "charlie"
    with pytest.raises(InvalidRegisterError):
        arena.transfer("2", "eve", expect="alice")


def test_arena_comp_measure_consumes():
    rng = np.random.default_rng(2)
    arena = QubitArena()
    arena.add_state(make_bell(PHIP, "a", "b"), "alice")
    bit = arena.comp_measure("a", rng)
    partner = arena.comp_measure("b", rng)
    assert partner == 1 - bit
    assert not arena.has("a") and not arena.has("b")
