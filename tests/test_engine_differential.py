"""Differential tests: the engine's six free functions against reference kernels.

The reference kernels below are the tensordot / moveaxis / take / kron forms
the engine used before its axis-to-front kernels.  Each engine op must give
the same amplitudes (to 1e-12), the same sampled outcome and the same number
of draws from the random stream, must leave its inputs untouched, and must
raise the same errors.
"""
import itertools

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
    StateVector,
    UnknownQubitError,
    apply_cnot,
    apply_pauli,
    apply_unitary1q,
    bell_measure,
    comp_measure,
    tensor,
)

WIDTHS = range(1, 7)
SEEDS = range(6)


# --- reference kernels -------------------------------------------------------


def ref_tensor(a, b):
    overlap = set(a.qubit_ids) & set(b.qubit_ids)
    if overlap:
        raise InvalidRegisterError(f"overlapping qubit ids: {sorted(overlap)}")
    return a.qubit_ids + b.qubit_ids, np.kron(a.amplitudes, b.amplitudes)


def ref_apply_1q(s, qubit_id, matrix):
    ax = s.axis(qubit_id)
    t = np.tensordot(matrix, s.tensor_view(), axes=([1], [ax]))
    return s.qubit_ids, np.moveaxis(t, 0, ax).reshape(-1)


def ref_apply_unitary1q(s, qubit_id, u):
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise InvalidOperatorError(f"operator shape {u.shape} is not 2x2")
    if not np.allclose(u.conj().T @ u, np.eye(2), atol=ATOL):
        raise InvalidOperatorError("operator is not unitary")
    return ref_apply_1q(s, qubit_id, u)


def ref_apply_cnot(s, control, target):
    if control == target:
        raise InvalidRegisterError("control and target must differ")
    c_ax, t_ax = s.axis(control), s.axis(target)
    t = s.tensor_view().copy()
    sel = [slice(None)] * s.n_qubits
    sel[c_ax] = 1
    sub_t_ax = t_ax - 1 if t_ax > c_ax else t_ax
    t[tuple(sel)] = np.flip(t[tuple(sel)], axis=sub_t_ax)
    return s.qubit_ids, t.reshape(-1)


def ref_sample_index(probs, rng):
    total = probs.sum()
    r = rng.random() * total
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return len(probs) - 1


def ref_bell_measure(s, q_a, q_b, rng):
    if q_a == q_b:
        raise InvalidRegisterError("cannot Bell-measure a qubit against itself")
    axes = [s.axis(q_a), s.axis(q_b)]
    probs = np.empty(4)
    residuals = []
    for i, lab in enumerate(BellLabel):
        bv = BELL_VECTORS[lab].reshape(2, 2).conj()
        v = np.tensordot(bv, s.tensor_view(), axes=([0, 1], axes))
        probs[i] = float(np.real(np.vdot(v, v)))
        residuals.append(v)
    pick = ref_sample_index(probs, rng)
    remaining = tuple(q for q in s.qubit_ids if q not in (q_a, q_b))
    if not remaining:
        return list(BellLabel)[pick], None
    return list(BellLabel)[pick], (
        remaining,
        (residuals[pick] / np.sqrt(probs[pick])).reshape(-1),
    )


def ref_comp_measure(s, qubit_id, rng):
    ax = s.axis(qubit_id)
    t = s.tensor_view()
    v1 = np.take(t, 1, axis=ax)
    p1 = float(np.real(np.vdot(v1, v1)))
    bit = 1 if rng.random() < p1 else 0
    v = v1 if bit else np.take(t, 0, axis=ax)
    p = p1 if bit else 1.0 - p1
    remaining = tuple(q for q in s.qubit_ids if q != qubit_id)
    if not remaining:
        return bit, None
    return bit, (remaining, (v / np.sqrt(p)).reshape(-1))


# --- helpers -------------------------------------------------------------------


def ids_of(width, prefix="q"):
    return tuple(f"{prefix}{i}" for i in range(width))


def random_state(width, seed, prefix="q"):
    rng = np.random.default_rng(1000 * width + seed)
    amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return StateVector(ids_of(width, prefix), amps / np.linalg.norm(amps))


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_same_state(got, want):
    ids, amps = want
    assert got.qubit_ids == ids
    assert np.max(np.abs(got.amplitudes - amps)) <= 1e-12


def frozen(*states):
    """Snapshots of the inputs, to show later that no op mutated them."""
    return [(s, s.qubit_ids, s.amplitudes.copy()) for s in states]


def assert_untouched(snapshots):
    for s, ids, amps in snapshots:
        assert s.qubit_ids == ids
        assert np.array_equal(s.amplitudes, amps)


def assert_same_measurement(op, ref, s, *qubits):
    for seed in SEEDS:
        snap = frozen(s)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome, rest = op(s, *qubits, rng_new)
        want_outcome, want_rest = ref(s, *qubits, rng_ref)
        assert outcome == want_outcome
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        if want_rest is None:
            assert rest is None
        else:
            assert_same_state(rest, want_rest)
        assert_untouched(snap)


# --- gates -----------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_single_qubit_gates_match_reference(width):
    for seed in SEEDS:
        s = random_state(width, seed)
        u = random_unitary(seed)
        snap = frozen(s)
        for q in s.qubit_ids:
            for p in PauliLabel:
                want = ref_apply_1q(s, q, PAULI_MATRICES[p])
                assert_same_state(apply_pauli(s, q, p), want)
            assert_same_state(apply_unitary1q(s, q, u), ref_apply_unitary1q(s, q, u))
        assert_untouched(snap)


@pytest.mark.parametrize("width", range(2, 7))
def test_cnot_matches_reference_on_every_ordered_pair(width):
    for seed in SEEDS:
        s = random_state(width, seed)
        snap = frozen(s)
        for control, target in itertools.permutations(s.qubit_ids, 2):
            want = ref_apply_cnot(s, control, target)
            assert_same_state(apply_cnot(s, control, target), want)
        assert_untouched(snap)


@pytest.mark.parametrize("width_a,width_b", [(a, 6 - a) for a in range(1, 6)] + [(1, 1), (2, 2)])
def test_tensor_matches_kron_exactly(width_a, width_b):
    for seed in SEEDS:
        a, b = random_state(width_a, seed, "a"), random_state(width_b, seed, "b")
        snap = frozen(a, b)
        ids, amps = ref_tensor(a, b)
        got = tensor(a, b)
        assert got.qubit_ids == ids
        assert np.array_equal(got.amplitudes, amps)
        assert_untouched(snap)


def test_unitarity_check_accepts_what_allclose_accepts():
    rng = np.random.default_rng(7)
    s = random_state(1, 0)
    accepted = rejected = 0
    for scale in np.logspace(-11, -3, 400):
        u = random_unitary(int(rng.integers(1 << 30)))
        u = u + scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        try:
            ref_apply_unitary1q(s, "q0", u)
        except InvalidOperatorError:
            rejected += 1
            with pytest.raises(InvalidOperatorError):
                apply_unitary1q(s, "q0", u)
            continue
        accepted += 1
        try:
            apply_unitary1q(s, "q0", u)
        except InvalidRegisterError:
            pass  # accepted as unitary; only the output's norm is off by > ATOL
    assert accepted and rejected


# --- measurements ----------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_comp_measure_matches_reference_on_every_axis(width):
    s = random_state(width, 0)
    for q in s.qubit_ids:
        assert_same_measurement(comp_measure, ref_comp_measure, s, q)


@pytest.mark.parametrize("width", range(2, 7))
def test_bell_measure_matches_reference_on_every_ordered_pair(width):
    s = random_state(width, 0)
    for q_a, q_b in itertools.permutations(s.qubit_ids, 2):
        assert_same_measurement(bell_measure, ref_bell_measure, s, q_a, q_b)


def test_measurements_match_reference_on_bell_products():
    """Outcomes with probability 0 or 1, as in honest sessions."""
    labels = list(BellLabel)
    for la, lb in itertools.product(labels, labels):
        a = StateVector(("ah", "at"), BELL_VECTORS[la].copy())
        b = StateVector(("bh", "bt"), BELL_VECTORS[lb].copy())
        s = tensor(a, b)
        for q_a, q_b in itertools.permutations(s.qubit_ids, 2):
            assert_same_measurement(bell_measure, ref_bell_measure, s, q_a, q_b)
        for q in s.qubit_ids:
            assert_same_measurement(comp_measure, ref_comp_measure, s, q)


# --- errors -------------------------------------------------------------------------------


def _rng():
    return np.random.default_rng(0)


ERROR_CASES = [
    ("pauli unknown", UnknownQubitError, lambda s: apply_pauli(s, "zz", PauliLabel.X),
     lambda s: ref_apply_1q(s, "zz", PAULI_MATRICES[PauliLabel.X])),
    ("unitary unknown", UnknownQubitError, lambda s: apply_unitary1q(s, "zz", np.eye(2)),
     lambda s: ref_apply_unitary1q(s, "zz", np.eye(2))),
    ("unitary shape", InvalidOperatorError, lambda s: apply_unitary1q(s, "q0", np.eye(3)),
     lambda s: ref_apply_unitary1q(s, "q0", np.eye(3))),
    ("unitary not unitary", InvalidOperatorError,
     lambda s: apply_unitary1q(s, "q0", np.diag([1.0, 2.0])),
     lambda s: ref_apply_unitary1q(s, "q0", np.diag([1.0, 2.0]))),
    ("unitary not unitary and unknown qubit", InvalidOperatorError,
     lambda s: apply_unitary1q(s, "zz", np.diag([1.0, 2.0])),
     lambda s: ref_apply_unitary1q(s, "zz", np.diag([1.0, 2.0]))),
    ("cnot same", InvalidRegisterError, lambda s: apply_cnot(s, "q0", "q0"),
     lambda s: ref_apply_cnot(s, "q0", "q0")),
    ("cnot same unknown", InvalidRegisterError, lambda s: apply_cnot(s, "zz", "zz"),
     lambda s: ref_apply_cnot(s, "zz", "zz")),
    ("cnot unknown control", UnknownQubitError, lambda s: apply_cnot(s, "zz", "q1"),
     lambda s: ref_apply_cnot(s, "zz", "q1")),
    ("cnot unknown target", UnknownQubitError, lambda s: apply_cnot(s, "q0", "zz"),
     lambda s: ref_apply_cnot(s, "q0", "zz")),
    ("bell same", InvalidRegisterError, lambda s: bell_measure(s, "q1", "q1", _rng()),
     lambda s: ref_bell_measure(s, "q1", "q1", _rng())),
    ("bell same unknown", InvalidRegisterError, lambda s: bell_measure(s, "zz", "zz", _rng()),
     lambda s: ref_bell_measure(s, "zz", "zz", _rng())),
    ("bell unknown first", UnknownQubitError, lambda s: bell_measure(s, "zz", "q1", _rng()),
     lambda s: ref_bell_measure(s, "zz", "q1", _rng())),
    ("bell unknown second", UnknownQubitError, lambda s: bell_measure(s, "q0", "zz", _rng()),
     lambda s: ref_bell_measure(s, "q0", "zz", _rng())),
    ("comp unknown", UnknownQubitError, lambda s: comp_measure(s, "zz", _rng()),
     lambda s: ref_comp_measure(s, "zz", _rng())),
    ("tensor overlap", InvalidRegisterError, lambda s: tensor(s, random_state(2, 1)),
     lambda s: ref_tensor(s, random_state(2, 1))),
]


@pytest.mark.parametrize(
    "error,op,ref", [case[1:] for case in ERROR_CASES], ids=[case[0] for case in ERROR_CASES]
)
def test_errors_raise_where_the_reference_raises(error, op, ref):
    s = random_state(3, 0)
    snap = frozen(s)
    with pytest.raises(error):
        ref(s)
    with pytest.raises(error):
        op(s)
    assert_untouched(snap)
