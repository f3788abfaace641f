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

from osbmdi import quantum
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
    bell_measure,
    comp_measure,
    run_round,
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


# --- stacked registers --------------------------------------------------------------------
#
# A stack of k rows must give, row for row, what the single-register op gives
# on that row; a stacked measurement takes one uniform per row, the value the
# single-register op would draw from its generator.

ROWS = 5


def random_stack(width, seed, prefix="q"):
    rows = [random_state(width, seed * ROWS + r, prefix) for r in range(ROWS)]
    return StateVector.stack(ids_of(width, prefix), np.array([s.amplitudes for s in rows])), rows


def assert_rows_match(stacked, singles):
    assert stacked.amplitudes.shape == (len(singles), 2 ** len(singles[0].qubit_ids))
    for row, single in zip(stacked.amplitudes, singles):
        assert stacked.qubit_ids == single.qubit_ids
        assert np.max(np.abs(row - single.amplitudes)) <= 1e-12


def one_draw_generators(seed, k):
    """Per-row generators and the one uniform each would draw first."""
    gens = [np.random.default_rng([seed, r]) for r in range(k)]
    uniforms = np.array([np.random.default_rng([seed, r]).random() for r in range(k)])
    return gens, uniforms


@pytest.mark.parametrize("width", WIDTHS)
def test_stacked_single_qubit_gates_match_rows(width):
    for seed in SEEDS:
        stack, rows = random_stack(width, seed)
        u = random_unitary(seed)
        snap = frozen(stack, *rows)
        for q in stack.qubit_ids:
            for p in PauliLabel:
                assert_rows_match(apply_pauli(stack, q, p), [apply_pauli(r, q, p) for r in rows])
            assert_rows_match(
                apply_unitary1q(stack, q, u), [apply_unitary1q(r, q, u) for r in rows]
            )
        assert_untouched(snap)


@pytest.mark.parametrize("width", range(2, 7))
def test_stacked_cnot_matches_rows_on_every_ordered_pair(width):
    stack, rows = random_stack(width, 0)
    for control, target in itertools.permutations(stack.qubit_ids, 2):
        assert_rows_match(
            apply_cnot(stack, control, target), [apply_cnot(r, control, target) for r in rows]
        )


@pytest.mark.parametrize("width_a,width_b", [(a, 6 - a) for a in range(1, 6)] + [(1, 1), (2, 2)])
def test_stacked_tensor_matches_rows_exactly(width_a, width_b):
    a, rows_a = random_stack(width_a, 1, "a")
    b, rows_b = random_stack(width_b, 2, "b")
    got = tensor(a, b)
    assert got.qubit_ids == ids_of(width_a, "a") + ids_of(width_b, "b")
    for row, ra, rb in zip(got.amplitudes, rows_a, rows_b):
        assert np.array_equal(row, tensor(ra, rb).amplitudes)


def assert_stacked_measurement_matches_rows(op, stack, rows, *qubits):
    for seed in SEEDS:
        gens, uniforms = one_draw_generators(seed, len(rows))
        snap = frozen(stack, *rows)
        outcomes, rest = op(stack, *qubits, uniforms)
        singles = [op(r, *qubits, g) for r, g in zip(rows, gens)]
        assert outcomes == [outcome for outcome, _ in singles]
        if rest is None:
            assert all(s is None for _, s in singles)
        else:
            assert_rows_match(rest, [s for _, s in singles])
        assert_untouched(snap)


@pytest.mark.parametrize("width", WIDTHS)
def test_stacked_comp_measure_matches_rows_on_every_axis(width):
    stack, rows = random_stack(width, 3)
    for q in stack.qubit_ids:
        assert_stacked_measurement_matches_rows(comp_measure, stack, rows, q)


@pytest.mark.parametrize("width", range(2, 7))
def test_stacked_bell_measure_matches_rows_on_every_ordered_pair(width):
    stack, rows = random_stack(width, 4)
    for q_a, q_b in itertools.permutations(stack.qubit_ids, 2):
        assert_stacked_measurement_matches_rows(bell_measure, stack, rows, q_a, q_b)


def test_stacked_measurements_match_rows_on_bell_products():
    """Outcomes with probability 0, 1/2 or 1, as in honest sessions."""
    labels = list(BellLabel)
    products = [
        tensor(
            StateVector(("ah", "at"), BELL_VECTORS[la].copy()),
            StateVector(("bh", "bt"), BELL_VECTORS[lb].copy()),
        )
        for la, lb in itertools.product(labels, labels)
    ]
    stack = StateVector.stack(products[0].qubit_ids, np.array([p.amplitudes for p in products]))
    for q_a, q_b in itertools.permutations(stack.qubit_ids, 2):
        assert_stacked_measurement_matches_rows(bell_measure, stack, products, q_a, q_b)
    for q in stack.qubit_ids:
        assert_stacked_measurement_matches_rows(comp_measure, stack, products, q)


STACK_ERRORS = [
    ("bad row norm", lambda: StateVector.stack(("a",), np.array([[1, 0], [1, 1]]))),
    ("nan row", lambda: StateVector.stack(("a",), np.array([[1, 0], [np.nan, 0]]))),
    ("one-dimensional", lambda: StateVector.stack(("a",), np.array([1, 0]))),
    ("width mismatch", lambda: StateVector.stack(("a", "b"), np.eye(2))),
    ("no rows", lambda: StateVector.stack(("a",), np.zeros((0, 2)))),
    ("duplicate ids", lambda: StateVector.stack(("a", "a"), np.eye(4))),
    ("tensor heights", lambda: tensor(
        StateVector.stack(("a",), np.eye(2)), StateVector.stack(("b",), np.eye(2)[:1]))),
    ("tensor stack with register", lambda: tensor(
        StateVector.stack(("a",), np.eye(2)), StateVector(("b",), np.array([1, 0])))),
    ("too few uniforms", lambda: comp_measure(
        StateVector.stack(("a",), np.eye(2)), "a", np.array([0.5]))),
    ("too many uniforms", lambda: bell_measure(
        StateVector.stack(("a", "b"), np.eye(4)), "a", "b", np.zeros(5))),
]


@pytest.mark.parametrize("build", [c[1] for c in STACK_ERRORS], ids=[c[0] for c in STACK_ERRORS])
def test_bad_stacks_raise(build):
    with pytest.raises(InvalidRegisterError):
        build()


# --- arena round operations -------------------------------------------------------------
#
# Each ``*_many`` call must leave the arena, the outcomes and the random stream
# exactly as the scalar arena op called on every item in order.


def random_arena(seed, n_regs):
    """Two identical arenas of random 1-3 qubit registers r{i}_{j}."""
    rng = np.random.default_rng(seed)
    arenas = (QubitArena(), QubitArena())
    for i in range(n_regs):
        width = int(rng.integers(1, 4))
        state = random_state(width, int(rng.integers(1 << 20)), prefix=f"r{i}_")
        for arena in arenas:
            arena.add_state(state, "node")
    return arenas


def arena_contents(arena):
    regs = {id(s): s for s in arena._registers.values()}
    return sorted((s.qubit_ids, s.amplitudes.tolist()) for s in regs.values()), dict(
        arena._holders
    )


def assert_same_arena(batched, scalar):
    (regs_b, holders_b), (regs_s, holders_s) = arena_contents(batched), arena_contents(scalar)
    assert holders_b == holders_s
    assert [ids for ids, _ in regs_b] == [ids for ids, _ in regs_s]
    for (_, amps_b), (_, amps_s) in zip(regs_b, regs_s):
        assert np.max(np.abs(np.array(amps_b) - np.array(amps_s))) <= 1e-12


def live_qubits(arena, rng):
    qubits = sorted(arena._registers)
    return [qubits[i] for i in rng.permutation(len(qubits))]


def run_both(batched, scalar, seed, many, one, items):
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    got = many(batched, items, rng_b)
    want = [one(scalar, item, rng_s) for item in items]
    assert got == want
    assert rng_b.bit_generator.state == rng_s.bit_generator.state
    assert_same_arena(batched, scalar)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_regs", [6, 40])
def test_round_operations_match_scalar_calls(seed, n_regs):
    """Rounds of gates, Bell measurements across and within registers (so
    items share registers and split into several waves), and readouts."""
    batched, scalar = random_arena(seed, n_regs)
    rng = np.random.default_rng(seed + 100)
    u = random_unitary(seed)
    paulis = list(PauliLabel)

    qubits = live_qubits(batched, rng)  # every qubit: registers repeat
    items = [(q, u) for q in qubits]
    batched.apply_unitary_many(items)
    for q, m in items:
        scalar.apply_unitary(q, m)
    assert_same_arena(batched, scalar)

    items = [(q, paulis[int(rng.integers(4))]) for q in live_qubits(batched, rng)]
    batched.apply_pauli_many(items)
    for q, p in items:
        scalar.apply_pauli(q, p)
    assert_same_arena(batched, scalar)

    qubits = live_qubits(batched, rng)
    pairs = list(zip(qubits[0::2], qubits[1::2]))[: len(qubits) // 3]
    run_both(batched, scalar, seed, lambda a, it, r: a.bell_measure_many(it, r),
             lambda a, it, r: a.bell_measure(*it, r), pairs)

    qubits = live_qubits(batched, rng)
    run_both(batched, scalar, seed + 1, lambda a, it, r: a.comp_measure_many(it, r),
             lambda a, it, r: a.comp_measure(it, r), qubits)
    assert not batched._registers and not scalar._registers


def chained_arena(k):
    """k two-qubit registers c{i}a, c{i}b."""
    arenas = (QubitArena(), QubitArena())
    for i in range(k):
        state = random_state(2, i, prefix=f"c{i}")
        for arena in arenas:
            arena.add_state(StateVector((f"c{i}a", f"c{i}b"), state.amplitudes), "node")
    return arenas


def test_bell_round_with_chained_registers_runs_in_waves():
    """Item i joins registers i and i+1, so every item waits for the last:
    one wave per item, each register seeing its items in call order."""
    k = 24
    batched, scalar = chained_arena(k)
    pairs = [(f"c{i}b", f"c{i + 1}a") for i in range(k - 1)]
    assert batched._waves(pairs, True) == [[i] for i in range(k - 1)]
    run_both(batched, scalar, 3, lambda a, it, r: a.bell_measure_many(it, r),
             lambda a, it, r: a.bell_measure(*it, r), pairs)


def test_readout_round_of_shared_registers_runs_in_two_waves():
    """Both qubits of each register, interleaved: as in the swap-round
    correlation checks."""
    k = 16
    batched, scalar = chained_arena(k)
    qubits = [q for i in range(k) for q in (f"c{i}a", f"c{i}b")]
    assert batched._waves([(q,) for q in qubits], True) == [
        list(range(0, 2 * k, 2)), list(range(1, 2 * k, 2))
    ]
    run_both(batched, scalar, 4, lambda a, it, r: a.comp_measure_many(it, r),
             lambda a, it, r: a.comp_measure(it, r), qubits)


@pytest.mark.parametrize("k", [8, 12, 15])
def test_short_two_wave_readout_matches_scalar_calls(k):
    """16-31 items: both qubits of k registers, waves of k rows each."""
    batched, scalar = chained_arena(k)
    qubits = [q for i in range(k) for q in (f"c{i}a", f"c{i}b")]
    run_both(batched, scalar, 5, lambda a, it, r: a.comp_measure_many(it, r),
             lambda a, it, r: a.comp_measure(it, r), qubits)


def test_round_groups_run_scalar_or_stacked_by_row_count(monkeypatch):
    """A group under ``_MIN_ROWS`` rows makes one scalar call per item; a
    group of ``_MIN_ROWS`` rows makes one stacked call, however many items
    the round has in all."""
    calls = []
    real = quantum.comp_measure
    monkeypatch.setattr(
        quantum, "comp_measure", lambda s, q, u: calls.append(s.amplitudes.ndim) or real(s, q, u)
    )
    for k, want in ((quantum._MIN_ROWS - 1, [1] * 2 * (quantum._MIN_ROWS - 1)),
                    (quantum._MIN_ROWS, [2, 2])):
        calls.clear()
        arena, _ = chained_arena(k)
        arena.comp_measure_many([q for i in range(k) for q in (f"c{i}a", f"c{i}b")],
                                np.random.default_rng(0))
        assert calls == want


@pytest.mark.parametrize("seed", range(4))
def test_cross_arena_round_matches_each_arena_alone(seed):
    """One round over five arenas, each with its own generator, leaves every
    arena, outcome and generator as that arena's scalar calls would; groups
    merge items of several arenas."""
    pairs = [random_arena(10 * seed + a, 24) for a in range(5)]
    picks = np.random.default_rng(seed)
    u = random_unitary(seed)
    paulis = list(PauliLabel)

    def bell_pairs(arena):
        qubits = live_qubits(arena, picks)
        return list(zip(qubits[0::2], qubits[1::2]))[: len(qubits) // 3]

    rounds = (
        ("apply_unitary", lambda a: [(q, u) for q in live_qubits(a, picks)],
         lambda a, it, _: a.apply_unitary(*it)),
        ("apply_pauli",
         lambda a: [(q, paulis[int(picks.integers(4))]) for q in live_qubits(a, picks)],
         lambda a, it, _: a.apply_pauli(*it)),
        ("bell_measure", bell_pairs, lambda a, it, r: a.bell_measure(*it, r)),
        ("comp_measure", lambda a: live_qubits(a, picks), lambda a, it, r: a.comp_measure(it, r)),
    )
    for op, make_items, one in rounds:
        measuring = op.endswith("measure")
        items = [make_items(batched) for batched, _ in pairs]
        rngs = [np.random.default_rng([seed, a]) for a in range(len(pairs))]
        got = run_round(op, [
            (batched, its, rng if measuring else None)
            for (batched, _), its, rng in zip(pairs, items, rngs)
        ])
        for a, ((batched, scalar), its, rng) in enumerate(zip(pairs, items, rngs)):
            rng_s = np.random.default_rng([seed, a])
            want = [one(scalar, item, rng_s) for item in its]
            assert_same_arena(batched, scalar)
            if measuring:
                assert got[a] == want
                assert rng.bit_generator.state == rng_s.bit_generator.state
    assert all(not b._registers and not s._registers for b, s in pairs)


def test_cross_arena_round_stacks_what_no_arena_could_stack_alone(monkeypatch):
    """Two Bell measurements per arena, then both qubits of each joined
    register: every group stays under ``_MIN_ROWS`` rows in one arena and
    reaches it across the arenas."""
    stacked = []
    for name in ("bell_measure", "comp_measure"):
        real = getattr(quantum, name)
        monkeypatch.setattr(quantum, name, lambda s, *a, real=real, name=name: (
            stacked.append(name) if s.amplitudes.ndim == 2 else None) or real(s, *a))
    pairs = [chained_arena(4) for _ in range(quantum._MIN_ROWS // 2)]
    bell = [("c0b", "c1a"), ("c2b", "c3a")]
    readout = ["c0a", "c1b", "c2a", "c3b"]
    for op, items, one in (
        ("bell_measure", bell, lambda a, it, r: a.bell_measure(*it, r)),
        ("comp_measure", readout, lambda a, it, r: a.comp_measure(it, r)),
    ):
        rngs = [np.random.default_rng([7, a]) for a in range(len(pairs))]
        got = run_round(op, [(batched, items, rng) for (batched, _), rng in zip(pairs, rngs)])
        for a, ((batched, scalar), rng) in enumerate(zip(pairs, rngs)):
            rng_s = np.random.default_rng([7, a])
            assert got[a] == [one(scalar, item, rng_s) for item in items]
            assert rng.bit_generator.state == rng_s.bit_generator.state
            assert_same_arena(batched, scalar)
    assert stacked == ["bell_measure", "comp_measure", "comp_measure"]


def test_round_measuring_a_qubit_twice_raises_like_the_scalar_ops():
    for k in (4, 24):  # the scalar fall-through and the stacked path
        batched, scalar = chained_arena(k)
        qubits = [f"c{i}a" for i in range(k)] + ["c0a"]
        with pytest.raises(UnknownQubitError):
            batched.comp_measure_many(qubits, np.random.default_rng(0))
        with pytest.raises(UnknownQubitError):
            for q in qubits:
                scalar.comp_measure(q, np.random.default_rng(0))


def test_bell_pairs_share_read_only_rows_and_match_add_state():
    batched, scalar = QubitArena(), QubitArena()
    labels = list(BellLabel) * 2
    batched.add_bell_pairs([(lab, f"p{i}h", f"p{i}t") for i, lab in enumerate(labels)], "alice")
    for i, lab in enumerate(labels):
        scalar.add_state(StateVector((f"p{i}h", f"p{i}t"), BELL_VECTORS[lab].copy()), "alice")
    assert_same_arena(batched, scalar)
    rows = batched.state_of("p0h").amplitudes, batched.state_of("p4h").amplitudes
    assert rows[0] is rows[1] and not rows[0].flags.writeable
    with pytest.raises(InvalidRegisterError):
        batched.add_bell_pairs([(BellLabel.PSI_PLUS, "x", "p0t")], "bob")
    with pytest.raises(InvalidRegisterError):
        batched.add_bell_pairs([(BellLabel.PSI_PLUS, "y", "y")], "bob")
