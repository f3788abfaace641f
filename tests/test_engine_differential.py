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
from hypothesis import given, settings
from hypothesis import strategies as st

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
# Each ``run_round`` over one arena must leave the arena, the outcomes and the
# random stream exactly as the scalar arena op called on every item in order.


def random_arena(seed, n_regs, share=None):
    """Two identical arenas of random 1-3 qubit registers r{i}_{j}, the first
    on the store of ``share`` when given."""
    rng = np.random.default_rng(seed)
    arenas = (QubitArena(share), QubitArena())
    for i in range(n_regs):
        width = int(rng.integers(1, 4))
        state = random_state(width, int(rng.integers(1 << 20)), prefix=f"r{i}_")
        for arena in arenas:
            arena.add_state(state, "node")
    return arenas


def arena_contents(arena):
    regs = {}
    for q in arena._holders:
        s = arena.state_of(q)
        regs[s.qubit_ids] = s.amplitudes.tolist()
    return sorted(regs.items()), dict(arena._holders)


def assert_same_arena(batched, scalar):
    (regs_b, holders_b), (regs_s, holders_s) = arena_contents(batched), arena_contents(scalar)
    assert holders_b == holders_s
    assert [ids for ids, _ in regs_b] == [ids for ids, _ in regs_s]
    for (_, amps_b), (_, amps_s) in zip(regs_b, regs_s):
        assert np.max(np.abs(np.array(amps_b) - np.array(amps_s))) <= 1e-12


def live_qubits(arena, rng):
    qubits = sorted(arena._holders)
    return [qubits[i] for i in rng.permutation(len(qubits))]


def run_both(batched, scalar, seed, op, one, items):
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_round(op, [(batched, items, rng_b)])[0]
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
    run_round("apply_unitary", [(batched, items, None)])
    for q, m in items:
        scalar.apply_unitary(q, m)
    assert_same_arena(batched, scalar)

    items = [(q, paulis[int(rng.integers(4))]) for q in live_qubits(batched, rng)]
    run_round("apply_pauli", [(batched, items, None)])
    for q, p in items:
        scalar.apply_pauli(q, p)
    assert_same_arena(batched, scalar)

    qubits = live_qubits(batched, rng)
    pairs = list(zip(qubits[0::2], qubits[1::2]))[: len(qubits) // 3]
    run_both(batched, scalar, seed, "bell_measure",
             lambda a, it, r: a.bell_measure(*it, r), pairs)

    qubits = live_qubits(batched, rng)
    run_both(batched, scalar, seed + 1, "comp_measure",
             lambda a, it, r: a.comp_measure(it, r), qubits)
    assert not batched._holders and not scalar._holders


def chained_arena(k, share=None):
    """Two identical arenas of k two-qubit registers c{i}a, c{i}b, the first
    on the store of ``share`` when given."""
    arenas = (QubitArena(share), QubitArena())
    for i in range(k):
        state = random_state(2, i, prefix=f"c{i}")
        for arena in arenas:
            arena.add_state(StateVector((f"c{i}a", f"c{i}b"), state.amplitudes), "node")
    return arenas


def engine_calls(monkeypatch, name):
    """Amplitude shapes of every call of the engine function ``name`` from now on."""
    shapes = []
    real = getattr(quantum, name)
    monkeypatch.setattr(quantum, name, lambda s, *a: shapes.append(s.amplitudes.shape) or real(s, *a))
    return shapes


def test_bell_round_with_chained_registers_runs_in_waves(monkeypatch):
    """Item i joins registers i and i+1, so every item waits for the last:
    one wave per item, each register seeing its items in call order."""
    k = 24
    batched, scalar = chained_arena(k)
    pairs = [(f"c{i}b", f"c{i + 1}a") for i in range(k - 1)]
    calls = engine_calls(monkeypatch, "bell_measure")
    run_round("bell_measure", [(batched, pairs, np.random.default_rng(3))])
    assert len(calls) == k - 1  # one call per wave
    batched, _ = chained_arena(k)
    run_both(batched, scalar, 3, "bell_measure",
             lambda a, it, r: a.bell_measure(*it, r), pairs)


def test_readout_round_of_shared_registers_runs_in_two_waves(monkeypatch):
    """Both qubits of each register, interleaved: as in the swap-round
    correlation checks.  Wave 0 reads each register's first qubit, wave 1
    what is left of it."""
    k = 16
    batched, scalar = chained_arena(k)
    qubits = [q for i in range(k) for q in (f"c{i}a", f"c{i}b")]
    calls = engine_calls(monkeypatch, "comp_measure")
    run_round("comp_measure", [(batched, qubits, np.random.default_rng(4))])
    assert calls == [(k, 4), (k, 2)]
    batched, _ = chained_arena(k)
    run_both(batched, scalar, 4, "comp_measure",
             lambda a, it, r: a.comp_measure(it, r), qubits)


@pytest.mark.parametrize("k", [8, 12, 15])
def test_short_two_wave_readout_matches_scalar_calls(k):
    """16-31 items: both qubits of k registers, waves of k rows each."""
    batched, scalar = chained_arena(k)
    qubits = [q for i in range(k) for q in (f"c{i}a", f"c{i}b")]
    run_both(batched, scalar, 5, "comp_measure",
             lambda a, it, r: a.comp_measure(it, r), qubits)


@pytest.mark.parametrize("k", [8, 24])
def test_cnot_round_matches_scalar_calls(k, monkeypatch):
    """CNOT rounds joining two registers, then inside each joined register,
    then along a chain (one wave per link): each leaves the arena as
    ``apply_cnot`` on every item in order, and every call is stacked, a
    chain link's too."""
    stacked = []
    real = quantum.apply_cnot
    monkeypatch.setattr(quantum, "apply_cnot", lambda s, c, t: (
        stacked.append(s.amplitudes.ndim == 2)) or real(s, c, t))
    batched, scalar = chained_arena(k)
    rounds = (
        [(f"c{i}b", f"c{i + 1}a") for i in range(0, k, 2)],
        [(f"c{i + 1}b", f"c{i}a") for i in range(0, k, 2)],
        [(f"c{i}a", f"c{i + 2}b") for i in (0, 2)],
    )
    for items in rounds:
        stacked.clear()
        assert run_round("apply_cnot", [(batched, items, None)]) == [[None] * len(items)]
        assert all(stacked)
        calls = len(stacked)
        for control, target in items:
            scalar.apply_cnot(control, target)
        assert_same_arena(batched, scalar)
    assert calls == 2  # the chain runs in two waves of one item
    assert batched.state_of("c0a").n_qubits == 12


def test_rounds_of_a_few_items_run_stacked(monkeypatch):
    """Rounds of 1, 3 and 7 readouts in one arena make one stacked engine
    call per group of register width and axis, and leave outcomes, generator
    and arena as the scalar op on each item in order (one 1-D call each)."""
    batched, scalar = chained_arena(8)
    calls = engine_calls(monkeypatch, "comp_measure")
    for seed, qubits, groups in (
        (0, ["c0a"], [(1, 4)]),
        (1, ["c1a", "c2b", "c3a"], [(2, 4), (1, 4)]),
        (2, ["c0b", "c1b", "c2a", "c3b", "c4a", "c5b", "c6a"], [(4, 2), (2, 4), (1, 4)]),
    ):
        calls.clear()
        run_both(batched, scalar, seed, "comp_measure",
                 lambda a, it, r: a.comp_measure(it, r), qubits)
        assert calls[: len(groups)] == groups
        assert [len(shape) for shape in calls[len(groups):]] == [1] * len(qubits)


@pytest.mark.parametrize("seed", range(4))
def test_cross_arena_round_matches_each_arena_alone(seed):
    """One round over five arenas, each with its own generator, leaves every
    arena, outcome and generator as that arena's scalar calls would; groups
    merge items of several arenas."""
    share = QubitArena()  # every batched arena on one store
    pairs = [random_arena(10 * seed + a, 24, share) for a in range(5)]
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
    assert all(not b._holders and not s._holders for b, s in pairs)


def test_cross_arena_round_stacks_what_no_arena_could_stack_alone(monkeypatch):
    """Two Bell measurements per arena, then both qubits of each joined
    register, over four arenas: each arena brings two rows to a group, and
    each group is one call on the rows of all four."""
    stacked = []
    for name in ("bell_measure", "comp_measure"):
        real = getattr(quantum, name)
        monkeypatch.setattr(quantum, name, lambda s, *a, real=real, name=name: (
            stacked.append((name, len(s.amplitudes))) if s.amplitudes.ndim == 2 else None
        ) or real(s, *a))
    share = QubitArena()
    pairs = [chained_arena(4, share) for _ in range(4)]
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
    assert stacked == [("bell_measure", 8), ("comp_measure", 8), ("comp_measure", 8)]


def test_round_measuring_a_qubit_twice_raises_like_the_scalar_ops():
    for k in (4, 24):  # a short round and a long one
        batched, scalar = chained_arena(k)
        qubits = [f"c{i}a" for i in range(k)] + ["c0a"]
        with pytest.raises(UnknownQubitError):
            run_round("comp_measure", [(batched, qubits, np.random.default_rng(0))])
        with pytest.raises(UnknownQubitError):
            for q in qubits:
                scalar.comp_measure(q, np.random.default_rng(0))


def test_bell_pairs_match_add_state():
    """Bulk registration, of Bell pairs or of registers of one width, leaves
    the arena (qubit indices included) that one ``add_state`` per register
    leaves, and a rejected call leaves it unchanged."""
    batched, scalar = QubitArena(), QubitArena()
    labels = list(BellLabel) * 2
    batched.add_bell_pairs([lab.code for lab in labels], [f"p{i}h" for i in range(len(labels))],
                           [f"p{i}t" for i in range(len(labels))], "alice")
    for i, lab in enumerate(labels):
        scalar.add_state(StateVector((f"p{i}h", f"p{i}t"), BELL_VECTORS[lab].copy()), "alice")
    for width in (1, 3):
        states = [random_state(width, seed, prefix=f"w{width}s{seed}_") for seed in range(5)]
        amps = np.array([s.amplitudes for s in states])
        batched.add_registers([s.qubit_ids for s in states], amps, "eve")
        for s in states:
            scalar.add_state(s, "eve")
    batched.add_registers([], np.empty((0, 2)), "eve")
    assert_same_arena(batched, scalar)
    assert batched._index == scalar._index
    with pytest.raises(InvalidRegisterError):
        batched.add_bell_pairs([BellLabel.PSI_PLUS.code], ["x"], ["p0t"], "bob")
    with pytest.raises(InvalidRegisterError):
        batched.add_bell_pairs([BellLabel.PSI_PLUS.code], ["y"], ["y"], "bob")
    one = np.array([[1.0, 0.0], [0.0, 1.0]])
    for registers, amps in (
        ([("x",), ("x",)], one),  # a name repeated in one call
        ([("x", "y", "x")], random_state(3, 0).amplitudes[None]),
        ([("x",), ("w1s2_0",)], one),  # a live name
        ([("x",), ("y",)], np.array([[1.0, 0.0], [1.0, 1.0]])),  # a row not normalized
        ([("x",), ("y", "z")], one),  # mixed widths
        ([("x",), ("y",)], one[:1]),  # one row for two registers
        ([("x",), ("y",)], np.ones((2, 4)) / 2),  # rows of the wrong width
    ):
        with pytest.raises(InvalidRegisterError):
            batched.add_registers(registers, amps, "bob")
    assert_same_arena(batched, scalar)


def test_states_in_and_out_of_the_arena_never_change():
    """The arena writes its tables in place, so neither a state passed to
    ``add_state`` nor one ``state_of`` returned may change when later gates
    and measurements act on that register."""
    arena = QubitArena()
    added = random_state(3, 7, prefix="r")
    before = added.amplitudes.copy()
    arena.add_state(added, "node")
    arena.add_bell_pairs([BellLabel.PSI_PLUS.code], ["b0"], ["b1"], "node")
    bells = {lab: v.copy() for lab, v in BELL_VECTORS.items()}
    out = arena.state_of("r1"), arena.state_of("b0")
    held = [s.amplitudes.copy() for s in out]
    run_round("apply_unitary", [(arena, [("r1", random_unitary(3)), ("b0", random_unitary(4))], None)])
    run_round("apply_pauli", [(arena, [("r2", PauliLabel.IY), ("b1", PauliLabel.X)], None)])
    arena.apply_pauli("r0", PauliLabel.Z)
    run_round("apply_cnot", [(arena, [("r0", "b1")], None)])
    run_round("comp_measure", [(arena, ["r2", "b0"], np.random.default_rng(5))])
    arena.comp_measure("r1", np.random.default_rng(6))
    assert np.array_equal(added.amplitudes, before)
    assert all(np.array_equal(s.amplitudes, h) for s, h in zip(out, held))
    assert all(np.array_equal(BELL_VECTORS[lab], v) for lab, v in bells.items())


# --- round property test -------------------------------------------------------------------

_UNITARIES = (random_unitary(1), random_unitary(2))


def _draw_items(data, op, live):
    """Items of one ``op`` round over the live qubits ``live``: measured
    qubits are distinct, gates may repeat qubits and registers."""
    order = data.draw(st.permutations(live))
    if op == "comp_measure":
        return order[: data.draw(st.integers(0, len(live)))]
    if op == "bell_measure":
        k = data.draw(st.integers(0, len(live) // 2))
        return [(order[2 * i], order[2 * i + 1]) for i in range(k)]
    if not live:
        return []
    qubits = st.sampled_from(live)
    if op == "apply_pauli":
        return data.draw(st.lists(st.tuples(qubits, st.sampled_from(list(PauliLabel))), max_size=8))
    if op == "apply_unitary":
        return data.draw(st.lists(st.tuples(qubits, st.sampled_from(_UNITARIES)), max_size=8))
    if len(live) < 2:
        return []
    pairs = st.tuples(qubits, qubits).filter(lambda pair: pair[0] != pair[1])
    return data.draw(st.lists(pairs, max_size=6))


_SCALAR = {
    "comp_measure": lambda a, item, rng: a.comp_measure(item, rng),
    "bell_measure": lambda a, item, rng: a.bell_measure(*item, rng),
    "apply_pauli": lambda a, item, _: a.apply_pauli(*item),
    "apply_unitary": lambda a, item, _: a.apply_unitary(*item),
    "apply_cnot": lambda a, item, _: a.apply_cnot(*item),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rounds_match_scalar_ops(data):
    """Random rounds of all five ops over 1-3 arenas of random 1-3 qubit
    registers, with joining items and registers repeated within a round (so
    several waves), leave outcomes, generators, holders and every live
    register as the scalar op on each item in order."""
    n_arenas = data.draw(st.integers(1, 3))
    share = QubitArena()
    pairs = [
        random_arena(data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 4)), share)
        for _ in range(n_arenas)
    ]
    for r in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(sorted(_SCALAR)))
        measuring = op.endswith("measure")
        items = [_draw_items(data, op, sorted(scalar._holders)) for _, scalar in pairs]
        rngs = [np.random.default_rng([r, a]) for a in range(n_arenas)]
        got = run_round(op, [
            (batched, its, rng if measuring else None)
            for (batched, _), its, rng in zip(pairs, items, rngs)
        ])
        for a, ((batched, scalar), its) in enumerate(zip(pairs, items)):
            rng = np.random.default_rng([r, a])
            assert got[a] == [_SCALAR[op](scalar, item, rng) for item in its]
            assert rngs[a].bit_generator.state == rng.bit_generator.state
            assert_same_arena(batched, scalar)
