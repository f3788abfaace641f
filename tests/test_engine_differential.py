"""Differential tests: the engine's six free functions against reference kernels.

The reference kernels (``engine_reference``) are the tensordot / moveaxis /
take / kron forms the engine used before its axis-to-front kernels.  Each engine op must give
the same amplitudes (to 1e-12), the same sampled outcome and the same number
of draws from the random stream, must leave its inputs untouched, and must
raise the same errors, a measurement before it draws.  The kernel contract
is tighter: each kernel within 1e-15 of its reference, and a stack's rows
equal to the same rows run alone, bit for bit.  Rounds over arenas are
compared with ``RefArena``, which runs the arena's by-name ops on the
reference kernels.
"""
import itertools

import numpy as np
import pytest
from engine_reference import (
    RefArena,
    ref_apply_1q,
    ref_apply_cnot,
    ref_apply_unitary1q,
    ref_bell_measure,
    ref_comp_measure,
    ref_tensor,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from osbmdi import quantum
from osbmdi.quantum import (
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
    make_bell,
    run_round,
    tensor,
)

WIDTHS = range(1, 7)
SEEDS = range(6)


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


# Each case is called as ``case(s, rng)``; a gate ignores ``rng``.
ERROR_CASES = [
    ("pauli unknown", UnknownQubitError, lambda s, _: apply_pauli(s, "zz", PauliLabel.X),
     lambda s, _: ref_apply_1q(s, "zz", PAULI_MATRICES[PauliLabel.X])),
    ("unitary unknown", UnknownQubitError, lambda s, _: apply_unitary1q(s, "zz", np.eye(2)),
     lambda s, _: ref_apply_unitary1q(s, "zz", np.eye(2))),
    ("unitary shape", InvalidOperatorError, lambda s, _: apply_unitary1q(s, "q0", np.eye(3)),
     lambda s, _: ref_apply_unitary1q(s, "q0", np.eye(3))),
    ("unitary not unitary", InvalidOperatorError,
     lambda s, _: apply_unitary1q(s, "q0", np.diag([1.0, 2.0])),
     lambda s, _: ref_apply_unitary1q(s, "q0", np.diag([1.0, 2.0]))),
    ("unitary not unitary and unknown qubit", InvalidOperatorError,
     lambda s, _: apply_unitary1q(s, "zz", np.diag([1.0, 2.0])),
     lambda s, _: ref_apply_unitary1q(s, "zz", np.diag([1.0, 2.0]))),
    ("cnot same", InvalidRegisterError, lambda s, _: apply_cnot(s, "q0", "q0"),
     lambda s, _: ref_apply_cnot(s, "q0", "q0")),
    ("cnot same unknown", InvalidRegisterError, lambda s, _: apply_cnot(s, "zz", "zz"),
     lambda s, _: ref_apply_cnot(s, "zz", "zz")),
    ("cnot unknown control", UnknownQubitError, lambda s, _: apply_cnot(s, "zz", "q1"),
     lambda s, _: ref_apply_cnot(s, "zz", "q1")),
    ("cnot unknown target", UnknownQubitError, lambda s, _: apply_cnot(s, "q0", "zz"),
     lambda s, _: ref_apply_cnot(s, "q0", "zz")),
    ("bell same", InvalidRegisterError, lambda s, rng: bell_measure(s, "q1", "q1", rng),
     lambda s, rng: ref_bell_measure(s, "q1", "q1", rng)),
    ("bell same unknown", InvalidRegisterError, lambda s, rng: bell_measure(s, "zz", "zz", rng),
     lambda s, rng: ref_bell_measure(s, "zz", "zz", rng)),
    ("bell unknown first", UnknownQubitError, lambda s, rng: bell_measure(s, "zz", "q1", rng),
     lambda s, rng: ref_bell_measure(s, "zz", "q1", rng)),
    ("bell unknown second", UnknownQubitError, lambda s, rng: bell_measure(s, "q0", "zz", rng),
     lambda s, rng: ref_bell_measure(s, "q0", "zz", rng)),
    ("comp unknown", UnknownQubitError, lambda s, rng: comp_measure(s, "zz", rng),
     lambda s, rng: ref_comp_measure(s, "zz", rng)),
    ("tensor overlap", InvalidRegisterError, lambda s, _: tensor(s, random_state(2, 1)),
     lambda s, _: ref_tensor(s, random_state(2, 1))),
]


@pytest.mark.parametrize(
    "error,op,ref", [case[1:] for case in ERROR_CASES], ids=[case[0] for case in ERROR_CASES]
)
def test_errors_raise_where_the_reference_raises(error, op, ref):
    """Each op raises where its reference does, before any draw."""
    s = random_state(3, 0)
    snap = frozen(s)
    drawn = _rng().bit_generator.state
    for call in (ref, op):
        rng = _rng()
        with pytest.raises(error):
            call(s, rng)
        assert rng.bit_generator.state == drawn
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
        assert outcomes.tolist() == codes([outcome for outcome, _ in singles])
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


# --- the kernel contract ------------------------------------------------------------------
#
# The kernels compute each row elementwise, so a row's amplitudes and outcome
# are, bit for bit, those of the same row run alone, whatever the stack's
# height; and each kernel agrees with its reference within 1e-15.

HEIGHTS = (1, 2, 7, 64)
DEPHASING = np.diag([1.0, np.exp(0.2j)])


def kernel_ops(width, seed):
    """Every op on a width-``width`` register, on every axis and ordered
    pair, as ``(name, run)``: ``run(state, rows)`` applies it to a stack of
    the rows ``rows`` (a slice of the first ``max(HEIGHTS)``) or to row
    ``rows`` alone (an int), with that row's Pauli symbol or uniform."""
    n = max(HEIGHTS)
    symbols = np.random.default_rng(seed).integers(4, size=n)
    uniforms = np.array([np.random.default_rng([seed, r]).random() for r in range(n)])
    u = random_unitary(seed)

    def paulis(rows):  # a stack's symbols, or one register's label
        return symbols[rows] if isinstance(rows, slice) else tuple(PauliLabel)[symbols[rows]]

    def draws(rows):  # a stack's uniforms, or the generator whose first draw is row's
        return uniforms[rows] if isinstance(rows, slice) else np.random.default_rng([seed, rows])

    ops = []
    for q in ids_of(width):
        ops += [(f"{p} on {q}", lambda s, rows, q=q, p=p: apply_pauli(s, q, p)) for p in PauliLabel]
        ops += [
            (f"row Paulis on {q}", lambda s, rows, q=q: apply_pauli(s, q, paulis(rows))),
            (f"unitary on {q}", lambda s, rows, q=q: apply_unitary1q(s, q, u)),
            (f"dephasing on {q}", lambda s, rows, q=q: apply_unitary1q(s, q, DEPHASING)),
            (f"comp_measure {q}", lambda s, rows, q=q: comp_measure(s, q, draws(rows))),
        ]
    for a, b in itertools.permutations(ids_of(width), 2):
        ops += [
            (f"cnot {a} {b}", lambda s, rows, a=a, b=b: apply_cnot(s, a, b)),
            (f"bell {a} {b}", lambda s, rows, a=a, b=b: bell_measure(s, a, b, draws(rows))),
        ]
    return ops


def outcome_rows(result):
    """An op's result as (outcome codes or None, amplitude rows or None)."""
    outcome, state = result if isinstance(result, tuple) else (None, result)
    if isinstance(outcome, BellLabel):
        outcome = outcome.code
    found = None if outcome is None else np.atleast_1d(outcome).tolist()
    return found, None if state is None else state.amplitudes.reshape(-1, 2**state.n_qubits)


@pytest.mark.parametrize("width", WIDTHS)
def test_stacked_rows_equal_rows_run_alone_bit_for_bit(width):
    rows = [random_state(width, seed) for seed in range(max(HEIGHTS))]
    ids = rows[0].qubit_ids
    for name, run in kernel_ops(width, width):
        alone = [outcome_rows(run(row, r)) for r, row in enumerate(rows)]
        for k in HEIGHTS:
            stack = StateVector.stack(ids, np.array([row.amplitudes for row in rows[:k]]))
            outcomes, amps = outcome_rows(run(stack, slice(0, k)))
            for r, (want_outcome, want) in enumerate(alone[:k]):
                where = f"{name}, row {r} of {k}"
                assert outcomes is None or outcomes[r] == want_outcome[0], where
                assert (amps is None) == (want is None), where
                assert amps is None or np.array_equal(amps[r], want[0]), where


def assert_within_1e15(got, want):
    """``got`` against a reference's ``(ids, amps)``; None against None."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got.qubit_ids == want[0]
        assert np.max(np.abs(got.amplitudes - want[1])) <= 1e-15


@pytest.mark.parametrize("width", WIDTHS)
def test_kernels_match_reference_within_1e15(width):
    for seed in SEEDS:
        s, u = random_state(width, seed), random_unitary(seed)
        for q in s.qubit_ids:
            for m in (u, DEPHASING):
                assert_within_1e15(apply_unitary1q(s, q, m), ref_apply_unitary1q(s, q, m))
            for p in PauliLabel:
                assert_within_1e15(apply_pauli(s, q, p), ref_apply_1q(s, q, PAULI_MATRICES[p]))
            bit, rest = comp_measure(s, q, np.random.default_rng(seed))
            want_bit, want_rest = ref_comp_measure(s, q, np.random.default_rng(seed))
            assert bit == want_bit
            assert_within_1e15(rest, want_rest)
        for a, b in itertools.permutations(s.qubit_ids, 2):
            assert_within_1e15(apply_cnot(s, a, b), ref_apply_cnot(s, a, b))
            label, rest = bell_measure(s, a, b, np.random.default_rng(seed))
            want_label, want_rest = ref_bell_measure(s, a, b, np.random.default_rng(seed))
            assert label is want_label
            assert_within_1e15(rest, want_rest)
    # a stack of per-row Paulis against the reference on each row
    stack, rows = random_stack(width, 5)
    symbols = np.arange(ROWS) % 4
    for q in stack.qubit_ids:
        got = apply_pauli(stack, q, symbols)
        for row, r, sym in zip(got.amplitudes, rows, symbols):
            want = ref_apply_1q(r, q, PAULI_MATRICES[tuple(PauliLabel)[sym]])
            assert_within_1e15(StateVector(got.qubit_ids, row), want)


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
# random stream exactly as the reference arena's by-name op (``RefArena``)
# called on every item in order.
# The tests below name their items; ``named_round`` converts them at the
# arena's by-name edge and compares outcome codes.


def codes(outcomes):
    """Scalar outcomes as ``run_round`` gives them: a label as its code, a bit as is."""
    return [o.code if isinstance(o, BellLabel) else o for o in outcomes]


def index_rounds(op, arena, items, arg):
    """The ``run_round`` arguments ``(qubits, arg)`` of the named round
    ``(items, arg)`` on ``arena``, whose items are those of the scalar op:
    qubit names go through ``QubitArena.indices``, Paulis become codes, and
    a unitary round's items become one round per run of one matrix."""
    if op == "apply_unitary":
        runs = [list(run) for _, run in itertools.groupby(items, key=lambda item: id(item[1]))]
        return [(arena.indices([q for q, _ in run]), run[0][1]) for run in runs]
    if op == "apply_pauli":
        return [(arena.indices([q for q, _ in items]), [p.symbol for _, p in items])]
    if op in ("bell_measure", "apply_cnot"):
        return [(arena.indices([q for item in items for q in item]).reshape(-1, 2), arg)]
    return [(arena.indices(items), arg)]


def named_round(op, arena, items, arg):
    """``run_round`` over named items: their results, outcome codes or None
    for a gate."""
    got = []
    for qubits, a in index_rounds(op, arena, items, arg):
        out = run_round(op, arena, qubits, a)
        got += [None] * len(qubits) if out is None else out.tolist()
    return got


def random_arena(seed, n_regs):
    """An arena and a reference arena of the same random 1-3 qubit registers
    r{i}_{j}."""
    rng = np.random.default_rng(seed)
    arenas = (QubitArena(), RefArena())
    for i in range(n_regs):
        width = int(rng.integers(1, 4))
        state = random_state(width, int(rng.integers(1 << 20)), prefix=f"r{i}_")
        for arena in arenas:
            arena.add_state(state, "node")
    return arenas


def arena_contents(arena):
    regs = {}
    holders = arena.holders()
    for q in holders:
        s = arena.state_of(q)
        regs[s.qubit_ids] = s.amplitudes.tolist()
    return sorted(regs.items()), holders


def assert_same_arena(batched, scalar):
    (regs_b, holders_b), (regs_s, holders_s) = arena_contents(batched), arena_contents(scalar)
    assert holders_b == holders_s
    assert [ids for ids, _ in regs_b] == [ids for ids, _ in regs_s]
    for (_, amps_b), (_, amps_s) in zip(regs_b, regs_s):
        assert np.max(np.abs(np.array(amps_b) - np.array(amps_s))) <= 1e-12


def live_qubits(arena, rng):
    qubits = sorted(arena.holders())
    return [qubits[i] for i in rng.permutation(len(qubits))]


def run_both(batched, scalar, seed, op, one, items):
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    got = named_round(op, batched, items, rng_b)
    want = [one(scalar, item, rng_s) for item in items]
    assert got == codes(want)
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
    named_round("apply_unitary", batched, items, None)
    for q, m in items:
        scalar.apply_unitary(q, m)
    assert_same_arena(batched, scalar)

    items = [(q, paulis[int(rng.integers(4))]) for q in live_qubits(batched, rng)]
    named_round("apply_pauli", batched, items, None)
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
    assert not batched.holders() and not scalar.holders()


def chained_arena(k):
    """An arena and a reference arena of the same k two-qubit registers
    c{i}a, c{i}b."""
    arenas = (QubitArena(), RefArena())
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
    named_round("bell_measure", batched, pairs, np.random.default_rng(3))
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
    named_round("comp_measure", batched, qubits, np.random.default_rng(4))
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
        assert named_round("apply_cnot", batched, items, None) == [None] * len(items)
        assert all(stacked)
        calls = len(stacked)
        for control, target in items:
            scalar.apply_cnot(control, target)
        assert_same_arena(batched, scalar)
    assert calls == 2  # the chain runs in two waves of one item
    assert batched.state_of("c0a").n_qubits == 12


def brute_force_waves(keys, joining):
    """``quantum._plan_waves`` worked out item by item, with one wave of
    every item written ``[None]``: a single-register item's wave is how many
    earlier items name its register; joining items run in one wave when no
    register appears in two items (both targets of one item on one register
    count once), else in the waves of ``_join_waves``."""
    items = keys.tolist()
    if joining:
        registers = [r for item in items for r in set(item)]
        if len(set(registers)) == len(registers):
            return [None]
        return [wave.tolist() for wave in quantum._join_waves(items)]
    rank = [items[:i].count(key) for i, key in enumerate(items)]
    if not any(rank):
        return [None]
    return [[i for i, r in enumerate(rank) if r == w] for w in range(max(rank) + 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), joining=st.booleans(), repeats=st.booleans())
def test_plan_waves_match_brute_force(data, joining, repeats):
    """Register keys with and without repeats, one or two per item; a joining
    item may have both targets on one register without any repeat."""
    n = data.draw(st.integers(1, 40), "items")
    width = 2 if joining else 1
    # n * width keys from a pool of n registers often repeat one (joining
    # keys always do); unique keys never do
    pool = st.integers(1, n) if repeats else st.integers(1, 2**40)
    flat = data.draw(st.lists(pool, min_size=n * width, max_size=n * width, unique=not repeats))
    keys = np.array(flat, dtype=np.intp).reshape(n, width) if joining else np.array(flat, np.intp)
    if joining:
        inside = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), "inside")
        keys[inside, 1] = keys[inside, 0]
    got = [None if wave is None else wave.tolist() for wave in quantum._plan_waves(keys, joining)]
    assert got == brute_force_waves(keys, joining)


def test_rounds_of_a_few_items_run_stacked(monkeypatch):
    """Rounds of 1, 3 and 7 readouts in one arena make one stacked engine
    call per group of register width and axis, and leave outcomes, generator
    and arena as the reference op on each item in order (which makes no
    engine call)."""
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
        assert calls == groups


def test_round_measuring_a_qubit_twice_raises_like_the_scalar_ops():
    for k in (4, 24):  # a short round and a long one
        batched, scalar = chained_arena(k)
        qubits = [f"c{i}a" for i in range(k)] + ["c0a"]
        with pytest.raises(UnknownQubitError):
            named_round("comp_measure", batched, qubits, np.random.default_rng(0))
        with pytest.raises(UnknownQubitError):
            for q in qubits:
                scalar.comp_measure(q, np.random.default_rng(0))


# Each case is called as ``case(arena, rng)`` on ``random_arena(0, 4)``,
# whose qubit r0_0 is live; a gate ignores ``rng``.
ARENA_ERRORS = [
    ("bell same qubit", InvalidRegisterError, lambda a, rng: a.bell_measure("r0_0", "r0_0", rng)),
    ("bell same unknown", UnknownQubitError, lambda a, rng: a.bell_measure("zz", "zz", rng)),
    ("bell unknown", UnknownQubitError, lambda a, rng: a.bell_measure("r0_0", "zz", rng)),
    ("comp unknown", UnknownQubitError, lambda a, rng: a.comp_measure("zz", rng)),
    ("pauli unknown", UnknownQubitError, lambda a, _: a.apply_pauli("zz", PauliLabel.X)),
    ("unitary unknown", UnknownQubitError, lambda a, _: a.apply_unitary("zz", np.eye(2))),
    ("unitary not unitary", InvalidOperatorError,
     lambda a, _: a.apply_unitary("r0_0", np.diag([1.0, 2.0]))),
    ("unitary shape", InvalidOperatorError, lambda a, _: a.apply_unitary("r0_0", np.eye(3))),
    ("cnot same", InvalidRegisterError, lambda a, _: a.apply_cnot("r0_0", "r0_0")),
    ("cnot unknown", UnknownQubitError, lambda a, _: a.apply_cnot("r0_0", "zz")),
]


@pytest.mark.parametrize(
    "error,call", [c[1:] for c in ARENA_ERRORS], ids=[c[0] for c in ARENA_ERRORS]
)
def test_by_name_errors_raise_the_reference_message_before_any_draw(error, call):
    """A by-name op that fails raises the reference arena's error word for
    word, before it draws, and changes neither arena."""
    arena, ref = random_arena(0, 4)
    before = arena_contents(arena)
    drawn = _rng().bit_generator.state
    messages = []
    for a in (ref, arena):
        rng = _rng()
        with pytest.raises(error) as caught:
            call(a, rng)
        messages.append(str(caught.value))
        assert rng.bit_generator.state == drawn
    assert messages[0] == messages[1]
    assert arena_contents(arena) == before
    assert_same_arena(arena, ref)


def assert_same_tables(a, b):
    """Arenas ``a`` and ``b`` hold the same qubits at the same indices: the
    same locations, holders and table rows."""
    assert a._loc.tolist() == b._loc.tolist() and a._held.tolist() == b._held.tolist()
    assert a._holders == b._holders and sorted(a._tables) == sorted(b._tables)
    for n, table in a._tables.items():
        other = b._tables[n]
        assert table.size == other.size
        assert table.members[:table.size].tolist() == other.members[:other.size].tolist()
        assert table.amps[:table.size].tolist() == other.amps[:other.size].tolist()


def test_bell_pairs_match_add_state():
    """Bulk registration, of Bell pairs or of registers of one width, leaves
    the arena (qubit indices included) that one ``add_state`` per register
    leaves, unnamed, and a rejected call leaves it unchanged."""
    batched, scalar = QubitArena(), QubitArena()
    labels = list(BellLabel) * 2
    pairs = batched.add_bell_pairs([lab.code for lab in labels], "alice")
    for i, lab in enumerate(labels):
        scalar.add_state(StateVector((f"p{i}h", f"p{i}t"), BELL_VECTORS[lab].copy()), "alice")
    assert pairs.tolist() == [scalar.indices((f"p{i}h", f"p{i}t")).tolist() for i in range(8)]
    for width in (1, 3):
        states = [random_state(width, seed, prefix=f"w{width}s{seed}_") for seed in range(5)]
        amps = np.array([s.amplitudes for s in states])
        registers = batched.add_registers(amps, "eve")
        for s in states:
            scalar.add_state(s, "eve")
        assert registers.tolist() == [scalar.indices(s.qubit_ids).tolist() for s in states]
    assert batched.add_registers(np.empty((0, 2)), "eve").shape == (0, 0)
    assert batched.add_bell_pairs([], "eve").shape == (0, 2)
    assert_same_tables(batched, scalar)
    assert not batched._names and not batched._index
    for amps in (
        np.array([[1.0, 0.0], [1.0, 1.0]]),  # a row not normalized
        np.ones((2, 3)) / np.sqrt(3),  # rows of no register's width
    ):
        with pytest.raises(InvalidRegisterError):
            batched.add_registers(amps, "bob")
    assert_same_tables(batched, scalar)


def test_states_in_and_out_of_the_arena_never_change():
    """The arena writes its tables in place, so neither a state passed to
    ``add_state`` nor one ``state_of`` returned may change when later gates
    and measurements act on that register."""
    arena = QubitArena()
    added = random_state(3, 7, prefix="r")
    before = added.amplitudes.copy()
    arena.add_state(added, "node")
    (b0, b1), = arena.add_bell_pairs([BellLabel.PSI_PLUS.code], "node")
    r0, r1, r2 = arena.indices(["r0", "r1", "r2"]).tolist()
    bells = {lab: v.copy() for lab, v in BELL_VECTORS.items()}
    out = arena.state_of("r1"), arena.register(b0)
    held = [s.amplitudes.copy() for s in out]
    run_round("apply_unitary", arena, np.array([r1]), random_unitary(3))
    run_round("apply_unitary", arena, np.array([b0]), random_unitary(4))
    run_round("apply_pauli", arena, np.array([r2, b1]), [PauliLabel.IY.symbol, PauliLabel.X.symbol])
    arena.apply_pauli("r0", PauliLabel.Z)
    run_round("apply_cnot", arena, np.array([[r0, b1]]), None)
    run_round("comp_measure", arena, np.array([r2, b0]), np.random.default_rng(5))
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
    """Random rounds of all five ops over random 1-3 qubit registers, with
    joining items and registers repeated within a round (so several waves),
    leave outcomes, generators, holders and every live register as the
    scalar op on each item in order."""
    batched, scalar = random_arena(data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 8)))
    for r in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(sorted(_SCALAR)))
        items = _draw_items(data, op, sorted(scalar.holders()))
        rng, rng_s = np.random.default_rng(r), np.random.default_rng(r)
        got = named_round(op, batched, items, rng if op.endswith("measure") else None)
        assert got == codes([_SCALAR[op](scalar, item, rng_s) for item in items])
        assert rng.bit_generator.state == rng_s.bit_generator.state
        assert_same_arena(batched, scalar)


# --- rounds over arena indices -------------------------------------------------------------


def indexed_arena(seed, n_regs, batched):
    """A reference arena of random 1-3 qubit registers r{i}_{j}, the same
    registers added to ``batched``, unnamed, through ``add_registers``, and
    each name's index in ``batched``."""
    rng = np.random.default_rng(seed)
    scalar, at = RefArena(), {}
    for i in range(n_regs):
        width = int(rng.integers(1, 4))
        state = random_state(width, int(rng.integers(1 << 20)), prefix=f"r{i}_")
        qubits = batched.add_registers(state.amplitudes[None], "node")
        at.update(zip(state.qubit_ids, qubits[0].tolist()))
        scalar.add_state(state, "node")
    return scalar, at


def assert_same_parts(batched, parts):
    """The reference arenas of ``parts`` together match ``batched``, read by
    index: each live qubit q of a reference arena is live in ``batched`` at
    its ``at[q]``, which reads ``#`` and that index, with the same holder and
    register."""
    holders = {}
    for scalar, at in parts:
        named = {f"#{i}": q for q, i in at.items()}
        for q, holder in scalar.holders().items():
            holders[f"#{at[q]}"] = holder
            got, want = batched.register(at[q]), scalar.state_of(q)
            assert tuple(named[i] for i in got.qubit_ids) == want.qubit_ids
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12
    assert batched.holders() == holders


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_index_rounds_match_scalar_ops_on_arenas_sharing_names(data):
    """Two sets of unnamed registers on one arena, as a cohort and its
    nested cohort register theirs, each matched with a reference arena of
    the same names: rounds of all five ops and hand-overs over both sets,
    built from the indices registration returned, with each set's uniforms
    drawn from its own stream, leave outcome codes, draws, registers and
    holders as the scalar by-name ops on the two reference arenas, and a
    hand-over that fails moves nothing and raises what ``transfer`` of its
    first bad qubit raises, its name read as ``#`` and its index."""
    batched = QubitArena()
    n_regs = data.draw(st.integers(1, 4))
    parts = [indexed_arena(data.draw(st.integers(0, 2**16)), n_regs, batched) for _ in range(2)]
    for r in range(data.draw(st.integers(1, 5))):
        op = data.draw(st.sampled_from(sorted(_SCALAR) + ["transfer"]))
        u = data.draw(st.sampled_from(_UNITARIES))
        items = [_draw_items(data, op if op != "transfer" else "comp_measure",
                             sorted(scalar.holders())) for scalar, _ in parts]
        if op == "apply_unitary":
            items = [[(q, u) for q, _ in its] for its in items]
        named = [(scalar, at, item) for (scalar, at), its in zip(parts, items) for item in its]
        if op == "transfer":
            expect = data.draw(st.sampled_from([None, "node", "eve"]))
            qubits = np.array([at[q] for _, at, q in named], dtype=np.intp)
            bad = [(ref, at, q) for ref, at, q in named if expect not in (None, ref.holder_of(q))]
            if bad:
                with pytest.raises(InvalidRegisterError) as bulk:
                    batched.transfer_many(qubits, "eve", expect)
                ref, at, q = bad[0]
                with pytest.raises(InvalidRegisterError) as single:
                    ref.transfer(q, "eve", expect)
                assert str(bulk.value) == str(single.value).replace(repr(q), repr(f"#{at[q]}"))
            else:
                batched.transfer_many(qubits, "eve", expect)
                for scalar, _, q in named:
                    scalar.transfer(q, "eve", expect)
            assert_same_parts(batched, parts)
            continue
        rngs = [np.random.default_rng([r, a]) for a in range(2)]
        measuring = op.endswith("measure")
        if op in ("bell_measure", "apply_cnot"):
            qubits = np.array([[at[q] for q in item] for _, at, item in named], int).reshape(-1, 2)
        else:  # an item is a qubit, or a qubit and its Pauli or matrix
            qubits = np.array([at[item if measuring else item[0]] for _, at, item in named], int)
        if measuring:
            arg = np.concatenate([rng.random(len(its)) for rng, its in zip(rngs, items)])
        elif op == "apply_pauli":
            arg = [item[1].symbol for *_, item in named]
        else:
            arg = u if op == "apply_unitary" else None
        got = run_round(op, batched, qubits, arg)
        want = []
        for a, ((scalar, _), its) in enumerate(zip(parts, items)):
            rng = np.random.default_rng([r, a])
            want += [_SCALAR[op](scalar, item, rng) for item in its]
            assert rngs[a].bit_generator.state == rng.bit_generator.state
        assert (got.tolist() if measuring else got) == (codes(want) if measuring else None)
        assert_same_parts(batched, parts)


def test_index_paths_raise_the_by_name_messages():
    """Arena indices that are measured, repeated, held by another party or
    registered again raise word for word what the by-name methods of a
    reference arena raise, and the failed call changes nothing."""
    psip = BellLabel.PSI_PLUS
    arena, ref = QubitArena(), RefArena()
    for r in (arena, ref):
        r.add_state(make_bell(psip, "s", "t"), "alice")
        r.add_state(make_bell(psip, "x", "y"), "bob")
    a, b = arena.indices(["s", "t"]), arena.indices(["x", "y"])

    def message(call, error):
        with pytest.raises(error) as caught:
            call()
        return str(caught.value)

    assert message(lambda: run_round("comp_measure", arena, np.concatenate([a, b[[1, 0, 1]]]),
                                     np.random.default_rng(0)),
                   UnknownQubitError) == "qubit 'y' is measured twice in one round"
    assert message(lambda: arena.transfer_many(b, "charlie", expect="alice"),
                   InvalidRegisterError) == message(
        lambda: ref.transfer("x", "charlie", expect="alice"), InvalidRegisterError)
    assert arena.holders() == ref.holders() == {"s": "alice", "t": "alice", "x": "bob", "y": "bob"}

    run_round("comp_measure", arena, b[:1], np.random.default_rng(1))
    ref.comp_measure("x", np.random.default_rng(1))
    assert message(lambda: run_round("apply_pauli", arena, np.concatenate([a, b]), [1] * 4),
                   UnknownQubitError) == message(lambda: ref.apply_pauli("x", PauliLabel.X),
                                                 UnknownQubitError) == "qubit 'x' not in arena"
    assert message(lambda: arena.transfer_many(b, "charlie"), UnknownQubitError) == message(
        lambda: ref.transfer("x", "charlie"), UnknownQubitError)
    assert arena.holders() == ref.holders() == {"s": "alice", "t": "alice", "y": "bob"}
    assert_same_arena(arena, ref)

    # a live name cannot be registered again; a measured one can
    assert message(lambda: arena.add_state(make_bell(psip, "z", "y"), "bob"),
                   InvalidRegisterError) == message(
        lambda: ref.add_state(make_bell(psip, "z", "y"), "bob"), InvalidRegisterError)
    for r in (arena, ref):
        r.add_state(make_bell(psip, "x", "z"), "bob")
    again = arena.indices(["x", "z"])
    assert again[0] != b[0] and again.tolist() == [len(arena._loc) - 2, len(arena._loc) - 1]
    holders = {"s": "alice", "t": "alice", "y": "bob", "x": "bob", "z": "bob"}
    assert arena.holders() == ref.holders() == holders
    assert_same_arena(arena, ref)
