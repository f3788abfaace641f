"""Reference engine for the tests: the tensordot / moveaxis / take / kron
kernels the engine used before its axis-to-front kernels, and ``RefArena``,
which runs ``QubitArena``'s by-name methods on whole registers with them.
Nothing here calls a package kernel or ``run_round``, so a comparison with it
is independent of the engine's round path.
"""
import numpy as np

from osbmdi.quantum import (
    ATOL,
    BELL_VECTORS,
    PAULI_MATRICES,
    BellLabel,
    InvalidOperatorError,
    InvalidRegisterError,
    StateVector,
    UnknownQubitError,
)


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


# --- reference arena ---------------------------------------------------------


class RefArena:
    """``QubitArena``'s by-name methods worked out on whole registers with the
    ``ref_*`` kernels: the reference that rounds are compared with.  It calls
    neither ``run_round`` nor an engine op, and raises what the arena raises,
    word for word."""

    def __init__(self):
        self.regs = {}  # live qubit -> its register
        self.held = {}  # live qubit -> its holder

    def _put(self, ids, amps):
        self.regs.update(dict.fromkeys(ids, StateVector(ids, amps)))

    def add_state(self, state, holder):
        live = next((q for q in state.qubit_ids if q in self.held), None)
        if live is not None:
            raise InvalidRegisterError(f"qubit {live!r} already registered")
        self._put(state.qubit_ids, state.amplitudes.copy())
        self.held.update(dict.fromkeys(state.qubit_ids, holder))

    def holders(self):
        return dict(self.held)

    def state_of(self, qubit_id):
        if qubit_id not in self.held:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena")
        return self.regs[qubit_id]

    def holder_of(self, qubit_id):
        self.state_of(qubit_id)
        return self.held[qubit_id]

    def transfer(self, qubit_id, to, expect=None):
        held = self.holder_of(qubit_id)
        if expect is not None and held != expect:
            raise InvalidRegisterError(f"qubit {qubit_id!r} held by {held!r}, expected {expect!r}")
        self.held[qubit_id] = to

    def _joint(self, q_a, q_b):
        a, b = self.state_of(q_a), self.state_of(q_b)
        return a if a is b else StateVector(*ref_tensor(a, b))

    def _settle(self, measured, rest):
        for q in measured:
            del self.regs[q], self.held[q]
        if rest is not None:
            self._put(*rest)

    def apply_pauli(self, qubit_id, p):
        self._put(*ref_apply_1q(self.state_of(qubit_id), qubit_id, PAULI_MATRICES[p]))

    def apply_unitary(self, qubit_id, u):
        self._put(*ref_apply_unitary1q(self.state_of(qubit_id), qubit_id, u))

    def apply_cnot(self, control, target):
        self._put(*ref_apply_cnot(self._joint(control, target), control, target))

    def bell_measure(self, q_a, q_b, rng):
        label, rest = ref_bell_measure(self._joint(q_a, q_b), q_a, q_b, rng)
        self._settle((q_a, q_b), rest)
        return label

    def comp_measure(self, qubit_id, rng):
        bit, rest = ref_comp_measure(self.state_of(qubit_id), qubit_id, rng)
        self._settle((qubit_id,), rest)
        return bit
