"""Exact pure-state engine for small registers of named qubits.

Amplitude ordering is lexicographic over the register's qubit order, with
the first qubit as the most significant bit and bit 0 meaning |0>.  That
convention is stated here once and relied on everywhere else.

Operations never mutate their inputs: every gate and measurement returns a
new state, so values can be shared freely.  Measurements are destructive —
the measured qubits are removed from the returned register and survive only
as the classical record.

Kernel convention: every gate and measurement first moves the qubits it acts
on to the front, viewing the amplitudes as a ``(2**m, 2**(k-m))`` matrix.  The
row index spells the m named qubits in the order given (first one most
significant); the column index spells the other qubits in register order.  A
gate left-multiplies that matrix and moves the axes back; a measurement
projects onto rows, and each projected row is already the amplitude vector of
the surviving register.

Stacked registers: ``StateVector.stack(ids, amps)`` holds k registers of one
layout, ``amps`` of shape ``(k, 2**n)`` with one state per row, named by the
``ids`` of a template register (the arena names a stack's qubits by
position).  Every free gate and measurement below also takes a stack and acts
on it row by row, so row i of the result is the single-register result for
row i.  A single register draws its outcome from a ``Generator``; a stack
instead takes one pre-drawn uniform per row, and row i samples with that
uniform exactly as the single-register form samples with its one
``rng.random()`` draw.  Because ``rng.random(k)`` yields the same doubles as
k scalar draws, a round of k measurements can draw its uniforms once and keep
the random stream unchanged.

Bell-label convention: psi+/- live on |00> +/- |11>, phi+/- on |01> +/- |10>.
Note this is swapped relative to the more common psi/phi usage; the whole
package follows this labeling.

Arena storage: a ``QubitArena`` is a view of a store (``_Store``) that the
arenas of a cohort of sessions share.  The store keeps the registers as rows
of one table per width n, amplitudes ``(cap, 2**n)`` beside member qubit
indices ``(cap, n)`` in register order, and one packed location per qubit
(table width, row, axis; 0 once measured); qubit indices are store-wide, and
each arena maps its own qubit names to them.  Registers enter in bulk, one
table write per call (``add_registers``, ``add_bell_pairs``).  ``state_of``
copies a row out, so a state handed in or out is never written; the store
writes rows in place.  A round (``run_round``) over the arenas of one store
maps its items to locations with one index array, splits them into
dependency waves and groups a wave's items by widths, axes and parameter;
each group gathers its rows with one index array per table, makes one engine
call and scatters the result back: a gate on one register in place, a
measurement's or a join's surviving registers as new rows of the table of
their width, whose qubits' locations are rewritten in one assignment (the
store's ``append``, which registration uses too).  Items on distinct
registers form one wave; a single-register item's wave is its occurrence
rank on its register, and a joining item (``bell_measure`` or ``apply_cnot``
across two registers) that shares a register with an earlier item waits for
it, the two registers counting as one from then on.  Every round runs this
way, whatever its size.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

ATOL = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)


class QuantumError(Exception):
    """Base class for register and operator errors."""


class InvalidRegisterError(QuantumError):
    """Register construction is inconsistent (duplicate ids, bad length, norm)."""


class UnknownQubitError(QuantumError):
    """An operation referenced a qubit id not present in the register."""


class InvalidOperatorError(QuantumError):
    """A supplied single-qubit operator is not unitary."""


class BellLabel(enum.Enum):
    """Labels for the four maximally entangled two-qubit states."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def correlated(self) -> bool:
        """True when computational-basis outcomes on both qubits agree."""
        return self in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)

    @property
    def code(self) -> int:
        """The label's index in ``BellLabel`` order (``add_bell_pairs`` takes codes)."""
        return _BELL_ORDER.index(self)

    @classmethod
    def parse(cls, text: str) -> "BellLabel":
        for lab in cls:
            if lab.value == text:
                return lab
        raise ValueError(f"unknown Bell label {text!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PauliLabel(enum.Enum):
    """Encoding operators.  iY is used instead of Y so all matrices are real."""

    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"

    @property
    def bits(self) -> tuple[int, int]:
        return _PAULI_BITS[self]

    @property
    def symbol(self) -> int:
        """Two-bit symbol as an int in 0..3 (msb first: I=0, X=1, iY=2, Z=3)."""
        b0, b1 = self.bits
        return 2 * b0 + b1

    @classmethod
    def from_symbol(cls, symbol: int) -> "PauliLabel":
        return _PAULI_ORDER[symbol]

    @classmethod
    def parse(cls, text: str) -> "PauliLabel":
        for lab in cls:
            if lab.value == text:
                return lab
        raise ValueError(f"unknown Pauli label {text!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_PAULI_ORDER = (PauliLabel.I, PauliLabel.X, PauliLabel.IY, PauliLabel.Z)
_PAULI_BITS = {
    PauliLabel.I: (0, 0),
    PauliLabel.X: (0, 1),
    PauliLabel.IY: (1, 0),
    PauliLabel.Z: (1, 1),
}

# All four matrices are real: iY|0> = -|1>, iY|1> = |0>.
PAULI_MATRICES: dict[PauliLabel, np.ndarray] = {
    PauliLabel.I: np.array([[1, 0], [0, 1]], dtype=complex),
    PauliLabel.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLabel.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
    PauliLabel.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

BELL_VECTORS: dict[BellLabel, np.ndarray] = {
    BellLabel.PSI_PLUS: np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    BellLabel.PSI_MINUS: np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    BellLabel.PHI_PLUS: np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    BellLabel.PHI_MINUS: np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}


@dataclass(frozen=True)
class StateVector:
    """Pure state over an ordered register of uniquely named qubits.

    The amplitude vector has length 2**k and unit squared norm (within
    ``ATOL``); both are checked at construction.  Treat instances as
    immutable — operations return new states.
    """

    qubit_ids: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        ids = self.qubit_ids
        if type(ids) is not tuple:
            ids = tuple(ids)
            object.__setattr__(self, "qubit_ids", ids)
        if len(set(ids)) != len(ids):
            raise InvalidRegisterError(f"duplicate qubit ids in register: {ids}")
        amps = self.amplitudes
        if not (type(amps) is np.ndarray and amps.dtype == np.complex128 and amps.ndim == 1):
            amps = np.asarray(amps, dtype=complex).reshape(-1)
            object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != 2 ** len(ids):
            raise InvalidRegisterError(
                f"amplitude length {amps.shape[0]} does not match {len(ids)} qubits"
            )
        norm2 = np.vdot(amps, amps).real
        if not abs(norm2 - 1.0) <= ATOL:  # also rejects a NaN norm
            raise InvalidRegisterError(f"squared norm {float(norm2)} is not 1")

    @classmethod
    def stack(cls, qubit_ids: Sequence[str], amplitudes: np.ndarray) -> "StateVector":
        """k registers of one layout: ``amplitudes`` has shape ``(k, 2**n)``,
        one state per row, each checked like a single register."""
        ids = tuple(qubit_ids)
        if len(set(ids)) != len(ids):
            raise InvalidRegisterError(f"duplicate qubit ids in register: {ids}")
        amps = np.ascontiguousarray(amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] == 0 or amps.shape[1] != 2 ** len(ids):
            raise InvalidRegisterError(
                f"stack shape {amps.shape} is not (k, {2 ** len(ids)}) for {len(ids)} qubits"
            )
        parts = amps.view(np.float64)
        norm2 = (parts * parts).sum(axis=1)
        if not (abs(norm2 - 1.0) <= ATOL).all():
            bad = int(np.argmin(abs(norm2 - 1.0) <= ATOL))
            raise InvalidRegisterError(f"row {bad} squared norm {norm2[bad]} is not 1")
        return _trusted(ids, amps)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_ids)

    def axis(self, qubit_id: str) -> int:
        try:
            return self.qubit_ids.index(qubit_id)
        except ValueError:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in register") from None

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.n_qubits)


def _trusted(ids: tuple[str, ...], amps: np.ndarray) -> StateVector:
    """A state whose checks already hold: a row of a checked stack, a shared
    Bell row, or a stack that ``StateVector.stack`` has just checked."""
    s = object.__new__(StateVector)
    fields = s.__dict__  # a frozen dataclass only blocks attribute assignment
    fields["qubit_ids"] = ids
    fields["amplitudes"] = amps
    return s


def single_qubit(qubit_id: str, alpha: complex, beta: complex) -> StateVector:
    """One-qubit state alpha|0> + beta|1> (must be normalized)."""
    return StateVector((qubit_id,), np.array([alpha, beta], dtype=complex))


def basis_state(qubit_ids: tuple[str, ...], bits: tuple[int, ...]) -> StateVector:
    """Computational basis state |bits> over the given register."""
    if len(qubit_ids) != len(bits):
        raise InvalidRegisterError("bits/ids length mismatch")
    amps = np.zeros(2 ** len(qubit_ids), dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | (b & 1)
    amps[index] = 1.0
    return StateVector(tuple(qubit_ids), amps)


def make_bell(label: BellLabel, q_a: str, q_b: str) -> StateVector:
    """Two-qubit Bell state for ``label`` on the register (q_a, q_b)."""
    return StateVector((q_a, q_b), BELL_VECTORS[label].copy())


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; qubit id sets must be disjoint.  Two stacks of
    equal height give the row-wise products."""
    overlap = set(a.qubit_ids) & set(b.qubit_ids)
    if overlap:
        raise InvalidRegisterError(f"overlapping qubit ids: {sorted(overlap)}")
    x, y = a.amplitudes, b.amplitudes
    if x.ndim == 1 and y.ndim == 1:
        # For 1-D inputs outer-then-flatten is np.kron, element for element.
        return StateVector(a.qubit_ids + b.qubit_ids, np.outer(x, y).reshape(-1))
    if x.ndim != y.ndim or len(x) != len(y):
        raise InvalidRegisterError(f"cannot tensor stacks of shapes {x.shape} and {y.shape}")
    return StateVector.stack(
        a.qubit_ids + b.qubit_ids, (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
    )


@lru_cache(maxsize=1024)
def _front_index(n_qubits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Gather index that moves ``axes`` to the front (see the module docstring)."""
    rest = tuple(ax for ax in range(n_qubits) if ax not in axes)
    index = np.arange(2**n_qubits).reshape((2,) * n_qubits).transpose(axes + rest)
    index = index.reshape(2 ** len(axes), -1)
    index.flags.writeable = False
    return index


def _to_front(s: StateVector, axes: tuple[int, ...]) -> np.ndarray:
    """``(2**len(axes), rest)`` matrix of ``s`` with ``axes`` moved to the front
    (one such matrix per row for a stack)."""
    amps = s.amplitudes
    if amps.ndim == 1:
        return amps[_front_index(s.n_qubits, axes)]
    return amps[:, _front_index(s.n_qubits, axes)]


def _from_front(m: np.ndarray, n_qubits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``_to_front``: the flat amplitude vector(s) in register order."""
    if m.ndim == 2:
        out = np.empty(m.size, dtype=complex)
        out[_front_index(n_qubits, axes)] = m
        return out
    out = np.empty((len(m), 2**n_qubits), dtype=complex)
    out[:, _front_index(n_qubits, axes)] = m
    return out


def _apply_matrix(s: StateVector, axes: tuple[int, ...], matrix: np.ndarray) -> StateVector:
    amps = _from_front(matrix @ _to_front(s, axes), s.n_qubits, axes)
    if amps.ndim == 1:
        return StateVector(s.qubit_ids, amps)
    return StateVector.stack(s.qubit_ids, amps)


def apply_pauli(s: StateVector, qubit_id: str, p: PauliLabel) -> StateVector:
    """Apply I, X, iY or Z to one qubit."""
    return _apply_matrix(s, (s.axis(qubit_id),), PAULI_MATRICES[p])


# np.allclose(u^dag u, I, atol=ATOL) with its default rtol=1e-5 applied to |I|.
_UNITARY_TOL = ATOL + 1e-5 * np.eye(2)
_IDENTITY2 = np.eye(2)


def apply_unitary1q(s: StateVector, qubit_id: str, u: np.ndarray) -> StateVector:
    """Apply an arbitrary 2x2 unitary to one qubit."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise InvalidOperatorError(f"operator shape {u.shape} is not 2x2")
    if not (np.abs(u.conj().T @ u - _IDENTITY2) <= _UNITARY_TOL).all():
        raise InvalidOperatorError("operator is not unitary")
    return _apply_matrix(s, (s.axis(qubit_id),), u)


# Rows and columns |control, target>: swaps |10> and |11>.
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def apply_cnot(s: StateVector, control: str, target: str) -> StateVector:
    """Controlled-NOT in the computational basis."""
    if control == target:
        raise InvalidRegisterError("control and target must differ")
    return _apply_matrix(s, (s.axis(control), s.axis(target)), _CNOT)


_BELL_ORDER = tuple(BellLabel)
# Row i is <b_i| for the i-th label in BellLabel order.
_BELL_BRAS = np.array([BELL_VECTORS[lab].conj() for lab in _BELL_ORDER])


def bell_measure(
    s: StateVector, q_a: str, q_b: str, rng: np.random.Generator | np.ndarray
) -> tuple[BellLabel, StateVector | None]:
    """Destructive Bell-basis measurement of the pair (q_a, q_b).

    The outcome is Born-sampled from ``rng``; the measured qubits are removed
    from the returned register (None when the register is exhausted).  A
    stack takes an array of row uniforms for ``rng`` and returns a list of
    labels with the stack of surviving rows.
    """
    if q_a == q_b:
        raise InvalidRegisterError("cannot Bell-measure a qubit against itself")
    branches = _BELL_BRAS @ _to_front(s, (s.axis(q_a), s.axis(q_b)))
    if branches.ndim == 3:
        return _bell_measure_rows(s, (q_a, q_b), branches, rng)
    probs = (np.abs(branches) ** 2).sum(axis=1)
    pick = _sample_index(probs, rng)
    remaining = tuple(q for q in s.qubit_ids if q not in (q_a, q_b))
    if not remaining:
        return _BELL_ORDER[pick], None
    return _BELL_ORDER[pick], StateVector(remaining, branches[pick] / np.sqrt(probs[pick]))


def comp_measure(
    s: StateVector, qubit_id: str, rng: np.random.Generator | np.ndarray
) -> tuple[int, StateVector | None]:
    """Destructive computational-basis measurement of one qubit.  A stack
    takes an array of row uniforms for ``rng`` and returns a list of bits."""
    rows = _to_front(s, (s.axis(qubit_id),))
    if rows.ndim == 3:
        return _comp_measure_rows(s, qubit_id, rows, rng)
    p1 = np.vdot(rows[1], rows[1]).real
    bit = 1 if rng.random() < p1 else 0
    p = p1 if bit else 1.0 - p1
    remaining = tuple(q for q in s.qubit_ids if q != qubit_id)
    if not remaining:
        return bit, None
    return bit, StateVector(remaining, rows[bit] / np.sqrt(p))


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    total = probs.sum()
    r = rng.random() * total
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return int(len(probs) - 1)


def _row_uniforms(uniforms: np.ndarray, k: int) -> np.ndarray:
    u = np.asarray(uniforms, dtype=float)
    if u.shape != (k,):
        raise InvalidRegisterError(f"a stack of {k} rows needs {k} uniforms, got shape {u.shape}")
    return u


def _bell_measure_rows(
    s: StateVector, pair: tuple[str, str], branches: np.ndarray, uniforms: np.ndarray
) -> tuple[list[BellLabel], StateVector | None]:
    """Stacked ``bell_measure``: row i samples like ``_sample_index`` with
    uniform i (first label whose running sum exceeds u * total)."""
    probs = (np.abs(branches) ** 2).sum(axis=2)
    k = len(probs)
    r = _row_uniforms(uniforms, k) * probs.sum(axis=1)
    picks = np.minimum((np.cumsum(probs, axis=1) <= r[:, None]).sum(axis=1), 3)
    labels = [_BELL_ORDER[i] for i in picks.tolist()]
    remaining = tuple(q for q in s.qubit_ids if q not in pair)
    if not remaining:
        return labels, None
    rows = np.arange(k)
    kept = branches[rows, picks] / np.sqrt(probs[rows, picks])[:, None]
    return labels, StateVector.stack(remaining, kept)


def _comp_measure_rows(
    s: StateVector, qubit_id: str, front: np.ndarray, uniforms: np.ndarray
) -> tuple[list[int], StateVector | None]:
    """Stacked ``comp_measure``: row i reads 1 when uniform i < p1 of row i."""
    ones = front[:, 1]
    p1 = (ones.real**2 + ones.imag**2).sum(axis=1)
    bits = _row_uniforms(uniforms, len(p1)) < p1
    remaining = tuple(q for q in s.qubit_ids if q != qubit_id)
    if not remaining:
        return bits.astype(int).tolist(), None
    p = np.where(bits, p1, 1.0 - p1)
    kept = np.where(bits[:, None], ones, front[:, 0]) / np.sqrt(p)[:, None]
    return bits.astype(int).tolist(), StateVector.stack(remaining, kept)


@dataclass(frozen=True)
class BellExpansion:
    """Coefficients of a 4-qubit state in a Bell (x) Bell product basis."""

    pairing: tuple[tuple[str, str], tuple[str, str]]
    coeffs: dict[tuple[BellLabel, BellLabel], complex]

    def coeff(self, first: BellLabel, second: BellLabel) -> complex:
        return self.coeffs[(first, second)]

    def nonzero(self, tol: float = 1e-12) -> dict[tuple[BellLabel, BellLabel], complex]:
        return {k: c for k, c in self.coeffs.items() if abs(c) > tol}

    def reconstruct(self) -> StateVector:
        """Re-sum the expansion (register order: pairing flattened)."""
        (a, b), (c, d) = self.pairing
        amps = np.zeros(16, dtype=complex)
        for (l1, l2), coeff in self.coeffs.items():
            amps += coeff * np.kron(BELL_VECTORS[l1], BELL_VECTORS[l2])
        return StateVector((a, b, c, d), amps)


def bell_expand(
    s: StateVector, pairing: tuple[tuple[str, str], tuple[str, str]]
) -> BellExpansion:
    """Expand a 4-qubit state over the Bell bases of two disjoint pairs."""
    if s.n_qubits != 4:
        raise InvalidRegisterError("bell_expand requires exactly 4 qubits")
    (a, b), (c, d) = pairing
    quartet = [a, b, c, d]
    if sorted(quartet) != sorted(s.qubit_ids):
        raise InvalidRegisterError("pairing is not a partition of the register")
    t = np.transpose(s.tensor_view(), [s.axis(q) for q in quartet])
    coeffs: dict[tuple[BellLabel, BellLabel], complex] = {}
    total = 0.0
    for l1 in BellLabel:
        b1 = BELL_VECTORS[l1].reshape(2, 2).conj()
        for l2 in BellLabel:
            b2 = BELL_VECTORS[l2].reshape(2, 2).conj()
            c_val = complex(np.einsum("ab,cd,abcd->", b1, b2, t))
            coeffs[(l1, l2)] = c_val
            total += abs(c_val) ** 2
    if abs(total - 1.0) > ATOL:
        raise InvalidRegisterError(f"expansion norm {total} is not 1")
    return BellExpansion(((a, b), (c, d)), coeffs)


def fidelity(s: StateVector, target: StateVector) -> float:
    """|<target|s>|^2; insensitive to global phase of either argument."""
    if set(s.qubit_ids) != set(target.qubit_ids):
        raise InvalidRegisterError("registers do not match")
    t = np.transpose(
        target.tensor_view(), [target.axis(q) for q in s.qubit_ids]
    ).reshape(-1)
    return float(abs(np.vdot(t, s.amplitudes)) ** 2)


def label_of(s: StateVector, tol: float = ATOL) -> BellLabel | None:
    """Bell label of a 2-qubit state, up to global phase; None if not a Bell state."""
    if s.n_qubits != 2:
        raise InvalidRegisterError("label_of requires a 2-qubit state")
    for lab in BellLabel:
        if abs(np.vdot(BELL_VECTORS[lab], s.amplitudes)) ** 2 > 1.0 - tol:
            return lab
    return None


# ---------------------------------------------------------------------------
# Label algebra derived from the engine itself.
#
# These tables are computed by simulation (not typed in by hand) so that the
# protocol layer's decoding and the reference decode table can cross-check
# each other.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def swapped_home_label(
    label_a: BellLabel, label_b: BellLabel, announced: BellLabel
) -> BellLabel:
    """Home-pair label implied by Bell-measuring the travel halves.

    Two pairs (a_home, a_travel) and (b_home, b_travel) in ``label_a`` and
    ``label_b``; measuring (a_travel, b_travel) with outcome ``announced``
    leaves (a_home, b_home) in the returned label.  The map announced -> home
    is a bijection for every input product.
    """
    product = tensor(make_bell(label_a, "ah", "at"), make_bell(label_b, "bh", "bt"))
    exp = bell_expand(product, (("ah", "bh"), ("at", "bt")))
    for (home, travel), coeff in exp.coeffs.items():
        if travel is announced and abs(coeff) > 1e-9:
            return home
    raise QuantumError(
        f"no home label for {label_a}x{label_b} given {announced}"
    )  # pragma: no cover - the expansion always covers all four outcomes


@lru_cache(maxsize=None)
def pauli_frame(label: BellLabel, p: PauliLabel, side: int = 0) -> BellLabel:
    """Bell label after applying ``p`` to one qubit (side 0=first, 1=second)."""
    s = make_bell(label, "q0", "q1")
    s = apply_pauli(s, "q1" if side else "q0", p)
    out = label_of(s)
    if out is None:  # pragma: no cover - Pauli action is closed on Bell labels
        raise QuantumError("Pauli action left the Bell manifold")
    return out


@lru_cache(maxsize=None)
def frame_correction(start: BellLabel, end: BellLabel, side: int = 0) -> PauliLabel:
    """The unique Pauli mapping ``start`` to ``end`` on the given side."""
    for p in PauliLabel:
        if pauli_frame(start, p, side) is end:
            return p
    raise QuantumError(
        f"no Pauli maps {start} to {end}"
    )  # pragma: no cover - the frame action is transitive


# ---------------------------------------------------------------------------
# Arena: a session's registers as rows of per-width tables, and rounds over it.
# ---------------------------------------------------------------------------

# Round op -> (measures?, names two target qubits per item?).
_ROUND_OPS = {
    "bell_measure": (True, True),
    "comp_measure": (True, False),
    "apply_pauli": (False, False),
    "apply_unitary": (False, False),
    "apply_cnot": (False, True),
}

# A register of width n holds 2**n amplitudes, so widths and axes stay far
# below _BASE, and one integer packs a qubit's location: (row * _BASE +
# width) * _BASE + axis, which is 0 for a measured qubit (width 0).
_BASE = 64
_ROW = _BASE * _BASE
_JOIN_KEY = np.array((2 * _ROW, 2))

# A round's stacks hold rows of many registers, so their qubits are named by
# position.
_SLOTS = tuple(f"q{i}" for i in range(_BASE))

_BELL_TABLE = np.array([BELL_VECTORS[lab] for lab in _BELL_ORDER])


def _resized(a: np.ndarray, cap: int) -> np.ndarray:
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


class _Table:
    """The registers of one width n: row r holds the amplitudes ``amps[r]``
    (length 2**n) over the qubits ``members[r]`` (store indices, in register
    order).  Rows are only appended, with capacity grown by doubling; a row
    that no qubit points at any more is dead."""

    __slots__ = ("amps", "members", "size")

    def __init__(self, n: int, cap: int) -> None:
        self.amps = np.empty((cap, 2**n), dtype=complex)
        self.members = np.empty((cap, n), dtype=np.intp)
        self.size = 0

    def extend(self, k: int) -> int:
        """Take k more rows; returns the first."""
        start = self.size
        self.size += k
        if self.size > len(self.amps):
            cap = max(self.size, 2 * len(self.amps))
            self.amps, self.members = _resized(self.amps, cap), _resized(self.members, cap)
        return start


@lru_cache(maxsize=None)
def _relocation(width: int, gone: tuple[int, ...]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Where the qubits of a width-``width`` register go when the axes
    ``gone`` are measured out and the rest move to a new row r: the kept
    axes, and ``(width,)`` arrays ``step`` and ``offset`` such that the
    qubits' locations become ``r * step + offset`` (0 for the measured)."""
    keep = [ax for ax in range(width) if ax not in gone]
    step = np.zeros(width, dtype=np.intp)
    offset = np.zeros(width, dtype=np.intp)
    for new, ax in enumerate(keep):
        step[ax] = _ROW
        offset[ax] = len(keep) * _BASE + new
    return keep, step, offset


class _Store:
    """The registers of every arena on it: the tables by width (``_Table``),
    one packed location per qubit (``loc``, see ``_BASE``; 0 means measured)
    and each qubit's name (``names``).  Qubit indices are store-wide, so one
    index array reaches the qubits of all its arenas."""

    __slots__ = ("names", "loc", "tables")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.loc = np.zeros(64, dtype=np.intp)
        self.tables: dict[int, _Table] = {}

    def assign(self, names: list[str]) -> range:
        """Indices for the new qubits ``names``, which start measured (0)."""
        start = len(self.names)
        self.names += names
        if len(self.names) > len(self.loc):
            grow = max(len(self.names), 2 * len(self.loc)) - len(self.loc)
            self.loc = np.concatenate([self.loc, np.zeros(grow, dtype=np.intp)])
        return range(start, len(self.names))

    def append(self, amps: np.ndarray | None, members: np.ndarray, gone: tuple = ()) -> None:
        """Put k registers in new rows of the table of their width, and
        relocate their qubits.  ``members`` (shape (k, n)) are store indices
        in register order; the registers are ``amps`` (k, 2**m) over the
        qubits left when the axes ``gone`` are taken out, which move to 0
        (measured).  ``amps`` is None when every axis is gone."""
        keep, step, offset = _relocation(members.shape[1], gone)
        if amps is None:
            self.loc.put(members, 0)
            return
        n = len(keep)
        table = self.tables.get(n)
        if table is None:
            table = self.tables[n] = _Table(n, max(32, 2 * len(amps)))
        start = table.extend(len(amps))
        table.amps[start:table.size] = amps
        table.members[start:table.size] = members[:, keep]
        self.loc.put(members, np.multiply.outer(np.arange(start, table.size), step) + offset)


def run_round(
    op: str, requests: Sequence[tuple["QubitArena", Sequence, np.random.Generator | None]]
) -> list[list]:
    """One round of ``op`` over the items of any number of arenas on one store.

    ``op`` names an arena operation (``bell_measure``, ``comp_measure``,
    ``apply_pauli``, ``apply_unitary``, ``apply_cnot``).  Request r is
    ``(arena, items, rng)`` with the items that operation takes and, for a
    measurement, the ``rng`` to draw from (None for a gate); every arena must
    be on the store of the first, or ``QuantumError`` is raised.  It gets
    back the list of what ``arena.<op>`` called on each item in order would
    return, and its arena and ``rng`` end as after those calls: a measuring
    request draws one uniform per item up front, item i taking the i-th,
    which is the draw the scalar op would make.

    The items run in dependency waves (``_plan_waves``), wave w of every
    request together, so no register appears twice in a wave and each sees
    its items in call order.  A wave's items are grouped by register widths,
    target axes and parameter, and each group is one engine call
    (``_group_call``) on its rows, a group of one item included.  Qubit
    indices are store-wide, so a round reads its targets' locations with one
    index array, a later wave re-reads them with another, and a group
    gathers and scatters the rows of all its arenas at once.
    """
    if not requests:
        return []
    store = requests[0][0]._store
    measuring, joining = _ROUND_OPS[op]
    gates = op in ("apply_pauli", "apply_unitary")
    names, indices, params, counts = [], [], [], []
    for arena, items, _ in requests:
        if arena._store is not store:
            raise QuantumError("the arenas of one round must share one store")
        if gates:
            qs, ps = zip(*items) if items else ((), ())
            params += ps
        else:
            qs = list(chain.from_iterable(items)) if joining else items
        try:
            indices += map(arena._index.__getitem__, qs)
        except KeyError as missing:
            raise UnknownQubitError(f"qubit {missing.args[0]!r} not in arena") from None
        names.append(qs)
        counts.append(len(items))
    if not indices:
        return [[] for _ in requests]

    # item i: its target qubits' store indices qidx[i] and locations loc[i]
    # (two for a joining op); a location // _BASE tells its register apart
    qidx = np.array(indices)
    loc = store.loc.take(qidx)
    if not loc.all():
        raise UnknownQubitError(f"qubit {store.names[indices[int(loc.argmin())]]!r} not in arena")
    if joining:
        qidx, loc = qidx.reshape(-1, 2), loc.reshape(-1, 2)
    waves = _plan_waves(loc // _BASE, joining)
    if measuring and waves[0] is not None:
        _reject_repeats(qidx, store.names)
    uniforms = outcomes = None
    if measuring:
        uniforms = _stacked([rng.random(c) for (_, _, rng), c in zip(requests, counts)])
    kinds = 1
    if params:  # parameters are told apart by identity
        codes = {id(p): None for p in params}
        kinds = len(codes)
        if kinds > 1:
            codes = dict(zip(codes, range(kinds)))
            pcode = np.fromiter(map(codes.__getitem__, map(id, params)), np.intp, len(params))

    for wave in waves:  # a wave or a group of None is every item
        wloc = loc if wave is None else store.loc.take(qidx[wave])  # earlier waves moved some
        if joining:  # (width, axis) of both targets, and whether they lie in two registers
            wreg = wloc // _BASE
            key = (wloc % _ROW) @ _JOIN_KEY + (wreg[:, 0] != wreg[:, 1])
        else:
            key = wloc % _ROW
            if kinds > 1:
                key = key * kinds + (pcode if wave is None else pcode[wave])
        if key.min() == key.max():
            groups = [None]
        else:
            order = np.argsort(key, kind="stable")
            ordered = key[order]
            groups = np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1)
        for g in groups:
            items = wave if g is None else g if wave is None else wave[g]
            result = _group_call(
                op, store, wloc if g is None else wloc[g],
                uniforms if items is None or uniforms is None else uniforms[items],
                params[0 if items is None else items[0]] if params else None,
            )
            if not measuring:
                continue
            if items is None:
                outcomes = result
            else:
                if outcomes is None:
                    outcomes = np.empty(len(loc), dtype=object)
                outcomes[items] = result

    if not measuring:
        return [[None] * c for c in counts]
    for (arena, _, _), qs in zip(requests, names):
        holders = arena._holders
        for q in qs:
            del holders[q]
    if not isinstance(outcomes, list):
        outcomes = outcomes.tolist()
    offsets = [0, *accumulate(counts)]
    return [outcomes[s:e] for s, e in zip(offsets, offsets[1:])]


def _group_call(op, store, gloc, uniforms, param):
    """One group of a wave: gather its rows from ``store``, make one engine
    call on them and scatter the result back; returns a measurement's outcomes.

    The group's target locations are ``gloc``.  A gate on one register
    writes its rows back in place; a measurement or a join moves each
    surviving register to a new row of the table of its new width.
    """
    rows = gloc // _ROW
    if gloc.ndim == 2:
        a, b = gloc[0].tolist()
        rows_a, rows_b = rows[:, 0], rows[:, 1]
        cross = a // _BASE != b // _BASE
        wb, xb = b // _BASE % _BASE, b % _BASE
    else:
        a, rows_a, xb, cross = int(gloc[0]), rows, 0, False
    wa, xa = a // _BASE % _BASE, a % _BASE
    table = store.tables[wa]
    joint = _trusted(_SLOTS[:wa], table.amps.take(rows_a, 0))
    if cross:
        table_b = store.tables[wb]
        joint = tensor(joint, _trusted(_SLOTS[wa:wa + wb], table_b.amps.take(rows_b, 0)))
        xb += wa
    outcomes, out = _engine_call(op, joint, _SLOTS[xa], _SLOTS[xb], uniforms, param)
    out = None if out is None else out.amplitudes
    if not (cross or op in ("bell_measure", "comp_measure")):
        table.amps[rows_a] = out  # a gate on one register: its rows in place
        return None
    members = table.members.take(rows_a, 0)
    if cross:
        members = np.concatenate([members, table_b.members.take(rows_b, 0)], axis=1)
    gone = (xa, xb) if op == "bell_measure" else (xa,) if op == "comp_measure" else ()
    store.append(out, members, gone)
    return outcomes


def _engine_call(op, state, ta, tb, uniforms, param):
    """The engine function of ``op`` on a register or a stack, as (outcome,
    surviving state); looked up when called, so a tracer's wrappers see it."""
    if op == "bell_measure":
        return bell_measure(state, ta, tb, uniforms)
    if op == "comp_measure":
        return comp_measure(state, ta, uniforms)
    if op == "apply_cnot":
        return None, apply_cnot(state, ta, tb)
    if op == "apply_pauli":
        return None, apply_pauli(state, ta, param)
    return None, apply_unitary1q(state, ta, param)


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _plan_waves(keys: np.ndarray, joining: bool) -> list[np.ndarray]:
    """Dependency waves of a round's items from their register keys (shape
    ``(n,)``, or ``(n, 2)`` for a joining op): ``[None]``, one wave of every
    item, when no register appears in two items.  Else a single-register
    item's wave is its occurrence rank on its register, and joining items
    fall back to ``_join_waves``."""
    if joining:
        a, b = keys[:, 0].tolist(), keys[:, 1].tolist()
        if len(set(a).union(b)) == len(a) + len(b) - sum(map(int.__eq__, a, b)):
            return [None]
        return _join_waves(zip(a, b))
    if len(set(keys.tolist())) == len(keys):
        return [None]
    order = np.argsort(keys, kind="stable")  # rank of each item on its register
    ordered = keys[order]
    pos = np.arange(len(keys))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty_like(pos)
    rank[order] = pos - np.maximum.accumulate(np.where(first, pos, 0))
    return [np.flatnonzero(rank == w) for w in range(int(rank.max()) + 1)]


def _join_waves(keys) -> list[np.ndarray]:
    """Waves of joining items, in call order, from the register keys of
    their two targets: an item runs one wave after the last earlier item
    that touched either of its registers, and the registers an item acts on
    together count as one from then on (a measurement never splits a
    register).  Sessions need it for two rounds: the entangle interceptor's
    ``apply_cnot`` (a leg carries both halves of its whole decoys; 2 waves)
    and the node's ``bell_measure`` after a ``disturb:mode=reorder`` leg
    (2-6 waves; on stage 2 at any threshold, on stage 1 once sessions pass it)."""
    joined: dict[int, int] = {}  # register key -> key it was joined into
    last: dict[int, int] = {}  # register key -> wave of its last item
    waves: list[list[int]] = []
    for i, item in enumerate(keys):
        wave, root = 0, None
        for key in item:
            while key in joined:
                key = joined[key]
            seen = last.get(key)
            if seen is not None and seen >= wave:
                wave = seen + 1
            if root is None:
                root = key
            elif key != root:
                joined[key] = root
        last[root] = wave
        if wave == len(waves):
            waves.append([])
        waves[wave].append(i)
    return [np.array(wave) for wave in waves]


def _reject_repeats(qidx: np.ndarray, names: list[str]) -> None:
    """Raise when a measuring round names one qubit in two items; ``qidx``
    holds the items' target store indices, one or two per item."""
    if qidx.ndim == 2:
        qidx = np.concatenate([qidx[:, 0], qidx[:, 1][qidx[:, 1] != qidx[:, 0]]])
    ordered = np.sort(qidx)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(twice):
        raise UnknownQubitError(f"qubit {names[int(twice[0])]!r} is measured twice in one round")


def engine_round(arena: "QubitArena", op: str, items: list, rng: np.random.Generator | None = None):
    """Yield one ``op`` round on ``arena`` as the request ``(arena, op, items,
    rng)``; return the results sent back (none for a round without items)."""
    if not items:
        return []
    return (yield arena, op, items, rng)


class QubitArena:
    """Registry of disjoint registers with merge-on-demand and holder tracking.

    A protocol session owns one arena.  Registers are merged lazily when an
    operation spans two of them; measured qubits disappear.  Every qubit id
    is held by exactly one actor at a time; re-registering an id or failing
    a transfer expectation raises immediately.

    Storage: an arena is a view of a ``_Store``, its own one, or with
    ``QubitArena(share)`` the store of ``share``, so that one round can reach
    the qubits of every arena on it with one index array.  A qubit gets a
    store index when the arena first registers its name; the name index
    ``_index`` and the holders ``_holders`` (whose keys are the live qubits)
    are the arena's own, so arenas on one store may use the same names and
    never see each other's qubits.  New registers, of ``add_registers`` or
    a round, are new rows, written at once.  ``state_of`` returns a copy of
    a row, so a state it hands out, or one passed to ``add_state``, never
    changes when the arena does.

    A whole round of one op, over this arena or several on its store, is
    ``run_round``: it leaves each arena, the results and the random stream
    exactly as the scalar method called on each item in order would.
    Sessions reach the engine only through rounds; no session calls the
    scalar op methods, which are the reference for the differential tests
    and the tracer.  Each scalar op works on one materialized register and
    writes it back (``_write``).
    """

    def __init__(self, share: "QubitArena | None" = None) -> None:
        self._store = _Store() if share is None else share._store
        self._index: dict[str, int] = {}
        self._holders: dict[str, str] = {}

    def _register(self, names: Sequence[str]) -> list[int]:
        """Store indices of ``names``, assigning new ones; none may be live."""
        index = self._index
        if not self._holders.keys().isdisjoint(names):
            live = next(q for q in names if q in self._holders)
            raise InvalidRegisterError(f"qubit {live!r} already registered")
        new = [q for q in names if q not in index]
        index.update(zip(new, self._store.assign(new)))
        return list(map(index.__getitem__, names))

    def _add(self, names: list[str], amps: np.ndarray, holder: str) -> None:
        """Register ``names``, in order, as ``len(amps)`` checked registers of
        one width with the amplitude rows ``amps``, held by ``holder``."""
        self._store.append(amps, np.array(self._register(names)).reshape(len(amps), -1))
        self._holders.update(dict.fromkeys(names, holder))

    def add_registers(
        self, registers: Sequence[Sequence[str]], amps: np.ndarray, holder: str
    ) -> None:
        """Register k registers of one width n, register i over the qubits
        ``registers[i]`` with the amplitudes ``amps[i]`` (shape ``(k, 2**n)``),
        with one check and one table write."""
        if not len(registers):
            return
        widths, names = set(map(len, registers)), list(chain.from_iterable(registers))
        if len(widths) > 1 or len(amps) != len(registers):
            raise InvalidRegisterError(f"{len(amps)} rows for registers of widths {widths}")
        if len(set(names)) != len(names):
            raise InvalidRegisterError("a qubit appears twice in the registers")
        self._add(names, StateVector.stack(_SLOTS[: widths.pop()], amps).amplitudes, holder)

    def add_bell_pairs(
        self, codes: Sequence[int], firsts: Sequence[str], seconds: Sequence[str], holder: str
    ) -> None:
        """Register pair i over (``firsts[i]``, ``seconds[i]``) in the Bell
        state of code ``codes[i]`` (its ``BellLabel.code``), as ``add_state``
        of ``make_bell`` would, with one write of rows of the Bell table."""
        if not len(codes):
            return
        names = list(chain.from_iterable(zip(firsts, seconds)))
        if len(set(names)) != len(names):
            same = next(((a, b) for a, b in zip(firsts, seconds) if a == b), None)
            raise InvalidRegisterError(
                f"duplicate qubit ids in register: {same}" if same else
                "a qubit appears in two pairs"
            )
        self._add(names, _BELL_TABLE.take(codes, 0), holder)

    def add_state(self, state: StateVector, holder: str) -> None:
        """Register ``state`` as one register."""
        self.add_registers([state.qubit_ids], state.amplitudes[None], holder)

    def has(self, qubit_id: str) -> bool:
        return qubit_id in self._holders

    def state_of(self, qubit_id: str) -> StateVector:
        """A copy of the register holding ``qubit_id``."""
        if qubit_id not in self._holders:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena")
        store = self._store
        row, n = divmod(int(store.loc[self._index[qubit_id]]) // _BASE, _BASE)
        table = store.tables[n]
        ids = tuple(map(store.names.__getitem__, table.members[row].tolist()))
        return _trusted(ids, table.amps[row].copy())

    def holder_of(self, qubit_id: str) -> str:
        if qubit_id not in self._holders:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena")
        return self._holders[qubit_id]

    def transfer(self, qubit_id: str, to: str, expect: str | None = None) -> None:
        self.transfer_many((qubit_id,), to, expect)

    def transfer_many(self, qubit_ids: Sequence[str], to: str, expect: str | None = None) -> None:
        """Hand every qubit of ``qubit_ids`` to ``to``, all or nothing: the
        first that is not live, or not held by ``expect`` when given, raises
        as ``transfer`` would, and then no qubit has moved."""
        holders = self._holders
        current = list(map(holders.get, qubit_ids))
        if None in current or expect is not None and current.count(expect) < len(current):
            q = next(q for q, h in zip(qubit_ids, current) if h is None or expect not in (None, h))
            held = self.holder_of(q)  # an unknown qubit raises here
            raise InvalidRegisterError(f"qubit {q!r} held by {held!r}, expected {expect!r}")
        holders.update(dict.fromkeys(qubit_ids, to))

    def _write(self, state: StateVector) -> None:
        """Write ``state`` back over its qubits' registers, as a new row."""
        members = np.array([list(map(self._index.__getitem__, state.qubit_ids))])
        self._store.append(state.amplitudes[None], members)

    def _settle(self, measured: tuple[str, ...], rest: StateVector | None) -> None:
        """Drop the measured qubits and write back what is left of their register."""
        for q in measured:
            self._store.loc[self._index[q]] = 0
            del self._holders[q]
        if rest is not None:
            self._write(rest)

    def _joint(self, q_a: str, q_b: str) -> StateVector:
        state = self.state_of(q_a)
        if q_b in state.qubit_ids:
            return state
        return tensor(state, self.state_of(q_b))

    def apply_pauli(self, qubit_id: str, p: PauliLabel) -> None:
        self._write(apply_pauli(self.state_of(qubit_id), qubit_id, p))

    def apply_unitary(self, qubit_id: str, u: np.ndarray) -> None:
        self._write(apply_unitary1q(self.state_of(qubit_id), qubit_id, u))

    def apply_cnot(self, control: str, target: str) -> None:
        self._write(apply_cnot(self._joint(control, target), control, target))

    def bell_measure(self, q_a: str, q_b: str, rng: np.random.Generator) -> BellLabel:
        label, rest = bell_measure(self._joint(q_a, q_b), q_a, q_b, rng)
        self._settle((q_a, q_b), rest)
        return label

    def comp_measure(self, qubit_id: str, rng: np.random.Generator) -> int:
        bit, rest = comp_measure(self.state_of(qubit_id), qubit_id, rng)
        self._settle((qubit_id,), rest)
        return bit
