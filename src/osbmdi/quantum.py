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
``ids`` of a template register (the arena uses the first row's).  Every free
gate and measurement below also takes a stack and acts on it row by row, so
row i of the result is the single-register result for row i.  A single
register draws its outcome from a ``Generator`` (or takes that draw as a
pre-drawn uniform ``float``); a stack instead takes one pre-drawn uniform per
row, and row i samples with that uniform exactly as the single-register form
samples with its one ``rng.random()`` draw.  Because ``rng.random(k)`` yields
the same doubles as k scalar draws, a round of k measurements can draw its
uniforms once and keep the random stream unchanged.

Bell-label convention: psi+/- live on |00> +/- |11>, phi+/- on |01> +/- |10>.
Note this is swapped relative to the more common psi/phi usage; the whole
package follows this labeling.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
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

# Read-only copies that freshly prepared arena pairs share.
_BELL_ROWS = {lab: v.copy() for lab, v in BELL_VECTORS.items()}
for _row in _BELL_ROWS.values():
    _row.flags.writeable = False


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
    s: StateVector, q_a: str, q_b: str, rng: np.random.Generator | float | np.ndarray
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
    s: StateVector, qubit_id: str, rng: np.random.Generator | float | np.ndarray
) -> tuple[int, StateVector | None]:
    """Destructive computational-basis measurement of one qubit.  A stack
    takes an array of row uniforms for ``rng`` and returns a list of bits."""
    rows = _to_front(s, (s.axis(qubit_id),))
    if rows.ndim == 3:
        return _comp_measure_rows(s, qubit_id, rows, rng)
    p1 = np.vdot(rows[1], rows[1]).real
    u = rng if isinstance(rng, float) else rng.random()  # pre-drawn, or drawn now
    bit = 1 if u < p1 else 0
    p = p1 if bit else 1.0 - p1
    remaining = tuple(q for q in s.qubit_ids if q != qubit_id)
    if not remaining:
        return bit, None
    return bit, StateVector(remaining, rows[bit] / np.sqrt(p))


def _sample_index(probs: np.ndarray, rng: np.random.Generator | float) -> int:
    total = probs.sum()
    r = (rng if isinstance(rng, float) else rng.random()) * total
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


# A stacked engine call costs more than a scalar one and pays only once its
# stack is several rows tall (from 3-8 rows, depending on the op): a round's
# group with fewer rows runs the scalar op on each of its items.
_MIN_ROWS = 8


def _gate_targets(items):
    return [(q,) for q, _ in items], [p for _, p in items]


# Round op -> (measures?, items -> (target qubits, parameters or None), engine
# call on a joint register: (stack or register, target names, parameter,
# uniforms or uniform) -> (outcomes, surviving register)).  The calls look the
# engine functions up when they run.
_ROUND_OPS = {
    "bell_measure": (
        True, lambda items: (items, None), lambda s, names, _, u: bell_measure(s, *names, u),
    ),
    "comp_measure": (
        True, lambda items: ([(q,) for q in items], None),
        lambda s, names, _, u: comp_measure(s, names[0], u),
    ),
    "apply_pauli": (
        False, _gate_targets, lambda s, names, p, _: (None, apply_pauli(s, names[0], p)),
    ),
    "apply_unitary": (
        False, _gate_targets, lambda s, names, u, _: (None, apply_unitary1q(s, names[0], u)),
    ),
    "apply_cnot": (
        False, lambda items: (items, None), lambda s, names, _, __: (None, apply_cnot(s, *names)),
    ),
}


def run_round(
    op: str, requests: Sequence[tuple["QubitArena", Sequence, np.random.Generator | None]]
) -> list[list]:
    """One round of ``op`` over the items of any number of arenas at once.

    ``op`` names an arena operation (``bell_measure``, ``comp_measure``,
    ``apply_pauli``, ``apply_unitary``, ``apply_cnot``).  Request r is
    ``(arena, items, rng)`` with the items that operation takes and, for a
    measurement, the ``rng`` to draw from (None for a gate).  It gets back
    the list of what ``arena.<op>`` called on each item in order would
    return, and its arena and ``rng`` end as after those calls: a measuring
    request draws one uniform per item up front, item i taking the i-th,
    which is the draw the scalar op would make.

    Each arena splits its items into dependency waves (see
    ``QubitArena._waves``), and wave w of every request runs together.  The
    items of a wave are grouped by register widths, target axes and
    parameter.  A group of ``_MIN_ROWS`` or more rows is one stack (the
    tensor of two stacks when the targets lie in two registers) and one
    engine call; a smaller group makes one scalar call per item.
    """
    measuring, targets_of, call = _ROUND_OPS[op]
    plans = [_Plan(arena, items, rng, targets_of, measuring) for arena, items, rng in requests]
    for w in range(max((len(plan.waves) for plan in plans), default=0)):
        groups: dict[tuple, list] = {}
        for plan in plans:
            if w >= len(plan.waves):
                continue
            registers, targets, params = plan.registers, plan.targets, plan.params
            for i in plan.waves[w]:
                qubits = targets[i]
                first = registers[qubits[0]]
                ids = first.qubit_ids
                regs = (first,)
                if len(qubits) == 2:
                    second = registers[qubits[1]]
                    if second is not first:
                        regs = (first, second)
                        ids = ids + second.qubit_ids
                    axes = (ids.index(qubits[0]), ids.index(qubits[1]))
                else:
                    axes = (ids.index(qubits[0]),)
                key = (len(first.qubit_ids), len(ids), axes, params and id(params[i]))
                group = groups.get(key)
                if group is None:
                    groups[key] = group = []
                group.append((plan, i, regs, ids))
        for (_, width, axes, _), members in groups.items():
            if len(members) < _MIN_ROWS:
                for plan, i, regs, _ in members:
                    joint = regs[0] if len(regs) == 1 else tensor(*regs)
                    param = plan.params and plan.params[i]
                    u = plan.uniforms[i] if measuring else None
                    plan.settle(i, *call(joint, plan.targets[i], param, u))
                continue
            # rows of checked registers need no second check
            parts = [
                _trusted(reg.qubit_ids, np.array([m[2][j].amplitudes for m in members]))
                for j, reg in enumerate(members[0][2])
            ]
            joint = parts[0] if len(parts) == 1 else tensor(*parts)
            plan, i = members[0][:2]
            uniforms = np.array([m[0].uniforms[m[1]] for m in members]) if measuring else None
            outcomes, out = call(
                joint, tuple(joint.qubit_ids[a] for a in axes), plan.params and plan.params[i],
                uniforms,
            )
            rows = None if out is None else list(out.amplitudes)
            keep = [a for a in range(width) if a not in axes]
            for row, (plan, i, _, ids) in enumerate(members):
                new = None
                if rows is not None:
                    if measuring:
                        ids = tuple(map(ids.__getitem__, keep))
                    new = _trusted(ids, rows[row])
                plan.settle(i, outcomes and outcomes[row], new)
    return [plan.results for plan in plans]


def engine_round(arena: "QubitArena", op: str, items: list, rng: np.random.Generator | None = None):
    """Yield one ``op`` round on ``arena`` as the request ``(arena, op, items,
    rng)``; return the results sent back (none for a round without items)."""
    if not items:
        return []
    return (yield arena, op, items, rng)


class _Plan:
    """One request's part of a round: its items as target qubits and
    parameters, its waves, its pre-drawn uniforms and its results."""

    __slots__ = ("registers", "holders", "targets", "params", "waves", "uniforms", "results")

    def __init__(self, arena: "QubitArena", items, rng, targets_of, measuring: bool) -> None:
        self.registers, self.holders = arena._registers, arena._holders
        self.targets, self.params = targets_of(items)
        self.waves = arena._waves(self.targets, measuring)
        self.uniforms = rng.random(len(self.targets)) if measuring else None
        self.results: list = [None] * len(self.targets)

    def settle(self, i: int, outcome, new: StateVector | None) -> None:
        """Record item i's outcome and put its surviving register in the arena."""
        registers = self.registers
        if self.uniforms is not None:  # a measurement: the measured qubits are gone
            holders = self.holders
            for q in self.targets[i]:
                del registers[q], holders[q]
            self.results[i] = outcome
        if new is not None:
            for q in new.qubit_ids:
                registers[q] = new


class QubitArena:
    """Registry of disjoint registers with merge-on-demand and holder tracking.

    A protocol session owns one arena.  Registers are merged lazily when an
    operation spans two of them; measured qubits disappear.  Every qubit id
    is held by exactly one actor at a time; re-registering an id or failing
    a transfer expectation raises immediately.

    A whole round of one op, over this arena or several, is ``run_round``:
    it leaves each arena, the results and the random stream exactly as the
    scalar method called on each item in order would.  Sessions reach the
    engine only through rounds; no session calls the scalar op methods,
    which are the reference for the differential tests and the tracer.
    """

    def __init__(self) -> None:
        self._registers: dict[str, StateVector] = {}
        self._holders: dict[str, str] = {}

    def add_bell_pairs(
        self, pairs: Sequence[tuple[BellLabel, str, str]], holder: str
    ) -> None:
        """Register one Bell pair per (label, q1, q2), as ``add_state`` of
        ``make_bell`` would; pairs of one label share a read-only row."""
        registers, holders = self._registers, self._holders
        for label, q1, q2 in pairs:
            if q1 == q2:
                raise InvalidRegisterError(f"duplicate qubit ids in register: {(q1, q2)}")
            for q in (q1, q2):
                if q in registers:
                    raise InvalidRegisterError(f"qubit {q!r} already registered")
            registers[q1] = registers[q2] = _trusted((q1, q2), _BELL_ROWS[label])
            holders[q1] = holders[q2] = holder

    def add_state(self, state: StateVector, holder: str) -> None:
        for q in state.qubit_ids:
            if q in self._registers:
                raise InvalidRegisterError(f"qubit {q!r} already registered")
        for q in state.qubit_ids:
            self._registers[q] = state
            self._holders[q] = holder

    def has(self, qubit_id: str) -> bool:
        return qubit_id in self._registers

    def state_of(self, qubit_id: str) -> StateVector:
        try:
            return self._registers[qubit_id]
        except KeyError:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena") from None

    def holder_of(self, qubit_id: str) -> str:
        if qubit_id not in self._holders:
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena")
        return self._holders[qubit_id]

    def transfer(self, qubit_id: str, to: str, expect: str | None = None) -> None:
        current = self.holder_of(qubit_id)
        if expect is not None and current != expect:
            raise InvalidRegisterError(
                f"qubit {qubit_id!r} held by {current!r}, expected {expect!r}"
            )
        self._holders[qubit_id] = to

    def _swap_register(self, old: StateVector, new: StateVector | None) -> None:
        for q in old.qubit_ids:
            del self._registers[q]
        if new is not None:
            for q in new.qubit_ids:
                self._registers[q] = new

    def _joint(self, *qubit_ids: str) -> StateVector:
        state = self.state_of(qubit_ids[0])
        for q in qubit_ids[1:]:
            other = self.state_of(q)
            if other is not state:
                merged = tensor(state, other)
                self._swap_register(state, None)
                self._swap_register(other, None)
                for qq in merged.qubit_ids:
                    self._registers[qq] = merged
                state = merged
        return state

    def apply_pauli(self, qubit_id: str, p: PauliLabel) -> None:
        old = self.state_of(qubit_id)
        self._swap_register(old, apply_pauli(old, qubit_id, p))

    def apply_unitary(self, qubit_id: str, u: np.ndarray) -> None:
        old = self.state_of(qubit_id)
        self._swap_register(old, apply_unitary1q(old, qubit_id, u))

    def apply_cnot(self, control: str, target: str) -> None:
        joint = self._joint(control, target)
        self._swap_register(joint, apply_cnot(joint, control, target))

    def bell_measure(self, q_a: str, q_b: str, rng: np.random.Generator) -> BellLabel:
        joint = self._joint(q_a, q_b)
        label, rest = bell_measure(joint, q_a, q_b, rng)
        self._swap_register(joint, rest)
        for q in (q_a, q_b):
            del self._holders[q]
        return label

    def comp_measure(self, qubit_id: str, rng: np.random.Generator) -> int:
        state = self.state_of(qubit_id)
        bit, rest = comp_measure(state, qubit_id, rng)
        self._swap_register(state, rest)
        del self._holders[qubit_id]
        return bit

    def _waves(self, targets, measuring: bool) -> list[list[int]]:
        """Split items into dependency waves, in call order.

        An item runs one wave after the last earlier item that touched any of
        its registers; registers an item acts on together count as one from
        then on (a measurement never splits a register).  So no register
        appears twice in a wave and each register sees its items in order.
        """
        registers = self._registers
        joined: dict[int, int] = {}  # register key -> key it was joined into
        last: dict[int, int] = {}  # register key -> wave of its last item
        gone: set[str] = set()
        waves: list[list[int]] = []
        for i, qubits in enumerate(targets):
            if measuring:
                if not gone.isdisjoint(qubits):
                    raise UnknownQubitError(f"qubits {qubits} were measured earlier in the round")
                gone.update(qubits)
            wave = 0
            root = None
            for q in qubits:
                try:
                    key = id(registers[q])
                except KeyError:
                    raise UnknownQubitError(f"qubit {q!r} not in arena") from None
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
        return waves
