"""Exact pure-state engine for small registers of qubits.

Amplitude ordering is lexicographic over the register's qubit order, with
the first qubit as the most significant bit and bit 0 meaning |0>.  That
convention is stated here once and relied on everywhere else.

Operations never mutate their inputs: every gate and measurement returns a
new state, so values can be shared freely.  Measurements are destructive —
the measured qubits are removed from the returned register and survive only
as the classical record.

Kernel convention: kernels are elementwise over a stack's rows; no gate is a
matrix product.  A 1-qubit gate views each row as ``(2**a, 2, rest)`` around
its qubit's axis a and writes the two halves as two multiply-adds of the old
ones; CNOT gathers each row through an index permutation.  A measurement first
gathers its qubits to the front: entry ``[c, f]`` is the column, over the
stack's rows, of the amplitude whose measured qubits spell f (in the order
given, first most significant) and whose other qubits spell c (in register
order), so a projected column block is already the surviving register.  The
Bell projection is sums and differences of the four front slices.  Every sum
runs in a fixed order, so a row's bits do not depend on the stack's height: a
stack's rows equal, bit for bit, the same rows run alone.

Stacks are the kernel form: ``StateVector.stack(ids, amps)`` holds k
registers of one layout, one state per row of ``amps`` (shape ``(k, 2**n)``),
named by the ``ids`` of a template register.  Every free gate and measurement
computes on that form; a single register goes through as a stack of one row
and comes back as a single register.  A stack's measurement takes one
pre-drawn uniform per row and returns its outcomes as an array of codes; a
single register's takes a ``Generator``, draws its one ``rng.random()`` after
the qubit checks, and returns a ``BellLabel`` or a bit.  ``rng.random(k)``
yields the same doubles as k scalar draws, so a round's draws keep the stream
unchanged.

Bell-label convention: psi+/- live on |00> +/- |11>, phi+/- on |01> +/- |10>.
Note this is swapped relative to the more common psi/phi usage; the whole
package follows this labeling.

Arena storage: a ``QubitArena`` holds every qubit of a cohort of sessions
(the parties' Bell pairs, the node's measurements and Eve's ancillas) as rows
of one table per width (amplitudes beside member qubits), and per qubit a
packed location (0 once measured) and a holder code.  Qubits are arena
indices, unnamed but by ``add_state``: registration returns them, a round
(``run_round``) takes an index array on one arena and returns outcome codes,
and ``register`` reads one back.  A round splits its items into dependency
waves and makes one engine call per group of a wave with one layout,
gathering and scattering its rows with one index array.
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

    @property
    def code(self) -> int:
        """The label's index in ``BELL_LABELS`` (``add_bell_pairs`` takes codes)."""
        return BELL_LABELS.index(self)

    @classmethod
    def parse(cls, text: str) -> "BellLabel":
        for lab in cls:
            if lab.value == text:
                return lab
        raise ValueError(f"unknown Bell label {text!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


# The code table: a label's code is its index here.
BELL_LABELS = tuple(BellLabel)


class PauliLabel(enum.Enum):
    """Encoding operators.  iY is used instead of Y so all matrices are real."""

    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"

    @property
    def symbol(self) -> int:
        """Two-bit symbol as an int in 0..3, the label's position in
        ``tuple(PauliLabel)`` (msb first: I=0, X=1, iY=2, Z=3)."""
        return _PAULI_ORDER.index(self)

    @classmethod
    def parse(cls, text: str) -> "PauliLabel":
        for lab in cls:
            if lab.value == text:
                return lab
        raise ValueError(f"unknown Pauli label {text!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


# The symbol table: a label's symbol is its index here.
_PAULI_ORDER = tuple(PauliLabel)

# All four matrices are real: iY|0> = -|1>, iY|1> = |0>.
PAULI_MATRICES: dict[PauliLabel, np.ndarray] = {
    PauliLabel.I: np.array([[1, 0], [0, 1]], dtype=complex),
    PauliLabel.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLabel.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
    PauliLabel.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

# Row i is the matrix of the Pauli of symbol i.
_PAULI_STACK = np.array([PAULI_MATRICES[p] for p in _PAULI_ORDER])

BELL_VECTORS: dict[BellLabel, np.ndarray] = {
    BellLabel.PSI_PLUS: np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    BellLabel.PSI_MINUS: np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    BellLabel.PHI_PLUS: np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    BellLabel.PHI_MINUS: np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}
# Row i is |b_i> for the label of code i.
_BELL_TABLE = np.array([BELL_VECTORS[lab] for lab in BELL_LABELS])


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
        norm2 = np.einsum("ij,ij->i", parts, parts)
        if not abs(norm2 - 1.0).max() <= ATOL:  # also rejects a NaN norm
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


def make_bell(label: BellLabel, q_a: str, q_b: str) -> StateVector:
    """Two-qubit Bell state for ``label`` on the register (q_a, q_b)."""
    return StateVector((q_a, q_b), BELL_VECTORS[label].copy())


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; qubit id sets must be disjoint.  Two stacks of
    equal height give the row-wise products."""
    overlap = set(a.qubit_ids) & set(b.qubit_ids)
    if overlap:
        raise InvalidRegisterError(f"overlapping qubit ids: {sorted(overlap)}")
    shapes = a.amplitudes.shape, b.amplitudes.shape
    if shapes[0][:-1] != shapes[1][:-1]:  # two registers, or two stacks of one height
        raise InvalidRegisterError("cannot tensor stacks of shapes {} and {}".format(*shapes))
    x, y = _rows(a), _rows(b)
    rows = (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
    return _shaped(a, a.qubit_ids + b.qubit_ids, rows)


def _rows(s: StateVector) -> np.ndarray:
    """The kernel form of ``s``: a stack's ``(k, 2**n)`` rows, or a single
    register as one row."""
    return s.amplitudes.reshape(-1, 2**s.n_qubits)


def _shaped(s: StateVector, ids: tuple[str, ...], rows: np.ndarray) -> StateVector:
    """``rows`` over ``ids``, checked as a stack, in the form of ``s``: a
    stack, or for a single register its one row."""
    amps = StateVector.stack(ids, rows).amplitudes
    return _trusted(ids, amps.reshape(s.amplitudes.shape[:-1] + (-1,)))


@lru_cache(maxsize=1024)
def _front_index(n_qubits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Gather index that moves ``axes`` to the front (see the module docstring),
    as ``(rest, 2**len(axes))``."""
    rest = tuple(ax for ax in range(n_qubits) if ax not in axes)
    index = np.arange(2**n_qubits).reshape((2,) * n_qubits).transpose(rest + axes)
    index = index.reshape(-1, 2 ** len(axes))
    index.flags.writeable = False
    return index


def _to_front(s: StateVector, axes: tuple[int, ...]) -> np.ndarray:
    """The rows of ``s`` with ``axes`` moved to the front, as ``(rest,
    2**len(axes), k)``: each entry is a column over the stack's k rows."""
    return _rows(s).T[_front_index(s.n_qubits, axes)]


def _apply_1q(s: StateVector, axis: int, m: np.ndarray) -> StateVector:
    """``m`` (2x2, or one per row: (k, 2, 2)) on ``axis``, as two multiply-adds
    of the axis's halves."""
    x = _rows(s).reshape(-1, 2**axis, 2, 2 ** (s.n_qubits - 1 - axis))
    (a, b), (c, d) = m.transpose(1, 2, 0)[..., None, None] if m.ndim == 3 else m.tolist()
    out = np.empty_like(x)
    for o, p, q in ((out[:, :, 0], a, b), (out[:, :, 1], c, d)):
        np.multiply(p, x[:, :, 0], out=o)
        o += q * x[:, :, 1]
    return _shaped(s, s.qubit_ids, out.reshape(len(out), -1))


def apply_pauli(s: StateVector, qubit_id: str, p: PauliLabel | np.ndarray) -> StateVector:
    """Apply I, X, iY or Z to one qubit; a stack may take one per row, as
    an array of symbols (``PauliLabel.symbol``)."""
    matrix = PAULI_MATRICES[p] if isinstance(p, PauliLabel) else _PAULI_STACK[p]
    return _apply_1q(s, s.axis(qubit_id), matrix)


# np.allclose(u^dag u, I, atol=ATOL) with its default rtol=1e-5 applied to |I|.
_UNITARY_TOL = ATOL + 1e-5 * np.eye(2)
_IDENTITY2 = np.eye(2)


def _unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex array; raises unless it is a 2x2 unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise InvalidOperatorError(f"operator shape {u.shape} is not 2x2")
    if not (np.abs(u.conj().T @ u - _IDENTITY2) <= _UNITARY_TOL).all():
        raise InvalidOperatorError("operator is not unitary")
    return u


def apply_unitary1q(s: StateVector, qubit_id: str, u: np.ndarray) -> StateVector:
    """Apply an arbitrary 2x2 unitary to one qubit."""
    u = _unitary(u)  # before the qubit lookup: a bad matrix is reported first
    return _apply_1q(s, s.axis(qubit_id), u)


@lru_cache(maxsize=1024)
def _cnot_index(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of CNOT: i with the target bit flipped where the control bit is 1."""
    i = np.arange(2**n)
    index = i ^ ((i >> (n - 1 - control) & 1) << (n - 1 - target))
    index.flags.writeable = False
    return index


def apply_cnot(s: StateVector, control: str, target: str) -> StateVector:
    """Controlled-NOT in the computational basis."""
    if control == target:
        raise InvalidRegisterError("control and target must differ")
    index = _cnot_index(s.n_qubits, s.axis(control), s.axis(target))
    return _shaped(s, s.qubit_ids, _rows(s)[:, index])


def bell_measure(
    s: StateVector, q_a: str, q_b: str, rng: np.random.Generator | np.ndarray
) -> tuple[BellLabel, StateVector | None]:
    """Destructive Bell-basis measurement of the pair (q_a, q_b).

    Row i picks the first label whose running probability exceeds its
    uniform times the row's total; the measured qubits are removed from the
    returned register (None when the register is exhausted).  A single
    register draws its uniform from ``rng`` and gets back a ``BellLabel``; a
    stack takes an array of row uniforms for ``rng`` and gets back the array
    of label codes (positions in ``BELL_LABELS``).
    """
    if q_a == q_b:
        raise InvalidRegisterError("cannot Bell-measure a qubit against itself")
    f = _to_front(s, (s.axis(q_a), s.axis(q_b)))
    k, lo, hi = f.shape[2], f[:, :2], f[:, :1:-1]
    # <b_i| f in code order: (f0 + f3, f0 - f3, f1 + f2, f1 - f2) / sqrt(2)
    branches = np.empty((len(f), 2, 2, k), dtype=complex)
    np.add(lo, hi, out=branches[:, :, 0])
    np.subtract(lo, hi, out=branches[:, :, 1])
    parts = branches.view(np.float64)  # scaled as reals, without complex products
    parts *= _SQ2
    branches = branches.reshape(len(f), 4, k)
    sq = np.abs(branches) ** 2
    probs = _column_sum(sq)  # (4, k)
    cum = np.cumsum(probs, axis=0)  # running sums in code order
    r = _row_uniforms(rng, k) * cum[3]
    picks = np.minimum((cum <= r).sum(axis=0), 3)
    remaining = tuple(q for q in s.qubit_ids if q not in (q_a, q_b))
    rest = None
    if remaining:
        rows = np.arange(k)
        norm = np.sqrt(probs[picks, rows])
        rest = _shaped(s, remaining, (branches[:, picks, rows] / norm).T)
    return (BELL_LABELS[picks[0]] if isinstance(rng, np.random.Generator) else picks), rest


def comp_measure(
    s: StateVector, qubit_id: str, rng: np.random.Generator | np.ndarray
) -> tuple[int, StateVector | None]:
    """Destructive computational-basis measurement of one qubit: row i reads
    1 when its uniform is below its p1.  A single register draws its uniform
    from ``rng`` and gets back a bit; a stack takes an array of row uniforms
    for ``rng`` and gets back an array of bits."""
    f = _to_front(s, (s.axis(qubit_id),))
    ones = f[:, 1]
    sq = ones.real**2 + ones.imag**2
    p1 = _column_sum(sq)
    read = _row_uniforms(rng, len(p1)) < p1
    remaining = tuple(q for q in s.qubit_ids if q != qubit_id)
    rest = None
    if remaining:
        norm = np.sqrt(np.where(read, p1, 1.0 - p1))
        rest = _shaped(s, remaining, (np.where(read, ones, f[:, 0]) / norm).T)
    bits = read.astype(np.intp)
    return (int(bits[0]) if isinstance(rng, np.random.Generator) else bits), rest


def _column_sum(sq: np.ndarray) -> np.ndarray:
    """The sum over the front axis of ``sq`` (a power of two long), halving
    it elementwise: one fixed order whatever the stack's height, in log2 calls."""
    while len(sq) > 1:
        sq = sq[: len(sq) // 2] + sq[len(sq) // 2 :]
    return sq[0]


def _row_uniforms(rng: np.random.Generator | np.ndarray, k: int) -> np.ndarray:
    """The uniforms of k rows: a stack's array, or the one ``rng.random()``
    draw of a single register's generator."""
    single = isinstance(rng, np.random.Generator)
    u = np.array([rng.random()]) if single else np.asarray(rng, dtype=float)
    if u.shape != (k,):
        raise InvalidRegisterError(f"a stack of {k} rows needs {k} uniforms, got shape {u.shape}")
    return u


@dataclass(frozen=True)
class BellExpansion:
    """Coefficients of a 4-qubit state in a Bell (x) Bell product basis."""

    coeffs: dict[tuple[BellLabel, BellLabel], complex]

    def coeff(self, first: BellLabel, second: BellLabel) -> complex:
        return self.coeffs[(first, second)]

    def nonzero(self, tol: float = 1e-12) -> dict[tuple[BellLabel, BellLabel], complex]:
        return {k: c for k, c in self.coeffs.items() if abs(c) > tol}


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
    return BellExpansion(coeffs)


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
# Arena: a cohort's registers as rows of per-width tables, and rounds over it.
# ---------------------------------------------------------------------------

# Round op -> (measures?, two target qubits per item?).
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

_NO_OUTCOMES = np.empty(0, dtype=np.intp)  # of a measuring round without items


def _resized(a: np.ndarray, cap: int) -> np.ndarray:
    out = np.zeros((cap,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


class _Table:
    """The registers of one width n: row r holds the amplitudes ``amps[r]``
    (length 2**n) over the qubits ``members[r]`` (arena indices, in register
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


def run_round(op: str, arena: "QubitArena", qubits: np.ndarray, arg) -> np.ndarray | None:
    """One round of ``op`` over k items on ``arena``.

    ``op`` names an arena operation.  ``qubits`` holds the arena indices of
    the items' targets, shape ``(k,)``, or ``(k, 2)`` for ``bell_measure``
    and ``apply_cnot``; ``arg`` is a measurement's ``rng`` or its k
    uniforms, the k Pauli codes (``PauliLabel.symbol``) of ``apply_pauli``,
    the one matrix of every item of ``apply_unitary``, and None for
    ``apply_cnot``.  A measuring round returns its outcomes as an array of
    Bell label codes or bits, a gate round None; the arena and ``rng`` end,
    and the outcomes are, as after the items run one at a time in order.  A
    measuring round draws its k uniforms up front, item i taking the i-th.
    The matrix and the count of uniforms or Pauli symbols are checked before
    the first item runs, so a bad one raises before the arena changes.

    The items run in dependency waves (``_plan_waves``), so no register
    appears twice in a wave and each sees its items in order.  A wave's
    items are grouped by register widths and target axes, and each group is
    one engine call (``_group_call``) that gathers and scatters its rows; a
    group's items keep their own uniforms or Pauli symbols.
    """
    measuring, joining = _ROUND_OPS[op]
    if not len(qubits):
        return _NO_OUTCOMES if measuring else None

    # item i: its target qubits' indices qidx[i] and locations loc[i] (two
    # for a joining op); a location // _BASE tells its register apart
    qidx = np.asarray(qubits)
    loc = arena._loc.take(qidx)
    if not loc.all():
        missing = int(qidx.reshape(-1)[loc.argmin()])
        raise UnknownQubitError(f"qubit {arena._name(missing)!r} not in arena")
    if op == "apply_cnot" and np.any(qidx[:, 0] == qidx[:, 1]):
        raise InvalidRegisterError("control and target must differ")
    waves = _plan_waves(loc // _BASE, joining)
    if measuring and waves[0] is not None:
        _reject_repeats(qidx, arena)
    k = len(qidx)
    rowargs = outcomes = None  # per item: a measurement's uniform, or a Pauli's symbol
    if measuring:  # the rng draws the k uniforms here, or they are brought
        rowargs = arg.random(k) if isinstance(arg, np.random.Generator) else _row_uniforms(arg, k)
    elif op == "apply_pauli":
        rowargs = np.asarray(arg, np.intp)
        if rowargs.shape != (k,):
            raise InvalidRegisterError(
                f"a round of {k} items needs {k} Pauli symbols, got shape {rowargs.shape}"
            )
    param = _unitary(arg) if op == "apply_unitary" else None

    for wave in waves:  # a wave or a group of None is every item
        wloc = loc if wave is None else arena._loc.take(qidx[wave])  # earlier waves moved some
        if joining:  # (width, axis) of both targets, and whether they lie in two registers
            wreg = wloc // _BASE
            key = (wloc % _ROW) @ _JOIN_KEY + (wreg[:, 0] != wreg[:, 1])
        else:
            key = wloc % _ROW
        if key.min() == key.max():
            groups = [None]
        else:
            order = np.argsort(key, kind="stable")
            ordered = key[order]
            groups = np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1)
        for g in groups:
            items = wave if g is None else g if wave is None else wave[g]
            result = _group_call(
                op, arena, wloc if g is None else wloc[g],
                rowargs if items is None or rowargs is None else rowargs[items], param,
            )
            if not measuring:
                continue
            if items is None:
                outcomes = result
            else:
                if outcomes is None:
                    outcomes = np.empty(len(loc), dtype=np.intp)
                outcomes[items] = result

    return outcomes


def _group_call(op, arena, gloc, rowargs, param):
    """One group of a wave: gather its rows from ``arena``, make one engine
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
    table = arena._tables[wa]
    joint = _trusted(_SLOTS[:wa], table.amps.take(rows_a, 0))
    if cross:
        table_b = arena._tables[wb]
        joint = tensor(joint, _trusted(_SLOTS[wa:wa + wb], table_b.amps.take(rows_b, 0)))
        xb += wa
    outcomes, out = _engine_call(op, joint, _SLOTS[xa], _SLOTS[xb], rowargs, param)
    out = None if out is None else out.amplitudes
    if not (cross or op in ("bell_measure", "comp_measure")):
        table.amps[rows_a] = out  # a gate on one register: its rows in place
        return None
    members = table.members.take(rows_a, 0)
    if cross:
        members = np.concatenate([members, table_b.members.take(rows_b, 0)], axis=1)
    gone = (xa, xb) if op == "bell_measure" else (xa,) if op == "comp_measure" else ()
    arena._append(out, members, gone)
    return outcomes


def _engine_call(op, state, ta, tb, rowargs, param):
    """The engine function of ``op`` on a stack, as (outcomes, surviving
    state); looked up when called, so a tracer's wrappers see it."""
    if op == "bell_measure":
        return bell_measure(state, ta, tb, rowargs)
    if op == "comp_measure":
        return comp_measure(state, ta, rowargs)
    if op == "apply_cnot":
        return None, apply_cnot(state, ta, tb)
    if op == "apply_pauli":
        return None, apply_pauli(state, ta, rowargs)
    return None, apply_unitary1q(state, ta, param)


def _plan_waves(keys: np.ndarray, joining: bool) -> list[np.ndarray]:
    """Dependency waves of a round's items from their register keys (shape
    ``(n,)``, or ``(n, 2)`` for a joining op): ``[None]``, one wave of every
    item, when no register appears in two items.  Else a single-register
    item's wave is its occurrence rank on its register, and joining items
    fall back to ``_join_waves``."""
    if joining:  # an item's two targets may share a register
        a, b = keys[:, 0], keys[:, 1]
        touched = np.sort(np.concatenate([a, b[a != b]]))
        if not np.any(touched[1:] == touched[:-1]):
            return [None]
        return _join_waves(keys.tolist())
    order = np.argsort(keys, kind="stable")  # rank of each item on its register
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    if first.all():
        return [None]
    pos = np.arange(len(keys))
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


def _reject_repeats(qidx: np.ndarray, arena: "QubitArena") -> None:
    """Raise when a measuring round names one qubit in two items; ``qidx``
    holds the items' target indices, one or two per item."""
    if qidx.ndim == 2:
        qidx = np.concatenate([qidx[:, 0], qidx[:, 1][qidx[:, 1] != qidx[:, 0]]])
    ordered = np.sort(qidx)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(twice):
        q = arena._name(int(twice[0]))
        raise UnknownQubitError(f"qubit {q!r} is measured twice in one round")


class QubitArena:
    """Registry of disjoint registers with merge-on-demand and holder tracking.

    A cohort of sessions (``protocol.Cohort``), nested cohorts included,
    keeps its qubits on one arena, so one round reaches every session with
    one index array.  Per width the arena keeps a table of registers
    (``_Table``), and per qubit a packed location (``_loc``, see ``_BASE``;
    nonzero while the qubit is live) and a holder code (``_held``, a
    position in the short table ``_holders``).  Registration
    (``add_registers``, ``add_bell_pairs``) returns the new qubits' arena
    indices, which ``transfer_many``, ``register`` and rounds (``run_round``)
    take.  Measured qubits disappear; every live qubit has one holder.

    Only ``add_state`` names qubits, by its state's ids (none may start with
    ``#``: unnamed qubit i reads ``#i``).  The by-name methods ``indices``,
    ``has``, ``state_of``, ``holder_of``, ``transfer`` and the one-item
    rounds ``apply_pauli``, ``apply_unitary``, ``apply_cnot``,
    ``bell_measure`` and ``comp_measure`` (each raises before it draws) read
    those names; a live name cannot be registered again, and a measured one
    names the latest qubit given it.  ``register`` and ``state_of`` return a
    copy of a row.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}  # index -> the name it was given
        self._index: dict[str, int] = {}  # name -> the latest index given it
        self._loc = np.zeros(0, dtype=np.intp)  # one entry per qubit registered
        self._held = np.zeros(0, dtype=np.intp)
        self._holders: list[str] = []
        self._tables: dict[int, _Table] = {}

    def _name(self, i: int) -> str:
        """The name of qubit i, ``#i`` when it was registered without one."""
        return self._names.get(i, f"#{i}")

    def _holder_code(self, holder: str) -> int:
        """The code of ``holder``, entered in the table on first use."""
        if holder not in self._holders:
            self._holders.append(holder)
        return self._holders.index(holder)

    def _append(self, amps: np.ndarray | None, members: np.ndarray, gone: tuple = ()) -> None:
        """Put k registers in new rows of the table of their width, and
        relocate their qubits.  ``members`` (shape (k, n)) are arena indices
        in register order; the registers are ``amps`` (k, 2**m) over the
        qubits left when the axes ``gone`` are taken out, which move to 0
        (measured).  ``amps`` is None when every axis is gone."""
        keep, step, offset = _relocation(members.shape[1], gone)
        if amps is None:
            self._loc.put(members, 0)
            return
        n = len(keep)
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = _Table(n, max(32, 2 * len(amps)))
        start = table.extend(len(amps))
        table.amps[start:table.size] = amps
        table.members[start:table.size] = members[:, keep]
        self._loc.put(members, np.multiply.outer(np.arange(start, table.size), step) + offset)

    def _add(self, names: list[str] | None, amps: np.ndarray, holder: str) -> np.ndarray:
        """Register the checked amplitude rows ``amps`` as registers of one
        width held by ``holder``, their qubits named ``names`` in order, or
        unnamed for None; returns their indices, one row per register."""
        for q in names or ():
            if q.startswith("#"):
                raise InvalidRegisterError(f"qubit name {q!r} may not start with '#'")
            if self.has(q):
                raise InvalidRegisterError(f"qubit {q!r} already registered")
        start, k = len(self._loc), len(amps) * (amps.shape[1].bit_length() - 1)
        self._loc = np.concatenate([self._loc, np.zeros(k, np.intp)])
        self._held = np.concatenate([self._held, np.full(k, self._holder_code(holder), np.intp)])
        if names is not None:
            self._names.update(zip(range(start, start + k), names))
            self._index.update(zip(names, range(start, start + k)))
        members = np.arange(start, start + k).reshape(len(amps), -1)
        self._append(amps, members)
        return members

    def add_registers(self, amps: np.ndarray, holder: str) -> np.ndarray:
        """Register k unnamed registers of one width n with the amplitudes
        ``amps`` (shape ``(k, 2**n)``), with one check and one table write;
        returns the ``(k, n)`` arena indices."""
        if not len(amps):
            return np.empty((0, 0), dtype=np.intp)
        n = np.shape(amps)[-1].bit_length() - 1
        return self._add(None, StateVector.stack(_SLOTS[:n], amps).amplitudes, holder)

    def add_bell_pairs(self, codes: Sequence[int], holder: str) -> np.ndarray:
        """Register unnamed pair i in the Bell state of code ``codes[i]`` (its
        ``BellLabel.code``), as ``add_state`` of ``make_bell`` would, with one
        write of rows of the Bell table; returns the ``(k, 2)`` arena indices."""
        if not len(codes):
            return np.empty((0, 2), dtype=np.intp)
        return self._add(None, _BELL_TABLE.take(codes, 0), holder)

    def add_state(self, state: StateVector, holder: str) -> None:
        """Register ``state`` as one register, its qubits named by its ids."""
        amps = StateVector.stack(state.qubit_ids, state.amplitudes[None]).amplitudes
        self._add(list(state.qubit_ids), amps, holder)

    def _live(self, qubit_id: str) -> int:
        """The arena index of the live qubit named ``qubit_id``."""
        if not self.has(qubit_id):
            raise UnknownQubitError(f"qubit {qubit_id!r} not in arena")
        return self._index[qubit_id]

    def indices(self, qubit_ids: Sequence[str]) -> np.ndarray:
        """The arena indices of the live qubits named ``qubit_ids``."""
        return np.fromiter(map(self._live, qubit_ids), np.intp, len(qubit_ids))

    def holders(self) -> dict[str, str]:
        """Every live qubit's name -> its holder."""
        live = np.flatnonzero(self._loc).tolist()
        return {self._name(i): self._holders[self._held[i]] for i in live}

    def has(self, qubit_id: str) -> bool:
        i = self._index.get(qubit_id)
        return i is not None and bool(self._loc[i])

    def register(self, i: int) -> StateVector:
        """A copy of the register holding the live qubit at arena index i."""
        if not self._loc[i]:
            raise UnknownQubitError(f"qubit {self._name(i)!r} not in arena")
        row, n = divmod(int(self._loc[i]) // _BASE, _BASE)
        table = self._tables[n]
        return _trusted(tuple(map(self._name, table.members[row].tolist())), table.amps[row].copy())

    def state_of(self, qubit_id: str) -> StateVector:
        """A copy of the register holding ``qubit_id``."""
        return self.register(self._live(qubit_id))

    def holder_of(self, qubit_id: str) -> str:
        return self._holders[self._held[self._live(qubit_id)]]

    def transfer(self, qubit_id: str, to: str, expect: str | None = None) -> None:
        self.transfer_many(self.indices((qubit_id,)), to, expect)

    def transfer_many(self, qubits: np.ndarray, to: str, expect: str | None = None) -> None:
        """Hand the qubits at the arena indices ``qubits`` to ``to``, all or
        nothing: the first that is not live, or not held by ``expect`` when
        given, raises as ``transfer`` would, and then no qubit has moved."""
        live = self._loc.take(qubits) != 0
        held = np.where(live, self._held.take(qubits), -1)
        bad = ~live if expect is None else held != self._holder_code(expect)
        if bad.any():
            at = int(bad.argmax())
            q = self._name(int(np.asarray(qubits)[at]))
            if not live[at]:
                raise UnknownQubitError(f"qubit {q!r} not in arena")
            raise InvalidRegisterError(
                f"qubit {q!r} held by {self._holders[held[at]]!r}, expected {expect!r}"
            )
        self._held.put(qubits, self._holder_code(to))

    def apply_pauli(self, qubit_id: str, p: PauliLabel) -> None:
        run_round("apply_pauli", self, self.indices((qubit_id,)), [p.symbol])

    def apply_unitary(self, qubit_id: str, u: np.ndarray) -> None:
        run_round("apply_unitary", self, self.indices((qubit_id,)), u)

    def apply_cnot(self, control: str, target: str) -> None:
        run_round("apply_cnot", self, self.indices((control, target))[None], None)

    def bell_measure(self, q_a: str, q_b: str, rng: np.random.Generator) -> BellLabel:
        pair = self.indices((q_a, q_b))
        if q_a == q_b:  # the round would draw before its engine call raises
            raise InvalidRegisterError("cannot Bell-measure a qubit against itself")
        return BELL_LABELS[run_round("bell_measure", self, pair[None], rng)[0]]

    def comp_measure(self, qubit_id: str, rng: np.random.Generator) -> int:
        return int(run_round("comp_measure", self, self.indices((qubit_id,)), rng)[0])
