"""Party state machines for the direct-messaging, dialogue and key modes.

A session runs three rounds through an untrusted measurement node:

  round 1 (swap):     both parties send their entangled travel halves, with
                      split verification pairs interleaved; the node measures
                      aligned slots pairwise and announces outcomes, swapping
                      entanglement onto the home qubits;
  round 2 (verify):   encoded home sequences travel with whole verification
                      pairs and m split pairs interleaved; whole pairs must
                      come back in their prepared label, splits must show the
                      prepared correlation;
  round 3 (decode):   the node measures aligned message qubits and announces;
                      receivers invert the Pauli frame to read the symbols.

Slot alignment is by index: the node pairs the i-th slot of each extended
sequence, which is the only rule both senders can anticipate.  Cases I-III
(at least one side contributed a verification half) feed the correlation
checks; case IV carries the message.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import is_not
from typing import Generator, Sequence

import numpy as np

from .adversary import (
    AttackSpec,
    EveState,
    NoiseSpec,
    apply_leg_attack,
    fake_bmo_outcome,
    measure_ancillas,
)
from .quantum import (
    BellLabel,
    PauliLabel,
    QuantumError,
    QubitArena,
    engine_round,
    frame_correction,
    pauli_frame,
    run_round,
    swapped_home_label,
)
from .transcript import (
    BMOAnnouncement,
    CorrelationRecord,
    DecoyPositions,
    InitialStateReveal,
    Receipt,
    Transcript,
    validate_order,
)


class ProtocolError(Exception):
    """Protocol-level failure (sequence mismatch, impossible payload)."""


class ConfigError(ValueError):
    """Session configuration is invalid."""


class DecodeIntegrityError(ProtocolError):
    """Announcements are inconsistent with the known preparations."""


class Mode(str, enum.Enum):
    """Protocol mode: one-way direct messaging (``qsdc``), two-way dialogue
    (``qd``), or key agreement (``qkd``).  ``qkd`` is an alias of ``qsdc``:
    the same one-way session, whose delivered symbols serve as the shared
    key; no step branches on it, so a ``qkd`` report differs from the
    ``qsdc`` report only in its ``mode`` line."""

    QSDC = "qsdc"
    QD = "qd"
    QKD = "qkd"


class CaseTag(str, enum.Enum):
    """Classification of one aligned swap-round slot by its two slot kinds."""

    CASE_I = "I"      # verification half on both sides
    CASE_II = "II"    # entangled on the sender side, verification on the other
    CASE_III = "III"  # verification on the sender side, entangled on the other
    CASE_IV = "IV"    # entangled on both sides: carries the message


# A Bell label's code is its position in ``tuple(BellLabel)``.  A session
# keeps its labels as code arrays, so its per-slot checks and its decoding
# are lookups in tables filled from ``correlation_check`` and
# ``decode_message``.
_LABELS = tuple(BellLabel)
_CODE = {lab: i for i, lab in enumerate(_LABELS)}
_VALUES = tuple(lab.value for lab in _LABELS)
_IS_CORRELATED = np.array([lab.correlated for lab in _LABELS])
_PAULIS = tuple(PauliLabel.from_symbol(s) for s in range(4))
# Case codes, the positions in ``tuple(CaseTag)``.
_CASE_I, _CASE_II, _CASE_III, _CASE_IV = range(4)


def draw_codes(labels: Sequence[BellLabel], n: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of n independent uniform labels from a set, as one block draw,
    which gives the values and leaves the stream as n scalar draws would; a
    one-label set takes no draw."""
    codes = np.array([_CODE[lab] for lab in labels])
    if len(labels) == 1:
        return codes.repeat(n)
    return codes[rng.integers(len(labels), size=n)]


def _reject_repeats(what: str, labels: Sequence[BellLabel]) -> None:
    """A label set names each label once: a repeat would skew the uniform
    draw and every leakage and nested-share count built on the set size."""
    repeated = sorted({lab.value for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise ConfigError(f"{what} repeats {', '.join(repeated)}")


@dataclass(frozen=True)
class DecoyPolicy:
    """How verification-pair labels are chosen: one fixed label, or an
    independent draw per pair from a label set (kept private until revealed)."""

    kind: str = "fixed"
    labels: tuple[BellLabel, ...] = (BellLabel.PSI_PLUS,)

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "random"):
            raise ConfigError(f"unknown decoy policy kind {self.kind!r}")
        if not self.labels:
            raise ConfigError("decoy policy needs at least one label")
        _reject_repeats("decoy policy", self.labels)
        if self.kind == "fixed" and len(self.labels) != 1:
            raise ConfigError("fixed decoy policy takes exactly one label")

    @classmethod
    def parse(cls, text: str) -> "DecoyPolicy":
        kind, _, labels = text.partition(":")
        if not labels:
            raise ConfigError("decoy policy syntax is fixed:LABEL or random:L1,L2,...")
        return cls(kind.strip(), tuple(BellLabel.parse(t.strip()) for t in labels.split(",")))

    def describe(self) -> str:
        return f"{self.kind}:" + ",".join(lab.value for lab in self.labels)


@dataclass(frozen=True)
class SessionConfig:
    """Everything one session needs; value-identical configs replay exactly."""

    n_pairs: int = 8
    mode: Mode = Mode.QSDC
    alice_state_set: tuple[BellLabel, ...] = (BellLabel.PSI_PLUS,)
    bob_state_set: tuple[BellLabel, ...] = (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)
    decoy_policy: DecoyPolicy = DecoyPolicy()
    attack: AttackSpec | None = None
    noise: NoiseSpec | None = None
    error_threshold: float = 0.0
    master_seed: int = 0
    use_cases_ii_iii: bool = False
    m_split_decoys: int | None = None

    def __post_init__(self) -> None:
        if self.n_pairs <= 0 or self.n_pairs % 2:
            raise ConfigError("n_pairs must be a positive even integer")
        if not isinstance(self.mode, Mode):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.alice_state_set or not self.bob_state_set:
            raise ConfigError("state sets must be nonempty")
        _reject_repeats("alice state set", self.alice_state_set)
        _reject_repeats("bob state set", self.bob_state_set)
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ConfigError("error_threshold must lie in [0, 1]")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.m_split_decoys is not None and not (
            0 <= self.m_split_decoys <= self.n_pairs // 2
        ):
            raise ConfigError("m_split_decoys must lie in [0, n_pairs/2]")

    @property
    def stage1_decoy_count(self) -> int:
        return self.n_pairs // 2

    @property
    def split_decoy_count(self) -> int:
        if self.m_split_decoys is None:
            return self.n_pairs // 4
        return self.m_split_decoys

    @property
    def whole_decoy_count(self) -> int:
        return self.n_pairs // 2 - self.split_decoy_count


# --- sequence machinery -------------------------------------------------------


def insert_decoys(n_base: int, n_decoys: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly interleave n_decoys decoy items into n_base base items.

    Returns the slot order: slot i carries item ``order[i]`` of the base
    items followed by the decoys.  Every position set is equally likely, the
    insertion preserves both relative orders, and the owner recovers the
    positions exactly from ``order``.  No decoys take no draw.
    """
    total = n_base + n_decoys
    if not n_decoys:
        return np.arange(total)
    decoy = np.zeros(total, dtype=bool)
    decoy[rng.choice(total, size=n_decoys, replace=False)] = True
    order = np.empty(total, dtype=np.intp)
    order[~decoy] = np.arange(n_base)
    order[decoy] = np.arange(n_base, total)
    return order


@dataclass
class ExtendedSequence:
    """A party's travel sequence with verification qubits interleaved.

    Slot i carries item ``order[i]`` of the ``n_base`` base items and then
    the decoys (``insert_decoys``), whose travel qubit is ``qubits[i]``;
    ``occupants`` is what actually arrived at the measurement node (attacks
    may substitute or permute).  The first ``2 * n_whole`` decoys are whole
    pairs' halves, pair by pair; the rest are split pairs' traveling halves.
    ``decoy`` marks the verification slots, and the message, split and
    whole positions are worked out once.
    """

    order: np.ndarray
    n_base: int
    qubits: list[str]
    n_whole: int = 0
    occupants: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.decoy = self.order >= self.n_base
        self.message_positions = (~self.decoy).nonzero()[0]
        at = self.decoy.nonzero()[0].tolist()
        whole = 2 * self.n_whole
        self.split_positions = tuple(at[whole:])
        self.whole_positions = tuple(zip(at[0:whole:2], at[1:whole:2]))


def classify_cases(a_decoy: np.ndarray, b_decoy: np.ndarray) -> np.ndarray:
    """Per-slot case codes, positions in ``tuple(CaseTag)``, from the two
    parties' verification-slot masks: I where both hold a verification half,
    II where only the second party does, III where only the first, IV
    where neither."""
    return 3 - a_decoy - 2 * b_decoy


def correlation_check(
    announced: BellLabel,
    alice_bit: int,
    bob_bit: int,
    alice_label: BellLabel,
    bob_label: BellLabel,
) -> bool:
    """Parity test of two home bits against the implied post-swap label."""
    expected = swapped_home_label(alice_label, bob_label, announced)
    return (alice_bit == bob_bit) == expected.correlated


def decode_message(
    alice_init: BellLabel,
    bob_init: BellLabel,
    bmo1: BellLabel,
    bmo2: BellLabel,
    own_encoding: PauliLabel | None = None,
    decode_side: int = 0,
) -> PauliLabel:
    """Recover an encoding operator from the two announcements.

    ``decode_side`` selects whose operator is recovered (0 = the qubit from
    the first party's sequence, 1 = the second's); in dialogue mode the
    decoder supplies its own operator, applied on the opposite side.
    """
    shared = swapped_home_label(alice_init, bob_init, bmo1)
    if own_encoding is not None:
        shared = pauli_frame(shared, own_encoding, side=1 - decode_side)
    try:
        return frame_correction(shared, bmo2, side=decode_side)
    except QuantumError as exc:  # pragma: no cover - defensive
        raise DecodeIntegrityError(str(exc)) from exc


@cache
def correlated_table() -> np.ndarray:
    """Whether the home bits of a checked slot must agree, indexed by the
    codes of (alice's label, bob's label, swap-round announcement): filled
    once from ``correlation_check`` on agreeing bits.  Read-only."""
    table = np.empty((4, 4, 4), dtype=bool)
    for a, b, m in np.ndindex(table.shape):
        table[a, b, m] = correlation_check(_LABELS[m], 0, 0, _LABELS[a], _LABELS[b])
    table.flags.writeable = False
    return table


@cache
def decode_table() -> np.ndarray:
    """``decode_message(...).symbol``, indexed by the codes of (alice init,
    bob init, bmo1, bmo2), the own encoding's symbol (4 for none) and the
    decode side: filled once from ``decode_message``.  Read-only."""
    owns = (*_PAULIS, None)
    table = np.empty((4, 4, 4, 4, 5, 2), dtype=np.intp)
    for a, b, m1, m2, own, side in np.ndindex(table.shape):
        table[a, b, m1, m2, own, side] = decode_message(
            _LABELS[a], _LABELS[b], _LABELS[m1], _LABELS[m2], owns[own], side
        ).symbol
    table.flags.writeable = False
    return table


def correlation_failures(
    first_bits: Sequence[int], second_bits: Sequence[int], correlated: np.ndarray
) -> int:
    """Checks whose two bits break the expected correlation, one per row."""
    return int(np.count_nonzero(np.equal(first_bits, second_bits) != correlated))


# --- session data -------------------------------------------------------------


@lru_cache(maxsize=64)
def _pair_names(initial: str, counts: tuple[int, int, int, int]) -> tuple[np.ndarray, ...]:
    """The (first, second) qubit names of a party's prepared pairs, block by
    block (see ``PartyState``), as read-only object arrays."""
    first: list[str] = []
    second: list[str] = []
    for tag, count, (s1, s2) in zip("mdws", counts, ("ht", "ht", "ab", "ht")):
        first += [f"{initial}{tag}{i}{s1}" for i in range(count)]
        second += [f"{initial}{tag}{i}{s2}" for i in range(count)]
    names = np.array(first, dtype=object), np.array(second, dtype=object)
    for column in names:
        column.flags.writeable = False
    return names


@dataclass
class PartyState:
    """One party's prepared Bell pairs, as columns.

    The pairs come in four blocks, the slices ``pairs`` (message pairs),
    ``s1_decoys``, ``s2_whole`` and ``s2_split`` of every column; a pair's
    index in its block is its message or decoy index.  Pair i is the qubits
    ``first[i]`` (the home half; a whole decoy's half 0) and ``second[i]``
    (the traveling half) in the Bell state ``labels[i]``, whose code is
    ``codes[i]``.
    """

    name: str
    first: np.ndarray
    second: np.ndarray
    codes: np.ndarray
    labels: list[BellLabel]
    pairs: slice
    s1_decoys: slice
    s2_whole: slice
    s2_split: slice
    seq1: ExtendedSequence | None = None
    seq2: ExtendedSequence | None = None


@dataclass
class CharlieState:
    fake_stages: frozenset[int] = frozenset()


@dataclass
class SessionReport:
    """Everything observable about one finished (or aborted) session."""

    mode: str
    n_pairs: int
    session_index: int
    aborted: bool
    abort_stage: str | None
    case_counts: dict[str, int]
    stage1_checks: int
    stage1_failures: int
    stage2_gv_checks: int
    stage2_gv_failures: int
    stage2_split_checks: int
    stage2_split_failures: int
    sent_symbols: dict[str, tuple[int, ...]]
    decoded_symbols: dict[str, tuple[int, ...]]
    transcript: Transcript
    eve_views: tuple = ()
    nested: tuple = ()
    # Partner labels a nested share delivered wrong (in range, so undetected);
    # simulation ground truth, kept out of the rendered report.
    nested_label_errors: int = 0
    # Why an aborted session stopped, kept out of the rendered report: the
    # error rate that crossed the threshold and the kind of check that failed
    # (stage1_correlation, stage2_gv, stage2_split, stage2_gv+split, nested).
    abort_rate: float | None = None
    abort_kind: str | None = None

    @property
    def symbols_total(self) -> int:
        return sum(len(v) for v in self.sent_symbols.values())

    @property
    def symbols_correct(self) -> int:
        correct = 0
        for sender, sent in self.sent_symbols.items():
            decoder = "bob" if sender == "alice" else "alice"
            got = self.decoded_symbols.get(decoder, ())
            correct += sum(1 for s, g in zip(sent, got) if s == g)
        return correct

    @property
    def symbol_accuracy(self) -> float:
        total = self.symbols_total
        return self.symbols_correct / total if total else 1.0


class _Abort(Exception):
    def __init__(self, stage: str, rate: float, kind: str) -> None:
        super().__init__(f"abort at {stage} on {kind} (error rate {rate:.4g})")
        self.stage = stage
        self.rate = rate
        self.kind = kind


def _bits_per_choice(set_size: int) -> int:
    return (set_size - 1).bit_length()


class Session:
    """One protocol execution driven by a single deterministic stream.

    All randomness (preparation draws, insertion positions, measurement
    sampling, attack sampling) comes from ``rng`` in a fixed order, so a
    session is a pure function of (config, stream).

    Per-party state is indexed by side, 0 = alice and 1 = bob (the
    ``pauli_frame`` convention): ``parties[side]``, ``state_sets[side]`` and
    ``known[side]`` (the codes of that party's knowledge of the partner's
    initial labels, per pair index).

    The bookkeeping runs once per block, leg or round, not once per qubit:
    preparation draws each party's labels as one block per label set
    (``draw_codes``) and registers its pairs with one ``add_bell_pairs``;
    each sequence works out its positions once, each leg moves its qubits
    with one ``transfer_many`` each way, the aligned slots are arrays
    (case codes, each side's item index), checks and decoding are table
    lookups, and a round's announcements enter with one ``extend``.

    ``steps()`` is the session as a generator.  Each engine round is not
    called but yielded as a request ``(arena, op, items, rng)``, and the
    round's results come back through ``send``; ``run_lockstep`` serves the
    pending requests of a whole cohort of sessions as one ``run_round`` per
    op, which gives every session the same results and draws as one scalar
    call per slot in slot order.  So that one round can reach them all, the
    arenas of a cohort are views of one store: the session's arena is put on
    the store of ``share`` when given (``run_batch`` passes one per cohort).
    It is the only driver: every qubit operation of the session, Eve's and
    the node's included, is such a request.  The requests, in order:

      dialogue      a nested share's requests, on the nested session's
                    arena (on this session's store), for each party with a
                    private choice set;
      every leg     ``apply_unitary`` over the leg's qubits for the channel
                    noise, if any; then the attack's round on the leg:
                    ``apply_cnot`` (entangle), ``apply_pauli`` (flip, or a
                    ``random_pauli`` disturbance), or none;
      round 1       ``bell_measure`` over the aligned slots, then
                    ``comp_measure`` over the home qubits of the checked
                    slots (alice's then bob's per slot);
      round 2       ``apply_pauli`` once per sender; per party,
                    ``bell_measure`` over its whole pairs and
                    ``comp_measure`` over its split pairs (the node's qubit,
                    then the home half);
      round 3       ``bell_measure`` over the aligned message slots;
      wrap-up       ``comp_measure`` over Eve's live ancillas, if any.

    A round with no items is not yielded.  A dishonest node (``fake_bmo``)
    draws its announcements instead of measuring; in round 2 it draws each
    split slot's bit and then reads the home half as a one-item
    ``comp_measure``, slot by slot.  An aborted session ends early.
    """

    def __init__(
        self,
        cfg: SessionConfig,
        rng: np.random.Generator,
        session_index: int = 0,
        payload: Sequence[int] | None = None,
        share: QubitArena | None = None,
    ) -> None:
        self.cfg = cfg
        self.rng = rng
        self.session_index = session_index
        self.payload = None if payload is None else list(payload)
        self.arena = QubitArena(share)
        self.transcript = Transcript()
        self.eve = EveState()
        self.parties: tuple[PartyState, ...] = ()
        self.state_sets = (cfg.alice_state_set, cfg.bob_state_set)
        fake = frozenset()
        if cfg.attack is not None and cfg.attack.strategy == "fake_bmo":
            fake = cfg.attack.fake_stages
        self.charlie = CharlieState(fake_stages=fake)
        # per swap-round slot: announcement codes and case codes; the
        # surviving slots, and each side's item index at them
        self.bmo1_codes: np.ndarray | None = None
        self.cases: np.ndarray | None = None
        self.survivors: np.ndarray | None = None
        self.survivor_items: list[np.ndarray] = []
        self.sent: dict[str, tuple[int, ...]] = {}
        self.decoded: dict[str, tuple[int, ...]] = {}
        self.case_counts = {tag.value: 0 for tag in CaseTag}
        self.s1_checks = self.s1_fails = 0
        self.gv_checks = self.gv_fails = 0
        self.split_checks = self.split_fails = 0
        self.eve_views: list = []
        self.nested_reports: list[SessionReport] = []
        self.nested_label_errors = 0
        self.known: list[np.ndarray | None] = [None, None]

    # -- public ------------------------------------------------------------

    def run(self) -> SessionReport:
        """Run this session alone to its report."""
        return run_lockstep([self.steps()])[0]

    def steps(self) -> Generator[tuple, list, SessionReport]:
        """The session as a generator of engine round requests ``(arena, op,
        items, rng)``, each sent back its results; returns the report."""
        aborted, abort_stage, abort_rate, abort_kind = False, None, None, None
        try:
            self._prepare()
            if self.cfg.mode is Mode.QD:
                yield from self._nested_shares()
            yield from self._stage1()
            yield from self._stage1_checks()
            yield from self._encode_and_send()
            yield from self._stage2_checks()
            yield from self._decode_round()
        except _Abort as signal:
            aborted, abort_stage = True, signal.stage
            abort_rate, abort_kind = signal.rate, signal.kind
        records = yield from measure_ancillas(self.arena, self.eve, self.rng)
        self._attach_ancilla_bits(records)
        report = SessionReport(
            mode=self.cfg.mode.value,
            n_pairs=self.cfg.n_pairs,
            session_index=self.session_index,
            aborted=aborted,
            abort_stage=abort_stage,
            case_counts=dict(self.case_counts),
            stage1_checks=self.s1_checks,
            stage1_failures=self.s1_fails,
            stage2_gv_checks=self.gv_checks,
            stage2_gv_failures=self.gv_fails,
            stage2_split_checks=self.split_checks,
            stage2_split_failures=self.split_fails,
            sent_symbols=dict(self.sent),
            decoded_symbols=dict(self.decoded),
            transcript=self.transcript,
            eve_views=tuple(self.eve_views),
            nested=tuple(self.nested_reports),
            nested_label_errors=self.nested_label_errors,
            abort_rate=abort_rate,
            abort_kind=abort_kind,
        )
        self._validate_transcript()
        return report

    # -- preparation ---------------------------------------------------------

    def _prepare(self) -> None:
        cfg = self.cfg
        n = cfg.n_pairs
        counts = (n, cfg.stage1_decoy_count, cfg.whole_decoy_count, cfg.split_decoy_count)
        ends = list(accumulate(counts))
        blocks = [slice(start, end) for start, end in zip([0, *ends], ends)]
        parties = []
        for name, state_set in zip(("alice", "bob"), self.state_sets):
            codes = np.concatenate([
                draw_codes(state_set, n, self.rng),
                draw_codes(cfg.decoy_policy.labels, ends[-1] - n, self.rng),
            ])
            labels = list(map(_LABELS.__getitem__, codes.tolist()))
            first, second = _pair_names(name[0], counts)
            self.arena.add_bell_pairs(codes, first.tolist(), second.tolist(), name)
            parties.append(PartyState(name, first, second, codes, labels, *blocks))
        self.parties = tuple(parties)
        self.alice, self.bob = parties
        for side, state_set in enumerate(self.state_sets):
            if len(state_set) == 1:
                self.known[1 - side] = parties[side].codes[:n]

    # -- dialogue preliminaries ----------------------------------------------

    def _nested_shares(self):
        """Dialogue step 1: each party with a private choice set transmits its
        prepared labels to the other through a nested direct-message session.

        One choice costs ceil(log2(set size)) bits; the nested session is
        sized at n_pairs * bits_per_choice, whose guaranteed case-IV floor of
        half the pair count always covers the payload.  A decoded index
        outside the set is a corrupt share and aborts the session; a wrong
        label inside the set cannot be seen by the parties and is only counted
        (``SessionReport.nested_label_errors``).  The nested session's rounds
        are yielded with this session's, so they join its cohort.
        """
        cfg = self.cfg
        n = cfg.n_pairs
        for side in (1, 0):
            state_set = self.state_sets[side]
            if len(state_set) == 1:
                continue
            bpc = _bits_per_choice(len(state_set))
            set_codes = np.array([_CODE[lab] for lab in state_set])
            prepared = self.parties[side].codes[:n]
            choices = np.argmax(prepared[:, None] == set_codes, axis=1)
            shifts = np.arange(bpc - 1, -1, -1)  # msb first
            bits = np.append((choices[:, None] >> shifts & 1).ravel(), np.zeros(n * bpc % 2, int))
            payload = (2 * bits[0::2] + bits[1::2]).tolist()  # two bits per symbol
            nested_cfg = SessionConfig(
                n_pairs=n * bpc,
                mode=Mode.QSDC,
                decoy_policy=cfg.decoy_policy,
                noise=cfg.noise,
                error_threshold=cfg.error_threshold,
                master_seed=cfg.master_seed,
            )
            child = np.random.default_rng(int(self.rng.integers(2**63)))
            nested = Session(nested_cfg, child, self.session_index, payload, self.arena)
            rep = yield from nested.steps()
            self.nested_reports.append(rep)
            if rep.aborted:
                raise _Abort("nested", 1.0, "nested")
            symbols = np.array(rep.decoded_symbols["bob"], dtype=np.intp)
            bits = (symbols[:, None] >> np.array([1, 0]) & 1).ravel()
            choices = bits[: n * bpc].reshape(n, bpc) @ (1 << shifts)
            if choices.max() >= len(state_set):
                raise _Abort("nested", 1.0, "nested")
            self.known[1 - side] = set_codes[choices]
            self.nested_label_errors += int(np.count_nonzero(set_codes[choices] != prepared))

    # -- round 1: swap ---------------------------------------------------------

    def _transmit(self, leg: str, party: PartyState, qubits: list[str]):
        self.arena.transfer_many(qubits, "channel", expect=party.name)
        if self.cfg.noise is not None:
            u = self.cfg.noise.matrix()
            yield from engine_round(self.arena, "apply_unitary", list(zip(qubits, repeat(u))))
        arrived = yield from apply_leg_attack(
            self.cfg.attack, self.arena, self.eve, leg, qubits, self.rng
        )
        self.arena.transfer_many(arrived, "charlie")
        return arrived

    def _stage1(self):
        n, k = self.cfg.n_pairs, self.cfg.stage1_decoy_count
        for party in self.parties:
            # the message pairs and stage-1 decoys are the first n + k pairs
            order = insert_decoys(n, k, self.rng)
            party.seq1 = ExtendedSequence(order, n, party.second[order].tolist())
        for party in self.parties:
            party.seq1.occupants = yield from self._transmit(
                f"stage1_{party.name}", party, party.seq1.qubits
            )
        a_seq, b_seq = self.alice.seq1, self.bob.seq1
        if len(a_seq.qubits) != len(b_seq.qubits):
            raise ProtocolError("swap-round sequences differ in length")
        if 1 in self.charlie.fake_stages:
            bmo1 = [fake_bmo_outcome(self.rng) for _ in a_seq.qubits]
        else:
            bmo1 = yield from engine_round(
                self.arena, "bell_measure", list(zip(a_seq.occupants, b_seq.occupants)), self.rng
            )
        self.bmo1_codes = np.fromiter(map(_CODE.__getitem__, bmo1), np.intp, len(bmo1))
        self.transcript.extend(
            "charlie", [BMOAnnouncement(1, i, outcome) for i, outcome in enumerate(bmo1)]
        )

    def _stage1_checks(self):
        for party in self.parties:
            self.transcript.append(
                party.name,
                DecoyPositions(party.name, 1, split_positions=party.seq1.split_positions),
            )
        for party in self.parties:
            labels = tuple(enumerate(party.labels[party.s1_decoys]))
            self.transcript.append(
                party.name, InitialStateReveal(party.name, 1, "decoy", labels)
            )
        orders = [party.seq1.order for party in self.parties]
        self.cases = classify_cases(*(party.seq1.decoy for party in self.parties))
        counts = np.bincount(self.cases, minlength=4).tolist()
        self.case_counts = dict(zip(self.case_counts, counts))
        use_msg = self.cfg.use_cases_ii_iii
        checked = np.flatnonzero(self.cases == _CASE_I if use_msg else self.cases != _CASE_IV)
        # the entangled side of a mixed slot discloses its label for the
        # check: bob always, alice only when her choices are private
        for side, case in ((1, _CASE_III), (0, _CASE_II)):
            if use_msg or side == 0 and len(self.cfg.alice_state_set) == 1:
                continue
            party = self.parties[side]
            refs = orders[side][self.cases == case].tolist()
            if refs:
                labels = tuple(zip(refs, map(party.labels.__getitem__, refs)))
                self.transcript.append(
                    party.name, InitialStateReveal(party.name, 1, "message", labels)
                )
        items = [order[checked] for order in orders]
        homes = np.column_stack([p.first[i] for p, i in zip(self.parties, items)])
        flat = yield from engine_round(self.arena, "comp_measure", homes.ravel().tolist(), self.rng)
        a_bits, b_bits = flat[::2], flat[1::2]
        ids = checked.tolist()
        self.transcript.extend(
            "alice", [CorrelationRecord(1, i, bits) for i, bits in zip(ids, zip(a_bits, b_bits))]
        )
        alice, bob = self.parties
        correlated = correlated_table()[
            alice.codes[items[0]], bob.codes[items[1]], self.bmo1_codes[checked]
        ]
        self.s1_checks = len(ids)
        self.s1_fails = correlation_failures(a_bits, b_bits, correlated)
        rate = self.s1_fails / self.s1_checks if self.s1_checks else 0.0
        if rate > self.cfg.error_threshold:
            raise _Abort("stage1", rate, "stage1_correlation")

    # -- round 2: encode, send, verify -----------------------------------------

    def _encode_and_send(self):
        if self.cfg.use_cases_ii_iii:
            self.survivors = np.flatnonzero(self.cases != _CASE_I)
        else:
            self.survivors = np.flatnonzero(self.cases == _CASE_IV)
        self.survivor_items = [party.seq1.order[self.survivors] for party in self.parties]
        homes = [
            party.first[items] for party, items in zip(self.parties, self.survivor_items)
        ]
        n_sym = len(self.survivors)
        senders = (0, 1) if self.cfg.mode is Mode.QD else (0,)
        for side in senders:
            if side == 0 and self.payload is not None:
                if len(self.payload) > n_sym:
                    raise ProtocolError(
                        f"payload of {len(self.payload)} symbols exceeds capacity {n_sym}"
                    )
                symbols = tuple(self.payload + [0] * (n_sym - len(self.payload)))
            else:
                symbols = tuple(self.rng.integers(0, 4, size=n_sym).tolist())
            self.sent[self.parties[side].name] = symbols
            yield from engine_round(
                self.arena, "apply_pauli",
                list(zip(homes[side].tolist(), map(_PAULIS.__getitem__, symbols))),
            )
        for side, party in enumerate(self.parties):
            whole = party.s2_whole
            decoys = np.concatenate([
                np.column_stack((party.first[whole], party.second[whole])).ravel(),
                party.second[party.s2_split],
            ])
            order = insert_decoys(n_sym, len(decoys), self.rng)
            qubits = np.concatenate([homes[side], decoys])[order].tolist()
            party.seq2 = ExtendedSequence(
                order, n_sym, qubits, n_whole=whole.stop - whole.start
            )
            party.seq2.occupants = yield from self._transmit(
                f"stage2_{party.name}", party, qubits
            )

    def _stage2_checks(self):
        self.transcript.append("charlie", Receipt(2))
        for party in self.parties:
            self.transcript.append(
                party.name,
                DecoyPositions(
                    party.name,
                    2,
                    split_positions=party.seq2.split_positions,
                    whole_positions=party.seq2.whole_positions,
                ),
            )
        fake = 2 in self.charlie.fake_stages
        for party in self.parties:
            occupants = party.seq2.occupants
            whole = party.seq2.whole_positions
            if fake:
                outcomes = [fake_bmo_outcome(self.rng) for _ in whole]
            else:
                outcomes = yield from engine_round(
                    self.arena, "bell_measure",
                    [(occupants[i], occupants[j]) for i, j in whole], self.rng,
                )
            self.transcript.extend(
                "charlie", [BMOAnnouncement(2, i, o) for (i, _), o in zip(whole, outcomes)]
            )
            self.gv_checks += len(whole)
            self.gv_fails += sum(map(is_not, outcomes, party.labels[party.s2_whole]))
            split = party.seq2.split_positions
            homes = party.first[party.s2_split].tolist()
            if fake:
                # the node's bit is a draw, interleaved with the home readouts
                c_bits, o_bits = [], []
                for home in homes:
                    c_bits.append(int(self.rng.integers(2)))
                    bit = yield from engine_round(self.arena, "comp_measure", [home], self.rng)
                    o_bits += bit
            else:
                flat = yield from engine_round(
                    self.arena, "comp_measure",
                    [q for pos, home in zip(split, homes) for q in (occupants[pos], home)],
                    self.rng,
                )
                c_bits, o_bits = flat[::2], flat[1::2]
            self.transcript.extend(
                "charlie",
                [CorrelationRecord(2, pos, bits) for pos, bits in zip(split, zip(c_bits, o_bits))],
            )
            self.split_checks += len(split)
            self.split_fails += correlation_failures(
                c_bits, o_bits, _IS_CORRELATED[party.codes[party.s2_split]]
            )
        for party in self.parties:
            labels = (
                *enumerate(party.labels[party.s2_whole]),
                *enumerate(party.labels[party.s2_split]),
            )
            self.transcript.append(
                party.name, InitialStateReveal(party.name, 2, "decoy", labels)
            )
        total = self.gv_checks + self.split_checks
        fails = self.gv_fails + self.split_fails
        rate = fails / total if total else 0.0
        if rate > self.cfg.error_threshold:
            failed = [kind for kind, n in (("gv", self.gv_fails), ("split", self.split_fails)) if n]
            raise _Abort("stage2", rate, "stage2_" + "+".join(failed))

    # -- round 3: decode ---------------------------------------------------------

    def _decode_round(self):
        qd = self.cfg.mode is Mode.QD
        n = self.cfg.n_pairs
        if not qd and len(self.cfg.alice_state_set) > 1:
            # the sender's choices are disclosed for decoding once the swap
            # round is committed; the receiver's stay private
            refs = [i for i in self.survivor_items[0].tolist() if i < n]
            labels = tuple(zip(refs, map(self.alice.labels.__getitem__, refs)))
            self.transcript.append(
                "alice", InitialStateReveal("alice", 3, "message", labels)
            )
            self.known[1] = self.alice.codes[:n]
        a_msg, b_msg = (
            list(map(party.seq2.occupants.__getitem__, party.seq2.message_positions.tolist()))
            for party in self.parties
        )
        outcomes = yield from engine_round(
            self.arena, "bell_measure", list(zip(a_msg, b_msg)), self.rng
        )
        self.transcript.extend(
            "charlie", [BMOAnnouncement(3, k, outcome) for k, outcome in enumerate(outcomes)]
        )
        bmo1 = self.bmo1_codes[self.survivors]
        bmo2 = np.fromiter(map(_CODE.__getitem__, outcomes), np.intp, len(outcomes))
        prepared = [party.codes[items] for party, items in zip(self.parties, self.survivor_items)]
        # each decoder recovers the other side's operator, reading that
        # side's message-pair labels from what it knows of them
        for decoder in (1, 0) if qd else (1,):
            side = 1 - decoder
            items = self.survivor_items[side]
            init = list(prepared)
            init[side] = np.where(
                items < n, self.known[decoder].take(items, mode="clip"), prepared[side]
            )
            own = np.array(self.sent[self.parties[decoder].name]) if qd else 4
            symbols = decode_table()[init[0], init[1], bmo1, bmo2, own, side]
            self.decoded[self.parties[decoder].name] = tuple(symbols.tolist())
        self.eve_views = list(zip(
            map(_VALUES.__getitem__, bmo1.tolist()), map(_VALUES.__getitem__, bmo2.tolist())
        ))

    # -- wrap-up -------------------------------------------------------------------

    def _attach_ancilla_bits(self, records: list[tuple[str, int, int]]) -> None:
        """File Eve's ``(leg, slot, bit)`` readouts under the message slot
        they coupled to in round 2."""
        bits: dict[int, list[int]] = {}
        if records:
            survivor_at = {
                (f"stage2_{party.name}", pos): k
                for party in self.parties
                if party.seq2 is not None
                for k, pos in enumerate(party.seq2.message_positions.tolist())
            }
            for leg, slot, bit in records:
                survivor = survivor_at.get((leg, slot))
                if survivor is not None:
                    bits.setdefault(survivor, []).append(bit)
        self.eve_views = [
            (bmo1, bmo2, tuple(bits.get(k, ()))) for k, (bmo1, bmo2) in enumerate(self.eve_views)
        ]

    def _validate_transcript(self) -> None:
        allowed: dict[str, set[int]] = {"alice": set(), "bob": set()}
        if self.cases is not None:
            # case III slots, where bob's message pair meets alice's decoy
            allowed["bob"] = set(self.bob.seq1.order[self.cases == _CASE_III].tolist())
        if len(self.cfg.alice_state_set) > 1:
            allowed["alice"] = set(range(self.cfg.n_pairs))
        validate_order(self.transcript, allowed)


def session_rng(master_seed: int, session_index: int) -> np.random.Generator:
    """Per-session stream derived deterministically from (seed, index)."""
    return np.random.default_rng([master_seed, session_index])


def prepare_session(
    cfg: SessionConfig, session_index: int = 0
) -> tuple[PartyState, PartyState, CharlieState, Transcript]:
    """Build the prepared (pre-transmission) party states for inspection."""
    session = Session(cfg, session_rng(cfg.master_seed, session_index), session_index)
    session._prepare()
    return session.alice, session.bob, session.charlie, session.transcript


def run_session(cfg: SessionConfig, session_index: int = 0) -> SessionReport:
    """Execute one full session under its deterministic per-session stream."""
    session = Session(cfg, session_rng(cfg.master_seed, session_index), session_index)
    return session.run()


# Sessions a batch runs in lockstep at a time, their arenas on one store.  A
# merged round stacks this many sessions' items, which is already tall enough
# to pay; the cap bounds the store, which keeps every register row of its
# cohort until the cohort ends, the party states (about 30 kB per n_pairs=8
# session) and the stacked arrays a batch holds at once.
COHORT = 16


def run_lockstep(steps: Sequence[Generator]) -> list:
    """Run step generators side by side to their return values, in order.

    A step generator yields engine round requests ``(arena, op, items, rng)``
    and is sent back each round's results (``Session.steps``,
    ``adversary.apply_leg_attack``).  Every step serves the one pending
    request of each live generator: the requests of one op become one
    ``run_round`` across their arenas, which must share one store.  Each
    session draws from its own stream at its own turn, so its report is the
    one it makes alone.
    """
    runs: list = list(steps)
    reports: list = [None] * len(runs)
    replies: dict[int, list | None] = dict.fromkeys(range(len(runs)))
    while replies:
        rounds: dict[str, list] = {}
        for k, reply in replies.items():
            try:
                arena, op, items, rng = runs[k].send(reply)
            except StopIteration as done:
                reports[k], runs[k] = done.value, None
                continue
            rounds.setdefault(op, []).append((k, (arena, items, rng)))
        replies = {}
        for op, requests in rounds.items():
            results = run_round(op, [request for _, request in requests])
            replies.update((k, result) for (k, _), result in zip(requests, results))
    return reports


def run_batch(
    cfg: SessionConfig, sessions: int, workers: int = 1
) -> list[SessionReport]:
    """Run independent sessions, ``COHORT`` at a time in lockstep with their
    arenas on one store per cohort; results are ordered by session index, so
    the outcome does not depend on scheduling."""
    if workers <= 1:
        reports: list[SessionReport] = []
        for start in range(0, sessions, COHORT):
            share = QubitArena()  # the cohort's one store
            reports += run_lockstep([
                Session(cfg, session_rng(cfg.master_seed, i), i, share=share).steps()
                for i in range(start, min(start + COHORT, sessions))
            ])
        return reports
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_session, cfg, i) for i in range(sessions)]
        return [f.result() for f in futures]


# Reference decode table for the baseline configuration (sender fixed on
# psi+, responder choosing psi+ or psi-): for each responder label and each
# swap-round announcement, the shared label and the decode-round announcement
# produced by each of the four encodings.  Kept as literal data so the frame
# algebra can be diffed against it.
DECODE_REFERENCE: tuple = (
    # (bob_init, bmo1, shared, (bmo2 for I, X, iY, Z))
    (BellLabel.PSI_PLUS, BellLabel.PSI_PLUS, BellLabel.PSI_PLUS,
     (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)),
    (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_PLUS,
     (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS, BellLabel.PSI_MINUS, BellLabel.PHI_MINUS)),
    (BellLabel.PSI_PLUS, BellLabel.PHI_MINUS, BellLabel.PHI_MINUS,
     (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS, BellLabel.PSI_PLUS, BellLabel.PHI_PLUS)),
    (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS, BellLabel.PSI_MINUS,
     (BellLabel.PSI_MINUS, BellLabel.PHI_MINUS, BellLabel.PHI_PLUS, BellLabel.PSI_PLUS)),
    (BellLabel.PSI_MINUS, BellLabel.PSI_MINUS, BellLabel.PSI_PLUS,
     (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)),
    (BellLabel.PSI_MINUS, BellLabel.PHI_MINUS, BellLabel.PHI_PLUS,
     (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS, BellLabel.PSI_MINUS, BellLabel.PHI_MINUS)),
    (BellLabel.PSI_MINUS, BellLabel.PHI_PLUS, BellLabel.PHI_MINUS,
     (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS, BellLabel.PSI_PLUS, BellLabel.PHI_PLUS)),
    (BellLabel.PSI_MINUS, BellLabel.PSI_PLUS, BellLabel.PSI_MINUS,
     (BellLabel.PSI_MINUS, BellLabel.PHI_MINUS, BellLabel.PHI_PLUS, BellLabel.PSI_PLUS)),
)


def decode_table_rows() -> list[tuple]:
    """Reproduce the reference decode table from the frame algebra."""
    rows = []
    for bob_init in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
        for _, bmo1, _, _ in (r for r in DECODE_REFERENCE if r[0] is bob_init):
            shared = swapped_home_label(BellLabel.PSI_PLUS, bob_init, bmo1)
            outcomes = tuple(pauli_frame(shared, p, side=0) for p in PauliLabel)
            rows.append((bob_init, bmo1, shared, outcomes))
    return rows
