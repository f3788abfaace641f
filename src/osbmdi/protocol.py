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


class SlotKind(str, enum.Enum):
    ENTANGLED = "E"
    DECOY_PARTNER = "d"


def draw_label(labels: Sequence[BellLabel], rng: np.random.Generator) -> BellLabel:
    """One uniform label from a set; a one-label set takes no draw."""
    if len(labels) == 1:
        return labels[0]
    return labels[int(rng.integers(len(labels)))]


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

    def draw(self, rng: np.random.Generator) -> BellLabel:
        return draw_label(self.labels, rng)

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


@dataclass(frozen=True)
class Entangled:
    ref: int


@dataclass(frozen=True)
class DecoyPartner:
    """Traveling half of a split verification pair (the other half stays home)."""

    ref: int


@dataclass(frozen=True)
class DecoyWholeHalf:
    ref: int
    half: int


@dataclass
class ExtendedSequence:
    """A party's travel sequence with verification qubits interleaved.

    ``slots`` is the owner's private layout; ``occupants`` is what actually
    arrived at the measurement node (attacks may substitute or permute).
    """

    owner: str
    slots: list[tuple[str, object]]
    occupants: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slots)

    def qubits(self) -> list[str]:
        return [q for q, _ in self.slots]

    def split_positions(self) -> tuple[int, ...]:
        return tuple(i for i, (_, tag) in enumerate(self.slots) if isinstance(tag, DecoyPartner))

    def whole_positions(self) -> tuple[tuple[int, int], ...]:
        halves: dict[int, dict[int, int]] = {}
        for i, (_, tag) in enumerate(self.slots):
            if isinstance(tag, DecoyWholeHalf):
                halves.setdefault(tag.ref, {})[tag.half] = i
        return tuple((pos[0], pos[1]) for _, pos in sorted(halves.items()))

    def message_positions(self) -> tuple[int, ...]:
        return tuple(i for i, (_, tag) in enumerate(self.slots) if isinstance(tag, Entangled))


def insert_decoys(
    base: Sequence[tuple[str, object]],
    decoys: Sequence[tuple[str, object]],
    rng: np.random.Generator,
) -> list[tuple[str, object]]:
    """Uniformly interleave decoy items into a base sequence.

    Every position set is equally likely (the insertion preserves both
    relative orders), and the owner can recover the positions exactly from
    the returned slot tags.
    """
    total = len(base) + len(decoys)
    if not decoys:
        return list(base)
    chosen = set(rng.choice(total, size=len(decoys), replace=False).tolist())
    slots: list[tuple[str, object]] = []
    b_i = d_i = 0
    for i in range(total):
        if i in chosen:
            slots.append(decoys[d_i])
            d_i += 1
        else:
            slots.append(base[b_i])
            b_i += 1
    return slots


def classify_cases(
    pos_a: Sequence[int], pos_b: Sequence[int], length: int
) -> list[CaseTag]:
    """Per-slot case tags from the two announced position sets."""
    set_a, set_b = set(pos_a), set(pos_b)
    out = []
    for i in range(length):
        a_decoy, b_decoy = i in set_a, i in set_b
        if a_decoy and b_decoy:
            out.append(CaseTag.CASE_I)
        elif b_decoy:
            out.append(CaseTag.CASE_II)
        elif a_decoy:
            out.append(CaseTag.CASE_III)
        else:
            out.append(CaseTag.CASE_IV)
    return out


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


# --- session data -------------------------------------------------------------


@dataclass
class MessagePair:
    index: int
    home: str
    travel: str
    label: BellLabel


@dataclass
class Decoy:
    index: int
    q1: str  # home half for split pairs
    q2: str
    label: BellLabel
    split: bool


@dataclass
class PartyState:
    name: str
    pairs: list[MessagePair] = field(default_factory=list)
    s1_decoys: list[Decoy] = field(default_factory=list)
    s2_whole: list[Decoy] = field(default_factory=list)
    s2_split: list[Decoy] = field(default_factory=list)
    seq1: ExtendedSequence | None = None
    seq2: ExtendedSequence | None = None


@dataclass
class CharlieState:
    fake_stages: frozenset[int] = frozenset()


@dataclass
class PairGroup:
    """One aligned swap-round slot: the joined view of both contributions.

    ``home``, ``kind``, ``init`` and ``ref`` are (alice, bob) pairs: the home
    qubit, slot kind, prepared label and pair/decoy index on each side.
    """

    id: int
    home: tuple[str, str]
    kind: tuple[SlotKind, SlotKind]
    init: tuple[BellLabel, BellLabel]
    ref: tuple[int, int]
    case: CaseTag
    bmo1: BellLabel | None = None
    bmo2: BellLabel | None = None


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
    def __init__(self, stage: str, rate: float) -> None:
        super().__init__(f"abort at {stage} (error rate {rate:.4g})")
        self.stage = stage
        self.rate = rate


def _pack_bits_to_symbols(bits: Sequence[int]) -> list[int]:
    padded = list(bits) + [0] * (-len(bits) % 2)
    return [2 * padded[i] + padded[i + 1] for i in range(0, len(padded), 2)]


def _unpack_symbols_to_bits(symbols: Sequence[int]) -> list[int]:
    out = []
    for s in symbols:
        out.extend(((s >> 1) & 1, s & 1))
    return out


def _bits_per_choice(set_size: int) -> int:
    return (set_size - 1).bit_length()


class Session:
    """One protocol execution driven by a single deterministic stream.

    All randomness (preparation draws, insertion positions, measurement
    sampling, attack sampling) comes from ``rng`` in a fixed order, so a
    session is a pure function of (config, stream).

    Per-party state is indexed by side, 0 = alice and 1 = bob (the
    ``pauli_frame`` convention): ``parties[side]``, ``state_sets[side]``,
    ``known[side]`` (that party's knowledge of the partner's initial labels,
    per pair index) and ``enc[side]`` (its encoding operators).

    ``steps()`` is the session as a generator.  Each engine round is not
    called but yielded as a request ``(arena, op, items, rng)``, and the
    round's results come back through ``send``; ``run_lockstep`` serves the
    pending requests of a whole cohort of sessions as one ``run_round`` per
    op, which gives every session the same results and draws as one scalar
    call per slot in slot order.  The requests, in order:

      every leg     ``apply_unitary`` over the leg's qubits for the channel
                    noise, if any;
      round 1       ``bell_measure`` over the aligned slots, then
                    ``comp_measure`` over the home qubits of the checked
                    slots (alice's then bob's per slot);
      round 2       ``apply_pauli`` once per sender; per party,
                    ``bell_measure`` over its whole pairs and
                    ``comp_measure`` over its split pairs (the node's qubit,
                    then the home half);
      round 3       ``bell_measure`` over the aligned message slots.

    Preparation registers each party's pairs with one ``add_bell_pairs``.  A
    round with no items is not yielded.  A dishonest node (``fake_bmo``)
    draws its announcements instead of measuring, slot by slot; adversary
    interceptors use the scalar ops, and a dialogue's nested sessions run
    inside the step that needs them.  An aborted session ends early.
    """

    def __init__(
        self,
        cfg: SessionConfig,
        rng: np.random.Generator,
        session_index: int = 0,
        payload: Sequence[int] | None = None,
        attack_enabled: bool = True,
    ) -> None:
        self.cfg = cfg
        self.rng = rng
        self.session_index = session_index
        self.payload = None if payload is None else list(payload)
        self.attack = cfg.attack if attack_enabled else None
        self.arena = QubitArena()
        self.transcript = Transcript()
        self.eve = EveState()
        self.alice = PartyState("alice")
        self.bob = PartyState("bob")
        self.parties = (self.alice, self.bob)
        self.state_sets = (cfg.alice_state_set, cfg.bob_state_set)
        fake = frozenset()
        if self.attack is not None and self.attack.strategy == "fake_bmo":
            fake = self.attack.fake_stages
        self.charlie = CharlieState(fake_stages=fake)
        self.groups: list[PairGroup] = []
        self.survivors: list[PairGroup] = []
        self.sent: dict[str, tuple[int, ...]] = {}
        self.decoded: dict[str, tuple[int, ...]] = {}
        self.case_counts = {tag.value: 0 for tag in CaseTag}
        self.s1_checks = self.s1_fails = 0
        self.gv_checks = self.gv_fails = 0
        self.split_checks = self.split_fails = 0
        self.eve_views: list = []
        self.nested_reports: list[SessionReport] = []
        self.nested_label_errors = 0
        self.known: list[list[BellLabel] | None] = [None, None]
        self.enc: list[list[PauliLabel] | None] = [None, None]

    # -- public ------------------------------------------------------------

    def run(self) -> SessionReport:
        """Run this session alone to its report."""
        return run_lockstep([self])[0]

    def steps(self) -> Generator[tuple, list, SessionReport]:
        """The session as a generator of engine round requests ``(arena, op,
        items, rng)``, each sent back its results; returns the report."""
        aborted, abort_stage = False, None
        try:
            self._prepare()
            if self.cfg.mode is Mode.QD:
                self._nested_shares()
            yield from self._stage1()
            yield from self._stage1_checks()
            yield from self._encode_and_send()
            yield from self._stage2_checks()
            yield from self._decode_round()
        except _Abort as signal:
            aborted, abort_stage = True, signal.stage
        measure_ancillas(self.arena, self.eve, self.rng)
        self._attach_ancilla_bits()
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
        )
        self._validate_transcript()
        return report

    def _round(self, op: str, items: list, rng: np.random.Generator | None = None):
        """Yield one engine round of ``op`` on this session's arena; its results."""
        if not items:
            return []
        return (yield self.arena, op, items, rng)

    # -- preparation ---------------------------------------------------------

    def _prepare(self) -> None:
        cfg = self.cfg
        for party, state_set in zip(self.parties, self.state_sets):
            p = party.name[0]
            bells = []
            for i in range(cfg.n_pairs):
                label = draw_label(state_set, self.rng)
                home, travel = f"{p}m{i}h", f"{p}m{i}t"
                bells.append((label, home, travel))
                party.pairs.append(MessagePair(i, home, travel, label))
            for decoys, tag, count, (s1, s2), split in (
                (party.s1_decoys, "d", cfg.stage1_decoy_count, "ht", True),
                (party.s2_whole, "w", cfg.whole_decoy_count, "ab", False),
                (party.s2_split, "s", cfg.split_decoy_count, "ht", True),
            ):
                for i in range(count):
                    label = cfg.decoy_policy.draw(self.rng)
                    q1, q2 = f"{p}{tag}{i}{s1}", f"{p}{tag}{i}{s2}"
                    bells.append((label, q1, q2))
                    decoys.append(Decoy(i, q1, q2, label, split))
            self.arena.add_bell_pairs(bells, party.name)
        for side, state_set in enumerate(self.state_sets):
            if len(state_set) == 1:
                self.known[1 - side] = [state_set[0]] * cfg.n_pairs

    # -- dialogue preliminaries ----------------------------------------------

    def _nested_shares(self) -> None:
        """Dialogue step 1: each party with a private choice set transmits its
        prepared labels to the other through a nested direct-message session.

        One choice costs ceil(log2(set size)) bits; the nested session is
        sized at n_pairs * bits_per_choice, whose guaranteed case-IV floor of
        half the pair count always covers the payload.  A decoded index
        outside the set is a corrupt share and aborts the session; a wrong
        label inside the set cannot be seen by the parties and is only counted
        (``SessionReport.nested_label_errors``).
        """
        cfg = self.cfg
        for side in (1, 0):
            state_set = self.state_sets[side]
            if len(state_set) == 1:
                continue
            bpc = _bits_per_choice(len(state_set))
            bits: list[int] = []
            for pair in self.parties[side].pairs:
                idx = state_set.index(pair.label)
                bits.extend((idx >> (bpc - 1 - k)) & 1 for k in range(bpc))
            payload = _pack_bits_to_symbols(bits)
            nested_cfg = SessionConfig(
                n_pairs=cfg.n_pairs * bpc,
                mode=Mode.QSDC,
                decoy_policy=cfg.decoy_policy,
                noise=cfg.noise,
                error_threshold=cfg.error_threshold,
                master_seed=cfg.master_seed,
            )
            child = np.random.default_rng(int(self.rng.integers(2**63)))
            nested = Session(nested_cfg, child, self.session_index, payload=payload)
            rep = nested.run()
            self.nested_reports.append(rep)
            if rep.aborted:
                raise _Abort("nested", 1.0)
            decoded_bits = _unpack_symbols_to_bits(rep.decoded_symbols["bob"])
            known = []
            for i in range(cfg.n_pairs):
                idx = 0
                for k in range(bpc):
                    idx = (idx << 1) | decoded_bits[i * bpc + k]
                if idx >= len(state_set):
                    raise _Abort("nested", 1.0)
                known.append(state_set[idx])
            self.known[1 - side] = known
            self.nested_label_errors += sum(
                got is not pair.label for got, pair in zip(known, self.parties[side].pairs)
            )

    # -- round 1: swap ---------------------------------------------------------

    def _transmit(self, leg: str, party: PartyState, qubits: list[str]):
        for q in qubits:
            self.arena.transfer(q, "channel", expect=party.name)
        if self.cfg.noise is not None:
            u = self.cfg.noise.matrix()
            yield from self._round("apply_unitary", [(q, u) for q in qubits])
        arrived = apply_leg_attack(self.attack, self.arena, self.eve, leg, qubits, self.rng)
        for q in arrived:
            self.arena.transfer(q, "charlie")
        return arrived

    def _stage1(self):
        for party in self.parties:
            base = [(p.travel, Entangled(p.index)) for p in party.pairs]
            decoys = [(d.q2, DecoyPartner(d.index)) for d in party.s1_decoys]
            party.seq1 = ExtendedSequence(party.name, insert_decoys(base, decoys, self.rng))
        for party in self.parties:
            party.seq1.occupants = yield from self._transmit(
                f"stage1_{party.name}", party, party.seq1.qubits()
            )
        a_seq, b_seq = self.alice.seq1, self.bob.seq1
        if len(a_seq) != len(b_seq):
            raise ProtocolError("swap-round sequences differ in length")
        if 1 in self.charlie.fake_stages:
            self.bmo1 = [fake_bmo_outcome(self.rng) for _ in range(len(a_seq))]
        else:
            self.bmo1 = yield from self._round(
                "bell_measure", list(zip(a_seq.occupants, b_seq.occupants)), self.rng
            )
        for i, outcome in enumerate(self.bmo1):
            self.transcript.append("charlie", BMOAnnouncement(1, i, outcome))

    def _build_groups(self) -> None:
        a_seq, b_seq = self.alice.seq1, self.bob.seq1
        cases = classify_cases(a_seq.split_positions(), b_seq.split_positions(), len(a_seq))
        for i, case in enumerate(cases):
            slots = (_slot(party, party.seq1.slots[i][1]) for party in self.parties)
            home, kind, init, ref = zip(*slots)
            self.groups.append(PairGroup(i, home, kind, init, ref, case, bmo1=self.bmo1[i]))
            self.case_counts[case.value] += 1

    def _stage1_checks(self):
        for party in self.parties:
            self.transcript.append(
                party.name,
                DecoyPositions(party.name, 1, split_positions=party.seq1.split_positions()),
            )
        for party in self.parties:
            labels = tuple((d.index, d.label) for d in party.s1_decoys)
            self.transcript.append(
                party.name, InitialStateReveal(party.name, 1, "decoy", labels)
            )
        self._build_groups()
        use_msg = self.cfg.use_cases_ii_iii
        checked = [
            g
            for g in self.groups
            if g.case is not CaseTag.CASE_IV
            and not (use_msg and g.case in (CaseTag.CASE_II, CaseTag.CASE_III))
        ]
        # the entangled side of a mixed slot discloses its label for the
        # check: bob always, alice only when her choices are private
        for side, case in ((1, CaseTag.CASE_III), (0, CaseTag.CASE_II)):
            if side == 0 and len(self.cfg.alice_state_set) == 1:
                continue
            labels = tuple((g.ref[side], g.init[side]) for g in checked if g.case is case)
            if labels:
                name = self.parties[side].name
                self.transcript.append(name, InitialStateReveal(name, 1, "message", labels))
        flat = yield from self._round(
            "comp_measure", [q for g in checked for q in g.home], self.rng
        )
        for g, bits in zip(checked, zip(flat[::2], flat[1::2])):
            self.transcript.append("alice", CorrelationRecord(1, g.id, bits))
            ok = correlation_check(g.bmo1, *bits, *g.init)
            self.s1_checks += 1
            self.s1_fails += 0 if ok else 1
        rate = self.s1_fails / self.s1_checks if self.s1_checks else 0.0
        if rate > self.cfg.error_threshold:
            raise _Abort("stage1", rate)

    # -- round 2: encode, send, verify -----------------------------------------

    def _survivor_groups(self) -> list[PairGroup]:
        keep = {CaseTag.CASE_IV}
        if self.cfg.use_cases_ii_iii:
            keep |= {CaseTag.CASE_II, CaseTag.CASE_III}
        return [g for g in self.groups if g.case in keep]

    def _encode_and_send(self):
        self.survivors = self._survivor_groups()
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
                symbols = tuple(int(v) for v in self.rng.integers(0, 4, size=n_sym))
            self.sent[self.parties[side].name] = symbols
            self.enc[side] = [PauliLabel.from_symbol(s) for s in symbols]
            yield from self._round(
                "apply_pauli",
                [(g.home[side], op) for g, op in zip(self.survivors, self.enc[side])],
            )
        for side, party in enumerate(self.parties):
            base = [(g.home[side], Entangled(k)) for k, g in enumerate(self.survivors)]
            decoys: list[tuple[str, object]] = []
            for d in party.s2_whole:
                decoys.append((d.q1, DecoyWholeHalf(d.index, 0)))
                decoys.append((d.q2, DecoyWholeHalf(d.index, 1)))
            for d in party.s2_split:
                decoys.append((d.q2, DecoyPartner(d.index)))
            party.seq2 = ExtendedSequence(party.name, insert_decoys(base, decoys, self.rng))
            party.seq2.occupants = yield from self._transmit(
                f"stage2_{party.name}", party, party.seq2.qubits()
            )

    def _stage2_checks(self):
        self.transcript.append("charlie", Receipt(2))
        for party in self.parties:
            self.transcript.append(
                party.name,
                DecoyPositions(
                    party.name,
                    2,
                    split_positions=party.seq2.split_positions(),
                    whole_positions=party.seq2.whole_positions(),
                ),
            )
        fake = 2 in self.charlie.fake_stages
        for party in self.parties:
            occupants = party.seq2.occupants
            whole = party.seq2.whole_positions()
            if fake:
                outcomes = [fake_bmo_outcome(self.rng) for _ in whole]
            else:
                outcomes = yield from self._round(
                    "bell_measure", [(occupants[i], occupants[j]) for i, j in whole], self.rng
                )
            for d, (i, _), outcome in zip(party.s2_whole, whole, outcomes):
                self.transcript.append("charlie", BMOAnnouncement(2, i, outcome))
                self.gv_checks += 1
                self.gv_fails += 0 if outcome is d.label else 1
            split = list(zip(party.s2_split, party.seq2.split_positions()))
            if fake:
                # the node's bit is a draw, interleaved with the home readouts
                pairs = [
                    (int(self.rng.integers(2)), self.arena.comp_measure(d.q1, self.rng))
                    for d, _ in split
                ]
            else:
                flat = yield from self._round(
                    "comp_measure",
                    [q for d, pos in split for q in (occupants[pos], d.q1)],
                    self.rng,
                )
                pairs = list(zip(flat[::2], flat[1::2]))
            for (d, pos), (c_bit, o_bit) in zip(split, pairs):
                self.transcript.append("charlie", CorrelationRecord(2, pos, (c_bit, o_bit)))
                self.split_checks += 1
                ok = (c_bit == o_bit) == d.label.correlated
                self.split_fails += 0 if ok else 1
        for party in self.parties:
            labels = tuple(
                (d.index, d.label) for d in (*party.s2_whole, *party.s2_split)
            )
            self.transcript.append(
                party.name, InitialStateReveal(party.name, 2, "decoy", labels)
            )
        total = self.gv_checks + self.split_checks
        fails = self.gv_fails + self.split_fails
        rate = fails / total if total else 0.0
        if rate > self.cfg.error_threshold:
            raise _Abort("stage2", rate)

    # -- round 3: decode ---------------------------------------------------------

    def _decode_round(self):
        qd = self.cfg.mode is Mode.QD
        if not qd and len(self.cfg.alice_state_set) > 1:
            # the sender's choices are disclosed for decoding once the swap
            # round is committed; the receiver's stay private
            labels = tuple(
                (g.ref[0], g.init[0])
                for g in self.survivors
                if g.kind[0] is SlotKind.ENTANGLED
            )
            self.transcript.append(
                "alice", InitialStateReveal("alice", 3, "message", labels)
            )
            self.known[1] = [p.label for p in self.alice.pairs]
        a_msg, b_msg = (
            [party.seq2.occupants[p] for p in party.seq2.message_positions()]
            for party in self.parties
        )
        # each decoder recovers the other side's operator
        decoders = (1, 0) if qd else (1,)
        decoded: dict[int, list[int]] = {decoder: [] for decoder in decoders}
        outcomes = yield from self._round(
            "bell_measure", [(a_msg[k], b_msg[k]) for k in range(len(self.survivors))], self.rng
        )
        for k, (g, outcome) in enumerate(zip(self.survivors, outcomes)):
            self.transcript.append("charlie", BMOAnnouncement(3, k, outcome))
            g.bmo2 = outcome
            for decoder in decoders:
                side = 1 - decoder
                init = list(g.init)
                if g.kind[side] is SlotKind.ENTANGLED:
                    init[side] = self.known[decoder][g.ref[side]]
                own = self.enc[decoder][k] if qd else None
                decoded[decoder].append(
                    decode_message(
                        *init, g.bmo1, outcome, own_encoding=own, decode_side=side
                    ).symbol
                )
            self.eve_views.append([g.bmo1.value, outcome.value, []])
        for decoder, symbols in decoded.items():
            self.decoded[self.parties[decoder].name] = tuple(symbols)

    # -- wrap-up -------------------------------------------------------------------

    def _attach_ancilla_bits(self) -> None:
        pos_to_survivor = {}
        for party in self.parties:
            if party.seq2 is not None:
                for k, p in enumerate(party.seq2.message_positions()):
                    pos_to_survivor[(f"stage2_{party.name}", p)] = k
        for note in self.eve.notes:
            if note.get("kind") != "ancilla":
                continue
            key = (note["leg"], note["slot"])
            survivor = pos_to_survivor.get(key)
            if survivor is not None and survivor < len(self.eve_views):
                self.eve_views[survivor][2].append(note["bit"])
        self.eve_views = [
            (bmo1, bmo2, tuple(bits)) for bmo1, bmo2, bits in self.eve_views
        ]

    def _validate_transcript(self) -> None:
        allowed: dict[str, set[int]] = {"alice": set(), "bob": set()}
        for g in self.groups:
            if g.case is CaseTag.CASE_III and g.kind[1] is SlotKind.ENTANGLED:
                allowed["bob"].add(g.ref[1])
        if len(self.cfg.alice_state_set) > 1:
            allowed["alice"] = {p.index for p in self.alice.pairs}
        validate_order(self.transcript, allowed)


def _slot(party: PartyState, tag: object) -> tuple[str, SlotKind, BellLabel, int]:
    """Home qubit, kind, prepared label and index behind one swap-round slot."""
    if isinstance(tag, Entangled):
        pair = party.pairs[tag.ref]
        return pair.home, SlotKind.ENTANGLED, pair.label, pair.index
    decoy = party.s1_decoys[tag.ref]
    return decoy.q1, SlotKind.DECOY_PARTNER, decoy.label, decoy.index


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


# Sessions a batch runs in lockstep at a time.  A merged round stacks this
# many sessions' items, which is already tall enough to pay; the cap bounds
# the live arenas and party states (about 30 kB per n_pairs=8 session) and
# the stacked arrays a batch holds at once.
COHORT = 16


def run_lockstep(sessions: Sequence[Session]) -> list[SessionReport]:
    """Run sessions side by side to their reports, in the given order.

    Every step serves the one pending request of each live session: the
    requests of one op become one ``run_round`` across the sessions' arenas,
    and each session gets its results back.  Each session draws from its own
    stream at its own turn, so its report is the one it makes alone.
    """
    runs: list = [session.steps() for session in sessions]
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
    """Run independent sessions, ``COHORT`` at a time in lockstep; results are
    ordered by session index, so the outcome does not depend on scheduling."""
    if workers <= 1:
        reports: list[SessionReport] = []
        for start in range(0, sessions, COHORT):
            reports += run_lockstep([
                Session(cfg, session_rng(cfg.master_seed, i), i)
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
