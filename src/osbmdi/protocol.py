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
from functools import cache
from itertools import accumulate, chain, repeat
from typing import Sequence

import numpy as np

from .adversary import (
    AttackSpec,
    EveState,
    NoiseSpec,
    apply_leg_attack,
    fake_bmo_outcome,
    measure_ancillas,
    parsed,
)
from .quantum import (
    BELL_LABELS,
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


# A Bell label's code is its position in ``BELL_LABELS``.  A session
# keeps its labels as code arrays, so its per-slot checks and its decoding
# are lookups in tables filled from ``correlation_check`` and
# ``decode_message``.
_VALUES = tuple(lab.value for lab in BELL_LABELS)
_IS_CORRELATED = np.array([lab.correlated for lab in BELL_LABELS])
# Case codes, the positions in ``tuple(CaseTag)``.
_CASE_I, _CASE_II, _CASE_III, _CASE_IV = range(4)


def draw_codes(labels: Sequence[BellLabel], n: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of n independent uniform labels from a set, as one block draw,
    which gives the values and leaves the stream as n scalar draws would; a
    one-label set takes no draw."""
    codes = np.fromiter(map(BELL_LABELS.index, labels), np.intp, len(labels))
    if len(labels) == 1:
        return codes.repeat(n)
    return codes[rng.integers(len(labels), size=n)]


def row_draws(rng: np.random.Generator, k: int, doubles: int, n: int) -> tuple:
    """Codes and an ``(n, doubles)`` array of uniforms, as n rows of ``rng.integers(k)`` then
    ``rng.random(doubles)`` draw them, from one block of raw PCG64 words, leaving ``rng`` as the
    rows do.  A row's bounded draw is Lemire's on the low half of a fresh word or on the high half
    the row before buffered; a row that would redraw, or another bit generator, runs the rows."""
    bg = rng.bit_generator
    if n != 1:  # one row runs directly: the block's state reads and writes cost more
        saved = bg.state
        held = saved.get("has_uint32", 0)
        opened = (n + 1 - held) // 2  # every other row's bounded draw takes a fresh word
        words = bg.random_raw(opened + n * doubles)
        fresh = np.zeros(len(words), bool)
        fresh[np.arange(opened) * (1 + 2 * doubles) + held * doubles] = True
        lo_hi = words[fresh, None] >> np.uint64([0, 32]) & 0xFFFFFFFF
        halves = np.append(np.uint64(saved.get("uinteger", 0)), lo_hi)  # in the order rows take them
        m = halves[1 - held:][:n] * np.uint64(k)
        if saved["bit_generator"] == "PCG64" and not np.any((m & 0xFFFFFFFF) < (2**32 - k) % k):
            bg.state = {**bg.state, "has_uint32": (held + n) % 2, "uinteger": int(halves[-1])}
            return (m >> 32).astype(np.intp), ((words[~fresh] >> 11) * 2.0**-53).reshape(n, doubles)
        bg.state = saved
    rows = np.reshape([(rng.integers(k), *rng.random(doubles)) for _ in range(n)], (n, 1 + doubles))
    return rows[:, 0].astype(np.intp), rows[:, 1:]


# What a label set holds, for messages about a malformed one.
LABEL_SET = "Bell labels among " + ", ".join(_VALUES)


def parse_labels(text: str) -> tuple[BellLabel, ...]:
    """The comma-separated Bell labels of ``text``."""
    return tuple(BellLabel.parse(t.strip()) for t in text.split(","))


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
        return cls(kind.strip(), parsed(parse_labels, labels, "decoy_policy labels", LABEL_SET))

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


def _decoy_slots(
    totals: Sequence[int], n_decoys: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Where n_decoys decoys go in sequences of ``totals`` slots, one sequence
    per stream: a row of slots per sequence, in order, each row's set one
    uniform draw from its stream.  No decoys take no draw."""
    if not n_decoys:
        return np.empty((len(rngs), 0), dtype=np.intp)
    picks = [rng.choice(t, size=n_decoys, replace=False) for t, rng in zip(totals, rngs)]
    return np.sort(picks, axis=1)


def _slot_items(decoy: np.ndarray, n_base: int) -> np.ndarray:
    """The slot orders of verification-slot masks along the last axis: slot i
    carries item ``order[i]`` of the n_base base items followed by the decoys."""
    before = decoy.cumsum(axis=-1)  # decoys up to and including each slot
    return np.where(decoy, n_base - 1 + before, np.arange(decoy.shape[-1]) - before)


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
        table[a, b, m] = correlation_check(BELL_LABELS[m], 0, 0, BELL_LABELS[a], BELL_LABELS[b])
    table.flags.writeable = False
    return table


@cache
def decode_table() -> np.ndarray:
    """``decode_message(...).symbol``, indexed by the codes of (alice init,
    bob init, bmo1, bmo2), the own encoding's symbol (4 for none) and the
    decode side: filled once from ``decode_message``.  Read-only."""
    owns = (*PauliLabel, None)
    table = np.empty((4, 4, 4, 4, 5, 2), dtype=np.intp)
    for a, b, m1, m2, own, side in np.ndindex(table.shape):
        table[a, b, m1, m2, own, side] = decode_message(
            BELL_LABELS[a], BELL_LABELS[b], BELL_LABELS[m1], BELL_LABELS[m2], owns[own], side
        ).symbol
    table.flags.writeable = False
    return table


def correlation_failures(
    first_bits: Sequence[int], second_bits: Sequence[int], correlated: np.ndarray
) -> int:
    """Checks whose two bits break the expected correlation, one per row."""
    return int(np.count_nonzero(np.equal(first_bits, second_bits) != correlated))


# --- session data -------------------------------------------------------------


@dataclass
class SessionReport:
    """Everything observable about one finished (or aborted) session.

    A session makes its report when it starts and writes each result into it
    as the stage that finds it runs, so a field a session never reached
    keeps its default: no checks, no symbols, an empty transcript.
    """

    mode: str
    n_pairs: int
    session_index: int
    aborted: bool = False
    abort_stage: str | None = None
    case_counts: dict[str, int] = field(default_factory=lambda: {t.value: 0 for t in CaseTag})
    stage1_checks: int = 0
    stage1_failures: int = 0
    stage2_gv_checks: int = 0
    stage2_gv_failures: int = 0
    stage2_split_checks: int = 0
    stage2_split_failures: int = 0
    sent_symbols: dict[str, tuple[int, ...]] = field(default_factory=dict)
    decoded_symbols: dict[str, tuple[int, ...]] = field(default_factory=dict)
    transcript: Transcript = field(default_factory=Transcript)
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


# Party names, indexed by side.
_NAMES = ("alice", "bob")


def _split(values: np.ndarray, counts: Sequence[int]) -> list[list]:
    """A flat, session-major array as one list per session of ``counts`` items."""
    values, ends = values.tolist(), list(accumulate(counts))
    return [values[start:end] for start, end in zip([0, *ends], ends)]


def _labelled(codes: Sequence[int], refs: Sequence[int] | None = None) -> tuple:
    """``(ref, BellLabel)`` pairs of the label codes ``codes``, their refs
    counting from 0 when not given."""
    labels = map(BELL_LABELS.__getitem__, codes)
    return tuple(enumerate(labels) if refs is None else zip(refs, labels))


def _announce(report: SessionReport, stage: int, indices: Sequence[int], codes: list) -> None:
    """Log the node's announcements of the label codes ``codes`` at ``indices``."""
    labels = map(BELL_LABELS.__getitem__, codes)
    report.transcript.append_run("charlie", BMOAnnouncement, stage, indices, labels)


class Session:
    """One protocol execution driven by a single deterministic stream.

    All randomness (preparation draws, insertion positions, measurement
    sampling, attack sampling) comes from ``rng`` in a fixed order, so a
    session is a pure function of (config, stream).  The session keeps its
    results only in ``report``, made here: its cohort (``Cohort``) writes
    each stage's announcements, check counts, case counts, symbols, nested
    reports and Eve's views there as the stage runs, and an abort sets the
    abort fields.  ``run`` runs the session as a cohort of one.
    """

    def __init__(
        self,
        cfg: SessionConfig,
        rng: np.random.Generator,
        session_index: int = 0,
        payload: Sequence[int] | None = None,
    ) -> None:
        self.cfg = cfg
        self.rng = rng
        self.report = SessionReport(cfg.mode.value, cfg.n_pairs, session_index)
        self.payload = None if payload is None else list(payload)

    def run(self) -> SessionReport:
        """Run this session alone to its report."""
        return Cohort([self], QubitArena()).run()[0]


class Cohort:
    """Sessions of one config run side by side: each stage runs once for all
    of them, and each engine round is one ``run_round`` over their flat
    index arrays on the cohort's arena.

    A session is a row, its position in ``sessions``, and a party a side,
    0 = alice and 1 = bob (the ``pauli_frame`` convention).  ``codes`` and
    ``qubits`` (shapes ``(rows, 2, pairs)`` and ``(rows, 2, pairs, 2)``) hold
    each party's prepared pairs in four blocks, the slices ``blocks`` of the
    pair axis: message pairs, stage-1 decoys, whole and split stage-2
    decoys; a pair's index in its block is its message or decoy index.  Pair
    i is in the Bell state of code ``codes[..., i]`` over the arena indices
    ``qubits[..., i, :]``: the home half (a whole decoy's half 0), then the
    traveling half.  ``known[side]`` (``(rows, n_pairs)``) holds the codes of
    that party's knowledge of the partner's initial labels.  The swap
    round's arrays are ``(rows, 2, slots)`` or ``(rows, slots)``.  The verify
    round's are ragged (the number of case-IV survivors varies), flat and
    session-major, with the row of each item beside them.  An abort clears
    the row's ``alive`` bit, and the later stages run over the rows still
    alive.

    Only two things are done per session: the draws, which each session
    makes from its own stream at each draw point, in the order it makes them
    alone, and the writes to its report and transcript.  So a session's
    report is the one it makes alone.  Everything else runs once per stage,
    leg or round: outcomes come back as code arrays, checks and decoding are
    table lookups, and a round's announcements are one transcript run
    (``Transcript.append_run``) per session.

    Every qubit operation, Eve's and the node's included, is a round over
    the cohort's arena, in order:

      dialogue      a nested share, as a nested cohort on this cohort's
                    arena, for each party with a private choice set;
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
      wrap-up       ``comp_measure`` over Eve's ancillas, if any.

    A measuring round's uniforms are drawn per session, each from its own
    stream, before the round.  A dishonest node (``fake_bmo``) draws its
    announcements instead of measuring; in round 2 it draws each split
    slot's bit with the uniform of the home half's readout (``row_draws``).
    """

    def __init__(self, sessions: Sequence[Session], arena: QubitArena) -> None:
        self.cfg = cfg = sessions[0].cfg
        self.arena = arena
        self.eve = EveState()
        self.rngs = [s.rng for s in sessions]
        self.reports = [s.report for s in sessions]
        self.payloads = [s.payload for s in sessions]
        self.alive = np.ones(len(sessions), dtype=bool)
        self.state_sets = (cfg.alice_state_set, cfg.bob_state_set)
        # the rounds in which a dishonest node draws its announcements
        self.fake_stages = frozenset() if cfg.attack is None else cfg.attack.fake_stages
        self.known: list[np.ndarray | None] = [None, None]
        self.case_iii: dict[int, set[int]] = {}  # per row, bob's items at case III slots
        self.message_slots: dict[str, np.ndarray] = {}  # per stage-2 leg
        self.views: tuple | None = None  # the decoded rows' announcements, for Eve

    def run(self) -> list[SessionReport]:
        """Run every session to its report; returns the reports by row."""
        self._prepare()
        stages = [self._stage1, self._stage1_checks, self._encode_and_send,
                  self._stage2_checks, self._decode_round]
        if self.cfg.mode is Mode.QD:
            stages.insert(0, self._nested_shares)
        for stage in stages:
            if not self.alive.any():
                break
            stage()
        self._attach_ancilla_bits(measure_ancillas(self.arena, self.eve, self.rngs))
        # alice's message-pair labels may be revealed when her choices are private
        alice = set(range(self.cfg.n_pairs)) if len(self.cfg.alice_state_set) > 1 else set()
        for row, report in enumerate(self.reports):
            bob = self.case_iii.get(row, set())
            validate_order(report.transcript, {"alice": alice, "bob": bob})
        return self.reports

    def _live(self) -> tuple:
        """The rows still alive, as an array and as an index of per-row arrays
        (a slice while every row is), with their streams and reports."""
        if self.alive.all():
            return np.arange(len(self.alive)), slice(None), self.rngs, self.reports
        live = self.alive.nonzero()[0]
        rows = live.tolist()
        return live, live, [self.rngs[r] for r in rows], [self.reports[r] for r in rows]

    def _rows(self, values: np.ndarray, live: np.ndarray) -> np.ndarray:
        """A per-row array with ``values`` at the rows ``live``."""
        if len(live) == len(self.alive):
            return values
        out = np.zeros((len(self.alive), *values.shape[1:]), dtype=values.dtype)
        out[live] = values
        return out

    def _measure(self, op: str, qubits: np.ndarray, rngs: list, counts) -> np.ndarray:
        """One measuring round; each session draws its items' uniforms."""
        u = np.concatenate([rng.random(c) for rng, c in zip(rngs, counts)])
        return run_round(op, self.arena, qubits, u)

    def _abort(self, row: int, stage: str, rate: float, kind: str) -> None:
        """Stop a session, recording in its report why."""
        r = self.reports[row]
        r.aborted, r.abort_stage, r.abort_rate, r.abort_kind = True, stage, rate, kind
        self.alive[row] = False

    # -- preparation ---------------------------------------------------------

    def _prepare(self) -> None:
        cfg, n, rows = self.cfg, self.cfg.n_pairs, len(self.rngs)
        counts = (n, cfg.stage1_decoy_count, cfg.whole_decoy_count, cfg.split_decoy_count)
        ends = list(accumulate(counts))
        self.blocks = [slice(start, end) for start, end in zip([0, *ends], ends)]
        codes, qubits, decoys = [], [], cfg.decoy_policy.labels
        for name, state_set in zip(_NAMES, self.state_sets):
            codes.append(np.array([
                np.concatenate([draw_codes(state_set, n, rng),
                                draw_codes(decoys, ends[-1] - n, rng)])
                for rng in self.rngs
            ]))
            qubits.append(self.arena.add_bell_pairs(codes[-1].ravel(), name))
        self.codes = np.array(codes).swapaxes(0, 1)
        self.qubits = np.array(qubits).reshape(2, rows, -1, 2).swapaxes(0, 1)
        for side, state_set in enumerate(self.state_sets):
            if len(state_set) == 1:
                self.known[1 - side] = self.codes[:, side, :n]

    # -- dialogue preliminaries ----------------------------------------------

    def _nested_shares(self) -> None:
        """Dialogue step 1: each party with a private choice set transmits its
        prepared labels to the other through a nested direct-message session.

        One choice costs ceil(log2(set size)) bits; the nested session is
        sized at n_pairs * bits_per_choice, whose guaranteed case-IV floor of
        half the pair count always covers the payload.  A decoded index
        outside the set is a corrupt share and aborts the session; a wrong
        label inside the set cannot be seen by the parties and is only counted
        (``SessionReport.nested_label_errors``).  The nested sessions of the
        live rows run as one nested cohort on this cohort's arena.
        """
        cfg = self.cfg
        n = cfg.n_pairs
        for side in (1, 0):
            state_set = self.state_sets[side]
            live, sel, rngs, reports = self._live()
            if len(state_set) == 1 or not len(live):
                continue
            bpc = (len(state_set) - 1).bit_length()  # bits per choice
            set_codes = np.fromiter(map(BELL_LABELS.index, state_set), np.intp, len(state_set))
            prepared = self.codes[sel, side, :n]
            choices = np.argmax(prepared[:, :, None] == set_codes, axis=2)
            shifts = np.arange(bpc - 1, -1, -1)  # msb first
            bits = (choices[:, :, None] >> shifts & 1).reshape(len(live), -1)
            bits = np.concatenate([bits, np.zeros((len(live), n * bpc % 2), int)], axis=1)
            payloads = (2 * bits[:, 0::2] + bits[:, 1::2]).tolist()  # two bits per symbol
            nested_cfg = SessionConfig(
                n_pairs=n * bpc,
                mode=Mode.QSDC,
                decoy_policy=cfg.decoy_policy,
                noise=cfg.noise,
                error_threshold=cfg.error_threshold,
                master_seed=cfg.master_seed,
            )
            nested = [
                Session(nested_cfg, np.random.default_rng(int(rng.integers(2**63))),
                        report.session_index, payload)
                for rng, report, payload in zip(rngs, reports, payloads)
            ]
            symbols = np.zeros((len(live), len(payloads[0])), dtype=np.intp)
            shares = Cohort(nested, self.arena).run()
            for i, (report, rep) in enumerate(zip(reports, shares)):
                report.nested += (rep,)
                if not rep.aborted:
                    symbols[i] = rep.decoded_symbols["bob"][: symbols.shape[1]]
            bits = (symbols[:, :, None] >> np.array([1, 0]) & 1).reshape(len(live), -1)
            choices = bits[:, : n * bpc].reshape(len(live), n, bpc) @ (1 << shifts)
            known = set_codes[np.minimum(choices, len(state_set) - 1)]
            self.known[1 - side] = self._rows(known, live)
            corrupt = (choices.max(axis=1) >= len(state_set)).tolist()
            errors = (known != prepared).sum(axis=1).tolist()
            for row, rep, bad, wrong in zip(live.tolist(), shares, corrupt, errors):
                if rep.aborted or bad:
                    self._abort(row, "nested", 1.0, "nested")
                else:
                    self.reports[row].nested_label_errors += wrong

    # -- round 1: swap ---------------------------------------------------------

    def _transmit(self, side: int, stage: int, qubits: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Send one party's qubits (arena indices; ``rows`` gives each one's
        session) through the channel to the node; returns what arrives."""
        name, arena = _NAMES[side], self.arena
        arena.transfer_many(qubits, "channel", expect=name)
        if self.cfg.noise is not None:
            run_round("apply_unitary", arena, qubits, self.cfg.noise.matrix())
        leg = f"stage{stage}_{name}"
        arrived = apply_leg_attack(self.cfg.attack, arena, self.eve, leg, qubits, rows, self.rngs)
        arena.transfer_many(arrived, "charlie")
        return arrived

    def _stage1(self) -> None:
        n, k = self.cfg.n_pairs, self.cfg.stage1_decoy_count
        live, sel, rngs, reports = self._live()
        S, L = len(live), n + k
        # the message pairs and stage-1 decoys are the first n + k pairs
        slots = np.array([_decoy_slots([L] * S, k, rngs) for _ in _NAMES])
        decoy = np.zeros((2 * S, L), dtype=bool)
        decoy[np.arange(2 * S)[:, None], slots.reshape(2 * S, k)] = True
        orders = _slot_items(decoy, n).reshape(2, S, L)
        travel, rows = self.qubits[sel, :, :, 1], np.arange(S)[:, None]
        occupants = [
            self._transmit(side, 1, travel[rows, side, order].ravel(), live.repeat(L))
            for side, order in enumerate(orders)
        ]
        if 1 in self.fake_stages:
            bmo1 = fake_bmo_outcome(rngs, L)
        else:
            bmo1 = self._measure("bell_measure", np.array(occupants).T, rngs, [L] * S)
            bmo1 = bmo1.reshape(S, L)
        for report, codes in zip(reports, bmo1.tolist()):
            _announce(report, 1, range(L), codes)
        self.slots1 = self._rows(slots.swapaxes(0, 1), live)
        self.orders = self._rows(orders.swapaxes(0, 1), live)
        self.bmo1 = self._rows(bmo1, live)

    def _stage1_checks(self) -> None:
        cfg, n = self.cfg, self.cfg.n_pairs
        live, sel, rngs, reports = self._live()
        orders = self.orders[sel]
        cases = classify_cases(orders[:, 0] >= n, orders[:, 1] >= n)
        self.cases = self._rows(cases, live)
        checked = cases == _CASE_I if cfg.use_cases_ii_iii else cases != _CASE_IV
        rows, slots = checked.nonzero()
        at, items, per_row = live[rows], orders[rows, :, slots], checked.sum(axis=1)
        homes = self.qubits[at[:, None], (0, 1), items, 0]
        bits = self._measure("comp_measure", homes.ravel(), rngs, 2 * per_row).reshape(-1, 2)
        codes = self.codes[at[:, None], (0, 1), items]
        correlated = correlated_table()[codes[:, 0], codes[:, 1], self.bmo1[at, slots]]
        fails = np.bincount(rows[(bits[:, 0] == bits[:, 1]) != correlated], minlength=len(live))
        # the entangled side of a mixed slot discloses its label for the
        # check: bob always, alice only when her choices are private
        reveals = []
        for side, case in ((1, _CASE_III), (0, _CASE_II)):
            if side == 0 and len(cfg.alice_state_set) == 1:
                continue
            mixed_rows, mixed_slots = (cases == case).nonzero()
            refs = orders[mixed_rows, side, mixed_slots]
            per = np.bincount(mixed_rows, minlength=len(live))
            labels = self.codes[live[mixed_rows], side, refs]
            reveals.append((_NAMES[side], _split(refs, per), _split(labels, per)))
        self.case_iii.update(zip(live.tolist(), map(set, reveals[0][1])))
        shown = [] if cfg.use_cases_ii_iii else reveals
        columns = zip(
            live.tolist(), reports, self.slots1[sel].tolist(),
            self.codes[sel, :, self.blocks[1]].tolist(),
            (cases[:, :, None] == np.arange(4)).sum(axis=1).tolist(),
            _split(slots, per_row), _split(bits, per_row), per_row.tolist(), fails.tolist(),
            range(len(live)),
        )
        for row, report, positions, decoy_codes, case_counts, ids, pairs, checks, f, i in columns:
            transcript = report.transcript
            for name, split in zip(_NAMES, positions):
                transcript.append(name, DecoyPositions(name, 1, split_positions=tuple(split)))
            for name, labels in zip(_NAMES, decoy_codes):
                transcript.append(name, InitialStateReveal(name, 1, "decoy", _labelled(labels)))
            for name, refs, labels in shown:
                if refs[i]:
                    reveal = InitialStateReveal(name, 1, "message", _labelled(labels[i], refs[i]))
                    transcript.append(name, reveal)
            transcript.append_run("alice", CorrelationRecord, 1, ids, map(tuple, pairs))
            report.case_counts = dict(zip(report.case_counts, case_counts))
            report.stage1_checks, report.stage1_failures = checks, f
            rate = f / checks if checks else 0.0
            if rate > cfg.error_threshold:
                self._abort(row, "stage1", rate, "stage1_correlation")

    # -- round 2: encode, send, verify -----------------------------------------

    def _encode_and_send(self) -> None:
        cfg = self.cfg
        live, sel, rngs, reports = self._live()
        cases = self.cases[sel]
        survive = cases != _CASE_I if cfg.use_cases_ii_iii else cases == _CASE_IV
        rows, slots = survive.nonzero()
        at = live[rows]
        items, counts = self.orders[at, :, slots], survive.sum(axis=1)
        homes = self.qubits[at[:, None], (0, 1), items, 0]
        symbols = np.zeros_like(items)
        for side in (0, 1) if cfg.mode is Mode.QD else (0,):
            sent = []
            for row, rng, report, n_sym in zip(live.tolist(), rngs, reports, counts.tolist()):
                payload = self.payloads[row]
                if side == 0 and payload is not None:
                    if len(payload) > n_sym:
                        raise ProtocolError(
                            f"payload of {len(payload)} symbols exceeds capacity {n_sym}"
                        )
                    sent.append(payload + [0] * (n_sym - len(payload)))
                else:
                    sent.append(rng.integers(0, 4, size=n_sym).tolist())
                report.sent_symbols[_NAMES[side]] = tuple(sent[-1])
            # a symbol is its Pauli's code
            symbols[:, side] = list(chain.from_iterable(sent))
            run_round("apply_pauli", self.arena, homes[:, side], symbols[:, side])
        # per party, the whole decoys' two halves, then the split decoys' traveling halves
        whole = self.qubits[sel, :, self.blocks[2]].reshape(len(live), 2, -1)
        decoys = np.concatenate([whole, self.qubits[sel, :, self.blocks[3], 1]], axis=2)
        lengths = (counts + decoys.shape[2]).tolist()
        self.starts2 = np.array([0, *accumulate(lengths)][:-1])  # each row's first slot
        rows2 = live.repeat(lengths)
        slots2, self.occupants2 = [], []
        for side, name in enumerate(_NAMES):
            slots2.append(_decoy_slots(lengths, decoys.shape[2], rngs))
            decoy = np.zeros(len(rows2), dtype=bool)
            decoy[(slots2[-1] + self.starts2[:, None]).ravel()] = True
            sent = np.empty(len(rows2), dtype=np.intp)
            sent[~decoy], sent[decoy] = homes[:, side], decoys[:, side].ravel()
            self.occupants2.append(self._transmit(side, 2, sent, rows2))
            self.message_slots[f"stage2_{name}"] = ~decoy
        self.slots2 = np.array(slots2).swapaxes(0, 1)
        self.survivors = (at, slots, items, symbols)
        self.n_sym = self._rows(counts, live)

    def _stage2_checks(self) -> None:
        cfg = self.cfg
        live, sel, rngs, reports = self._live()
        S, whole, split = len(live), self.blocks[2], self.blocks[3]
        n_whole, n_split = whole.stop - whole.start, split.stop - split.start
        w = 2 * n_whole  # whole-pair slots per sequence
        flat = self.slots2 + self.starts2[:, None, None]
        outcomes, bits = [], []
        for side in (0, 1):
            occupants, homes = self.occupants2[side], self.qubits[sel, side, split, 0].ravel()
            if 2 in self.fake_stages:
                outcomes.append(fake_bmo_outcome(rngs, n_whole))
                # the node's bit is a draw, interleaved with the home readouts' uniforms
                draws = [row_draws(rng, 2, 1, n_split) for rng in rngs]
                u = np.concatenate([u[:, 0] for _, u in draws])
                o_bits = run_round("comp_measure", self.arena, homes, u)
                bits.append(np.array([np.concatenate([c for c, _ in draws]), o_bits]).T)
            else:
                pairs = occupants[flat[:, side, :w]].reshape(-1, 2)
                outcomes.append(self._measure("bell_measure", pairs, rngs, [n_whole] * S))
                pairs = np.array([occupants[flat[:, side, w:].ravel()], homes]).T.ravel()
                bits.append(self._measure("comp_measure", pairs, rngs, [2 * n_split] * S))
        outcomes = np.reshape(outcomes, (2, S, n_whole)).swapaxes(0, 1)
        bits = np.reshape(bits, (2, S, n_split, 2)).swapaxes(0, 1)
        codes = self.codes[sel, :, whole.start:]
        gv_fails = (outcomes != codes[:, :, :n_whole]).sum(axis=(1, 2))
        uncorrelated = (bits[..., 0] == bits[..., 1]) != _IS_CORRELATED[codes[:, :, n_whole:]]
        columns = zip(
            live.tolist(), reports, self.slots2.tolist(), outcomes.tolist(), bits.tolist(),
            codes.tolist(), gv_fails.tolist(), uncorrelated.sum(axis=(1, 2)).tolist(),
        )
        checks = w + 2 * n_split
        for row, report, positions, announced, readouts, decoy_codes, gv, sp in columns:
            transcript = report.transcript
            transcript.append("charlie", Receipt(2))
            for name, at in zip(_NAMES, positions):
                pairs = tuple(zip(at[0:w:2], at[1:w:2]))
                transcript.append(name, DecoyPositions(name, 2, tuple(at[w:]), pairs))
            for at, codes, pairs in zip(positions, announced, readouts):
                _announce(report, 2, at[0:w:2], codes)
                transcript.append_run("charlie", CorrelationRecord, 2, at[w:], map(tuple, pairs))
            for name, labels in zip(_NAMES, decoy_codes):
                labelled = (*_labelled(labels[:n_whole]), *_labelled(labels[n_whole:]))
                transcript.append(name, InitialStateReveal(name, 2, "decoy", labelled))
            report.stage2_gv_checks, report.stage2_gv_failures = w, gv
            report.stage2_split_checks, report.stage2_split_failures = 2 * n_split, sp
            rate = (gv + sp) / checks if checks else 0.0
            if rate > cfg.error_threshold:
                failed = [kind for kind, count in (("gv", gv), ("split", sp)) if count]
                self._abort(row, "stage2", rate, "stage2_" + "+".join(failed))

    # -- round 3: decode ---------------------------------------------------------

    def _decode_round(self) -> None:
        cfg, n = self.cfg, self.cfg.n_pairs
        qd = cfg.mode is Mode.QD
        live, sel, rngs, reports = self._live()
        at, slots, items, symbols = self.survivors
        keep = self.alive[at]
        at, slots, items, symbols = at[keep], slots[keep], items[keep], symbols[keep]
        counts = self.n_sym[sel].tolist()
        prepared = self.codes[at[:, None], (0, 1), items]
        reveals = repeat(None)
        if not qd and len(cfg.alice_state_set) > 1:
            # the sender's choices are disclosed for decoding once the swap
            # round is committed; the receiver's stay private
            message = items[:, 0] < n
            per = np.bincount(np.arange(len(live)).repeat(counts)[message], minlength=len(live))
            reveals = zip(_split(prepared[message, 0], per), _split(items[message, 0], per))
            self.known[1] = self.codes[:, 0, :n]
        pairs = np.array([
            occupants[self.message_slots[f"stage2_{name}"]][keep]
            for occupants, name in zip(self.occupants2, _NAMES)
        ]).T
        bmo2 = self._measure("bell_measure", pairs, rngs, counts)
        bmo1 = self.bmo1[at, slots]
        # each decoder recovers the other side's operator, reading that
        # side's message-pair labels from what it knows of them
        decoded = {}
        for decoder in (1, 0) if qd else (1,):
            side = 1 - decoder
            init = prepared.copy()
            init[:, side] = np.where(
                items[:, side] < n,
                self.known[decoder][at, np.minimum(items[:, side], n - 1)],
                prepared[:, side],
            )
            own = symbols[:, decoder] if qd else 4
            got = decode_table()[init[:, 0], init[:, 1], bmo1, bmo2, own, side]
            decoded[_NAMES[decoder]] = _split(got, counts)
        columns = zip(reports, counts, _split(bmo2, counts), reveals)
        for i, (report, count, announced, reveal) in enumerate(columns):
            if reveal is not None:
                labels = _labelled(*reveal)
                report.transcript.append("alice", InitialStateReveal("alice", 3, "message", labels))
            _announce(report, 3, range(count), announced)
            for name, rows in decoded.items():
                report.decoded_symbols[name] = tuple(rows[i])
        self.views = (reports, counts, bmo1, bmo2, keep)

    # -- wrap-up -------------------------------------------------------------------

    def _attach_ancilla_bits(self, bits: list[np.ndarray]) -> None:
        """Give each decoded session its ``eve_views``: per message slot, both
        announcements and Eve's readouts (``bits``, one array per entry of
        ``eve.ancillas``) of the ancillas coupled to that slot in round 2."""
        if self.views is None:
            return
        reports, counts, bmo1, bmo2, keep = self.views
        legs = [
            leg_bits[self.message_slots[leg]][keep].tolist()
            for (leg, _, _), leg_bits in zip(self.eve.ancillas, bits)
            if leg in self.message_slots
        ]
        views = list(zip(
            map(_VALUES.__getitem__, bmo1.tolist()),
            map(_VALUES.__getitem__, bmo2.tolist()),
            zip(*legs) if legs else repeat(()),
        ))
        ends = list(accumulate(counts))
        for report, start, end in zip(reports, [0, *ends], ends):
            report.eve_views = tuple(views[start:end])


def session_rng(master_seed: int, session_index: int) -> np.random.Generator:
    """Per-session stream derived deterministically from (seed, index)."""
    return np.random.default_rng([master_seed, session_index])


def run_session(cfg: SessionConfig, session_index: int = 0) -> SessionReport:
    """Execute one full session under its deterministic per-session stream."""
    session = Session(cfg, session_rng(cfg.master_seed, session_index), session_index)
    return session.run()


# Sessions a batch runs as one cohort, their qubits on one arena.  A taller
# cohort spreads each stage's fixed cost over more sessions; the cap bounds
# the arena, which keeps every register row of its cohort until the cohort
# ends (a run attacked on every leg peaks 2.4 MB higher at 64 than at 32).
COHORT = 32


def run_batch(
    cfg: SessionConfig, sessions: int, workers: int = 1
) -> list[SessionReport]:
    """Run independent sessions, ``COHORT`` at a time as one cohort on one
    arena; results are ordered by session index.  ``workers`` accepts only 1:
    it exists because ``perfbench/workloads.py`` passes it, and ROADMAP item
    1 removes it."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    reports: list[SessionReport] = []
    for start in range(0, sessions, COHORT):
        cohort = [
            Session(cfg, session_rng(cfg.master_seed, i), i)
            for i in range(start, min(start + COHORT, sessions))
        ]
        reports += Cohort(cohort, QubitArena()).run()
    return reports


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
