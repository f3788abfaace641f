"""Append-only log of classical announcements made during a session.

Every public utterance (measurement outcomes, decoy positions, state
reveals, receipts, correlation bits) lands here in order.  The transcript is
what an eavesdropper sees, what golden-file tests freeze, and what the
ordering validator inspects: private data must never appear before the
protocol step that discloses it.

Stage numbering: 1 = swap round, 2 = verification round, 3 = decode round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterable, Iterator, Union

from .quantum import BellLabel


class TranscriptOrderError(Exception):
    """An announcement appeared before the step that permits it."""


@dataclass(frozen=True)
class BMOAnnouncement:
    """Measurement-node outcome announcement for one measured pair."""

    stage: int
    index: int
    outcome: BellLabel


@dataclass(frozen=True)
class Receipt:
    """Acknowledgement that all qubits of a round arrived (ideal broadcast)."""

    stage: int


@dataclass(frozen=True)
class DecoyPositions:
    """Owner's disclosure of where verification qubits sit in a sequence.

    ``split_positions`` are slots holding the traveling half of a split
    pair; ``whole_positions`` pairs up the two slots of each whole pair.
    """

    owner: str
    stage: int
    split_positions: tuple[int, ...] = ()
    whole_positions: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class InitialStateReveal:
    """Owner's disclosure of prepared Bell labels, keyed by reference index.

    ``kind`` is "decoy" for verification pairs and "message" for entangled
    message pairs (the latter only ever for indices the protocol allows).
    """

    owner: str
    stage: int
    kind: str
    labels: tuple[tuple[int, BellLabel], ...]


@dataclass(frozen=True)
class CorrelationRecord:
    """Publicly compared computational-basis bits for one checked slot."""

    stage: int
    index: int
    bits: tuple[int, int]


Event = Union[BMOAnnouncement, Receipt, DecoyPositions, InitialStateReveal, CorrelationRecord]


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    actor: str
    event: Event


def _payload(event: Event) -> str:
    if isinstance(event, BMOAnnouncement):
        return f"index={event.index} outcome={event.outcome.value}"
    if isinstance(event, Receipt):
        return "-"
    if isinstance(event, DecoyPositions):
        split = ",".join(str(p) for p in event.split_positions) or "-"
        whole = ",".join(f"{i}:{j}" for i, j in event.whole_positions) or "-"
        return f"split={split} whole={whole}"
    if isinstance(event, InitialStateReveal):
        labels = ",".join(f"{i}:{lab.value}" for i, lab in event.labels) or "-"
        return f"kind={event.kind} labels={labels}"
    if isinstance(event, CorrelationRecord):
        return f"index={event.index} bits={event.bits[0]},{event.bits[1]}"
    raise TypeError(f"unknown event type {type(event)!r}")  # pragma: no cover


_KIND_NAMES = {
    BMOAnnouncement: "bmo",
    Receipt: "receipt",
    DecoyPositions: "decoy_positions",
    InitialStateReveal: "state_reveal",
    CorrelationRecord: "correlation",
}


class Transcript:
    """Ordered, append-only announcement log with monotone sequence numbers."""

    def __init__(self) -> None:
        self._entries: list[TranscriptEntry] = []

    def append(self, actor: str, event: Event) -> TranscriptEntry:
        entry = TranscriptEntry(seq=len(self._entries), actor=actor, event=event)
        self._entries.append(entry)
        return entry

    def extend(self, actor: str, events: Iterable[Event]) -> None:
        """Append ``events`` in order, all by ``actor``, as one append per
        event would."""
        self._entries += map(TranscriptEntry, count(len(self._entries)), repeat(actor), events)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def serialize(self) -> str:
        """One announcement per line: seq, stage, actor, kind, payload."""
        lines = []
        for e in self._entries:
            kind = _KIND_NAMES[type(e.event)]
            lines.append(
                f"{e.seq}\t{e.event.stage}\t{e.actor}\t{kind}\t{_payload(e.event)}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def validate_order(
    transcript: Transcript,
    allowed_message_reveals: dict[str, set[int]] | None = None,
) -> None:
    """Structural check that no private data is announced early.

    Rules enforced:
      * sequence numbers strictly increase;
      * stage-1 decoy positions and stage-1 state reveals come after every
        stage-1 outcome announcement (the measurement node commits first);
      * stage-2 positions come only after the stage-2 receipt;
      * stage-2 outcome announcements come after stage-2 positions, and
        stage-2 decoy-label reveals only after those outcomes (so a dishonest
        node cannot tailor fake announcements to the labels);
      * message-pair label reveals are restricted to the per-owner index sets
        in ``allowed_message_reveals`` (empty set when the owner's choice
        must stay private, as for the receiver's pairs used for decoding).
    """
    allowed = allowed_message_reveals or {}
    # first and last seq of each (event type, stage, reveal kind)
    first: dict[tuple, int] = {}
    last: dict[tuple, int] = {}
    messages: list[TranscriptEntry] = []
    prev = -1
    for entry in transcript:
        if entry.seq <= prev:
            raise TranscriptOrderError("sequence numbers must increase")
        prev = entry.seq
        event = entry.event
        kind = event.kind if isinstance(event, InitialStateReveal) else None
        key = (type(event), event.stage, kind)
        first.setdefault(key, entry.seq)
        last[key] = entry.seq
        if kind == "message":
            messages.append(entry)

    # a rule holds vacuously when either of its events is absent
    inf = math.inf
    bmo1, bmo2 = (BMOAnnouncement, 1, None), (BMOAnnouncement, 2, None)
    pos1, pos2 = (DecoyPositions, 1, None), (DecoyPositions, 2, None)
    receipt2 = (Receipt, 2, None)
    if first.get(pos1, inf) < last.get(bmo1, -inf):
        raise TranscriptOrderError("stage-1 positions announced before all stage-1 outcomes")
    if first.get((InitialStateReveal, 1, "decoy"), inf) < last.get(bmo1, -inf):
        raise TranscriptOrderError("stage-1 decoy labels revealed before all stage-1 outcomes")
    if pos2 in first:
        if receipt2 not in first:
            raise TranscriptOrderError("stage-2 positions announced without a receipt")
        if first[pos2] < first[receipt2]:
            raise TranscriptOrderError("stage-2 positions announced before the receipt")
    if first.get(bmo2, inf) < last.get(pos2, -inf):
        raise TranscriptOrderError("stage-2 outcomes announced before positions")
    if first.get((InitialStateReveal, 2, "decoy"), inf) < last.get(bmo2, -inf):
        raise TranscriptOrderError("stage-2 decoy labels revealed before all stage-2 outcomes")

    for e in messages:
        permitted = allowed.get(e.event.owner, set())
        for index, _lab in e.event.labels:
            if index not in permitted:
                raise TranscriptOrderError(
                    f"{e.event.owner} revealed a private message-pair label (index {index})"
                )
        if e.seq < last.get(bmo1, -inf):
            raise TranscriptOrderError("message-pair label revealed before stage-1 outcomes")
