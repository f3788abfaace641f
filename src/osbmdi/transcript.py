"""Append-only log of classical announcements made during a session.

Every public utterance (measurement outcomes, decoy positions, state
reveals, receipts, correlation bits) lands here in order.  The transcript is
what an eavesdropper sees, what golden-file tests freeze, and what the
ordering validator inspects: private data must never appear before the
protocol step that discloses it.

The log is kept as runs: each ``append`` or ``append_run`` call stores one
immutable run (first seq, length, actor, event type, stage, reveal kind and
one column per remaining event field), so a round of announcements is
logged without building a record per announcement.  Records
(``TranscriptEntry`` holding an event) are built only when someone reads
them, by iteration or ``serialize``; ``validate_order`` reads the run
bounds.

Stage numbering: 1 = swap round, 2 = verification round, 3 = decode round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Union

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


# Per event type: the names of its fields other than ``stage``, which a run
# holds one column of each, in field order, and where ``stage`` sits among
# the fields (events are rebuilt positionally).
_COLUMNS = {
    cls: tuple(f.name for f in fields(cls) if f.name != "stage") for cls in _KIND_NAMES
}
_STAGE_AT = {cls: [f.name for f in fields(cls)].index("stage") for cls in _KIND_NAMES}
_KIND_AT = _COLUMNS[InitialStateReveal].index("kind")


class _Run(NamedTuple):
    """``length`` announcements by ``actor`` with seqs ``start`` on, all of
    one event type, stage and reveal kind (``None`` but for state reveals);
    ``columns`` holds the event's other fields, one tuple per field."""

    start: int
    length: int
    actor: str
    event: type
    stage: int
    kind: str | None
    columns: tuple[tuple, ...]


def _entries(run: _Run) -> Iterator[TranscriptEntry]:
    """The run's records, built as they are read."""
    columns = list(run.columns)
    columns.insert(_STAGE_AT[run.event], repeat(run.stage))
    seqs = range(run.start, run.start + run.length)
    return map(TranscriptEntry, seqs, repeat(run.actor), map(run.event, *columns))


class Transcript:
    """Ordered, append-only announcement log with monotone sequence numbers,
    kept as one immutable ``_Run`` per ``append`` or ``append_run`` call."""

    def __init__(self) -> None:
        self._runs: list[_Run] = []
        self._len = 0

    def append(self, actor: str, event: Event) -> None:
        """Log one announcement as a run of one."""
        cls = type(event)
        if cls not in _COLUMNS:
            raise TypeError(f"unknown event type {cls!r}")
        kind = event.kind if cls is InitialStateReveal else None
        columns = tuple((getattr(event, f),) for f in _COLUMNS[cls])
        self._runs.append(_Run(self._len, 1, actor, cls, event.stage, kind, columns))
        self._len += 1

    def append_run(self, actor: str, event: type, stage: int, *columns: Iterable) -> None:
        """Log ``event(...)`` announcements by ``actor`` at ``stage``, one per
        row of ``columns`` (one column per field but ``stage``, in field
        order), as one append per row would.  The columns are copied; a type
        with no other field (``Receipt``) logs one announcement."""
        if event not in _COLUMNS:
            raise TypeError(f"unknown event type {event!r}")
        names = _COLUMNS[event]
        if len(columns) != len(names):
            raise ValueError(f"{event.__name__} takes {len(names)} columns, got {len(columns)}")
        columns = tuple(map(tuple, columns))
        lengths = set(map(len, columns)) or {1}
        if len(lengths) > 1:
            raise ValueError(f"{event.__name__} columns differ in length")
        (length,) = lengths
        if not length:
            return
        kind = None
        if event is InitialStateReveal:
            kinds = set(columns[_KIND_AT])
            if len(kinds) > 1:
                raise ValueError("one run reveals one kind of label")
            (kind,) = kinds
        self._runs.append(_Run(self._len, length, actor, event, stage, kind, columns))
        self._len += length

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return chain.from_iterable(map(_entries, self._runs))

    def __len__(self) -> int:
        return self._len

    def serialize(self) -> str:
        """One announcement per line: seq, stage, actor, kind, payload."""
        lines = []
        for e in self:
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
      * each run of announcements starts where the last one ended, so
        sequence numbers strictly increase;
      * stage-1 decoy positions and stage-1 state reveals come after every
        stage-1 outcome announcement (the measurement node commits first);
      * stage-2 positions come only after the stage-2 receipt;
      * stage-2 outcome announcements come after stage-2 positions, and
        stage-2 decoy-label reveals only after those outcomes (so a dishonest
        node cannot tailor fake announcements to the labels);
      * message-pair label reveals are restricted to the per-owner index sets
        in ``allowed_message_reveals`` (empty set when the owner's choice
        must stay private, as for the receiver's pairs used for decoding).

    A run's seqs are consecutive and its announcements share one key, so the
    rules read each run's first and last seq, not its records.
    """
    allowed = allowed_message_reveals or {}
    # first and last seq of each (event type, stage, reveal kind)
    first: dict[tuple, int] = {}
    last: dict[tuple, int] = {}
    messages: list[_Run] = []
    end = 0
    for run in transcript._runs:
        if run.start != end:
            raise TranscriptOrderError("sequence numbers must increase")
        end = run.start + run.length
        key = (run.event, run.stage, run.kind)
        first.setdefault(key, run.start)
        last[key] = end - 1
        if run.kind == "message":
            messages.append(run)

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

    for e in chain.from_iterable(map(_entries, messages)):
        permitted = allowed.get(e.event.owner, set())
        for index, _lab in e.event.labels:
            if index not in permitted:
                raise TranscriptOrderError(
                    f"{e.event.owner} revealed a private message-pair label (index {index})"
                )
        if e.seq < last.get(bmo1, -inf):
            raise TranscriptOrderError("message-pair label revealed before stage-1 outcomes")
