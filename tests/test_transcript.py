"""Transcript serialization, ordering rules, and the golden replay."""
import math
from dataclasses import fields
from itertools import groupby

import pytest
from test_protocol import _CONFIGS

from osbmdi.protocol import Mode, SessionConfig, run_batch, run_session
from osbmdi.quantum import BellLabel
from osbmdi.transcript import (
    BMOAnnouncement,
    CorrelationRecord,
    DecoyPositions,
    InitialStateReveal,
    Receipt,
    Transcript,
    TranscriptEntry,
    TranscriptOrderError,
    validate_order,
)

PSIP = BellLabel.PSI_PLUS


def test_entries_get_monotone_sequence_numbers():
    t = Transcript()
    t.append("charlie", BMOAnnouncement(1, 0, PSIP))
    t.append("alice", DecoyPositions("alice", 1, split_positions=(1,)))
    a, b = list(t)
    assert (a.seq, b.seq) == (0, 1)
    assert len(t) == 2


def test_serialization_one_line_per_entry():
    t = Transcript()
    t.append("charlie", BMOAnnouncement(1, 3, PSIP))
    t.append("charlie", Receipt(2))
    t.append("alice", DecoyPositions("alice", 2, split_positions=(0, 4), whole_positions=((1, 2),)))
    t.append("bob", InitialStateReveal("bob", 2, "decoy", ((0, PSIP),)))
    t.append("alice", CorrelationRecord(2, 4, (0, 1)))
    lines = t.serialize().splitlines()
    assert lines[0] == "0\t1\tcharlie\tbmo\tindex=3 outcome=psi+"
    assert lines[1] == "1\t2\tcharlie\treceipt\t-"
    assert lines[2] == "2\t2\talice\tdecoy_positions\tsplit=0,4 whole=1:2"
    assert lines[3] == "3\t2\tbob\tstate_reveal\tkind=decoy labels=0:psi+"
    assert lines[4] == "4\t2\talice\tcorrelation\tindex=4 bits=0,1"


def test_validator_accepts_correct_order():
    t = Transcript()
    t.append("charlie", BMOAnnouncement(1, 0, PSIP))
    t.append("alice", DecoyPositions("alice", 1, split_positions=(0,)))
    t.append("alice", InitialStateReveal("alice", 1, "decoy", ((0, PSIP),)))
    t.append("charlie", Receipt(2))
    t.append("alice", DecoyPositions("alice", 2, whole_positions=((0, 1),)))
    t.append("charlie", BMOAnnouncement(2, 0, PSIP))
    t.append("alice", InitialStateReveal("alice", 2, "decoy", ((0, PSIP),)))
    validate_order(t)


def test_validator_rejects_positions_before_outcomes():
    t = Transcript()
    t.append("alice", DecoyPositions("alice", 1, split_positions=(0,)))
    t.append("charlie", BMOAnnouncement(1, 0, PSIP))
    with pytest.raises(TranscriptOrderError):
        validate_order(t)


def test_validator_rejects_stage2_positions_without_receipt():
    t = Transcript()
    t.append("alice", DecoyPositions("alice", 2, split_positions=(0,)))
    with pytest.raises(TranscriptOrderError):
        validate_order(t)


def test_validator_rejects_stage2_reveal_before_outcomes():
    t = Transcript()
    t.append("charlie", Receipt(2))
    t.append("alice", DecoyPositions("alice", 2, whole_positions=((0, 1),)))
    t.append("alice", InitialStateReveal("alice", 2, "decoy", ((0, PSIP),)))
    t.append("charlie", BMOAnnouncement(2, 0, PSIP))
    with pytest.raises(TranscriptOrderError):
        validate_order(t)


def test_validator_rejects_private_message_reveal():
    t = Transcript()
    t.append("charlie", BMOAnnouncement(1, 0, PSIP))
    t.append("bob", InitialStateReveal("bob", 1, "message", ((2, PSIP),)))
    with pytest.raises(TranscriptOrderError):
        validate_order(t, {"bob": {0, 1}})
    validate_order(t, {"bob": {2}})


BMO1, BMO2 = BMOAnnouncement(1, 0, PSIP), BMOAnnouncement(2, 0, PSIP)
POS1 = DecoyPositions("alice", 1, split_positions=(0,))
POS2 = DecoyPositions("alice", 2, whole_positions=((0, 1),))
DECOYS1 = InitialStateReveal("alice", 1, "decoy", ((0, PSIP),))
DECOYS2 = InitialStateReveal("alice", 2, "decoy", ((0, PSIP),))
MESSAGE = InitialStateReveal("bob", 1, "message", ((2, PSIP),))

# One transcript per ordering error; each breaks one rule, except the last,
# which breaks two and gets the message of the rule checked first.
ORDER_ERRORS = [
    ("repeated seq", (BMO1, BMO1), "sequence numbers must increase"),
    ("stage-1 positions", (POS1, BMO1), "stage-1 positions announced before all stage-1 outcomes"),
    ("stage-1 labels", (DECOYS1, BMO1),
     "stage-1 decoy labels revealed before all stage-1 outcomes"),
    ("no receipt", (POS2,), "stage-2 positions announced without a receipt"),
    ("stage-2 positions", (POS2, Receipt(2)), "stage-2 positions announced before the receipt"),
    ("stage-2 outcomes", (Receipt(2), BMO2, POS2), "stage-2 outcomes announced before positions"),
    ("stage-2 labels", (Receipt(2), POS2, DECOYS2, BMO2),
     "stage-2 decoy labels revealed before all stage-2 outcomes"),
    ("private message label", (BMO1, InitialStateReveal("bob", 1, "message", ((3, PSIP),))),
     "bob revealed a private message-pair label (index 3)"),
    ("message label", (MESSAGE, BMO1), "message-pair label revealed before stage-1 outcomes"),
    ("first rule wins", (MESSAGE, POS1, BMO1),
     "stage-1 positions announced before all stage-1 outcomes"),
]


def reference_validate_order(transcript, allowed_message_reveals=None):
    """The per-entry form of ``validate_order``: walks every record, keyed
    by its own type, stage and reveal kind.  The run-based validator must
    give the same verdict and message."""
    allowed = allowed_message_reveals or {}
    first, last, messages = {}, {}, []
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


def verdicts(t, allowed):
    """The message (or None) of the run-based and of the reference validator."""
    out = []
    for check in (validate_order, reference_validate_order):
        try:
            check(t, allowed)
            out.append(None)
        except TranscriptOrderError as err:
            out.append(str(err))
    return out


def log_runs(t, actor, events):
    """Log ``events`` as column runs, one per stretch of events of one type,
    stage and reveal kind (a field-less ``Receipt`` is a run of its own)."""
    key = lambda e: (type(e), e.stage, getattr(e, "kind", None))
    for (cls, stage, _), group in groupby(events, key):
        names = [f.name for f in fields(cls) if f.name != "stage"]
        group = list(group)
        for rows in [group] if names else [[e] for e in group]:
            t.append_run(actor, cls, stage, *([getattr(e, n) for e in rows] for n in names))


def corrupt_repeated_seq(t):
    """Make the second run start where the first did, repeating its seq."""
    t._runs[1] = t._runs[1]._replace(start=t._runs[0].start)


@pytest.mark.parametrize(
    "events, message", [c[1:] for c in ORDER_ERRORS], ids=[c[0] for c in ORDER_ERRORS]
)
def test_validator_names_each_ordering_error(events, message):
    t = Transcript()
    for event in events:
        t.append("node", event)
    if message == "sequence numbers must increase":
        corrupt_repeated_seq(t)
    # the run-based validator and the per-entry reference agree
    assert verdicts(t, {"bob": {2}}) == [message, message]


@pytest.mark.parametrize(
    "events, message", [c[1:] for c in ORDER_ERRORS], ids=[c[0] for c in ORDER_ERRORS]
)
def test_column_runs_name_each_ordering_error(events, message):
    t = Transcript()
    # the first event alone, so that a second run exists to corrupt
    log_runs(t, "node", events[:1])
    log_runs(t, "node", events[1:])
    if message == "sequence numbers must increase":
        corrupt_repeated_seq(t)
    assert verdicts(t, {"bob": {2}}) == [message, message]


BMOS = tuple(BMOAnnouncement(1, i, lab) for i, lab in enumerate(BellLabel))
CORRELATIONS = (CorrelationRecord(1, 0, (0, 1)), CorrelationRecord(1, 2, (1, 1)))


@pytest.mark.parametrize(
    "events, message",
    [c[1:] for c in ORDER_ERRORS[1:]]
    + [((BMO1, POS1, DECOYS1), None), ((*BMOS, POS1, *CORRELATIONS, Receipt(2), Receipt(2)), None),
       ((POS1, *BMOS, *CORRELATIONS), ORDER_ERRORS[1][2])],
)
def test_extend_matches_appends(events, message):
    # each stretch of one kind of event goes in as one column run; the log,
    # its bytes and the validator's verdict are those of one append per event
    appended, logged = Transcript(), Transcript()
    appended.append("charlie", Receipt(1))
    logged.append("charlie", Receipt(1))
    for event in events:
        appended.append("node", event)
    assert logged.append_run("node", BMOAnnouncement, 1, [], iter([])) is None
    assert len(logged) == 1 and len(logged._runs) == 1
    log_runs(logged, "node", iter(events))
    assert list(logged) == list(appended)
    assert [e.seq for e in logged] == list(range(len(events) + 1))
    assert len(logged) == len(appended)
    assert logged.serialize() == appended.serialize()
    assert verdicts(appended, {"bob": {2}}) == verdicts(logged, {"bob": {2}}) == [message] * 2


def test_a_run_keeps_its_columns_when_the_caller_mutates_them():
    t = Transcript()
    index, outcome = [0, 1, 2], [PSIP, BellLabel.PSI_MINUS, PSIP]
    pairs = [(0, 1), (1, 1)]
    t.append_run("charlie", BMOAnnouncement, 1, index, outcome)
    t.append_run("alice", CorrelationRecord, 1, index[:2], pairs)
    before = (list(t), t.serialize())
    index[0], outcome[1] = 7, BellLabel.PHI_PLUS
    index.append(3)
    outcome.clear()
    pairs[0] = (1, 0)
    assert (list(t), t.serialize()) == before
    assert len(t) == 5


@pytest.mark.parametrize(
    "args, error",
    [
        ((BMOAnnouncement, 1, [0]), "BMOAnnouncement takes 2 columns, got 1"),
        ((BMOAnnouncement, 1, [0, 1], [PSIP]), "BMOAnnouncement columns differ in length"),
        ((InitialStateReveal, 1, ["bob", "bob"], ["decoy", "message"], [(), ()]),
         "one run reveals one kind of label"),
    ],
)
def test_append_run_rejects_malformed_columns(args, error):
    t = Transcript()
    with pytest.raises(ValueError) as err:
        t.append_run("node", *args)
    assert str(err.value) == error
    assert len(t) == 0 and list(t) == []
    with pytest.raises(TypeError):
        t.append_run("node", TranscriptEntry, 1, [0], ["node"], [Receipt(1)])
    with pytest.raises(TypeError):
        t.append("node", TranscriptEntry(0, "node", Receipt(1)))


def _session_reports(reports):
    for rep in reports:
        yield rep
        yield from _session_reports(rep.nested)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_validator_matches_the_reference_on_session_transcripts(name):
    for rep in _session_reports(run_batch(_CONFIGS[name], 2)):
        t = rep.transcript
        every = set(range(rep.n_pairs))
        for allowed in (None, {"alice": every, "bob": every}, {"bob": set(range(0, rep.n_pairs, 2))}):
            assert len(set(verdicts(t, allowed))) == 1
        assert verdicts(t, {"alice": every, "bob": every}) == [None, None]


# Frozen replay of a tiny honest session.  Any change to the announcement
# schema, the per-session stream derivation, or the order in which the
# session consumes randomness will show up here.
GOLDEN = """0\t1\tcharlie\tbmo\tindex=0 outcome=psi+
1\t1\tcharlie\tbmo\tindex=1 outcome=psi+
2\t1\tcharlie\tbmo\tindex=2 outcome=psi+
3\t1\talice\tdecoy_positions\tsplit=1 whole=-
4\t1\tbob\tdecoy_positions\tsplit=0 whole=-
5\t1\talice\tstate_reveal\tkind=decoy labels=0:psi+
6\t1\tbob\tstate_reveal\tkind=decoy labels=0:psi+
7\t1\tbob\tstate_reveal\tkind=message labels=0:psi+
8\t1\talice\tcorrelation\tindex=0 bits=0,0
9\t1\talice\tcorrelation\tindex=1 bits=1,1
10\t2\tcharlie\treceipt\t-
11\t2\talice\tdecoy_positions\tsplit=- whole=0:1
12\t2\tbob\tdecoy_positions\tsplit=- whole=0:2
13\t2\tcharlie\tbmo\tindex=0 outcome=psi+
14\t2\tcharlie\tbmo\tindex=0 outcome=psi+
15\t2\talice\tstate_reveal\tkind=decoy labels=0:psi+
16\t2\tbob\tstate_reveal\tkind=decoy labels=0:psi+
17\t3\tcharlie\tbmo\tindex=0 outcome=psi+
"""


def test_golden_transcript_replay():
    rep = run_session(SessionConfig(n_pairs=2, master_seed=123), 0)
    assert rep.transcript.serialize() == GOLDEN


def test_session_transcripts_validate_in_all_modes():
    for mode in Mode:
        rep = run_session(SessionConfig(n_pairs=8, mode=mode, master_seed=5), 1)
        validate_order(rep.transcript, {"bob": set(range(8)), "alice": set()})
