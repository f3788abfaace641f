"""Transcript serialization, ordering rules, and the golden replay."""
import pytest

from osbmdi.protocol import Mode, SessionConfig, run_session
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
    a = t.append("charlie", BMOAnnouncement(1, 0, PSIP))
    b = t.append("alice", DecoyPositions("alice", 1, split_positions=(1,)))
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


@pytest.mark.parametrize(
    "events, message", [c[1:] for c in ORDER_ERRORS], ids=[c[0] for c in ORDER_ERRORS]
)
def test_validator_names_each_ordering_error(events, message):
    t = Transcript()
    for event in events:
        t.append("node", event)
    if message == "sequence numbers must increase":
        t._entries[1] = TranscriptEntry(0, "node", events[1])
    with pytest.raises(TranscriptOrderError) as err:
        validate_order(t, {"bob": {2}})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "events, message", [c[1:] for c in ORDER_ERRORS[1:]] + [((BMO1, POS1, DECOYS1), None)],
)
def test_extend_matches_appends(events, message):
    # each actor's run of events goes in as one extend; the log, its bytes
    # and the validator's verdict are those of one append per event
    appended, extended = Transcript(), Transcript()
    appended.append("charlie", Receipt(1))
    extended.append("charlie", Receipt(1))
    for event in events:
        appended.append("node", event)
    assert extended.extend("node", []) is None and len(extended) == 1
    extended.extend("node", iter(events))
    assert list(extended) == list(appended)
    assert [e.seq for e in extended] == list(range(len(events) + 1))
    assert extended.serialize() == appended.serialize()
    verdicts = []
    for t in (appended, extended):
        try:
            validate_order(t, {"bob": {2}})
            verdicts.append(None)
        except TranscriptOrderError as err:
            verdicts.append(str(err))
    assert verdicts == [message, message]


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
