"""Config differential: one SHA-256 per config of a fixed 1,944-config matrix.

Every config runs its sessions twice, through ``run_batch`` and one by one
through ``run_session``; the digest covers every ``SessionReport`` field,
the transcript serialized and nested reports recursed.  A config whose two
paths disagree, or that raises, is flagged on its line.  With ``--against``
a second tree (for example a copy of the parent commit) runs the same matrix
in its own process, and the configs whose lines differ are listed.

The matrix: 7 leg strategies x the 15 nonempty leg subsets, plus
``fake_bmo`` at stages 1, 2 and 1+2 (108 attacks); each x qsdc/qd x
thresholds 0/1 x ``n_pairs`` 2/4/8 (1,296 configs); plus the 108 attacks on
qd with alice set ``psi+,phi-`` and dephasing 0.2 x thresholds 0/1 x
``n_pairs`` 2/4/8 (648 configs).

Run from the repository root (a full run takes a few minutes per tree):

    PYTHONPATH=src python tests/config_differential.py                  # print the digests
    PYTHONPATH=src python tests/config_differential.py --against ../old  # list configs that differ

The other tree runs with ``PYTHONPATH=<PATH>/src`` while this one runs, its
lines going to a temporary file.

``tests/config_differential.golden`` holds the digests of the tree that
committed it; CI diffs a fresh run against it, so a changed or flagged
config shows as a diff line.

The exit status is 1 when a config is flagged or differs, else 0.
"""
import argparse
import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SESSIONS = 20  # per config

LEGS = ("stage1_alice", "stage1_bob", "stage2_alice", "stage2_bob")
LEG_STRATEGIES = (
    "intercept_resend",
    "entangle_measure:beta2=0.3",
    "entangle_measure:beta2=1.0",
    "flip_all",
    "disturb:mode=random_pauli,fraction=0.5",
    "disturb:mode=reorder,fraction=0.5",
    "disturb:mode=reorder,fraction=1.0",
)
FAKE_STAGES = ("1", "2", "1+2")
THRESHOLDS = (0.0, 1.0)
N_PAIRS = (2, 4, 8)


def attacks():
    """The 108 attack specs, as ``AttackSpec.parse`` text."""
    subsets = [c for r in range(1, 5) for c in itertools.combinations(LEGS, r)]
    for strategy, legs in itertools.product(LEG_STRATEGIES, subsets):
        yield strategy + ("," if ":" in strategy else ":") + "legs=" + "+".join(legs)
    for stages in FAKE_STAGES:
        yield f"fake_bmo:stages={stages}"


def configs():
    """(name, SessionConfig) for every config of the matrix, in a fixed order."""
    from osbmdi.adversary import AttackSpec, NoiseSpec
    from osbmdi.protocol import Mode, SessionConfig
    from osbmdi.quantum import BellLabel

    for text in attacks():
        spec = AttackSpec.parse(text)
        for mode, t, n in itertools.product((Mode.QSDC, Mode.QD), THRESHOLDS, N_PAIRS):
            cfg = SessionConfig(n_pairs=n, mode=mode, attack=spec, error_threshold=t)
            yield f"{mode.value}/t{t:g}/n{n}/{text}", cfg
        for t, n in itertools.product(THRESHOLDS, N_PAIRS):
            cfg = SessionConfig(
                n_pairs=n, mode=Mode.QD, attack=spec, error_threshold=t,
                alice_state_set=(BellLabel.PSI_PLUS, BellLabel.PHI_MINUS),
                noise=NoiseSpec("dephasing", 0.2),
            )
            yield f"qd-psi+,phi-,dephasing:0.2/t{t:g}/n{n}/{text}", cfg


def material(rep):
    """Every field of a report, the transcript serialized and nested reports recursed."""
    out = []
    for f in dataclasses.fields(rep):
        value = getattr(rep, f.name)
        if f.name == "transcript":
            value = value.serialize()
        elif f.name == "nested":
            value = tuple(material(n) for n in value)
        elif isinstance(value, dict):
            value = sorted(value.items())
        out.append((f.name, value))
    return tuple(out)


def digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr(material(rep)).encode())
    return h.hexdigest()


def lines():
    """One line per config: its name and the digest of its ``run_batch``
    reports, flagged when one-by-one ``run_session`` disagrees or it raises."""
    from osbmdi.protocol import run_batch, run_session

    for name, cfg in configs():
        try:
            batch = digest(run_batch(cfg, SESSIONS))
            alone = digest(run_session(cfg, i) for i in range(SESSIONS))
        except Exception as exc:  # a raising config is a finding, not a crash
            yield f"{name} RAISED {type(exc).__name__}: {exc}"
            continue
        yield f"{name} {batch}" + ("" if alone == batch else f" ALONE-DIFFERS {alone}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="PATH", help="a second tree to compare with")
    args = ap.parse_args(argv)

    if args.against is None:
        flagged = 0
        for line in lines():
            print(line, flush=True)
            flagged += len(line.split()) != 2
        return 1 if flagged else 0

    env = dict(os.environ, PYTHONPATH=str(Path(args.against).resolve() / "src"))
    with tempfile.TemporaryFile("w+") as out:
        other = subprocess.Popen([sys.executable, __file__], stdout=out, env=env, text=True)
        ours = list(lines())
        other.wait()
        out.seek(0)
        theirs = out.read().splitlines()
    if other.returncode not in (0, 1) or len(theirs) != len(ours):
        print(f"the tree at {args.against} gave {len(theirs)} lines, exit {other.returncode}")
        return 1
    differ = [(a, b) for a, b in zip(ours, theirs) if a != b]
    flagged = [a for a in ours if len(a.split()) != 2]
    for a, b in differ:
        print(f"differs:\n  this:  {a}\n  other: {b}")
    for a in flagged:
        print(f"flagged: {a}")
    print(f"{len(differ)} of {len(ours)} configs differ; {len(flagged)} flagged on this tree")
    return 1 if differ or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
