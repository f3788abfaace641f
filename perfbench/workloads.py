"""The benchmark's workloads: inputs made from a seed, one timed op batch, output checks.

Session workloads write a generated config file and time the whole in-process
``osbmdi.cli.main(["run", ...])`` call (config resolve, ``run_batch``, report
render and write); one op is one session. Before timing, each input is run
once through ``run_batch`` and ``render_report`` directly: those sessions are
checked one by one, and their rendered report is the exact byte string every
timed call must write.

The trial workload times one round of the single-check experiments of
acceptance criteria 5 and 7 through ``osbmdi.analysis.run_check_trials``; one
op is one trial. Before timing, the round is run once and every rate is
checked against its analytic oracle; every timed round must reproduce its
failure counts exactly.

Package functions are looked up on their modules at call time, so a traced
run's wrappers (and a test's fault injection) take effect.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
ATTACK = "entangle_measure:beta2=0.05,legs=stage1_alice+stage1_bob+stage2_alice+stage2_bob"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def derive_seed(*parts) -> int:
    """63-bit seed derived from the workload seed and an input's position."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _failures(r) -> int:
    return r.stage1_failures + r.stage2_gv_failures + r.stage2_split_failures


def honest_decodes(r) -> bool:
    """No abort, no failed check, every symbol decoded."""
    return not r.aborted and _failures(r) == 0 and r.symbols_correct == r.symbols_total > 0


def honest_checks(r) -> bool:
    """No abort and no failed check (decoding under noise may err)."""
    return not r.aborted and _failures(r) == 0 and r.symbols_total > 0


def abort_matches_checks(r) -> bool:
    """At threshold 0 a session aborts iff a check failed, at that check's stage."""
    if r.stage1_failures:
        return r.abort_stage == "stage1" and r.stage2_gv_checks + r.stage2_split_checks == 0
    if r.stage2_gv_failures + r.stage2_split_failures:
        return r.abort_stage == "stage2"
    return not r.aborted and r.abort_stage is None


@dataclass
class Batch:
    """Outcome of one timed op batch."""

    ops: int
    seconds: float
    failed: int


class SessionWorkload:
    """Batches of ``osbmdi run`` sessions under one generated config per input."""

    kind = "sessions"

    def __init__(self, name, settings, sessions, inputs, session_ok):
        self.name = name
        self.settings = settings
        self.sessions = sessions
        self.n_inputs = inputs
        self.session_ok = session_ok

    def prepare(self, seed: int, workdir: str) -> list[dict]:
        """Write one config file per input; return the inputs."""
        os.makedirs(workdir, exist_ok=True)
        inputs = []
        for k in range(self.n_inputs):
            stem = os.path.join(workdir, f"{self.name}-{k}")
            values = dict(self.settings, sessions=self.sessions, seed=derive_seed(self.name, seed, k))
            with open(stem + ".cfg", "w", encoding="utf-8") as fh:
                fh.writelines(f"{key} = {value}\n" for key, value in values.items())
            inputs.append({"config": stem + ".cfg", "out": stem + ".report"})
        return inputs

    def setup_code(self, inputs: list[dict]) -> str:
        """What a fresh interpreter runs after importing osbmdi.cli."""
        return (
            "from osbmdi.config import parse_config_file, resolve\n"
            f"resolve(parse_config_file({inputs[0]['config']!r}), {{}})\n"
        )

    def workers(self, inputs: list[dict]) -> int:
        from osbmdi import config

        return config.resolve(config.parse_config_file(inputs[0]["config"]), {})[1].workers

    def verify(self, inp: dict) -> None:
        """Run the input untimed; record its expected report and bad sessions."""
        from osbmdi import config, protocol, report

        cfg, options = config.resolve(config.parse_config_file(inp["config"]), {})
        reports = protocol.run_batch(cfg, options.sessions, workers=options.workers)
        manifest = report.RunManifest(
            config_path=inp["config"],
            sessions=options.sessions,
            master_seed=cfg.master_seed,
            out_path=inp["out"],
            resolved=tuple(config.describe_config(cfg)),
        )
        inp["expected"] = report.render_report(manifest, cfg, reports).encode()
        inp["exit"] = 2 if any(r.aborted for r in reports) else 0
        inp["bad"] = sum(1 for r in reports if not self.session_ok(r))
        inp["sha256"] = hashlib.sha256(inp["expected"]).hexdigest()

    def run(self, inp: dict, tracer=None) -> Batch:
        from osbmdi import cli

        argv = ["run", "--config", inp["config"], "--out", inp["out"]]
        if os.path.exists(inp["out"]):
            os.remove(inp["out"])
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a raising op is a failed op, not a crashed benchmark
            return Batch(self.sessions, time.perf_counter() - start, self.sessions)
        seconds = time.perf_counter() - start
        written = Path(inp["out"]).read_bytes() if os.path.exists(inp["out"]) else None
        if code != inp["exit"] or written != inp["expected"]:
            return Batch(self.sessions, seconds, self.sessions)
        return Batch(self.sessions, seconds, inp["bad"])


# (kind, analysis function, factory argument or None, analytic failure rate)
EXPERIMENTS = (
    ("intercept_resend", "trial_intercept_resend_case1", None, 0.5),
    ("fake_bmo", "trial_fake_bmo_case1", None, 0.5),
    *(("entangle_split", "make_trial_entangle_split", b, b) for b in (0.1, 0.25, 0.5)),
    *(("entangle_whole", "make_trial_entangle_whole", b, b) for b in (0.1, 0.25, 0.5)),
    ("flip_whole", "trial_flip_whole", None, 0.0),
    ("flip_split", "trial_flip_split", None, 1.0),
    ("random_pauli_whole", "trial_random_pauli_whole", None, 2.0 / 3.0),
)


def within_oracle(failures: int, trials: int, rate: float) -> bool:
    """Exact for the deterministic kinds, else within 4 standard errors."""
    if rate in (0.0, 1.0):
        return failures == rate * trials
    return abs(failures / trials - rate) <= 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


class TrialWorkload:
    """Rounds of single-check trials, equal counts per experiment."""

    kind = "trials"

    def __init__(self, name, trials):
        self.name = name
        self.trials = trials

    def prepare(self, seed: int, workdir: str) -> list[dict]:
        return [{"seeds": [derive_seed(self.name, seed, i) for i in range(len(EXPERIMENTS))]}]

    def setup_code(self, inputs: list[dict]) -> str:
        return (
            "from osbmdi import analysis\n"
            f"for _k, _fn, _arg, _p in {EXPERIMENTS!r}:\n"
            "    _t = getattr(analysis, _fn)\n"
            "    _t(_arg) if _arg is not None else _t\n"
        )

    def workers(self, inputs: list[dict]) -> int:
        return 1

    def verify(self, inp: dict) -> None:
        """Build the trials and run the round untimed; check every rate."""
        from osbmdi import analysis

        inp["trials"] = []
        for kind, fn, arg, _ in EXPERIMENTS:
            trial = getattr(analysis, fn)
            inp["trials"].append((kind, trial(arg) if arg is not None else trial))
        counts = []
        for (kind, trial), seed in zip(inp["trials"], inp["seeds"]):
            est = analysis.run_check_trials(trial, self.trials, seed, kind)
            counts.append((est.checks, est.failures))
        inp["expected"] = counts
        inp["bad"] = [
            0 if checks == self.trials and within_oracle(fails, checks, rate) else self.trials
            for (checks, fails), (_, _, _, rate) in zip(counts, EXPERIMENTS)
        ]
        inp["sha256"] = hashlib.sha256(json.dumps(counts).encode()).hexdigest()

    def run(self, inp: dict, tracer=None) -> Batch:
        from osbmdi import analysis

        trials = inp["trials"]
        if tracer is not None:
            trials = [(k, tracer.wrap("analysis", f"analysis.trial.{k}", t)) for k, t in trials]
        counts = []
        start = time.perf_counter()
        for (kind, trial), seed in zip(trials, inp["seeds"]):
            try:
                est = analysis.run_check_trials(trial, self.trials, seed, kind)
                counts.append((est.checks, est.failures))
            except Exception:  # a raising op is a failed op, not a crashed benchmark
                counts.append(None)
        seconds = time.perf_counter() - start
        failed = sum(
            bad if got == want else self.trials
            for got, want, bad in zip(counts, inp["expected"], inp["bad"])
        )
        return Batch(self.trials * len(EXPERIMENTS), seconds, failed)


WORKLOADS = {
    w.name: w
    for w in (
        # Many short sessions (~10 slots per round): per-session and per-op
        # overhead dominates.
        SessionWorkload("qsdc-n8", {"mode": "qsdc", "n_pairs": 8}, 100, 4, honest_decodes),
        # Wide dialogue sessions under noise with a decoherence-free decoy
        # label: engine measurement and gate cost dominate.
        SessionWorkload(
            "qd-n256-noise",
            {"mode": "qd", "n_pairs": 256, "noise": "dephasing:0.3", "decoy_policy": "fixed:phi+"},
            1, 4, honest_checks,
        ),
        # Ancilla attack on every leg: adversary code, 6-qubit registers,
        # and all three exits (stage-1 abort, stage-2 abort, completion).
        SessionWorkload(
            "qsdc-n8-attack", {"mode": "qsdc", "n_pairs": 8, "attack": ATTACK}, 100, 8,
            abort_matches_checks,
        ),
        # Single-check trials on fixed 2-4 qubit states: analysis and the
        # engine's free functions, no session and no arena.
        TrialWorkload("detection-trials", 250),
    )
}


def golden_sha256() -> dict[str, list[str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)
