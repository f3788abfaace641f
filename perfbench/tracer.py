"""Per-module spans for the osbmdi package, recorded from outside it.

``Tracer.install`` replaces the names the package's modules resolve at call
time with timing wrappers: every function one package module imports from
another, the engine functions ``QubitArena`` looks up as globals of
``osbmdi.quantum``, the arena's public methods, and a few methods called
across modules. ``Tracer.uninstall`` puts the originals back. No file of the
package changes.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it directly contains, and it is charged to the layer
(package module) the wrapped code belongs to, so the layers' self times sum
to the duration of the outermost spans. Aggregates are kept exactly for every
span; the first ``MAX_SPANS`` span records are kept in memory for writing out
when the run ends.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time

LAYERS = ("quantum", "protocol", "transcript", "adversary", "analysis", "report", "config", "cli")

# Engine functions QubitArena calls as module globals of osbmdi.quantum.
ENGINE_OPS = ("bell_measure", "comp_measure", "apply_pauli", "apply_unitary1q", "apply_cnot", "tensor")
ARENA_METHODS = (
    "add_state", "has", "state_of", "holder_of", "transfer",
    "apply_pauli", "apply_unitary", "apply_cnot", "bell_measure", "comp_measure",
)
# Analysis functions the report renderer calls.
REPORT_ANALYSIS = ("analysis.detection_rate", "analysis.leakage_bits", "analysis.cnot_attack_profile")
TRIAL_KINDS = (
    "intercept_resend", "fake_bmo", "entangle_split", "entangle_whole",
    "flip_whole", "flip_split", "random_pauli_whole",
)
MAX_SPANS = 50_000


def call_targets() -> list[tuple[object, str, str, str]]:
    """(owner, attribute, layer, span name) for every call site that is wrapped."""
    mods = {name: importlib.import_module(f"osbmdi.{name}") for name in LAYERS}
    targets = []
    for mod in mods.values():
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", None) or ""
            if isinstance(obj, type) or not callable(obj):
                continue
            if home.startswith("osbmdi.") and home != mod.__name__:
                layer = home.split(".")[1]
                targets.append((mod, attr, layer, f"{layer}.{obj.__name__}"))
    quantum, protocol = mods["quantum"], mods["protocol"]
    targets += [(quantum, op, "quantum", f"quantum.{op}") for op in ENGINE_OPS]
    targets += [(quantum.QubitArena, m, "quantum", f"quantum.arena.{m}") for m in ARENA_METHODS]
    targets += [
        (protocol, "run_session", "protocol", "protocol.run_session"),
        (mods["analysis"], "run_check_trials", "analysis", "analysis.run_check_trials"),
        (protocol.Session, "run", "protocol", "protocol.Session.run"),
        (mods["transcript"].Transcript, "append", "transcript", "transcript.append"),
        (mods["analysis"].NoiseSpec, "matrix", "analysis", "analysis.NoiseSpec.matrix"),
        (mods["cli"], "main", "cli", "cli.main"),
    ]
    return targets


class Tracer:
    """Span recorder; install around traced calls only."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.spans: list = []
        self.max_width = 0
        self.session_ns: list[int] = []
        self.aborted = 0
        self.symbols_correct = 0
        self.pairs_prepared = 0
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, name in call_targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, layer: str, name: str, fn):
        """Return ``fn`` wrapped in a span charged to ``layer``."""
        self.calls.setdefault(name, 0)
        self.total_ns.setdefault(name, 0)
        observe = self._observer(name)
        stack, spans, calls, total, self_ns = (
            self._stack, self.spans, self.calls, self.total_ns, self.self_ns
        )
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            if sid < MAX_SPANS:
                spans.append(None)
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self_ns[layer] += dur - frame[0]
                calls[name] += 1
                total[name] += dur
                if sid < MAX_SPANS:
                    spans[sid] = (name, stack[-1][1] if stack else -1, start, end)
            if observe is not None:
                observe(args, result, dur)
            return result

        return wrapper

    def _observer(self, name: str):
        op = name.split(".", 1)[1]
        if name.startswith("quantum.") and op in ENGINE_OPS:
            def width(args, result, _dur):
                state = result if op == "tensor" else args[0]
                self.max_width = max(self.max_width, len(state.qubit_ids))
            return width
        if name == "protocol.run_session":
            def session(args, report, dur):
                self.session_ns.append(dur)
                self.aborted += report.aborted
                self.symbols_correct += report.symbols_correct
                self.pairs_prepared += 2 * report.n_pairs
            return session
        return None

    # -- results ------------------------------------------------------------

    def _mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def metrics(self, wall_s: float, passes: int, ops: int) -> dict[str, float]:
        """Per-layer metrics of a traced window of ``passes`` whole passes over
        the inputs (``ops`` ops, ``wall_s`` seconds of op time).

        Counts are per op or per pass, times per call or per pass, so no
        figure depends on how many passes fit in the window.
        """
        calls, total_ns = self.calls, self.total_ns
        out: dict[str, float] = {}
        for op, key in (
            ("bell_measure", "bell_measure"), ("comp_measure", "comp_measure"),
            ("apply_unitary1q", "apply_unitary"), ("apply_pauli", "apply_pauli"),
            ("apply_cnot", "apply_cnot"), ("tensor", "tensor"),
        ):
            out[f"quantum.{key}.calls"] = calls.get(f"quantum.{op}", 0) / ops
            out[f"quantum.{key}.us"] = self._mean_us(f"quantum.{op}")
        out["quantum.bell_measure.share"] = total_ns.get("quantum.bell_measure", 0) / 1e9 / wall_s
        out["quantum.max_width"] = self.max_width
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9 / passes
        out["quantum.share"] = self.self_ns["quantum"] / 1e9 / wall_s

        sessions = sorted(self.session_ns)
        out["protocol.sessions"] = len(sessions) // passes
        out["protocol.aborted"] = self.aborted // passes
        out["protocol.symbol_yield"] = (
            self.symbols_correct / self.pairs_prepared if self.pairs_prepared else 0.0
        )
        if len(sessions) >= 2:
            deciles = statistics.quantiles(sessions, n=10)
            out["protocol.session_ms_p50"] = statistics.median(sessions) / 1e6
            out["protocol.session_ms_p90"] = deciles[8] / 1e6
        else:
            out["protocol.session_ms_p50"] = out["protocol.session_ms_p90"] = (
                sessions[0] / 1e6 if sessions else 0.0
            )
        out["protocol.batch_overhead_s"] = (
            total_ns.get("protocol.run_batch", 0) - total_ns.get("protocol.run_session", 0)
        ) / 1e9 / passes

        out["transcript.append.calls"] = calls.get("transcript.append", 0) / ops
        out["transcript.validate.us"] = self._mean_us("transcript.validate_order")
        out["adversary.leg_attack.calls"] = calls.get("adversary.apply_leg_attack", 0) / ops
        out["adversary.measure_ancillas.calls"] = calls.get("adversary.measure_ancillas", 0) / ops

        out["analysis.trial.calls"] = (
            sum(calls.get(f"analysis.trial.{k}", 0) for k in TRIAL_KINDS) / ops
        )
        for kind in TRIAL_KINDS:
            out[f"analysis.trial.{kind}.us"] = self._mean_us(f"analysis.trial.{kind}")
        renders = calls.get("report.render_report", 0)
        out["analysis.report_calls.ms"] = (
            sum(total_ns.get(n, 0) for n in REPORT_ANALYSIS) / renders / 1e6 if renders else 0.0
        )
        out["report.render.ms"] = self._mean_us("report.render_report") / 1e3
        out["trace.wall_s"] = wall_s / passes
        return out

    def write_spans(self, path: str) -> None:
        """Write the retained span records as JSON lines (id, parent, name, ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
