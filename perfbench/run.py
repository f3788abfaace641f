"""Benchmark for the osbmdi simulator: one workload, one seed, one JSON result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload qsdc-n8 --seed 0 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
Load comes from this single process: ``run`` keeps its default single worker.

With ``--trace 0`` the run reports the end-to-end metrics: ``ops_per_s``
(median over timed op batches), ``setup_s`` (median over fresh interpreters
importing ``osbmdi.cli`` and resolving the workload's config) and
``peak_rss_mb``. The two timings are put at a fixed reference CPU speed, so
that other work on a shared machine does not move them (see
``reference.py``); the figures as measured are printed next to them.
``error_rate`` (failed over attempted ops) is printed too and carried by the
result's ``attempted`` and ``failed`` counts.
With ``--trace 1`` the run times the workload untraced, then again with the
package's call sites wrapped in spans (see ``tracer.py``), and reports the
per-module metrics. Every op's output is checked in both modes.

The last line of standard output is the JSON result; the full result with an
environment block is also written under ``perfbench/.work/``. The exit code
is 0 only when every op passed its check.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = "perfbench/.work"
SETUP_REPEATS = 15
MIN_BATCHES = 3

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from reference import REFERENCE_CHILD, REFERENCE_CHILD_S, speed, time_kernel  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, golden_sha256  # noqa: E402


def first_line_time(code: str) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter on ``code`` to its first line."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        status = child.wait()
    if status != 0 or not line:
        raise RuntimeError(f"set-up interpreter failed with exit code {status}")
    return elapsed, line


def measure_setup(workload, inputs) -> dict[str, float]:
    """Median set-up over fresh interpreters, after one untimed warm-up.

    Set-up is the time from starting the interpreter until it has imported
    ``osbmdi.cli`` and resolved the workload's config, i.e. until it could
    start the first session or trial. ``setup_s`` is at reference speed,
    timed against a reference interpreter started right before each one (see
    ``reference.py``); ``wall_setup_s`` is as measured.
    """
    code = (
        "import json, sys, time\n"
        "_t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import osbmdi.cli\n"
        "_t1 = time.perf_counter()\n"
        + workload.setup_code(inputs)
        + "_t2 = time.perf_counter()\n"
        "print(json.dumps({'import_s': _t1 - _t0, 'resolve_ms': (_t2 - _t1) * 1e3}), flush=True)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        ref_s, _ = first_line_time(REFERENCE_CHILD)
        elapsed, line = first_line_time(code)
        samples.append((elapsed * REFERENCE_CHILD_S / ref_s, elapsed, json.loads(line)))
    samples = samples[1:]
    return {
        "setup_s": statistics.median(s for s, _, _ in samples),
        "wall_setup_s": statistics.median(s for _, s, _ in samples),
        "cli.import_s": statistics.median(c["import_s"] for _, _, c in samples),
        "config.resolve.ms": statistics.median(c["resolve_ms"] for _, _, c in samples),
    }


def measure(workload, inputs, seconds: float, tracer=None) -> dict:
    """Run whole passes over the inputs, one op batch per input, until
    ``seconds`` of op time have passed.

    Each batch's rate is put at reference speed by the reference kernel
    timed just before and just after it; ``ops_per_s`` is the median of
    those rates, ``wall_ops_per_s`` the median of the rates as measured.
    """
    rates, wall_rates, attempted, failed, busy = [], [], 0, 0, 0.0
    k = 0
    while k < MIN_BATCHES or busy < seconds or k % len(inputs):
        gc.collect()
        before = time_kernel()
        batch = workload.run(inputs[k % len(inputs)], tracer)
        wall_rates.append(batch.ops / batch.seconds)
        rates.append(wall_rates[-1] * speed(before, time_kernel()))
        attempted += batch.ops
        failed += batch.failed
        busy += batch.seconds
        k += 1
    return {"rates": rates, "wall_rates": wall_rates, "attempted": attempted, "failed": failed,
            "busy_s": busy, "passes": k // len(inputs), "ops_per_s": statistics.median(rates),
            "wall_ops_per_s": statistics.median(wall_rates)}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "osbmdi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def check_golden(workload, inputs, seed: int) -> list[str]:
    """At the default seed, session reports must match the recorded SHA-256."""
    if seed != DEFAULT_SEED or workload.kind != "sessions":
        return []
    recorded = golden_sha256().get(workload.name, [])
    mismatched = []
    for k, inp in enumerate(inputs):
        if k >= len(recorded) or inp["sha256"] != recorded[k]:
            inp["bad"] = workload.sessions
            mismatched.append(inp["config"])
    return mismatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "osbmdi" / "cli.py").is_file():
        print(f"error: no osbmdi sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORKDIR, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("OSBMDI_")]:
        del os.environ[key]  # only the generated config may reach the program
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    inputs = workload.prepare(args.seed, WORKDIR)
    setup = measure_setup(workload, inputs)
    for inp in inputs:
        workload.verify(inp)
    golden_mismatch = check_golden(workload, inputs, args.seed)

    timed = measure(workload, inputs, args.seconds)
    runs = [timed]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, inputs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        runs.append(traced)
        metrics = tracer.metrics(traced["busy_s"], traced["passes"], traced["attempted"])
        metrics["trace.overhead_ratio"] = traced["ops_per_s"] / timed["ops_per_s"]
        metrics["cli.import_s"] = setup["cli.import_s"]
        metrics["config.resolve.ms"] = setup["config.resolve.ms"]
        tracer.write_spans(f"{WORKDIR}/spans-{workload.name}-{args.seed}.jsonl")
    else:
        metrics = {
            "ops_per_s": timed["ops_per_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    section = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "workers": workload.workers(inputs),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, env=env, setup=setup, golden_mismatch=golden_mismatch,
                  batch_rates=[r["rates"] for r in runs],
                  wall_batch_rates=[r["wall_rates"] for r in runs],
                  inputs_sha256=[inp["sha256"] for inp in inputs])
    with open(f"{WORKDIR}/result-{workload.name}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print("env " + json.dumps(env))
    shown = [(name, metrics[name], unit) for name, unit in units.items()]
    if not args.trace:
        shown += [("wall_ops_per_s", timed["wall_ops_per_s"], "ops/s"),
                  ("wall_setup_s", setup["wall_setup_s"], "s"),
                  ("error_rate", failed / attempted, "ratio")]
    for name, value, unit in shown:
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
