"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads qsdc-n8,detection-trials --seeds 1:11 \
        --seconds 10 [--trace 0] [--out runs.json]

For every workload and seed it runs ``perfbench/run.py`` in a fresh process and
prints, per metric, the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median. ``--out`` keeps every run's result line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--seeds", default="1:11", help="START:STOP (stop excluded)")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)
    start, stop = (int(v) for v in args.seeds.split(":"))

    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(start, stop):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs[workload].append(dict(result, seed=seed, exit=proc.returncode))
            print(workload, seed, proc.returncode,
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            stats = summarise(values)
            print(f"{workload} {name}: median {stats['median']:.6g} q1 {stats['q1']:.6g} "
                  f"q3 {stats['q3']:.6g} iqr/median {stats['iqr_share']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
