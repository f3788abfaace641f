"""Self-tests of the benchmark harness (not part of the package's test suite).

Run from the repository root:

    python -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from osbmdi import analysis, cli  # noqa: E402

SECONDS = "0.05"


def _bench(capsys, monkeypatch, workload, trace=0, seed=workloads.DEFAULT_SEED):
    """Run the benchmark in-process; return its exit code and JSON result line."""
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_report_is_counted_and_fails_the_run(capsys, monkeypatch):
    render = cli.render_report
    monkeypatch.setattr(cli, "render_report", lambda *a: render(*a).replace("= 0\n", "= 1\n", 1))
    code, result = _bench(capsys, monkeypatch, "qsdc-n8")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_trial_count_is_counted_and_fails_the_run(capsys, monkeypatch):
    real = analysis.run_check_trials

    def short(trial, trials, seed, strategy="trial"):
        return real(trial, trials - 1, seed, strategy)

    monkeypatch.setattr(analysis, "run_check_trials", short)
    code, result = _bench(capsys, monkeypatch, "detection-trials")
    assert code != 0
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(capsys, monkeypatch, workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in declared["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _bench(capsys, monkeypatch, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in declared[section]]
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in declared[section]
        }
    values = {k: v["value"] for k, v in metrics.items()}
    layers = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(values["trace.wall_s"], rel=0.01)
    assert values["quantum.max_width"] == (6 if workload == "qsdc-n8-attack" else 4)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs_and_keeps_invariants(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(ROOT)
    bench = workloads.WORKLOADS[workload]
    default = bench.prepare(workloads.DEFAULT_SEED, run.WORKDIR)
    other = bench.prepare(12345, str(tmp_path))
    for a, b in zip(default, other):
        bench.verify(a)
        bench.verify(b)
        assert a["sha256"] != b["sha256"]
        assert b["bad"] in (0, [0] * len(workloads.EXPERIMENTS))
    if bench.kind == "sessions":
        assert [a["sha256"] for a in default] == workloads.golden_sha256()[workload]


def test_timed_run_installs_no_wrappers(capsys, monkeypatch):
    targets = [(o, a) for o, a, _, _ in tracer.call_targets() if (o, a) != (cli, "main")]
    originals = [vars(o)[a] for o, a in targets]
    wrapped_seen = []
    real_main = cli.main

    def spy(argv):
        wrapped_seen.append(sum(vars(o)[a] is not f for (o, a), f in zip(targets, originals)))
        return real_main(argv)

    monkeypatch.setattr(cli, "main", spy)
    code, _ = _bench(capsys, monkeypatch, "qsdc-n8", trace=0)
    assert code == 0 and wrapped_seen and not any(wrapped_seen)
    wrapped_seen.clear()
    code, _ = _bench(capsys, monkeypatch, "qsdc-n8", trace=1)
    assert code == 0 and any(wrapped_seen)  # the spy does see a traced run's wrappers
