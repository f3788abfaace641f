"""Command-line interface tests: subcommands, exit codes, determinism."""
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osbmdi.adversary import STRATEGIES
from osbmdi.cli import main, parse_grid
from osbmdi.config import _KEYS, ConfigError, parse_config_file, resolve

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_cli(args):
    return main(args)


# --- grid parsing ------------------------------------------------------------


def test_parse_grid_linspace_and_atoms():
    grid = parse_grid("0:pi:9")
    assert len(grid) == 9
    assert grid[0] == 0.0
    assert abs(grid[-1] - math.pi) < 1e-12
    assert parse_grid("0.1,0.25,0.5") == [0.1, 0.25, 0.5]
    assert abs(parse_grid("pi/8")[0] - math.pi / 8) < 1e-12
    assert abs(parse_grid("2pi")[0] - 2 * math.pi) < 1e-12
    assert abs(parse_grid("3pi/4")[0] - 3 * math.pi / 4) < 1e-12


def test_parse_grid_rejects_empty():
    for spec in ("", ",", " , , "):
        with pytest.raises(ConfigError, match="grid must not be empty"):
            parse_grid(spec)
    with pytest.raises(ConfigError):
        parse_grid("0:1:0")


@pytest.mark.parametrize("spec", ["pi/0", "2pi/0.0", "0,3pi/0"])
def test_parse_grid_rejects_a_zero_denominator(spec):
    with pytest.raises(ConfigError, match="divides by zero"):
        parse_grid(spec)


# --- config files -------------------------------------------------------------


def readme_table_names(header):
    """The first column, backticks stripped, of the README table whose
    header row starts with ``| header |``."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} |"))
    names = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    return tuple(names)


def test_readme_tables_name_exactly_the_config_keys_and_strategies():
    assert readme_table_names("key") == _KEYS
    assert readme_table_names("strategy") == STRATEGIES


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text(
        "# minimal config\n"
        "mode = qd\n"
        "n_pairs = 4\n"
        "sessions = 7\n"
        "seed = 99\n"
        "bob_states = psi+,psi-\n"
        "decoy_policy = fixed:psi+\n"
    )
    values = parse_config_file(str(path))
    cfg, options = resolve(values)
    assert cfg.mode.value == "qd"
    assert cfg.n_pairs == 4
    assert cfg.master_seed == 99
    assert options.sessions == 7


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("phaser = stun\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_env_override_precedence(tmp_path, monkeypatch):
    path = tmp_path / "session.cfg"
    path.write_text("seed = 1\n")
    monkeypatch.setenv("OSBMDI_SEED", "2")
    cfg, _ = resolve(parse_config_file(str(path)))
    assert cfg.master_seed == 2
    # CLI wins over the environment
    cfg, _ = resolve(parse_config_file(str(path)), {"seed": "3"})
    assert cfg.master_seed == 3


# --- run ------------------------------------------------------------------------


def test_run_honest_exit_zero_and_report(tmp_path):
    out = tmp_path / "report.txt"
    code = run_cli(
        ["run", "--sessions", "25", "--seed", "5", "--mode", "qsdc", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "[manifest]" in text
    assert "tool_version = " in text
    assert "accuracy = 1" in text
    assert "sessions_aborted = 0" in text


def test_run_reports_are_byte_identical(tmp_path):
    # the manifest embeds the invocation verbatim (including the out path),
    # so determinism is judged across repeated identical invocations
    out = tmp_path / "report.txt"
    args = ["run", "--sessions", "40", "--seed", "11", "--mode", "qd", "--out", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first


def test_run_differs_across_seeds(tmp_path):
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(["run", "--sessions", "10", "--seed", "1", "--out", str(out_a)])
    run_cli(["run", "--sessions", "10", "--seed", "2", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_run_attack_exit_two_with_detection_section(tmp_path):
    out = tmp_path / "report.txt"
    code = run_cli(
        [
            "run",
            "--sessions",
            "20",
            "--seed",
            "7",
            "--attack",
            "flip_all",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    text = out.read_text()
    assert "[detection]" in text
    assert "strategy = flip_all" in text
    assert "stage2_split_rate = 1" in text
    assert "stage2_gv_rate = 0" in text


def test_run_entangle_measure_embeds_coupling_profile(tmp_path):
    out = tmp_path / "report.txt"
    code = run_cli(
        [
            "run",
            "--sessions",
            "30",
            "--seed",
            "13",
            "--attack",
            "entangle_measure:beta2=0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    text = out.read_text()
    assert "[ancilla_coupling]" in text
    assert "schmidt_rank = 2" in text
    assert "is_product_state = false" in text
    assert "predicted_detection_per_decoy = 0.5" in text


def test_run_malformed_config_exit_one_no_report(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_pairs = seven\n")
    out = tmp_path / "never.txt"
    code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("noise", ["dephasing:inf", "rotation:nan", "dephasing:-inf"])
def test_run_non_finite_noise_exit_one_no_report(tmp_path, capsys, noise):
    out = tmp_path / "never.txt"
    assert run_cli(["run", "--sessions", "2", "--noise", noise, "--out", str(out)]) == 1
    assert "error: noise parameter must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("bob_states = psi+,psi+", "bob state set repeats psi+"),
        ("alice_states = psi+,phi-,phi-", "alice state set repeats phi-"),
        ("decoy_policy = random:psi+,phi+,psi+", "decoy policy repeats psi+"),
    ],
)
def test_run_repeated_label_exit_one_no_report(tmp_path, capsys, line, message):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.txt"
    assert run_cli(["run", "--config", str(cfg), "--sessions", "2", "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,line,message",
    [
        (["--sessions", "0"], "", "sessions must be positive"),
        ([], "sessions = -2", "sessions must be positive"),
    ],
)
def test_run_nonpositive_count_exit_one_no_report(tmp_path, capsys, flags, line, message):
    cfg = tmp_path / "counts.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.txt"
    assert run_cli(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_setting_workers_exit_one_no_report(tmp_path, capsys):
    # a run has one schedule, so ``workers`` is not a key
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers = 2\n")
    out = tmp_path / "never.txt"
    assert run_cli(["run", "--config", str(cfg), "--sessions", "2", "--out", str(out)]) == 1
    assert f"error: {cfg}:1: unknown key 'workers'" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_config_exit_one(tmp_path):
    code = run_cli(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


def test_run_config_repeating_a_key_exit_one_no_report(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_pairs = 8\nseed = 3\nN_PAIRS = 64\n")
    out = tmp_path / "never.txt"
    assert run_cli(["run", "--config", str(cfg), "--sessions", "2", "--out", str(out)]) == 1
    assert f"error: {cfg}:3: key 'n_pairs' is given twice" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of `run --sessions 30` reports without the out_path line, recorded
# before the engine kernels were rewritten; the numerics must not move them.
PINNED_REPORTS = [
    (
        ["--mode", "qsdc", "--seed", "42"],
        0,
        "3a70f4dbc3c34abab49c592b012a802864fd6361972c8a1051b3b632bd6b1c04",
    ),
    (
        ["--mode", "qd", "--noise", "rotation:0.4"],
        2,
        "41217bcf3c19f432d57612bb60cc1e4fb559ef4c4824e5d89f8196043095ed08",
    ),
    (
        ["--mode", "qsdc", "--attack", "entangle_measure:beta2=0.3"],
        2,
        "870b463e17323cabcbad777a0e5448e6d581e15927b88f6bdd3ed22d7bbe8669",
    ),
    (
        ["--mode", "qd", "--attack", "disturb:mode=reorder"],
        2,
        "88affabf60d086fb0deafe9d94b610f6bcbbb37d48d7ded5c340442f51064fa4",
    ),
]


@pytest.mark.parametrize("flags,exit_code,digest", PINNED_REPORTS)
def test_run_report_bytes_are_pinned(tmp_path, monkeypatch, flags, exit_code, digest):
    for key in [k for k in os.environ if k.startswith("OSBMDI_")]:
        monkeypatch.delenv(key)
    out = tmp_path / "report.txt"
    assert run_cli(["run", "--sessions", "30", *flags, "--out", str(out)]) == exit_code
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("out_path = "))
    assert hashlib.sha256(kept.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("flags", [[], ["--attack", "intercept_resend"]])
def test_qkd_report_is_the_qsdc_report_but_for_the_mode_line(tmp_path, monkeypatch, flags):
    """``qkd`` is an alias of ``qsdc``: the same sessions, the same report."""
    for key in [k for k in os.environ if k.startswith("OSBMDI_")]:
        monkeypatch.delenv(key)
    out = tmp_path / "report.txt"
    reports = {}
    for mode in ("qsdc", "qkd"):
        code = run_cli(["run", "--sessions", "20", "--seed", "5", "--mode", mode, *flags,
                        "--out", str(out)])
        reports[mode] = (code, out.read_text(encoding="utf-8").splitlines())
    (code_s, qsdc), (code_k, qkd) = reports["qsdc"], reports["qkd"]
    assert code_s == code_k and len(qsdc) == len(qkd)
    assert [(a, b) for a, b in zip(qsdc, qkd) if a != b] == [("mode = qsdc", "mode = qkd")]


# --- sweep ----------------------------------------------------------------------


def test_sweep_noise_phi_plus_dephasing_all_unity(tmp_path):
    out = tmp_path / "curve.tsv"
    code = run_cli(
        [
            "sweep",
            "--kind",
            "noise",
            "--label",
            "phi+",
            "--channel",
            "dephasing",
            "--grid",
            "0:pi:9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "param\tfidelity"
    for line in lines[2:]:
        assert float(line.split("\t")[1]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_attack_strength_tracks_beta2(tmp_path):
    out = tmp_path / "detect.tsv"
    code = run_cli(
        [
            "sweep",
            "--kind",
            "attack-strength",
            "--grid",
            "0,0.25,0.5",
            "--trials",
            "20000",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[2:]]
    for param, detection in rows:
        expect = float(param)
        se = math.sqrt(max(expect * (1 - expect), 1e-12) / 20000)
        assert abs(float(detection) - expect) <= max(4 * se, 1e-9)


# SHA-256 of the attack-strength table below as the one-check-per-call trial
# loop writes it; a batched trial path must reproduce every byte.
SWEEP_SHA256 = "3c035e13b68eefb777bfafa2c14868856babb400635ea63d426e5e0d12ff5ec5"


def test_sweep_attack_strength_table_is_pinned(tmp_path):
    out = tmp_path / "detect.tsv"
    args = ["sweep", "--kind", "attack-strength", "--grid", "0.1,0.5", "--trials", "5000"]
    assert run_cli(args + ["--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_sweep_nonpositive_trials_is_usage_error(tmp_path, capsys, trials):
    out = tmp_path / "detect.tsv"
    args = ["sweep", "--kind", "attack-strength", "--grid", "0.5", "--trials", trials]
    assert run_cli(args + ["--out", str(out)]) == 1
    assert "trials" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(args) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("grid", ["nan", "0,inf"])
def test_sweep_non_finite_noise_grid_is_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "fid.tsv"
    assert run_cli(["sweep", "--kind", "noise", "--grid", grid, "--out", str(out)]) == 1
    assert "error: noise parameter must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_grid_is_usage_error(capsys):
    for grid in (" ", ",", " , , "):
        assert run_cli(["sweep", "--kind", "noise", "--grid", grid]) == 1
        assert "error: grid must not be empty" in capsys.readouterr().err


def test_sweep_unknown_attack_is_usage_error():
    assert (
        run_cli(["sweep", "--kind", "attack-strength", "--attack", "flip_all", "--grid", "0.5"])
        == 1
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--sessions", "abc"],
        ["run", "--mode", "bogus"],
        ["sweep", "--kind", "noise", "--grid", "0:1:3", "--trials", "x"],
        ["run", "--sessions", "2", "--workers", "2"],
        ["sweep", "--kind", "attack-strength", "--grid", "0.5", "--attack", "entangle_measure"],
    ],
)
def test_argparse_usage_errors_exit_one(capsys, argv):
    """A usage error argparse finds exits 1, as any other, not argparse's 2:
    exit 2 means a run wrote a report and detected an attack."""
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]])
def test_help_and_version_exit_zero(capsys, argv):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.startswith(("usage: osbmdi", "osbmdi "))


# --- leakage and table2 ------------------------------------------------------------


def test_leakage_command_two_state(tmp_path, capsys):
    code = run_cli(["leakage", "--bob-states", "psi+,psi-"])
    assert code == 0
    text = capsys.readouterr().out
    assert "leaked_bits = 1" in text
    assert "announcement_invariant = true" in text


def test_leakage_command_four_state(capsys):
    code = run_cli(["leakage", "--bob-states", "psi+,psi-,phi+,phi-"])
    assert code == 0
    text = capsys.readouterr().out
    assert "leaked_bits = 0" in text


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--alice-states", "psi+,psi-,psi-"], "alice state set repeats psi-"),
        (["--bob-states", "psi+,psi+"], "bob state set repeats psi+"),
    ],
)
def test_leakage_repeated_label_exit_one_no_table(tmp_path, capsys, flags, message):
    out = tmp_path / "never.txt"
    assert run_cli(["leakage", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "leaked_bits" not in captured.out
    assert not out.exists()


def test_table2_command_exits_zero(capsys):
    code = run_cli(["table2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "mismatches = 0" in text
    assert "psi-\tphi-\tphi+" in text  # second block, swapped shared label


# --- one process, many calls ----------------------------------------------------------

# One of each exit: a report (0), a detected attack (2), a bad value (1), the
# other commands, a usage error argparse finds (exit 1) and ``--version``.
_INVOCATIONS = [
    ["run", "--sessions", "3", "--n-pairs", "4", "--seed", "7", "--mode", "qd"],
    ["run", "--sessions", "2", "--n-pairs", "4", "--attack", "intercept_resend"],
    ["run", "--sessions", "0"],
    ["leakage", "--bob-states", "psi+,psi-,phi+"],
    ["table2"],
    ["sweep", "--kind", "noise", "--grid", "0:pi:3"],
    ["run", "--n-pairs"],
    ["--version"],
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_called_again_in_one_process_matches_fresh_processes(monkeypatch):
    """``main`` reuses one parser per process: every call, the first and the
    repeats in any order, gives the exit code and bytes of a fresh process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSBMDI_")}
    for key in set(os.environ) - set(env):
        monkeypatch.delenv(key)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    fresh = []
    for argv in _INVOCATIONS:
        proc = subprocess.run(
            [sys.executable, "-m", "osbmdi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    for step in (1, -1, 1):
        assert [_in_process(argv) for argv in _INVOCATIONS[::step]] == fresh[::step]


# --- bad input, property ---------------------------------------------------------------

# Malformed or out-of-range values for any key or flag, with a few valid
# small ones; none asks for more than a few sessions, pairs, points or trials.
_VALUES = (
    "", " ", "0", "-1", "-3", "2", "1.5", "nan", "inf", "-inf", "abc", ",", "psi+,",
    "psi+,psi+", "fixed:", "random:", "fixed:chi", "random:psi+,psi+", "dephasing",
    "dephasing:x", "rotation:nan", "entangle_measure:beta2=2", "entangle_measure:beta2=x",
    "disturb:mode=x", "disturb:fraction=0", "fake_bmo:stages=3", "intercept_resend:legs=x",
    "flip_all:legs=", "intercept_resend:beta2=0.5", "flip_all:stages=2,mode=reorder",
    "pi/0", "0:1:0", "a:b:c", "1:2:3:4", "0,inf", "entangle_measure:beta2=0.1,beta2=0.9",
    "disturb:mode=reorder,mode=random_pauli",
)
_SEEDS = _VALUES + ("18446744073709551616",)
_FLAGS = {
    "run": ["--seed", "--sessions", "--n-pairs", "--mode", "--attack", "--noise"],
    "leakage": ["--alice-states", "--bob-states"],
    "sweep": ["--kind", "--grid", "--label", "--channel", "--apply-to", "--trials", "--seed"],
}


@st.composite
def bad_invocations(draw):
    """A ``run``, ``leakage`` or ``sweep`` command line and config file text:
    small valid defaults (a sweep's grid drawn from the pool), then up to
    three config lines and three flags with values from the pools above (a
    later value overrides an earlier one)."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    lines = ["sessions = 2", "n_pairs = 4"]
    if command != "sweep":
        for _ in range(draw(st.integers(0, 3))):
            key = draw(st.sampled_from(_KEYS + ("phaser",)))
            value = draw(st.sampled_from(_SEEDS if key == "seed" else _VALUES))
            lines.append(draw(st.sampled_from([f"{key} = {value}", f"{key} {value}"])))
    argv = [command]
    if command == "sweep":
        kind = draw(st.sampled_from(["noise", "attack-strength"]))
        argv += ["--kind", kind, "--trials", "2", "--grid", draw(st.sampled_from(_VALUES))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(_FLAGS[command]))
        argv += [flag, draw(st.sampled_from(_SEEDS if flag == "--seed" else _VALUES))]
    return argv, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocation=bad_invocations())
def test_bad_input_exits_cleanly(tmp_path_factory, invocation):
    """Whatever the values, a command exits 0, 1 or 2 and never raises or
    prints a traceback.  Exit 1 says ``error:`` and writes nothing to stdout;
    exit 2 comes only from ``run``, with its report on stdout."""
    argv, text = invocation
    if argv[0] != "sweep":
        cfg = tmp_path_factory.mktemp("bad") / "bad.cfg"
        cfg.write_text(text)
        argv = [argv[0], "--config", str(cfg), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert "error:" in err.getvalue()
        assert out.getvalue() == ""
    if code == 2:
        assert argv[0] == "run"
        assert out.getvalue().startswith("# osbmdi report v1\n\n[manifest]\n")
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_out_of_memory_exits_1_with_an_error_line():
    """A failed allocation ends ``run`` with exit 1 and an ``error:`` line,
    not a traceback.  The child's address space is capped with
    ``RLIMIT_AS``, which acts on that child process only."""
    resource = pytest.importorskip("resource")
    limit = 768 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {k: v for k, v in os.environ.items() if not k.startswith("OSBMDI_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"  # thread buffers take address space
    proc = subprocess.run(
        [sys.executable, "-m", "osbmdi.cli", "run", "--n-pairs", "20000000", "--sessions", "1"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout == ""
