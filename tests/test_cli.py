"""Command-line interface tests: subcommands, exit codes, determinism."""
import hashlib
import math
import os

import pytest

from osbmdi.cli import main, parse_grid
from osbmdi.config import ConfigError, parse_config_file, resolve


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
    with pytest.raises(ConfigError):
        parse_grid("")
    with pytest.raises(ConfigError):
        parse_grid("0:1:0")


# --- config files -------------------------------------------------------------


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


def test_run_missing_config_exit_one(tmp_path):
    code = run_cli(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


def test_run_workers_do_not_change_bytes(tmp_path):
    out = tmp_path / "report.txt"
    base = ["run", "--sessions", "16", "--seed", "21", "--out", str(out)]
    run_cli(base + ["--workers", "1"])
    first = out.read_bytes()
    run_cli(base + ["--workers", "4"])
    assert out.read_bytes() == first


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
            "--attack",
            "entangle_measure",
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


def test_sweep_empty_grid_is_usage_error():
    assert run_cli(["sweep", "--kind", "noise", "--grid", " "]) == 1


def test_sweep_unknown_attack_is_usage_error():
    assert (
        run_cli(["sweep", "--kind", "attack-strength", "--attack", "flip_all", "--grid", "0.5"])
        == 1
    )


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
