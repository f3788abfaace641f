"""Command-line entry point: batch runs, sweeps, leakage and decode tables.

Subcommands:
    run      execute sessions under one config and emit a report document
    sweep    noise-fidelity or attack-strength curves as delimited text
    leakage  announcement-leakage table for the configured state sets
    table2   reproduce the decode table and diff it against built-in data

Exit codes: 0 success, 1 configuration/usage error, 2 protocol abort
(an attack was detected in at least one session of a ``run``).
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache

from . import __version__
from .analysis import (
    leakage_bits,
    make_trial_entangle_split,
    noise_fidelity,
    run_check_trials,
)
from .config import ConfigError, describe_config, parse_config_file, resolve
from .protocol import DECODE_REFERENCE, decode_table_rows, run_batch
from .quantum import BellLabel, PauliLabel
from .report import RunManifest, fmt, render_report, render_table

_PI_ATOM = re.compile(r"^(?P<num>\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?$")


def _parse_scalar(text: str) -> float:
    """Accept plain floats and pi expressions like 'pi', '2pi', 'pi/8', '3pi/4'."""
    text = text.strip().lower()
    match = _PI_ATOM.match(text)
    if match:
        num = float(match.group("num") or 1.0)
        den = float(match.group("den") or 1.0)
        if den == 0:
            raise ConfigError(f"grid atom {text!r} divides by zero")
        return num * math.pi / den
    return float(text)


def parse_grid(spec: str) -> list[float]:
    """Grid syntax: 'a:b:n' (n evenly spaced points) or a comma list of atoms."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("grid must not be empty")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("linspace grid syntax is START:STOP:COUNT")
        start, stop = _parse_scalar(parts[0]), _parse_scalar(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ConfigError("grid point count must be positive")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + k * step for k in range(count)]
    atoms = [_parse_scalar(item) for item in spec.split(",") if item.strip()]
    if not atoms:
        raise ConfigError("grid must not be empty")
    return atoms


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {
        "mode": args.mode,
        "sessions": str(args.sessions) if args.sessions is not None else None,
        "seed": str(args.seed) if args.seed is not None else None,
        "n_pairs": str(args.n_pairs) if args.n_pairs is not None else None,
        "attack": args.attack,
        "noise": args.noise,
    }
    cfg, options = resolve(file_values, cli_values)
    reports = run_batch(cfg, options.sessions)
    manifest = RunManifest(
        config_path=args.config or "-",
        sessions=options.sessions,
        master_seed=cfg.master_seed,
        out_path=args.out or "-",
        resolved=tuple(describe_config(cfg)),
    )
    _write_out(render_report(manifest, cfg, reports), args.out)
    return 2 if any(r.aborted for r in reports) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials <= 0:
        raise ConfigError("--trials must be positive")
    grid = parse_grid(args.grid)
    if args.kind == "noise":
        label = BellLabel.parse(args.label)
        curve = noise_fidelity(label, args.channel, grid, apply_to=args.apply_to)
        meta = (
            f"osbmdi {__version__} sweep kind=noise label={label.value} "
            f"channel={args.channel} apply_to={args.apply_to}"
        )
        text = render_table(("param", "fidelity"), curve, meta)
    else:  # entangle_measure, the grid values its squared ancilla amplitude
        rows = []
        for beta2 in grid:
            if not 0.0 <= beta2 <= 1.0:
                raise ConfigError("entangle_measure grid values must lie in [0, 1]")
            est = run_check_trials(
                make_trial_entangle_split(beta2),
                trials=args.trials,
                seed=args.seed,
                strategy="entangle_measure",
            )
            rows.append((beta2, est.rate))
        meta = (
            f"osbmdi {__version__} sweep kind=attack-strength "
            f"attack=entangle_measure trials={args.trials} seed={args.seed}"
        )
        text = render_table(("param", "detection"), rows, meta)
    _write_out(text, args.out)
    return 0


def _cmd_leakage(args: argparse.Namespace) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {
        "alice_states": args.alice_states,
        "bob_states": args.bob_states,
    }
    cfg, _ = resolve(file_values, cli_values)
    counts = set()
    rows = []
    for bmo1 in BellLabel:
        for bmo2 in BellLabel:
            rep = leakage_bits(cfg.alice_state_set, cfg.bob_state_set, bmo1, bmo2)
            counts.add(rep.consistent_count)
            rows.append((bmo1.value, bmo2.value, rep.consistent_count, rep.leaked))
    lines = [
        "# osbmdi leakage (dialogue semantics: 4 bits exchanged per pair)",
        f"alice_states = {','.join(lab.value for lab in cfg.alice_state_set)}",
        f"bob_states = {','.join(lab.value for lab in cfg.bob_state_set)}",
        "",
        "round1\tround2\tconsistent\tleaked_bits",
    ]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    rep = leakage_bits(
        cfg.alice_state_set, cfg.bob_state_set, BellLabel.PSI_PLUS, BellLabel.PSI_PLUS
    )
    lines += [
        "",
        f"h_apriori_bits = {fmt(rep.h_apriori)}",
        f"h_aposteriori_bits = {fmt(rep.h_aposteriori)}",
        f"leaked_bits = {fmt(rep.leaked)}",
        f"announcement_invariant = {fmt(len(counts) == 1)}",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    produced = decode_table_rows()
    expected = list(DECODE_REFERENCE)
    lines = [
        "# decode table: responder init, round-1 outcome, shared label,",
        "# round-3 outcome for each encoding I/X/iY/Z",
        "init\tround1\tshared\t" + "\t".join(p.value for p in PauliLabel),
    ]
    mismatches = 0
    for got, want in zip(produced, expected):
        init, bmo1, shared, outcomes = got
        mark = ""
        if got != want:
            mismatches += 1
            mark = "\tMISMATCH"
        lines.append(
            f"{init.value}\t{bmo1.value}\t{shared.value}\t"
            + "\t".join(o.value for o in outcomes)
            + mark
        )
    lines.append("")
    lines.append(f"mismatches = {mismatches}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0 if mismatches == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osbmdi",
        description="Deterministic simulator for orthogonal-state-based "
        "measurement-device-independent direct quantum messaging.",
    )
    parser.add_argument("--version", action="version", version=f"osbmdi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute sessions and emit a report")
    run_p.add_argument("--config", help="path to a key = value config file")
    run_p.add_argument("--sessions", type=int, help="number of sessions")
    run_p.add_argument("--seed", type=int, help="64-bit master seed")
    run_p.add_argument(
        "--mode", choices=["qsdc", "qd", "qkd"], help="protocol mode (qkd is an alias of qsdc)"
    )
    run_p.add_argument("--n-pairs", type=int, help="message pairs per session")
    run_p.add_argument("--attack", help="adversary strategy NAME[:k=v,...]")
    run_p.add_argument("--noise", help="collective channel noise NAME:PARAM")
    run_p.add_argument("--out", help="report path (default: stdout)")

    sweep_p = sub.add_parser("sweep", help="noise or attack-strength curves")
    sweep_p.add_argument("--kind", choices=["noise", "attack-strength"], required=True)
    sweep_p.add_argument("--grid", required=True, help="'a:b:n' or comma list; pi atoms ok")
    sweep_p.add_argument("--label", default="psi+", help="Bell label for noise sweeps")
    sweep_p.add_argument(
        "--channel", choices=["dephasing", "rotation"], default="dephasing"
    )
    sweep_p.add_argument(
        "--apply-to",
        choices=["pair", "travel_half"],
        default="pair",
        help="noise hits both qubits of a traveling pair or only the travel half",
    )
    sweep_p.add_argument("--trials", type=int, default=20000)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--out", help="table path (default: stdout)")

    leak_p = sub.add_parser("leakage", help="announcement-leakage table")
    leak_p.add_argument("--config", help="path to a key = value config file")
    leak_p.add_argument("--alice-states", dest="alice_states")
    leak_p.add_argument("--bob-states", dest="bob_states")
    leak_p.add_argument("--out", help="output path (default: stdout)")

    table_p = sub.add_parser(
        "table2", help="reproduce the decode table and diff against built-in data"
    )
    table_p.add_argument("--out", help="output path (default: stdout)")
    return parser


# ``main``'s parser, built once per process: ``parse_args`` keeps no state
# in it, and building it costs about fifteen times as much as a parse.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, and 2 once it has
        # printed a usage error's usage and error: lines; that is exit 1 here
        return 1 if exc.code else 0
    try:
        # looked up when called, so that a replaced ``_cmd_*`` function runs
        return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the failed allocation's frames are gone by now
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
