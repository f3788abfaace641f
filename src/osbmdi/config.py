"""Configuration loading: documented key/value files, env overrides, flags.

A config file is a plain text document of ``key = value`` lines (``#``
starts a comment).  Recognized keys:

    mode              qsdc | qd | qkd
    n_pairs           positive even integer
    sessions          number of sessions a run executes
    seed              64-bit unsigned master seed
    workers           worker threads for batch fan-out (positive)
    alice_states      comma list of labels (psi+, psi-, phi+, phi-)
    bob_states        comma list of labels
    decoy_policy      fixed:LABEL or random:L1,L2,...
    error_threshold   abort when a round's check error rate exceeds this
    use_cases_ii_iii  true/false: reuse mixed slots for message symbols
    m_split_decoys    verify-round split-pair count (default n_pairs/4)
    attack            strategy[:k=v,...]; see the attack module
    noise             dephasing:PHI or rotation:THETA

Environment variables override file values and CLI flags override both; the
variable for key ``k`` is ``OSBMDI_<K>`` (upper-case).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .adversary import AttackSpec, NoiseSpec
from .protocol import ConfigError, DecoyPolicy, Mode, SessionConfig
from .quantum import BellLabel

ENV_PREFIX = "OSBMDI_"

_KEYS = (
    "mode",
    "n_pairs",
    "sessions",
    "seed",
    "workers",
    "alice_states",
    "bob_states",
    "decoy_policy",
    "error_threshold",
    "use_cases_ii_iii",
    "m_split_decoys",
    "attack",
    "noise",
)

_DEFAULTS = {
    "mode": "qsdc",
    "n_pairs": "8",
    "sessions": "100",
    "seed": "0",
    "workers": "1",
    "alice_states": "psi+",
    "bob_states": "psi+,psi-",
    "decoy_policy": "fixed:psi+",
    "error_threshold": "0.0",
    "use_cases_ii_iii": "false",
    "m_split_decoys": "",
    "attack": "",
    "noise": "",
}


@dataclass(frozen=True)
class RunOptions:
    sessions: int
    workers: int


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().lower()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _env_overrides() -> dict[str, str]:
    out = {}
    for key in _KEYS:
        value = os.environ.get(ENV_PREFIX + key.upper())
        if value is not None:
            out[key] = value
    return out


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_labels(text: str) -> tuple[BellLabel, ...]:
    try:
        return tuple(BellLabel.parse(t.strip()) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve(
    file_values: dict[str, str] | None = None,
    cli_values: dict[str, str] | None = None,
) -> tuple[SessionConfig, RunOptions]:
    """Merge defaults, file, environment and CLI values into a session config.

    Precedence (lowest to highest): built-in defaults, config file,
    ``OSBMDI_*`` environment variables, command-line flags.
    """
    merged = dict(_DEFAULTS)
    merged.update(file_values or {})
    merged.update(_env_overrides())
    merged.update({k: v for k, v in (cli_values or {}).items() if v is not None})
    try:
        attack = AttackSpec.parse(merged["attack"]) if merged["attack"] else None
        noise = NoiseSpec.parse(merged["noise"]) if merged["noise"] else None
        m_split = int(merged["m_split_decoys"]) if merged["m_split_decoys"] else None
        cfg = SessionConfig(
            n_pairs=int(merged["n_pairs"]),
            mode=Mode(merged["mode"].lower()),
            alice_state_set=_parse_labels(merged["alice_states"]),
            bob_state_set=_parse_labels(merged["bob_states"]),
            decoy_policy=DecoyPolicy.parse(merged["decoy_policy"]),
            attack=attack,
            noise=noise,
            error_threshold=float(merged["error_threshold"]),
            master_seed=int(merged["seed"]),
            use_cases_ii_iii=_parse_bool(merged["use_cases_ii_iii"]),
            m_split_decoys=m_split,
        )
        options = RunOptions(sessions=int(merged["sessions"]), workers=int(merged["workers"]))
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if options.sessions <= 0:
        raise ConfigError("sessions must be positive")
    if options.workers <= 0:
        raise ConfigError("workers must be positive")
    return cfg, options


def describe_config(cfg: SessionConfig) -> list[tuple[str, str]]:
    """Stable key/value rendering of a resolved config for report manifests."""
    return [
        ("mode", cfg.mode.value),
        ("n_pairs", str(cfg.n_pairs)),
        ("alice_states", ",".join(lab.value for lab in cfg.alice_state_set)),
        ("bob_states", ",".join(lab.value for lab in cfg.bob_state_set)),
        ("decoy_policy", cfg.decoy_policy.describe()),
        ("error_threshold", f"{cfg.error_threshold:.10g}"),
        ("use_cases_ii_iii", "true" if cfg.use_cases_ii_iii else "false"),
        ("m_split_decoys", str(cfg.split_decoy_count)),
        ("attack", cfg.attack.describe() if cfg.attack else "none"),
        ("noise", cfg.noise.describe() if cfg.noise else "none"),
        ("master_seed", str(cfg.master_seed)),
    ]
