"""Configuration loading: documented key/value files, env overrides, flags.

A config file is a plain text document of ``key = value`` lines (``#``
starts a comment), each key at most once.  The recognized keys are those
of ``_DEFAULTS``, which holds each key's default; README's configuration
table says what each means, and a test holds the table to these keys.

Environment variables override file values and CLI flags override both; the
variable for key ``k`` is ``OSBMDI_<K>``, and any other ``OSBMDI_`` one raises.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .adversary import AttackSpec, NoiseSpec, exact, parsed
from .protocol import LABEL_SET, ConfigError, DecoyPolicy, Mode, SessionConfig, parse_labels

ENV_PREFIX = "OSBMDI_"

_DEFAULTS = {
    "mode": "qsdc",
    "n_pairs": "8",
    "sessions": "100",
    "seed": "0",
    "alice_states": "psi+",
    "bob_states": "psi+,psi-",
    "decoy_policy": "fixed:psi+",
    "error_threshold": "0.0",
    "use_cases_ii_iii": "false",
    "m_split_decoys": "",
    "attack": "",
    "noise": "",
}
# The recognized keys, in the order of README's configuration table.
_KEYS = tuple(_DEFAULTS)


@dataclass(frozen=True)
class RunOptions:
    sessions: int

    @property
    def workers(self) -> int:
        """Always 1.  It exists because ``perfbench/workloads.py`` reads it;
        ROADMAP item 1 removes it."""
        return 1


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
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is given twice")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _env_overrides() -> dict[str, str]:
    """``OSBMDI_<K>`` values by key; an ``OSBMDI_`` variable of no key raises."""
    keys = {ENV_PREFIX + key.upper(): key for key in _KEYS}
    unknown = sorted(var for var in os.environ if var.startswith(ENV_PREFIX) and var not in keys)
    if unknown:
        raise ConfigError(f"unknown environment variable {unknown[0]}")
    return {key: os.environ[var] for var, key in keys.items() if var in os.environ}


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}
_MODES = "one of " + ", ".join(mode.value for mode in Mode)


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
        split = merged["m_split_decoys"]
        m_split = parsed(int, split, "m_split_decoys") if split else None
        cfg = SessionConfig(
            n_pairs=parsed(int, merged["n_pairs"], "n_pairs"),
            mode=parsed(lambda t: Mode(t.lower()), merged["mode"], "mode", _MODES),
            alice_state_set=parsed(parse_labels, merged["alice_states"], "alice_states", LABEL_SET),
            bob_state_set=parsed(parse_labels, merged["bob_states"], "bob_states", LABEL_SET),
            decoy_policy=DecoyPolicy.parse(merged["decoy_policy"]),
            attack=attack,
            noise=noise,
            error_threshold=parsed(float, merged["error_threshold"], "error_threshold"),
            master_seed=parsed(int, merged["seed"], "seed"),
            use_cases_ii_iii=parsed(lambda t: _BOOLEANS[t.strip().lower()],
                                    merged["use_cases_ii_iii"], "use_cases_ii_iii", "a boolean"),
            m_split_decoys=m_split,
        )
        options = RunOptions(sessions=parsed(int, merged["sessions"], "sessions"))
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if options.sessions <= 0:
        raise ConfigError("sessions must be positive")
    return cfg, options


def describe_config(cfg: SessionConfig) -> list[tuple[str, str]]:
    """Stable key/value rendering of a resolved config for report manifests."""
    return [
        ("mode", cfg.mode.value),
        ("n_pairs", str(cfg.n_pairs)),
        ("alice_states", ",".join(lab.value for lab in cfg.alice_state_set)),
        ("bob_states", ",".join(lab.value for lab in cfg.bob_state_set)),
        ("decoy_policy", cfg.decoy_policy.describe()),
        ("error_threshold", exact(cfg.error_threshold, ".10g")),
        ("use_cases_ii_iii", "true" if cfg.use_cases_ii_iii else "false"),
        ("m_split_decoys", str(cfg.split_decoy_count)),
        ("attack", cfg.attack.describe() if cfg.attack else "none"),
        ("noise", cfg.noise.describe() if cfg.noise else "none"),
        ("master_seed", str(cfg.master_seed)),
    ]
