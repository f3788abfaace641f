"""Report documents: structured text with a manifest, stable byte for byte.

A report is machine-parseable ``key = value`` lines grouped under
``[section]`` headers.  Identical (config, seed, session count) inputs
produce identical bytes: floats are rendered with a fixed shortest-form
formatter and nothing time- or host-dependent is embedded.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import __version__
from .analysis import (
    DetectionEstimate,
    cnot_attack_profile,
    detection_rate,
    leakage_bits,
)
from .protocol import CaseTag, Mode, SessionConfig, SessionReport
from .quantum import BellLabel


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility block embedded verbatim in every report."""

    config_path: str
    sessions: int
    master_seed: int
    out_path: str
    resolved: tuple[tuple[str, str], ...]
    tool_version: str = __version__

    def lines(self) -> list[str]:
        rows = [
            ("tool_version", self.tool_version),
            ("config_path", self.config_path),
            ("out_path", self.out_path),
            ("sessions", str(self.sessions)),
        ]
        rows.extend(self.resolved)
        return [f"{k} = {v}" for k, v in rows]


def _section(name: str, rows: Iterable[tuple[str, object]]) -> list[str]:
    out = [f"[{name}]"]
    out.extend(f"{k} = {fmt(v)}" for k, v in rows)
    out.append("")
    return out


def _estimate_rows(est: DetectionEstimate) -> list[tuple[str, object]]:
    return [
        ("checks", est.checks),
        ("failures", est.failures),
        ("rate", est.rate),
        ("ci95_halfwidth", est.ci95_halfwidth),
    ]


def render_report(
    manifest: RunManifest, cfg: SessionConfig, reports: Sequence[SessionReport]
) -> str:
    """Render the batch report for a ``run`` invocation."""
    lines: list[str] = ["# osbmdi report v1", ""]
    lines.append("[manifest]")
    lines.extend(manifest.lines())
    lines.append("")

    aborted = sum(1 for r in reports if r.aborted)
    stages = sorted({r.abort_stage for r in reports if r.abort_stage})
    lines.extend(
        _section(
            "results",
            [
                ("sessions_run", len(reports)),
                ("sessions_aborted", aborted),
                ("abort_rate", aborted / len(reports) if reports else 0.0),
                ("abort_stages", ",".join(stages) if stages else "none"),
            ],
        )
    )

    case_totals = {tag.value: 0 for tag in CaseTag}
    for r in reports:
        for tag, count in r.case_counts.items():
            case_totals[tag] += count
    lines.extend(
        _section("cases", [(f"case_{tag.lower()}", n) for tag, n in case_totals.items()])
    )

    strategy = cfg.attack.strategy if cfg.attack else "none"
    rows: list[tuple[str, object]] = []
    for kind in ("stage1", "stage2_gv", "stage2_split"):
        est = detection_rate(reports, strategy, check_kind=kind)
        rows.extend((f"{kind}_{k}", v) for k, v in _estimate_rows(est))
    lines.extend(_section("checks", rows))

    total = sum(r.symbols_total for r in reports)
    correct = sum(r.symbols_correct for r in reports)
    lines.extend(
        _section(
            "decode",
            [
                ("symbols_sent", total),
                ("symbols_correct", correct),
                ("accuracy", correct / total if total else 1.0),
            ],
        )
    )

    if cfg.attack is not None:
        est = detection_rate(reports, strategy, check_kind="all")
        lines.extend(
            _section("detection", [("strategy", strategy)] + _estimate_rows(est))
        )

    if cfg.mode is Mode.QD:
        leak = leakage_bits(
            cfg.alice_state_set,
            cfg.bob_state_set,
            BellLabel.PSI_PLUS,
            BellLabel.PSI_PLUS,
        )
        lines.extend(
            _section(
                "leakage",
                [
                    ("h_apriori_bits", leak.h_apriori),
                    ("h_aposteriori_bits", leak.h_aposteriori),
                    ("leaked_bits", leak.leaked),
                    ("consistent_set_size", leak.consistent_count),
                ],
            )
        )

    if cfg.attack is not None and cfg.attack.strategy == "entangle_measure":
        profile = cnot_attack_profile(cfg.attack.alpha, cfg.attack.beta)
        split_est = detection_rate(reports, strategy, check_kind="stage2_split")
        lines.extend(
            _section(
                "ancilla_coupling",
                [
                    ("schmidt_rank", profile["schmidt_rank"]),
                    (
                        "schmidt_coefficients",
                        ",".join(fmt(v) for v in profile["schmidt_coefficients"]),
                    ),
                    ("is_product_state", profile["is_product"]),
                    ("predicted_detection_per_decoy", profile["detection_probability"]),
                    ("measured_split_decoy_rate", split_est.rate),
                ],
            )
        )

    return "\n".join(lines).rstrip("\n") + "\n"


def render_table(header: Sequence[str], rows: Sequence[Sequence[object]], meta: str) -> str:
    """Tab-delimited table with a single comment header line."""
    lines = [f"# {meta}", "\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"
