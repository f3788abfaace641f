"""Batch statistics, leakage accounting, and noise-robustness sweeps.

Functions here are pure over their inputs: aggregation over session reports,
the public-announcement leakage calculator, collective-noise fidelity
curves, a plug-in mutual-information estimator for the adversary's records,
and per-strategy single-check experiments used to measure detection rates
at high trial counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .adversary import NoiseSpec
from .quantum import (
    BellLabel,
    PauliLabel,
    StateVector,
    apply_cnot,
    apply_pauli,
    apply_unitary1q,
    bell_measure,
    comp_measure,
    fidelity,
    make_bell,
    pauli_frame,
    single_qubit,
    swapped_home_label,
    tensor,
)

# 95% two-sided normal quantile, used for the binomial interval half-width:
#   hw = z * sqrt(rate * (1 - rate) / checks)
_Z95 = 1.959963984540054


class IntegrityError(Exception):
    """A consistency enumeration came up empty; inputs are corrupt."""


@dataclass(frozen=True)
class DetectionEstimate:
    """Pooled failure rate of a check with a 95% normal-approximation CI."""

    strategy: str
    checks: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.checks if self.checks else 0.0

    @property
    def ci95_halfwidth(self) -> float:
        if not self.checks:
            return 0.0
        r = self.rate
        return _Z95 * math.sqrt(r * (1.0 - r) / self.checks)


_CHECK_KINDS = ("all", "stage1", "stage2_gv", "stage2_split")


def detection_rate(
    reports: Iterable, strategy: str, check_kind: str = "all"
) -> DetectionEstimate:
    """Pool check failures over a batch of session reports.

    ``check_kind`` selects which checks to pool: the stage-1 correlation
    checks, the stage-2 whole-pair outcome comparisons, the stage-2 split
    correlation checks, or all executed checks together.
    """
    if check_kind not in _CHECK_KINDS:
        raise ValueError(f"unknown check kind {check_kind!r}")
    checks = failures = 0
    for rep in reports:
        if check_kind in ("all", "stage1"):
            checks += rep.stage1_checks
            failures += rep.stage1_failures
        if check_kind in ("all", "stage2_gv"):
            checks += rep.stage2_gv_checks
            failures += rep.stage2_gv_failures
        if check_kind in ("all", "stage2_split"):
            checks += rep.stage2_split_checks
            failures += rep.stage2_split_failures
    return DetectionEstimate(strategy, checks, failures)


# ---------------------------------------------------------------------------
# Information leakage from the public announcements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageReport:
    h_apriori: float
    h_aposteriori: float
    consistent_count: int

    @property
    def leaked(self) -> float:
        return self.h_apriori - self.h_aposteriori


def leakage_bits(
    alice_set: Sequence[BellLabel],
    bob_set: Sequence[BellLabel],
    bmo1: BellLabel,
    bmo2: BellLabel,
    init_priors: dict[tuple[BellLabel, BellLabel], float] | None = None,
) -> LeakageReport:
    """Dialogue-mode leakage from the two public outcome announcements.

    Enumerates every (alice init, bob init, alice op, bob op) combination
    consistent with both announcements.  With uniform priors the posterior is
    equiprobable over the consistent set, so the residual ignorance is
    log2(count) and the leak is 4 - log2(count) bits (two 2-bit messages are
    exchanged per pair).  Non-uniform init priors shift the posterior
    entropy accordingly.
    """
    weights: list[float] = []
    count = 0
    for a_init in alice_set:
        for b_init in bob_set:
            shared = swapped_home_label(a_init, b_init, bmo1)
            prior = 1.0 if init_priors is None else init_priors.get((a_init, b_init), 0.0)
            for u_a in PauliLabel:
                after_a = pauli_frame(shared, u_a, side=0)
                for u_b in PauliLabel:
                    if pauli_frame(after_a, u_b, side=1) is bmo2:
                        count += 1
                        weights.append(prior)
    if count == 0:
        raise IntegrityError("no encoding is consistent with the announcements")
    total = sum(weights)
    h_post = -sum(
        (w / total) * math.log2(w / total) for w in weights if w > 0.0
    )
    return LeakageReport(h_apriori=4.0, h_aposteriori=h_post, consistent_count=count)


# ---------------------------------------------------------------------------
# Collective-noise fidelity curves
# ---------------------------------------------------------------------------


def noise_fidelity(
    label: BellLabel,
    channel: "str | NoiseSpec",
    grid: Sequence[float],
    apply_to: str = "pair",
) -> list[tuple[float, float]]:
    """Fidelity of a noised Bell pair against its prepared label.

    ``channel`` is a channel name or a NoiseSpec (whose parameter is ignored
    in favor of the grid).  ``apply_to`` selects whether the channel unitary
    hits both qubits (a whole traveling pair) or only the second (a split
    pair whose first half stays home).  Fidelity is global-phase blind by
    construction.
    """
    if isinstance(channel, NoiseSpec):
        channel = channel.channel
    if apply_to not in ("pair", "travel_half"):
        raise ValueError(f"unknown application mode {apply_to!r}")
    curve = []
    for param in grid:
        spec = NoiseSpec(channel, float(param))
        u = spec.matrix()
        prepared = make_bell(label, "h", "t")
        noised = apply_unitary1q(prepared, "t", u)
        if apply_to == "pair":
            noised = apply_unitary1q(noised, "h", u)
        curve.append((float(param), fidelity(noised, prepared)))
    return curve


# ---------------------------------------------------------------------------
# Empirical mutual information of the adversary's records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutualInformationEstimate:
    bits: float
    samples: int
    bias_bound: float
    insufficient: bool


def mutual_information_plugin(
    pairs: Sequence[tuple], bias_limit: float = 0.05
) -> MutualInformationEstimate:
    """Plug-in MI (bits) between two discrete variables given as (x, y) pairs.

    The bias bound is the first-order Miller-Madow term
    (|X|-1)(|Y|-1) / (2 N ln 2); estimates where it exceeds ``bias_limit``
    are flagged as insufficient.
    """
    n = len(pairs)
    if n == 0:
        return MutualInformationEstimate(0.0, 0, math.inf, True)
    joint: dict[tuple, int] = {}
    mx: dict = {}
    my: dict = {}
    for x, y in pairs:
        joint[(x, y)] = joint.get((x, y), 0) + 1
        mx[x] = mx.get(x, 0) + 1
        my[y] = my.get(y, 0) + 1
    mi = 0.0
    for (x, y), c in joint.items():
        p_xy = c / n
        mi += p_xy * math.log2(p_xy * n * n / (mx[x] * my[y]))
    bias = (len(mx) - 1) * (len(my) - 1) / (2.0 * n * math.log(2.0))
    return MutualInformationEstimate(max(mi, 0.0), n, bias, bias > bias_limit)


def eve_information(reports: Iterable, bias_limit: float = 0.05) -> MutualInformationEstimate:
    """MI between the adversary's per-pair records and the transmitted symbols.

    The record for each surviving pair is everything public (both outcome
    announcements) plus any ancilla readout attached to that pair; the
    symbol is the sender's 2-bit value, joined with the responder's in
    dialogue mode.
    """
    pairs: list[tuple] = []
    for rep in reports:
        senders = sorted(rep.sent_symbols)
        for k, view in enumerate(rep.eve_views):
            symbol = tuple(rep.sent_symbols[who][k] for who in senders)
            pairs.append((view, symbol))
    return mutual_information_plugin(pairs, bias_limit)


# ---------------------------------------------------------------------------
# Ancilla-coupling attack profile (Schmidt structure across the ancilla cut)
# ---------------------------------------------------------------------------


def cnot_attack_profile(alpha: complex, beta: complex) -> dict:
    """Structure of the post-CNOT state for an ancilla coupled to one half
    of a psi+ pair.

    Returns the Schmidt coefficients across the ancilla cut, the resulting
    Schmidt rank (rank 1 would mean a product state), and the probability
    that a Bell measurement of the pair no longer returns psi+.
    """
    s = tensor(make_bell(BellLabel.PSI_PLUS, "h", "t"), single_qubit("e", alpha, beta))
    s = apply_cnot(s, "e", "t")
    # amplitudes ordered (h, t, e); fold the pair axes together
    mat = s.amplitudes.reshape(4, 2)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > 1e-9))
    # detection: project the (h, t) pair on psi+ and sum over the ancilla
    psi = make_bell(BellLabel.PSI_PLUS, "h", "t").amplitudes
    keep = 0.0
    for e_bit in (0, 1):
        branch = mat[:, e_bit]
        keep += abs(np.vdot(psi, branch)) ** 2
    return {
        "schmidt_coefficients": tuple(float(v) for v in svals),
        "schmidt_rank": rank,
        "is_product": rank == 1,
        "detection_probability": 1.0 - keep,
    }


# ---------------------------------------------------------------------------
# Single-check trial experiments
#
# Each function replays exactly one verification check under one attack
# geometry through the real measurement path, returning True when the check
# fails (the attack is detected).  They are deliberately tiny so that rate
# estimates over >= 1e5 trials stay fast.
# ---------------------------------------------------------------------------

_PSIP = BellLabel.PSI_PLUS


def _parity_ok(announced: BellLabel, bit_a: int, bit_b: int) -> bool:
    expected = swapped_home_label(_PSIP, _PSIP, announced)
    return (bit_a == bit_b) == expected.correlated


_IR_JOINT = tensor(make_bell(_PSIP, "d1", "d2"), make_bell(_PSIP, "e1", "e2"))
_BOB_PAIR = make_bell(_PSIP, "d3", "d4")


def trial_intercept_resend_case1(rng: np.random.Generator) -> bool:
    """Both-decoy slot with the responder's travel half stolen and replaced."""
    announced, rest = bell_measure(_IR_JOINT, "d2", "e2", rng)
    bit_a, _ = comp_measure(rest, "d1", rng)
    bit_b, _ = comp_measure(_BOB_PAIR, "d3", rng)
    return not _parity_ok(announced, bit_a, bit_b)


_ALICE_PAIR = make_bell(_PSIP, "d1", "d2")


def trial_fake_bmo_case1(rng: np.random.Generator) -> bool:
    """Both-decoy slot where the node announces without measuring."""
    announced = list(BellLabel)[rng.integers(4)]
    bit_a, _ = comp_measure(_ALICE_PAIR, "d1", rng)
    bit_b, _ = comp_measure(_BOB_PAIR, "d3", rng)
    return not _parity_ok(announced, bit_a, bit_b)


def _split_attacked_state(beta2: float) -> StateVector:
    alpha, beta = math.sqrt(1.0 - beta2), math.sqrt(beta2)
    s = tensor(make_bell(_PSIP, "h", "t"), single_qubit("e", alpha, beta))
    return apply_cnot(s, "e", "t")


def make_trial_entangle_split(beta2: float) -> Callable[[np.random.Generator], bool]:
    """Split decoy whose traveling half was CNOT-coupled to an ancilla."""
    attacked = _split_attacked_state(beta2)

    def trial(rng: np.random.Generator) -> bool:
        c_bit, rest = comp_measure(attacked, "t", rng)
        o_bit, _ = comp_measure(rest, "h", rng)
        return c_bit != o_bit  # psi+ expects equal bits

    return trial


def make_trial_entangle_whole(beta2: float) -> Callable[[np.random.Generator], bool]:
    """Whole traveling pair with one half CNOT-coupled to an ancilla."""
    attacked = _split_attacked_state(beta2)

    def trial(rng: np.random.Generator) -> bool:
        announced, _ = bell_measure(attacked, "h", "t", rng)
        return announced is not _PSIP

    return trial


_FLIPPED_WHOLE = apply_pauli(
    apply_pauli(make_bell(_PSIP, "q1", "q2"), "q1", PauliLabel.X), "q2", PauliLabel.X
)
_FLIPPED_SPLIT = apply_pauli(make_bell(_PSIP, "h", "t"), "t", PauliLabel.X)


def trial_flip_whole(rng: np.random.Generator) -> bool:
    """Whole decoy pair with X on both halves: label unchanged, check blind."""
    announced, _ = bell_measure(_FLIPPED_WHOLE, "q1", "q2", rng)
    return announced is not _PSIP


def trial_flip_split(rng: np.random.Generator) -> bool:
    """Split decoy with X on the traveling half only: always anti-correlated."""
    c_bit, rest = comp_measure(_FLIPPED_SPLIT, "t", rng)
    o_bit, _ = comp_measure(rest, "h", rng)
    return c_bit != o_bit


_NON_IDENTITY = (PauliLabel.X, PauliLabel.IY, PauliLabel.Z)
_PAULI_HIT_STATES = tuple(
    apply_pauli(apply_pauli(make_bell(_PSIP, "q1", "q2"), "q1", p1), "q2", p2)
    for p1 in _NON_IDENTITY
    for p2 in _NON_IDENTITY
)


def trial_random_pauli_whole(rng: np.random.Generator) -> bool:
    """Whole decoy pair with independent uniform non-identity Paulis on both
    halves (a full-leg disturbance hits both)."""
    s = _PAULI_HIT_STATES[int(rng.integers(9))]
    announced, _ = bell_measure(s, "q1", "q2", rng)
    return announced is not _PSIP


def run_check_trials(
    trial: Callable[[np.random.Generator], bool],
    trials: int,
    seed: int,
    strategy: str = "trial",
) -> DetectionEstimate:
    """Run one single-check experiment ``trials`` times under a seeded stream."""
    rng = np.random.default_rng(seed)
    failures = sum(1 for _ in range(trials) if trial(rng))
    return DetectionEstimate(strategy, trials, failures)
