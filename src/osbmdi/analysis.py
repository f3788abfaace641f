"""Batch statistics, leakage accounting, and noise-robustness sweeps.

Functions here are pure over their inputs: aggregation over session reports,
the public-announcement leakage calculator, collective-noise fidelity
curves, a plug-in mutual-information estimator for the adversary's records,
and per-strategy single-check experiments used to measure detection rates
at high trial counts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .adversary import (
    LEGS,
    NON_IDENTITY,
    AttackSpec,
    EveState,
    NoiseSpec,
    apply_leg_attack,
)
from .protocol import correlated_table, correlation_failures, row_draws
from .quantum import (
    BellLabel,
    PauliLabel,
    QubitArena,
    StateVector,
    apply_pauli,
    apply_unitary1q,
    bell_measure,
    comp_measure,
    fidelity,
    make_bell,
    pauli_frame,
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
    # amplitudes ordered (ancilla, a0, a1); fold the pair axes together
    mat = _entangled(alpha, beta).amplitudes.reshape(2, 4).T
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > 1e-9))
    # detection: project the (a0, a1) pair on psi+ and sum over the ancilla
    psi = make_bell(BellLabel.PSI_PLUS, "h", "t").amplitudes
    keep = sum(abs(np.vdot(psi, mat[:, e_bit])) ** 2 for e_bit in (0, 1))
    return {
        "schmidt_coefficients": tuple(float(v) for v in svals),
        "schmidt_rank": rank,
        "is_product": rank == 1,
        "detection_probability": 1.0 - keep,
    }


# ---------------------------------------------------------------------------
# Single-check trial experiments
#
# Each experiment replays one verification check through the real measurement
# path.  Its batch form ``failures(rng, n)`` runs n checks as a few stacked
# engine calls over uniforms drawn in trial order (with a check's code, by
# ``row_draws``), so the random stream and every outcome are those of n
# checks run one after another; calling the experiment runs the one-row batch
# and returns True when that check fails (the attack is detected).  The
# ``adversary`` interceptor builds its state once, on a one-slot arena.
# ---------------------------------------------------------------------------

_PSIP = BellLabel.PSI_PLUS
_A0, _A1, _B0, _B1 = range(4)  # the qubits a0, a1, b0, b1 of ``_attack_slot``


def _check_trial(
    failures: Callable[[np.random.Generator, int], int],
) -> Callable[[np.random.Generator], bool]:
    """The experiment whose batch form is ``failures(rng, n)``."""

    @functools.wraps(failures)
    def trial(rng: np.random.Generator) -> bool:
        return failures(rng, 1) == 1

    trial.failures = failures
    return trial


def _rows(state: StateVector, n: int) -> StateVector:
    """Stack of n copies of ``state``."""
    return StateVector.stack(state.qubit_ids, np.repeat(state.amplitudes[None, :], n, axis=0))


def _correlation_failures(announced: np.ndarray, bits_a, bits_b) -> int:
    """Failed psi+/psi+ correlation checks, one per row of the announced
    label codes."""
    psip = _PSIP.code
    return correlation_failures(bits_a, bits_b, correlated_table()[psip, psip, announced])


def _attack_slot(strategy: str, travel: list[int], **params) -> tuple[np.ndarray, QubitArena]:
    """Psi+ pairs (a0, a1) and (b0, b1), unnamed at indices 0-3 of a fresh
    arena, after ``strategy`` attacks the qubits at the indices ``travel`` on
    its first default leg; the arena indices of the arriving qubits, and the arena."""
    arena = QubitArena()
    arena.add_bell_pairs([_PSIP.code], "alice")
    arena.add_bell_pairs([_PSIP.code], "bob")
    spec = AttackSpec(strategy, **params)
    leg = min(spec.legs, default=LEGS[0])
    qubits = np.array(travel, dtype=np.intp)
    # a one-session leg; these strategies draw nothing, so the session has no stream
    arrived = apply_leg_attack(spec, arena, EveState(), leg, qubits, np.zeros_like(qubits), [None])
    return arrived, arena


def _read(arena: QubitArena, i: int, ids: tuple[str, ...]) -> StateVector:
    """The register holding qubit i of ``arena``, its qubits given ``ids``."""
    return StateVector(ids, arena.register(i).amplitudes)


# the node Bell-measures a1 with the half e1 of a fresh pair (e0, e1) Eve sent on in place of b1
_IR_ARRIVED, _IR = _attack_slot("intercept_resend", [_B1])
_IR_NODE = tensor(_read(_IR, _A1, ("a0", "a1")), _read(_IR, _IR_ARRIVED[0], ("e0", "e1")))
_IR_B = _read(_IR, _B0, ("b0", "b1"))


@_check_trial
def trial_intercept_resend_case1(rng: np.random.Generator, n: int) -> int:
    """Both-decoy slot with the responder's travel half stolen and replaced."""
    u = rng.random((n, 3))
    announced, rest = bell_measure(_rows(_IR_NODE, n), "a1", "e1", u[:, 0])
    bits_a, _ = comp_measure(rest, "a0", u[:, 1])
    bits_b, _ = comp_measure(_rows(_IR_B, n), "b0", u[:, 2])
    return _correlation_failures(announced, bits_a, bits_b)


_HONEST = _attack_slot("fake_bmo", [])[1]  # the dishonest node touches no qubit
_HONEST_A, _HONEST_B = _read(_HONEST, _A0, ("a0", "a1")), _read(_HONEST, _B0, ("b0", "b1"))


@_check_trial
def trial_fake_bmo_case1(rng: np.random.Generator, n: int) -> int:
    """Both-decoy slot where the node announces without measuring."""
    announced, u = row_draws(rng, len(BellLabel), 2, n)  # as ``fake_bmo_outcome`` draws
    bits_a, _ = comp_measure(_rows(_HONEST_A, n), "a0", u[:, 0])
    bits_b, _ = comp_measure(_rows(_HONEST_B, n), "b0", u[:, 1])
    return _correlation_failures(announced, bits_a, bits_b)


def _entangled(alpha: complex, beta: complex) -> StateVector:
    """Pair (a0, a1) with an ancilla e CNOT-coupled to a1, ordered (e, a0, a1)."""
    arena = _attack_slot("entangle_measure", [_A1], alpha=alpha, beta=beta)[1]
    return _read(arena, _A1, ("e", "a0", "a1"))


def _whole_failures(pairs: StateVector, uniforms: np.ndarray) -> int:
    """Whole decoy pairs (a0, a1), one per row, whose Bell label is not psi+."""
    codes, _ = bell_measure(pairs, "a0", "a1", uniforms)
    return int(np.count_nonzero(codes != _PSIP.code))


def _whole_check(pair: StateVector) -> Callable[[np.random.Generator], bool]:
    """Trial of a whole decoy pair (a0, a1): its Bell label must stay psi+."""
    return _check_trial(lambda rng, n: _whole_failures(_rows(pair, n), rng.random(n)))


def _split_check(pair: StateVector) -> Callable[[np.random.Generator], bool]:
    """Trial of a split decoy: halves a1 and a0 must read equal bits, as psi+."""

    def failures(rng: np.random.Generator, n: int) -> int:
        u = rng.random((n, 2))
        c_bits, rest = comp_measure(_rows(pair, n), "a1", u[:, 0])
        o_bits, _ = comp_measure(rest, "a0", u[:, 1])
        return int(np.count_nonzero(c_bits != o_bits))

    return _check_trial(failures)


def make_trial_entangle_split(beta2: float) -> Callable[[np.random.Generator], bool]:
    """Split decoy whose traveling half was CNOT-coupled to an ancilla."""
    return _split_check(_entangled(math.sqrt(1.0 - beta2), math.sqrt(beta2)))


def make_trial_entangle_whole(beta2: float) -> Callable[[np.random.Generator], bool]:
    """Whole traveling pair with one half CNOT-coupled to an ancilla."""
    return _whole_check(_entangled(math.sqrt(1.0 - beta2), math.sqrt(beta2)))


# Whole decoy pair with X on both halves: label unchanged, check blind.
trial_flip_whole = _whole_check(_read(_attack_slot("flip_all", [_A0, _A1])[1], _A0, ("a0", "a1")))
# Split decoy with X on the traveling half only: always anti-correlated.
trial_flip_split = _split_check(_read(_attack_slot("flip_all", [_A1])[1], _A0, ("a0", "a1")))

# Row 3 * i + j: the (a0, a1) psi+ pair after NON_IDENTITY[i] on a0 and [j] on a1.
_PAULI_HITS = np.array([
    apply_pauli(apply_pauli(make_bell(_PSIP, "a0", "a1"), "a0", p1), "a1", p2).amplitudes
    for p1 in NON_IDENTITY for p2 in NON_IDENTITY
])


@_check_trial
def trial_random_pauli_whole(rng: np.random.Generator, n: int) -> int:
    """Whole decoy pair with independent uniform non-identity Paulis on both
    halves (a full-leg disturbance hits both)."""
    hits, u = row_draws(rng, len(_PAULI_HITS), 1, n)
    return _whole_failures(StateVector.stack(("a0", "a1"), _PAULI_HITS[hits]), u[:, 0])


# Rows per stacked batch: bounds a batch's arrays at any trial count.
_CHUNK = 4096


def run_check_trials(
    trial: Callable[[np.random.Generator], bool],
    trials: int,
    seed: int,
    strategy: str = "trial",
) -> DetectionEstimate:
    """Run one single-check experiment ``trials`` times under a seeded stream.

    An experiment of this module runs as its batch form, ``_CHUNK`` checks at
    a time; any other callable is called once per check.
    """
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    rng = np.random.default_rng(seed)
    batch = getattr(trial, "failures", None)
    if batch is None:
        failures = sum(1 for _ in range(trials) if trial(rng))
    else:
        failures = sum(batch(rng, min(_CHUNK, trials - done)) for done in range(0, trials, _CHUNK))
    return DetectionEstimate(strategy, trials, failures)
