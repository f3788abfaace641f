"""Adversary strategy tests against brute-force enumeration oracles.

The oracles below are built from raw numpy (hard-coded Bell vectors,
explicit projectors, exhaustive outcome enumeration) so they stay
independent of the engine's measurement path.
"""
import itertools
import math

import numpy as np
import pytest

from osbmdi.adversary import AttackSpec, EveState, apply_leg_attack, disturb, fake_bmo_outcome
from osbmdi.analysis import detection_rate
from osbmdi.protocol import Mode, SessionConfig, run_lockstep, run_session
from osbmdi.quantum import BellLabel, QubitArena, make_bell

SQ2 = 1.0 / math.sqrt(2.0)
BELL = {
    "psi+": np.array([SQ2, 0, 0, SQ2], dtype=complex),
    "psi-": np.array([SQ2, 0, 0, -SQ2], dtype=complex),
    "phi+": np.array([0, SQ2, SQ2, 0], dtype=complex),
    "phi-": np.array([0, SQ2, -SQ2, 0], dtype=complex),
}
CORRELATED = {"psi+": True, "psi-": True, "phi+": False, "phi-": False}
# home label implied by each announced outcome when both pairs are psi+
HOME_GIVEN_ANNOUNCED = {"psi+": "psi+", "psi-": "psi-", "phi+": "phi+", "phi-": "phi-"}


def project_bell(vec: np.ndarray, n: int, qa: int, qb: int, name: str) -> np.ndarray:
    t = vec.reshape([2] * n)
    b = BELL[name].reshape(2, 2).conj()
    return np.tensordot(b, t, axes=([0, 1], [qa, qb])).reshape(-1)


def project_bit(vec: np.ndarray, n: int, q: int, bit: int) -> np.ndarray:
    t = vec.reshape([2] * n)
    return np.take(t, bit, axis=q).reshape(-1)


def norm2(vec: np.ndarray) -> float:
    return float(np.real(np.vdot(vec, vec)))


# --- oracle: intercept-resend on a both-decoy slot -----------------------------


def oracle_intercept_resend_case1() -> float:
    """Exact pass probability of the both-decoy check when the responder's
    travel half was stolen and replaced by half of a fresh psi+ pair.

    Joint register: (d1, d2, d3, d4, e1, e2); the node measures (d2, e2),
    both parties read (d1, d3); d4 sits unmeasured with the attacker.
    """
    state = np.kron(np.kron(BELL["psi+"], BELL["psi+"]), BELL["psi+"])
    p_pass = 0.0
    for announced in BELL:
        after = project_bell(state, 6, 1, 5, announced)  # (d2, e2) -> (d1,d3,d4,e1)
        for b1, b3 in itertools.product((0, 1), repeat=2):
            branch = project_bit(project_bit(after, 4, 0, b1), 3, 0, b3)
            prob = norm2(branch)
            expected_equal = CORRELATED[HOME_GIVEN_ANNOUNCED[announced]]
            if (b1 == b3) == expected_equal:
                p_pass += prob
    return p_pass


def test_oracle_intercept_resend_case1_is_half():
    assert abs(oracle_intercept_resend_case1() - 0.5) < 1e-12


def test_intercept_resend_sessions_match_oracle():
    cfg = SessionConfig(
        n_pairs=8, master_seed=61, attack=AttackSpec.parse("intercept_resend")
    )
    reports = [run_session(cfg, i) for i in range(250)]
    est = detection_rate(reports, "intercept_resend", check_kind="stage1")
    expect = 1.0 - oracle_intercept_resend_case1()
    se = math.sqrt(expect * (1 - expect) / est.checks)
    assert abs(est.rate - expect) < 4 * se
    # the expected miss probability over k checked slots is (1/2)^k, so with
    # thousands of checks nearly every session aborts
    assert sum(r.aborted for r in reports) > 0.9 * len(reports)


def test_intercept_resend_moves_handles_not_copies():
    cfg = SessionConfig(
        n_pairs=4, master_seed=8, attack=AttackSpec.parse("intercept_resend")
    )
    rep = run_session(cfg, 0)
    # every qubit of the attacked leg was retained by the adversary
    assert rep.aborted


# --- oracle: fake announcement on a both-decoy slot ------------------------------


def oracle_fake_bmo_case1() -> float:
    """Exact pass probability when the node announces uniformly at random and
    measures nothing: both home bits are uniform and independent."""
    p_pass = 0.0
    for announced in BELL:
        for b1, b3 in itertools.product((0, 1), repeat=2):
            prob = 0.25 * 0.25  # announcement marginalized separately below
            expected_equal = CORRELATED[HOME_GIVEN_ANNOUNCED[announced]]
            if (b1 == b3) == expected_equal:
                p_pass += prob
    return p_pass


def test_oracle_fake_bmo_case1_is_half():
    assert abs(oracle_fake_bmo_case1() - 0.5) < 1e-12


def test_fake_bmo_sessions_match_oracle():
    cfg = SessionConfig(n_pairs=8, master_seed=62, attack=AttackSpec.parse("fake_bmo"))
    reports = [run_session(cfg, i) for i in range(250)]
    est = detection_rate(reports, "fake_bmo", check_kind="stage1")
    se = math.sqrt(0.25 / est.checks)
    assert abs(est.rate - 0.5) < 4 * se


def test_fake_bmo_transcript_schema_is_indistinguishable():
    honest = run_session(SessionConfig(n_pairs=4, master_seed=3), 0)
    faked = run_session(
        SessionConfig(n_pairs=4, master_seed=3, attack=AttackSpec.parse("fake_bmo")), 0
    )
    shape = lambda rep: [line.split("\t")[3] for line in rep.transcript.serialize().splitlines()]
    # same announcement kinds in the same order up to the abort point
    n = len(shape(faked))
    assert shape(honest)[:n] == shape(faked)[:n]


# --- oracle: ancilla coupling -----------------------------------------------------


def attacked_split_state(beta2: float) -> np.ndarray:
    """(h, t, e) register after CNOT(control=e, target=t) on psi+ (x) ancilla."""
    alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
    state = np.kron(BELL["psi+"], np.array([alpha, beta], dtype=complex))
    out = state.reshape([2] * 3).copy()
    out[:, :, 1] = out[:, :, 1][:, ::-1]  # X on t within the e=1 slice
    return out.reshape(-1)


@pytest.mark.parametrize("beta2", [0.1, 0.25, 0.5, 0.9])
def test_oracle_entangle_measure_split_rate_is_beta2(beta2):
    state = attacked_split_state(beta2)
    p_fail = 0.0
    for c_bit, h_bit in itertools.product((0, 1), repeat=2):
        branch = project_bit(project_bit(state, 3, 1, c_bit), 2, 0, h_bit)
        if c_bit != h_bit:
            p_fail += norm2(branch)
    assert abs(p_fail - beta2) < 1e-12


@pytest.mark.parametrize("beta2", [0.1, 0.25, 0.5])
def test_oracle_entangle_measure_whole_single_hit(beta2):
    # one CNOT on a whole traveling pair: outcome phi+ with probability beta2
    state = attacked_split_state(beta2)
    p = {name: 0.0 for name in BELL}
    for name in BELL:
        for e_bit in (0, 1):
            branch = project_bit(project_bell(state, 3, 0, 1, name), 1, 0, e_bit)
            p[name] += norm2(branch)
    assert abs(p["psi+"] - (1 - beta2)) < 1e-12
    assert abs(p["phi+"] - beta2) < 1e-12
    assert p["psi-"] < 1e-12 and p["phi-"] < 1e-12


def test_entangle_measure_double_hit_rate():
    # a full-leg attack couples one ancilla to each half of a whole pair;
    # the pair label survives only when neither or both controls fire
    beta2 = 0.25
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=63,
        attack=AttackSpec.parse("entangle_measure:beta2=0.25,legs=stage2_alice+stage2_bob"),
        error_threshold=1.0,
    )
    reports = [run_session(cfg, i) for i in range(300)]
    gv = detection_rate(reports, "entangle_measure", check_kind="stage2_gv")
    split = detection_rate(reports, "entangle_measure", check_kind="stage2_split")
    expect_gv = 2 * beta2 * (1 - beta2)
    se_gv = math.sqrt(expect_gv * (1 - expect_gv) / gv.checks)
    se_split = math.sqrt(beta2 * (1 - beta2) / split.checks)
    assert abs(gv.rate - expect_gv) < 4 * se_gv
    assert abs(split.rate - beta2) < 4 * se_split


def test_entangle_measure_idle_ancilla_is_undetected():
    # with beta = 0 the control never fires: no effect, no detection
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=59,
        attack=AttackSpec.parse("entangle_measure:beta2=0"),
    )
    for i in range(20):
        rep = run_session(cfg, i)
        assert not rep.aborted
        assert rep.stage2_gv_failures == 0 and rep.stage2_split_failures == 0
        assert rep.symbol_accuracy == 1.0


def test_entangle_measure_ancilla_readout_carries_no_symbol_information():
    # the ancilla's computational readout is independent of everything else:
    # its reduced state after the CNOT is diag(|alpha|^2, |beta|^2)
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=64,
        attack=AttackSpec.parse("entangle_measure:beta2=0.5"),
        error_threshold=1.0,
    )
    reports = [run_session(cfg, i) for i in range(200)]
    ones = total = 0
    for rep in reports:
        for _, _, bits in rep.eve_views:
            ones += sum(bits)
            total += len(bits)
    assert total > 500
    se = math.sqrt(0.25 / total)
    assert abs(ones / total - 0.5) < 4 * se


# --- flip attack ---------------------------------------------------------------------


def test_flip_all_blind_on_whole_pairs_loud_on_splits():
    cfg = SessionConfig(
        n_pairs=8, master_seed=65, attack=AttackSpec.parse("flip_all")
    )
    reports = [run_session(cfg, i) for i in range(150)]
    gv = detection_rate(reports, "flip_all", check_kind="stage2_gv")
    split = detection_rate(reports, "flip_all", check_kind="stage2_split")
    assert gv.checks > 0 and gv.failures == 0
    assert split.checks > 0 and split.failures == split.checks
    assert all(r.aborted for r in reports)


def test_flip_all_never_changes_decoded_symbols():
    # X (x) X fixes every Bell label, so flipping both message legs is
    # invisible to the decode round
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=66,
        attack=AttackSpec.parse("flip_all"),
        error_threshold=1.0,  # let the session proceed past the loud splits
    )
    for i in range(30):
        rep = run_session(cfg, i)
        assert not rep.aborted
        assert rep.symbol_accuracy == 1.0


def test_flip_one_leg_detected_by_splits_only_on_that_leg():
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=67,
        attack=AttackSpec.parse("flip_all:legs=stage2_alice"),
        error_threshold=1.0,
    )
    rep = run_session(cfg, 0)
    # half the split checks (the attacked leg's) fail deterministically
    assert rep.stage2_split_failures == rep.stage2_split_checks // 2


# --- disturbance ----------------------------------------------------------------------


def test_oracle_random_pauli_double_hit_two_thirds():
    # both halves hit with independent uniform non-identity Paulis: the label
    # survives only when the two Paulis agree (3 of 9 combinations)
    paulis = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "iY": np.array([[0, 1], [-1, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    survive = 0
    for p1, p2 in itertools.product(paulis.values(), repeat=2):
        out = np.kron(p1, p2) @ BELL["psi+"]
        if abs(np.vdot(BELL["psi+"], out)) ** 2 > 1 - 1e-12:
            survive += 1
    assert survive == 3  # detection probability 6/9 = 2/3


def test_random_pauli_sessions_match_two_thirds():
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=68,
        attack=AttackSpec.parse("disturb:mode=random_pauli,fraction=1.0,legs=stage2_alice+stage2_bob"),
        error_threshold=1.0,
    )
    reports = [run_session(cfg, i) for i in range(300)]
    gv = detection_rate(reports, "disturb", check_kind="stage2_gv")
    se = math.sqrt((2 / 3) * (1 / 3) / gv.checks)
    assert abs(gv.rate - 2 / 3) < 4 * se
    # split halves: X and iY break the correlation, Z hides -> 2/3 as well
    split = detection_rate(reports, "disturb", check_kind="stage2_split")
    se = math.sqrt((2 / 3) * (1 / 3) / split.checks)
    assert abs(split.rate - 2 / 3) < 4 * se


def oracle_reorder_swap_detection() -> float:
    """Exact mismatch probability of a whole-pair check when one half was
    swapped with a message qubit: the node then measures two qubits from
    unrelated pairs, so each outcome is uniform and only 1/4 match."""
    state = np.kron(BELL["psi+"], BELL["psi+"])  # (d, d', h, m)
    p_match = 0.0
    for e_bits in itertools.product((0, 1), repeat=2):
        branch = project_bell(state, 4, 1, 3, "psi+")  # measure (d', m)
        branch = project_bit(project_bit(branch, 2, 0, e_bits[0]), 1, 0, e_bits[1])
        p_match += norm2(branch)
    return 1.0 - p_match


def test_oracle_reorder_swap_detection_three_quarters():
    assert abs(oracle_reorder_swap_detection() - 0.75) < 1e-12


def test_reorder_detection_strictly_positive():
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=69,
        attack=AttackSpec.parse("disturb:mode=reorder,fraction=1.0"),
    )
    reports = [run_session(cfg, i) for i in range(120)]
    est = detection_rate(reports, "disturb", check_kind="stage2_gv")
    assert est.failures > 0
    assert sum(r.aborted for r in reports) > 0


def test_disturb_zero_selection_is_noop():
    arena = QubitArena()
    arena.add_state(make_bell(BellLabel.PSI_PLUS, "a", "b"), "alice")
    attack = disturb(arena, ["a", "b"], np.random.default_rng(0), "reorder", 0.0)
    assert run_lockstep([attack]) == [["a", "b"]]


@pytest.mark.parametrize("strategy", ["intercept_resend", "entangle_measure"])
def test_empty_leg_registers_nothing_and_yields_no_round(strategy):
    arena, eve = QubitArena(), EveState()
    spec = AttackSpec(strategy, legs=frozenset({"stage2_alice"}))
    attack = apply_leg_attack(spec, arena, eve, "stage2_alice", [], None)
    with pytest.raises(StopIteration) as done:
        next(attack)
    assert done.value.value == []
    assert not arena._holders and not arena._store.tables
    assert not eve.ancillas and eve.new_id("a") == "ev_a1"


# --- attack spec -----------------------------------------------------------------------


def test_attack_spec_parsing():
    spec = AttackSpec.parse("entangle_measure:beta2=0.25")
    assert abs(abs(spec.beta) ** 2 - 0.25) < 1e-12
    assert abs(abs(spec.alpha) ** 2 + abs(spec.beta) ** 2 - 1.0) < 1e-9
    assert spec.legs == frozenset({"stage2_alice"})
    spec = AttackSpec.parse("disturb:mode=reorder,fraction=0.5,legs=stage2_alice+stage2_bob")
    assert spec.mode == "reorder" and spec.fraction == 0.5
    assert spec.legs == frozenset({"stage2_alice", "stage2_bob"})
    spec = AttackSpec.parse("fake_bmo:stages=1+2")
    assert spec.fake_stages == frozenset({1, 2})


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec.parse("teleport_everything")
    with pytest.raises(ValueError):
        AttackSpec.parse("entangle_measure:beta2=1.5")
    with pytest.raises(ValueError):
        AttackSpec.parse("disturb:fraction=0.0")
    with pytest.raises(ValueError):
        AttackSpec.parse("disturb:mode=sideways")
    with pytest.raises(ValueError):
        AttackSpec.parse("flip_all:legs=stage9_alice")
    for text in ("intercept_resend:beta2=0.5", "flip_all:stages=2,mode=reorder",
                 "fake_bmo:fraction=0.5", "entangle_measure:mode=reorder"):
        with pytest.raises(ValueError, match="is for"):  # never dropped silently
            AttackSpec.parse(text)
    for text, key in (("entangle_measure:beta2=0.1,beta2=0.9", "beta2"),
                      ("disturb:mode=reorder,mode=random_pauli", "mode")):
        with pytest.raises(ValueError, match=f"'{key}' is given twice"):  # nor overwritten
            AttackSpec.parse(text)
    with pytest.raises(ValueError):
        AttackSpec(strategy="entangle_measure", alpha=1.0, beta=1.0)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0)])
def test_attack_spec_rejects_non_finite_ancilla_amplitudes(alpha, beta):
    with pytest.raises(ValueError):
        AttackSpec("entangle_measure", alpha=alpha, beta=beta)


def test_default_legs_per_strategy():
    assert AttackSpec.parse("intercept_resend").legs == frozenset({"stage1_bob"})
    assert AttackSpec.parse("flip_all").legs == frozenset({"stage2_alice", "stage2_bob"})
    assert AttackSpec.parse("disturb").legs == frozenset({"stage2_alice"})


def test_fake_outcome_uniform():
    rng = np.random.default_rng(1)
    counts = {lab: 0 for lab in BellLabel}
    n = 8000
    for _ in range(n):
        counts[fake_bmo_outcome(rng)] += 1
    se = math.sqrt(0.25 * 0.75 / n)
    for lab in BellLabel:
        assert abs(counts[lab] / n - 0.25) < 4 * se


def test_fake_bmo_stage2_detected_by_label_and_correlation():
    # an unmeasured verify round announces uniform labels and bits: with the
    # fixed psi+ policy the label matches 1/4 of the time and the split
    # correlation holds 1/2 of the time
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=71,
        attack=AttackSpec.parse("fake_bmo:stages=2"),
        error_threshold=1.0,
    )
    reports = [run_session(cfg, i) for i in range(250)]
    gv = detection_rate(reports, "fake_bmo", check_kind="stage2_gv")
    split = detection_rate(reports, "fake_bmo", check_kind="stage2_split")
    se_gv = math.sqrt(0.75 * 0.25 / gv.checks)
    se_split = math.sqrt(0.25 / split.checks)
    assert abs(gv.rate - 0.75) < 4 * se_gv
    assert abs(split.rate - 0.5) < 4 * se_split
    # the swap round was honest
    assert detection_rate(reports, "fake_bmo", check_kind="stage1").failures == 0


def test_dialogue_aborts_when_nested_share_aborts():
    from osbmdi.analysis import NoiseSpec

    # dephasing at pi/2 deterministically flips whole psi+ pairs, so the
    # nested share (which runs over the same channel) aborts first
    cfg = SessionConfig(
        n_pairs=8,
        mode=Mode.QD,
        master_seed=72,
        noise=NoiseSpec("dephasing", math.pi / 2),
    )
    rep = run_session(cfg, 0)
    assert rep.aborted and rep.abort_stage == "nested"
    assert rep.nested and rep.nested[0].aborted


def test_every_strategy_detected_in_dialogue_mode_too():
    for attack in ("intercept_resend", "fake_bmo", "flip_all"):
        cfg = SessionConfig(
            n_pairs=8, mode=Mode.QD, master_seed=70, attack=AttackSpec.parse(attack)
        )
        reports = [run_session(cfg, i) for i in range(40)]
        assert sum(r.aborted for r in reports) > 30
