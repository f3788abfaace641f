"""Analysis-layer tests: leakage, noise curves, estimators, trial harness."""
import itertools
import math

import numpy as np
import pytest

from osbmdi.analysis import (
    DetectionEstimate,
    NoiseSpec,
    cnot_attack_profile,
    detection_rate,
    eve_information,
    leakage_bits,
    make_trial_entangle_split,
    make_trial_entangle_whole,
    mutual_information_plugin,
    noise_fidelity,
    run_check_trials,
    trial_fake_bmo_case1,
    trial_flip_split,
    trial_flip_whole,
    trial_intercept_resend_case1,
    trial_random_pauli_whole,
)
from osbmdi.protocol import Mode, SessionConfig, run_session
from osbmdi.quantum import BellLabel

PSIP = BellLabel.PSI_PLUS
PSIM = BellLabel.PSI_MINUS
PHIP = BellLabel.PHI_PLUS
PHIM = BellLabel.PHI_MINUS
ALL = (PSIP, PSIM, PHIP, PHIM)

# Frozen decode relation used as an independent oracle for the information
# calculations below (same literals as the protocol reference test).
SHARED = {
    PSIP: {PSIP: PSIP, PHIP: PHIP, PHIM: PHIM, PSIM: PSIM},
    PSIM: {PSIM: PSIP, PHIM: PHIP, PHIP: PHIM, PSIP: PSIM},
    PHIP: {PHIM: PSIP, PSIM: PHIP, PSIP: PHIM, PHIP: PSIM},
    PHIM: {PHIP: PSIP, PSIP: PHIP, PSIM: PHIM, PHIM: PSIM},
}
FRAME = {
    PSIP: (PSIP, PHIP, PHIM, PSIM),  # images under I, X, iY, Z
    PHIP: (PHIP, PSIP, PSIM, PHIM),
    PHIM: (PHIM, PSIM, PSIP, PHIP),
    PSIM: (PSIM, PHIM, PHIP, PSIP),
}


def frame_apply(label, op_index):
    return FRAME[label][op_index]


# --- leakage ---------------------------------------------------------------------


def test_leakage_two_state_responder_is_one_bit():
    rep = leakage_bits((PSIP,), (PSIP, PSIM), PSIP, PSIP)
    assert rep.consistent_count == 8
    assert rep.h_apriori == 4.0
    assert abs(rep.h_aposteriori - 3.0) < 1e-12
    assert abs(rep.leaked - 1.0) < 1e-12


def test_leakage_four_state_responder_is_zero_bits():
    rep = leakage_bits((PSIP,), ALL, PSIP, PSIP)
    assert rep.consistent_count == 16
    assert abs(rep.leaked - 0.0) < 1e-12


def test_leakage_known_inits_baseline_two_bits():
    # with a single publicly known product the announcements pin the operator
    # product down to 4 possibilities: the classic 2-bit leak
    rep = leakage_bits((PSIP,), (PSIP,), PSIP, PHIM)
    assert rep.consistent_count == 4
    assert abs(rep.leaked - 2.0) < 1e-12


def test_leakage_announcement_invariance():
    for alice_set, bob_set in (((PSIP,), (PSIP, PSIM)), ((PSIP,), ALL)):
        counts = {
            leakage_bits(alice_set, bob_set, b1, b2).consistent_count
            for b1 in ALL
            for b2 in ALL
        }
        assert len(counts) == 1


def test_leakage_consistent_set_against_frozen_tables():
    # enumerate with the independent frozen relation instead of the package's
    # frame algebra
    count = 0
    for b_init in (PSIP, PSIM):
        shared = SHARED[b_init][PSIP]
        for ua, ub in itertools.product(range(4), repeat=2):
            if frame_apply(frame_apply(shared, ua), ub) is PSIP:
                count += 1
    assert count == leakage_bits((PSIP,), (PSIP, PSIM), PSIP, PSIP).consistent_count


def test_leakage_nonuniform_priors_shift_posterior():
    priors = {(PSIP, PSIP): 0.9, (PSIP, PSIM): 0.1}
    rep = leakage_bits((PSIP,), (PSIP, PSIM), PSIP, PSIP, init_priors=priors)
    assert rep.h_aposteriori < 3.0
    assert rep.consistent_count == 8


# --- noise fidelity -----------------------------------------------------------------


GRID = [k * math.pi / 8 for k in range(9)]


def test_phi_labels_decoherence_free_under_dephasing():
    for label in (PHIP, PHIM):
        for _, fid in noise_fidelity(label, "dephasing", GRID):
            assert abs(fid - 1.0) < 1e-9


def test_psi_plus_dephasing_curve_is_cos_squared():
    for param, fid in noise_fidelity(PSIP, "dephasing", GRID):
        assert abs(fid - math.cos(param) ** 2) < 1e-9


def test_rotation_invariant_labels():
    for label in (PSIP, PHIM):
        for _, fid in noise_fidelity(label, "rotation", GRID):
            assert abs(fid - 1.0) < 1e-9


def test_rotation_moves_other_labels():
    curve = dict(noise_fidelity(PHIP, "rotation", [math.pi / 4]))
    assert curve[math.pi / 4] < 0.6


def test_travel_half_dephasing_halves_the_phase():
    for param, fid in noise_fidelity(PSIP, "dephasing", GRID, apply_to="travel_half"):
        assert abs(fid - math.cos(param / 2) ** 2) < 1e-9


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("thermal", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec.parse("dephasing")
    spec = NoiseSpec.parse("rotation:0.75")
    assert spec.channel == "rotation" and spec.param == 0.75
    with pytest.raises(ValueError):
        noise_fidelity(PSIP, "dephasing", [0.0], apply_to="everywhere")


@pytest.mark.parametrize("param", [math.inf, -math.inf, math.nan])
def test_noise_spec_rejects_non_finite_param(param):
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec("dephasing", param)
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec.parse(f"rotation:{param}")


@pytest.mark.parametrize("channel", ["dephasing", "rotation"])
def test_noise_matrix_is_built_once_and_read_only(channel):
    spec = NoiseSpec(channel, 0.3)
    u = spec.matrix()
    assert spec.matrix() is u
    assert not u.flags.writeable
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    c, s = math.cos(0.3), math.sin(0.3)
    expected = (
        np.diag([1.0, np.exp(0.3j)]) if channel == "dephasing" else [[c, -s], [s, c]]
    )
    assert np.array_equal(u, expected)


# --- detection aggregation ------------------------------------------------------------


def test_detection_rate_honest_batch_is_zero():
    cfg = SessionConfig(n_pairs=8, master_seed=91)
    reports = [run_session(cfg, i) for i in range(40)]
    est = detection_rate(reports, "none")
    assert est.failures == 0 and est.rate == 0.0 and est.ci95_halfwidth == 0.0


def test_detection_rate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        detection_rate([], "x", check_kind="stage7")


def test_detection_estimate_interval_formula():
    est = DetectionEstimate("s", 400, 100)
    assert est.rate == 0.25
    assert abs(est.ci95_halfwidth - 1.959963984540054 * math.sqrt(0.25 * 0.75 / 400)) < 1e-12


# --- mutual information ------------------------------------------------------------------


def test_plugin_mi_identity_and_independence():
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 4, size=20000)
    same = mutual_information_plugin([(int(x), int(x)) for x in xs])
    assert abs(same.bits - 2.0) < 0.01
    ys = rng.integers(0, 4, size=20000)
    indep = mutual_information_plugin(list(zip(xs.tolist(), ys.tolist())))
    assert indep.bits < 0.01
    assert not indep.insufficient


def test_plugin_mi_flags_small_samples():
    est = mutual_information_plugin([((0, 0), (0, 0)), ((1, 1), (1, 1))] * 3)
    assert est.insufficient


def exact_direct_mode_mi() -> float:
    """Exact MI between the two announcements and the sender's symbol when
    the responder draws privately from {psi+, psi-}: enumerated from the
    frozen decode relation with uniform priors."""
    joint: dict = {}
    for b_init in (PSIP, PSIM):
        for bmo1 in ALL:
            shared = SHARED[b_init][bmo1]
            for ua in range(4):
                bmo2 = frame_apply(shared, ua)
                key = ((bmo1, bmo2), ua)
                joint[key] = joint.get(key, 0.0) + 1.0 / (2 * 4 * 4)
    px: dict = {}
    py: dict = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    return sum(p * math.log2(p / (px[x] * py[y])) for (x, y), p in joint.items())


def test_exact_direct_mode_mi_is_one_bit():
    # the announcements narrow the sender's operator to two equally likely
    # candidates (one per responder choice): exactly one bit leaks
    assert abs(exact_direct_mode_mi() - 1.0) < 1e-12


def test_eve_information_direct_mode_matches_enumeration():
    cfg = SessionConfig(n_pairs=8, master_seed=92)
    reports = [run_session(cfg, i) for i in range(700)]
    est = eve_information(reports)
    assert not est.insufficient
    assert abs(est.bits - exact_direct_mode_mi()) < 0.1


def test_eve_information_dialogue_two_state_one_bit():
    cfg = SessionConfig(n_pairs=8, mode=Mode.QD, master_seed=93)
    reports = [run_session(cfg, i) for i in range(700)]
    est = eve_information(reports)
    bound = leakage_bits((PSIP,), (PSIP, PSIM), PSIP, PSIP).leaked
    assert abs(est.bits - 1.0) < 0.12
    assert est.bits <= bound + 0.12


def test_eve_information_dialogue_four_state_near_zero():
    cfg = SessionConfig(
        n_pairs=8, mode=Mode.QD, master_seed=94, bob_state_set=ALL
    )
    reports = [run_session(cfg, i) for i in range(400)]
    est = eve_information(reports)
    bound = leakage_bits((PSIP,), ALL, PSIP, PSIP).leaked
    assert est.bits < 0.15
    assert est.bits <= bound + 0.15


# --- ancilla-coupling profile ---------------------------------------------------------------


def test_cnot_profile_balanced_ancilla():
    profile = cnot_attack_profile(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert profile["schmidt_rank"] == 2
    assert not profile["is_product"]
    assert abs(profile["detection_probability"] - 0.5) < 1e-12
    coeffs = profile["schmidt_coefficients"]
    assert abs(coeffs[0] - 1 / math.sqrt(2)) < 1e-9
    assert abs(coeffs[1] - 1 / math.sqrt(2)) < 1e-9


def test_cnot_profile_trivial_ancilla_is_product():
    profile = cnot_attack_profile(1.0, 0.0)
    assert profile["schmidt_rank"] == 1
    assert profile["is_product"]
    assert profile["detection_probability"] < 1e-12


@pytest.mark.parametrize("beta2", [0.1, 0.25, 0.5, 0.9])
def test_cnot_profile_detection_is_beta2(beta2):
    profile = cnot_attack_profile(math.sqrt(1 - beta2), math.sqrt(beta2))
    assert abs(profile["detection_probability"] - beta2) < 1e-12


# --- trial harness -----------------------------------------------------------------------------


def _within(est, expect, z=4.0):
    se = math.sqrt(max(expect * (1 - expect), 1e-12) / est.checks)
    return abs(est.rate - expect) <= z * se


def test_trial_rates_match_oracles_at_moderate_scale():
    n = 20000
    assert _within(run_check_trials(trial_intercept_resend_case1, n, 1), 0.5)
    assert _within(run_check_trials(trial_fake_bmo_case1, n, 2), 0.5)
    assert _within(run_check_trials(make_trial_entangle_split(0.25), n, 3), 0.25)
    assert _within(run_check_trials(make_trial_entangle_whole(0.25), n, 4), 0.25)
    assert run_check_trials(trial_flip_whole, 5000, 5).failures == 0
    est = run_check_trials(trial_flip_split, 5000, 6)
    assert est.failures == est.checks
    assert _within(run_check_trials(trial_random_pauli_whole, n, 7), 2 / 3)


def test_trials_are_deterministic_under_seed():
    a = run_check_trials(make_trial_entangle_split(0.5), 2000, 11)
    b = run_check_trials(make_trial_entangle_split(0.5), 2000, 11)
    assert a.failures == b.failures
