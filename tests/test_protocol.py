"""Protocol-layer tests: preparation, cases, checks, encoding, sessions."""
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from osbmdi.adversary import AttackSpec
from osbmdi.analysis import NoiseSpec
from osbmdi.protocol import (
    COHORT,
    DECODE_REFERENCE,
    CaseTag,
    ConfigError,
    DecoyPolicy,
    DecoyPartner,
    Entangled,
    Mode,
    Session,
    SessionConfig,
    classify_cases,
    correlation_check,
    decode_message,
    decode_table_rows,
    insert_decoys,
    prepare_session,
    run_batch,
    run_session,
    session_rng,
)
from osbmdi.quantum import BellLabel, PauliLabel

PSIP = BellLabel.PSI_PLUS
PSIM = BellLabel.PSI_MINUS
PHIP = BellLabel.PHI_PLUS
PHIM = BellLabel.PHI_MINUS

ALL_LABELS = (PSIP, PSIM, PHIP, PHIM)


# --- configuration ------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SessionConfig(n_pairs=7)
    with pytest.raises(ConfigError):
        SessionConfig(n_pairs=0)
    with pytest.raises(ConfigError):
        SessionConfig(error_threshold=1.5)
    with pytest.raises(ConfigError):
        SessionConfig(bob_state_set=())
    with pytest.raises(ConfigError):
        SessionConfig(m_split_decoys=9, n_pairs=8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SessionConfig(alice_state_set=(PSIP, PSIP)),
        lambda: SessionConfig(bob_state_set=(PSIP, PSIM, PSIM)),
        lambda: DecoyPolicy("random", (PHIP, PSIP, PHIP)),
        lambda: DecoyPolicy.parse("random:psi-,psi-"),
    ],
)
def test_config_rejects_repeated_labels(build):
    with pytest.raises(ConfigError, match="repeats"):
        build()


def test_config_decoy_split_defaults():
    cfg = SessionConfig(n_pairs=8)
    assert cfg.stage1_decoy_count == 4
    assert cfg.split_decoy_count == 2
    assert cfg.whole_decoy_count == 2
    cfg = SessionConfig(n_pairs=8, m_split_decoys=4)
    assert cfg.whole_decoy_count == 0


def test_decoy_policy_parse_and_draw():
    fixed = DecoyPolicy.parse("fixed:psi+")
    rng = np.random.default_rng(0)
    assert all(fixed.draw(rng) is PSIP for _ in range(8))
    rand = DecoyPolicy.parse("random:psi+,psi-,phi+,phi-")
    drawn = {rand.draw(rng) for _ in range(200)}
    assert drawn == set(ALL_LABELS)
    with pytest.raises(ConfigError):
        DecoyPolicy.parse("fixed:psi+,psi-")
    with pytest.raises(ConfigError):
        DecoyPolicy.parse("sometimes:psi+")


# --- preparation ----------------------------------------------------------------


def test_prepare_session_defaults():
    cfg = SessionConfig(n_pairs=4, master_seed=11)
    alice, bob, charlie, transcript = prepare_session(cfg)
    assert len(alice.pairs) == 4 and len(bob.pairs) == 4
    assert all(p.label is PSIP for p in alice.pairs)
    assert all(p.label in (PSIP, PSIM) for p in bob.pairs)
    assert len(alice.s1_decoys) == 2
    assert len(alice.s2_whole) + len(alice.s2_split) == 2
    assert all(d.label is PSIP for d in alice.s1_decoys + alice.s2_whole + alice.s2_split)
    assert len(transcript) == 0
    assert charlie.fake_stages == frozenset()


def test_prepare_bob_draws_both_labels_across_seeds():
    seen = set()
    for seed in range(12):
        _, bob, _, _ = prepare_session(SessionConfig(n_pairs=4, master_seed=seed))
        seen.update(p.label for p in bob.pairs)
    assert seen == {PSIP, PSIM}


def test_prepare_random_decoy_policy():
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=3,
        decoy_policy=DecoyPolicy("random", ALL_LABELS),
    )
    alice, _, _, _ = prepare_session(cfg)
    labels = {d.label for d in alice.s1_decoys + alice.s2_whole + alice.s2_split}
    assert len(labels) > 1


# --- decoy insertion --------------------------------------------------------------


def test_insert_decoys_uniform_positions():
    base = [(f"m{i}", Entangled(i)) for i in range(4)]
    decoys = [(f"d{i}", DecoyPartner(i)) for i in range(2)]
    seen = set()
    rng = np.random.default_rng(42)
    for _ in range(2000):
        slots = insert_decoys(base, decoys, rng)
        positions = tuple(i for i, (_, tag) in enumerate(slots) if isinstance(tag, DecoyPartner))
        seen.add(positions)
        # both relative orders preserved
        assert [q for q, t in slots if isinstance(t, Entangled)] == [q for q, _ in base]
        assert [q for q, t in slots if isinstance(t, DecoyPartner)] == [q for q, _ in decoys]
    assert len(seen) == math.comb(6, 2)


def test_insert_decoys_reproducible_and_empty():
    base = [(f"m{i}", Entangled(i)) for i in range(4)]
    decoys = [(f"d{i}", DecoyPartner(i)) for i in range(2)]
    a = insert_decoys(base, decoys, np.random.default_rng(9))
    b = insert_decoys(base, decoys, np.random.default_rng(9))
    assert a == b
    assert insert_decoys(base, [], np.random.default_rng(9)) == base


# --- case classification ------------------------------------------------------------


def test_classify_cases_table():
    cases = classify_cases([0, 2], [0, 3], 5)
    assert cases[0] is CaseTag.CASE_I       # decoy on both sides
    assert cases[3] is CaseTag.CASE_II      # entangled | decoy
    assert cases[2] is CaseTag.CASE_III     # decoy | entangled
    assert cases[1] is CaseTag.CASE_IV
    assert cases[4] is CaseTag.CASE_IV


def test_case_statistics_match_hypergeometric_oracle():
    # Exact oracle by enumeration: with k decoys in L slots on each side the
    # per-session count of both-decoy slots follows the hypergeometric law
    # P(t) = C(k,t) C(L-k,k-t) / C(L,k).
    n, sessions = 8, 400
    k, L = n // 2, 3 * n // 2
    pmf = {
        t: math.comb(k, t) * math.comb(L - k, k - t) / math.comb(L, k)
        for t in range(max(0, 2 * k - L), k + 1)
    }
    mean = sum(t * p for t, p in pmf.items())
    var = sum((t - mean) ** 2 * p for t, p in pmf.items())
    counts = []
    for i in range(sessions):
        rep = run_session(SessionConfig(n_pairs=n, master_seed=202), i)
        counts.append(rep.case_counts["I"])
        # structural identities per session
        assert rep.case_counts["II"] == k - rep.case_counts["I"]
        assert rep.case_counts["III"] == k - rep.case_counts["I"]
        assert rep.case_counts["IV"] == L - 2 * k + rep.case_counts["I"]
    se = math.sqrt(var / sessions)
    assert abs(np.mean(counts) - mean) < 4 * se


def test_case_iv_floor_guarantees_capacity():
    # |A intersect B| >= 2k - L, so case-IV slots >= n/2 in every session
    for seed in range(30):
        rep = run_session(SessionConfig(n_pairs=4, master_seed=seed), 0)
        assert rep.case_counts["IV"] >= 2


# --- correlation check ----------------------------------------------------------------


def test_correlation_check_case1_psi_plus_announced_psi_plus():
    # announced psi+ on two psi+ decoys leaves the home pair correlated
    assert correlation_check(PSIP, 0, 0, PSIP, PSIP)
    assert correlation_check(PSIP, 1, 1, PSIP, PSIP)
    assert not correlation_check(PSIP, 0, 1, PSIP, PSIP)


def test_correlation_check_announced_phi_plus_anticorrelated():
    assert correlation_check(PHIP, 0, 1, PSIP, PSIP)
    assert not correlation_check(PHIP, 1, 1, PSIP, PSIP)


@pytest.mark.parametrize("mode", list(Mode))
def test_honest_sessions_pass_all_checks(mode):
    for i in range(40):
        rep = run_session(SessionConfig(n_pairs=8, mode=mode, master_seed=77), i)
        assert not rep.aborted
        assert rep.stage1_failures == 0
        assert rep.stage2_gv_failures == 0
        assert rep.stage2_split_failures == 0
        assert rep.symbol_accuracy == 1.0


@pytest.mark.parametrize("mode", (Mode.QSDC, Mode.QD))
def test_honest_sessions_with_random_decoy_labels(mode):
    # anti-correlated decoy labels exercise the other parity branch of both
    # check kinds; honest runs must stay silent for every label mix
    cfg = SessionConfig(
        n_pairs=8,
        mode=mode,
        master_seed=78,
        decoy_policy=DecoyPolicy("random", ALL_LABELS),
    )
    for i in range(25):
        rep = run_session(cfg, i)
        assert not rep.aborted
        assert rep.stage1_failures == 0
        assert rep.stage2_gv_failures == 0
        assert rep.stage2_split_failures == 0
        assert rep.symbol_accuracy == 1.0


# --- encoding / decoding ----------------------------------------------------------------


def test_symbol_to_operator_mapping():
    assert PauliLabel.from_symbol(0b01) is PauliLabel.X
    assert PauliLabel.from_symbol(0) is PauliLabel.I
    assert PauliLabel.from_symbol(0b10) is PauliLabel.IY
    assert PauliLabel.from_symbol(0b11) is PauliLabel.Z


def test_decode_message_examples():
    # shared label psi+ announced, encoded outcome phi+ -> X was applied
    assert decode_message(PSIP, PSIP, PSIP, PHIP) is PauliLabel.X
    # psi+ (x) psi- with round-1 outcome phi- shares phi+; outcome psi- -> iY
    assert decode_message(PSIP, PSIM, PHIM, PSIM) is PauliLabel.IY
    # outcome equal to the shared label decodes as identity
    for bmo1 in ALL_LABELS:
        shared = decode_message(PSIP, PSIP, bmo1, bmo1)
        assert shared is PauliLabel.I or decode_message(PSIP, PSIP, bmo1, bmo1) is PauliLabel.I


def test_decode_message_dialogue_inversion():
    from osbmdi.quantum import pauli_frame

    for bob_init in (PSIP, PSIM):
        for bmo1 in ALL_LABELS:
            from osbmdi.quantum import swapped_home_label

            shared = swapped_home_label(PSIP, bob_init, bmo1)
            for u_a in PauliLabel:
                for u_b in PauliLabel:
                    bmo2 = pauli_frame(pauli_frame(shared, u_a, 0), u_b, 1)
                    assert decode_message(PSIP, bob_init, bmo1, bmo2, own_encoding=u_b) is u_a
                    assert (
                        decode_message(PSIP, bob_init, bmo1, bmo2, own_encoding=u_a, decode_side=1)
                        is u_b
                    )


def test_decode_table_matches_reference():
    assert tuple(decode_table_rows()) == DECODE_REFERENCE


def test_decode_table_exhaustive_independent_copy():
    # independently frozen copy of the full decode relation (32 branches):
    # responder label -> (round-1 outcome -> shared label), then the
    # encoding column ordering I/X/iY/Z
    shared_map = {
        PSIP: {PSIP: PSIP, PHIP: PHIP, PHIM: PHIM, PSIM: PSIM},
        PSIM: {PSIM: PSIP, PHIM: PHIP, PHIP: PHIM, PSIP: PSIM},
    }
    encode_map = {
        PSIP: (PSIP, PHIP, PHIM, PSIM),
        PHIP: (PHIP, PSIP, PSIM, PHIM),
        PHIM: (PHIM, PSIM, PSIP, PHIP),
        PSIM: (PSIM, PHIM, PHIP, PSIP),
    }
    mismatches = 0
    for bob_init, bmo1, shared, outcomes in decode_table_rows():
        if shared_map[bob_init][bmo1] is not shared:
            mismatches += 1
        if encode_map[shared] != outcomes:
            mismatches += 1
        for p, bmo2 in zip(PauliLabel, outcomes):
            if decode_message(PSIP, bob_init, bmo1, bmo2) is not p:
                mismatches += 1
    assert mismatches == 0


# --- discard rule and mixed-slot reuse ------------------------------------------------


def test_discard_rule_message_sized_on_case_iv():
    rep = run_session(SessionConfig(n_pairs=8, master_seed=31), 2)
    assert len(rep.sent_symbols["alice"]) == rep.case_counts["IV"]


def test_mixed_slot_reuse_enlarges_message():
    cfg = SessionConfig(n_pairs=8, master_seed=31, use_cases_ii_iii=True)
    rep = run_session(cfg, 2)
    expected = rep.case_counts["II"] + rep.case_counts["III"] + rep.case_counts["IV"]
    assert len(rep.sent_symbols["alice"]) == expected
    assert rep.symbol_accuracy == 1.0
    assert not rep.aborted
    # only both-decoy slots are still checked
    assert rep.stage1_checks == rep.case_counts["I"]


def test_mixed_slot_reuse_dialogue():
    cfg = SessionConfig(n_pairs=8, mode=Mode.QD, master_seed=13, use_cases_ii_iii=True)
    for i in range(10):
        rep = run_session(cfg, i)
        assert not rep.aborted and rep.symbol_accuracy == 1.0


# --- state-set variations ----------------------------------------------------------------


def test_qsdc_with_random_sender_set():
    cfg = SessionConfig(
        n_pairs=8, master_seed=9, alice_state_set=(PSIP, PSIM)
    )
    for i in range(15):
        rep = run_session(cfg, i)
        assert not rep.aborted and rep.symbol_accuracy == 1.0


def test_dialogue_with_four_state_responder_set():
    cfg = SessionConfig(
        n_pairs=4, mode=Mode.QD, master_seed=9, bob_state_set=ALL_LABELS
    )
    for i in range(10):
        rep = run_session(cfg, i)
        assert not rep.aborted and rep.symbol_accuracy == 1.0
        assert len(rep.nested) == 1
        assert rep.nested[0].n_pairs == 8  # two bits per four-state choice


def test_dialogue_with_both_sets_random():
    cfg = SessionConfig(
        n_pairs=4,
        mode=Mode.QD,
        master_seed=21,
        alice_state_set=(PSIP, PSIM),
        bob_state_set=(PSIP, PSIM),
    )
    for i in range(10):
        rep = run_session(cfg, i)
        assert not rep.aborted and rep.symbol_accuracy == 1.0
        assert len(rep.nested) == 2


def test_dialogue_nested_share_present_and_honest():
    rep = run_session(SessionConfig(n_pairs=8, mode=Mode.QD, master_seed=4), 0)
    assert len(rep.nested) == 1
    nested = rep.nested[0]
    assert nested.mode == "qsdc"
    assert not nested.aborted
    assert nested.symbol_accuracy == 1.0


def test_qkd_mode_key_agreement():
    for i in range(20):
        rep = run_session(SessionConfig(n_pairs=8, mode=Mode.QKD, master_seed=55), i)
        assert rep.sent_symbols["alice"] == rep.decoded_symbols["bob"]


def test_wrong_in_range_nested_labels_are_counted():
    # decoherence-free decoys pass every check under dephasing, while the
    # nested share's message pairs decode some of bob's choices wrong
    cfg = SessionConfig(
        n_pairs=8,
        mode=Mode.QD,
        bob_state_set=(PSIP, PSIM),
        decoy_policy=DecoyPolicy("fixed", (PHIP,)),
        noise=NoiseSpec("dephasing", 0.3),
    )
    wrong_sessions = 0
    for i in range(100):
        session = Session(cfg, session_rng(cfg.master_seed, i), i)
        rep = session.run()
        assert not rep.aborted
        truth = sum(k is not p.label for k, p in zip(session.known[0], session.bob.pairs))
        assert rep.nested_label_errors == truth
        wrong_sessions += truth > 0
    assert wrong_sessions == 40
    honest = SessionConfig(n_pairs=8, mode=Mode.QD, bob_state_set=(PSIP, PSIM))
    assert all(run_session(honest, i).nested_label_errors == 0 for i in range(20))


def test_corrupt_nested_share_aborts_instead_of_wrapping():
    # a three-label set takes two bits per choice, so each nested symbol is
    # one index; collective dephasing turns some into index 3, which must
    # abort the session rather than be mapped onto a wrong label
    cfg = SessionConfig(
        n_pairs=8,
        mode=Mode.QD,
        master_seed=0,
        bob_state_set=(PSIP, PSIM, PHIP),
        decoy_policy=DecoyPolicy("fixed", (PHIP,)),
        noise=NoiseSpec("dephasing", 0.3),
    )
    corrupt = 0
    for i in range(20):
        rep = run_session(cfg, i)
        (nested,) = rep.nested
        assert not nested.aborted
        if max(nested.decoded_symbols["bob"][: cfg.n_pairs]) >= 3:
            corrupt += 1
            assert rep.aborted and rep.abort_stage == "nested"
            assert "alice" not in rep.decoded_symbols
        else:
            assert rep.abort_stage != "nested"
    assert corrupt > 0


def test_protocol_layer_does_not_import_analysis():
    import osbmdi

    src = os.path.dirname(os.path.dirname(osbmdi.__file__))
    code = "import sys, osbmdi.protocol; print('osbmdi.analysis' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


# --- determinism ------------------------------------------------------------------------


def test_sessions_replay_exactly():
    cfg = SessionConfig(n_pairs=8, mode=Mode.QD, master_seed=999)
    a = run_session(cfg, 5)
    b = run_session(cfg, 5)
    assert a.transcript.serialize() == b.transcript.serialize()
    assert a.sent_symbols == b.sent_symbols
    c = run_session(cfg, 6)
    assert c.transcript.serialize() != a.transcript.serialize()


def test_batch_is_order_independent_across_workers():
    cfg = SessionConfig(n_pairs=4, master_seed=123)
    seq = run_batch(cfg, 12, workers=1)
    par = run_batch(cfg, 12, workers=4)
    for a, b in zip(seq, par):
        assert a.transcript.serialize() == b.transcript.serialize()


def test_session_rng_derivation_is_stable():
    a = session_rng(42, 3).integers(1 << 30, size=4)
    b = session_rng(42, 3).integers(1 << 30, size=4)
    assert np.array_equal(a, b)


# --- collective noise in sessions ----------------------------------------------------------


def test_dephased_channel_aborts_with_correlated_decoys():
    cfg = SessionConfig(
        n_pairs=8, master_seed=1, noise=NoiseSpec("dephasing", np.pi / 2)
    )
    rep = run_session(cfg, 0)
    assert rep.aborted and rep.abort_stage == "stage2"
    assert rep.stage2_gv_failures == rep.stage2_gv_checks  # psi+ pairs always flip


def test_dephased_channel_silent_with_anticorrelated_decoys():
    # phi-labeled verification pairs live in the decoherence-free subspace of
    # collective dephasing, so every check stays silent -- while the psi-based
    # message pairs still degrade in transit (corruption without detection)
    cfg = SessionConfig(
        n_pairs=8,
        master_seed=1,
        noise=NoiseSpec("dephasing", np.pi / 2),
        decoy_policy=DecoyPolicy("fixed", (PHIM,)),
    )
    accuracies = []
    for i in range(10):
        rep = run_session(cfg, i)
        assert not rep.aborted
        assert rep.stage1_failures == 0
        assert rep.stage2_gv_failures == 0
        assert rep.stage2_split_failures == 0
        accuracies.append(rep.symbol_accuracy)
    assert min(accuracies) < 1.0


def test_rotated_channel_detected_by_split_checks():
    # at pi/2 the collective rotation is a Pauli: whole psi+ pairs and the
    # swap-round statistics are invariant, but split pairs (home half kept
    # out of the channel) flip to anti-correlated and fail deterministically
    cfg = SessionConfig(
        n_pairs=8, master_seed=1, noise=NoiseSpec("rotation", np.pi / 2)
    )
    rep = run_session(cfg, 0)
    assert rep.aborted and rep.abort_stage == "stage2"
    assert rep.stage2_split_failures == rep.stage2_split_checks
    assert rep.stage2_gv_failures == 0


# --- session differential digests ------------------------------------------------------------
#
# SHA-256 over six sessions per config of everything a session makes
# observable.  The digests were recorded before the party-state refactor of
# ``Session`` and must not move under any behaviour-preserving change of the
# protocol layer.  Three-label sets stay honest here: under noise or attack a
# corrupt nested decode now aborts instead of wrapping (tested separately).

_ONE, _TWO, _THREE = (PSIP,), (PSIP, PSIM), (PSIP, PSIM, PHIP)
_SETS = {1: _ONE, 2: _TWO, 3: _THREE}


def _digest_configs():
    out = {}
    for mode in Mode:
        for na, a_set in _SETS.items():
            for nb, b_set in _SETS.items():
                out[f"{mode.value}-a{na}-b{nb}"] = SessionConfig(
                    n_pairs=8, mode=mode, master_seed=5,
                    alice_state_set=a_set, bob_state_set=b_set,
                )
    attacks = (
        "intercept_resend",
        "entangle_measure:beta2=0.5,legs=stage1_alice+stage2_bob",
        "flip_all",
        "disturb:mode=reorder,fraction=0.5",
        "disturb:mode=random_pauli,fraction=0.5",
        "fake_bmo:stages=1+2",
    )
    for mode in (Mode.QSDC, Mode.QD):
        for text in attacks:
            # threshold 1 lets attacked sessions reach the decode round
            out[f"{mode.value}-{text}"] = SessionConfig(
                n_pairs=8, mode=mode, master_seed=6,
                attack=AttackSpec.parse(text), error_threshold=1.0,
            )
        for policy in ("fixed:phi-", "random:psi+", "random:psi+,psi-,phi+,phi-"):
            out[f"{mode.value}-{policy}"] = SessionConfig(
                n_pairs=8, mode=mode, master_seed=7,
                decoy_policy=DecoyPolicy.parse(policy),
            )
        # default threshold: every exit (stage-1 abort, stage-2 abort, done)
        out[f"{mode.value}-entangle_measure-all-legs"] = SessionConfig(
            n_pairs=8, mode=mode, master_seed=6,
            attack=AttackSpec.parse(
                "entangle_measure:beta2=0.05,"
                "legs=stage1_alice+stage1_bob+stage2_alice+stage2_bob"
            ),
        )
        out[f"{mode.value}-dephasing"] = SessionConfig(
            n_pairs=8, mode=mode, master_seed=8, noise=NoiseSpec("dephasing", 0.3),
        )
    for m in (0, 4):
        out[f"qd-split{m}-cases"] = SessionConfig(
            n_pairs=8, mode=Mode.QD, master_seed=9, m_split_decoys=m,
            use_cases_ii_iii=True, alice_state_set=_TWO,
        )
    out.update(_wide_digest_configs())
    return out


def _wide_digest_configs():
    """Wide rounds: many slots per round, so the arena's round operations
    stack registers and split calls into several dependency waves."""
    all_legs = "legs=stage1_alice+stage1_bob+stage2_alice+stage2_bob"
    return {
        "wide-qd64-dephasing-phi+": SessionConfig(
            n_pairs=64, mode=Mode.QD, master_seed=10,
            noise=NoiseSpec("dephasing", 0.3), decoy_policy=DecoyPolicy.parse("fixed:phi+"),
        ),
        "wide-qsdc64-rotation": SessionConfig(
            n_pairs=64, master_seed=11, noise=NoiseSpec("rotation", 0.2),
            error_threshold=1.0,
        ),
        "wide-qsdc32-reorder-stage2": SessionConfig(
            n_pairs=32, master_seed=12, error_threshold=1.0,
            attack=AttackSpec.parse(
                "disturb:mode=reorder,fraction=1,legs=stage2_alice+stage2_bob"
            ),
        ),
        "wide-qsdc32-entangle-all-legs": SessionConfig(
            n_pairs=32, master_seed=13, error_threshold=1.0,
            attack=AttackSpec.parse(f"entangle_measure:beta2=0.3,{all_legs}"),
        ),
        "wide-qd32-intercept_resend": SessionConfig(
            n_pairs=32, mode=Mode.QD, master_seed=14, error_threshold=1.0,
            attack=AttackSpec.parse("intercept_resend:legs=stage1_alice+stage2_bob"),
        ),
        "wide-qd32-random4": SessionConfig(
            n_pairs=32, mode=Mode.QD, master_seed=15,
            decoy_policy=DecoyPolicy.parse("random:psi+,psi-,phi+,phi-"),
        ),
    }


def _report_material(rep):
    return (
        rep.transcript.serialize(),
        tuple(_report_material(n) for n in rep.nested),
        sorted(rep.sent_symbols.items()),
        sorted(rep.decoded_symbols.items()),
        rep.eve_views,
        sorted(rep.case_counts.items()),
        (rep.stage1_checks, rep.stage1_failures, rep.stage2_gv_checks,
         rep.stage2_gv_failures, rep.stage2_split_checks, rep.stage2_split_failures),
        rep.abort_stage,
    )


def session_digest(cfg, sessions=6):
    h = hashlib.sha256()
    for i in range(sessions):
        h.update(repr(_report_material(run_session(cfg, i))).encode())
    return h.hexdigest()


SESSION_DIGESTS = {
    "qd-a1-b1": "b9eb33481d186bc378a777ae0ab1c6dba35971439ea2055d0d44cd992a38b7cd",
    "qd-a1-b2": "0a36ebbf6d3ea96f73cb7a6f2def139d2d680c98086bcdebc01fad1d28d37fa6",
    "qd-a1-b3": "57b68efb1baf30935d77c6ad5c5e0a91103776a9508df7be9c88d70c000cd63d",
    "qd-a2-b1": "eeb968174cddd811dffddfee6cbc717cdbf157da5b7d4f57d32a00f0a32a4739",
    "qd-a2-b2": "cc6146ae5509b0fce9bbb43c6d807b79acef9822c8fab08372f4a4367c43296f",
    "qd-a2-b3": "bab196cbce6518d3fc85a68297a68d4ec66f232d74219a4d8886b109b1092d74",
    "qd-a3-b1": "d8036b95a50c2c470ae9a60392059ab62ec7967acf2a13815c734bab8588ad00",
    "qd-a3-b2": "471d62e68c47f2549cde9262bb7764c1d87fc6ff5e278286be8df5ed89a00910",
    "qd-a3-b3": "2492fae00ab4573cb1d23cbd20edea522cd276486fce94db091bf05f03861b38",
    "qd-dephasing": "c809b0c16d1fccb959f972a039356754fc167897f30360d8281d70b2ccf86a7c",
    "qd-disturb:mode=random_pauli,fraction=0.5": "746d171a8875bff16a92ca91e602c0113367730564bde094486c44003004c6c9",
    "qd-disturb:mode=reorder,fraction=0.5": "6196c0f1c80e961d3b9e7f2206fbd8f418a28928638741b4424ca9c1118e879d",
    "qd-entangle_measure-all-legs": "2cef95bfbf9d00d7d0ac1af3674be74b4b31133a4c0a0dbf908752ef3c7df2a5",
    "qd-entangle_measure:beta2=0.5,legs=stage1_alice+stage2_bob": "23fc51a9606d00edeed03f4a2ef7c625c7da48e00f8d7234b0483820cfcc0669",
    "qd-fake_bmo:stages=1+2": "fca1c9e9159d03c44cbe6ac6cbfb7e6284022147f5826ae935ce08fe13b3031b",
    "qd-fixed:phi-": "622bc41bb92cd55f107380df30ee1515c2d06b749d6cde3bc8082d0437f00d3c",
    "qd-flip_all": "9fedec8f8977bfe9dd2686190b5d1344d8e5583aa1b32c48dac66628949db4d5",
    "qd-intercept_resend": "8460abd420841daf0bcdb0f2fb9d5d9e24eab0afbe62afb1c92d4b4994fff006",
    "qd-random:psi+": "d0fef3997841366c50b4fe3d3ca3db187d72a7bcc839070f9e6357fb46e6d5cb",
    "qd-random:psi+,psi-,phi+,phi-": "46d90440b45d2bd38acb0fad488fd321724ae025b88ef00f20f3250647998dc3",
    "qd-split0-cases": "c1e7a5459d103ff4ecac47536c01e72a6fe6489c5f3e86e4aee06c0715f3a94b",
    "qd-split4-cases": "36201f51af691aee5fe3bd40fac3051bf827cb1cfa66446e3f7c781492426abb",
    "qkd-a1-b1": "ff588fa07ebc1448de423c662eb06bb1bd0898ea6b8ca1e14235eb97c97706dd",
    "qkd-a1-b2": "4e94de06417e0f82081ad2ba62f92afd2e41d11c6c2a45ec81f6d7e0d326a3a1",
    "qkd-a1-b3": "5737b2ef116d051f5fde2ed20554afbde749fb5e8ec4c1533475f123f1f09aae",
    "qkd-a2-b1": "cfd13901ad6dc1e6209e9384767968f1cbaf2bd710ad4022ada4efaa00c794fa",
    "qkd-a2-b2": "9c53d743ada5ace5d8ded43a1d060daf58a139c2e4f68e92cb10a241497dcfe3",
    "qkd-a2-b3": "dcdec6d3484c318d6fee0738fcb0ae1e55f0a7686123c9c89ccf8bd71f225056",
    "qkd-a3-b1": "9e2e4aa2e5ce05a4544ea4e9bfe3df67c63093c1855ee0b196fd89cb2cb7b792",
    "qkd-a3-b2": "2c023db6ecc5ca4858e360f17e862cf676fd614f1f88f8f0208b92599ad94e31",
    "qkd-a3-b3": "733d97d4d5c21a9593483447406dac3d95703bd28892b5be0993a9d6031a303e",
    "qsdc-a1-b1": "ff588fa07ebc1448de423c662eb06bb1bd0898ea6b8ca1e14235eb97c97706dd",
    "qsdc-a1-b2": "4e94de06417e0f82081ad2ba62f92afd2e41d11c6c2a45ec81f6d7e0d326a3a1",
    "qsdc-a1-b3": "5737b2ef116d051f5fde2ed20554afbde749fb5e8ec4c1533475f123f1f09aae",
    "qsdc-a2-b1": "cfd13901ad6dc1e6209e9384767968f1cbaf2bd710ad4022ada4efaa00c794fa",
    "qsdc-a2-b2": "9c53d743ada5ace5d8ded43a1d060daf58a139c2e4f68e92cb10a241497dcfe3",
    "qsdc-a2-b3": "dcdec6d3484c318d6fee0738fcb0ae1e55f0a7686123c9c89ccf8bd71f225056",
    "qsdc-a3-b1": "9e2e4aa2e5ce05a4544ea4e9bfe3df67c63093c1855ee0b196fd89cb2cb7b792",
    "qsdc-a3-b2": "2c023db6ecc5ca4858e360f17e862cf676fd614f1f88f8f0208b92599ad94e31",
    "qsdc-a3-b3": "733d97d4d5c21a9593483447406dac3d95703bd28892b5be0993a9d6031a303e",
    "qsdc-dephasing": "a60e27def8763942167b7d5c5b8553d972ac679e05e92fd10d0a5be09cb9681a",
    "qsdc-disturb:mode=random_pauli,fraction=0.5": "e42de0147dadf2325ddc28fe376c554dc9c65e1a706947d13c099edd5fb4b7ba",
    "qsdc-disturb:mode=reorder,fraction=0.5": "aaea5778c52e69894fdf3ab5f7152046be3d25a6d06d8792659040a917efa09c",
    "qsdc-entangle_measure-all-legs": "b1fedaf90063e68fb1d86291bdb8b142c13b489425780836b6937f1b99d03eb1",
    "qsdc-entangle_measure:beta2=0.5,legs=stage1_alice+stage2_bob": "a3ff94ced701f57a3bdf1500e73e1b68d428da5fe5b75bfdcbfa244761864b38",
    "qsdc-fake_bmo:stages=1+2": "3a7b83a68ca421cffcf6b97a85ea9c3f2b9d3b44328ae2064dca624eb638aebc",
    "qsdc-fixed:phi-": "318062c770b7d56c799009c7e2089375d0b57d0ed7dba34e973c9c98ab6db014",
    "qsdc-flip_all": "d09eac960381a57dc9cf2b04531a7b12988975fc7df33f2867507acb7e6db3dd",
    "qsdc-intercept_resend": "99799360210d517fd05d851c8777eed83cfe9d16a679148cc5d83c0a945cf723",
    "qsdc-random:psi+": "faf624a6403f0c98219605d7f00da8107ef7694468bf51fec3f2aebbd8547709",
    "qsdc-random:psi+,psi-,phi+,phi-": "f95ac0ae616e32c8ecc0389feaed0cb152d9bb706816a4a36128287a635ae35b",
    # recorded before the arena gained its stacked round operations
    "wide-qd32-intercept_resend": "16530a70c8031abe75045c00e24d999c04a14e77982e4544cf5586064e01a9c6",
    "wide-qd32-random4": "676c914010687762c07580fecc786e239232017f3c4984356d496dec6cbc23d8",
    "wide-qd64-dephasing-phi+": "31c28170117b3654c11bae8d6dd0b95710023687318a401f04c2809917f7190b",
    "wide-qsdc32-entangle-all-legs": "935a48b666709922dc16aaf4e3e03227f0d041f7aaf1b912079f3e934df4f222",
    "wide-qsdc32-reorder-stage2": "c10a0e8e651236e71982cbf6776e95eef3bee78cebfafb1f98d8c3c6629636b6",
    "wide-qsdc64-rotation": "29b5c76f8e113a5f871c19e0dca77ae120329e203211d1bd05130a0295830c18",
}


_CONFIGS = _digest_configs()


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_session_digest_unchanged(name):
    assert session_digest(_CONFIGS[name]) == SESSION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_batch_digest_unchanged(name):
    """The pinned sessions run as one lockstep cohort report exactly what
    each reports alone."""
    h = hashlib.sha256()
    for rep in run_batch(_CONFIGS[name], 6):
        h.update(repr(_report_material(rep)).encode())
    assert h.hexdigest() == SESSION_DIGESTS[name]


@pytest.mark.parametrize(
    "cfg",
    [
        SessionConfig(
            n_pairs=8, master_seed=21,
            attack=AttackSpec.parse(
                "entangle_measure:beta2=0.05,"
                "legs=stage1_alice+stage1_bob+stage2_alice+stage2_bob"
            ),
        ),
        SessionConfig(n_pairs=8, mode=Mode.QD, master_seed=22, noise=NoiseSpec("dephasing", 0.3)),
    ],
    ids=["qsdc-entangle-all-legs", "qd-dephasing"],
)
def test_lockstep_matches_sessions_run_alone_across_cohorts(cfg):
    n = 2 * COHORT + 3
    batch = run_batch(cfg, n)
    assert [rep.session_index for rep in batch] == list(range(n))
    alone = [run_session(cfg, i) for i in range(n)]
    assert [_report_material(rep) for rep in batch] == [_report_material(rep) for rep in alone]
    # sessions leave their cohort early, at more than one stage
    stages = {rep.abort_stage for rep in batch}
    assert None in stages and len(stages) >= 3
