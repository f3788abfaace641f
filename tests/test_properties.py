"""Property tests over the honest and the attacked configuration space.

With no adversary and no noise every session must finish, every check must
pass, every symbol must decode, the transcript must keep its ordering rules,
and a lockstep batch must report exactly what each session reports alone.
Under any attack on any legs a session must never raise: it aborts exactly
when a check failed (at a zero threshold), or decodes a symbol for every
symbol sent, and a lockstep batch still reports what each session reports
alone.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from osbmdi.adversary import LEGS, AttackSpec
from osbmdi.protocol import (
    DecoyPolicy,
    Mode,
    SessionConfig,
    run_batch,
    run_session,
)
from osbmdi.quantum import BellLabel
from osbmdi.transcript import validate_order

from test_protocol import _report_material

LABEL_SETS = st.lists(st.sampled_from(list(BellLabel)), min_size=1, max_size=4, unique=True).map(
    tuple
)


@st.composite
def honest_configs(draw):
    n_pairs = draw(st.sampled_from([2, 4, 6, 8]))
    if draw(st.booleans()):
        policy = DecoyPolicy("random", draw(LABEL_SETS))
    else:
        policy = DecoyPolicy("fixed", (draw(st.sampled_from(list(BellLabel))),))
    return SessionConfig(
        n_pairs=n_pairs,
        mode=draw(st.sampled_from(list(Mode))),
        alice_state_set=draw(LABEL_SETS),
        bob_state_set=draw(LABEL_SETS),
        decoy_policy=policy,
        master_seed=draw(st.integers(0, 2**64 - 1)),
        use_cases_ii_iii=draw(st.booleans()),
        m_split_decoys=draw(st.sampled_from([0, None, n_pairs // 2])),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=honest_configs())
def test_honest_sessions_decode_everything(cfg):
    sessions = 3
    batch = run_batch(cfg, sessions)
    for i, rep in enumerate(batch):
        assert not rep.aborted and rep.abort_stage is None
        assert rep.stage1_failures == rep.stage2_gv_failures == rep.stage2_split_failures == 0
        assert rep.symbols_total > 0 and rep.symbol_accuracy == 1.0
        assert all(not nested.aborted for nested in rep.nested)
        everyone = set(range(cfg.n_pairs))
        validate_order(rep.transcript, {"alice": everyone, "bob": everyone})
        assert _report_material(rep) == _report_material(run_session(cfg, i))


@st.composite
def attacks(draw):
    strategy = draw(st.sampled_from(["intercept_resend", "entangle_measure", "flip_all",
                                     "disturb", "fake_bmo"]))
    params = [f"legs={'+'.join(draw(st.sets(st.sampled_from(LEGS), min_size=1)))}"]
    if strategy == "entangle_measure":
        params.append(f"beta2={draw(st.floats(0.0, 1.0))!r}")
    elif strategy == "disturb":
        params.append(f"mode={draw(st.sampled_from(['reorder', 'random_pauli']))}")
        params.append(f"fraction={draw(st.floats(0.0, 1.0, exclude_min=True))!r}")
    elif strategy == "fake_bmo":
        params.append(f"stages={draw(st.sampled_from(['1', '2', '1+2']))}")
    return AttackSpec.parse(f"{strategy}:{','.join(params)}")


@st.composite
def attacked_configs(draw):
    n_pairs = draw(st.sampled_from([2, 4, 6, 8]))
    return SessionConfig(
        n_pairs=n_pairs,
        mode=draw(st.sampled_from(list(Mode))),
        alice_state_set=draw(LABEL_SETS),
        bob_state_set=draw(LABEL_SETS),
        decoy_policy=DecoyPolicy("random", draw(LABEL_SETS)),
        attack=draw(attacks()),
        error_threshold=draw(st.sampled_from([0.0, 1.0])),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        m_split_decoys=draw(st.sampled_from([0, None, n_pairs // 2])),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cfg=attacked_configs())
def test_attacked_sessions_abort_exactly_on_failed_checks_or_decode(cfg):
    sessions = 2
    batch = run_batch(cfg, sessions)
    for i, rep in enumerate(batch):
        stage1 = rep.stage1_failures > 0
        stage2 = rep.stage2_gv_failures + rep.stage2_split_failures > 0
        if cfg.error_threshold == 0.0:
            want = "stage1" if stage1 else "stage2" if stage2 else None
        else:
            want = None  # no error rate exceeds 1
        assert rep.abort_stage == want and rep.aborted is (want is not None)
        if want == "stage1":
            assert rep.stage2_gv_checks == rep.stage2_split_checks == 0
        if not rep.aborted:
            decoder = {"alice": "bob", "bob": "alice"}
            assert rep.sent_symbols and all(
                len(rep.decoded_symbols[decoder[sender]]) == len(sent)
                for sender, sent in rep.sent_symbols.items()
            )
        assert _report_material(rep) == _report_material(run_session(cfg, i))
