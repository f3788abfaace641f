"""Property tests over the honest configuration space.

With no adversary and no noise every session must finish, every check must
pass, every symbol must decode, the transcript must keep its ordering rules,
and a lockstep batch must report exactly what each session reports alone.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

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
