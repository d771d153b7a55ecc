"""Thread extraction, bisimulation minimization, and the apply operator."""

import pytest

from pga_hoare.services import (AlgebraConfig, EMPTY, EMPTY_FAMILY, boolreg,
                                counter, family)
from pga_hoare.syntax import parse_sequence, normalize
from pga_hoare.threads import (BudgetExhausted, DEAD_THREAD, STOP_THREAD,
                               apply, bisimilar, embed, extract, minimize,
                               sigma, thread_dump, thread_of)


def _t(text):
    return thread_of(parse_sequence(text))


def test_halt_is_stop():
    assert _t("!") == STOP_THREAD


def test_abort_jump_is_dead():
    assert _t("#0") == DEAD_THREAD


def test_jump_off_the_end_is_dead():
    assert _t("#5 ; !") == DEAD_THREAD


def test_basic_action_then_stop():
    t = _t("c.incr ; !")
    assert t.nodes[t.root] == ("branch", "c", "incr", 1, 1)
    assert t.nodes[1] == ("stop",)


def test_positive_test_branches():
    t = _t("+r.get ; ! ; #0")
    root = t.nodes[t.root]
    assert root[:3] == ("branch", "r", "get")
    assert t.nodes[root[3]] == ("stop",)
    assert t.nodes[root[4]] == ("dead",)


def test_negative_test_swaps_branches():
    pos = _t("+r.get ; ! ; #0")
    neg = _t("-r.get ; ! ; #0")
    proot, nroot = pos.nodes[pos.root], neg.nodes[neg.root]
    assert pos.nodes[proot[3]] == neg.nodes[nroot[4]]
    assert pos.nodes[proot[4]] == neg.nodes[nroot[3]]


def test_jump_chains_resolved():
    # chains of forward jumps collapse to their destination
    assert _t("#1 ; #1 ; !") == STOP_THREAD
    assert _t("#2 ; #0 ; !") == STOP_THREAD


def test_infinite_jump_chain_is_dead():
    assert _t("(#1)^w") == DEAD_THREAD
    assert _t("(#2 ; #2)^w") == DEAD_THREAD


def test_loop_thread_dump():
    t = _t("(-c.iszero ; #2 ; ! ; c.decr)^w")
    assert thread_dump(t) == ("n0: branch c.iszero -> n1 / n2\n"
                              "n1: stop\n"
                              "n2: branch c.decr -> n0 / n0")


def test_minimize_merges_equivalent_nodes():
    # both branches behave identically, so the unrolled copy folds away
    a = _t("(c.incr)^w")
    b = _t("c.incr ; c.incr ; (c.incr ; c.incr)^w")
    assert bisimilar(a, b)
    assert len(minimize(b).nodes) == 1


def test_not_bisimilar():
    assert not bisimilar(_t("!"), _t("#0"))
    assert not bisimilar(_t("c.incr ; !"), _t("c.decr ; !"))


def test_sigma_shape():
    assert normalize(sigma(1)).prefix == normalize(parse_sequence("!")).prefix
    assert normalize(sigma(3)) == normalize(parse_sequence("#0 ; #0 ; !"))
    with pytest.raises(ValueError):
        sigma(0)


def test_embed_entry_and_exit():
    s = parse_sequence("c.incr ; !")
    # entering at 2 skips the increment
    c = embed(s, 2, 0)
    t = extract(c)
    assert t == STOP_THREAD
    # exit 1 from "c.incr" alone becomes termination via sigma
    c = embed(parse_sequence("c.incr"), 1, 1)
    u = apply(extract(c), family({"c": counter(0)}))
    assert u.get("c") == counter(1)


def test_apply_stop_returns_family():
    u = family({"c": counter(5)})
    assert apply(STOP_THREAD, u) == u


def test_apply_dead_returns_empty():
    assert apply(DEAD_THREAD, family({"c": counter(5)})) == EMPTY_FAMILY


def test_apply_runs_the_loop():
    t = _t("(-c.iszero ; #2 ; ! ; c.decr)^w")
    u = apply(t, family({"c": counter(3)}))
    assert u.get("c") == counter(0)


def test_apply_missing_focus_is_empty():
    t = _t("r.get ; !")
    assert apply(t, family({"c": counter(0)})) == EMPTY_FAMILY


def test_apply_d_reply_is_empty():
    t = _t("c.get ; !")  # counters have no get method
    assert apply(t, family({"c": counter(0)})) == EMPTY_FAMILY
    assert apply(t, family({"c": EMPTY})) == EMPTY_FAMILY


def test_apply_divergence_is_empty():
    # a loop that never changes state cycles and yields the empty family
    t = _t("(+r.get ; #1)^w")
    assert apply(t, family({"r": boolreg(True)})) == EMPTY_FAMILY


def test_apply_budget_on_unbounded_growth():
    t = _t("(c.incr)^w")
    cfg = AlgebraConfig("counter", state_bound=10)
    with pytest.raises(BudgetExhausted):
        apply(t, family({"c": counter(0)}), cfg)
