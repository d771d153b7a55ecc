"""Segment interpretation, the holds checker, and strongest post-conditions."""

import pytest

from pga_hoare.formulas import FALSE, TRUE, Not, parse_formula
from pga_hoare.judgments import AssertedSeq, parse_asserted
from pga_hoare.segments import (BudgetOut, Exited, Halted, Inactive, holds,
                                run_segment, strongest_post)
from pga_hoare.services import AlgebraConfig, boolreg, counter, family
from pga_hoare.syntax import parse_sequence

CFG = AlgebraConfig("counter", state_bound=16, quant_bound=16)
BCFG = AlgebraConfig("boolreg")

LOOP_BODY = "-c.iszero ; #2 ; ! ; c.decr"
LOOP = f"({LOOP_BODY})^w"


def _run(text, b, fam, cfg=CFG):
    return run_segment(parse_sequence(text), b, fam, cfg)


def test_run_halts_on_zero():
    out = _run(LOOP_BODY, 1, family({"c": counter(0)}))
    assert out == Halted(family({"c": counter(0)}))


def test_run_exits_on_positive():
    out = _run(LOOP_BODY, 1, family({"c": counter(5)}))
    assert out == Exited(1, family({"c": counter(4)}))


def test_run_abort_jump_inactive():
    assert _run("#0", 1, family({})) == Inactive()


def test_run_loop_counts_down():
    out = _run(LOOP, 1, family({"c": counter(3)}))
    assert out == Halted(family({"c": counter(0)}))


def test_run_entry_beyond_segment():
    with pytest.raises(ValueError):
        _run("!", 2, family({}))


def test_run_missing_focus_and_d_reply():
    assert _run("r.get ; !", 1, family({})) == Inactive()
    assert _run("c.get ; !", 1, family({"c": counter(0)})) == Inactive()


def test_run_entry_skips_prefix():
    out = _run("c.incr ; !", 2, family({"c": counter(0)}))
    assert out == Halted(family({"c": counter(0)}))


def test_run_exit_offset_from_test():
    # +r.get with reply F skips two positions, exiting a 1-instruction tail
    out = _run("+r.get", 1, family({"r": boolreg(False)}))
    assert out == Exited(2, family({"r": boolreg(False)}))


def test_run_infinite_cycle_is_inactive():
    assert _run("(#2 ; #2)^w", 1, family({})) == Inactive()
    assert _run("(+r.get ; #1)^w", 1,
                family({"r": boolreg(True)})) == Inactive()


def test_run_budget_on_growth():
    small = AlgebraConfig("counter", state_bound=5)
    assert _run("(c.incr)^w", 1, family({"c": counter(0)}), small) == BudgetOut()


def test_holds_loop_claim():
    phi = parse_asserted('{1 | true} "%s" {0 | c = nnc(0)}' % LOOP)
    v = holds(phi, CFG)
    assert v.is_holds and v.bounded


def test_holds_fails_when_halting_despite_positive_exit():
    v = holds(parse_asserted('{1 | true} "!" {1 | true}'), CFG)
    assert v.kind == "fails"
    state, _, outcome = v.witness
    assert isinstance(outcome, Halted)


def test_holds_fails_entry_beyond():
    v = holds(parse_asserted('{2 | true} "!" {0 | true}'), CFG)
    assert v.kind == "fails"
    assert v.reason == "entry beyond segment"


def test_holds_vacuous_precondition():
    v = holds(parse_asserted('{1 | false} "#0" {7 | true}'), CFG)
    assert v.is_holds


def test_holds_boolreg_exhaustive_not_bounded():
    v = holds(parse_asserted('{1 | true} "r.set:t" {1 | r = reg(true)}'), BCFG)
    assert v.is_holds and not v.bounded


def test_holds_wrong_exit_offset_fails():
    v = holds(parse_asserted('{1 | true} "r.set:t" {2 | true}'), BCFG)
    assert v.kind == "fails"


def test_holds_postcondition_failure_has_witness():
    v = holds(parse_asserted('{1 | true} "r.set:t" {1 | r = reg(false)}'), BCFG)
    assert v.kind == "fails"
    state, _, outcome = v.witness
    assert outcome.state.get("r") == boolreg(True)


def test_holds_free_nat_variable_judgment():
    # the hypothesis shape: free n universally quantified over 0..B
    phi = parse_asserted(
        '{1 | c = nnc(s(n))} "%s" {1 | c = nnc(n)}' % LOOP_BODY)
    assert holds(phi, CFG).is_holds


def _unnarrowed(phi):
    # ~~P has P's value everywhere, but no top-level conjunct fixes a
    # variable, so every valuation of every state is tried
    return AssertedSeq(phi.entry, Not(Not(phi.pre)), phi.term, phi.exit,
                       phi.post)


def test_holds_free_nat_variable_solved_from_a_focus():
    # c = nnc(s(n)) fixes n at c - 1, so each state is tried at that n
    # only; verdicts, witnesses and images equal those of a full sweep
    small = AlgebraConfig("counter", state_bound=3, quant_bound=3)
    cases = [
        ('{1 | c = nnc(s(n))} "%s" {1 | c = nnc(n)}' % LOOP_BODY, "holds"),
        ('{1 | c = nnc(s(n))} "c.decr" {1 | c = nnc(s(n))}', "fails"),
        ('{1 | c = nnc(s(n)) /\\ d = nnc(m)} "c.decr ; d.incr" '
         '{1 | c = nnc(n) /\\ d = nnc(s(m))}', "holds"),
        ('{1 | nnc(s(n)) = c /\\ ~n = 1} "c.incr" {1 | ~c = nnc(4)}',
         "fails"),
        # the solution n = 3 lies at the bound B = 3, n = 4 beyond it
        ('{1 | c = nnc(0) /\\ n = 3} "c.incr" {1 | c = nnc(n)}', "fails"),
        ('{1 | c = nnc(0) /\\ n = 4} "c.incr" {1 | c = nnc(n)}', "holds"),
        ('{1 | c = nnc(s(n))} "(c.incr)^w" {0 | true}', "unknown"),
    ]
    for text, kind in cases:
        phi = parse_asserted(text)
        v = holds(phi, small)
        assert v == holds(_unnarrowed(phi), small), text
        assert v.kind == kind, text
    v = holds(parse_asserted(cases[1][0]), small)
    assert v.witness[:2] == (family({"c": counter(1)}), {"n": 0})
    states, _ = strongest_post(parse_formula("c = nnc(s(s(n)))"),
                               parse_sequence("c.decr"), 1, 1, small)
    assert states == {family({"c": counter(1)}), family({"c": counter(2)})}


def test_holds_inactive_satisfies_any_exit():
    assert holds(parse_asserted('{1 | true} "#0" {5 | false}'), CFG).is_holds
    assert holds(parse_asserted('{1 | true} "#0" {0 | false}'), CFG).is_holds


def test_parse_asserted_quoted_and_bare():
    a = parse_asserted('{1 | true} "!" {0 | true}')
    b = parse_asserted("{1 | true} ! {0 | true}")
    assert a == b


def test_strongest_post_counter_example():
    states, formula = strongest_post(parse_formula("c = nnc(2)"),
                                     parse_sequence(LOOP_BODY), 1, 1, CFG)
    assert states == {family({"c": counter(1)})}
    assert "nnc(1)" in str(formula) or "1" in str(formula)


def test_strongest_post_register():
    states, _ = strongest_post(TRUE, parse_sequence("r.set:t"), 1, 1, BCFG)
    assert states == {family({"r": boolreg(True)})}


def test_strongest_post_empty_image():
    states, formula = strongest_post(FALSE, parse_sequence("r.set:t"), 1, 1,
                                     BCFG)
    assert states == set()
    assert formula == FALSE


def test_strongest_post_requires_existence():
    # the register run exits at 1, never halts: e = 0 has no post-condition
    with pytest.raises(ValueError):
        strongest_post(TRUE, parse_sequence("r.set:t"), 1, 0, BCFG)


def test_strongest_post_formula_closes_the_loop():
    pre = parse_formula("c = nnc(2)")
    s = parse_sequence(LOOP_BODY)
    _, q = strongest_post(pre, s, 1, 1, CFG)
    assert holds(AssertedSeq(1, pre, s, 1, q), CFG).is_holds
