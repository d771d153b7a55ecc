"""Proof parsing and the rule-by-rule checker."""

import collections
import operator
import pathlib
import random
from types import SimpleNamespace

import pytest

from pga_hoare import formulas, lexer
from pga_hoare.cli import main
from pga_hoare.formulas import alpha_eq, parse_formula
from pga_hoare.lexer import MAX_DEPTH, TOO_DEEP
from pga_hoare.proofs import (ProofNode, ProofSyntaxError, check_proof,
                              parse_proof, term_atoms)
from pga_hoare.records import replace
from pga_hoare.services import AlgebraConfig
from pga_hoare.syntax import SequenceSyntaxError, parse_sequence

CFG = AlgebraConfig("counter", state_bound=16, quant_bound=20)
BCFG = AlgebraConfig("boolreg")

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent / "proofs"


def _check(text, cfg=CFG, strict=False):
    return check_proof(parse_proof(text), cfg, strict)


def test_term_atoms_keeps_repetition_symbolic():
    w = parse_sequence("(a.m)^w")
    unrolled = parse_sequence("a.m ; (a.m)^w")
    assert term_atoms(w) != term_atoms(unrolled)
    assert term_atoms(unrolled)[1:] == term_atoms(w)
    # a power is its body written out count times, and ^0 is #0
    assert term_atoms(parse_sequence("(a.m ; !)^2")) == term_atoms(
        parse_sequence("a.m ; ! ; a.m ; !"))
    assert term_atoms(parse_sequence("(a.m)^0")) == term_atoms(
        parse_sequence("#0"))


def test_axiom_a9_accepted():
    r = _check('(A9 {1 | c = nnc(0)} "#3" {3 | c = nnc(0)})')
    assert r.accepted and not r.assumptions


def test_axiom_a9_wrong_exit_rejected():
    r = _check('(A9 {1 | true} "#3" {2 | true})')
    assert not r.accepted


def test_axiom_a10_and_a11():
    assert _check('(A10 {1 | true} "#0" {0 | false})').accepted
    assert _check('(A11 {1 | c = nnc(2)} "!" {0 | c = nnc(2)})').accepted
    assert not _check('(A11 {1 | true} "!" {0 | false})').accepted
    assert _check('(A10 {1 | true} "#0" {0 | true})').failures == [
        ("root", "A10: must be {1 | true} #0 {0 | false}")]


def test_axiom_a1_schema():
    good = ('(A1 {1 | (~(r[decr](c) = :d) /\\ d[decr](c) = nnc(0))} '
            '"c.decr" {1 | c = nnc(0)})')
    assert _check(good).accepted
    # precondition must be exactly the schema instance
    bad = '(A1 {1 | c = nnc(1)} "c.decr" {1 | c = nnc(0)})'
    assert not _check(bad).accepted


def test_axiom_a2_divergence_form():
    assert _check('(A2 {1 | r[get](c) = :d} "c.get" {0 | false})').accepted
    assert not _check('(A2 {1 | true} "c.get" {0 | false})').accepted
    # the divergence axioms end at exit 0, whatever the test's polarity
    for rule, instr, exit_ in (("A2", "c.get", 1), ("A5", "+c.get", 2),
                               ("A8", "-c.get", 1)):
        text = f'({rule} {{1 | r[get](c) = :d}} "{instr}" {{{exit_} | false}})'
        assert _check(text).failures == [("root", f"{rule}: exit must be 0")]


def test_test_axioms_polarity_and_exit():
    a4 = ('(A4 {1 | (r[get](r) = :f /\\ d[get](r) = reg(false))} '
          '"+r.get" {2 | r = reg(false)})')
    assert _check(a4, BCFG).accepted
    # A4 with exit 1 is wrong: reply :f on a positive test exits at 2
    bad = ('(A4 {1 | (r[get](r) = :f /\\ d[get](r) = reg(false))} '
           '"+r.get" {1 | r = reg(false)})')
    assert not _check(bad, BCFG).accepted
    a7 = ('(A7 {1 | (r[get](r) = :f /\\ d[get](r) = reg(false))} '
          '"-r.get" {1 | r = reg(false)})')
    assert _check(a7, BCFG).accepted


def test_r1_concatenation():
    text = '''
    left := (A9 {1 | true} "#2" {2 | true})
    right := (A9 {1 | true} "#1" {1 | true})
    (R1 left right => {1 | true} "#2 ; x.m" {1 | true})
    '''
    # the written conclusion term must be the premises' concatenation
    assert not _check(text).accepted
    ok = '''
    left := (A9 {1 | true} "#1" {1 | true})
    right := (A11 {1 | true} "!" {0 | true})
    (R1 left right => {1 | true} "#1 ; !" {0 | true})
    '''
    assert _check(ok).accepted
    # a power concludes about its body written out
    power = '''
    step := (A9 {1 | true} "#1" {1 | true})
    (R1 step step => {1 | true} "(#1)^2" {1 | true})
    '''
    assert _check(power).accepted


def test_r1_requires_positive_intermediate():
    text = '''
    left := (A11 {1 | true} "!" {0 | true})
    right := (A11 {1 | true} "!" {0 | true})
    (R1 left right => {1 | true} "! ; !" {0 | true})
    '''
    assert not _check(text).accepted


def test_r2_exit_arithmetic():
    text = '''
    p := (A9 {1 | true} "#2" {2 | true})
    (R2 p => {1 | true} "#2 ; !" {1 | true})
    '''
    assert _check(text).accepted
    wrong = '''
    p := (A9 {1 | true} "#2" {2 | true})
    (R2 p => {1 | true} "#2 ; !" {2 | true})
    '''
    assert not _check(wrong).accepted
    halting = '''
    p := (A9 {1 | true} "#1" {1 | true})
    (R2 p => {1 | true} "#1 ; !" {0 | true})
    '''
    assert _check(halting).failures == [("root", "R2: requires exit e > 0")]


def test_r2_rejects_infinite_tail():
    text = '''
    p := (A9 {1 | true} "#2" {2 | true})
    (R2 p => {1 | true} "#2 ; (!)^w" {1 | true})
    '''
    assert not _check(text).accepted


def test_r3_and_r4():
    r3 = '''
    p := (A11 {1 | true} "!" {0 | true})
    (R3 p => {1 | true} "! ; c.incr" {0 | true})
    '''
    assert _check(r3).accepted
    r4 = '''
    p := (A11 {1 | true} "!" {0 | true})
    (R4 p => {3 | true} "c.incr ; c.incr ; !" {0 | true})
    '''
    assert _check(r4).accepted
    r4_bad = '''
    p := (A11 {1 | true} "!" {0 | true})
    (R4 p => {2 | true} "c.incr ; c.incr ; !" {0 | true})
    '''
    assert not _check(r4_bad).accepted
    for concl, reason in (
            ('{2 | true} "(#1)^w ; !" {0 | true}',
             "R4: the prepended segment must be finite"),
            ('{2 | true} "c.incr ; !" {0 | false}',
             "R4: exit/formula annotations must carry over")):
        text = f'''
        p := (A11 {{1 | true}} "!" {{0 | true}})
        (R4 p => {concl})
        '''
        assert _check(text).failures == [("root", reason)]


def test_r6_disjunction():
    text = '''
    a := (A9 {1 | c = nnc(0)} "#1" {1 | c = nnc(0) \\/ c = nnc(1)})
    b := (A9 {1 | c = nnc(1)} "#1" {1 | c = nnc(0) \\/ c = nnc(1)})
    (R6 a b => {1 | (c = nnc(0) \\/ c = nnc(1))} "#1"
        {1 | c = nnc(0) \\/ c = nnc(1)})
    '''
    r = _check(text)
    assert not r.accepted  # A9 posts differ from their pres
    ok = '''
    a := (A9 {1 | c = nnc(0)} "#1" {1 | c = nnc(0)})
    aw := (R10 "(c = nnc(0)) -> (c = nnc(0))" a
               "(c = nnc(0)) -> (c = nnc(0) \\/ c = nnc(1))"
           => {1 | c = nnc(0)} "#1" {1 | c = nnc(0) \\/ c = nnc(1)})
    b := (A9 {1 | c = nnc(1)} "#1" {1 | c = nnc(1)})
    bw := (R10 "(c = nnc(1)) -> (c = nnc(1))" b
               "(c = nnc(1)) -> (c = nnc(0) \\/ c = nnc(1))"
           => {1 | c = nnc(1)} "#1" {1 | c = nnc(0) \\/ c = nnc(1)})
    (R6 aw bw => {1 | (c = nnc(0) \\/ c = nnc(1))} "#1"
        {1 | c = nnc(0) \\/ c = nnc(1)})
    '''
    assert _check(ok).accepted


def test_r7_invariance_side_condition():
    ok = '''
    p := (A9 {1 | true} "#1" {1 | true})
    (R7 p => {1 | (true /\\ d = nnc(0))} "#1" {1 | (true /\\ d = nnc(0))})
    '''
    assert _check(ok).accepted
    for pre, post, reason in (
            ("(false /\\ d = nnc(0))", "(true /\\ d = nnc(0))",
             "R7: left conjuncts must match the premise"),
            ("(true /\\ d = nnc(0))", "(true /\\ d = nnc(1))",
             "R7: the invariant must be the same on both sides")):
        text = f'''
        p := (A9 {{1 | true}} "#1" {{1 | true}})
        (R7 p => {{1 | {pre}}} "#1" {{1 | {post}}})
        '''
        assert _check(text).failures == [("root", reason)]
    # the invariant mentions a focus of S: rejected
    bad = '''
    p := (A11 {1 | true} "!" {0 | true})
    (R7 p => {1 | (true /\\ c = nnc(0))} "c.incr ; !"
        {0 | (true /\\ c = nnc(0))})
    '''
    assert not _check(bad).accepted
    # the invariant uses n at two sorts: the side condition cannot be
    # checked, so the node fails rather than the error escaping
    inv = "(n = 0 /\\ n = nnc(0))"
    two_sorts = f'''
    p := (A9 {{1 | true}} "#1" {{1 | true}})
    (R7 p => {{1 | (true /\\ {inv})}} "#1" {{1 | (true /\\ {inv})}})
    '''
    result = _check(two_sorts)
    assert [reason for _, reason in result.failures] == [
        "R7: variable n used at sorts nat and serv"]


def test_r8_elimination():
    ok = '''
    p := (A9 {1 | c = nnc(n)} "#1" {1 | c = nnc(0)})
    (R8 p => {1 | exists n:nat. c = nnc(n)} "#1" {1 | c = nnc(0)})
    '''
    # A9 premise itself is invalid (P must equal Q), so build on A9 properly
    assert not _check(ok).accepted
    ok2 = '''
    p := (A9 {1 | c = nnc(n)} "#1" {1 | c = nnc(n)})
    w := (R10 "(c = nnc(n)) -> (c = nnc(n))" p
              "(c = nnc(n)) -> (exists m:nat. c = nnc(m))"
          => {1 | c = nnc(n)} "#1" {1 | exists m:nat. c = nnc(m)})
    (R8 w => {1 | exists n:nat. c = nnc(n)} "#1" {1 | exists m:nat. c = nnc(m)})
    '''
    assert _check(ok2).accepted
    # bound variable free in the postcondition: rejected
    bad = '''
    p := (A9 {1 | c = nnc(n)} "#1" {1 | c = nnc(n)})
    (R8 p => {1 | exists n:nat. c = nnc(n)} "#1" {1 | c = nnc(n)})
    '''
    assert not _check(bad).accepted
    # Q uses the bound variable at two sorts: the side condition cannot be
    # checked, so the node fails rather than skipping it
    q = "(c = nnc(n)) /\\ (n = reg(true))"
    two_sorts = f'''
    p := (A9 {{1 | {q}}} "#1" {{1 | {q}}})
    (R8 p => {{1 | exists n:nat. {q}}} "#1" {{1 | {q}}})
    '''
    result = _check(two_sorts)
    assert not result.accepted
    assert [reason for _, reason in result.failures] == [
        "R8: variable n used at sorts nat and serv"]
    # the bound variable is a focus of S
    focus = '''
    p := (A2 {1 | r[get](c) = :d} "c.get" {0 | false})
    (R8 p => {1 | exists c:serv. r[get](c) = :d} "c.get" {0 | false})
    '''
    assert _check(focus).failures == [
        ("root", "R8: the bound variable is a focus of S")]


def test_r9_renaming():
    ok = '''
    p := (A9 {1 | c = nnc(n)} "#1" {1 | c = nnc(n)})
    (R9 n m p => {1 | c = nnc(m)} "#1" {1 | c = nnc(m)})
    '''
    assert _check(ok).accepted
    # renaming onto a focus of S is rejected
    bad = '''
    p := (A9 {1 | x = nnc(n)} "#1" {1 | x = nnc(n)})
    (R9 n c p => {1 | x = nnc(c)} "c.incr" {1 | x = nnc(c)})
    '''
    assert not _check(bad).accepted
    # each annotation must be the premise's, renamed
    for pre, post, reason in (
            ("n", "m", "R9: precondition is not the renamed premise"),
            ("m", "n", "R9: postcondition is not the renamed premise")):
        text = f'''
        p := (A9 {{1 | c = nnc(n)}} "#1" {{1 | c = nnc(n)}})
        (R9 n m p => {{1 | c = nnc({pre})}} "#1" {{1 | c = nnc({post})}})
        '''
        assert _check(text).failures == [("root", reason)]


def test_r10_records_bounded_assumptions():
    text = '''
    p := (A11 {1 | c = nnc(0)} "!" {0 | c = nnc(0)})
    (R10 "(c = nnc(0) /\\ r[iszero](c) = :t) -> (c = nnc(0))" p
         "(c = nnc(0)) -> (exists n:nat. c = nnc(n))"
     => {1 | (c = nnc(0) /\\ r[iszero](c) = :t)} "!"
        {0 | exists n:nat. c = nnc(n)})
    '''
    r = _check(text)
    assert r.accepted
    assert len(r.assumptions) == 2
    # strict mode refuses bounded obligations
    assert not _check(text, strict=True).accepted


def test_r10_invalid_obligation_rejected():
    text = '''
    p := (A11 {1 | c = nnc(0)} "!" {0 | c = nnc(0)})
    (R10 "(c = nnc(1)) -> (c = nnc(0))" p
         "(c = nnc(0)) -> (c = nnc(0))"
     => {1 | c = nnc(1)} "!" {0 | c = nnc(0)})
    '''
    assert not _check(text).accepted
    # n is a service in P and a natural in P': the obligation cannot be
    # posed, so the node fails instead of the error escaping check_proof
    clash = '''
    a := (A11 {1 | n = 0} "!" {0 | n = 0})
    b := (R10 "(n = nnc(0)) -> (n = 0)" a "(n = 0) -> (n = 0)"
          => {1 | n = nnc(0)} "!" {0 | n = 0})
    '''
    result = _check(clash)
    assert [reason for _, reason in result.failures] == [
        "R10: obligation P -> P': variable n used at two sorts"]


def test_r10_annotation_must_match():
    text = '''
    p := (A11 {1 | c = nnc(0)} "!" {0 | c = nnc(0)})
    (R10 "(c = nnc(0)) -> (c = nnc(1))" p
         "(c = nnc(0)) -> (c = nnc(0))"
     => {1 | c = nnc(0)} "!" {0 | c = nnc(0)})
    '''
    assert not _check(text).accepted


R5_OK = '''
inner := (A11 {1 | true} "!" {0 | true})
padded := (R3 inner => {1 | true} "! ; (!)^w" {0 | true})
(R5 hyps [{1 | true} "(!)^w" {0 | true}] k 1 subproofs [padded])
'''


def test_r5_basic_loop():
    assert _check(R5_OK).accepted


def test_r5_subproof_may_use_hypothesis():
    text = '''
    step := (A9 {1 | true} "#1" {1 | true})
    use := (R1 step (HYP 1) => {1 | true} "#1 ; (#1)^w" {0 | true})
    (R5 hyps [{1 | true} "(#1)^w" {0 | true}] k 1 subproofs [use])
    '''
    assert _check(text).accepted


def test_hyp_outside_r5_rejected():
    assert not _check("(HYP 1)").accepted
    text = '''
    (R3 (HYP 1) => {1 | true} "! ; !" {0 | true})
    '''
    assert not _check(text).accepted


def test_nested_r5_rejected():
    text = '''
    inner := (A11 {1 | true} "!" {0 | true})
    pad := (R3 inner => {1 | true} "! ; (!)^w" {0 | true})
    innermost := (R5 hyps [{1 | true} "(!)^w" {0 | true}] k 1 subproofs [pad])
    shifted := (R4 innermost => {2 | true} "! ; (!)^w" {0 | true})
    (R5 hyps [{2 | true} "(!)^w" {0 | true}] k 1 subproofs [shifted])
    '''
    r = _check(text)
    assert not r.accepted
    assert any("repetition rule inside" in reason for _, reason in r.failures)


def test_r5_hypotheses_must_repeat_one_finite_body():
    for hyps, reason in (
            ('{1 | true} "!" {0 | true}',
             "R5: hypothesis 1 must assert a repetition S^w"),
            ('{1 | true} "((!)^w)^w" {0 | true}',
             "R5: hypothesis 1 body must be finite"),
            ('{1 | true} "(!)^w" {0 | true} {1 | true} "(#1)^w" {0 | true}',
             "R5: all hypotheses must share the same S")):
        subproofs = " ".join(["p"] * hyps.count("{1 |"))
        text = f'''
        p := (A11 {{1 | true}} "!" {{0 | true}})
        (R5 hyps [{hyps}] k 1 subproofs [{subproofs}])
        '''
        assert _check(text).failures == [("root", reason)]


def test_r5_subproof_must_conclude_unrolled_body():
    text = '''
    inner := (A11 {1 | true} "!" {0 | true})
    (R5 hyps [{1 | true} "(!)^w" {0 | true}] k 1 subproofs [inner])
    '''
    assert not _check(text).accepted


def test_repintro():
    text = '''
    p := (A11 {1 | true} "!" {0 | true})
    (REPINTRO p => {1 | true} "(!)^w" {0 | true})
    '''
    assert _check(text).accepted
    bad = '''
    p := (A9 {1 | true} "#2" {2 | true})
    (REPINTRO p => {1 | true} "(#2)^w" {2 | true})
    '''
    assert not _check(bad).accepted
    for concl, reason in (
            ('{1 | true} "(#0)^w" {0 | true}',
             "conclusion must be the premise term repeated"),
            ('{1 | true} "(!)^w" {0 | false}',
             "entry/formula annotations must carry over")):
        text = f'''
        p := (A11 {{1 | true}} "!" {{0 | true}})
        (REPINTRO p => {concl})
        '''
        assert _check(text).failures == [("root", reason)]


def test_repintro_matches_equivalent_r5_form():
    # the derived rule unfolds into R3 + a one-hypothesis repetition
    direct = '''
    p := (A11 {1 | true} "!" {0 | true})
    (REPINTRO p => {1 | true} "(!)^w" {0 | true})
    '''
    assert _check(direct).accepted == _check(R5_OK).accepted


def test_parse_errors():
    with pytest.raises(ProofSyntaxError):
        parse_proof("")
    with pytest.raises(ProofSyntaxError):
        parse_proof("(A9 {1 | true} \"#1\"")
    with pytest.raises(ProofSyntaxError):
        parse_proof("(R1 nosuch nosuch => {1 | true} \"!\" {0 | true})")
    with pytest.raises(ProofSyntaxError,
                       match="R5 index k=2 is not that of a hypothesis"):
        parse_proof('(R5 hyps [{1 | true} "(!)^w" {0 | true}] k 2 subproofs [])')


@pytest.mark.parametrize("text, error", [
    ('(R10 true (A11 {1 | true} "!" {0 | true}) "true -> true"\n'
     ' => {1 | true} "!" {0 | true})',
     "expected a quoted obligation, got 'true' (at position 5)"),
    ('x := (A11 {1 | true} "!" {0 | true})\ny\n',
     "expected ':=', got end of input (at position 39)"),
    ('x := (A11 {1 | true} "!" {0 | true}\n// unclosed\n',
     "expected ')', got end of input (at position 48)"),
])
def test_proof_syntax_errors_name_the_token_and_its_position(
        tmp_path, capsys, text, error):
    proof = tmp_path / "bad.proof"
    proof.write_text(text)
    assert main(["check", str(proof)]) == 3
    assert capsys.readouterr() == ("", f"parse error: {error}\n")


def test_a_method_name_in_a_proof_file_finds_no_file_positions(monkeypatch):
    # set:t is three adjacent tokens, told apart from "set: t" by their
    # offsets in the quoted text; the token positions of the whole file are
    # found for an error only, which names its position in the file
    real, passes = lexer._PROOF, []
    monkeypatch.setattr(lexer, "_PROOF", SimpleNamespace(
        findall=real.findall,
        finditer=lambda *args: passes.append(args) or real.finditer(*args)))
    node = parse_proof('(A11 {1 | true} "r.set:t ; !" {0 | true})')
    assert node.conclusion.term == parse_sequence("r.set:t ; !")
    assert passes == []
    for bad, at in (('(A11 {1 | true} "r.set:t ; ?" {0 | true})', "?"),
                    ('(A11 {1 | true} "r.set: t ; !" {0 | true})', "t ;")):
        with pytest.raises(SequenceSyntaxError) as caught:
            parse_proof(bad)
        assert caught.value.pos == bad.index(at), bad
    assert len(passes) == 2


def test_annotation_errors_are_proof_syntax_errors():
    with pytest.raises(ProofSyntaxError, match=r"point \| formula"):
        parse_proof('(A11 {1 true} "!" {0 | true})')
    with pytest.raises(ProofSyntaxError):
        parse_proof('(A11 {x | true} "!" {0 | true})')
    with pytest.raises(ProofSyntaxError):
        parse_proof('(A11 {1 | c = } "!" {0 | true})')


def test_annotation_points_are_digit_runs():
    # int() used to read these points as 1, 10, 0 and 1
    for point in ("0_1", "1_0", "+1", "-0", " 1 1"):
        with pytest.raises(ProofSyntaxError, match=r"point \| formula"):
            parse_proof('x := (A11 {%s | true} "!" {0 | true})' % point)
        with pytest.raises(ProofSyntaxError, match=r"point \| formula"):
            parse_proof('x := (A11 {1 | true} "!" {%s | true})' % point)
    node = parse_proof('x := (A9 {01 | true} "#3" {003 | true})')
    assert (node.conclusion.entry, node.conclusion.exit) == (1, 3)


def test_term_atoms_of_a_long_chain():
    atoms = term_atoms(parse_sequence(" ; ".join(["c.incr"] * 100_000 + ["!"])))
    assert len(atoms) == 100_001


def test_comments_and_bindings():
    text = '''
    // a named axiom instance, then the root
    one := (A11 {1 | true} "!" {0 | true})  // trailing note
    (R3 one => {1 | true} "! ; #0" {0 | true})
    '''
    assert _check(text).accepted
    # also right before a closing "]" or ")"
    text = '''
    inner := (A11 {1 | true} "!" {0 | true} // axiom
    )
    padded := (R3 inner // premise
    => {1 | true} "! ; (!)^w" {0 | true})
    (R5 hyps [{1 | true} "(!)^w" {0 | true} // the loop
    ] k 1 subproofs [padded // body
    ] // end
    )
    '''
    assert parse_proof(text) == parse_proof(R5_OK)
    assert _check(text).accepted
    empty = 'x := (R5 hyps [{1 | true} "(!)^w" {0 | true}] k 1 subproofs [%s])'
    assert parse_proof(empty % "// none\n") == parse_proof(empty % "")


def test_golden_proof_file_accepted():
    text = (PROOF_DIR / "counter_zero.proof").read_text()
    cfg = AlgebraConfig("counter", state_bound=24, quant_bound=32)
    result = check_proof(parse_proof(text), cfg)
    assert result.accepted
    assert len(result.assumptions) == 5


def test_golden_proof_conclusion_shape():
    text = (PROOF_DIR / "counter_zero.proof").read_text()
    root = parse_proof(text)
    c = root.conclusion
    assert c.entry == 1 and c.exit == 0
    assert term_atoms(c.term) == term_atoms(
        parse_sequence("(-c.iszero ; #2 ; ! ; c.decr)^w"))



def test_failures_come_in_preorder_with_r5_checks_in_place():
    # R5 checks each subproof's conclusion just before that subproof, and
    # its own conclusion after the last; the nodes after R5 come last
    text = '''
    halt := (A11 {2 | true} "!" {0 | true})
    bad := (R3 halt => {1 | true} "! ; (!)^w" {0 | false})
    loop := (R5 hyps [{1 | true} "(!)^w" {0 | true}
                      {2 | true} "(!)^w" {1 | true}]
                k 1 subproofs [bad (HYP 1)])
    late := (A9 {1 | true} "#2" {1 | true})
    (R1 loop late => {1 | true} "(!)^w ; #2" {1 | true})
    '''
    root = parse_proof(text)
    # a conclusion other than the k-th hypothesis, which no file can give
    loop = root.premises[0]
    loop = replace(loop, conclusion=replace(loop.conclusion, exit=1))
    root = replace(root, premises=(loop, root.premises[1]))
    assert check_proof(root, CFG).failures == [
        ("root.R1[1]", "R5: hypothesis 2 must have exit 0"),
        ("root.R1[1].R5.sub[1]",
         "subproof conclusion must match its hypothesis"),
        ("root.R1[1].R5.sub[1]",
         "R3: entry/formula annotations must carry over"),
        ("root.R1[1].R5.sub[1].R3[1]", "A11: entry point must be 1"),
        ("root.R1[1].R5.sub[2]", "subproof must conclude about S ; S^w"),
        ("root.R1[1].R5.sub[2]",
         "subproof conclusion must match its hypothesis"),
        ("root.R1[1]", "R5: conclusion must be the k-th hypothesis: "
                       "entry/exit annotations differ"),
        ("root.R1[2]", "A9: exit must equal the offset, P preserved"),
    ]

def test_hypotheses_reach_the_bottom_of_a_deep_subproof():
    # 3,000 R10 bindings between R5 and the HYP its subproof ends in
    step = '(A9 {1 | true} "#1" {1 | true})'
    concl = '{1 | true} "#1 ; (#1)^w" {0 | true}'
    for index, failures in ((1, []), (2, [
            ("premise 2 has no usable conclusion", ""),
            ("HYP index out of range", ".R1[2]")])):
        lines = [f"b0 := (R1 {step} (HYP {index}) => {concl})"]
        lines += [f'b{i} := (R10 "true -> true" b{i - 1} "true -> true"'
                  f' => {concl})' for i in range(1, 3001)]
        lines.append('(R5 hyps [{1 | true} "(#1)^w" {0 | true}] k 1'
                     ' subproofs [b3000])')
        result = _check("\n".join(lines), BCFG)
        bottom = "root.R5.sub[1]" + ".R10[1]" * 3000
        assert result.failures == [(bottom + tail, reason)
                                   for reason, tail in failures]


def test_hand_built_trees_without_premises_or_conclusion_are_rejected():
    for tree in (ProofNode("R1", None, (ProofNode("A11"),)),
                 ProofNode("A11"),
                 ProofNode("R10", parse_proof(
                     '(A11 {1 | true} "!" {0 | true})').conclusion)):
        result = check_proof(tree, CFG)
        assert not result.accepted and result.failures, tree


# rule names, unknown ones included: a lower-case rule, and names of the
# checker's own helpers
_RULES = ([f"A{i}" for i in range(12)] + [f"R{i}" for i in range(12)]
          + ["HYP", "REPINTRO", "r1", "NODE", "PREMISE", "SAME_SEQ",
             "CARRY"])


def _subtrees(root):
    """Every node of the tree, each once, premises before hypotheses."""
    out, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.premises)
    return out


def _mutate(rng, node, pool):
    """node with one field changed to a value of that field's type."""
    conclusions = [n.conclusion for n in pool] + [None]
    premises = list(node.premises)
    pick = rng.randrange(9)
    if pick == 0:
        return replace(node, rule=rng.choice(_RULES))
    if pick == 1:
        return replace(node, conclusion=rng.choice(conclusions))
    if pick == 2:
        if premises:
            del premises[rng.randrange(len(premises))]
        else:
            premises.append(rng.choice(pool))
    elif pick == 3:
        premises.insert(rng.randint(0, len(premises)), rng.choice(pool))
    elif pick == 4:
        hyp = ProofNode("HYP", hyp_index=rng.randint(-1, 3))
        if premises:
            premises[rng.randrange(len(premises))] = hyp
        else:
            premises.append(hyp)
    elif pick == 5:
        return replace(node, k=rng.randint(-1, len(node.hyps) + 1),
                       hyp_index=rng.randint(-1, 3))
    elif pick == 6:
        hyps = [h for h in node.hyps if rng.random() < 0.5]
        hyps += [c for c in rng.sample(conclusions, 2) if c is not None]
        return replace(node, hyps=tuple(hyps))
    elif pick == 7:
        return replace(node, rename=rng.choice(
            [None, ("n", "m"), ("c", "n"), ("n", "c")]))
    else:
        obligations = node.obligations
        return replace(node, obligations=rng.choice(
            [None, obligations and obligations[::-1]]))
    return replace(node, premises=tuple(premises))


def _replace_at(root, target, new):
    """root with each occurrence of node target replaced by new."""
    done = {}
    order = _subtrees(root)
    for node in reversed(order):  # premises before the nodes above them
        if node is target:
            done[id(node)] = new
            continue
        premises = tuple(done.get(id(p), p) for p in node.premises)
        done[id(node)] = (node if all(map(operator.is_, premises,
                                          node.premises))
                          else replace(node, premises=premises))
    return done[id(root)]


def test_mutated_proof_trees_are_checked_without_raising():
    # hand-built trees: the proof files' trees with one to three fields
    # changed anywhere in them, checked from their root or from a node
    # above the change; every one is answered with a CheckResult
    rng = random.Random(13)
    files = [PROOF_DIR / "counter_zero.proof",
             *sorted((pathlib.Path(__file__).parent / "proofs").glob(
                 "*.proof"))]
    roots = [parse_proof(f.read_text()) for f in files]
    cfg = AlgebraConfig("counter", state_bound=2, quant_bound=2)
    outcomes = collections.Counter()
    for _ in range(1800):
        tree = rng.choice(roots)
        for _ in range(rng.randint(1, 3)):
            pool = _subtrees(tree)
            target = rng.choice(pool)
            tree = _replace_at(tree, target, _mutate(rng, target, pool))
        start = tree if rng.random() < 0.5 else rng.choice(_subtrees(tree))
        for strict in (False, True):
            result = check_proof(start, cfg, strict)
            assert result.accepted == (not result.failures)
            outcomes[result.accepted] += 1
    assert outcomes[True] and outcomes[False], outcomes


# ---------------------------------------------------------------------------
# one parse per distinct formula text of a file


def _formulas(node):
    """The formula objects of a tree, annotations and obligations."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        for a in filter(None, (node.conclusion,) + node.hyps):
            out += [a.pre, a.post]
        out += node.obligations or ()
    return out


def test_a_file_reads_each_formula_text_once():
    text = """
    x := (A11 {1 | c = nnc(0)} "!" {0 | c  =  nnc(0)})
    (R10 "(c = nnc(0)) -> (c = nnc(0))" x "c = nnc(0) -> (c = nnc(0))"
     => {2 | c = nnc(0)} "!" {0 | c = nnc(0)})
    """
    root = parse_proof(text)
    first = root.premises[0].conclusion.pre
    # one formula under two points, however spaced, and each obligation
    # operand written as a group are one object
    shared = [root.premises[0].conclusion.post, root.conclusion.pre,
              root.conclusion.post, root.obligations[0].left,
              root.obligations[0].right, root.obligations[1].right]
    assert all(f is first for f in shared)
    # a formula not written as a group is read anew
    assert root.obligations[1].left == first
    assert root.obligations[1].left is not first
    # the table dies with its call: two reads share no formula object,
    # leaving aside the module's constants
    again = parse_proof(text)
    mine = {id(f) for f in _formulas(root)}
    assert mine.isdisjoint(id(f) for f in _formulas(again))
    assert again == root


def test_counter_zero_builds_each_distinct_equation_once(monkeypatch):
    built = []

    def spy(left, right):
        built.append((left, right))
        return eq(left, right)

    eq = formulas.Eq
    monkeypatch.setattr(formulas, "Eq", spy)
    root = parse_proof((PROOF_DIR / "counter_zero.proof").read_text())
    monkeypatch.undo()
    assert len(built) <= 11, len(built)
    assert root == parse_proof((PROOF_DIR / "counter_zero.proof").read_text())


def test_a_group_from_the_table_counts_its_depth():
    # X is read first as an annotation; "(X)" then comes from the table
    # and must count X's depth, as a formula read from scratch does
    proof = '(R10 "(%s)" (A11 {1 | %s} "!" {0 | true}) "true"' \
        ' => {1 | %s} "!" {0 | true})'
    for levels, fits in ((MAX_DEPTH - 2, True), (MAX_DEPTH - 1, False)):
        x = "~" * levels + "true"
        if fits:
            root = parse_proof(proof % (x, x, x))
            assert root.obligations[0] is root.conclusion.pre
            assert alpha_eq(root.obligations[0], parse_formula(f"({x})"))
        else:
            for parse in (lambda: parse_proof(proof % (x, x, x)),
                          lambda: parse_formula(f"({x})")):
                with pytest.raises(ValueError, match=f"^{TOO_DEEP}$"):
                    parse()


def test_groups_inside_groups_are_not_keyed(monkeypatch):
    # a key is the group's tokens joined: keying every level of a nest of
    # 998 groups would join about half a million tokens, where one key
    # for the outermost group reads each token once
    ends = []
    group_end = formulas._group_end
    monkeypatch.setattr(formulas, "_group_end",
                        lambda toks, i: ends.append(i) or group_end(toks, i))
    nest = "(" * 998 + "true" + ")" * 998
    root = parse_proof('(A11 {1 | %s} "!" {0 | %s})' % (nest, nest))
    assert ends == [2]  # the annotation's first "(", after "1" and "|"
    assert root.conclusion.pre is root.conclusion.post
