"""Sequence terms: parsing, canonical forms, and the equational laws."""

import pytest
from hypothesis import given, settings, strategies as st

from pga_hoare.syntax import (Basic, CanonicalSequence, Concat, Halt, Instr,
                              Jump, NegTest, OMEGA, PosTest, Power, Repeat,
                              SequenceSyntaxError, concat_all,
                              format_canonical, format_term, make_canonical,
                              normalize, parse_sequence)


def test_parse_basic_forms():
    t = parse_sequence("a.m ; +b.n ; -c.p ; #3 ; !")
    c = normalize(t)
    assert c.prefix == (Basic("a", "m"), PosTest("b", "n"), NegTest("c", "p"),
                        Jump(3), Halt())
    assert c.period is None
    assert c.length == 5


def test_parse_power_and_repeat():
    assert normalize(parse_sequence("(a.m)^3")).prefix == (Basic("a", "m"),) * 3
    c = normalize(parse_sequence("(a.m ; b.n)^w"))
    assert c.prefix == ()
    assert c.period == (Basic("a", "m"), Basic("b", "n"))
    assert c.length == OMEGA


def test_parse_method_with_colon():
    c = normalize(parse_sequence("r.set:t"))
    assert c.prefix == (Basic("r", "set:t"),)


def test_parse_errors_carry_position():
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("")
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("a.m ;")
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("a.m )")
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("#")


def test_power_zero_is_abort_jump():
    # X^0 denotes the unit-of-no-progress #0
    assert normalize(parse_sequence("(a.m)^0")).prefix == (Jump(0),)


def test_repetition_absorbs_suffix():
    # X^w ; Y = X^w
    assert (normalize(parse_sequence("(!)^w ; c.incr"))
            == normalize(parse_sequence("(!)^w")))
    assert format_canonical(normalize(parse_sequence("(!)^w ; c.incr"))) == "(!)^w"


def test_power_under_repetition_collapses():
    # (X^n)^w = X^w
    assert (normalize(parse_sequence("((a.m)^3)^w"))
            == normalize(parse_sequence("(a.m)^w")))


def test_unrolled_repetition_equal():
    # (X ; Y)^w = X ; (Y ; X)^w
    a = parse_sequence("(a.m ; b.n)^w")
    b = parse_sequence("a.m ; (b.n ; a.m)^w")
    assert normalize(a) == normalize(b)


def test_canonical_prefix_is_minimal():
    # a ; (b ; a)^w has canonical form (a ; b)^w
    c = normalize(parse_sequence("a.m ; (b.n ; a.m)^w"))
    assert c.prefix == ()
    assert c.period == (Basic("a", "m"), Basic("b", "n"))


def test_term_length():
    assert normalize(parse_sequence("a.m ; b.n")).length == 2
    assert normalize(parse_sequence("(a.m)^w")).length == OMEGA


def test_instruction_at_and_representative():
    c = normalize(parse_sequence("a.m ; (b.n ; c.p)^w"))
    assert c.instruction_at(1) == Basic("a", "m")
    assert c.instruction_at(2) == Basic("b", "n")
    assert c.instruction_at(4) == Basic("b", "n")
    assert c.representative(4) == 2
    assert c.representative(5) == 3


def test_format_parse_roundtrip():
    texts = ["a.m", "+a.m ; -b.n ; #0 ; !", "(a.m ; #2)^w", "(a.m)^3 ; !"]
    for text in texts:
        t = parse_sequence(text)
        assert normalize(parse_sequence(format_term(t))) == normalize(t)


def test_long_chains_format_and_normalize():
    # 100k right-nested concatenations: no recursion limit, linear time
    text = " ; ".join(["c.incr"] * 100_000 + ["(!)^w"])
    t = parse_sequence(text)
    assert format_term(t) == text
    c = normalize(t)
    assert len(c.prefix) == 100_000 and c.period == (Halt(),)


# ---------------------------------------------------------------------------
# property tests

_INSTR = st.sampled_from([
    Instr(Basic("r", "get")), Instr(PosTest("r", "get")),
    Instr(NegTest("r", "get")), Instr(Basic("r", "set:t")),
    Instr(Jump(0)), Instr(Jump(1)), Instr(Jump(2)), Instr(Halt()),
])


def _terms(depth=3):
    return st.recursive(
        _INSTR,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Concat(*p)),
            st.tuples(sub, st.integers(1, 3)).map(lambda p: Power(*p)),
            sub.map(Repeat),
        ),
        max_leaves=8,
    )


def _first(c, n):
    """The first n instructions of c, fewer if c is shorter."""
    return tuple(c.instruction_at(i) for i in range(1, min(n, c.length) + 1))


def _first_words_equal(a, b, n=64):
    ca, cb = normalize(a), normalize(b)
    return ((ca.period is None) == (cb.period is None)
            and _first(ca, n) == _first(cb, n))


@given(_terms(), _terms(), _terms())
@settings(max_examples=200)
def test_concat_associative(x, y, z):
    assert (normalize(Concat(Concat(x, y), z))
            == normalize(Concat(x, Concat(y, z))))


@given(_terms(), st.integers(1, 4))
@settings(max_examples=200)
def test_power_repeat_collapse(x, n):
    assert normalize(Repeat(Power(x, n))) == normalize(Repeat(x))


@given(_terms(), _terms())
@settings(max_examples=200)
def test_repeat_absorbs(x, y):
    assert normalize(Concat(Repeat(x), y)) == normalize(Repeat(x))


@given(_terms(), _terms())
@settings(max_examples=200)
def test_repeat_unroll(x, y):
    assert (normalize(Repeat(Concat(x, y)))
            == normalize(Concat(x, Repeat(Concat(y, x)))))


@given(_terms(), _terms())
@settings(max_examples=300)
def test_equality_matches_word_comparison(x, y):
    # canonical-form equality must coincide with comparing the denoted words
    assert (normalize(x) == normalize(y)) == _first_words_equal(x, y)


@given(_terms())
@settings(max_examples=200)
def test_canonical_form_is_stable(x):
    c = normalize(x)
    assert normalize(parse_sequence(format_canonical(c))) == c
    if c.period is not None:
        # the period is primitive: no shorter word generates it
        p = c.period
        for d in range(1, len(p)):
            if len(p) % d == 0:
                assert p != p[:d] * (len(p) // d)
