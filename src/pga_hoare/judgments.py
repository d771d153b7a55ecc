"""Asserted instruction sequences: {b | P} S {e | Q}.

b is the entry instruction (1-indexed), e the exit offset; e = 0 asserts
termination inside S.  The textual form puts the sequence between the two
annotation groups, optionally double-quoted:

    {1 | true} "-c.iszero ; #2 ; ! ; c.decr" {1 | c = nnc(1)}
"""

from __future__ import annotations

from itertools import accumulate

from .formulas import Formula, format_formula, formula_of
from .lexer import Tokens, numeral
from .records import record
from .syntax import SequenceSyntaxError, SequenceTerm, format_term, sequence_at


@record
class AssertedSeq:
    entry: int
    pre: Formula
    term: SequenceTerm
    exit: int
    post: Formula

    def __post_init__(self):
        if self.entry < 1:
            raise ValueError("entry point must be at least 1")
        if self.exit < 0:
            raise ValueError("exit offset must be a natural number")

    def __str__(self) -> str:
        return format_asserted(self)


def format_asserted(a: AssertedSeq) -> str:
    return (f"{{{a.entry} | {format_formula(a.pre)}}} "
            f'"{format_term(a.term)}" '
            f"{{{a.exit} | {format_formula(a.post)}}}")


def annotation_of(src: Tokens, table=None):
    """(point, formula) from the inside of one {...}; the formula is read
    through the table (see formulas.formula_at), if one is given, so one
    formula under two points is read once."""
    toks = src.toks
    if not (toks[0][0].isdecimal() and toks[1] == "|"):
        raise ValueError("annotation needs 'point | formula' with a natural "
                         f"number as point (at position {src.start(0)})")
    return numeral(toks[0]), formula_of(src, 2, table)


def parse_asserted(text: str) -> AssertedSeq:
    """{b | P} S {e | Q}, with S optionally in double quotes.  The last
    brace group is {e | Q}, and quotes matter only around the whole of S.
    The annotations are read before the sequence."""
    src = Tokens(text, plain=True)
    toks = src.toks
    if toks[0][0] != "{":
        raise ValueError(f"expected '{{' at position {src.start(0)} in {text!r}")
    if len(toks[0]) > 1:
        pre, start = src.inner(0), 1
    else:  # braces inside it: it ends where they balance
        depths = list(accumulate((t == "{") - (t == "}") for t in toks))
        if 0 not in depths:
            raise ValueError(f"unbalanced braces in {text!r}")
        start = depths.index(0) + 1
        pre = Tokens(text, src.start(0) + 1, src.start(start - 1))
    post = len(toks) - 2
    if post < start or toks[post][0] != "{" or len(toks[post]) < 2:
        raise ValueError("expected a post-annotation {e | Q} at the end of "
                         f"{text!r}")
    b, pre_formula = annotation_of(pre)
    e, post_formula = annotation_of(src.inner(post))
    end = post
    if post - start >= 2 and toks[start] == toks[post - 1] == '"':
        start, end = start + 1, post - 1
    term, i = sequence_at(src, start)
    if i != end:
        raise SequenceSyntaxError("trailing input", src.start(i))
    return AssertedSeq(b, pre_formula, term, e, post_formula)
