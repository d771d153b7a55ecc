"""Asserted instruction sequences: {b | P} S {e | Q}.

b is the entry instruction (1-indexed), e the exit offset; e = 0 asserts
termination inside S.  The textual form puts the sequence between the two
annotation groups, optionally double-quoted:

    {1 | true} "-c.iszero ; #2 ; ! ; c.decr" {1 | c = nnc(1)}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .formulas import Formula, format_formula, parse_formula
from .syntax import SequenceTerm, format_term, parse_sequence


@dataclass(frozen=True)
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


def _take_group(text: str, pos: int):
    """Consume one {...} group starting at pos; returns (inner, next_pos)."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        raise ValueError(f"expected '{{' at position {pos} in {text!r}")
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[pos + 1 : i], i + 1
    raise ValueError(f"unbalanced braces in {text!r}")


def parse_annotation(inner: str):
    """The text between the braces of one annotation: (point, formula)."""
    point, bar, formula = inner.partition("|")
    if not bar:
        raise ValueError(f"annotation needs 'point | formula': {inner!r}")
    return int(point.strip()), parse_formula(formula)


def parse_asserted(text: str) -> AssertedSeq:
    pre_inner, pos = _take_group(text, 0)
    tail = text[pos:]
    brace = tail.rfind("{")
    if brace < 0:
        raise ValueError(f"missing post-annotation in {text!r}")
    seq_text = tail[:brace].strip()
    if seq_text.startswith('"') and seq_text.endswith('"') and len(seq_text) >= 2:
        seq_text = seq_text[1:-1]
    post_inner, end = _take_group(tail, brace)
    if tail[end:].strip():
        raise ValueError(f"trailing input after post-annotation: {tail[end:]!r}")
    b, pre = parse_annotation(pre_inner)
    e, post = parse_annotation(post_inner)
    return AssertedSeq(b, pre, parse_sequence(seq_text), e, post)


def expand_multi_exit(b: int, pre: Formula, term: SequenceTerm,
                      exits: List[int], post: Formula) -> List[AssertedSeq]:
    """The multi-exit shorthand: one asserted sequence per listed exit."""
    if not exits:
        raise ValueError("at least one exit offset is required")
    return [AssertedSeq(b, pre, term, e, post) for e in exits]
