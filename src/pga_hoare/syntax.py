"""Instruction sequence terms, parsing, and canonical normal forms.

An instruction sequence term is built from primitive instructions with
concatenation, finite powers, and omega-repetition.  Every well-formed term
denotes a non-empty finite or eventually periodic infinite sequence of
primitive instructions; `normalize` computes the unique canonical
representative (minimal prefix plus primitive period), which makes sequence
equality a componentwise comparison.
"""

from __future__ import annotations

from typing import Optional, Union

from .lexer import (EOF, MAX_DEPTH, MAX_LENGTH, NAME_START, ParseError,
                    Tokens, TOO_DEEP, numeral)
from .records import record

OMEGA = float("inf")


class SequenceSyntaxError(ParseError):
    """Raised on malformed sequence text; carries the offending position."""


# ---------------------------------------------------------------------------
# primitive instructions


@record
class Basic:
    focus: str
    method: str


@record
class PosTest:
    focus: str
    method: str


@record
class NegTest:
    focus: str
    method: str


@record
class Jump:
    offset: int


@record
class Halt:
    pass


Instruction = Union[Basic, PosTest, NegTest, Jump, Halt]

HALT = Halt()


# ---------------------------------------------------------------------------
# sequence terms


@record
class Instr:
    instruction: Instruction


@record
class Concat:
    left: "SequenceTerm"
    right: "SequenceTerm"


@record
class Power:
    body: "SequenceTerm"
    count: int


@record
class Repeat:
    body: "SequenceTerm"


SequenceTerm = Union[Instr, Concat, Power, Repeat]


def concat_all(terms: list) -> SequenceTerm:
    """Right-nested concatenation of a non-empty list of terms."""
    if not terms:
        raise ValueError("empty term")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = Concat(t, out)
    return out


@record
class CanonicalSequence:
    """Minimal prefix plus optional primitive period.

    A finite sequence has `period is None`; an infinite one repeats `period`
    forever after `prefix`.  Construct via `make_canonical` so that equal
    sequences compare equal componentwise.
    """

    prefix: tuple
    period: Optional[tuple]

    @property
    def length(self):
        return len(self.prefix) if self.period is None else OMEGA

    def instruction_at(self, i: int) -> Instruction:
        """1-indexed access; i must satisfy 1 <= i <= length."""
        if i < 1 or i > self.length:
            raise IndexError(f"position {i} out of range")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - len(self.prefix) - 1) % len(self.period)]

    def representative(self, i: int) -> Optional[int]:
        """Map an absolute 1-indexed position to its representative.

        Positions inside the period are shared across unrollings.  Returns
        None for positions past the end of a finite sequence.
        """
        if i <= len(self.prefix):
            return i
        if self.period is None:
            return None
        return len(self.prefix) + (i - len(self.prefix) - 1) % len(self.period) + 1


def _primitive_root(word: tuple) -> tuple:
    """Shortest word w such that word = w^k."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[: d] * (n // d):
            return word[:d]
    return word


def make_canonical(prefix, period) -> CanonicalSequence:
    """Build the unique canonical form: primitive period, minimal prefix."""
    if period is None:
        if not prefix:
            raise ValueError("empty sequence")
        return CanonicalSequence(tuple(prefix), None)
    prefix = list(prefix)
    period = list(_primitive_root(tuple(period)))
    # Rotating the last prefix instruction into the period keeps the denoted
    # sequence unchanged; repeat until the prefix is minimal.
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = [period[-1]] + period[:-1]
    return CanonicalSequence(tuple(prefix), tuple(period))


# ---------------------------------------------------------------------------
# parsing

def _instruction_at(src: Tokens, i: int):
    """The primitive instruction at token i and the index after it.  A
    method name runs on over adjacent ":", word and digit tokens (set:t)."""
    toks = src.toks
    tok = toks[i]
    if tok == "!":
        return HALT, i + 1
    if tok == "#":
        if not toks[i + 1][0].isdecimal():
            raise SequenceSyntaxError("expected a jump offset", src.start(i + 1))
        return Jump(numeral(toks[i + 1])), i + 2
    cls = {"+": PosTest, "-": NegTest}.get(tok, Basic)
    i += cls is not Basic
    focus = toks[i]  # if not EOF, a token follows, and if "." another
    if not (focus[0] in NAME_START and toks[i + 1] == "."
            and toks[i + 2][0] in NAME_START):
        raise SequenceSyntaxError("expected an instruction", src.start(i))
    method = toks[i + 2]
    i += 3
    while (toks[i] == ":" or toks[i][0] == "_" or toks[i][0].isalnum()) and (
            src.local(i) == src.local(i - 1) + len(toks[i - 1])):  # no space
        method += toks[i]
        i += 1
    if not (focus + method).isascii():
        raise SequenceSyntaxError("expected ASCII names", src.start(i))
    return cls(focus, method), i


def sequence_at(src: Tokens, i: int):
    """The sequence term starting at token i and the index after it.  The
    stack holds, per open parenthesis, the items read before it; `^` binds
    tighter than `;`, which nests to the right."""
    toks = src.toks
    stack = []
    items = []
    while True:
        while toks[i] == "(":
            stack.append(items)
            if len(stack) > MAX_DEPTH:
                raise ValueError(TOO_DEEP)
            items = []
            i += 1
        instruction, i = _instruction_at(src, i)
        term = Instr(instruction)
        while True:
            tok = toks[i]
            while tok == "^":
                tok = toks[i + 1]
                if tok == "w":
                    term = Repeat(term)
                elif tok[0].isdecimal():
                    term = Power(term, numeral(tok))
                else:
                    raise SequenceSyntaxError("expected w or a count",
                                              src.start(i + 1))
                i += 2
                tok = toks[i]
            items.append(term)
            if tok != ")" or not stack:
                break
            term = concat_all(items)
            items = stack.pop()
            i += 1
        if tok == ";":
            i += 1
        elif stack:
            raise SequenceSyntaxError("expected ')'", src.start(i))
        else:
            return concat_all(items), i


def sequence_of(src: Tokens) -> SequenceTerm:
    """The sequence term that all of src holds."""
    term, i = sequence_at(src, 0)
    if src.toks[i] != EOF:
        raise SequenceSyntaxError("trailing input", src.start(i))
    return term


def parse_sequence(text: str) -> SequenceTerm:
    return sequence_of(Tokens(text))


# ---------------------------------------------------------------------------
# printing


def format_instruction(i: Instruction) -> str:
    if isinstance(i, Basic):
        return f"{i.focus}.{i.method}"
    if isinstance(i, PosTest):
        return f"+{i.focus}.{i.method}"
    if isinstance(i, NegTest):
        return f"-{i.focus}.{i.method}"
    if isinstance(i, Jump):
        return f"#{i.offset}"
    return "!"


def format_term(t: SequenceTerm) -> str:
    # an explicit stack of terms and literal text, so that the parser's
    # right-nested chains of any length print without deep recursion
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Instr):
            parts.append(format_instruction(item.instruction))
        elif isinstance(item, Concat):
            stack += (item.right, " ; ", item.left)
        elif isinstance(item, Power):
            stack += (f")^{item.count}", item.body, "(")
        elif isinstance(item, Repeat):
            stack += (")^w", item.body, "(")
        else:
            raise TypeError(f"not a sequence term: {item!r}")
    return "".join(parts)


def format_canonical(c: CanonicalSequence) -> str:
    parts = [format_instruction(i) for i in c.prefix]
    if c.period is not None:
        body = " ; ".join(format_instruction(i) for i in c.period)
        parts.append(f"({body})^w")
    return " ; ".join(parts)


# ---------------------------------------------------------------------------
# normalization


REP = "rep"


def is_rep(atom) -> bool:
    """Whether an atom of term_atoms is a repetition marker (REP, body)."""
    return isinstance(atom, tuple)


def term_atoms(t: SequenceTerm, to_first_rep: bool = False) -> tuple:
    """The term as a flat tuple of instructions, with ^w kept symbolic.

    A repetition becomes a single (REP, body-atoms) marker, so terms that
    denote the same sequence but are written differently (S^w versus
    S ; S^w) stay distinguishable, as the proof rules require; these
    markers are the only tuples among the atoms.  With to_first_rep the
    atoms end at the first repetition to close, since nothing after an
    infinite part is reached.  A power that would take the atoms written,
    those held in repetition bodies included, past MAX_LENGTH is refused
    with a ValueError before its copies are made.
    """
    out = []
    hidden = 0  # atoms moved into repetition bodies, less one per marker
    # a stack of terms still to read and markers (kind, start, count) that
    # close the power or repetition whose body was read into out[start:]
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            kind, start, count = item
            if kind is Repeat:
                body = tuple(out[start:])
                hidden += len(body) - 1
                out[start:] = [(REP, body)]
                if to_first_rep:
                    break
            elif (len(out) + hidden + (len(out) - start) * (count - 1)
                    > MAX_LENGTH):
                raise ValueError(
                    f"sequence longer than {MAX_LENGTH} instructions")
            else:
                out.extend(out[start:] * (count - 1))
        elif isinstance(item, Instr):
            out.append(item.instruction)
        elif isinstance(item, Concat):
            stack += (item.right, item.left)
        elif isinstance(item, Power):
            if item.count == 0:
                out.append(Jump(0))
            else:
                stack += ((Power, len(out), item.count), item.body)
        elif isinstance(item, Repeat):
            stack += ((Repeat, len(out), None), item.body)
        else:
            raise TypeError(f"not a sequence term: {item!r}")
    return tuple(out)


def flatten(t: SequenceTerm) -> tuple:
    """(prefix, period) of t; period is None when t is finite.

    The first repetition to close ends the sequence: its body, which holds
    no repetition, is the period, and the atoms before it are the prefix.
    """
    atoms = term_atoms(t, to_first_rep=True)
    if atoms and is_rep(atoms[-1]):
        return atoms[:-1], atoms[-1][1]
    return atoms, None


def normalize(t: SequenceTerm) -> CanonicalSequence:
    return make_canonical(*flatten(t))


def focus_methods(c: CanonicalSequence) -> dict:
    """Each focus occurring in c -> the set of methods applied to it."""
    out = {}
    for i in c.prefix + (c.period or ()):
        if isinstance(i, (Basic, PosTest, NegTest)):
            out.setdefault(i.focus, set()).add(i.method)
    return out
