"""The one tokenizer behind every parser: sequences, formulas, asserted
sequences, family literals and proof files are all read from the `Tokens`
of their text.

A token is a string: a brace group with no brace inside or a quoted text
(read when a parser reaches it), a symbol, a digit run, a word, a "//"
comment, any other character, or EOF.  Each grammar rejects the tokens it
has no use for; only proof files skip comments, which their Tokens drop as
they tokenize.  Method names such as "set:t" are adjacent tokens; a
formula reads ":=" as ":" "=".

Every syntax error is a ParseError, which the command line reports as a
parse error without loading the parser that raised it.

MAX_DEPTH caps nesting at Python's default recursion limit.  The parsers,
the printers, the proof checker's walk and its comparison of formulas
(alpha_eq, which substitutes as it compares) keep explicit stacks; a
chain of conjunctions, disjunctions or implications is compiled into a
balanced tree of closures, and a run of negations into one negation or
none.  What still recurses is compiling and evaluating nests of
quantifiers and of alternating connectives.  A formula counts each
connective, quantifier, term operator and pair of parentheses, a
sequence its parentheses, a proof its nested records.

MAX_LENGTH caps the instructions a sequence term writes out, those held
in repetition bodies included: a power such as a.m^1000000000000 is
refused (a ValueError) before its body is copied, instead of exhausting
memory.  Normalizing stops at the first repetition, since nothing after
it is reached; proofs compare terms as written, so they count the rest.

MAX_DIGITS caps the digits of a numeral (a count, jump, entry or exit
point, hypothesis index, counter content or natural number literal), well
below the 4,300 digits past which Python refuses to convert a string to
an int; `numeral` refuses a longer one with a ValueError of its own.
"""

from __future__ import annotations

import re

MAX_DEPTH = 1000
MAX_LENGTH = 10**7
MAX_DIGITS = 1000
TOO_DEEP = "input nested too deeply"

EOF = " "  # no token is whitespace

# "->" wins over "-", and "/\" over "//"; plain text is read by the same
# pattern less its quoted-text and "//" alternatives.  A proof file's
# tokens take the space and comments after them, and Tokens skips those
# before the first, so no match fails and no comment is a token.
_TOKEN = re.compile(r"\s*(\{[^{}]*\}|\"[^\"]*\"|[A-Za-z_]\w*|:=|=>"
                    r"|[~()\[\]=.:;^!#+\"{}|]|->|-|/\\|\\/|//[^\n]*|\d+"
                    r"|\w+|\S)")
_PLAIN = re.compile(r"\s*(\{[^{}]*\}|[A-Za-z_]\w*|:=|=>"
                    r"|[~()\[\]=.:;^!#+\"{}|]|->|-|/\\|\\/|\d+|\w+|\S)")
_SPACE = r"\s*(?://[^\n]*\s*)*"
_PROOF = re.compile(r"(\{[^{}]*\}|\"[^\"]*\"|[A-Za-z_]\w*|:=|=>"
                    r"|[~()\[\]=.:;^!#+\"{}|]|->|-|/\\|\\/|\d+|\w+|\S)"
                    + _SPACE)
_LEADING = re.compile(_SPACE)

NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


class ParseError(ValueError):
    """Malformed text, with the position of the offending token when
    known."""

    def __init__(self, message: str, pos=None):
        super().__init__(message if pos is None
                         else f"{message} (at position {pos})")
        self.pos = pos


def numeral(tok: str) -> int:
    """The value of a digit-run token of at most MAX_DIGITS digits."""
    if len(tok) > MAX_DIGITS:
        raise ValueError(f"numeral longer than {MAX_DIGITS} digits")
    return int(tok)


class Tokens:
    """The tokens of text[begin:end], toks[i] being token i.  Positions,
    counted in the outermost text, are found only when asked for.  Plain
    text has no quoted texts and no comments; a proof file has no comment
    tokens, its comments being space."""

    __slots__ = ("text", "begin", "end", "toks", "_outer", "_starts",
                 "_pattern")

    def __init__(self, text: str, begin: int = 0, end=None, outer=None,
                 plain: bool = False, proof: bool = False):
        self.end = end = len(text) if end is None else end
        self._outer, self._starts = outer, None
        # a quote or "//" in plain text is a character like any other
        self._pattern = _PLAIN if plain else _TOKEN
        if proof:
            self._pattern = _PROOF
            begin = _LEADING.match(text, begin, end).end()
        self.text, self.begin = text, begin
        # no match may start in trailing space, where each would fail
        stop = begin + len(text[begin:end].rstrip())
        self.toks = self._pattern.findall(text, begin, stop)
        self.toks.append(EOF)

    def start(self, i: int) -> int:
        """The offset of token i in the outermost text."""
        if self._outer is None:
            return self.local(i)
        return self.local(i) + self._outer[0].start(self._outer[1])

    def local(self, i: int) -> int:
        """The offset of token i in self.text, found without the positions
        of any outer text."""
        if self._starts is None:
            stop = self.begin + len(self.text[self.begin:self.end].rstrip())
            self._starts = [m.start(1) for m in self._pattern.finditer(
                self.text, self.begin, stop)] + [self.end]
        return self._starts[i]

    def inner(self, i: int) -> "Tokens":
        """The tokens inside token i, a brace group or a quoted text."""
        tok = self.toks[i]
        return Tokens(tok, 1, len(tok) - 1, outer=(self, i))
