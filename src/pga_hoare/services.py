"""Services, service families, and the two built-in service algebras.

A service processes methods: it yields a reply (T, F, or D) and a derived
service.  Reply D means the method could not be processed; the service then
degenerates to the empty service, which replies D to everything.  Families
map focus names to services.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from .lexer import NAME_START, Tokens, numeral
from .records import record


class Reply(Enum):
    T = "t"
    F = "f"
    D = "d"


@record
class Service:
    kind: str
    content: object = None


EMPTY = Service("empty")


# Services are immutable, so equal ones may be shared.  counter(n) and
# boolreg(v) return interned instances: the first _INTERNED counters and
# both registers are built once, which saves building a Service record
# per state enumerated, per decoded content and per formula term.
_INTERNED = 1 << 12
_REGISTERS = (Service("boolreg", False), Service("boolreg", True))


class _Counters(dict):
    """n -> counter(n), holding those below _INTERNED once built: a
    counter built before is found by the dict lookup alone."""

    def __missing__(self, n):
        if n < 0:
            raise ValueError("counter content must be a natural number")
        if n >= _INTERNED:
            return Service("counter", n)
        # setdefault is atomic: threads that build one counter share it
        return self.setdefault(n, Service("counter", n))


_COUNTERS = _Counters()
counter = _COUNTERS.__getitem__  # counter(n) -> the counter holding n


def boolreg(value: bool) -> Service:
    return _REGISTERS[1 if value else 0]


def svc_step(s: Service, m: str) -> Tuple[Reply, Service]:
    """Process method m: the reply and the derived service."""
    if s.kind == "counter":
        n = s.content
        if m == "incr":
            return Reply.T, counter(n + 1)
        if m == "decr":
            # decr at zero replies F and leaves the content unchanged
            return (Reply.T, counter(n - 1)) if n > 0 else (Reply.F, s)
        if m == "iszero":
            return (Reply.T if n == 0 else Reply.F), s
    elif s.kind == "boolreg":
        if m == "get":
            return (Reply.T if s.content else Reply.F), s
        if m == "set:t":
            return Reply.T, boolreg(True)
        if m == "set:f":
            return Reply.T, boolreg(False)
    return Reply.D, EMPTY


# ---------------------------------------------------------------------------
# service families


@record
class ServiceFamily:
    """Immutable finite map from focus name to service."""

    entries: Tuple[Tuple[str, Service], ...] = ()

    def __contains__(self, focus: str) -> bool:
        return any(f == focus for f, _ in self.entries)

    def get(self, focus: str) -> Optional[Service]:
        for f, s in self.entries:
            if f == focus:
                return s
        return None

    def __str__(self) -> str:
        return format_family(self)


EMPTY_FAMILY = ServiceFamily()


def family_key(u: ServiceFamily) -> tuple:
    """Sort key for families: focus by focus, then kind, then content, so
    counter(2) comes before counter(10)."""
    return tuple((f, s.kind, s.content) for f, s in u.entries)


def family(items: Dict[str, Service]) -> ServiceFamily:
    return ServiceFamily(tuple(sorted(items.items())))


# ---------------------------------------------------------------------------
# algebra configuration


@record
class AlgebraConfig:
    """Which built-in algebra interprets foci, and the enumeration bounds.

    state_bound caps counter contents during state enumeration; quant_bound
    caps bounded quantification over the naturals.
    """

    algebra: str = "counter"
    state_bound: int = 100
    quant_bound: int = 32

    def __post_init__(self):
        if self.algebra not in ("counter", "boolreg"):
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.state_bound < 1 or self.quant_bound < 1:
            raise ValueError("bounds must be at least 1")

    def state_contents(self):
        """(contents, service, exhaustive): the contents that a focus takes
        in enumerated states (a counter's count up to state_bound, a
        register's 0 and 1), the map from a content to its service (a
        table lookup where services are interned), and whether they cover
        the algebra.  For counters they do not; verdicts derived from them
        are bounded."""
        if self.algebra == "boolreg":
            return range(2), _REGISTERS.__getitem__, True
        return range(self.state_bound + 1), counter, False

    def service_domain(self):
        """(services, exhaustive): the services of state_contents, for
        quantifiers over serv.  Counters are built on each pass over
        them, so a large state_bound costs no memory."""
        if self.algebra == "boolreg":
            return _REGISTERS, True
        return _Counted(self.state_bound + 1), False


class _Counted:
    """counter(0), ..., counter(n - 1), built afresh on each pass."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __iter__(self):
        return map(counter, range(self.n))


# ---------------------------------------------------------------------------
# family literals: {c = counter(3), r = bool(true), d = empty}


def _service_of(value: list, text: str) -> Service:
    """The service that a family entry's value tokens write; text is the
    value as written, for messages."""
    if value == ["empty"]:
        return EMPTY
    kind, arg = value[0], value[2:-1]
    if kind not in ("counter", "bool") or value[1:2] != ["("] \
            or value[-1] != ")":
        raise ValueError(f"unknown service literal: {text!r}")
    if kind == "counter" and len(arg) == 1 and arg[0].isascii() \
            and arg[0].isdigit():
        return counter(numeral(arg[0]))
    if kind == "bool" and arg in (["true"], ["false"]):
        return boolreg(arg == ["true"])
    raise ValueError(f"bad {kind} literal: {text!r}")


def parse_family(text: str) -> ServiceFamily:
    """The family that a literal such as {c = counter(3), d = empty}
    writes, read from the lexer's tokens."""
    outer = Tokens(text)
    group = outer.toks[0]  # a brace group is one token, a lone "{" another
    if len(outer.toks) != 2 or group[0] != "{" or group == "{":
        raise ValueError(f"family literal must be brace-delimited: {text!r}")
    src = outer.inner(0)
    toks = src.toks[:-1]  # without EOF
    if not toks:
        return EMPTY_FAMILY

    def written(lo: int, hi: int) -> str:
        """The text of tokens lo to hi - 1."""
        if lo >= hi:
            return ""
        return text[src.start(lo):src.start(hi - 1) + len(toks[hi - 1])]

    items: Dict[str, Service] = {}
    commas = [i for i, tok in enumerate(toks) if tok == ","]
    for lo, hi in zip([0] + [i + 1 for i in commas], commas + [len(toks)]):
        entry = toks[lo:hi]
        if len(entry) < 3 or entry[1] != "=" or entry[0][0] not in NAME_START:
            raise ValueError(f"malformed family entry: {written(lo, hi)!r}")
        if entry[0] in items:
            raise ValueError(f"focus {entry[0]} is given twice")
        items[entry[0]] = _service_of(entry[2:], written(lo + 2, hi))
    return family(items)


def format_service(s: Service) -> str:
    if s.kind == "empty":
        return "empty"
    if s.kind == "counter":
        return f"counter({s.content})"
    if s.kind == "boolreg":
        return f"bool({'true' if s.content else 'false'})"
    return f"{s.kind}({s.content})"


def format_family(u: ServiceFamily) -> str:
    inner = ", ".join(f"{f} = {format_service(s)}" for f, s in u.entries)
    return "{" + inner + "}"
