"""Services, service families, and the two built-in service algebras.

A service processes methods: it yields a reply (T, F, or D) and a derived
service.  Reply D means the method could not be processed; the service then
degenerates to the empty service, which replies D to everything.  Families
map focus names to services; composing two families collapses clashing foci
to the empty service.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Dict, Iterable, Optional, Tuple

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
_COUNTERS = []  # _COUNTERS[n] is counter(n); it only grows, under _GROW
_GROW = threading.Lock()
_REGISTERS = (Service("boolreg", False), Service("boolreg", True))


def counter(n: int) -> Service:
    if 0 <= n < len(_COUNTERS):
        return _COUNTERS[n]
    if n < 0:
        raise ValueError("counter content must be a natural number")
    if n >= _INTERNED:
        return Service("counter", n)
    with _GROW:
        _COUNTERS.extend(Service("counter", i)
                         for i in range(len(_COUNTERS), n + 1))
    return _COUNTERS[n]


def boolreg(value: bool) -> Service:
    return _REGISTERS[1 if value else 0]


def _counter_step(s: Service, m: str):
    n = s.content
    if m == "incr":
        return Reply.T, counter(n + 1)
    if m == "decr":
        # decr at zero replies F and leaves the content unchanged
        return (Reply.T, counter(n - 1)) if n > 0 else (Reply.F, s)
    if m == "iszero":
        return (Reply.T if n == 0 else Reply.F), s
    return Reply.D, EMPTY


def _boolreg_step(s: Service, m: str):
    if m == "get":
        return (Reply.T if s.content else Reply.F), s
    if m == "set:t":
        return Reply.T, boolreg(True)
    if m == "set:f":
        return Reply.T, boolreg(False)
    return Reply.D, EMPTY


def svc_step(s: Service, m: str) -> Tuple[Reply, Service]:
    """Process method m: the reply and the derived service."""
    if s.kind == "counter":
        return _counter_step(s, m)
    if s.kind == "boolreg":
        return _boolreg_step(s, m)
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

    def foci(self) -> frozenset:
        return frozenset(f for f, _ in self.entries)

    def with_service(self, focus: str, service: Service) -> "ServiceFamily":
        items = dict(self.entries)
        items[focus] = service
        return family(items)

    def __str__(self) -> str:
        return format_family(self)


EMPTY_FAMILY = ServiceFamily()


def family_key(u: ServiceFamily) -> tuple:
    """Sort key for families: focus by focus, then kind, then content, so
    counter(2) comes before counter(10)."""
    return tuple((f, s.kind, s.content) for f, s in u.entries)


def family(items: Dict[str, Service]) -> ServiceFamily:
    return ServiceFamily(tuple(sorted(items.items())))


def fam_compose(u: ServiceFamily, v: ServiceFamily) -> ServiceFamily:
    """Union of the maps; a focus present in both collapses to empty."""
    out = dict(u.entries)
    for f, s in v.entries:
        out[f] = EMPTY if f in out else s
    return family(out)


def fam_encapsulate(hidden: Iterable[str], u: ServiceFamily) -> ServiceFamily:
    hidden = set(hidden)
    return ServiceFamily(tuple((f, s) for f, s in u.entries if f not in hidden))


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

    def service_domain(self):
        """(services, exhaustive): the enumerable service values.

        For counters the domain is truncated at state_bound, so it is not
        exhaustive; verdicts derived from it are bounded.
        """
        if self.algebra == "boolreg":
            return list(_REGISTERS), True
        if self.state_bound < _INTERNED:
            counter(self.state_bound)
            return _COUNTERS[:self.state_bound + 1], False
        return [counter(n) for n in range(self.state_bound + 1)], False

    def methods(self):
        if self.algebra == "boolreg":
            return ["get", "set:t", "set:f"]
        return ["incr", "decr", "iszero"]


# ---------------------------------------------------------------------------
# family literals: {c = counter(3), r = bool(true), d = empty}


def parse_family(text: str) -> ServiceFamily:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"family literal must be brace-delimited: {text!r}")
    body = body[1:-1].strip()
    items: Dict[str, Service] = {}
    if not body:
        return EMPTY_FAMILY
    for part in body.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not name or not value:
            raise ValueError(f"malformed family entry: {part!r}")
        if name in items:
            raise ValueError(f"focus {name} is given twice")
        if value == "empty":
            items[name] = EMPTY
        elif value.startswith("counter(") and value.endswith(")"):
            inner = value[8:-1].strip()
            if not (inner.isascii() and inner.isdigit()):
                raise ValueError(f"bad counter literal: {value!r}")
            items[name] = counter(int(inner))
        elif value.startswith("bool(") and value.endswith(")"):
            inner = value[5:-1].strip()
            if inner not in ("true", "false"):
                raise ValueError(f"bad bool literal: {value!r}")
            items[name] = boolreg(inner == "true")
        else:
            raise ValueError(f"unknown service literal: {value!r}")
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
