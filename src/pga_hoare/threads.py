"""Regular threads: extraction from canonical sequences and application.

A regular thread is a finite graph of Stop/Dead leaves and binary action
branches, held as the node arrays the apply loop reads.  Extraction
resolves jump chains ahead of time, so the thread has one node per useful
representative position.  Applying a thread to a service family runs it to
completion; divergence yields the empty family.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import kernels
from .records import record
from .services import EMPTY_FAMILY, AlgebraConfig, ServiceFamily
from .syntax import (Basic, CanonicalSequence, Concat, Halt, Instr, Jump,
                     NegTest, PosTest, SequenceTerm, concat_all,
                     normalize)


class BudgetExhausted(Exception):
    """The step budget ran out before a verdict was reached."""


STOP, DEAD, BRANCH = 0, 1, 2  # node kinds


@record
class RegularThread:
    """A regular thread as the parallel node arrays kernels.apply_kernel
    reads.  Node i is a stop leaf (kind 0), a dead leaf (kind 1) or a
    branch (kind 2) on the action focus[i].method[i], which continues at
    then[i] on reply T and at else_[i] on reply F.  Leaves have focus and
    method None and both successors 0.  The nodes are those reachable from
    the root, numbered breadth-first from it (the root is node 0), each
    node's successors in the order then, else; so threads that are equal
    graphs are equal.
    """

    kind: Tuple[int, ...]
    focus: Tuple[Optional[str], ...]
    method: Tuple[Optional[str], ...]
    then: Tuple[int, ...]
    else_: Tuple[int, ...]

    root = 0

    def __post_init__(self):
        # (foci, kinds) of a family layout -> the nodes' (slots, method
        # codes); not a field, so equality, hash and repr leave it out
        object.__setattr__(self, "_codes", {})

    @property
    def nodes(self) -> Tuple[tuple, ...]:
        """A read-only view of the nodes as ("stop",), ("dead",) or
        ("branch", focus, method, then, else) tuples."""
        rows = zip(self.kind, self.focus, self.method, self.then,
                   self.else_)
        return tuple(("branch", f, m, t, e) if k == BRANCH
                     else _NODE_FORMS[k] for k, f, m, t, e in rows)


# a leaf's (kind, focus, method, then, else), and its tuple form
_STOP_NODE = (STOP, None, None, 0, 0)
_DEAD_NODE = (DEAD, None, None, 0, 0)
_NODE_FORMS = (("stop",), ("dead",))
STOP_THREAD = RegularThread(*zip(_STOP_NODE))
DEAD_THREAD = RegularThread(*zip(_DEAD_NODE))


def _number(root, node) -> RegularThread:
    """The thread of the nodes reachable from the node key root, numbered
    breadth-first.  node(key) gives the (kind, focus, method, then key,
    else key) of a key; a leaf's successor keys are not followed.  A
    thread that is one leaf is STOP_THREAD or DEAD_THREAD itself: about
    half the threads of short segments are, and apply finds their codes
    computed for each layout it has met in the process."""
    index = {root: 0}
    order = [root]
    rows = []
    for key in order:  # order grows as new keys are reached
        row = node(key)
        if row[0] == BRANCH:
            k, f, m, t, e = row
            if t not in index:
                index[t] = len(order)
                order.append(t)
            if e not in index:
                index[e] = len(order)
                order.append(e)
            row = k, f, m, index[t], index[e]
        rows.append(row)
    if rows[0] == _STOP_NODE:
        return STOP_THREAD
    if rows[0] == _DEAD_NODE:
        return DEAD_THREAD
    return RegularThread(*map(tuple, zip(*rows)))


def _jump_targets(c: CanonicalSequence, instrs: tuple) -> list:
    """For each representative position r (instrs[r] its instruction), that
    of the first non-jump instruction execution reaches from r, or None
    when it becomes inactive (#0, a jump off the end, a cycle of jumps).
    Each chain is followed once, from the first jump whose target is not
    yet known; its positions are marked while it is."""
    unknown, following = 0, -1
    target = [r if not isinstance(instr, Jump) else unknown
              for r, instr in enumerate(instrs)]
    for start in range(1, len(instrs)):
        if target[start] != unknown:
            continue
        chain = []
        r = start
        while r is not None and target[r] == unknown:
            target[r] = following
            chain.append(r)
            offset = instrs[r].offset
            r = c.representative(r + offset) if offset else None
        end = None if r is None or target[r] == following else target[r]
        for r in chain:
            target[r] = end
    return target


def extract(c: CanonicalSequence) -> RegularThread:
    """Thread extraction: one branch node per useful position reached.

    A node's key is the non-jump representative position its jumps resolve
    to; every halt is the one stop leaf (key 0) and inactivity the one dead
    leaf (key -1).
    """
    instrs = (None,) + c.prefix + (c.period or ())
    target = _jump_targets(c, instrs)
    representative = c.representative

    def key(pos: int) -> int:
        rep = representative(pos)
        end = None if rep is None else target[rep]
        if end is None:
            return -1
        return 0 if isinstance(instrs[end], Halt) else end

    def node(r: int) -> tuple:
        if r <= 0:
            return _STOP_NODE if r == 0 else _DEAD_NODE
        instr = instrs[r]
        then_key = key(r + 1)
        if isinstance(instr, Basic):
            return BRANCH, instr.focus, instr.method, then_key, then_key
        if isinstance(instr, PosTest):
            return BRANCH, instr.focus, instr.method, then_key, key(r + 2)
        assert isinstance(instr, NegTest)
        return BRANCH, instr.focus, instr.method, key(r + 2), then_key

    return _number(key(1), node)


def sigma(e: int) -> SequenceTerm:
    """The exit-observation suffix: e-1 inactivity jumps then termination."""
    if e < 1:
        raise ValueError("sigma is defined for positive e")
    return concat_all([Instr(Jump(0))] * (e - 1) + [Instr(Halt())])


def embed(s: SequenceTerm, b: int, e: int) -> CanonicalSequence:
    """The segment as entered at its bth instruction with exit offset e.

    e = 0 observes termination inside the segment; e > 0 turns exit at
    offset e into observable termination.
    """
    if b < 1:
        raise ValueError("entry point must be positive")
    term: SequenceTerm = Concat(Instr(Jump(b)), s)
    if e > 0:
        term = Concat(term, sigma(e))
    return normalize(term)


def thread_of(s: SequenceTerm) -> RegularThread:
    return extract(normalize(s))


_DEFAULT_CFG = AlgebraConfig()


def apply(t: RegularThread, u: ServiceFamily,
          cfg: AlgebraConfig = _DEFAULT_CFG) -> ServiceFamily:
    """Run the thread against the family (the apply operator).

    Stop yields the current family, Dead the empty family; a missing focus
    or a D reply also yields the empty family, as does divergence (revisit
    of a (node, family) pair).  Raises BudgetExhausted when a counter grows
    without the state ever repeating, and ValueError when u holds a service
    of another kind than empty, counter and boolreg.
    """
    foci, kinds, contents = kernels.encode_family(u)
    layout = (tuple(foci), tuple(kinds))
    codes = t._codes.get(layout)
    if codes is None:
        codes = t._codes[layout] = kernels.action_codes(t.focus, t.method,
                                                        foci, kinds)
    outcome, final = kernels.apply_kernel(t.kind, *codes, t.then, t.else_,
                                          t.root, kinds, contents,
                                          cfg.state_bound)
    if outcome == kernels.BUDGET:
        raise BudgetExhausted("apply step budget exhausted")
    if outcome == kernels.HALTED:
        return kernels.decode_family(foci, kinds, final)
    return EMPTY_FAMILY


def thread_dump(t: RegularThread) -> str:
    """Adjacency-list dump, one node per line, root first."""
    lines = []
    for i, k in enumerate(t.kind):
        if k == STOP:
            lines.append(f"n{i}: stop")
        elif k == DEAD:
            lines.append(f"n{i}: dead")
        else:
            lines.append(f"n{i}: branch {t.focus[i]}.{t.method[i]} -> "
                         f"n{t.then[i]} / n{t.else_[i]}")
    return "\n".join(lines)
