"""Regular threads: embedding, extraction from canonical sequences, and
application.

A segment S entered at b with exit offset e means the thread of the word
#b ; S ; sigma(e), where sigma(e) = #0^(e-1) ; ! turns exit at offset e
into termination (e = 0 appends nothing).  `embed` makes that word from
one read of S's instructions, with no term built.  A regular thread is a
finite graph of Stop/Dead leaves and binary action branches, held as the
node arrays that apply walks.  Extraction resolves the jump chain of
every position in one loop from the last position down, then numbers the
nodes reachable from the root breadth-first, so the thread has one node
per useful representative position.  Applying a thread to a service
family steps the family's own services (services.svc_step) until the
run ends; divergence yields the empty family.  None of this shares code
with the segment interpreter (kernels, segments), so that the two
semantics check each other.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .lexer import MAX_LENGTH
from .records import record
from .services import (EMPTY_FAMILY, AlgebraConfig, Reply, ServiceFamily,
                       family, svc_step)
from .syntax import (HALT, CanonicalSequence, Halt, Instr, Jump, NegTest,
                     PosTest, SequenceTerm, concat_all, flatten,
                     make_canonical, normalize)


class BudgetExhausted(Exception):
    """The step budget ran out before a verdict was reached."""


STOP, DEAD, BRANCH = 0, 1, 2  # node kinds


@record
class RegularThread:
    """A regular thread as the parallel node arrays that apply walks.
    Node i is a stop leaf (kind 0), a dead leaf (kind 1) or a branch (kind
    2) on the action focus[i].method[i], which continues at then[i] on
    reply T and at else_[i] on reply F.  Leaves have focus and method None
    and both successors 0.  The nodes are those reachable from the root,
    numbered breadth-first from it (the root is node 0), each node's
    successors in the order then, else; so threads that are equal graphs
    are equal.
    """

    kind: Tuple[int, ...]
    focus: Tuple[Optional[str], ...]
    method: Tuple[Optional[str], ...]
    then: Tuple[int, ...]
    else_: Tuple[int, ...]

    root = 0

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


_FOLLOWING = -2  # the key of a jump on the chain being followed


def _jump_targets(c: CanonicalSequence, instrs: tuple) -> list:
    """The node key of each absolute position 1..n+2, where instrs[r] is
    the instruction at representative position r for r in 1..n: r itself
    when the first non-jump instruction execution reaches from r is at r,
    0 when that is a halt, and -1 when execution becomes inactive (#0, a
    jump off the end, a cycle of jumps).  Positions n+1 and n+2 lie past
    the end of a finite sequence and at the period's start otherwise.

    One loop resolves the positions from the last one down, so a jump to
    a later position takes that position's key.  Only a jump that wraps
    inside the period to an earlier position follows its chain, marking
    each jump on it until the chain reaches a position already resolved,
    a non-jump or a marked jump (a cycle); every jump on it then gets the
    key found."""
    n = len(instrs) - 1
    first = len(c.prefix) + 1  # the period's first position
    lap = n + 1 - first  # the period's length, 0 when there is none
    keys = [None] * (n + 3)
    for r in range(n, 0, -1):
        if keys[r] is not None:  # on a chain a later jump wrapped into
            continue
        instr = instrs[r]
        if instr.__class__ is not Jump:
            keys[r] = 0 if instr.__class__ is Halt else r
            continue
        to = r + instr.offset
        if to > n:
            if not lap:
                keys[r] = -1
                continue
            to = first + (to - first) % lap
        if to > r:
            keys[r] = keys[to]
            continue
        if to == r:  # #0, or a jump of whole laps
            keys[r] = -1
            continue
        keys[r] = _FOLLOWING
        chain = [r]
        while True:
            key = keys[to]
            if key is not None:
                break
            instr = instrs[to]
            if instr.__class__ is not Jump:
                key = 0 if instr.__class__ is Halt else to
                break
            keys[to] = _FOLLOWING
            chain.append(to)
            to += instr.offset
            if to > n:  # a chain that moves lies in the period
                to = first + (to - first) % lap
        if key == _FOLLOWING:
            key = -1
        for q in chain:
            keys[q] = key
    if lap:  # past the end, the period starts again
        keys[n + 1] = keys[first]
        keys[n + 2] = keys[first + 1 % lap]
    else:
        keys[n + 1] = keys[n + 2] = -1
    return keys


def extract(c: CanonicalSequence) -> RegularThread:
    """Thread extraction: one branch node per useful position reached,
    numbered breadth-first from the root.

    A node's key is the non-jump representative position its jumps resolve
    to; every halt is the one stop leaf (key 0) and inactivity the one dead
    leaf (key -1).  A thread that is one leaf is STOP_THREAD or DEAD_THREAD
    itself: about half the threads of short segments are.
    """
    instrs = (None,) + c.prefix + (c.period or ())
    keys = _jump_targets(c, instrs)
    root = keys[1]
    if root <= 0:
        return STOP_THREAD if root == 0 else DEAD_THREAD
    index = {root: 0}
    order = [root]
    rows = []
    for r in order:  # order grows as new keys are reached
        if r <= 0:
            rows.append(_STOP_NODE if r == 0 else _DEAD_NODE)
            continue
        instr = instrs[r]
        then_key = else_key = keys[r + 1]
        if instr.__class__ is PosTest:
            else_key = keys[r + 2]
        elif instr.__class__ is NegTest:
            then_key = keys[r + 2]
        if then_key not in index:
            index[then_key] = len(order)
            order.append(then_key)
        if else_key not in index:
            index[else_key] = len(order)
            order.append(else_key)
        rows.append((BRANCH, instr.focus, instr.method, index[then_key],
                     index[else_key]))
    return RegularThread(*map(tuple, zip(*rows)))


_ABORT = Jump(0)  # shared by every exit word


def _exit_word(e: int, written: int) -> tuple:
    """sigma(e) for e >= 1 as a word of e instructions to follow `written`
    others, refused before it is made when the two together would pass
    MAX_LENGTH."""
    if written + e > MAX_LENGTH:
        raise ValueError(f"sequence longer than {MAX_LENGTH} instructions")
    return (_ABORT,) * (e - 1) + (HALT,)


def sigma(e: int) -> SequenceTerm:
    """The exit-observation suffix: e-1 inactivity jumps then termination."""
    if e < 1:
        raise ValueError("sigma is defined for positive e")
    return concat_all([Instr(i) for i in _exit_word(e, 0)])


def embed(s: SequenceTerm, b: int, e: int) -> CanonicalSequence:
    """The segment as entered at its bth instruction with exit offset e:
    the canonical form of #b ; S ; sigma(e), or of #b ; S when e = 0.

    e = 0 observes termination inside the segment; e > 0 turns exit at
    offset e into observable termination.  The word is made from S's
    atoms with no term built; when S ends in a repetition, sigma is never
    reached and the repetition's prefix and period follow #b.
    """
    if b < 1:
        raise ValueError("entry point must be positive")
    if e < 0:
        raise ValueError("exit offset must be a natural number")
    prefix, period = flatten(s)
    word = (Jump(b),) + prefix
    if period is None and e:
        word += _exit_word(e, len(word))
    return make_canonical(word, period)


def thread_of(s: SequenceTerm) -> RegularThread:
    return extract(normalize(s))


_DEFAULT_CFG = AlgebraConfig()


def apply(t: RegularThread, u: ServiceFamily,
          cfg: AlgebraConfig = _DEFAULT_CFG) -> ServiceFamily:
    """Run the thread against the family (the apply operator).

    Stop yields the current family, Dead the empty family; a missing focus
    or a D reply also yields the empty family, as does divergence (revisit
    of a (node, family) pair).  Each branch node is one step, and a run may
    take state_bound * nodes * (c + 1) of them, c the largest content in u
    (a true register counts 1, an empty service 0).  Raises
    BudgetExhausted when the run takes more, and ValueError when u holds a
    service of another kind than empty, counter and boolreg.
    """
    slot, services, contents, top = {}, [], [], 0  # slot: focus -> index
    for f, s in u.entries:
        if s.kind == "counter":
            if s.content > top:
                top = s.content
        elif s.kind == "boolreg":
            if s.content and not top:
                top = 1
        elif s.kind != "empty":
            raise ValueError(f"unknown service kind {s.kind!r}")
        slot[f] = len(services)
        services.append(s)
        contents.append(s.content)
    kind, focus, method, then, else_ = (t.kind, t.focus, t.method, t.then,
                                        t.else_)
    limit = cfg.state_bound * len(kind) * (top + 1)
    cur, steps, seen = t.root, 0, set()
    while kind[cur] == BRANCH:
        key = (cur, *contents)  # each slot keeps its kind
        if key in seen:
            return EMPTY_FAMILY
        seen.add(key)
        steps += 1
        if steps > limit:
            raise BudgetExhausted("apply step budget exhausted")
        i = slot.get(focus[cur])
        if i is None:
            return EMPTY_FAMILY
        reply, s = svc_step(services[i], method[cur])
        if reply is Reply.D:
            return EMPTY_FAMILY
        services[i], contents[i] = s, s.content
        cur = then[cur] if reply is Reply.T else else_[cur]
    if kind[cur] == DEAD:
        return EMPTY_FAMILY
    return family({f: services[i] for f, i in slot.items()})


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
