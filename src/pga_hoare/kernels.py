"""Execution kernels: the segment loop, the apply loop and their encodings.

Both loops run on flat integer arrays rather than on instruction and
service objects.  The encode_* helpers build those arrays and
decode_family turns final contents back into a family.

Encoding conventions:
  instruction ops:  0 basic, 1 positive test, 2 negative test, 3 jump, 4 halt
  arg1: focus slot for action instructions (-1 if the focus is absent from
        the family), jump offset for jumps
  arg2: algebra method code for action instructions (-1 unknown method)
  service kinds:    0 boolreg, 1 counter
  service content:  -1 empty; boolreg 0/1; counter the count
  method codes:     boolreg get/set:t/set:f = 0/1/2
                    counter incr/decr/iszero = 0/1/2
  outcomes:         0 halted, 1 exited, 2 inactive, 3 budget exhausted

Step budget: a run from a family may take state_bound * n * (c + 1)
steps, where n is the number of representative positions (segment loop)
or thread nodes (apply loop) and c the largest content in the family
(0 when there is none).  Every executed instruction, jumps included, and
every visited branch node is one step.
"""

from __future__ import annotations

from .services import EMPTY, Service, ServiceFamily, family
from .syntax import Basic, CanonicalSequence, Halt, Jump, NegTest, PosTest

HALTED, EXITED, INACTIVE, BUDGET = 0, 1, 2, 3


def implementation() -> str:
    return "python"


_METHOD_CODE = (
    {"get": 0, "set:t": 1, "set:f": 2},  # boolreg
    {"incr": 0, "decr": 1, "iszero": 2},  # counter
)


def encode_family(u: ServiceFamily):
    """(foci, kinds, contents): parallel per-slot arrays, foci sorted.

    An empty service has content -1 and the counter kind (irrelevant,
    every method replies D on it).  Raises ValueError for any other kind
    than empty, counter and boolreg.
    """
    foci = [f for f, _ in u.entries]
    kinds = []
    contents = []
    for _, s in u.entries:
        if s.kind == "empty":
            kinds.append(1)
            contents.append(-1)
        elif s.kind == "boolreg":
            kinds.append(0)
            contents.append(1 if s.content else 0)
        elif s.kind == "counter":
            kinds.append(1)
            contents.append(s.content)
        else:
            raise ValueError(f"unknown service kind {s.kind!r}")
    return foci, kinds, contents


def decode_family(foci, kinds, contents) -> ServiceFamily:
    items = {}
    for f, k, c in zip(foci, kinds, contents):
        if c < 0:
            items[f] = EMPTY
        elif k == 0:
            items[f] = Service("boolreg", c == 1)
        else:
            items[f] = Service("counter", c)
    return family(items)


def _action(focus, method, slot, kinds):
    """(slot, method code) of an action on focus; -1 for what is absent."""
    s = slot.get(focus, -1)
    if s < 0:
        return -1, -1
    return s, _METHOD_CODE[kinds[s]].get(method, -1)


def encode_canonical(c: CanonicalSequence, foci, kinds):
    """(ops, arg1, arg2) arrays, one entry per representative position."""
    slot = {f: i for i, f in enumerate(foci)}
    ops, arg1, arg2 = [], [], []
    for instr in c.prefix + (c.period or ()):
        if isinstance(instr, Halt):
            ops.append(4)
            arg1.append(0)
            arg2.append(0)
        elif isinstance(instr, Jump):
            ops.append(3)
            arg1.append(instr.offset)
            arg2.append(0)
        else:
            if isinstance(instr, Basic):
                ops.append(0)
            elif isinstance(instr, PosTest):
                ops.append(1)
            else:
                assert isinstance(instr, NegTest)
                ops.append(2)
            s, m = _action(instr.focus, instr.method, slot, kinds)
            arg1.append(s)
            arg2.append(m)
    return ops, arg1, arg2


def encode_thread(nodes, foci, kinds):
    """Parallel node arrays for apply_kernel from a RegularThread's nodes.

    nodes is a sequence of ("stop",) / ("dead",) / ("branch", focus, method,
    then_index, else_index) tuples.
    """
    slot = {f: i for i, f in enumerate(foci)}
    node_kind, node_slot, node_method, node_then, node_else = [], [], [], [], []
    for n in nodes:
        if n[0] == "branch":
            _, focus, method, then_i, else_i = n
            s, m = _action(focus, method, slot, kinds)
            node_kind.append(2)
            node_slot.append(s)
            node_method.append(m)
            node_then.append(then_i)
            node_else.append(else_i)
        else:
            node_kind.append(0 if n[0] == "stop" else 1)
            node_slot.append(0)
            node_method.append(0)
            node_then.append(0)
            node_else.append(0)
    return node_kind, node_slot, node_method, node_then, node_else


def _step_limit(state_bound, n, contents):
    """The step budget of one run (see the module docstring)."""
    maxc = 0
    for c in contents:
        if c > maxc:
            maxc = c
    return state_bound * n * (maxc + 1)


def _svc(kind, content, mcode):
    """One service step: (reply, new content); reply 0=F, 1=T, 2=D."""
    if content < 0 or mcode < 0:
        return 2, -1
    if kind == 0:  # boolean register
        if mcode == 0:
            return content, content
        if mcode == 1:
            return 1, 1
        return 1, 0
    # counter
    if mcode == 0:
        return 1, content + 1
    if mcode == 1:
        return (1, content - 1) if content > 0 else (0, 0)
    return (1 if content == 0 else 0), content


def run_segment_kernel(ops, arg1, arg2, prefix_len, period_len, entry,
                       kinds, contents, state_bound, table=None):
    """Program-counter interpretation of an encoded canonical sequence.

    Returns (outcome, exit_offset, final_contents).  exit_offset is only
    meaningful for EXITED; final_contents only for HALTED/EXITED.

    table is an outcome table shared by runs of one encoded sequence from
    one entry point (None: a fresh one, which no later run reads).  It maps
    the contents at the entry's representative position to
    ((outcome, exit_offset, final_contents), steps), where steps counts the
    steps from that node to the outcome.  A run that reaches a tabled node
    after `taken` steps ends there, running out of budget exactly when
    taken + steps exceeds its own limit, so every outcome equals that of a
    fresh run.  Budget-outs are never tabled, nor are members of a cycle:
    how many steps a cycle member takes depends on where a run enters the
    cycle.
    """
    contents = list(contents)
    limit = _step_limit(state_bound, prefix_len + period_len, contents)
    if table is None:
        head = 0  # no position: a fresh table is neither read nor written
    elif entry > prefix_len and period_len:
        head = prefix_len + (entry - prefix_len - 1) % period_len + 1
    else:
        head = entry
    marks = []  # (contents at head, steps taken before reaching it)
    seen = {} if period_len else None  # node -> steps taken before it
    pos = entry
    steps = 0
    while True:
        if pos > prefix_len:
            if period_len == 0:
                outcome, off, final = EXITED, pos - prefix_len, contents
                break
            rep = prefix_len + (pos - prefix_len - 1) % period_len + 1
        else:
            rep = pos
        if rep == head:
            state = tuple(contents)
            hit = table.get(state)
            if hit is not None:
                result, more = hit
                steps += more
                _tabulate(table, marks, result, steps)
                if steps > limit:
                    return BUDGET, 0, None
                outcome, off, final = result
                return outcome, off, None if final is None else list(final)
            marks.append((state, steps))
        if seen is not None:
            key = (rep, tuple(contents))
            cycle_start = seen.get(key)
            if cycle_start is not None:
                _tabulate(table, [m for m in marks if m[1] < cycle_start],
                          (INACTIVE, 0, None), steps)
                return INACTIVE, 0, None
            seen[key] = steps
        steps += 1
        if steps > limit:
            return BUDGET, 0, None
        op = ops[rep - 1]
        if op == 4:
            outcome, off, final = HALTED, 0, contents
            break
        if op == 3:
            off = arg1[rep - 1]
            if off == 0:
                outcome, off, final = INACTIVE, 0, None
                break
            pos = pos + off
            continue
        slot = arg1[rep - 1]
        if slot < 0:
            outcome, off, final = INACTIVE, 0, None
            break
        reply, newc = _svc(kinds[slot], contents[slot], arg2[rep - 1])
        if reply == 2:
            outcome, off, final = INACTIVE, 0, None
            break
        contents[slot] = newc
        if op == 0:
            pos += 1
        elif op == 1:
            pos += 1 if reply == 1 else 2
        else:
            pos += 2 if reply == 1 else 1
    if marks:
        _tabulate(table, marks,
                  (outcome, off, None if final is None else tuple(final)),
                  steps)
    return outcome, off, final


def _tabulate(table, marks, result, steps):
    for state, taken in marks:
        table[state] = (result, steps - taken)


def apply_kernel(node_kind, node_slot, node_method, node_then, node_else,
                 root, kinds, contents, state_bound):
    """Walk an encoded regular thread against an encoded family.

    node_kind: 0 stop, 1 dead, 2 branch.  Returns (outcome, final_contents)
    with outcome HALTED (reached stop), INACTIVE (dead / divergence / reply
    D / missing focus), or BUDGET.
    """
    contents = list(contents)
    limit = _step_limit(state_bound, len(node_kind), contents)
    cur = root
    steps = 0
    seen = set()
    while True:
        kind = node_kind[cur]
        if kind == 0:
            return HALTED, contents
        if kind == 1:
            return INACTIVE, None
        key = (cur, tuple(contents))
        if key in seen:
            return INACTIVE, None
        seen.add(key)
        steps += 1
        if steps > limit:
            return BUDGET, None
        slot = node_slot[cur]
        if slot < 0:
            return INACTIVE, None
        reply, newc = _svc(kinds[slot], contents[slot], node_method[cur])
        if reply == 2:
            return INACTIVE, None
        contents[slot] = newc
        cur = node_then[cur] if reply == 1 else node_else[cur]
