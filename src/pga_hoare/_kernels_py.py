"""Pure-Python execution kernels.

Same contract as the compiled extension `_kernels`; used as the fallback
when the extension is unavailable (or when PGA_HOARE_PURE=1).  The segment
loop also takes an optional outcome table, which the compiled twin lacks.

Encoding conventions (shared with the compiled twin):
  instruction ops:  0 basic, 1 positive test, 2 negative test, 3 jump, 4 halt
  arg1: focus slot for action instructions (-1 if the focus is absent from
        the family), jump offset for jumps
  arg2: algebra method code for action instructions (-1 unknown method)
  service kinds:    0 boolreg, 1 counter
  service content:  -1 empty; boolreg 0/1; counter the count
  method codes:     boolreg get/set:t/set:f = 0/1/2
                    counter incr/decr/iszero = 0/1/2
  outcomes:         0 halted, 1 exited, 2 inactive, 3 budget exhausted
"""

HALTED, EXITED, INACTIVE, BUDGET = 0, 1, 2, 3

IMPLEMENTATION = "python"


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
                       kinds, contents, budget_factor, table=None):
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
    n = prefix_len + period_len
    contents = list(contents)
    maxc = 0
    for c in contents:
        if c > maxc:
            maxc = c
    limit = budget_factor * n * (maxc + 1)
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
                 root, kinds, contents, budget_factor):
    """Walk an encoded regular thread against an encoded family.

    node_kind: 0 stop, 1 dead, 2 branch.  Returns (outcome, final_contents)
    with outcome HALTED (reached stop), INACTIVE (dead / divergence / reply
    D / missing focus), or BUDGET.
    """
    n = len(node_kind)
    contents = list(contents)
    cur = root
    steps = 0
    maxc = 0
    for c in contents:
        if c > maxc:
            maxc = c
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
        if steps > budget_factor * n * (maxc + 1):
            return BUDGET, None
        slot = node_slot[cur]
        if slot < 0:
            return INACTIVE, None
        reply, newc = _svc(kinds[slot], contents[slot], node_method[cur])
        if reply == 2:
            return INACTIVE, None
        contents[slot] = newc
        cur = node_then[cur] if reply == 1 else node_else[cur]
