"""Execution kernel: the segment loop and its encodings.

The loop runs on flat integer arrays rather than on instruction and
service objects.  encode_family and encode_canonical build those arrays,
and decode_family turns final contents back into a family.  The thread
semantics (threads.apply) shares none of this, so that the two semantics
check each other.

Encoding conventions:
  instruction ops:  0 basic, 1 positive test, 2 negative test, 3 jump, 4 halt
  arg1: focus slot for action instructions (-1 if the focus is absent from
        the family), jump offset for jumps
  arg2: algebra method code for action instructions (-1 unknown method);
        for jumps 1 if the jump stands for an incr on an unobserved
        counter (see below), else 0
  service kinds:    0 boolreg, 1 counter
  service content:  -1 empty; boolreg 0/1; counter the count
  method codes:     boolreg get/set:t/set:f = 0/1/2
                    counter incr/decr/iszero = 0/1/2
  outcomes:         0 halted, 1 exited, 2 inactive, 3 budget exhausted

Step budget: a run from a family may take state_bound * n * (c + 1)
steps, where n is the number of representative positions and c the
largest content in the family (0 when there is none).  Every executed
instruction, jumps included, is one step.

Laps.  The runs that holds and sp make from the states of one judgment
share a SegmentRuns: an outcome table (see run_segment_kernel) and lap
summaries.  When the entry lies in the period, its representative
position is the head, and a lap is the part of a run from the head to
its next visit of the head, or to an outcome.  A lap is summarised only
if it takes at most K = period_len steps (the cap).

Lap keys.  A move from a period position is +1 for a basic instruction,
+1 or +2 for a test, and the offset of a nonzero jump; the forward
distance from position p to the head is (head - p) mod K, and K from the
head itself.  A move longer than that distance passes over the head.
SegmentRuns checks the period once: if no move passes over the head, the
key's threshold of slot i is T_i = max(1, A_i), where A_i counts the
period positions whose action is on slot i; if some move does, every
T_i is K.  The lap key of head contents u is (min(u_i, T_i) for each
slot).  Counters below T_i, registers (0/1, and T_i >= 1) and empty
services (-1) stay exact.
Lemma.  Two head states with the same key run the same lap.  Proof: the
two runs agree as long as every action gets the same reply and changes
its slot alike in both, which holds for a slot kept exact in the key.
Take a slot i clamped at T_i, a counter that holds at least T_i in both
states; each action changes it by at most 1.
  - No move passes over the head: a lap goes forward, position by
    position, until it lands on the head, so it meets each period
    position at most once, takes at most K steps and meets at most A_i
    actions on slot i.  Before the j-th of them (j <= A_i <= T_i) the
    counter holds at least T_i - (j - 1) >= 1.
  - Otherwise T_i = K, the lap takes at most K steps (the cap), and
    before its j-th step (j <= K) the counter holds at least
    K - (j - 1) >= 1.
So in both runs iszero replies F, decr replies T and decrements, and
incr replies T; the runs execute the same instructions, get the same
replies and change each slot by the same amount.  They reach the head or
the same outcome after the same number of steps, and a (position,
contents) pair repeats within the lap in one run exactly when it repeats
in the other, at the same step.
A threshold of T_i - 1 is too low: in the period (c.decr ; d.incr ;
+c.iszero ; ! ; #1)^w, entered at its first position, no move passes over
the head and c has T = 2 actions, d one.  From c = 1 the lap decrements c
to 0 and iszero replies T: the run halts.  From c = 2 it leaves c at 1,
iszero replies F and the lap is back at the head.  Clamped at 1, both
would have key (1, min(d, 1)).

The summary stored under the key is (end, delta, steps): how the lap ends
(back at the head, halted, or inactive; a jump #0, a reply D or a cycle
inside the lap), the change of every content (registers are exact in the
key, so a change fixes their value too) and the steps taken.  A cycle
inside a lap never reaches the head again, while every node of an earlier
lap leads back to the head; so no earlier node repeats in it, and the
summary's step count is that of a fresh run.

Stretches.  A lap back at the head takes head state s to s + d.  While the
key stays that of s, so does the lap, and the run passes s + 2d, s + 3d, ...
Lemma: the t >= 0 for which s + t*d has the key of s form one interval
0..T.  Proof: each clamped coordinate min(s_i + t*d_i, T_i) is monotone in
t, so the t at which it keeps its value at 0 form an interval holding 0,
and so does their intersection.  A slot with d_i != 0 below T_i changes at
t = 1; one at T_i or more stays clamped for ever if d_i > 0, and while
t <= (s_i - T_i) // -d_i if d_i < 0.  So T is 0 if a moving slot is below
its threshold, else the least bound of a slot moving toward 0, and
unbounded if none is.
A run takes the m = T + 1 laps of a stretch at once (_stretch): it moves to
its end state s + m*d, the first with another key, and charges m * steps.
The head states inside a stretch are neither looked up nor recorded, and
every outcome stays that of a fresh run:
  - A tabled state inside a stretch leads lap by lap to the stretch's end,
    so the table gives the same outcome and total at the end state, or the
    run is out of budget inside the stretch either way.
  - Every cycle through a stretch meets its end state e.  All states of the
    line s + t*d with the key of s lie in the one interval, so a stretch
    from any of them ends at e.  If a state y inside the stretch repeats a
    head state met earlier, the run went on from that earlier y to e, and
    met e before; so checking e against the head states met finds the
    cycle, at most one stretch later than a check at every state would.
  - A budget-out inside a stretch is exact when e is new to the run: then
    no head state of the stretch repeats an earlier one, nor does a node
    of its laps, since a repeated node leads to a repeated head state.  So
    the per-step loop meets no cycle before its limit either.
  - A stretch without end (no slot moves toward 0) with d != 0 grows some
    slot for ever: none of its states repeats, none is tabled (each would
    lead to an outcome), and the run is out of budget at once.  With d = 0
    the lap comes back to s: a cycle.
The common case takes no stretch: the state one lap on is already tabled,
as it is for a counter run down or up from states enumerated before it.
Three cases rerun the state with the per-step loop from its start, so that
cycles, and budget-outs next to them, are those of a fresh run:
  - a lap that does not end within the cap;
  - a stretch (one lap or more) ending in a head state the run has met: a
    cycle.  The run is inactive, unless its budget ran out before the
    per-step loop meets the cycle; only that loop finds the cycle's first
    repeated node, and with it the steps that the states before the cycle
    are tabled with;
  - an entry in the prefix (no laps; the per-step loop still shares the
    outcome table).

Lines.  A judgment with a closed, true precondition runs every state of
the box [0, B]^k.  When every slot is a counter, all states of the
interior box I = [T_1, B] x ... x [T_k, B] have the one key T =
(T_1, ..., T_k).  Let its lap come back to the head with delta d and
`steps` steps, some d_i < 0 (SegmentRuns.sweep).  I then splits into
lines x_t = s - t*d, t = 0..T: s is the line's last member (s + d leaves
I) and T the last t with x_t inside it.  The run from s takes a stretch of
m >= 1 laps (_stretch) to its end state e = s + m*d, which has a content
below its threshold.
Lemma: the run from x_t takes m + t laps to e, then e's run; it has e's
outcome and final contents, after (m + t) * steps + steps(e) steps, if
e is tabled with steps(e) steps; it is a budget-out iff that count
exceeds its own limit state_bound * n * (max(x_t) + 1).  Proof: x_t,
x_{t-1}, ..., x_0 = s lie in I (a box is convex), all of key T, so the
stretch from x_t passes them and goes on to e: its length, the least
(x_i - T_i) // -d_i + 1 over d_i < 0, is m + t, as x_i = s_i - t*d_i.  A
tabled state is on no cycle (budget-outs and cycle members are never
tabled), and a node of the stretch met again after e would lead back to
e; so no node repeats before e's outcome, which a fresh run from x_t
meets at that step count, and the per-step loop's budget check fails
exactly when the count exceeds the limit.
A bound at the extreme members suffices: the step count grows with t, so
x_T takes the most; each content of x_t is linear in t, so its least
value over the line is at t = 0 or t = T, and max(x_t) is at least the
largest of those least values.  If the most steps fit that least limit,
every member fits, in O(k).  Otherwise the line is run member by member,
as is a line whose end is not tabled after one run from e (a budget-out,
or a cycle member).
Witnesses: x_{t+1} - x_t = -d, so lexicographic order along a line follows
the sign of the first nonzero d_i, and when all members fit, the first
member with e's outcome is an end of the line: the one member such a line
yields.  The caller takes the least over lines and the other states, and
a line whose first member comes after a failing state found before is
skipped without a run.  Members of a line that fits are not tabled.
When instead d >= 0 and d != 0, the key never changes from a state of I:
every run from I laps for ever, its contents grow and no head state
repeats, so none is tabled and each is a budget-out.  I is then one class,
yielded once with its least member, T.

Unobserved counters.  A judgment may leave out of the contents a counter
that the segment only increments (every action on it, in any form, is
incr) and that neither P nor Q reads.  encode_canonical encodes each
action on it as a jump of its fall-through offset, marked in arg2: incr on
a counter replies T, so +1 for the basic and + forms and +2 for the -
form.
Lemma.  Let slot i hold such a counter, e_i its unit vector and v >= 0.
The runs from u and from u + v*e_i execute the same instructions with the
same replies: no reply depends on slot i, and every other slot changes
alike in both.  So they take the same number of steps and end alike, and
their final contents differ only in slot i.  A (position, contents) node
repeats in one run exactly when it repeats in the other: slot i never
falls, so between two equal nodes no action on it ran, in either run.
The step limit state_bound * n * (max + 1) never falls as v grows.  So a
run from u that ends halted, exited or inactive within its limit decides
every u + v*e_i.  A run from u that runs out of budget says nothing about
the rest of the ray: their limits are larger.
Without slot i, a run meets a marked jump where the full run increments
slot i; _walk keeps in seen the steps taken at the latest one.  A node
without slot i met again with no marked jump since its first visit is a
node of the full run met again: a cycle, as before.  One met again after
a marked jump repeats for ever with the marked jump inside, so the full
run never ends and never repeats a node (slot i grows): every member of
the ray runs out of budget, and _walk says so at once.  So the per-step
loop gives, for u without slot i, the outcome, steps and final contents
(but slot i) of the full run from u + v*e_i for every v, unless it runs
out of budget.  Only jumps and repeated nodes pay the test.  The outcome
table, lap keys, stretches and lines above rest on nothing but that loop
being a deterministic function of the position and the contents, so they
hold for the contents without slot i; a head state met twice with a
marked jump between goes, as any head state met twice, to the per-step
loop.  segments._decide decides a judgment again on every slot when any
run without the unobserved slots runs out of budget.
"""

from __future__ import annotations

from functools import partial
from itertools import product, repeat
from operator import add, sub

from .services import EMPTY, ServiceFamily, boolreg, counter, family
from .syntax import Basic, CanonicalSequence, Halt, Jump, NegTest, PosTest

HALTED, EXITED, INACTIVE, BUDGET = 0, 1, 2, 3
AT_HEAD, CYCLE = 4, 5  # how the per-step loop stops short of an outcome
_INACTIVE_RESULT = (INACTIVE, 0, None)
_BUDGET_RESULT = (BUDGET, 0, None)


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
            items[f] = boolreg(c == 1)
        else:
            items[f] = counter(c)
    return family(items)


def encode_canonical(c: CanonicalSequence, foci, kinds, unobserved=()):
    """(ops, arg1, arg2) arrays, one entry per representative position.

    An action on a focus in unobserved, a counter left out of foci that c
    only increments, is a marked jump of its fall-through offset (see
    "Unobserved counters" in the module docstring).
    """
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
        elif instr.focus in unobserved:  # the reply is T
            ops.append(3)
            arg1.append(2 if isinstance(instr, NegTest) else 1)
            arg2.append(1)
        else:
            if isinstance(instr, Basic):
                ops.append(0)
            elif isinstance(instr, PosTest):
                ops.append(1)
            else:
                assert isinstance(instr, NegTest)
                ops.append(2)
            s = slot.get(instr.focus, -1)  # -1 for what is absent
            arg1.append(s)
            arg2.append(-1 if s < 0
                        else _METHOD_CODE[kinds[s]].get(instr.method, -1))
    return ops, arg1, arg2


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


def _walk(ops, arg1, arg2, prefix_len, period_len, kinds, contents, rep,
          steps, limit, head, seen):
    """The per-step loop: run from representative position rep until the
    run comes back to the representative position head or ends.

    contents, a list, follows the run.  seen maps each (position, contents)
    met to the steps taken before it; a node met again ends the run in a
    cycle.  It is None without a period, where no position comes twice.
    At a marked jump (an incr on an unobserved counter) seen[None] takes
    the steps taken; a node met again after it never ends the full run:
    the run is out of budget at once (see "Unobserved counters").
    Returns (code, value, steps): code AT_HEAD, HALTED, EXITED (value: the
    exit offset), INACTIVE, CYCLE (value: the steps taken before the
    repeated node was first met) or BUDGET.
    """
    pos = rep
    while True:
        steps += 1
        if steps > limit:
            return BUDGET, 0, steps
        i = rep - 1
        op = ops[i]
        if op == 4:
            return HALTED, 0, steps
        if op == 3:
            off = arg1[i]
            if off == 0:
                return INACTIVE, 0, steps
            pos += off
            if arg2[i] and seen is not None:
                seen[None] = steps
        else:
            slot = arg1[i]
            if slot < 0:
                return INACTIVE, 0, steps
            reply, newc = _svc(kinds[slot], contents[slot], arg2[i])
            if reply == 2:
                return INACTIVE, 0, steps
            contents[slot] = newc
            if op == 0:
                pos += 1
            elif op == 1:
                pos += 1 if reply == 1 else 2
            else:
                pos += 2 if reply == 1 else 1
        if pos > prefix_len:
            if not period_len:
                return EXITED, pos - prefix_len, steps
            pos = rep = prefix_len + (pos - prefix_len - 1) % period_len + 1
        else:
            rep = pos
        if seen is not None:
            key = (rep, tuple(contents))
            first = seen.get(key)
            if first is not None:
                if first < seen.get(None, 0):
                    return BUDGET, 0, steps
                return CYCLE, first, steps
            seen[key] = steps
        if rep == head:
            return AT_HEAD, 0, steps


def run_segment_kernel(ops, arg1, arg2, prefix_len, period_len, entry,
                       kinds, contents, state_bound, table=None):
    """Program-counter interpretation of an encoded canonical sequence.

    Returns (outcome, exit_offset, final_contents).  exit_offset is only
    meaningful for EXITED; final_contents, a tuple, only for HALTED and
    EXITED (None otherwise).

    table is an outcome table shared by runs of one encoded sequence from
    one entry point (None: a fresh one, which no later run reads).  It maps
    the contents at the entry's representative position, the head, to
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
    if entry <= prefix_len:
        rep = entry
    elif period_len:
        rep = prefix_len + (entry - prefix_len - 1) % period_len + 1
    else:
        return EXITED, entry - prefix_len, tuple(contents)
    head = 0 if table is None else rep  # 0: no position, no table
    seen = {(rep, tuple(contents)): 0} if period_len else None
    marks = []  # (contents at head, steps taken before reaching it)
    steps = 0
    while True:
        if rep == head:
            state = tuple(contents)
            hit = table.get(state)
            if hit is not None:
                result, more = hit
                steps += more
                _tabulate(table, marks, result, steps)
                return _BUDGET_RESULT if steps > limit else result
            marks.append((state, steps))
        code, value, steps = _walk(ops, arg1, arg2, prefix_len, period_len,
                                   kinds, contents, rep, steps, limit, head,
                                   seen)
        if code != AT_HEAD:
            break
        rep = head
    if code == BUDGET:
        return _BUDGET_RESULT
    if code == CYCLE:
        _tabulate(table, [m for m in marks if m[1] < value],
                  _INACTIVE_RESULT, steps)
        return _INACTIVE_RESULT
    result = (code, value, None if code == INACTIVE else tuple(contents))
    _tabulate(table, marks, result, steps)
    return result


def _thresholds(ops, arg1, prefix_len, period_len, head, width):
    """The lap key's threshold of each of `width` slots, for laps from
    representative position head (see "Lap keys" in the module
    docstring)."""
    acts = [0] * width
    for p in range(prefix_len + 1, prefix_len + period_len + 1):
        op, arg = ops[p - 1], arg1[p - 1]
        if op == 3:
            move = arg
        elif op == 4:
            move = 0
        else:
            move = 1 if op == 0 else 2
            if arg >= 0:
                acts[arg] += 1
        if move > ((head - p) % period_len or period_len):
            return (period_len,) * width
    return tuple([a or 1 for a in acts])


def _stretch(state, delta, keys):
    """How many laps with one key a run takes from head state `state`,
    whose lap changes the contents by `delta`, under thresholds `keys`:
    the least m for which state + m * delta has another key (None if there
    is none; see the module docstring)."""
    laps = None
    for c, d, t in zip(state, delta, keys):
        if d:
            if c < t:
                return 1
            if d < 0:
                m = (c - t) // -d + 1
                if laps is None or m < laps:
                    laps = m
    return laps


def _along(state, delta, t):
    """state + t * delta."""
    return tuple([c + t * d for c, d in zip(state, delta)])


def _below(bound, keys):
    """The states of [0, bound]^k (k = len(keys) >= 1) with some content
    below its threshold in keys, in lexicographic order."""
    first = keys[0]
    if len(keys) == 1:
        yield from product(range(min(first, bound + 1)))
        return
    full = range(bound + 1)
    for v in full:
        if v < first:
            yield from product((v,), *repeat(full, len(keys) - 1))
        else:
            for r in _below(bound, keys[1:]):
                yield (v,) + r


def _line_ends(bound, keys, delta):
    """The states s of the box [T_1, bound] x ... x [T_k, bound] (T: keys)
    with s + delta outside it, each once.

    Slot i leaves the box in a band of |delta_i| values at one of its ends;
    the states for slot i are those in its band and in no earlier slot's.
    """
    full, inside, bands = [], [], []
    for t, d in zip(keys, delta):
        full.append(range(t, bound + 1))
        if d < 0:
            bands.append(range(t, min(t - d, bound + 1)))
            inside.append(range(t - d, bound + 1))
        else:
            bands.append(range(max(t, bound - d + 1), bound + 1))
            inside.append(range(t, bound - d + 1))
    for i, band in enumerate(bands):
        yield from product(*inside[:i], band, *full[i + 1:])


def _tabulate(table, marks, result, steps):
    for state, taken in marks:
        table[state] = (result, steps - taken)


class SegmentRuns:
    """Runs of one encoded sequence from one entry point, from many
    contents, sharing an outcome table and lap summaries.

    run(contents) returns what run_segment_kernel(..., contents,
    state_bound) returns, with the final contents as a tuple.  A run whose
    entry lies in the period advances stretch by stretch (see the module
    docstring), reading and writing the outcome table.  Any other run takes
    the per-step loop without a table: jumps go forward, so no run comes
    back to an entry outside the period, and a start state is met again
    only when it is run again.
    """

    def __init__(self, ops, arg1, arg2, prefix_len, period_len, entry,
                 kinds, state_bound):
        self.code = (ops, arg1, arg2, prefix_len, period_len)
        self.entry, self.kinds, self.state_bound = entry, kinds, state_bound
        self.n = prefix_len + period_len
        self.cap = period_len  # the most steps a summarised lap takes
        if entry > prefix_len and period_len:
            self.head = prefix_len + (entry - prefix_len - 1) % period_len + 1
            # the lap key's threshold of each slot
            self.keys = _thresholds(ops, arg1, prefix_len, period_len,
                                    self.head, len(kinds))
        else:
            self.head = 0
        self.table = {}
        self.laps = {}  # lap key -> (end, delta, steps)

    def run(self, contents):
        if not self.head:
            return run_segment_kernel(*self.code, self.entry, self.kinds,
                                      contents, self.state_bound)
        table, laps, keys = self.table, self.laps, self.keys
        limit = _step_limit(self.state_bound, self.n, contents)
        marks = {}  # head states met in this run -> steps taken before each
        state, taken = tuple(contents), 0
        hit = table.get(state)
        while hit is None:
            marks[state] = taken
            # a plain loop: before Python 3.12 a comprehension costs a
            # function call on every lap
            key = []
            for c, t in zip(state, keys):
                key.append(c if c < t else t)
            key = tuple(key)
            lap = laps.get(key)
            if lap is None:
                lap = laps[key] = self._lap(state)
            end, delta, steps = lap
            if end != AT_HEAD:
                if end == BUDGET:
                    return self._stepwise(contents)
                taken += steps
                if taken > limit:
                    return _BUDGET_RESULT
                result = (end, 0, None if delta is None
                          else tuple(map(add, state, delta)))
                _tabulate(table, marks.items(), result, taken)
                return result
            after = tuple(map(add, state, delta))
            taken += steps
            hit = table.get(after)
            if hit is None:
                m = _stretch(state, delta, keys)
                if m is None:
                    # the key never changes: unless the lap changes
                    # nothing (a cycle, below), the run laps to its budget
                    if after not in marks:
                        return _BUDGET_RESULT
                elif m > 1:
                    after = _along(state, delta, m)
                    taken += (m - 1) * steps
                    hit = table.get(after)
                if hit is None:
                    if after in marks:
                        # a cycle: the per-step loop finds its first
                        # repeated node, which fixes the steps the states
                        # before it are tabled with
                        return self._stepwise(contents)
                    if taken > limit:
                        return _BUDGET_RESULT
            state = after
        result, more = hit
        taken += more
        _tabulate(table, marks.items(), result, taken)
        return _BUDGET_RESULT if taken > limit else result

    def sweep(self, bound):
        """Split the box [0, bound]^k of head states into lines, or None.

        It applies when every slot is a counter and the lap from the key T
        (self.keys, the one key of the states in the interior box
        I = [T_1, bound] x ... x [T_k, bound]) comes back to the head having
        moved some slot.  Returns (rest, lines): rest, the states with some
        content below its threshold, in enumeration (lexicographic) order,
        for run; and lines(before), an iterator of pairs (result, contents)
        that covers I but the lines whose first member comes after
        `before` (None: no line is left out).  A line yields its shared
        result with its lexicographically first member when every member
        fits its budget; any other line yields run(x) for each member x.
        When the lap moves no slot toward 0, lines yields I as one class of
        budget-outs, by its least member T.
        See "Lines" in the module docstring.
        """
        kinds = self.kinds
        if not self.head or not kinds or 0 in kinds:
            return None
        key = self.keys
        lap = self.laps.get(key)
        if lap is None:
            lap = self.laps[key] = self._lap(key)
        end, delta, steps = lap
        if end != AT_HEAD or not any(delta):
            return None
        rest = _below(bound, key)
        if min(delta) >= 0:
            return rest, partial(self._diverging, bound)
        return rest, partial(self._lines, bound, delta, steps)

    def _diverging(self, bound, before):
        least = self.keys
        if max(least) <= bound and (before is None or least < before):
            yield _BUDGET_RESULT, least

    def _lines(self, bound, delta, steps, before):
        keys, table, run = self.keys, self.table, self.run
        per = self.state_bound * self.n  # a run's limit: per * (max + 1)
        # along a line lexicographic order follows the first moving slot
        rising = next(d for d in delta if d) < 0
        for last in _line_ends(bound, keys, delta):
            # the line's members are last - t*delta for t = 0..far (start),
            # and the run from each laps m + t times to the line's end
            far = min([(bound - c) // -d if d < 0 else (c - t) // d
                       for c, d, t in zip(last, delta, keys) if d])
            start = _along(last, delta, -far)
            if before is not None and (last if rising else start) > before:
                continue
            m = _stretch(last, delta, keys)
            end = _along(last, delta, m)
            hit = table.get(end)
            if hit is None:
                run(end)
                hit = table.get(end)
            if hit is not None:
                result, more = hit
                # the most steps a member takes (t = far) against the least
                # limit a member can have: each slot's least value lies at
                # an end of the line
                if ((m + far) * steps + more
                        <= per * (max(map(min, last, start)) + 1)):
                    yield result, (last if rising else start)
                    continue
            # a budget-out or a cycle at the end, or a member that may run
            # out of budget: member by member
            for t in range(far + 1):
                x = _along(last, delta, -t)
                yield run(x), x

    def _lap(self, state):
        """(end, delta, steps) of the lap from the head in state: how it
        ends (AT_HEAD, HALTED, INACTIVE, or BUDGET when it takes more than
        cap steps), the change of each content (None for INACTIVE and
        BUDGET) and the steps it takes."""
        contents = list(state)
        end, _, steps = _walk(*self.code, self.kinds, contents, self.head, 0,
                              self.cap, self.head, {})
        if end == CYCLE:
            end = INACTIVE
        if end in (AT_HEAD, HALTED):
            return end, tuple(map(sub, contents, state)), steps
        return end, None, steps

    def _stepwise(self, contents):
        return run_segment_kernel(*self.code, self.entry, self.kinds,
                                  contents, self.state_bound, self.table)

