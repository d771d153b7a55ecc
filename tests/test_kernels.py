"""The execution loops against object-level reference semantics.

run_canonical encodes a family into integers and runs the segment loop of
`kernels`; apply walks the thread's node arrays over the family's services.
The references below step the ServiceFamily itself with services.svc_step
under the same step-budget rule, so they check the segment loop's integer
service step (`kernels._svc`), both loops' cycle detection and their budget
against the services' own semantics.
"""

import collections
import random

import pytest

from pga_hoare import kernels
from pga_hoare.segments import (BUDGET_OUT, INACTIVE, Exited, Halted,
                                _segment_runs, run_canonical)
from pga_hoare.segments import _outcome as _segment_outcome
from pga_hoare.services import (EMPTY, EMPTY_FAMILY, AlgebraConfig, Reply,
                                Service, boolreg, counter, family, svc_step)
from pga_hoare.syntax import (Basic, Halt, Jump, PosTest, normalize,
                              parse_sequence)
from pga_hoare.threads import BudgetExhausted, apply, extract


def _step_limit(u, n, cfg):
    """state_bound × n × (max content + 1); empty services count 0."""
    contents = [int(s.content) for _, s in u.entries if s.kind != "empty"]
    return cfg.state_bound * n * (max([0] + contents) + 1)


def _tabled(c, b, cfg):
    """run_canonical(c, b, u, cfg) for many states u by the path holds and
    sp take: the runs of one family layout (foci and kinds) share one
    segments._segment_runs, and segments._outcome decodes each result."""
    layouts = {}

    def run(u):
        foci, kinds, contents = kernels.encode_family(u)
        layout = (tuple(foci), tuple(kinds))
        if layout not in layouts:
            layouts[layout] = _segment_runs(c, b, foci, kinds, cfg)
        return _segment_outcome(*layouts[layout].run(contents), foci, kinds)

    return run


def _ref_run(c, b, u, cfg, spare=None):
    """The outcome of running c from b on u.  A run that halts or exits
    appends the steps it had left to `spare`, if given."""
    n = len(c.prefix) + len(c.period or ())
    limit = _step_limit(u, n, cfg)
    outcome, steps = _ref_trace(c, b, u, limit)
    if spare is not None and isinstance(outcome, (Halted, Exited)):
        spare.append(limit - steps)
    return outcome


def _ref_trace(c, b, u, limit):
    """(outcome, steps) of running c from b on u with `limit` steps: steps
    is how many the run took to reach its outcome (limit + 1 for a
    budget-out)."""
    n = len(c.prefix) + len(c.period or ())
    pos, steps, seen = b, 0, set()
    while True:
        if c.period is None and pos > n:
            return Exited(pos - n, u), steps
        rep = c.representative(pos)
        if (rep, u) in seen:
            return INACTIVE, steps
        seen.add((rep, u))
        steps += 1
        if steps > limit:
            return BUDGET_OUT, steps
        instr = c.instruction_at(rep)
        if isinstance(instr, Halt):
            return Halted(u), steps
        if isinstance(instr, Jump):
            if instr.offset == 0:
                return INACTIVE, steps
            pos += instr.offset
            continue
        service = u.get(instr.focus)
        if service is None:
            return INACTIVE, steps
        reply, derived = svc_step(service, instr.method)
        if reply == Reply.D:
            return INACTIVE, steps
        u = family({**dict(u.entries), instr.focus: derived})
        if isinstance(instr, Basic):
            pos += 1
        elif isinstance(instr, PosTest):
            pos += 1 if reply == Reply.T else 2
        else:
            pos += 2 if reply == Reply.T else 1


def _ref_apply(t, u, cfg):
    nodes = t.nodes
    limit = _step_limit(u, len(nodes), cfg)
    cur, steps, seen = t.root, 0, set()
    while True:
        node = nodes[cur]
        if node[0] == "stop":
            return u
        if node[0] == "dead" or (cur, u) in seen:
            return EMPTY_FAMILY
        seen.add((cur, u))
        steps += 1
        if steps > limit:
            raise BudgetExhausted("apply step budget exhausted")
        _, focus, method, then_i, else_i = node
        service = u.get(focus)
        if service is None:
            return EMPTY_FAMILY
        reply, derived = svc_step(service, method)
        if reply == Reply.D:
            return EMPTY_FAMILY
        u = family({**dict(u.entries), focus: derived})
        cur = then_i if reply == Reply.T else else_i


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExhausted:
        return BudgetExhausted


# foci c and r are mostly present, x never; every kind gets an unknown
# method (c.get, r.incr), and #0 aborts
_SIGNS = ("", "+", "-")
_ALPHABET = ([f"{sign}c.{m}" for sign in _SIGNS
              for m in ("incr", "decr", "iszero", "get")]
             + [f"{sign}r.{m}" for sign in _SIGNS
                for m in ("get", "set:t", "set:f", "incr")]
             + ["x.incr", "#0", "#1", "#2", "#3", "!"])
_COUNTERS = [counter(i) for i in range(6)] + [EMPTY]
_REGISTERS = [boolreg(False), boolreg(True), EMPTY]


def _random_case(rng):
    prefix = [rng.choice(_ALPHABET) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.25:
        text = " ; ".join(prefix or ["!"])
    else:
        period = " ; ".join(rng.choice(_ALPHABET)
                            for _ in range(rng.randint(1, 5)))
        text = " ; ".join(prefix + [f"({period})^w"])
    items = {}
    if rng.random() < 0.9:
        items["c"] = rng.choice(_COUNTERS)
    if rng.random() < 0.6:
        items["r"] = rng.choice(_REGISTERS)
    cfg = AlgebraConfig("counter", state_bound=rng.randint(1, 10))
    return text, family(items), cfg


def test_kernels_match_the_reference_semantics():
    rng = random.Random(5)
    runs, applies, spare = set(), set(), []
    for _ in range(1500):
        text, u, cfg = _random_case(rng)
        c = normalize(parse_sequence(text))
        n = len(c.prefix) + len(c.period or ())
        last = n if c.period is None else len(c.prefix) + 2 * n
        for b in range(1, last + 1):
            expected = _ref_run(c, b, u, cfg, spare)
            assert run_canonical(c, b, u, cfg) == expected, (text, b, u, cfg)
            runs.add(type(expected).__name__)
        t = extract(c)
        expected = _outcome(_ref_apply, t, u, cfg)
        assert _outcome(apply, t, u, cfg) == expected, (text, u, cfg)
        applies.add("budget" if expected is BudgetExhausted
                    else "empty" if expected == EMPTY_FAMILY else "family")
    # the sample reaches every outcome, budget exhaustion included, and
    # runs that end on the last step or two their budget allows
    assert runs == {"Halted", "Exited", "Inactive", "BudgetOut"}
    assert applies == {"family", "empty", "budget"}
    assert {0, 1} <= set(spare)


def test_apply_maps_the_thread_for_each_family_layout():
    # apply maps a thread's foci to the family's slots afresh on each call.
    # One thread goes, in turn, to families in which its focus is a
    # counter, a register, at slot 0 or 1, absent or empty, and to the
    # empty family; each result must be the reference's, whichever
    # families the thread met before.
    families = [family({"c": counter(3)}), family({"c": boolreg(True)}),
                family({"c": counter(2), "r": boolreg(False)}),
                family({"r": boolreg(True), "c": counter(1)}),
                family({"b": boolreg(False), "c": counter(2)}),
                family({"b": counter(4), "c": boolreg(False)}),
                family({"r": boolreg(True)}), family({"c": EMPTY}),
                EMPTY_FAMILY]
    cfg = AlgebraConfig(state_bound=4)
    results = set()
    for text in ("(-c.iszero ; #2 ; ! ; c.decr)^w",
                 "+c.get ; #3 ; c.set:t ; ! ; c.set:f ; !",
                 "(-c.iszero ; #3 ; +r.get ; ! ; c.decr ; r.set:t)^w"):
        t = extract(normalize(parse_sequence(text)))
        for order in (families, families[::-1], families * 2):
            for u in order:
                expected = _outcome(_ref_apply, t, u, cfg)
                assert _outcome(apply, t, u, cfg) == expected, (text, u)
                results.add(expected)
    # counters and registers both run to a family
    assert {family({"c": counter(0)}), family({"c": boolreg(False)}),
            family({"c": counter(0), "r": boolreg(True)})} <= results


def test_budget_runs_out_one_lap_short():
    # m laps of 4 steps bring c down to 0, and the run cycles only a few
    # steps later: more than the 4 × (m + 1) steps it may take at
    # state_bound 1, fewer than the 8 × (m + 1) it may take at 2
    c = normalize(parse_sequence("(c.incr ; c.decr ; c.iszero ; +c.decr)^w"))
    t = extract(c)
    tight, loose = AlgebraConfig(state_bound=1), AlgebraConfig(state_bound=2)
    for m in range(4):
        u = family({"c": counter(m)})
        assert run_canonical(c, 1, u, tight) == BUDGET_OUT
        assert _ref_run(c, 1, u, tight) == BUDGET_OUT
        assert run_canonical(c, 1, u, loose) == INACTIVE
        assert _ref_run(c, 1, u, loose) == INACTIVE
        with pytest.raises(BudgetExhausted):
            apply(t, u, tight)
        assert apply(t, u, loose) == _ref_apply(t, u, loose) == EMPTY_FAMILY


# counter c drives the loops; d and r sit beside it or are absent, and
# #1..#3 can jump over the head
_LAP_ALPHABET = ([f"{sign}c.{m}" for sign in _SIGNS
                  for m in ("incr", "decr", "decr", "iszero")]
                 + ["d.incr", "-d.decr", "+r.get", "r.set:t", "r.set:f",
                    "#0", "#1", "#2", "#3", "!", "!"])


def test_lap_runs_match_the_reference_at_the_budget_edge():
    # Runs from many states share lap summaries (_tabled, the path of holds
    # and sp).  Each state's reference run is traced once with a budget one step above
    # the largest one tried, which gives its outcome under every state
    # bound: the outcome when its steps fit the bound's limit, a budget-out
    # otherwise.  Contents go from 0 to 3 x period + 2, past every lap
    # key's threshold (at most period_len), and the sample must hold lap
    # runs that end
    # exactly at their limit and one step past it.
    rng = random.Random(11)
    bounds = (1, 2, 3)
    edges, kinds = collections.Counter(), set()
    for _ in range(200):
        prefix = [rng.choice(_LAP_ALPHABET) for _ in range(rng.randint(0, 2))]
        period = [rng.choice(_LAP_ALPHABET) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.1:
            text = " ; ".join(prefix + period)
        else:
            text = " ; ".join(prefix + [f"({' ; '.join(period)})^w"])
        c = normalize(parse_sequence(text))
        lap = len(c.period or ())
        n = len(c.prefix) + lap
        beside = rng.choice([{}, {"r": boolreg(False)}, {"r": boolreg(True)},
                             {"d": counter(rng.randint(0, lap))}])
        states = [family({"c": counter(i), **beside})
                  for i in range(3 * lap + 3)]
        widest = AlgebraConfig(state_bound=max(bounds))
        for b in range(1, len(c.prefix) + 2 * lap + 1 if lap else n + 1):
            traces = [_ref_trace(c, b, u, _step_limit(u, n, widest) + 1)
                      for u in states]
            for k in bounds:
                cfg = AlgebraConfig(state_bound=k)
                run = _tabled(c, b, cfg)
                for u, (outcome, steps) in zip(states, traces):
                    limit = _step_limit(u, n, cfg)
                    expected = outcome if steps <= limit else BUDGET_OUT
                    assert run(u) == expected, (text, b, u, k)
                    kinds.add(type(expected).__name__)
                    if b > len(c.prefix) and steps > lap:
                        edges[steps - limit] += 1
    assert kinds == {"Halted", "Exited", "Inactive", "BudgetOut"}
    assert edges[0] and edges[1], edges


def test_laps_that_take_every_step_of_the_cap():
    # Every position of these periods acts on c, so a lap key clamps c at
    # K = period_len (and a last test's +2 passes over the head anyway).
    # Only a lap of exactly K steps that decrements c at each of its first
    # K - 1 steps tells c = K - 1 from c = K, at its last step:
    # such periods, against the reference, at tight budgets, with a second
    # counter beside c, in shuffled enumeration orders.
    rng = random.Random(6)
    for lap in range(1, 6):
        for last in ("+c.iszero", "-c.iszero", "+c.decr", "-c.decr"):
            for first in ("c.decr", "+c.decr"):
                text = f"({' ; '.join([first] * (lap - 1) + [last])})^w"
                c = normalize(parse_sequence(text))
                states = [family({"c": counter(i), "d": counter(j)})
                          for i in range(3 * lap + 3) for j in (0, 1)]
                for k in (1, 2, 3, 4):
                    cfg = AlgebraConfig(state_bound=k)
                    rng.shuffle(states)
                    run = _tabled(c, 1, cfg)
                    for u in states:
                        assert run(u) == _ref_run(c, 1, u, cfg), (
                            text, u, k)


def _laps(text, entry, top, cfg=AlgebraConfig(state_bound=3)):
    """(thresholds, lap summaries by lap key) of the runs from c = 0..top,
    each checked against a fresh run."""
    c = normalize(parse_sequence(text))
    runs = _segment_runs(c, entry, ["c"], [1], cfg)
    for i in range(top + 1):
        expected = run_canonical(c, entry, family({"c": counter(i)}), cfg)
        assert _segment_outcome(*runs.run([i]), ["c"], [1]) == expected
    return runs.keys, runs.laps


def test_lap_summaries_are_shared_from_the_threshold_up():
    # two of the countdown's 4 positions act on c: contents 2 and up share
    # one summary, 0 and 1 have their own
    keys, laps = _laps("(-c.iszero ; #2 ; ! ; c.decr)^w", 1, 14)
    assert keys == (2,)
    assert laps == {(0,): (kernels.HALTED, (0,), 2),
                    (1,): (kernels.AT_HEAD, (-1,), 3),
                    (2,): (kernels.AT_HEAD, (-1,), 3)}
    # a lap may jump over the head and still come back within the cap; the
    # threshold is then the period's length
    keys, laps = _laps("(-c.iszero ; #4 ; ! ; c.decr ; #2 ; #4)^w", 1, 20)
    assert keys == (6,)
    assert laps[(6,)] == (kernels.AT_HEAD, (-1,), 5)
    # or never come back: past the cap no summary is kept
    keys, laps = _laps("(c.decr ; #2 ; c.incr)^w", 3, 9)
    assert keys == (3,)
    assert set(laps.values()) == {(kernels.BUDGET, None, 4)}
    # a cycle inside the lap ends it
    keys, laps = _laps("(c.decr ; #2)^w", 1, 5)
    assert keys == (2,)
    assert set(laps.values()) == {(kernels.INACTIVE, None, 2)}


# Laps that repeat along a line: a run applies a stretch of laps with one
# key at once (kernels.SegmentRuns).  c and d are counters, r a register.
_STRETCH_PROGRAMS = (
    # r false: each lap moves one unit of c into two of d; r true: each lap
    # counts d down, and the run halts at d = 0.  From (c, d, false) with
    # d > c a run takes 19c + 6d + 8 steps, against a limit of 15 (d + 1)
    # at state bound 1: (7, 14) and (16, 33) halt at their last step,
    # (8, 16) and (17, 35) need one step more, after a stretch of d-laps
    "(+r.get ; #9 ; +c.decr ; #3 ; r.set:t ; #10 ; d.incr ; d.incr ; "
    "c.iszero ; #6 ; +d.decr ; #2 ; ! ; c.iszero ; #1)^w",
    # r true moves d back into c: (c, d, false) runs to (0, c + d, true),
    # (c + d, 0, false) and back to (c, d, false).  Two positions act on c
    # and two on d: with c and d at 2 or more the cycle enters the stretch
    # of laps with both at their thresholds or above at (c + d - 2, 2), and
    # the run entered it at (c, d).  The
    # two halts before the period are never run, but n counts them: they
    # raise every budget until some runs meet their cycle within it and
    # would pass their limit on the way to the stretch's end
    "! ; ! ; (+r.get ; #7 ; +c.decr ; #3 ; r.set:t ; #9 ; d.incr ; #7 ; "
    "+d.decr ; #3 ; r.set:f ; #3 ; c.incr ; #1)^w",
    # mixed signs: two units of c into one of d, one of d into c, and one
    # of d into c until d is 0, where the lap changes nothing
    "(-c.iszero ; #2 ; ! ; c.decr ; c.decr ; d.incr)^w",
    "(-d.iszero ; #2 ; ! ; d.decr ; c.incr)^w",
    "(+d.decr ; c.incr)^w",
    # non-decreasing laps: from some key on, the run laps to its budget
    "(c.incr)^w",
    "(r.set:t ; c.incr ; d.incr)^w",
)


def test_stretches_match_the_reference_at_the_budget_edge():
    # As in the budget-edge test above: one reference trace per state gives
    # its outcome under every state bound.  c goes from 0 to 3 x period + 2;
    # d takes values around the lap key's thresholds (2 or 3 here, K =
    # period_len where a move passes over the head) and the two that give
    # the first program's budget edges.  Each bound's runs share
    # one table, in ascending, descending and shuffled order.  Runs enter
    # at the period's first position.
    rng = random.Random(12)
    bounds = (1, 2, 3)
    edges, kinds = collections.Counter(), set()
    for text in _STRETCH_PROGRAMS:
        c = normalize(parse_sequence(text))
        lap, head = len(c.period), len(c.prefix) + 1
        n = head - 1 + lap
        states = [family({"c": counter(i), "d": counter(j), "r": boolreg(r)})
                  for i in range(3 * lap + 3)
                  for j in (0, 1, 2, 3, lap - 1, lap, lap + 1, 2 * lap + 3,
                            2 * lap + 5, 3 * lap + 2)
                  for r in (False, True)]
        widest = AlgebraConfig(state_bound=max(bounds))
        traces = {u: _ref_trace(c, head, u, _step_limit(u, n, widest) + 1)
                  for u in states}
        shuffled = list(states)
        rng.shuffle(shuffled)
        for k in bounds:
            cfg = AlgebraConfig(state_bound=k)
            for order in (states, states[::-1], shuffled):
                run = _tabled(c, head, cfg)
                for u in order:
                    outcome, steps = traces[u]
                    limit = _step_limit(u, n, cfg)
                    expected = outcome if steps <= limit else BUDGET_OUT
                    assert run(u) == expected, (text, u, k)
                    kinds.add(type(expected).__name__)
                    if steps > 2 * lap:
                        edges[steps - limit] += 1
    assert kinds == {"Halted", "Inactive", "BudgetOut"}
    assert edges[0] and edges[1], edges



def test_line_members_match_the_reference():
    # SegmentRuns.sweep on the counter-only programs above: every member a
    # line yields has the reference's outcome, under state bounds 1..3,
    # and so has each first state of the box [T_1, B] x [T_2, B] with that
    # outcome (T: the lap key's thresholds)
    seen = collections.Counter()
    for text, keys in zip(_STRETCH_PROGRAMS[2:5] + (
            "(#1 ; +c.decr ; #4 ; +d.decr ; #2 ; !)^w",
            # #4 passes over the head: the thresholds fall back to K
            "(-c.iszero ; #5 ; ! ; c.decr ; d.incr ; #2 ; #4)^w",
            # the lap moves no slot toward 0: one class of budget-outs
            "(c.incr ; d.incr)^w"),
            [(3, 1), (1, 2), (1, 1), (1, 1), (7, 7), (1, 1)]):
        c = normalize(parse_sequence(text))
        lap = len(c.period)
        bound = 2 * lap + 3
        box = [(i, j) for i in range(keys[0], bound + 1)
               for j in range(keys[1], bound + 1)]
        for k in (1, 2, 3):
            cfg = AlgebraConfig(state_bound=k)
            runs = _segment_runs(c, 1, ["c", "d"], [1, 1], cfg)
            assert runs.keys == keys, text
            sweep = runs.sweep(bound)
            if sweep is None:
                continue
            ref = {x: _ref_run(c, 1, family({"c": counter(x[0]),
                                              "d": counter(x[1])}), cfg)
                   for x in box}
            yielded = {}
            for result, x in sweep[1](None):
                assert _segment_outcome(*result, ["c", "d"], [1, 1]) == ref[x]
                yielded.setdefault(ref[x], []).append(x)
            first = {}
            for x in box:
                first.setdefault(ref[x], x)
            for outcome, x in first.items():
                assert min(yielded[outcome]) == x, (text, k, outcome)
                seen[type(outcome).__name__] += 1
    assert seen["Halted"] and seen["BudgetOut"], seen


def test_non_decreasing_laps_end_in_constant_time():
    # A lap that moves no counter toward 0 keeps its key: the run laps on
    # to its budget, and is answered so without taking the laps.  The
    # second period's #5 passes over the head, so its key clamps at K = 4.
    for text, keys, laps in (
            ("(c.incr ; d.incr ; d.incr)^w", (1, 2),
             {(0, 0), (1, 0), (1, 2)}),
            ("(c.incr ; #5 ; d.incr ; d.incr)^w", (4, 4),
             {(0, 0), (1, 2), (2, 4), (3, 4), (4, 4), (3, 0), (4, 2)})):
        c = normalize(parse_sequence(text))
        cfg = AlgebraConfig(state_bound=10 ** 9)
        runs = _segment_runs(c, 1, ["c", "d"], [1, 1], cfg)
        assert runs.keys == keys
        for state in ([0, 0], [3, 0], [10 ** 6, 7]):
            assert runs.run(state) == (kernels.BUDGET, 0, None)
        # one lap per key met, none past the thresholds
        assert set(runs.laps) == laps, text
        # and at a small state bound, every state of a box past the
        # thresholds against the reference
        cfg = AlgebraConfig(state_bound=2)
        runs = _segment_runs(c, 1, ["c", "d"], [1, 1], cfg)
        for i in range(7):
            for j in range(7):
                u = family({"c": counter(i), "d": counter(j)})
                assert (_segment_outcome(*runs.run([i, j]), ["c", "d"], [1, 1])
                        == _ref_run(c, 1, u, cfg)), (text, i, j)


@pytest.mark.parametrize("run", ["segment", "apply"])
def test_unknown_service_kind_is_rejected(run):
    c = normalize(parse_sequence("x.flip ; !"))
    u = family({"x": Service("toggle", False)})
    with pytest.raises(ValueError, match="unknown service kind 'toggle'"):
        if run == "segment":
            run_canonical(c, 1, u)
        else:
            apply(extract(c), u)


def test_encode_decode_family_roundtrip():
    u = family({"c": counter(3), "r": boolreg(True)})
    foci, kinds, contents = kernels.encode_family(u)
    assert kernels.decode_family(foci, kinds, contents) == u
