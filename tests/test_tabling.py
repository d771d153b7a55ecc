"""Tabled exploration must give exactly the outcomes of fresh runs.

holds and strongest_post run every state of a judgment through one
kernels.SegmentRuns (segments._segment_runs), whose runs share an outcome
table; test_kernels._tabled takes that path.  Each tabled outcome is
compared with a fresh run_canonical of the same state, budget-outs
included.
"""

import collections
import functools
import itertools
import random
import time

import pytest

from pga_hoare import formulas, kernels, segments
from pga_hoare.analysis import analyze
from pga_hoare.cli import main
from pga_hoare.formulas import TRUE, compile_formula, parse_formula
from pga_hoare.judgments import AssertedSeq, parse_asserted
from pga_hoare.segments import (BUDGET_OUT, INACTIVE, Exited, Halted,
                                NoPostCondition, Verdict, _decide,
                                _segment_runs, holds, run_canonical,
                                strongest_post)
from pga_hoare.services import (EMPTY, AlgebraConfig, boolreg, counter,
                                family)
from pga_hoare.syntax import focus_methods, normalize, parse_sequence
from test_kernels import _ref_trace, _tabled

_SIGNS = ("", "+", "-")
_COUNTER_ALPHABET = ([f"{sign}{f}.{m}" for f in "cd" for sign in _SIGNS
                      for m in ("incr", "decr", "iszero")]
                     + ["c.get", "#0", "#1", "#2", "#3", "!"])
_REGISTER_ALPHABET = ([f"{sign}{f}.{m}" for f in "rq" for sign in _SIGNS
                       for m in ("get", "set:t", "set:f")]
                      + ["r.incr", "#0", "#1", "#2", "#3", "!"])

_COUNTER_STATES = ([family({"c": counter(i), "d": counter(j)})
                    for i in range(5) for j in range(4)]
                   + [family({"c": EMPTY, "d": counter(j)}) for j in range(3)]
                   + [family({"c": counter(i), "d": EMPTY}) for i in range(3)]
                   + [family({"c": counter(i)}) for i in range(3)])
_REGISTER_VALUES = [boolreg(False), boolreg(True), EMPTY]
_REGISTER_STATES = ([family({"r": a, "q": b})
                     for a in _REGISTER_VALUES for b in _REGISTER_VALUES]
                    + [family({"r": a}) for a in _REGISTER_VALUES])


def _random_sequence(rng, alphabet):
    """A prefix (possibly empty) and, mostly, a repeated period."""
    prefix = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.2:
        return " ; ".join(prefix or ["!"])
    period = " ; ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
    return " ; ".join(prefix + [f"({period})^w"])


def _compare(rng, alphabet, states, cfgs, n_sequences):
    """Tabled and fresh outcomes agree; returns the outcome types met."""
    kinds = set()
    for _ in range(n_sequences):
        text = _random_sequence(rng, alphabet)
        c = normalize(parse_sequence(text))
        cfg = rng.choice(cfgs)
        # a state met again must be answered as if met first
        shuffled = list(states) * 2
        rng.shuffle(shuffled)
        # every representative entry, and for a period one more lap of it
        period = len(c.period or ())
        for b in range(1, len(c.prefix) + 2 * period + 1):
            for order in (states, shuffled):
                run = _tabled(c, b, cfg)
                tabled = [run(u) for u in order]
                fresh = [run_canonical(c, b, u, cfg) for u in order]
                assert tabled == fresh, (text, b, cfg.state_bound)
                kinds.update(type(o).__name__ for o in fresh)
    return kinds


def test_tabled_runs_match_fresh_runs_on_counters():
    rng = random.Random(2)
    cfgs = [AlgebraConfig("counter", state_bound=k) for k in range(1, 11)]
    kinds = _compare(rng, _COUNTER_ALPHABET, _COUNTER_STATES, cfgs, 160)
    assert kinds == {"Halted", "Exited", "Inactive", "BudgetOut"}


def test_tabled_runs_match_fresh_runs_on_registers():
    rng = random.Random(3)
    kinds = _compare(rng, _REGISTER_ALPHABET, _REGISTER_STATES,
                     [AlgebraConfig("boolreg")], 160)
    assert kinds == {"Halted", "Exited", "Inactive"}


# counter loops: c counts, d is carried along, and #1..#3 can jump over
# the head (the entry's position in the period)
_LAP_ALPHABET = ([f"{sign}c.{m}" for sign in _SIGNS
                  for m in ("incr", "decr", "decr", "iszero")]
                 + ["d.incr", "+d.decr", "-d.iszero", "#0", "#1", "#2", "#3",
                    "!", "!"])


def test_lap_runs_match_fresh_runs_across_the_key_threshold():
    # A lap key clamps counters at most at the period's length; contents
    # run from 0 to 3 x period + 2, so states below, at and one past the
    # threshold share the summaries their runs record, in both enumeration
    # orders
    rng = random.Random(4)
    kinds = set()
    for _ in range(120):
        prefix = [rng.choice(_LAP_ALPHABET) for _ in range(rng.randint(0, 2))]
        period = [rng.choice(_LAP_ALPHABET) for _ in range(rng.randint(1, 5))]
        c = normalize(parse_sequence(
            " ; ".join(prefix + [f"({' ; '.join(period)})^w"])))
        lap = len(c.period)
        top = 3 * lap + 2
        states = [family({"c": counter(i), "d": counter(j)})
                  for i in range(top + 1) for j in sorted({0, lap, top})]
        cfg = AlgebraConfig("counter", state_bound=rng.randint(1, 4))
        for b in range(1, len(c.prefix) + 2 * lap + 1):
            fresh = [run_canonical(c, b, u, cfg) for u in states]
            for order in (1, -1):
                run = _tabled(c, b, cfg)
                tabled = [run(u) for u in states[::order]]
                assert tabled == fresh[::order], (c, b, cfg.state_bound)
            kinds.update(type(o).__name__ for o in fresh)
    assert kinds == {"Halted", "Inactive", "BudgetOut"}


def test_laps_that_jump_over_the_head():
    cfg = AlgebraConfig("counter", state_bound=3)
    for text in (
            # from entry 3 c.decr and #2 repeat forever, never back at
            # c.incr: the lap passes its cap and the per-step loop runs
            "(c.decr ; #2 ; c.incr)^w",
            # from entry 1 #2 jumps to itself: a cycle inside the lap
            "(c.decr ; #2)^w",
            # from entry 1 the last #4 jumps over the head, and the lap is
            # back at it after 5 steps
            "(-c.iszero ; #4 ; ! ; c.decr ; #2 ; #4)^w",
            # entry 1 lies in the prefix
            "c.incr ; (+c.decr ; #3 ; #1 ; -c.iszero ; !)^w"):
        c = normalize(parse_sequence(text))
        states = [family({"c": counter(i)}) for i in range(20)]
        for b in range(1, len(c.prefix) + 2 * len(c.period) + 1):
            run = _tabled(c, b, cfg)
            assert ([run(u) for u in states]
                    == [run_canonical(c, b, u, cfg) for u in states]), (text, b)


def test_budget_edges_inside_summarised_laps():
    # From c = 2 the run takes one lap of 3 steps (c to 1), one of 4 (c to
    # 0, d down by one), one of 4 per further unit of d, and 5 to halt.
    # At state bound 1 it may take 5 x (d + 1) steps: d = 3 halts at its
    # 20th and last step, d = 2 needs 16 of its 15.  The run from d = 2
    # records every lap the run from d = 3 ends with, and tables none of
    # them, as it runs out of budget.
    c = normalize(parse_sequence("(#2 ; ! ; c.decr ; +c.iszero ; +d.decr)^w"))
    cfg = AlgebraConfig("counter", state_bound=1)
    one_past, exact = (family({"c": counter(2), "d": counter(d)})
                       for d in (2, 3))
    assert run_canonical(c, 1, one_past, cfg) == BUDGET_OUT
    halted = Halted(family({"c": counter(0), "d": counter(0)}))
    assert run_canonical(c, 1, exact, cfg) == halted
    for order in ([one_past, exact], [exact, one_past]):
        run = _tabled(c, 1, cfg)
        assert ([run(u) for u in order]
                == [run_canonical(c, 1, u, cfg) for u in order])


def test_stretches_that_pass_tabled_states():
    # A run applies a stretch of laps with one key at once and looks up
    # only the state it ends in.  The countdown's key clamps c at 2:
    # contents 0, 3, 6, ... run first, then 2, 5, 8, ..., whose first lap
    # ends in an untabled state and whose stretch passes tabled ones, then
    # 1, 4, 7, ...  The transfers go the same way, state by state.
    for text, foci in (("(-c.iszero ; #2 ; ! ; c.decr)^w", "c"),
                       ("(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w", "cd"),
                       ("(-c.iszero ; #2 ; ! ; c.decr ; c.decr ; d.incr)^w",
                        "cd")):
        c = normalize(parse_sequence(text))
        top = 3 * len(c.period) + 3
        contents = ([(i,) for i in range(top)] if foci == "c"
                    else [(i, j) for i in range(top) for j in range(top)])
        states = [family({f: counter(n) for f, n in zip(foci, u)})
                  for u in contents]
        for k in (1, 2, 3):
            cfg = AlgebraConfig("counter", state_bound=k)
            for order in (states[::3] + states[2::3] + states[1::3],
                          states[::-1]):
                run = _tabled(c, 1, cfg)
                assert ([run(u) for u in order]
                        == [run_canonical(c, 1, u, cfg) for u in order]), (
                            text, k)


def test_a_cycle_that_enters_a_stretch_at_two_points():
    # r false moves c into d, r true moves d back: (c, d, false) runs to
    # (0, c + d, true), (c + d, 0, false) and back to (c, d, false).  With
    # c and d at 2 or more (two positions act on each), the run enters the
    # stretch of laps with both at their thresholds or above at (c, d) and
    # the cycle at (c + d - 2, 2).
    # Both lead to the stretch's end state, where the cycle shows.
    c = normalize(parse_sequence(
        "! ; (+r.get ; #7 ; +c.decr ; #3 ; r.set:t ; #9 ; d.incr ; #7 ; "
        "+d.decr ; #3 ; r.set:f ; #3 ; c.incr ; #1)^w"))
    states = [family({"c": counter(i), "d": counter(j), "r": boolreg(r)})
              for i in range(0, 45, 2) for j in (0, 1, 2, 3, 13, 14, 15, 30)
              for r in (False, True)]
    kinds = set()
    for k in (1, 2, 3):
        cfg = AlgebraConfig("counter", state_bound=k)
        fresh = [run_canonical(c, 2, u, cfg) for u in states]
        for order in (1, -1):
            run = _tabled(c, 2, cfg)
            assert ([run(u) for u in states[::order]]
                    == fresh[::order]), k
        kinds.update(type(o).__name__ for o in fresh)
    assert kinds == {"Inactive", "BudgetOut"}


def test_diverging_loop_is_answered_at_4000_within_five_seconds(capsys):
    # every run's lap keeps its key from c = 1 on: each is a budget-out,
    # answered without taking its laps
    started = time.perf_counter()
    status = main(["--bound", "4000", "holds",
                   "{1 | true} (c.incr)^w {0 | false}"])
    elapsed = time.perf_counter() - started
    assert status == 2
    assert (capsys.readouterr().out.strip()
            == "UNKNOWN (step budget exhausted on some run)")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_countdown_holds_at_4000_within_five_seconds(capsys):
    started = time.perf_counter()
    phi = "{1 | true} (-c.iszero ; #2 ; ! ; c.decr)^w {0 | c = nnc(0)}"
    status = main(["--bound", "4000", "holds", phi])
    elapsed = time.perf_counter() - started
    assert status == 0
    assert capsys.readouterr().out.strip() == "HOLDS (bounded, B=4000)"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_a_pinned_countdown_takes_its_laps_by_stretches(monkeypatch):
    # P pins c at B - 1: one state, ten million laps down to 0.  The run
    # takes the laps that keep the key of c at its threshold as one
    # stretch, so the work is counted in stretches, not in laps
    stretches = []
    stretch = kernels._stretch

    def counted(*args):
        stretches.append(args)
        assert len(stretches) <= 10, "the run went lap by lap"
        return stretch(*args)

    monkeypatch.setattr(kernels, "_stretch", counted)
    phi = parse_asserted("{1 | c = nnc(9999999)} (-c.iszero ; #2 ; ! ; "
                         "c.decr)^w {0 | c = nnc(0)}")
    bound = 10_000_000
    assert holds(phi, AlgebraConfig("counter", state_bound=bound)) == (
        Verdict("holds", bounded=True, bound=bound))
    assert [s for s, _, _ in stretches] == [(9999999,), (1,)]


class _Unwalked:
    """A quantifier domain that must not be walked."""

    def __init__(self, values):
        self.values = values

    def __iter__(self):
        raise AssertionError(f"walked {self.values!r}")


def test_a_pinned_quantifier_does_not_walk_its_domain(monkeypatch):
    # Q's quantifier has a conjunct c = nnc(n) that fixes n, so each final
    # tries one n, not the Q + 1 values of its domain
    sort_domain = formulas.sort_domain

    def domain(sort, cfg):
        values, exhaustive = sort_domain(sort, cfg)
        return (_Unwalked(values) if sort == "nat" else values), exhaustive

    monkeypatch.setattr(formulas, "sort_domain", domain)
    phi = parse_asserted('{1 | true} "c.incr ; !" '
                         '{0 | ~(exists n:nat. c = nnc(n) /\\ ~n = n)}')
    cfg = AlgebraConfig("counter", state_bound=50, quant_bound=1_000_000)
    why = "postcondition undecided within the quantifier bound"
    assert holds(phi, cfg) == Verdict(
        "unknown", reason=why, bound=50,
        witness=(family({"c": counter(0)}), {}, why))


def test_transfer_holds_at_4000_within_five_seconds(capsys):
    # 16 million states: those with c and d at 5 or more go by lines of
    # the lap c - 1, d + 1, one run per line end
    started = time.perf_counter()
    phi = ("{1 | true} (-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w "
           "{0 | c = nnc(0)}")
    status = main(["--bound", "4000", "holds", phi])
    elapsed = time.perf_counter() - started
    assert status == 0
    assert capsys.readouterr().out.strip() == "HOLDS (bounded, B=4000)"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_cycling_loop_holds_at_4000_within_five_seconds(capsys):
    # every run comes back to its head state after one lap: each is
    # answered by its first repeated head state, not by its step budget
    started = time.perf_counter()
    status = main(["--bound", "4000", "holds",
                   "{1 | true} (c.incr ; c.decr)^w {0 | false}"])
    elapsed = time.perf_counter() - started
    assert status == 0
    assert capsys.readouterr().out.strip() == "HOLDS (bounded, B=4000)"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# the line sweep of closed-precondition judgments against state-by-state runs

# loops over foci c, d and e whose lap from states with every content at
# least the period's length K often comes back to the head having moved a
# slot toward 0: the states in [K, B]^k then go by lines
_LINE_BODY = ["{}.decr", "{}.decr", "{}.incr", "{}.incr", "+{}.decr",
              "-{}.iszero", "#1", "#2"]
_FIXED_LOOPS = [
    # two phases, c runs down, then d: the run from (c, d) takes
    # 3c + 4d + 4 steps, against a limit of 6 x (max + 1) at state bound 1;
    # the line of d = 8 has (6, 8) and (10, 8) on within their limits,
    # (10, 8) exactly at it, and (7..9, 8) past it; (7, 6) needs one step
    # more than its limit
    "(#1 ; +c.decr ; #4 ; +d.decr ; #2 ; !)^w",
    "(#1 ; +d.decr ; #4 ; +c.decr ; #2 ; !)^w",
    # d moves into c: the first state to end with c above B + K, or above
    # the quantifier bound of Q, lies on a line
    "(-d.iszero ; #2 ; ! ; d.decr ; c.incr)^w",
    "(-d.iszero ; #2 ; ! ; d.decr ; #1 ; c.incr ; c.incr)^w",
]
_BUDGET = "step budget exhausted on some run"


def _line_loop(rng, i, foci):
    """The i-th loop: a fixed one every tenth of the time, otherwise a guard
    that halts when some focus is 0 and a random body with a decrement."""
    if i % 10 == 0:
        return _FIXED_LOOPS[i // 10 % len(_FIXED_LOOPS)]
    guard = rng.choice(foci)
    body = [rng.choice(_LINE_BODY).format(rng.choice(foci))
            for _ in range(rng.randint(1, 4))]
    body.insert(rng.randrange(len(body) + 1), f"{rng.choice(foci)}.decr")
    period = [f"-{guard}.iszero", "#2", "!"] + body
    prefix = ["c.incr"] if rng.random() < 0.1 else []
    return " ; ".join(prefix + [f"({' ; '.join(period)})^w"])


def _random_post(rng, foci, bound):
    x = rng.choice(foci)
    return rng.choice([
        "true", "true", "false", f"{x} = nnc(0)",
        f"~{x} = nnc({rng.randint(0, 3 * bound)})",
        # true up to the quantifier bound, undecided above it
        f"~(forall n:nat. ~{x} = nnc(n))",
    ])


def _per_state(c, b, e, post, foci, cfg, pre=TRUE):
    """(verdict, image) of {b | pre} c {e | post}, one fresh run per state
    in enumeration order (image None unless the verdict is holds).  The
    free nat variables of pre and post take every value up to the bound,
    in name order, for each state."""
    compiled_pre, compiled_post = (compile_formula(f, cfg) for f in (pre, post))
    names = sorted({n for f in (pre, post)
                    for n, s in analyze(f).sorts.items() if s == "nat"})
    q = functools.cache(lambda state, values: compiled_post(
        state, dict(zip(names, values))))
    image, undecided = set(), None
    for contents in itertools.product(range(cfg.state_bound + 1),
                                      repeat=len(foci)):
        u = family({f: counter(n) for f, n in zip(foci, contents)})
        o = None
        for values in itertools.product(range(cfg.state_bound + 1),
                                        repeat=len(names)):
            valuation = dict(zip(names, values))
            pv = compiled_pre(u, valuation)
            if pv is False:
                continue
            if pv is None:
                undecided = undecided or (
                    u, valuation,
                    "precondition undecided within the quantifier bound")
                continue
            if o is None:
                o = run_canonical(c, b, u, cfg)
            if o == INACTIVE:
                continue
            if o == BUDGET_OUT:
                undecided = undecided or (u, valuation, _BUDGET)
                continue
            if isinstance(o, Halted) if e == 0 else (
                    isinstance(o, Exited) and o.offset == e):
                image.add(o.state)
                qv = q(o.state, values)
                if qv is None:
                    undecided = undecided or (
                        u, valuation,
                        "postcondition undecided within the quantifier bound")
                if qv is not False:
                    continue
            return Verdict("fails", witness=(u, valuation, o)), None
    if undecided:
        u, valuation, reason = undecided
        return Verdict("unknown", reason=reason, bound=cfg.state_bound,
                       witness=(u, valuation, reason)), None
    return Verdict("holds", bounded=True, bound=cfg.state_bound), image


# loops whose lap key's thresholds T lie below the period's length K at
# some slot, or fall back to K, with Qs that read some of the foci; a
# focus in Q and not in the loop has T = 1
_THRESHOLD_CASES = [
    # (loop, T over the foci of the loop and of Q, posts)
    ("(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w", (2, 1),
     ["c = nnc(0)", "d = nnc(0)", "~d = nnc(3)"]),
    ("(-d.iszero ; #2 ; ! ; d.decr ; c.incr)^w", (1, 2),
     ["d = nnc(0)", "~c = nnc(2)", "true"]),
    # T_c - 1 = 1 would not tell c = 1 (halts) from c = 2 (laps)
    ("(c.decr ; d.incr ; +c.iszero ; ! ; #1)^w", (2, 1),
     ["c = nnc(0)", "~d = nnc(2)", "true"]),
    ("(-c.iszero ; #2 ; ! ; c.decr ; c.decr ; d.incr ; e.incr)^w",
     (3, 1, 1), ["c = nnc(0)", "~e = nnc(1)", "true"]),
    # #4 passes over the head: T falls back to K = 7
    ("(-c.iszero ; #5 ; ! ; c.decr ; d.incr ; #2 ; #4)^w", (7, 7),
     ["c = nnc(0)", "~d = nnc(8)", "true"]),
    # the period never acts on e, nor on f, which only Q reads
    ("e.incr ; (-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w", (2, 1, 1),
     ["c = nnc(0)", "~e = nnc(1)", "true"]),
    ("(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w", (2, 1, 1),
     ["c = nnc(0) /\\ f = nnc(0)", "~f = nnc(2)"]),
    # the key never changes in [T_1, B] x [T_2, B]: one class of budget-outs
    ("(-c.iszero ; #2 ; ! ; c.incr ; d.incr)^w", (2, 1),
     ["c = nnc(0)", "true"]),
]


def test_line_sweep_matches_state_by_state_runs(monkeypatch):
    # holds and sp with a closed P against one fresh run and one value of
    # Q per state: verdicts, witnesses, reasons and images
    swept = []  # per judgment: whether lines covered some states
    sweep = kernels.SegmentRuns.sweep

    def spy(self, bound):
        found = sweep(self, bound)
        swept.append(found is not None and bound >= self.cap)
        return found

    monkeypatch.setattr(kernels.SegmentRuns, "sweep", spy)
    seen = collections.Counter()

    def check(term, b, e, post, cfg):
        c = normalize(term)
        lap = len(c.period)
        foci = sorted(set(focus_methods(c))
                      | {n for n, s in analyze(post).sorts.items()
                         if s == "serv"})
        expected, image = _per_state(c, b, e, post, foci, cfg)
        phi = AssertedSeq(b, TRUE, term, e, post)
        assert holds(phi, cfg) == expected, (c, b, e, post, cfg)
        seen[expected.kind] += 1
        witness = expected.witness
        if swept[-1] and witness and min(
                s.content for _, s in witness[0].entries) >= lap:
            seen[f"{expected.kind} on a line"] += 1
        if post == TRUE:  # sp lists the image of Q = true
            if image is None:
                with pytest.raises(NoPostCondition) as raised:
                    strongest_post(TRUE, term, b, e, cfg)
                assert raised.value.undecided == (expected.kind == "unknown")
            else:
                assert strongest_post(TRUE, term, b, e, cfg)[0] == image
                seen["image"] += 1
        return expected, image

    rng = random.Random(9)
    for i in range(160):
        term = parse_sequence(_line_loop(rng, i, "cde"[:1 + i % 3]))
        c = normalize(term)
        foci = sorted(focus_methods(c))
        lap = len(c.period)
        bound = rng.choice([lap - 1, lap, lap + 1, 2 * lap, 3 * lap + 2])
        bound = min(bound, (30, 16, 9)[len(foci) - 1])
        qbound = rng.randint(1, 2 * bound + 1)
        b = rng.choice([1, len(c.prefix) + 1,
                        rng.randint(1, len(c.prefix) + 2 * lap)])
        e = rng.choice([0, 0, 1])
        post = _random_post(rng, foci, bound)
        if i % 10 == 0:  # a fixed loop: Q breaks or is undecided on a line
            bound, qbound, b, e = 3 * lap + 2, 4 * lap + 2, 1, 0
            post = ["true", f"~c = nnc({bound + lap + 1})",
                    "~(forall n:nat. ~c = nnc(n))"][i // 40 % 3]
        cfg = AlgebraConfig("counter", state_bound=max(bound, 1),
                            quant_bound=qbound)
        check(term, b, e, parse_formula(post), cfg)
    assert sum(swept) > 80
    assert min(seen[k] for k in ("holds", "fails", "unknown", "image",
                                 "fails on a line",
                                 "unknown on a line")) > 0, seen
    # per-slot thresholds, at bounds T_i - 1, T_i and T_i + 1 and above K;
    # a Q that reads some foci only, with the image of true, and, where
    # it holds, the image that a judgment with that Q collects
    seen.clear()
    for text, keys, posts in _THRESHOLD_CASES:
        term = parse_sequence(text)
        c = normalize(term)
        lap = len(c.period)
        head = len(c.prefix) + 1
        bounds = {t + j for t in keys for j in (-1, 0, 1)} | {lap + 1}
        for bound in sorted(x for x in bounds if x >= 1):
            cfg = AlgebraConfig("counter", state_bound=bound,
                                quant_bound=2 * bound + 2)
            for b in (head, head + lap - 1):
                for e in (0, 1):
                    for post in map(parse_formula, posts + ["true"]):
                        expected, image = check(term, b, e, post, cfg)
                        if image is not None and post != TRUE:
                            phi = AssertedSeq(b, TRUE, term, e, post)
                            assert _decide(phi, cfg, True)[1] == image
                            seen["image of a partial Q"] += 1
    assert min(seen[k] for k in ("holds", "fails", "unknown", "image",
                                 "image of a partial Q")) > 0, seen


def test_lap_key_thresholds_count_the_actions_on_each_slot():
    # T_i = max(1, the period positions acting on slot i), unless a move
    # passes over the head; checked on the runs of every state of a box
    # around the thresholds against fresh runs
    countdown = "(-c.iszero ; #2 ; ! ; c.decr)^w"
    transfer = "(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w"
    cases = [(countdown, 1, "c", [1], (2,)),
             (transfer, 1, "cd", [1, 1], (2, 1)),
             # entered at d.incr: from c.decr, one step to the head
             (transfer, 5, "cd", [1, 1], (2, 1)),
             (transfer, 1, "cde", [1, 1, 1], (2, 1, 1)),
             ("e.incr ; " + transfer, 2, "cde", [1, 1, 1], (2, 1, 1)),
             ("(c.decr ; d.incr ; +c.iszero ; ! ; #1)^w", 1, "cd", [1, 1],
              (2, 1)),
             # registers stay exact at any threshold
             ("(+r.get ; r.set:f ; r.set:t ; c.incr)^w", 1, "cr", [1, 0],
              (1, 3)),
             # a jump, or a test's +2, passes over the head: K for all
             ("(-c.iszero ; #5 ; ! ; c.decr ; d.incr ; #2 ; #4)^w", 1, "cd",
              [1, 1], (7, 7)),
             ("(c.decr ; d.incr ; +c.iszero)^w", 1, "cd", [1, 1], (3, 3)),
             ("(c.decr ; d.incr ; +c.iszero)^w", 3, "cd", [1, 1], (2, 1))]
    for text, b, foci, kinds, keys in cases:
        c = normalize(parse_sequence(text))
        code = kernels.encode_canonical(c, list(foci), kinds)
        shape = (len(c.prefix), len(c.period), b, kinds)
        for state_bound in (1, 2):
            runs = kernels.SegmentRuns(*code, *shape, state_bound)
            assert runs.keys == keys, (text, b)
            box = itertools.product(*(range(2) if k == 0 else range(t + 2)
                                      for k, t in zip(kinds, keys)))
            for x in box:
                assert runs.run(x) == kernels.run_segment_kernel(
                    *code, *shape, x, state_bound), (text, b, x)
    # T_c - 1 is too low: c = 1 and c = 2 would share a key
    c = normalize(parse_sequence("(c.decr ; d.incr ; +c.iszero ; ! ; #1)^w"))
    assert run_canonical(c, 1, family({"c": counter(1), "d": counter(0)}),
                         AlgebraConfig()) == Halted(
        family({"c": counter(0), "d": counter(1)}))
    runs = _segment_runs(c, 1, ["c", "d"], [1, 1], AlgebraConfig())
    runs.run((2, 0))
    assert runs.laps[2, 0] == (kernels.AT_HEAD, (-1, 1), 4)


def test_line_sweep_matches_fresh_runs_at_the_budget_edge():
    # SegmentRuns.sweep on its own, at state bounds 1..3 below the box's
    # bound, so that line members run out of budget.  What a judgment
    # takes from it must match fresh runs of every state: the rest states
    # in order; for each result, the first state of the box with it; and
    # the set of results.
    c = normalize(parse_sequence(_FIXED_LOOPS[0]))
    for u, steps in (((10, 8), 66), ((7, 6), 49)):
        limit = 6 * (max(u) + 1)
        assert steps - limit in (0, 1)
        fam = family({"c": counter(u[0]), "d": counter(u[1])})
        assert _ref_trace(c, 1, fam, limit + 1)[1] == steps
    rng = random.Random(10)
    seen = collections.Counter()
    for i in range(300):
        foci = "cde"[:1 + i % 3]
        c = normalize(parse_sequence(_line_loop(rng, i, foci)))
        foci = sorted({instr.focus for instr in c.prefix + c.period
                       if hasattr(instr, "focus")})
        lap, kinds = len(c.period), [1] * len(foci)
        bound = rng.choice([lap - 1, lap, lap + 1, 2 * lap, 3 * lap + 2])
        if len(foci) == 3:
            bound = min(bound, 9)
        b = rng.randint(1, len(c.prefix) + lap)
        state_bound = rng.randint(1, 3)
        if i % 10 == 0:  # a fixed loop: the two-phase ones show the edges
            bound, b, state_bound = 3 * lap + 2, 1, 1
        code = kernels.encode_canonical(c, foci, kinds)
        shape = (len(c.prefix), lap, b, kinds)
        runs = kernels.SegmentRuns(*code, *shape, state_bound)
        sweep = runs.sweep(bound)
        if sweep is None or bound < max(runs.keys):
            continue
        keys = runs.keys

        def inside(x):  # in the box of states with the one key `keys`
            return all(map(int.__ge__, x, keys))

        member_runs = []  # runs of members of lines whose end is untabled
        run = runs.run
        runs.run = lambda x: member_runs.append(inside(x)) or run(x)
        rest, lines = sweep
        rest = list(rest)
        box = list(itertools.product(range(bound + 1), repeat=len(foci)))
        assert rest == [x for x in box if not inside(x)]
        if i % 2:  # line ends tabled by the runs of the rest, or not yet
            for x in rest:
                runs.run(x)
        fresh = {x: kernels.run_segment_kernel(*code, *shape, x, state_bound)
                 for x in box if inside(x)}
        first = {}
        for x, result in fresh.items():  # in lexicographic order
            first.setdefault(result, x)
        # lines(before) may skip the lines that start after `before`
        for before in (None, rng.choice(rest)):
            pairs = list(lines(before))
            for result, x in pairs:
                assert fresh[x] == result, (c, b, bound, state_bound, x)
            for result, x in first.items():
                if before is None or x < before:
                    assert min(y for r, y in pairs if r == result) == x, (
                        c, b, bound, state_bound, result, before)
        seen["swept"] += 1
        seen["untabled ends" if any(member_runs) else "tabled ends"] += 1
        seen["thresholds below K" if min(keys) < lap
             else "thresholds at K"] += 1
        budget_outs = [x for x, r in fresh.items()
                       if r == kernels._BUDGET_RESULT]
        seen["budget-outs"] += bool(budget_outs)
        if i % 40 == 0:  # the first two-phase loop at state bound 1
            assert fresh[10, 8][0] == kernels.HALTED
            assert fresh[7, 6] == kernels._BUDGET_RESULT
            seen["edges"] += 1
    assert min(seen.values()) > 0, seen


def test_a_line_past_its_budget_yields_every_member_with_its_run():
    # the two-phase loop at state bound 1: some lines have members within
    # their limits and members past them, so they are run member by
    # member, and every member past its limit is yielded, with the result
    # of a fresh run
    c = normalize(parse_sequence(_FIXED_LOOPS[0]))
    lap = len(c.period)
    code = kernels.encode_canonical(c, ["c", "d"], [1, 1])
    shape = (len(c.prefix), lap, 1, [1, 1])
    bound = 3 * lap + 2
    runs = kernels.SegmentRuns(*code, *shape, 1)
    # each counter meets one decrement a lap
    assert runs.keys == (1, 1)
    rest, lines = runs.sweep(bound)
    pairs = list(lines(None))
    box = [x for x in itertools.product(range(bound + 1), repeat=2)
           if min(x) >= 1]
    fresh = {x: kernels.run_segment_kernel(*code, *shape, x, 1) for x in box}
    for result, x in pairs:
        assert fresh[x] == result, x
    over = {x for x in box if fresh[x] == kernels._BUDGET_RESULT}
    assert {(7, 8), (8, 8), (9, 8), (7, 6)} <= over
    assert over <= {x for result, x in pairs}
    assert fresh[10, 8][0] == kernels.HALTED


def test_two_counters_that_grow_for_ever_take_linear_time(monkeypatch):
    # c and d grow by one a lap: every state of [1, B]^2 keeps the key
    # (1, 1) for ever, a budget-out class answered by its least member,
    # and only the 2B + 1 states with a 0 run
    phi = AssertedSeq(1, TRUE, parse_sequence("(c.incr ; d.incr)^w"), 0,
                      parse_formula("false"))
    zero = family({"c": counter(0), "d": counter(0)})
    for bound in (1, 2, 5):
        cfg = AlgebraConfig("counter", state_bound=bound)
        assert holds(phi, cfg) == _per_state(
            normalize(phi.term), 1, 0, phi.post, ["c", "d"], cfg)[0]
    # linear time, counted rather than timed: one run of the empty state
    # without the two unobserved counters runs out of budget, and the
    # search over both foci then runs the 2B + 1 states with a 0
    for bound in (600, 1200):
        ran = []
        run = kernels.SegmentRuns.run
        monkeypatch.setattr(kernels.SegmentRuns, "run",
                            lambda self, contents: ran.append(contents)
                            or run(self, contents))
        cfg = AlgebraConfig("counter", state_bound=bound)
        assert holds(phi, cfg) == Verdict("unknown", reason=_BUDGET,
                                          bound=bound,
                                          witness=(zero, {}, _BUDGET))
        monkeypatch.undo()
        assert collections.Counter(map(len, ran)) == {0: 1, 2: 2 * bound + 1}
        assert all(0 in contents for contents in ran if contents)


_FIXED_FOCUS_PRES = ["d = nnc(0)", "nnc(2) = c /\\ true", "d = nnc(9)",
                     "c = reg(true)", "c = empty", "c = nnc(1) /\\ c = nnc(2)",
                     "true /\\ (d = nnc(1) /\\ ~c = d)",
                     "c = nnc(s(0)) /\\ d = nnc(n)", "d = nnc(3) -> c = d"]


def test_fixed_focus_directs_holds_and_sp(monkeypatch):
    # a closed focus conjunct of P: holds and sp against one fresh run per
    # state of the full box, and each state P allows runs once
    transfer = parse_sequence("(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w")
    c = normalize(transfer)
    ran = []
    run = kernels.SegmentRuns.run
    monkeypatch.setattr(kernels.SegmentRuns, "run",
                        lambda self, contents: ran.append(contents)
                        or run(self, contents))
    seen = collections.Counter()
    for bound in (1, 3, 4):
        cfg = AlgebraConfig("counter", state_bound=bound,
                            quant_bound=bound + 1)
        for pre in map(parse_formula, _FIXED_FOCUS_PRES):
            for post in map(parse_formula, ("c = nnc(0)", "d = nnc(2)",
                                            "true", "~d = nnc(n)")):
                expected, image = _per_state(c, 1, 0, post, ["c", "d"], cfg,
                                             pre)
                assert holds(AssertedSeq(1, pre, transfer, 0, post),
                             cfg) == expected, (pre, post, bound)
                seen[expected.kind] += 1
                if post == TRUE and image is not None:
                    assert strongest_post(pre, transfer, 1, 0,
                                          cfg)[0] == image
                    seen["image"] += 1
    assert min(seen[k] for k in ("holds", "fails", "image")) > 0, seen
    # with P `d = nnc(0)`, only the B + 1 states with d = 0 run
    del ran[:]
    phi = parse_asserted("{1 | d = nnc(0)} (-c.iszero ; #2 ; ! ; c.decr ; "
                         "d.incr)^w {0 | c = nnc(0)}")
    assert holds(phi, AlgebraConfig("counter", state_bound=30)).is_holds
    assert ran == [(content, 0) for content in range(31)]


def test_q_reads_a_projection_of_the_finals(monkeypatch, capsys):
    # the transfer ends every run with c = 0: Q = (c = 0) is evaluated
    # once, on the one family {c = counter(0)} that holds decodes; sp
    # decodes the empty family for Q = true, then its image at the end, and
    # prints it sorted, whatever the hash order
    transfer = "(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w"
    evaluated, decoded = [], []
    compile_q = segments.compile_formula
    decode = kernels.decode_family

    def counting(f, cfg, foci=()):
        compiled = compile_q(f, cfg, foci)
        evaluate = compiled.evaluate
        compiled.evaluate = lambda env: evaluated.append(f) or evaluate(env)
        return compiled

    monkeypatch.setattr(segments, "compile_formula", counting)
    monkeypatch.setattr(kernels, "decode_family",
                        lambda *a: decoded.append(a) or decode(*a))
    cfg = AlgebraConfig("counter", state_bound=12)
    phi = AssertedSeq(1, TRUE, parse_sequence(transfer), 0,
                      parse_formula("c = nnc(0)"))
    assert holds(phi, cfg).is_holds
    assert evaluated.count(phi.post) == 1
    assert decoded == [(["c"], [1], [0])]
    status = main(["--bound", "5", "sp", "true", transfer])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0 and decoded[1] == ([], [], [])
    assert len(decoded) == 2 + 11
    assert lines[:12] == ["states: 11"] + [
        f"  {{c = counter(0), d = counter({d})}}" for d in range(11)]


# ---------------------------------------------------------------------------
# judgments with counters that only the segment's incr actions touch, left
# out of the states that holds enumerates, against state-by-state runs

# "a" sorts before the read foci c and d, "e" and "f" after them
_HIDDEN = "aef"
_HIDDEN_FORMS = ("{}.incr", "+{}.incr", "-{}.incr")
_HIDDEN_CASES = [
    # (judgment, bound, whether it falls back to every focus)
    # c and d grow for ever: no run ends, at any content of either
    ("{1 | true} (c.incr ; d.incr)^w {0 | false}", 3, True),
    # a cycle through an incr-only action is no cycle of the full run
    ("{1 | true} (+d.incr ; #1)^w {0 | false}", 2, True),
    ("{1 | ~c = nnc(1)} c.decr ; (+d.incr ; #1)^w {0 | c = nnc(0)}", 3, True),
    # from c = 0 and e = 0 the run needs 7 steps against a limit of 6;
    # with e = 1 the limit is 12 and it halts: the first failing state is
    # (0, 1), not (1, 0)
    ("{1 | true} e.incr ; c.incr ; (-c.iszero ; #2 ; ! ; c.decr)^w "
     "{0 | false}", 1, True),
    # every focus is left out: the verdict is still bounded
    ("{1 | true} (c.incr ; !)^w {0 | true}", 5, False),
    ("{2 | true} c.incr ; -d.incr ; ! ; ! {0 | true}", 4, False),
]


def _hidden_loop(rng, i, read, hidden):
    """A loop over the read foci with incr actions on each hidden focus
    inserted into its prefix or its period: every other loop a countdown
    on a read focus, the others random."""
    if i % 2:
        guard = rng.choice(read)
        body = [rng.choice(_LINE_BODY).format(rng.choice(read))
                for _ in range(rng.randint(0, 3))]
        body.insert(rng.randrange(len(body) + 1), f"{rng.choice(read)}.decr")
        period = [f"-{guard}.iszero", "#2", "!"] + body
    else:
        period = [rng.choice(_COUNTER_ALPHABET)
                  for _ in range(rng.randint(1, 4))]
    prefix = [rng.choice(_COUNTER_ALPHABET)
              for _ in range(rng.randint(0, 2))]
    for f in hidden:
        for _ in range(rng.randint(1, 2)):
            part = prefix if rng.random() < 0.3 else period
            part.insert(rng.randrange(len(part) + 1),
                        rng.choice(_HIDDEN_FORMS).format(f))
    return " ; ".join(prefix + [f"({' ; '.join(period)})^w"])


def _hidden_pre(rng, x, bound):
    return rng.choice([
        "true", "true", f"~{x} = nnc({rng.randint(0, bound)})",
        f"{x} = nnc({rng.randint(0, bound)}) \\/ {x} = nnc(0)",
        f"{x} = nnc(n)", f"~{x} = nnc(s(n))",
    ])


def _hidden_post(rng, x, bound):
    return rng.choice([
        "true", "false", f"{x} = nnc(0)",
        f"~{x} = nnc({rng.randint(0, 2 * bound)})", f"~{x} = nnc(n)",
        "~(forall n:nat. ~c = nnc(n))",
    ])


def test_unobserved_counters_match_state_by_state_runs(monkeypatch):
    # holds on the foci that P, Q or a test or decrement read must give
    # the verdict of one fresh run per state of the full box, with its
    # witness (every focus, the valuation, the outcome), its reason and
    # its bounded label
    calls = []  # per search: the foci left out of its states
    search = segments._search

    def spy(c, phi, cfg, pre, post, space, observed, left_out, with_image):
        calls.append(tuple(sorted(left_out)))
        return search(c, phi, cfg, pre, post, space, observed, left_out,
                      with_image)

    monkeypatch.setattr(segments, "_search", spy)
    seen = collections.Counter()

    def check(text, bound, qbound):
        phi = parse_asserted(text)
        c = normalize(phi.term)
        foci = sorted(set(focus_methods(c))
                      | {n for f in (phi.pre, phi.post)
                         for n, s in analyze(f).sorts.items() if s == "serv"})
        cfg = AlgebraConfig("counter", state_bound=bound, quant_bound=qbound)
        expected, _ = _per_state(c, phi.entry, phi.exit, phi.post, foci, cfg,
                                 phi.pre)
        del calls[:]
        assert holds(phi, cfg) == expected, (text, bound, qbound)
        seen[expected.kind] += 1
        if calls[0]:
            seen["fallback" if len(calls) == 2 else "reduced only"] += 1
            if expected.kind == "fails" and len(calls) == 1:
                # the witness shows the final contents of the hidden foci
                seen["witness"] += 1
        return calls[0]

    for text, bound, fallback in _HIDDEN_CASES:
        assert check(text, bound, 2 * bound + 1), text
        assert (len(calls) == 2) == fallback, text
    rng = random.Random(13)
    for i in range(240):
        read = "cd"[:1 + i % 2]
        hidden = rng.sample(_HIDDEN, 1 + i % 3)
        bound = rng.randint(1, (6, 5, 3, 2)[len(read) + len(hidden) - 2])
        term = _hidden_loop(rng, i, read, hidden)
        c = normalize(parse_sequence(term))
        b = rng.randint(1, len(c.prefix) + len(c.period))
        pre = _hidden_pre(rng, rng.choice(read), bound)
        post = _hidden_post(rng, rng.choice(read), bound)
        if "n)" in pre:
            seen["free variable"] += 1
        elif pre != "true":
            seen["closed pre"] += 1
        seen["entry in the prefix" if b <= len(c.prefix)
             else "entry in the period"] += 1
        left_out = check(f"{{{b} | {pre}}} {term} {{{rng.randint(0, 2)} | "
                         f"{post}}}", bound, rng.randint(1, 2 * bound + 1))
        assert set(hidden) <= set(left_out)
    assert min(seen[k] for k in (
        "holds", "fails", "unknown", "reduced only", "fallback", "witness",
        "free variable", "closed pre", "entry in the prefix",
        "entry in the period")) > 0, seen
