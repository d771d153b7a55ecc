"""The execution kernels against object-level reference semantics.

run_canonical and apply encode a family into integers and run the segment
loop and the apply loop of `kernels`.  The references below step the
ServiceFamily itself with services.svc_step under the same step-budget
rule, so they check the loops' integer service step (`kernels._svc`), their
cycle detection and their budget against the services' own semantics.
"""

import random

import pytest

from pga_hoare import kernels
from pga_hoare.segments import (BUDGET_OUT, INACTIVE, Exited, Halted,
                                run_canonical)
from pga_hoare.services import (EMPTY, EMPTY_FAMILY, AlgebraConfig, Reply,
                                Service, boolreg, counter, family, svc_step)
from pga_hoare.syntax import (Basic, Halt, Jump, PosTest, normalize,
                              parse_sequence)
from pga_hoare.threads import BudgetExhausted, apply, extract


def _step_limit(u, n, cfg):
    """state_bound × n × (max content + 1); empty services count 0."""
    contents = [int(s.content) for _, s in u.entries if s.kind != "empty"]
    return cfg.state_bound * n * (max([0] + contents) + 1)


def _ref_run(c, b, u, cfg, spare=None):
    """The outcome of running c from b on u.  A run that halts or exits
    appends the steps it had left to `spare`, if given."""
    n = len(c.prefix) + len(c.period or ())
    limit = _step_limit(u, n, cfg)
    pos, steps, seen = b, 0, set()
    while True:
        if c.period is None and pos > n:
            if spare is not None:
                spare.append(limit - steps)
            return Exited(pos - n, u)
        rep = c.representative(pos)
        if (rep, u) in seen:
            return INACTIVE
        seen.add((rep, u))
        steps += 1
        if steps > limit:
            return BUDGET_OUT
        instr = c.instruction_at(rep)
        if isinstance(instr, Halt):
            if spare is not None:
                spare.append(limit - steps)
            return Halted(u)
        if isinstance(instr, Jump):
            if instr.offset == 0:
                return INACTIVE
            pos += instr.offset
            continue
        service = u.get(instr.focus)
        if service is None:
            return INACTIVE
        reply, derived = svc_step(service, instr.method)
        if reply == Reply.D:
            return INACTIVE
        u = u.with_service(instr.focus, derived)
        if isinstance(instr, Basic):
            pos += 1
        elif isinstance(instr, PosTest):
            pos += 1 if reply == Reply.T else 2
        else:
            pos += 2 if reply == Reply.T else 1


def _ref_apply(t, u, cfg):
    limit = _step_limit(u, len(t.nodes), cfg)
    cur, steps, seen = t.root, 0, set()
    while True:
        node = t.nodes[cur]
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
        u = u.with_service(focus, derived)
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
