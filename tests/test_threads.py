"""Thread extraction and the apply operator."""

import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from pga_hoare import threads
from pga_hoare.lexer import MAX_LENGTH
from pga_hoare.segments import BUDGET_OUT, Exited, Halted, run_canonical
from pga_hoare.services import (AlgebraConfig, EMPTY, EMPTY_FAMILY, boolreg,
                                counter, family)
from pga_hoare.syntax import (Basic, CanonicalSequence, Concat, Halt, Instr,
                              Jump, NegTest, PosTest, Power, Repeat,
                              format_canonical, format_term, make_canonical,
                              normalize, parse_sequence)
from pga_hoare.threads import (BudgetExhausted, DEAD_THREAD, STOP_THREAD,
                               RegularThread, apply, embed, extract, sigma,
                               thread_dump, thread_of)
from test_acceptance import _REG_ALPHABET
from test_parsers import SEQUENCES


def _t(text):
    return thread_of(parse_sequence(text))


def test_halt_is_stop():
    assert _t("!") == STOP_THREAD


def test_abort_jump_is_dead():
    assert _t("#0") == DEAD_THREAD


def test_jump_off_the_end_is_dead():
    assert _t("#5 ; !") == DEAD_THREAD


def test_basic_action_then_stop():
    t = _t("c.incr ; !")
    assert t.nodes[t.root] == ("branch", "c", "incr", 1, 1)
    assert t.nodes[1] == ("stop",)


def test_positive_test_branches():
    t = _t("+r.get ; ! ; #0")
    root = t.nodes[t.root]
    assert root[:3] == ("branch", "r", "get")
    assert t.nodes[root[3]] == ("stop",)
    assert t.nodes[root[4]] == ("dead",)


def test_negative_test_swaps_branches():
    pos = _t("+r.get ; ! ; #0")
    neg = _t("-r.get ; ! ; #0")
    proot, nroot = pos.nodes[pos.root], neg.nodes[neg.root]
    assert pos.nodes[proot[3]] == neg.nodes[nroot[4]]
    assert pos.nodes[proot[4]] == neg.nodes[nroot[3]]


def test_jump_chains_resolved():
    # chains of forward jumps collapse to their destination
    assert _t("#1 ; #1 ; !") == STOP_THREAD
    assert _t("#2 ; #0 ; !") == STOP_THREAD


def test_infinite_jump_chain_is_dead():
    assert _t("(#1)^w") == DEAD_THREAD
    assert _t("(#2 ; #2)^w") == DEAD_THREAD


def test_loop_thread_dump():
    t = _t("(-c.iszero ; #2 ; ! ; c.decr)^w")
    assert thread_dump(t) == ("n0: branch c.iszero -> n1 / n2\n"
                              "n1: stop\n"
                              "n2: branch c.decr -> n0 / n0")


def test_minimize_merges_equivalent_nodes():
    # both branches behave identically, so the unrolled copy folds away
    a = _t("(c.incr)^w")
    b = _t("c.incr ; c.incr ; (c.incr ; c.incr)^w")
    assert _ref_minimize(a) == _ref_minimize(b)
    assert len(_ref_minimize(b).nodes) == 1


def test_not_bisimilar():
    assert _ref_minimize(_t("!")) != _ref_minimize(_t("#0"))
    assert _ref_minimize(_t("c.incr ; !")) != _ref_minimize(_t("c.decr ; !"))


def test_sigma_shape():
    assert normalize(sigma(1)).prefix == normalize(parse_sequence("!")).prefix
    assert normalize(sigma(3)) == normalize(parse_sequence("#0 ; #0 ; !"))
    with pytest.raises(ValueError):
        sigma(0)


def test_embed_entry_and_exit():
    s = parse_sequence("c.incr ; !")
    # entering at 2 skips the increment
    c = embed(s, 2, 0)
    t = extract(c)
    assert t == STOP_THREAD
    # exit 1 from "c.incr" alone becomes termination via sigma
    c = embed(parse_sequence("c.incr"), 1, 1)
    u = apply(extract(c), family({"c": counter(0)}))
    assert u.get("c") == counter(1)


def test_exit_offsets_are_validated(monkeypatch):
    s = parse_sequence("c.incr ; !")
    with pytest.raises(ValueError,
                       match="^exit offset must be a natural number$"):
        embed(s, 1, -2)
    # an exit word past MAX_LENGTH is refused before it is made
    too_long = f"^sequence longer than {MAX_LENGTH} instructions$"
    tracemalloc.start()
    try:
        for call in (lambda: embed(s, 1, 10**12), lambda: sigma(10**12),
                     lambda: embed(s, 1, MAX_LENGTH - 2)):
            with pytest.raises(ValueError, match=too_long):
                call()
        # sigma is never reached past a repetition, however far the exit
        assert (embed(parse_sequence("(c.incr)^w"), 1, 10**12)
                == embed(parse_sequence("(c.incr)^w"), 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the embedded word may be MAX_LENGTH long, no longer
    monkeypatch.setattr(threads, "MAX_LENGTH", 1000)
    assert len(embed(s, 1, 997).prefix) == 1000
    with pytest.raises(ValueError, match="^sequence longer than 1000 "):
        embed(s, 1, 998)
    assert len(normalize(sigma(1000)).prefix) == 1000
    with pytest.raises(ValueError, match="^sequence longer than 1000 "):
        sigma(1001)


# ---------------------------------------------------------------------------
# embed against the term it stands for


def _ref_embed(s, b, e):
    """The former embed, kept as the specification: the canonical form of
    the term #b ; S ; sigma(e), or #b ; S when e = 0."""
    term = Concat(Instr(Jump(b)), s)
    if e > 0:
        term = Concat(term, sigma(e))
    return normalize(term)


_COUNTER_ALPHABET = ([Basic("c", "incr"), Basic("c", "decr"),
                      PosTest("c", "iszero"), NegTest("c", "iszero"), Halt()]
                     + [Jump(k) for k in range(5)])


def random_term(rng, depth=3):
    """A seeded counter segment of instructions, jumps among them, joined
    by concatenation, powers (count 0 included) and repetitions, nested
    up to depth deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Instr(rng.choice(_COUNTER_ALPHABET))
    if roll < 0.7:
        return Concat(random_term(rng, depth - 1),
                      random_term(rng, depth - 1))
    if roll < 0.85:
        return Power(random_term(rng, depth - 1), rng.randrange(4))
    return Repeat(random_term(rng, depth - 1))


def _check_embed(s) -> bool:
    """Assert that embed agrees with _ref_embed on s at every entry up to
    two past its representative positions and every exit 0..7, and
    return whether s is infinite."""
    c = normalize(s)
    for b in range(1, len(c.prefix) + len(c.period or ()) + 3):
        for e in range(8):
            assert embed(s, b, e) == _ref_embed(s, b, e), (
                format_term(s), b, e)
    return c.period is not None


@given(SEQUENCES)
@settings(max_examples=150, deadline=None)
def test_embed_matches_the_term_on_generated_sequences(s):
    _check_embed(s)


def test_embed_matches_the_term_on_random_segments():
    rng = random.Random(23)
    periodic = sum(_check_embed(random_term(rng)) for _ in range(500))
    # both the finite words and the ones ending in a repetition occur
    assert 100 < periodic < 400, periodic


def test_apply_stop_returns_family():
    u = family({"c": counter(5)})
    assert apply(STOP_THREAD, u) == u


def test_apply_dead_returns_empty():
    assert apply(DEAD_THREAD, family({"c": counter(5)})) == EMPTY_FAMILY


def test_apply_runs_the_loop():
    t = _t("(-c.iszero ; #2 ; ! ; c.decr)^w")
    u = apply(t, family({"c": counter(3)}))
    assert u.get("c") == counter(0)


def test_apply_missing_focus_is_empty():
    t = _t("r.get ; !")
    assert apply(t, family({"c": counter(0)})) == EMPTY_FAMILY


def test_apply_d_reply_is_empty():
    t = _t("c.get ; !")  # counters have no get method
    assert apply(t, family({"c": counter(0)})) == EMPTY_FAMILY
    assert apply(t, family({"c": EMPTY})) == EMPTY_FAMILY


def test_apply_divergence_is_empty():
    # a loop that never changes state cycles and yields the empty family
    t = _t("(+r.get ; #1)^w")
    assert apply(t, family({"r": boolreg(True)})) == EMPTY_FAMILY


def test_apply_budget_on_unbounded_growth():
    t = _t("(c.incr)^w")
    cfg = AlgebraConfig("counter", state_bound=10)
    with pytest.raises(BudgetExhausted):
        apply(t, family({"c": counter(0)}), cfg)


# every counter method in every form, and jumps that abort, step and skip
_COUNTER_WORDS = ([f"{sign}c.{m}" for sign in ("", "+", "-")
                   for m in ("incr", "decr", "iszero")]
                  + ["#0", "#1", "#2", "#3", "!"])


def _counter_segment(rng):
    """A short counter segment, half of them ending in a repetition."""
    words = [rng.choice(_COUNTER_WORDS) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        return " ; ".join(words)
    cut = rng.randint(0, len(words) - 1)
    period = " ; ".join(words[cut:])
    return " ; ".join(words[:cut] + [f"({period})^w"])


def test_counter_segments_agree_with_their_threads():
    # The counter cross-oracle: run_canonical and apply(extract(embed(S, b,
    # e))) must agree on every entry b, exit e and content, as criterion 4
    # checks over the register.  A pair converges when the run halts, or
    # exits at e > 0; it then yields the run's final family, and the empty
    # family otherwise.  The runs that end take at most an eighth of their
    # budget here (15 steps), so a budget-out is a run that grows c for
    # ever, and must be one in both semantics alike.
    rng = random.Random(31)
    cfg = AlgebraConfig("counter", state_bound=12)
    states = [family({"c": counter(k)}) for k in range(4)]
    runs, applies = set(), set()
    for _ in range(400):
        text = _counter_segment(rng)
        term = parse_sequence(text)
        c = normalize(term)
        n = len(c.prefix) + len(c.period or ())
        # a repetition is entered at each position and once past them
        for b in range(1, n + 2 if c.period else n + 1):
            outs = [run_canonical(c, b, u, cfg) for u in states]
            runs.update(type(out).__name__ for out in outs)
            for e in range(4):
                thread = extract(embed(term, b, e))
                for u, out in zip(states, outs):
                    try:
                        got = apply(thread, u, cfg)
                    except BudgetExhausted:
                        got = BUDGET_OUT
                    converges = (isinstance(out, Halted)
                                 or (e > 0 and isinstance(out, Exited)
                                     and out.offset == e))
                    want = (out.state if converges
                            else out if out is BUDGET_OUT else EMPTY_FAMILY)
                    assert got == want, (text, b, e, u, out, got)
                    applies.add("budget" if got is BUDGET_OUT
                                else "empty" if got == EMPTY_FAMILY
                                else "family")
    assert runs == {"Halted", "Exited", "Inactive", "BudgetOut"}
    assert applies == {"family", "empty", "budget"}


# ---------------------------------------------------------------------------
# extract against the former tuple-graph one
#
# The references below are the package's former extraction and
# minimization, kept here as the specification.  They build a graph of
# ("stop",), ("dead",) and ("branch", focus, method, then, else) tuples and
# renumber it breadth-first from the root (_ref_trim).  _ref_extract looks
# its leaves up by scanning the node list and follows every jump chain
# again from its start.  extract, which fills the node arrays breadth-first
# straight from one memoised jump-resolution array, must give the same
# threads; _ref_minimize, the bisimulation quotient by partition
# refinement, checks which extracted threads behave alike.

_KINDS = {"stop": 0, "dead": 1, "branch": 2}


def _thread(nodes):
    """The RegularThread of a tuple graph rooted at node 0."""
    rows = [(_KINDS[node[0]],) + (tuple(node[1:]) or (None, None, 0, 0))
            for node in nodes]
    return RegularThread(*map(tuple, zip(*rows)))


def _ref_trim(nodes, root):
    """Drop unreachable nodes and renumber in BFS order from the root."""
    order = []
    index = {}
    queue = collections.deque([root])
    while queue:
        i = queue.popleft()
        if i in index:
            continue
        index[i] = len(order)
        order.append(i)
        node = nodes[i]
        if node[0] == "branch":
            queue.append(node[3])
            queue.append(node[4])
    new_nodes = []
    for i in order:
        node = nodes[i]
        if node[0] == "branch":
            node = (node[0], node[1], node[2], index[node[3]], index[node[4]])
        new_nodes.append(node)
    return _thread(new_nodes)


def _ref_minimize(t):
    nodes = t.nodes
    n = len(nodes)
    labels = {}
    block = []
    for i in range(n):
        node = nodes[i]
        key = ((node[0],) if node[0] != "branch"
               else ("branch", node[1], node[2]))
        block.append(labels.setdefault(key, len(labels)))
    while True:
        sigs = {}
        refined = []
        for i in range(n):
            node = nodes[i]
            if node[0] == "branch":
                sig = (block[i], block[node[3]], block[node[4]])
            else:
                sig = (block[i],)
            refined.append(sigs.setdefault(sig, len(sigs)))
        if len(sigs) == len(set(block)):
            block = refined
            break
        block = refined
    rep_of = {}
    mapped = []
    for i in range(n):
        rep_of.setdefault(block[i], i)
        mapped.append(rep_of[block[i]])
    quotient = list(nodes)
    for i in range(n):
        node = quotient[i]
        if node[0] == "branch":
            quotient[i] = (node[0], node[1], node[2], mapped[node[3]],
                           mapped[node[4]])
    return _ref_trim(quotient, mapped[t.root])


def _ref_resolve(c, pos):
    visited = set()
    while True:
        rep = c.representative(pos)
        if rep is None or rep in visited:
            return None
        instr = c.instruction_at(rep)
        if not isinstance(instr, Jump):
            return rep
        if instr.offset == 0:
            return None
        visited.add(rep)
        pos = rep + instr.offset


def _ref_extract(c):
    n_positions = len(c.prefix) + len(c.period or ())
    position_node = {}
    nodes = []

    def _leaf(kind):
        for i, node in enumerate(nodes):
            if node == (kind,):
                return i
        nodes.append((kind,))
        return len(nodes) - 1

    pending = []
    for rep in range(1, n_positions + 1):
        instr = c.instruction_at(rep)
        if isinstance(instr, Jump):
            continue
        if isinstance(instr, Halt):
            position_node[rep] = _leaf("stop")
            continue
        nodes.append(None)
        position_node[rep] = len(nodes) - 1
        pending.append((rep, instr))

    def _target(pos):
        rep = _ref_resolve(c, pos)
        return _leaf("dead") if rep is None else position_node[rep]

    for rep, instr in pending:
        then_i = _target(rep + 1)
        else_i = _target(rep + 2)
        if isinstance(instr, Basic):
            node = ("branch", instr.focus, instr.method, then_i, then_i)
        elif isinstance(instr, PosTest):
            node = ("branch", instr.focus, instr.method, then_i, else_i)
        else:
            node = ("branch", instr.focus, instr.method, else_i, then_i)
        nodes[position_node[rep]] = node

    root_rep = _ref_resolve(c, 1)
    root = _leaf("dead") if root_rep is None else position_node[root_rep]
    return _ref_trim(nodes, root)


# mostly jumps, so that chains are long, wrap the period and form cycles;
# two halts and a few tests, so that leaves occur more than once
_ALPHABET = ([Jump(k) for k in range(6)] * 2
             + [Halt(), Halt(), Basic("c", "incr"), PosTest("r", "get"),
                NegTest("r", "get"), PosTest("c", "iszero")] * 2)


def _random_canonical(rng):
    prefix = [rng.choice(_ALPHABET) for _ in range(rng.randrange(6))]
    shape = rng.randrange(4)
    if shape == 0:
        return make_canonical(prefix or [Halt()], None)
    if shape == 1:  # a period of jumps only
        period = [Jump(rng.randrange(6)) for _ in range(rng.randint(1, 5))]
    else:
        period = [rng.choice(_ALPHABET) for _ in range(rng.randint(1, 6))]
    return make_canonical(prefix, period)


def _chained_finite(rng):
    """A finite word of mostly forward jumps: its chains end on a later
    non-jump, a #0 or a !, or past the end, at L+1 or L+2."""
    n = rng.randint(1, 8)
    word = [rng.choice(_ALPHABET) for _ in range(n)]
    for i in range(n):  # word[i] is at position i + 1
        if rng.random() < 0.6:
            word[i] = Jump(rng.randint(1, n + 1 - i))
    return make_canonical(word, None)


def _wrapping_periodic(rng):
    """A word whose period is mostly jumps of up to two laps: chains that
    wrap back round the period, onto a non-jump or into a cycle."""
    prefix = [rng.choice(_ALPHABET) for _ in range(rng.randrange(3))]
    lap = rng.randint(1, 6)
    period = [Jump(rng.randint(1, 2 * lap)) if rng.random() < 0.7
              else rng.choice(_ALPHABET) for _ in range(lap)]
    return make_canonical(prefix, period)


def _lands_past_the_end(c):
    """Whether some jump of the finite word c lands on position L+1."""
    end = len(c.prefix) + 1
    return any(isinstance(instr, Jump) and r + instr.offset == end
               for r, instr in enumerate(c.prefix, 1))


def _wraps_in_the_period(c):
    """Whether some jump of c's period lands at or before itself."""
    lap = len(c.period)
    return any(isinstance(instr, Jump) and 0 < instr.offset
               and (i + instr.offset) % lap <= i
               for i, instr in enumerate(c.period))


def test_extract_matches_reference():
    rng = random.Random(6)
    cases = [_random_canonical(rng) for _ in range(4000)]
    # chains that end past a finite word and chains that wrap a period
    chained = [_chained_finite(rng) for _ in range(1500)]
    wrapping = [_wrapping_periodic(rng) for _ in range(1500)]
    assert sum(map(_lands_past_the_end, chained)) > 300
    assert sum(map(_wraps_in_the_period, wrapping)) > 300
    cases += chained + wrapping
    cases += [normalize(parse_sequence(text)) for text in (
        "#0", "(#1)^w", "(#2 ; #2)^w", "#3 ; ! ; (#4 ; ! ; c.incr)^w",
        "+r.get ; ! ; ! ; (#3 ; #0 ; -r.get)^w", "(! ; #2 ; #0)^w")]
    dead = stop = both = 0
    for c in cases:
        got = extract(c)
        assert got == _ref_extract(c), format_canonical(c)
        kinds = {node[0] for node in got.nodes}
        dead += "dead" in kinds
        stop += "stop" in kinds
        both += {"dead", "stop"} <= kinds
    # the seeded cases reach both leaves, alone and together
    assert min(dead, stop, both) > 200
    # criterion 4's embedded segments: every one of up to three
    # instructions, and a seeded sample of four
    combos = [combo for length in (1, 2, 3)
              for combo in itertools.product(_REG_ALPHABET, repeat=length)]
    combos += [tuple(rng.choice(_REG_ALPHABET) for _ in range(4))
               for _ in range(300)]
    for combo in combos:
        for b in range(1, len(combo) + 1):
            for e in range(0, 7):
                suffix = ((Jump(0),) * (e - 1) + (Halt(),)) if e else ()
                c = make_canonical((Jump(b),) + combo + suffix, None)
                assert extract(c) == _ref_extract(c), format_canonical(c)


@given(SEQUENCES, SEQUENCES)
@settings(max_examples=150, deadline=None)
def test_threads_of_generated_sequences_match_the_references(s, t):
    for c in (normalize(s), normalize(t)):
        got = extract(c)
        assert got == _ref_extract(c), format_canonical(c)


def _unrolled(c):
    """c with its period's first lap moved into the prefix (not in
    canonical form, which would move it back): the same instruction
    sequence, whose extracted thread can hold the lap twice."""
    if c.period is None:
        return c
    return CanonicalSequence(c.prefix + c.period, c.period)


def test_unrolled_laps_extract_to_bisimilar_threads():
    rng = random.Random(6)
    merged = 0
    for _ in range(4000):
        c = _random_canonical(rng)
        got = _ref_minimize(extract(c))
        unrolled = extract(_unrolled(c))
        merged += len(got.kind) < len(unrolled.kind)
        assert _ref_minimize(unrolled) == got, format_canonical(c)
    # the unrolled laps fold away
    assert merged > 100, merged
