"""Tabled exploration must give exactly the outcomes of fresh runs.

holds and strongest_post run every state of a judgment through one
segments._Runner, whose runs share an outcome table.  Each tabled outcome
is compared with a fresh run_canonical of the same state, budget-outs
included.
"""

import random
import time

from pga_hoare.cli import main
from pga_hoare.segments import _Runner, run_canonical
from pga_hoare.services import (EMPTY, AlgebraConfig, boolreg, counter,
                                family)
from pga_hoare.syntax import normalize, parse_sequence

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
                runner = _Runner(c, b, cfg)
                tabled = [runner.run(u) for u in order]
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


def test_countdown_holds_at_4000_within_five_seconds(capsys):
    started = time.perf_counter()
    phi = "{1 | true} (-c.iszero ; #2 ; ! ; c.decr)^w {0 | c = nnc(0)}"
    status = main(["--bound", "4000", "holds", phi])
    elapsed = time.perf_counter() - started
    assert status == 0
    assert capsys.readouterr().out.strip() == "HOLDS (bounded, B=4000)"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
