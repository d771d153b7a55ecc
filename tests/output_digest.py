"""Three sha256 digests of what the entailment oracle, the proof checker
and the thread semantics answer, to show that a change leaves every
answer as it was.

    python3 tests/output_digest.py

Run it on two versions of the code and compare the lines it prints.
`tests/output_digest.txt` holds the lines it prints for this version, and
CI compares the two; a change that alters an answer on purpose updates
the file.

- entails: (kind, witness, bound) of 22,000 seeded `entails` pairs.
  12,000 are random formulas at small bounds (counter B=3/Q=3, boolreg
  B=2/Q=2, counter B=5/Q=4), half of them with a closed focus conjunct
  joined to P.  10,000 come from the one-counter fragment of the cutoff at
  B=30 with qbound 33, 30, 29 and 24.
- trees: (accepted, failures, assumptions) of 3,545 checked trees.  2,000
  are the proof files' trees mutated at seeds 7 and 8, under counter
  B=2/Q=2 or boolreg, strict or not.  1,500 are generated proofs under
  boolreg.  45 are the three proof files at 15 (B, Q) pairs.
- threads: the node arrays of `extract(embed(S, b, e))`, then `apply` of
  that thread to two families, for every entry b up to two past S's
  representative positions and every exit e in 0..6.  S is each
  criterion-4 register segment of up to three instructions, applied to
  r = false and r = true under boolreg, and 300 seeded counter segments
  with powers and repetitions, applied to c = 0 and c = 2 under counter
  B=20.

An exception counts by its type and message.  The generators are the
tests' own.  The name does not start with test_, so pytest does not
collect this file.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import itertools  # noqa: E402

import proofgen  # noqa: E402
from test_acceptance import _REG_ALPHABET  # noqa: E402
from test_formulas import (_NAMES, _Fragment, _outcome,  # noqa: E402
                           _random_formulas)
from test_proofs import _mutate, _replace_at, _subtrees  # noqa: E402
from test_threads import random_term  # noqa: E402

from pga_hoare.formulas import (And, Eq, Var, entails,  # noqa: E402
                                parse_formula)
from pga_hoare.proofs import check_proof, parse_proof  # noqa: E402
from pga_hoare.services import (AlgebraConfig, boolreg,  # noqa: E402
                                counter, family)
from pga_hoare.syntax import Instr, concat_all, normalize  # noqa: E402
from pga_hoare.threads import apply, embed, extract  # noqa: E402

_CLOSED = ["nnc(0)", "nnc(2)", "nnc(7)", "reg(true)", "reg(false)", "empty",
           "d[decr](nnc(1))"]
_PROOF_FILES = [HERE.parent / "proofs" / "counter_zero.proof",
                *sorted((HERE / "proofs").glob("*.proof"))]


def _entails_lines():
    closed = [parse_formula(f"c = {t}").right for t in _CLOSED]
    for seed, cfg in ((13, AlgebraConfig("counter", 3, 3)),
                      (17, AlgebraConfig("boolreg", 2, 2)),
                      (19, AlgebraConfig("counter", 5, 4))):
        rng = random.Random(seed)
        formulas = _random_formulas(seed, cfg, 200, depth=3)
        for i in range(4000):
            p, q = rng.choice(formulas), rng.choice(formulas)
            if i % 2:
                focus, t = Var(rng.choice(_NAMES["serv"])), rng.choice(closed)
                eq = Eq(focus, t) if rng.random() < 0.5 else Eq(t, focus)
                p = And(eq, p) if rng.random() < 0.5 else And(p, eq)
            yield _outcome(entails, p, q, cfg)
    configs = [AlgebraConfig("counter", 30, q) for q in (33, 30, 29, 24)]
    gen = _Fragment(random.Random(29))
    for _ in range(2500):
        p, q = gen.pair()
        for cfg in configs:
            yield _outcome(entails, p, q, cfg, ("c",))


def _checked(tree, cfg, strict):
    result = check_proof(tree, cfg, strict)
    return result.accepted, result.failures, result.assumptions


def _tree_lines():
    roots = [parse_proof(f.read_text()) for f in _PROOF_FILES]
    small = [AlgebraConfig("counter", 2, 2), AlgebraConfig("boolreg")]
    for seed in (7, 8):
        rng = random.Random(seed)
        for _ in range(1000):
            tree = rng.choice(roots)
            for _ in range(rng.randint(1, 3)):
                pool = _subtrees(tree)
                target = rng.choice(pool)
                tree = _replace_at(tree, target, _mutate(rng, target, pool))
            yield _outcome(_checked, tree, rng.choice(small),
                           rng.random() < 0.5)
    rng, boolreg = random.Random(9), AlgebraConfig("boolreg")
    for _ in range(1500):
        yield _outcome(_checked, proofgen.random_proof(rng), boolreg, False)
    for bound in (1, 2, 4, 8, 48):
        for qbound in (bound, bound + 3, 2 * bound + 1):
            cfg = AlgebraConfig("counter", bound, qbound)
            for root in roots:
                yield _outcome(_checked, root, cfg, False)


def _embedded(s, b, e):
    return extract(embed(s, b, e))


def _thread_lines():
    registers = ([family({"r": boolreg(v)}) for v in (False, True)],
                 AlgebraConfig("boolreg"))
    counters = ([family({"c": counter(n)}) for n in (0, 2)],
                AlgebraConfig("counter", 20))
    segments = [(concat_all([Instr(i) for i in combo]), registers)
                for length in (1, 2, 3)
                for combo in itertools.product(_REG_ALPHABET, repeat=length)]
    rng = random.Random(31)
    segments += [(random_term(rng), counters) for _ in range(300)]
    for s, (states, cfg) in segments:
        c = normalize(s)
        for b in range(1, len(c.prefix) + len(c.period or ()) + 3):
            for e in range(7):
                outcome = _outcome(_embedded, s, b, e)
                yield outcome
                if outcome[0] == "value":
                    for u in states:
                        yield _outcome(apply, outcome[1], u, cfg)


def _digest(outcomes) -> str:
    h, n = hashlib.sha256(), 0
    for how, *what in outcomes:
        if how == "raised":
            what[0] = what[0].__name__
        elif type(what[0]).__name__ == "EntailVerdict":
            what = [what[0].kind, what[0].witness, what[0].bound]
        h.update(repr((how, *what)).encode() + b"\n")
        n += 1
    return f"{h.hexdigest()}  ({n} lines)"


if __name__ == "__main__":
    print("entails", _digest(_entails_lines()))
    print("trees  ", _digest(_tree_lines()))
    print("threads", _digest(_thread_lines()))
