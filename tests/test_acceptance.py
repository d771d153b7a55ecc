"""Acceptance suite: one test (and one printed pass line) per criterion.

Criteria:
  1. the machine-checked reconstruction of the counter-to-zero proof is
     accepted in under a second;
  2. the loop judgment holds for every initial counter content 0..1000 by
     direct interpretation, in under five seconds;
  3. 1,000 generated proofs over the boolean register are all accepted and
     all conclusions verified semantically, with zero disagreements;
  4. exhaustive cross-oracle agreement between the direct interpreter and
     apply-after-extract-after-embed for all register segments of length
     up to 4, in under a minute;
  5. no infinite repetition ever satisfies a positive-exit judgment
     non-vacuously (and the interpreter never reports an exit for one);
  6. canonical-form equality agrees with the equational laws and with
     word-by-word comparison on random term pairs;
  7. every instruction axiom, instantiated with random formulas over both
     algebras, passes the semantic checker.
"""

import itertools
import math
import pathlib
import random
import time

from pga_hoare.formulas import (And, Eq, FALSE, NatLit, Nnc, Not, Reply,
                                ReplyLit, ReplyT, TRUE, Var)
from pga_hoare.judgments import AssertedSeq
from pga_hoare.proofs import check_proof, parse_proof
from pga_hoare.segments import Exited, Halted, holds, run_canonical
from pga_hoare.services import AlgebraConfig, boolreg, counter, family
from pga_hoare.syntax import (Basic, Concat, Halt, Instr, Jump, NegTest,
                              OMEGA, PosTest, Power, Repeat, make_canonical,
                              normalize, parse_sequence)
from pga_hoare.threads import apply, embed, extract

import proofgen
from refparsers import ref_subst_derive
from test_kernels import _tabled

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent / "proofs"

BCFG = AlgebraConfig("boolreg")

# the loop from the worked example: count c down to zero, then halt
LOOP = normalize(parse_sequence("(-c.iszero ; #2 ; ! ; c.decr)^w"))

_REG_ALPHABET = ([Basic("r", "get"), PosTest("r", "get"), NegTest("r", "get"),
                  Basic("r", "set:t"), Basic("r", "set:f")]
                 + [Jump(i) for i in range(6)] + [Halt()])
_REG_STATES = [family({"r": boolreg(False)}), family({"r": boolreg(True)})]


def test_criterion_1_golden_proof():
    # Reconstruction notes: the one-pass-over-the-body step carries exit 1
    # (composing two exit-1 pieces can only yield exit 1; the published
    # narration prints exit 0 there), and the successor branch's negative
    # test with reply :f is an A7 instance.  Entailment obligations are
    # discharged up to bound B; B must stay <= Q+1 so that existential
    # witnesses remain within the quantifier bound.
    cfg = AlgebraConfig("counter", state_bound=24, quant_bound=32)
    started = time.perf_counter()
    proof = parse_proof((PROOF_DIR / "counter_zero.proof").read_text())
    result = check_proof(proof, cfg)
    elapsed = time.perf_counter() - started
    assert result.accepted, result.failures
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    c = proof.conclusion
    assert (c.entry, c.exit) == (1, 0)
    assert c.pre == TRUE
    print(f"criterion 1: PASS accepted in {elapsed:.3f}s "
          f"({len(result.assumptions)} bounded assumptions; exit-1 repair "
          f"at the loop-body step, A7 used for the :f test)")


def test_criterion_2_loop_semantics_enumerated():
    cfg = AlgebraConfig("counter", state_bound=2000)
    states = [family({"c": counter(n)}) for n in range(1001)]
    started = time.perf_counter()
    fresh = []
    for n, u in enumerate(states):
        out = run_canonical(LOOP, 1, u, cfg)
        assert out == Halted(family({"c": counter(0)})), (n, out)
        fresh.append(out)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    # the path holds and sp take, with its outcome table and accelerated
    # laps shared by all contents, in both orders
    for order in (1, -1):
        run = _tabled(LOOP, 1, cfg)
        assert [run(u) for u in states[::order]] == fresh[::order]
    print(f"criterion 2: PASS contents 0..1000 all halt at zero "
          f"in {elapsed:.2f}s, alike through one shared table")


def test_criterion_3_empirical_soundness():
    rng = random.Random(20260826)
    started = time.perf_counter()
    disagreements = 0
    for i in range(1000):
        proof = proofgen.random_proof(rng)
        result = check_proof(proof, BCFG)
        assert result.accepted, (i, result.failures)
        assert not result.assumptions, (i, result.assumptions)
        verdict = holds(proof.conclusion, BCFG)
        if not verdict.is_holds:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    print(f"criterion 3: PASS 1000 accepted proofs, 0 disagreements "
          f"with the semantic checker ({elapsed:.1f}s)")


def test_criterion_4_cross_oracle_exhaustive():
    started = time.perf_counter()
    runs = 0
    for length in range(1, 5):
        for combo in itertools.product(_REG_ALPHABET, repeat=length):
            seg, term = make_canonical(combo, None), make_term(combo)
            for b in range(1, length + 1):
                outs = [run_canonical(seg, b, u, BCFG) for u in _REG_STATES]
                for e in range(0, 7):
                    # embed writes #b ; S ; sigma(e), sigma(e) being
                    # #0^(e-1) ; ! and empty at e = 0
                    suffix = ((Jump(0),) * (e - 1) + (Halt(),)) if e else ()
                    embedded = embed(term, b, e)
                    assert embedded == make_canonical(
                        (Jump(b),) + combo + suffix, None), (combo, b, e)
                    thread = extract(embedded)
                    for u, out in zip(_REG_STATES, outs):
                        runs += 1
                        res = apply(thread, u, BCFG)
                        converges = (isinstance(out, Halted)
                                     or (e > 0 and isinstance(out, Exited)
                                         and out.offset == e))
                        if converges:
                            assert res == out.state, (combo, b, e, u)
                        else:
                            assert not res.entries, (combo, b, e, u)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"criterion 4: PASS {runs} runs, interpreter and thread semantics "
          f"agree exactly ({elapsed:.1f}s)")


def test_criterion_5_no_exit_from_repetition():
    rng = random.Random(5)
    started = time.perf_counter()
    sampled = 0
    while sampled < 200:
        body = tuple(rng.choice(_REG_ALPHABET)
                     for _ in range(rng.randint(1, 5)))
        c = normalize(Repeat(make_term(body)))
        if c.length != OMEGA:
            continue
        outs = [run_canonical(c, 1, u, BCFG) for u in _REG_STATES]
        # an infinite segment can never exit
        assert not any(isinstance(o, Exited) for o in outs)
        # condition on a reachable halting run so the e > 0 judgment is
        # refuted non-vacuously rather than holding because every run is
        # inactive
        if not any(isinstance(o, Halted) for o in outs):
            continue
        sampled += 1
        for e in range(1, 6):
            phi = AssertedSeq(1, TRUE, Repeat(make_term(body)), e, TRUE)
            assert not holds(phi, BCFG).is_holds, (body, e)
    elapsed = time.perf_counter() - started
    print(f"criterion 5: PASS 200 sampled repetitions never satisfy a "
          f"positive exit ({elapsed:.1f}s)")


def make_term(instrs):
    t = Instr(instrs[-1])
    for i in reversed(instrs[:-1]):
        t = Concat(Instr(i), t)
    return t


def _random_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return Instr(rng.choice(_REG_ALPHABET))
    pick = rng.randrange(4)
    if pick == 0:
        return Concat(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if pick == 1:
        return Power(_random_term(rng, depth - 1), rng.randint(1, 3))
    if pick == 2:
        return Repeat(_random_term(rng, depth - 1))
    return _random_term(rng, depth - 1)


def _rewrite_pair(rng):
    x, y, z = (_random_term(rng) for _ in range(3))
    pick = rng.randrange(4)
    if pick == 0:
        lhs, rhs = Concat(Concat(x, y), z), Concat(x, Concat(y, z))
    elif pick == 1:
        lhs, rhs = Repeat(Power(x, rng.randint(1, 3))), Repeat(x)
    elif pick == 2:
        lhs, rhs = Concat(Repeat(x), y), Repeat(x)
    else:
        lhs, rhs = Repeat(Concat(x, y)), Concat(x, Repeat(Concat(y, x)))
    for _ in range(rng.randint(0, 2)):
        w = _random_term(rng, 1)
        wrap = rng.randrange(3)
        if wrap == 0:
            lhs, rhs = Concat(w, lhs), Concat(w, rhs)
        elif wrap == 1:
            lhs, rhs = Concat(lhs, w), Concat(rhs, w)
        else:
            lhs, rhs = Repeat(lhs), Repeat(rhs)
    return lhs, rhs


def _words_equal(a, b):
    """Exact equality of the denoted (eventually periodic) sequences."""
    ca, cb = normalize(a), normalize(b)
    if (ca.period is None) != (cb.period is None):
        return False
    if ca.period is None:
        return ca.prefix == cb.prefix
    n = (max(len(ca.prefix), len(cb.prefix))
         + math.lcm(len(ca.period), len(cb.period)))
    return all(ca.instruction_at(i) == cb.instruction_at(i)
               for i in range(1, n + 1))


def test_criterion_6_equational_laws():
    rng = random.Random(6)
    started = time.perf_counter()
    for _ in range(1000):
        lhs, rhs = _rewrite_pair(rng)
        assert normalize(lhs) == normalize(rhs), (lhs, rhs)
    agree = 0
    for _ in range(1000):
        a, b = _random_term(rng, 3), _random_term(rng, 3)
        assert (normalize(a) == normalize(b)) == _words_equal(a, b), (a, b)
        agree += 1
    elapsed = time.perf_counter() - started
    print(f"criterion 6: PASS 1000 rewrite pairs equal, {agree} random "
          f"pairs agree with word comparison ({elapsed:.1f}s)")


def _random_counter_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        pick = rng.randrange(4)
        if pick == 0:
            return TRUE
        if pick == 1:
            return Eq(Var("c"), Nnc(NatLit(rng.randint(0, 4))))
        if pick == 2:
            return Eq(ReplyT("iszero", Var("c")),
                      ReplyLit(rng.choice([Reply.T, Reply.F])))
        return FALSE
    if rng.random() < 0.3:
        return Not(_random_counter_formula(rng, depth - 1))
    from pga_hoare.formulas import And as AndF, Or as OrF
    op = rng.choice([AndF, OrF])
    return op(_random_counter_formula(rng, depth - 1),
              _random_counter_formula(rng, depth - 1))


def _axiom_instances(axiom, p, focus, method):
    reply = ReplyT(method, Var(focus))
    if axiom == "A1":
        pre = And(Not(Eq(reply, ReplyLit(Reply.D))),
                  ref_subst_derive(p, focus, method))
        return AssertedSeq(1, pre, Instr(Basic(focus, method)), 1, p)
    if axiom in ("A2", "A5", "A8"):
        cls = {"A2": Basic, "A5": PosTest, "A8": NegTest}[axiom]
        return AssertedSeq(1, Eq(reply, ReplyLit(Reply.D)),
                           Instr(cls(focus, method)), 0, FALSE)
    cls, rep, exit_ = {"A3": (PosTest, Reply.T, 1),
                       "A4": (PosTest, Reply.F, 2),
                       "A6": (NegTest, Reply.T, 2),
                       "A7": (NegTest, Reply.F, 1)}[axiom]
    pre = And(Eq(reply, ReplyLit(rep)), ref_subst_derive(p, focus, method))
    return AssertedSeq(1, pre, Instr(cls(focus, method)), exit_, p)


def test_criterion_7_axioms_hold_semantically():
    rng = random.Random(7)
    started = time.perf_counter()
    checked = 0
    setups = [
        (AlgebraConfig("counter", state_bound=8, quant_bound=8), "c",
         ["incr", "decr", "iszero"], _random_counter_formula),
        (BCFG, "r", ["get", "set:t", "set:f"],
         lambda r, depth=2: proofgen.random_formula(r, depth)),
    ]
    for cfg, focus, methods, gen in setups:
        for axiom in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"):
            for _ in range(20):
                p = gen(rng)
                phi = _axiom_instances(axiom, p, focus, rng.choice(methods))
                v = holds(phi, cfg)
                assert v.is_holds, (axiom, cfg.algebra, p, v)
                checked += 1
        for _ in range(20):
            p = gen(rng)
            off = rng.randint(1, 4)
            a9 = AssertedSeq(1, p, Instr(Jump(off)), off, p)
            a10 = AssertedSeq(1, TRUE, Instr(Jump(0)), 0, FALSE)
            a11 = AssertedSeq(1, p, Instr(Halt()), 0, p)
            for phi in (a9, a10, a11):
                v = holds(phi, cfg)
                assert v.is_holds, (cfg.algebra, phi, v)
                checked += 3
    elapsed = time.perf_counter() - started
    print(f"criterion 7: PASS {checked} axiom instances hold over both "
          f"algebras ({elapsed:.1f}s)")
