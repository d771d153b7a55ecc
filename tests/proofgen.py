"""Forward proof generation over the boolean-register algebra.

Starts from a random axiom instance and applies randomly chosen applicable
rules, producing proof trees of bounded depth.  Every generated tree is
accepted by the checker by construction (that is asserted elsewhere), and
all entailment obligations are exhaustively valid, so the trees carry no
bounded assumptions.
"""

import random

from pga_hoare.formulas import (And, BoolLit, DeriveT, Eq, Exists, FALSE,
                                Implies, Not, Or, RegOf, Reply, ReplyLit,
                                ReplyT, TRUE, Var, format_formula)
from pga_hoare.judgments import AssertedSeq
from pga_hoare.proofs import ProofNode, term_atoms
from pga_hoare.syntax import (Basic, Concat, Halt, Instr, Jump, NegTest,
                              PosTest, Repeat, concat_all, format_term,
                              is_rep)

from refparsers import ref_subst_derive

FOCI = ("r", "q")
METHODS = ("get", "set:t", "set:f")


def random_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        f = Var(rng.choice(FOCI))
        pick = rng.randrange(5)
        if pick == 0:
            return TRUE
        if pick == 1:
            return Eq(f, RegOf(BoolLit(rng.random() < 0.5)))
        if pick == 2:
            return Eq(ReplyT("get", f),
                      ReplyLit(rng.choice([Reply.T, Reply.F])))
        if pick == 3:
            return Eq(DeriveT(rng.choice(METHODS), f),
                      RegOf(BoolLit(rng.random() < 0.5)))
        return FALSE
    if rng.random() < 0.2:
        return Not(random_formula(rng, depth - 1))
    op = rng.choice([And, Or, Implies])
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_axiom(rng) -> ProofNode:
    kind = rng.choice(["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
                       "A9", "A10", "A11"])
    f = rng.choice(FOCI)
    m = rng.choice(METHODS)
    p = random_formula(rng)
    reply = ReplyT(m, Var(f))
    if kind == "A1":
        pre = And(Not(Eq(reply, ReplyLit(Reply.D))),
                  ref_subst_derive(p, f, m))
        concl = AssertedSeq(1, pre, Instr(Basic(f, m)), 1, p)
    elif kind in ("A2", "A5", "A8"):
        instr = {"A2": Basic, "A5": PosTest, "A8": NegTest}[kind](f, m)
        concl = AssertedSeq(1, Eq(reply, ReplyLit(Reply.D)), Instr(instr), 0,
                            FALSE)
    elif kind in ("A3", "A4", "A6", "A7"):
        instr_cls, rep, exit_ = {
            "A3": (PosTest, Reply.T, 1), "A4": (PosTest, Reply.F, 2),
            "A6": (NegTest, Reply.T, 2), "A7": (NegTest, Reply.F, 1),
        }[kind]
        pre = And(Eq(reply, ReplyLit(rep)), ref_subst_derive(p, f, m))
        concl = AssertedSeq(1, pre, Instr(instr_cls(f, m)), exit_, p)
    elif kind == "A9":
        off = rng.randint(1, 4)
        concl = AssertedSeq(1, p, Instr(Jump(off)), off, p)
    elif kind == "A10":
        concl = AssertedSeq(1, TRUE, Instr(Jump(0)), 0, FALSE)
    else:
        concl = AssertedSeq(1, p, Instr(Halt()), 0, p)
    return ProofNode(kind, concl)


_TAIL = [Instr(Basic("r", "get")), Instr(PosTest("q", "get")),
         Instr(Basic("q", "set:t")), Instr(Jump(0)), Instr(Jump(2)),
         Instr(Halt())]


def _random_tail(rng, n):
    return concat_all([rng.choice(_TAIL) for _ in range(n)])


def _grow(rng, node: ProofNode):
    """One random applicable rule application on top of node, or None."""
    c = node.conclusion
    finite = not any(map(is_rep, term_atoms(c.term)))
    moves = []

    if c.exit == 0 and finite:
        def r3():
            tail = _random_tail(rng, rng.randint(1, 2))
            return ProofNode("R3", AssertedSeq(c.entry, c.pre,
                                               Concat(c.term, tail), 0,
                                               c.post), (node,))
        moves.append(r3)

        def repintro():
            return ProofNode("REPINTRO",
                             AssertedSeq(c.entry, c.pre, Repeat(c.term), 0,
                                         c.post), (node,))
        moves.append(repintro)

    if c.exit >= 2 and finite:
        def r2():
            n = rng.randint(1, c.exit - 1)
            tail = _random_tail(rng, n)
            return ProofNode("R2", AssertedSeq(c.entry, c.pre,
                                               Concat(c.term, tail),
                                               c.exit - n, c.post), (node,))
        moves.append(r2)

    if finite:
        def r4():
            n = rng.randint(1, 2)
            head = _random_tail(rng, n)
            return ProofNode("R4", AssertedSeq(c.entry + n, c.pre,
                                               Concat(head, c.term), c.exit,
                                               c.post), (node,))
        moves.append(r4)

    if c.exit == 1 and finite:
        def r1():
            if rng.random() < 0.5:
                off = rng.randint(1, 3)
                ax = ProofNode("A9", AssertedSeq(1, c.post, Instr(Jump(off)),
                                                 off, c.post))
            else:
                ax = ProofNode("A11", AssertedSeq(1, c.post, Instr(Halt()),
                                                  0, c.post))
            tail = ax.conclusion
            return ProofNode("R1", AssertedSeq(c.entry, c.pre,
                                               Concat(c.term, tail.term),
                                               tail.exit, tail.post),
                             (node, ax))
        moves.append(r1)

    def r6():
        extra = random_formula(rng, 1)
        side = ProofNode("R10",
                         AssertedSeq(c.entry, And(c.pre, extra), c.term,
                                     c.exit, c.post),
                         (node,),
                         obligations=(Implies(And(c.pre, extra), c.pre),
                                      Implies(c.post, c.post)))
        return ProofNode("R6", AssertedSeq(c.entry,
                                           Or(c.pre, And(c.pre, extra)),
                                           c.term, c.exit, c.post),
                         (node, side))
    moves.append(r6)

    def r10():
        a = random_formula(rng, 1)
        b = random_formula(rng, 1)
        return ProofNode("R10", AssertedSeq(c.entry, And(c.pre, a), c.term,
                                            c.exit, Or(c.post, b)),
                         (node,),
                         obligations=(Implies(And(c.pre, a), c.pre),
                                      Implies(c.post, Or(c.post, b))))
    moves.append(r10)

    def r8():
        return ProofNode("R8", AssertedSeq(c.entry,
                                           Exists("w0", "bool", c.pre),
                                           c.term, c.exit, c.post), (node,))
    moves.append(r8)

    return rng.choice(moves)()


def random_proof(rng, max_depth=4) -> ProofNode:
    node = random_axiom(rng)
    for _ in range(rng.randint(0, max_depth - 1)):
        node = _grow(rng, node)
    return node


def format_grouped(f) -> str:
    """Formula text with every operand parenthesized, as counter_zero.proof
    and perfbench's register proofs write it."""
    if isinstance(f, Not):
        return f"~({format_grouped(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var}:{f.sort}. ({format_grouped(f.body)})"
    if isinstance(f, (And, Or, Implies)):
        op = {And: "/\\", Or: "\\/", Implies: "->"}[type(f)]
        return f"({format_grouped(f.left)}) {op} ({format_grouped(f.right)})"
    return format_formula(f)


def format_proof(root: ProofNode, grouped: bool = False) -> str:
    """Proof-file text for the tree: one binding per node, premises and
    hypotheses' subproofs first, the root last; with grouped, every
    operand of a formula is parenthesized."""
    fmt = format_grouped if grouped else format_formula
    names = {}
    lines = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in names:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node.premises))
            continue
        names[id(node)] = name = f"n{len(names)}"
        lines.append(f"{name} := {_record(node, names, fmt)}")
    return "\n".join(lines) + "\n"


def _record(node: ProofNode, names, fmt) -> str:
    def asserted(a):
        return (f"{{{a.entry} | {fmt(a.pre)}}} \"{format_term(a.term)}\" "
                f"{{{a.exit} | {fmt(a.post)}}}")

    premises = " ".join(names[id(p)] for p in node.premises)
    if node.rule == "HYP":
        return f"(HYP {node.hyp_index})"
    if node.rule == "R5":
        hyps = " ".join(asserted(h) for h in node.hyps)
        return f"(R5 hyps [{hyps}] k {node.k} subproofs [{premises}])"
    concl = asserted(node.conclusion)
    if node.rule.startswith("A"):
        return f"({node.rule} {concl})"
    if node.rule == "R10":
        p, q = (fmt(f) for f in node.obligations)
        return f'(R10 "{p}" {premises} "{q}" => {concl})'
    if node.rule == "R9":
        x, y = node.rename
        return f"(R9 {x} {y} {premises} => {concl})"
    return f"({node.rule} {premises} => {concl})"
