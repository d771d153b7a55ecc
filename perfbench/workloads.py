"""Seeded input generators for the benchmark workloads.

Every workload is an endless stream of rounds.  A round is a fixed list of
op templates, shuffled into a seeded order.  The sizes of each template
follow a golden-ratio sequence from a seeded start, so any run of rounds
covers the template's size range evenly.  Every stretch of rounds therefore
has nearly the same mix and cost, which keeps the figures steady across
seeds.

Each op carries its known answer, written down here rather than computed by
the code under test.  This module imports nothing from pga_hoare, so the
inputs (and their digest) depend on the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import random

COUNTDOWN = "(-c.iszero ; #2 ; ! ; c.decr)^w"
TRANSFER = "(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w"
PROOF_FILE = "counter_zero.proof"

# Rounds hashed into the digest printed with every result.
DIGEST_ROUNDS = 32


class _Sizes:
    """Integers in [lo, hi] spread evenly by the golden-ratio sequence."""

    _STEP = (5 ** 0.5 - 1) / 2

    def __init__(self, rng, lo, hi):
        self.lo, self.span = lo, hi - lo + 1
        self.x = rng.random()

    def take(self, k):
        out = []
        for _ in range(k):
            self.x = (self.x + self._STEP) % 1.0
            out.append(self.lo + int(self.span * self.x))
        return out


# ---------------------------------------------------------------------------
# counter-loops: in-process `pga holds` / `pga sp` on counter loops


def _holds(bound, loop, post, verdict):
    return {"kind": "cli",
            "argv": ["--bound", str(bound), "holds",
                     f"{{1 | true}} {loop} {{0 | {post}}}"],
            "status": 0 if verdict == "HOLDS" else 1,
            "lines": [verdict]}


def _sp(bound):
    return {"kind": "cli",
            "argv": ["--bound", str(bound), "sp", "true", COUNTDOWN],
            "status": 0,
            "lines": ["states: 1", "  {c = counter(0)}",
                      "formula: c = nnc(0)"]}


class CounterLoops:
    def __init__(self, rng):
        self.rng = rng
        self.countdown = _Sizes(rng, 200, 500)
        self.transfer = _Sizes(rng, 30, 50)
        self.sp = _Sizes(rng, 150, 300)
        self.wrong = _Sizes(rng, 200, 500)

    def round(self):
        # The countdown halts with c = 0 from every c; the transfer loop moves
        # c into d and halts with c = 0 as well; so no run ends with c = 1.
        ops = [_holds(b, COUNTDOWN, "c = nnc(0)", "HOLDS")
               for b in self.countdown.take(4)]
        ops += [_holds(b, TRANSFER, "c = nnc(0)", "HOLDS")
                for b in self.transfer.take(2)]
        ops += [_sp(b) for b in self.sp.take(2)]
        ops += [_holds(b, COUNTDOWN, "c = nnc(1)", "FAILS")
                for b in self.wrong.take(1)]
        self.rng.shuffle(ops)
        return ops


def counter_loops_warmup():
    return _holds(200, COUNTDOWN, "c = nnc(0)", "HOLDS")


# ---------------------------------------------------------------------------
# proof-check: in-process `pga check` of the counter-to-zero proof


def _check(bound, qbound, strict):
    # With B <= Q + 1 every bounded obligation of the proof is discharged, so
    # the proof is accepted; --strict refuses those bounded obligations.
    argv = ["--bound", str(bound), "--qbound", str(qbound)]
    if strict:
        argv.append("--strict")
    return {"kind": "cli",
            "argv": argv + ["check", PROOF_FILE],
            "status": 1 if strict else 0,
            "lines": ["REJECTED" if strict else "ACCEPTED"]}


class ProofCheck:
    def __init__(self, rng):
        self.rng = rng
        self.bounds = _Sizes(rng, 24, 72)
        self.slack = _Sizes(rng, 0, 8)

    def round(self):
        strict = self.rng.sample(range(8), 2)
        ops = [_check(b, b - 1 + q, i in strict)
               for i, (b, q) in enumerate(zip(self.bounds.take(8),
                                              self.slack.take(8)))]
        self.rng.shuffle(ops)
        return ops


def proof_check_warmup():
    return _check(24, 32, False)


# ---------------------------------------------------------------------------
# register-sweep: cross-oracle segments and generated register proofs

_SEGMENT_ALPHABET = (["r.get", "+r.get", "-r.get", "r.set:t", "r.set:f", "!"]
                     + [f"#{i}" for i in range(6)])


def _oracle(rng, length):
    return {"kind": "oracle",
            "segment": " ; ".join(rng.choice(_SEGMENT_ALPHABET)
                                  for _ in range(length))}


# Formulas are tuples: ("true",), ("false",), ("eq", t, t), ("not", f),
# ("and"|"or"|"imp", f, f), ("exists", var, sort, f).  Terms are ("var", x),
# ("reg", bool), ("lit", "t"|"f"|"d"), ("r"|"d", method, t).

FOCI = ("r", "q")
METHODS = ("get", "set:t", "set:f")
TRUE, FALSE = ("true",), ("false",)


def _fmt_term(t):
    if t[0] == "var":
        return t[1]
    if t[0] == "reg":
        return f"reg({'true' if t[1] else 'false'})"
    if t[0] == "lit":
        return ":" + t[1]
    return f"{t[0]}[{t[1]}]({_fmt_term(t[2])})"


_CONNECTIVE = {"and": "/\\", "or": "\\/", "imp": "->"}


def fmt(f):
    """Formula text; every operand is parenthesized, so no precedence applies."""
    if f[0] in ("true", "false"):
        return f[0]
    if f[0] == "eq":
        return f"{_fmt_term(f[1])} = {_fmt_term(f[2])}"
    if f[0] == "not":
        return f"~({fmt(f[1])})"
    if f[0] == "exists":
        return f"exists {f[1]}:{f[2]}. ({fmt(f[3])})"
    return f"({fmt(f[1])}) {_CONNECTIVE[f[0]]} ({fmt(f[2])})"


def _derive_term(t, focus, method):
    if t[0] == "var":
        return ("d", method, t) if t[1] == focus else t
    if t[0] in ("r", "d"):
        return (t[0], t[1], _derive_term(t[2], focus, method))
    return t


def derive(f, focus, method):
    """P with the focus replaced by its derived service d[m](focus).

    Only applied to quantifier-free formulas, so no capture can occur.
    """
    if f[0] in ("true", "false"):
        return f
    if f[0] == "eq":
        return ("eq", _derive_term(f[1], focus, method),
                _derive_term(f[2], focus, method))
    return (f[0],) + tuple(derive(g, focus, method) for g in f[1:])


def _random_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        x = ("var", rng.choice(FOCI))
        pick = rng.randrange(5)
        if pick == 0:
            return TRUE
        if pick == 1:
            return ("eq", x, ("reg", rng.random() < 0.5))
        if pick == 2:
            return ("eq", ("r", "get", x), ("lit", rng.choice("tf")))
        if pick == 3:
            return ("eq", ("d", rng.choice(METHODS), x),
                    ("reg", rng.random() < 0.5))
        return FALSE
    if rng.random() < 0.2:
        return ("not", _random_formula(rng, depth - 1))
    return (rng.choice(("and", "or", "imp")), _random_formula(rng, depth - 1),
            _random_formula(rng, depth - 1))


# A judgment is (entry, pre, atoms, exit, post); atoms is a tuple of
# instruction strings, or ("rep", body-atoms) for a repetition.


def _seq_text(atoms):
    if atoms and atoms[0] == "rep":
        return f"({_seq_text(atoms[1])})^w"
    return " ; ".join(atoms)


def _judgment_text(j):
    entry, pre, atoms, exit_, post = j
    return f'{{{entry} | {fmt(pre)}}} "{_seq_text(atoms)}" {{{exit_} | {fmt(post)}}}'


_TEST_AXIOMS = {"A3": ("+", "t", 1), "A4": ("+", "f", 2),
                "A6": ("-", "t", 2), "A7": ("-", "f", 1)}
_DIVERGENCE_AXIOMS = {"A2": "", "A5": "+", "A8": "-"}
_TAIL = ("r.get", "+q.get", "q.set:t", "#0", "#2", "!")


class _ProofWriter:
    """Emits `name := (RULE ...)` bindings; the last one is the root."""

    def __init__(self):
        self.lines = []

    def bind(self, body, concl):
        name = f"n{len(self.lines)}"
        self.lines.append(f"{name} := ({body})")
        return name, concl

    def text(self):
        return "\n".join(self.lines) + "\n"


def _random_axiom(rng, w):
    kind = rng.choice([f"A{i}" for i in range(1, 12)])
    focus = rng.choice(FOCI)
    method = rng.choice(METHODS)
    p = _random_formula(rng)
    reply = ("r", method, ("var", focus))
    if kind == "A1":
        pre = ("and", ("not", ("eq", reply, ("lit", "d"))),
               derive(p, focus, method))
        concl = (1, pre, (f"{focus}.{method}",), 1, p)
    elif kind in _DIVERGENCE_AXIOMS:
        instr = f"{_DIVERGENCE_AXIOMS[kind]}{focus}.{method}"
        concl = (1, ("eq", reply, ("lit", "d")), (instr,), 0, FALSE)
    elif kind in _TEST_AXIOMS:
        sign, lit, exit_ = _TEST_AXIOMS[kind]
        pre = ("and", ("eq", reply, ("lit", lit)), derive(p, focus, method))
        concl = (1, pre, (f"{sign}{focus}.{method}",), exit_, p)
    elif kind == "A9":
        off = rng.randint(1, 4)
        concl = (1, p, (f"#{off}",), off, p)
    elif kind == "A10":
        concl = (1, TRUE, ("#0",), 0, FALSE)
    else:
        concl = (1, p, ("!",), 0, p)
    return w.bind(f"{kind} {_judgment_text(concl)}", concl)


def _grow(rng, w, node):
    """One randomly chosen applicable rule on top of node."""
    name, (entry, pre, atoms, exit_, post) = node
    finite = not (atoms and atoms[0] == "rep")

    def tail(n):
        return tuple(rng.choice(_TAIL) for _ in range(n))

    def rule(label, premises, concl):
        return w.bind(f"{label} {' '.join(premises)} => {_judgment_text(concl)}",
                      concl)

    moves = []
    if exit_ == 0 and finite:
        moves.append(lambda: rule("R3", [name], (
            entry, pre, atoms + tail(rng.randint(1, 2)), 0, post)))
        moves.append(lambda: rule("REPINTRO", [name], (
            entry, pre, ("rep", atoms), 0, post)))
    if exit_ >= 2 and finite:
        def r2():
            n = rng.randint(1, exit_ - 1)
            return rule("R2", [name], (entry, pre, atoms + tail(n),
                                       exit_ - n, post))
        moves.append(r2)
    if finite:
        def r4():
            head = tail(rng.randint(1, 2))
            return rule("R4", [name], (entry + len(head), pre, head + atoms,
                                       exit_, post))
        moves.append(r4)
    if exit_ == 1 and finite:
        def r1():
            if rng.random() < 0.5:
                off = rng.randint(1, 3)
                ax = (1, post, (f"#{off}",), off, post)
                label = "A9"
            else:
                ax = (1, post, ("!",), 0, post)
                label = "A11"
            ax_name, _ = w.bind(f"{label} {_judgment_text(ax)}", ax)
            return rule("R1", [name, ax_name], (entry, pre, atoms + ax[2],
                                                ax[3], post))
        moves.append(r1)

    def weaken(premise, new_pre, new_post):
        concl = (entry, new_pre, atoms, exit_, new_post)
        body = (f'R10 "{fmt(("imp", new_pre, pre))}" {premise} '
                f'"{fmt(("imp", post, new_post))}" => {_judgment_text(concl)}')
        return w.bind(body, concl)

    def r6():
        extra = _random_formula(rng, 1)
        side, _ = weaken(name, ("and", pre, extra), post)
        return rule("R6", [name, side], (entry, ("or", pre, ("and", pre, extra)),
                                         atoms, exit_, post))
    moves.append(r6)
    moves.append(lambda: weaken(name, ("and", pre, _random_formula(rng, 1)),
                                ("or", post, _random_formula(rng, 1))))
    moves.append(lambda: rule("R8", [name], (
        entry, ("exists", "w0", "bool", pre), atoms, exit_, post)))
    return rng.choice(moves)()


def register_proof_text(rng, steps):
    """A proof over the boolean register: an axiom and `steps` rule uses.

    Every entailment obligation is exhaustively valid over the register, so
    the checker must accept it with no bounded assumptions, and its
    conclusion must hold.
    """
    w = _ProofWriter()
    node = _random_axiom(rng, w)
    for _ in range(steps):
        node = _grow(rng, w, node)
    return w.text()


class RegisterSweep:
    def __init__(self, rng):
        self.rng = rng

    def round(self):
        rng = self.rng
        ops = [_oracle(rng, n) for n in (1, 2, 3, 4, 1, 2, 3, 4)]
        ops += [{"kind": "proof", "text": register_proof_text(rng, steps)}
                for steps in (0, 1, 2, 3, 0, 1, 2, 3)]
        rng.shuffle(ops)
        return ops


def register_sweep_warmup():
    return {"kind": "oracle", "segment": "+r.get ; #2 ; r.set:t ; !"}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "counter-loops": (CounterLoops, counter_loops_warmup),
    "proof-check": (ProofCheck, proof_check_warmup),
    "register-sweep": (RegisterSweep, register_sweep_warmup),
}


def rounds(workload, seed):
    """The workload's endless round stream for this seed."""
    stream = WORKLOADS[workload][0](random.Random(f"{workload}/{seed}"))
    while True:
        yield stream.round()


def warmup(workload):
    return WORKLOADS[workload][1]()


def digest(workload, seed):
    """Short hash of the first DIGEST_ROUNDS rounds of the stream."""
    h = hashlib.sha256()
    stream = rounds(workload, seed)
    for _ in range(DIGEST_ROUNDS):
        h.update(json.dumps(next(stream), sort_keys=True).encode())
    return h.hexdigest()[:16]
