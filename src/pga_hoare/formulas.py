"""First-order assertions over the service-algebra signature.

Foci appear as free service-sorted variables.  Terms cover the built-in
algebras (counter: 0, s, p, nnc; boolean register: reg) plus the derive and
reply operators d[m](t) and r[m](t) and the reply literals :t/:f/:d.

Evaluation is three-valued: True, False, or None when a truncated quantifier
domain is the deciding factor.  The entailment oracle enumerates states and
valuations within the configured bounds and reports how far its answer can
be trusted.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, Optional, Tuple, Union

from .services import (EMPTY, AlgebraConfig, Reply, Service, ServiceFamily,
                       boolreg, counter, svc_step)
from .lexer import EOF, MAX_DEPTH, ParseError, Tokens, TOO_DEEP, numeral
from .records import record

SORTS = ("nat", "bool", "serv", "repl")


class FormulaSyntaxError(ParseError):
    pass


class SortError(ValueError):
    pass


# ---------------------------------------------------------------------------
# terms


@record
class Var:
    name: str


@record
class NatLit:
    value: int


@record
class BoolLit:
    value: bool


@record
class ReplyLit:
    value: Reply


@record
class Succ:
    arg: "Term"


@record
class Pred:
    arg: "Term"


@record
class Nnc:
    arg: "Term"


@record
class RegOf:
    arg: "Term"


@record
class EmptyServ:
    pass


@record
class DeriveT:
    method: str
    arg: "Term"


@record
class ReplyT:
    method: str
    arg: "Term"


Term = Union[Var, NatLit, BoolLit, ReplyLit, Succ, Pred, Nnc, RegOf,
             EmptyServ, DeriveT, ReplyT]
# a term is a chain of operators around one of these
_LEAVES = frozenset((Var, NatLit, BoolLit, ReplyLit, EmptyServ))
_STEP_PART = {DeriveT: 1, ReplyT: 0}  # the derived service, or the reply


# ---------------------------------------------------------------------------
# formulas


@record
class TrueF:
    pass


@record
class FalseF:
    pass


@record
class Not:
    body: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


@record
class Implies:
    left: "Formula"
    right: "Formula"


@record
class Eq:
    left: Term
    right: Term


@record
class Exists:
    var: str
    sort: str
    body: "Formula"


@record
class Forall:
    var: str
    sort: str
    body: "Formula"


Formula = Union[TrueF, FalseF, Not, And, Or, Implies, Eq, Exists, Forall]

TRUE = TrueF()
FALSE = FalseF()


# ---------------------------------------------------------------------------
# parsing

_SYMBOLS = frozenset(("->", "/\\", "\\/", "~", "(", ")", "[", "]", "=", ".",
                      ":"))


def _is_name(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


def _as_lexed(tok: str):
    """The token in formula terms: a symbol, ("num", n),
    ("ident", name) or ("eof", None); None if no formula has it."""
    if tok in _SYMBOLS:
        return tok
    if tok == EOF:
        return ("eof", None)
    if tok[0].isdecimal():
        return ("num", numeral(tok))
    return ("ident", tok) if _is_name(tok) else None


def _formula_tokens(src: Tokens) -> list:
    """(token, position) pairs of a formula text, as _as_lexed gives them
    (":=" is ":" and "="); raises at the first character that no formula
    token starts with."""
    out = []
    for i, tok in enumerate(src.toks):
        pos = src.start(i)
        if tok in (":=", "=>"):
            out.append((tok[0], pos))
            tok, pos = tok[1], pos + 1
        if _as_lexed(tok) is None:
            raise FormulaSyntaxError(f"unexpected character {tok[0]!r}", pos)
        out.append((_as_lexed(tok), pos))
    return out


def _fail(message: str, src: Tokens, i: int):
    tok = src.toks[i]
    if _as_lexed(tok) is None:
        message = f"unexpected character {tok[0]!r}"
    raise FormulaSyntaxError(message, src.start(i))


# Operators waiting on the parser's stack: (precedence, make, operands).
# "->" nests to the right; a quantifier's body reaches as far as it can.
_BINARY = {"/\\": (3, And, 2), "\\/": (2, Or, 2), "->": (1, Implies, 2)}
_NOT = (4, Not, 1)
_PAREN = (-1, None, 1)
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_WRAPPERS = {"s": Succ, "p": Pred, "nnc": Nnc, "reg": RegOf}
_DERIVED = {"d": DeriveT, "r": ReplyT}
_CONSTANTS = {"empty": EmptyServ(), "true": BoolLit(True),
              "false": BoolLit(False)}
_TRUTHS = {"true": TRUE, "false": FALSE}
_REPLIES = {r.value: ReplyLit(r) for r in Reply}


def _term_at(src: Tokens, i: int):
    """The term at token i, its depth, and the index after it; the
    operators around the innermost term wait on a list until it is read."""
    toks = src.toks
    outer = []
    tok = toks[i]
    while tok in _WRAPPERS and toks[i + 1] == "(" or (
            tok in _DERIVED and toks[i + 1] == "["):
        if toks[i + 1] == "(":
            outer.append(_WRAPPERS[tok])
            i += 2
        else:
            # a method name: names joined by ":", e.g. set:t
            if not _is_name(toks[i + 2]):
                _fail("expected a method name", src, i + 2)
            method, i = toks[i + 2], i + 3
            while toks[i] == ":" and _is_name(toks[i + 1]):
                method, i = method + ":" + toks[i + 1], i + 2
            if toks[i] != "]" or toks[i + 1] != "(":
                _fail("expected '](' after a method name", src, i)
            outer.append(partial(_DERIVED[tok], method))
            i += 2
        tok = toks[i]
    if tok[0].isalpha() or tok[0] == "_":
        term = _CONSTANTS.get(tok) or Var(tok)
    elif tok[0].isdecimal():
        term = NatLit(numeral(tok))
    elif tok == ":" and toks[i + 1] in _REPLIES:
        i += 1
        term = _REPLIES[toks[i]]
    else:
        _fail("expected a term (:t, :f or :d after ':')", src, i)
    i += 1
    if len(outer) >= MAX_DEPTH:
        raise ValueError(TOO_DEEP)
    for make in reversed(outer):
        if toks[i] != ")":
            _fail("expected ')'", src, i)
        term = make(term)
        i += 1
    return term, len(outer) + 1, i


def _reduce(op, args):
    """Apply the operator taken off the stack to its operands; a closing
    parenthesis applies no constructor but still counts a level."""
    _, make, operands = op
    f, depth = args.pop()
    if operands == 2:
        left, left_depth = args.pop()
        f, depth = make(left, f), max(depth, left_depth)
    elif make is not None:
        f = make(f)
    if depth >= MAX_DEPTH:
        raise ValueError(TOO_DEEP)
    args.append((f, depth + 1))


def _group_end(toks: list, i: int):
    """The index of the ")" closing the "(" at token i, or None."""
    end, depth = i, 1
    while depth:
        start = end + 1
        try:
            end = toks.index(")", start)
        except ValueError:
            return None
        depth += toks[start:end].count("(") - 1
    return end


def formula_at(src: Tokens, i: int, table=None):
    """(formula, depth) starting at token i and the index after it, by
    precedence climbing on an explicit stack of waiting operators.

    A table maps the text of formulas read before, their tokens joined by
    spaces, to (formula, depth).  A parenthesized group in no other group
    is taken from it if it holds the group's text, counting its depth, and
    added to it if not.  Groups inside groups are not keyed, so the keys
    cost one pass over the tokens however deep the nesting."""
    toks = src.toks
    ops = []
    args = []  # (formula, depth)
    keys = []  # per open group, its key or None
    while True:
        tok = toks[i]
        hit = None
        while tok == "~" or tok == "(" or tok in _QUANTIFIERS:
            if tok in _QUANTIFIERS:
                var, colon, sort, dot = (toks[i + 1:i + 5] + [EOF] * 3)[:4]
                for k, ok, what in ((1, _is_name(var), "a variable"),
                                    (2, colon == ":", "':'"),
                                    (3, sort in SORTS, "a sort"),
                                    (4, dot == ".", "'.'")):
                    if not ok:
                        _fail(f"expected {what}", src, i + k)
                ops.append((0, partial(_QUANTIFIERS[tok], var, sort), 1))
                i += 4
            elif tok == "~":
                ops.append(_NOT)
            else:
                key = None
                if table is not None and not keys:
                    end = _group_end(toks, i)
                    key = None if end is None else " ".join(toks[i + 1:end])
                    hit = table.get(key)
                    if hit is not None:
                        break
                keys.append(key)
                ops.append(_PAREN)
            i += 1
            tok = toks[i]
        if hit is not None:
            if hit[1] >= MAX_DEPTH:
                raise ValueError(TOO_DEEP)
            args.append((hit[0], hit[1] + 1))
            i = end + 1
        elif tok in _TRUTHS and toks[i + 1] != "=":
            args.append((_TRUTHS[tok], 1))
            i += 1
        else:
            left, left_depth, i = _term_at(src, i)
            if toks[i] != "=":
                _fail("expected '='", src, i)
            right, right_depth, i = _term_at(src, i + 1)
            args.append((Eq(left, right), max(left_depth, right_depth) + 1))
        while toks[i] not in _BINARY:
            while ops and ops[-1] is not _PAREN:
                _reduce(ops.pop(), args)
            if not ops:
                return args[0], i
            if toks[i] != ")":
                _fail("expected ')'", src, i)
            key = keys.pop()
            if key is not None:
                table[key] = args[-1]
            _reduce(ops.pop(), args)
            i += 1
        op = _BINARY[toks[i]]
        while ops and (ops[-1][0] > op[0] or ops[-1][0] == op[0] != 1):
            _reduce(ops.pop(), args)
        ops.append(op)
        i += 1


def formula_of(src: Tokens, i: int = 0, table=None) -> Formula:
    """The formula from token i to the end of src, taken from the table
    (see formula_at) if it holds that text, else read and added to it."""
    if table is not None:
        key = " ".join(src.toks[i:-1])
        if key in table:
            return table[key][0]
    read, i = formula_at(src, i, table)
    if src.toks[i] != EOF:
        _fail("trailing input", src, i)
    if table is not None:
        table[key] = read
    return read[0]


def parse_formula(text: str) -> Formula:
    src = Tokens(text)
    try:
        return formula_of(src)
    except ValueError:
        # the first character that no formula token starts with is the
        # error, wherever the parse stopped
        _formula_tokens(src)
        raise


# ---------------------------------------------------------------------------
# printing


_TERM_OP_TEXT = {Succ: "s", Pred: "p", Nnc: "nnc", RegOf: "reg", DeriveT: "d",
                 ReplyT: "r"}


def format_term(t: Term) -> str:
    opened, depth = "", 0  # the operators around the innermost term
    while (name := _TERM_OP_TEXT.get(type(t))) is not None:
        if type(t) in _STEP_PART:
            name += f"[{t.method}]"
        opened += name + "("
        depth += 1
        t = t.arg
    if isinstance(t, Var):
        leaf = t.name
    elif isinstance(t, NatLit):
        leaf = str(t.value)
    elif isinstance(t, BoolLit):
        leaf = "true" if t.value else "false"
    elif isinstance(t, ReplyLit):
        leaf = ":" + t.value.value
    elif isinstance(t, EmptyServ):
        leaf = "empty"
    else:
        raise TypeError(f"not a term: {t!r}")
    return opened + leaf + ")" * depth


_CONNECTIVE_TEXT = {And: " /\\ ", Or: " \\/ ", Implies: " -> "}
_QUANTIFIER_TEXT = {Exists: "exists", Forall: "forall"}
# texts and operands printed without parentheses
_PLAIN = frozenset((str, TrueF, FalseF, Eq, Not))


def format_formula(f: Formula) -> str:
    """The text of f, which parse_formula reads back as f.  The walk keeps
    its own stack of subformulas and texts still to print, so an image of
    thousands of states prints without recursion."""
    out, stack = [], [f]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is str:
            out.append(f)
            continue
        if kind is Eq:
            out.append(f"{format_term(f.left)} = {format_term(f.right)}")
            continue
        if kind is TrueF or kind is FalseF:
            out.append("true" if kind is TrueF else "false")
            continue
        if kind in _QUANTIFIER_TEXT:
            out.append(f"{_QUANTIFIER_TEXT[kind]} {f.var}:{f.sort}. ")
            stack.append(f.body)
            continue
        if kind is Not:
            out.append("~")
            parts = (f.body,)
        elif kind in _CONNECTIVE_TEXT:
            parts = (f.right, _CONNECTIVE_TEXT[kind], f.left)
        else:
            raise TypeError(f"not a formula: {f!r}")
        for g in parts:  # pushed last to first
            if type(g) in _PLAIN:
                stack.append(g)
            else:
                stack += (")", g, "(")
    return "".join(out)


# ---------------------------------------------------------------------------
# alpha-equivalence, under a substitution
#
# Bound variables compare by the depth of the quantifier that binds them,
# free ones by name (de Bruijn, "Lambda calculus notation with nameless
# dummies", Indag. Math. 1972).  A substituted term is then compared where
# it stands, its variables free whatever binds around it, so substitution
# avoids capture without renaming and builds no formula.


def _alpha_term(a: Term, b: Term, bound_a, bound_b, name, repl) -> bool:
    """Terms are chains around one leaf: compared link by link.  Where b's
    chain reaches a `name` that b's side does not bind, the rest of a's
    chain is compared with repl's, under no binder."""
    while True:
        kind = type(b)
        if kind is Var and b.name == name and name not in bound_b:
            b, bound_b, name = repl, {}, None
            continue
        if type(a) is not kind:
            return False
        if kind is Var:
            ia, ib = bound_a.get(a.name), bound_b.get(b.name)
            return a.name == b.name if ia is None and ib is None else ia == ib
        if kind in _LEAVES:
            return kind is EmptyServ or a.value == b.value
        if kind in _STEP_PART and a.method != b.method:
            return False
        a, b = a.arg, b.arg


def alpha_eq(a: Formula, b: Formula, name: Optional[str] = None,
             repl: Optional[Term] = None) -> bool:
    """Is a alpha-equivalent to b, or, given name and repl, to b[repl/name],
    b with repl for the free occurrences of name, capture avoided?  The
    walk keeps its own stack of pairs still to compare, so nesting costs
    no recursion.  One object met under the same binders is not walked:
    a proof file reads each formula text into one object (proofs)."""
    todo = [(a, b, {}, {}, 0)]  # with each side's binders and their depth
    while todo:
        a, b, bound_a, bound_b, depth = todo.pop()
        if a is b and name is None and bound_a == bound_b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Eq:
            if not (_alpha_term(a.left, b.left, bound_a, bound_b, name, repl)
                    and _alpha_term(a.right, b.right, bound_a, bound_b, name,
                                    repl)):
                return False
        elif kind is Not:
            todo.append((a.body, b.body, bound_a, bound_b, depth))
        elif kind in _CONNECTIVE_TEXT:
            todo += ((a.right, b.right, bound_a, bound_b, depth),
                     (a.left, b.left, bound_a, bound_b, depth))
        elif kind in _QUANTIFIER_TEXT:
            if a.sort != b.sort:
                return False
            todo.append((a.body, b.body, {**bound_a, a.var: depth},
                         {**bound_b, b.var: depth}, depth + 1))
        elif kind is not TrueF and kind is not FalseF:
            raise TypeError(f"not a formula: {a!r}")
    return True


# ---------------------------------------------------------------------------
# evaluation
#
# A formula is compiled once into nested closures over an environment dict
# from variable names to values (closure generation, after Feeley & Lapalme,
# "Using closures for code generation", Comput. Lang. 1987).  Closed
# subterms are evaluated at compile time, each quantifier's domain is built
# once, and connectives and quantifiers stop at the first deciding value.


class MissingFocusError(KeyError):
    pass


def sort_domain(sort: str, cfg: AlgebraConfig):
    """(values, exhaustive) for quantification over the given sort.
    values can be iterated any number of times; nat and serv values are
    made as they are iterated, so a large bound costs no memory."""
    if sort == "bool":
        return [False, True], True
    if sort == "repl":
        return [Reply.T, Reply.F, Reply.D], True
    if sort == "nat":
        return range(cfg.quant_bound + 1), False
    if sort == "serv":
        return cfg.service_domain()
    raise SortError(f"unknown sort {sort!r}")


_OPEN = object()  # the compile-time value of a term that is not closed
_UNBOUND = object()


_UNARY = {Pred: lambda n: max(0, n - 1), Nnc: counter, RegOf: boolreg}


def _chain(t: Term):
    """(name, ops, value): a term is a chain of operators around one leaf;
    ops are the chain's operators from the leaf out, a run of k s(·) one
    that adds k.  name is the leaf variable's, or None when t is closed
    and value its value (_OPEN otherwise)."""
    ops, k = [], 0
    while True:
        kind = type(t)
        if kind is Succ:
            k += 1
        else:
            if k:
                ops.append(k.__add__)
                k = 0
            if kind in _LEAVES:
                break
            if kind in _UNARY:
                ops.append(_UNARY[kind])
            elif kind in _STEP_PART:
                ops.append(lambda s, m=t.method, i=_STEP_PART[kind]:
                           svc_step(s, m)[i])
            else:
                raise TypeError(f"not a term: {t!r}")
        t = t.arg
    ops.reverse()
    if type(t) is Var:
        return t.name, ops, _OPEN
    value = EMPTY if type(t) is EmptyServ else t.value
    for op in ops:
        value = op(value)
    return None, (), value


def _compile_eq(f: Eq):
    """One closure that reads each side's variable from env and runs its
    chain; a closed side is a constant."""
    lname, lops, lv = _chain(f.left)
    rname, rops, rv = _chain(f.right)
    if lname is None:
        if rname is None:
            same = lv == rv
            return lambda env: same
        lname, lops, rname, rv = rname, rops, None, lv

    def eq(env):
        a = env[lname]
        for op in lops:
            a = op(a)
        # counters below 4096, both registers and EMPTY are interned, so
        # identity decides most service equations
        if rname is None:
            return a is rv or a == rv
        b = env[rname]
        for op in rops:
            b = op(b)
        return a is b or a == b
    return eq


# One-point narrowing.  Where a conjunct n = t fixes a nat variable or a
# focus n, every other value of n makes the conjunction False, so only the
# value it fixes needs to be tried: the one-point rule, ∃x.(x = t ∧ φ) ≡
# φ[t/x] and ∀x.(x = t → φ) ≡ φ[t/x].  A value left out could neither
# decide a result nor leave it undecided (False dominates None), so
# results, witnesses and their enumeration order are unchanged.  A formula
# that analysis.analyze accepts cannot raise when evaluated, so no
# exception is skipped either.


def _operands(f: Formula, cls) -> list:
    """The operands of f's top-level tree of cls (And or Or), in order."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def _fix(nnc: bool, k: int, other: Term):
    """A closure env -> the only value of x at which a conjunct equating
    nnc(s^k(x)) (nnc True) or s^k(x) with `other` can be true, or None
    when no value can: the chain undone."""
    leaf, ops, fixed = _chain(other)

    def fix(env):
        v = fixed
        if leaf is not None:
            v = env[leaf]
            for op in ops:
                v = op(v)
        if nnc:
            if type(v) is not Service or v.kind != "counter":
                return None
            v = v.content
        elif not k:
            return v
        return v - k if v >= k else None
    return fix


def _narrowed_domain(narrowing, bound: int):
    """For a quantifier over nat with this narrowing (see analysis):
    a closure env -> the values up to bound at which its body can decide
    it, or None when the one-point rule does not apply.  It applies to ∃
    over a disjunction whose disjuncts that mention the variable each
    have a fixing conjunct, and to ∀ over an implication whose antecedent
    has one.  A disjunct free of the variable has the same value
    everywhere, so the domain's first value stands for all of them.  A
    quantifier's value does not depend on the order in which its domain
    is tried, so the solved values come first, where the body is decided
    most often, and none is sorted or made unique."""
    if narrowing is None:
        return None
    conjuncts, anywhere = narrowing
    fixers = [_fix(*c) for c in conjuncts]

    def values(env):
        found = []
        for fix in fixers:
            v = fix(env)
            if v is not None and v <= bound:
                found.append(v)
        if anywhere:
            found.append(0)
        return found
    return values


def _negation(body):
    def negation(env):
        v = body(env)
        return None if v is None else not v
    return negation


def _balanced(parts, join):
    """The closures of a chain's operands, left to right, as a balanced
    tree of binary closures: the same evaluation order and the same short
    cuts as the chain as written, at a depth logarithmic in its length."""
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [join(a, b) for a, b in zip(parts[::2], parts[1::2])] + odd
    return parts[0]


def _conjunction(left, right):
    def conjunction(env):
        a = left(env)
        if a is False:
            return False
        b = right(env)
        if b is False:
            return False
        return None if a is None or b is None else True
    return conjunction


def _disjunction(left, right, decider=True):
    """left or right; with decider False, left implies right."""
    def disjunction(env):
        a = left(env)
        if a is decider:
            return True
        b = right(env)
        if b is True:
            return True
        return None if a is None or b is None else False
    return disjunction


def _compile(f: Formula, cfg: AlgebraConfig, narrowings):
    """A closure env -> True/False/None computing f's three-valued value;
    narrowings are f's (see analysis.Facts)."""
    kind = type(f)
    if kind is Eq:
        return _compile_eq(f)
    if kind is TrueF:
        return lambda env: True
    if kind is FalseF:
        return lambda env: False
    if kind is Not:
        # a run of k negations is one when k is odd, none when it is even
        odd = False
        while type(f) is Not:
            f, odd = f.body, not odd
        body = _compile(f, cfg, narrowings)
        return _negation(body) if odd else body
    if kind is And or kind is Or:
        return _balanced([_compile(g, cfg, narrowings)
                          for g in _operands(f, kind)],
                         _conjunction if kind is And else _disjunction)
    if kind is Implies:
        # a -> b is ~a \/ b: the left operand decides when it is False; a
        # chain a1 -> (a2 -> ... -> c) is ~a1 \/ ... \/ (a_{n-1} -> c)
        parts = []
        while type(f.right) is Implies:
            parts.append(_negation(_compile(f.left, cfg, narrowings)))
            f = f.right
        return _balanced(parts + [_disjunction(
            _compile(f.left, cfg, narrowings),
            _compile(f.right, cfg, narrowings), False)], _disjunction)
    if kind is Exists or kind is Forall:
        body = _compile(f.body, cfg, narrowings)
        var, sort = f.var, f.sort
        values, exhaustive = sort_domain(sort, cfg)
        narrowed = (_narrowed_domain(narrowings[id(f)], cfg.quant_bound)
                    if sort == "nat" else None)
        # ∃ stops at the first True, ∀ at the first False; without one, a
        # None or a truncated domain leaves the value undecided
        decider = kind is Exists
        otherwise = (not decider) if exhaustive else None

        def quantifier(env):
            saved = env.get(var, _UNBOUND)
            result = otherwise
            for v in (values if narrowed is None else narrowed(env)):
                env[var] = v
                r = body(env)
                if r is decider:
                    result = decider
                    break
                if r is None:
                    result = None
            if saved is _UNBOUND:
                env.pop(var, None)  # a narrowed domain may be empty
            else:
                env[var] = saved
            return result
        return quantifier
    raise TypeError(f"not a formula: {f!r}")


class CompiledFormula:
    """A formula compiled for one configuration by compile_formula.

    `facts` are its analysis.Facts, and `sorts` maps its free variables
    to their sorts.  `evaluate(env)` takes an env holding every free
    variable; calling the compiled formula with a state and a valuation
    builds that env first.
    """

    __slots__ = ("facts", "sorts", "evaluate")

    def __init__(self, facts, evaluate):
        self.facts = facts
        self.sorts = facts.sorts
        self.evaluate = evaluate

    def __call__(self, state: ServiceFamily,
                 valuation: Optional[Dict[str, object]] = None):
        env: Dict[str, object] = dict(valuation or {})
        for name, sort in self.sorts.items():
            if name in env:
                continue
            if sort == "serv":
                service = state.get(name)
                if service is None:
                    raise MissingFocusError(name)
                env[name] = service
            else:
                raise ValueError(f"no valuation for free variable {name}:{sort}")
        return self.evaluate(env)


def compile_formula(f: Formula, cfg: AlgebraConfig, foci=(),
                    facts=None) -> CompiledFormula:
    """Compile f for repeated evaluation under cfg.

    f is analysed by analysis.analyze(f, foci), unless facts are given.
    """
    facts = facts or analysis.analyze(f, foci)
    return CompiledFormula(facts, _compile(f, cfg, facts.narrowings))


def eval_formula(f: Formula, state: ServiceFamily, cfg: AlgebraConfig,
                 valuation: Optional[Dict[str, object]] = None):
    """Three-valued satisfaction at a state.

    Every focus free in f must be present in the state; other free variables
    come from the valuation.  Returns None when a truncated quantifier
    domain is the deciding factor.
    """
    return compile_formula(f, cfg)(state, valuation)


# ---------------------------------------------------------------------------
# entailment oracle


@record
class EntailVerdict:
    kind: str  # valid | invalid | bounded | unknown
    witness: Optional[Tuple[ServiceFamily, dict]] = None
    bound: Optional[int] = None


def _product(domains):
    """The tuples of itertools.product(*domains), the last domain varying
    fastest, with no domain copied, as a product copies each: a domain is
    iterated again for every value of those before it, so a range of
    B + 1 values stays a range."""
    if len(domains) < 2:
        return zip(*domains) if domains else iter(((),))
    return _odometer(domains)


_DONE = object()  # what an exhausted domain's iterator gives _odometer


def _odometer(domains):
    *outer, last = domains
    # its[i] iterates outer[i]; head holds the current values before it
    its, head = [iter(outer[0])], []
    while its:
        v = next(its[-1], _DONE)
        if v is _DONE:
            its.pop()
            if head:
                head.pop()
        elif len(its) < len(outer):
            head.append(v)
            its.append(iter(outer[len(its)]))
        else:
            yield from zip(*map(itertools.repeat, head), itertools.repeat(v),
                           last)


class StateSpace:
    """The (state, valuation) pairs that a bounded check enumerates.

    States give each focus a service of cfg's algebra; valuations give the
    other variables values of their sorts, nat ones up to state_bound.
    Foci and variables go in name order, the last name varying fastest.

    A state is enumerated as its contents, one per focus, as the kernels
    encode them (see AlgebraConfig.state_contents).  A content becomes a
    service only where an env or a state is built, so a large state_bound
    costs no memory.

    Pairs at which `pre` is False by the one-point rule are left out.
    When a top-level conjunct of pre equates a focus with a closed term,
    the focus takes only that term's value, if it is a state content, and
    no content otherwise (an nnc(k) beyond state_bound, a service of the
    other kind, empty).  When one equates a chain of s(·)/nnc(·) around a
    free nat variable with a term over foci and constants, that variable
    takes only the value solving it, if it lies within state_bound.  Every
    pair left out makes that conjunct, and so pre, False: False dominates
    the three-valued conjunction, so a pair left out neither decides a
    result nor leaves it undecided.  The other pairs come in the same
    order as without narrowing, so first witnesses and first undecided
    pairs are unchanged.

    pre and post are the analysis.Facts of the formulas: the conjuncts
    that fix a focus or a variable come from pre's fixes, found by the one
    walk of pre, so the space searches no formula itself.  With post, the
    space is that of pre -> post, and where analysis.cut applies, its one
    focus takes only the cut's contents.
    """

    def __init__(self, foci, var_sorts, cfg: AlgebraConfig, pre, post=None):
        self.contents, self.service, serv_exhaustive = cfg.state_contents()
        self.foci = sorted(foci)
        fixes = pre.fixes
        self.focus_domains = [self._fixed_content(fixes.get(f, ()))
                              for f in self.foci]
        self.names = sorted(var_sorts)
        self.bound = cfg.state_bound
        self.exhaustive = serv_exhaustive or not self.foci
        self.domains, self.fixers = [], []
        for i, name in enumerate(self.names):
            if var_sorts[name] == "nat":
                values, exhaustive = range(cfg.state_bound + 1), False
                # (index, fixer) from the first conjunct whose other side
                # reads foci and constants only
                fix = next((c for c in fixes.get(name, ())
                            if c[3] not in var_sorts), None)
                if fix:
                    self.fixers.append((i, _fix(*fix[:3])))
            else:
                values, exhaustive = sort_domain(var_sorts[name], cfg)
            self.domains.append(values)
            self.exhaustive = self.exhaustive and exhaustive
        if post is not None and (contents := analysis.cut(self, pre, post,
                                                          cfg)):
            self.focus_domains = [contents]

    def _fixed_content(self, conjuncts):
        """The contents that a focus takes: those of the algebra, or the
        one that the first of its conjuncts `focus = t`, t closed, fixes."""
        closed = next((c[2] for c in conjuncts if c[3] is None), None)
        if closed is None:
            return self.contents
        value = _chain(closed)[2]
        k = value.content  # None for empty
        if isinstance(k, int) and int(k) in self.contents and (
                self.service(int(k)) == value):
            return (int(k),)
        return ()

    def states(self):
        """The contents of every state, in enumeration order."""
        return _product(self.focus_domains)

    def pairs(self):
        """Yield (env, contents, values) per pair: the state's contents and
        the variables' values; env binds each focus to its service and each
        variable to its value.  One env serves all the pairs; copy what
        must outlive a step."""
        foci, names, fixers, bound = (self.foci, self.names, self.fixers,
                                      self.bound)
        service, env = self.service, {}
        for contents in self.states():
            env.update(zip(foci, map(service, contents)))
            domains = self.domains
            if fixers:
                domains = list(domains)
                for i, fix in fixers:
                    v = fix(env)
                    domains[i] = () if v is None or v > bound else (v,)
            for values in _product(domains):
                env.update(zip(names, values))
                yield env, contents, values

    def state(self, contents) -> ServiceFamily:
        return ServiceFamily(tuple(zip(self.foci, map(self.service,
                                                      contents))))

    def valuation(self, values) -> Dict[str, object]:
        return dict(zip(self.names, values))


def entails(p: Formula, q: Formula, cfg: AlgebraConfig, foci=(),
            compiler=compile_formula) -> EntailVerdict:
    """Does p -> q hold in the algebra, for all states and valuations?

    foci, those of a sequence, are of sort serv, as in holds; only those
    that p or q reads are enumerated, one counter's contents one per run
    that p and q cannot tell apart (see analysis).  boolreg with no nat
    variables is decided exactly; otherwise the check is bounded:
    `bounded` means no countermodel exists within the bounds, `unknown`
    means some case was undecided even within the bounds.  p and q are
    compiled by compiler(f, cfg, foci): a proof check passes its table.
    """
    if alpha_eq(p, q):
        return EntailVerdict("valid")
    cp, cq = compiler(p, cfg, foci), compiler(q, cfg, foci)
    serv, var_sorts = analysis.joint_sorts(cp.sorts, cq.sorts, foci)
    space = StateSpace(serv & (cp.sorts.keys() | cq.sorts.keys()), var_sorts,
                       cfg, cp.facts, cq.facts)
    p_at, q_at = cp.evaluate, cq.evaluate
    undecided = False
    for env, contents, values in space.pairs():
        pv = p_at(env)
        if pv is False:
            continue
        qv = q_at(env)
        if pv is True and qv is False:
            return EntailVerdict("invalid", witness=(space.state(contents),
                                                     space.valuation(values)))
        if qv is None or pv is None:
            undecided = True
    if undecided:
        return EntailVerdict("unknown", bound=cfg.state_bound)
    if space.exhaustive:
        return EntailVerdict("valid")
    return EntailVerdict("bounded", bound=cfg.state_bound)


# analysis reads this module's classes, so it is imported once they exist
from . import analysis  # noqa: E402
