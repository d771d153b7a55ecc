"""One walk per formula: the facts that compiling, enumerating and the
cutoff read.  `analyze` walks a formula once and returns its Facts;
`compile_formula`, `StateSpace` and `cut` read them and walk nothing.

The cutoff for an isolated counter.  `entails` enumerates each counter
content from 0 to B.  Where one counter is the only thing that varies,
most contents cannot be told apart: away from the numerals and from
qbound the formulas take the same values at every content.  `cut` finds
those runs of contents, and `entails` then tries the first content of
each run and every content outside the runs.

The fragment.  The state space of p -> q has one focus c, of the counter
algebra, that p does not pin to a content; every other free variable is
a nat variable fixed by a top-level conjunct of p (a StateSpace fixer,
whose other side mentions c and constants only); every nat quantifier of
p and q is narrowed (its narrowing in the facts is not None); no
quantifier ranges over serv.  Quantifiers over bool and repl may occur.

The constants.  Λ counts the shifting links of p and q, the operators
s(·), p(·), d[incr](·) and d[decr](·).  With Q the quantifier bound, the
special contents are those in

    [v - Λ, v + Λ]        for v = 0 and each numeral v of p and q,
    [Q - Λ + 1, Q + Λ]    if p or q has a nat quantifier,

and the runs are the maximal intervals of [0, B] between them.  When no
two of 0 and the numerals lie more than 2Λ + 1 apart, N the largest, and
Q >= B + Λ, the one run is [L, B] with L = N + Λ + 1, and the contents
tried are [0, L].  For `true -> exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))`
at B = 48 and Q = 51, Λ = 1, and they are 0, 1 and 2.

Lemma.  Let k0 be the first content of a run and k another one.  Every
pair kept at k is kept at k0, and there p and q take the values they
take at k.

Proof.  Call a value shifted by δ if it is the nat k + δ or the counter
counter(k + δ), δ being the same at every content k of the run, and
constant if it is the same value at every content of the run.
(a) Paths.  A nat variable gets each value from a fixer, which solves one
equation E for it from the value of one other variable, the leaf of E's
other side, or from no variable (a closed side, or the 0 that a narrowed
∃ tries where a disjunct does not mention it).  Following these leaves
back gives each value a path of equations that ends at c, and the value
is then shifted, or at a constant, and the value is constant.  A fixer
lies inside the scope of the variable it fixes, and the equations of the
variables it reads lie outside that scope, so the equations of a path are
distinct.  Two values whose paths share an equation share the value that
equation fixed, so a shifted and a constant value have disjoint paths.
(b) Size.  Along one chain an s(·) or d[incr] adds 1, a p(·) or d[decr]
subtracts 1 or leaves 0 at 0, nnc(·) and d[iszero] add nothing, and
undoing s^j(·) in a fixer subtracts j.  So a shifted value reached
inside an equation E has |δ| at most the shifting links of E and of its
leaf's path, or, where E fixes that leaf, of E and of the path of E's
other leaf; either way at most Λ.  A constant nat or counter content is
v + σ for a numeral or 0 v, with |σ| at most the links of its path and
side, or, if some link left 0 at 0, at most the links after that one.
(c) No floor.  Every shifted value is at least k - Λ >= 1, since k lies
above [0, Λ]; so p(·) and d[decr] subtract one, r[iszero] replies :f and
r[decr] :t, and undoing s^j(·) never fails: the operators act on shifted
values as on k + δ, and map them to shifted values or to constants (a
reply, empty).
(d) Equations.  Two shifted values are equal iff their δ are; two
constants are equal or not at every k; a shifted value and a service of
another kind (empty, a register) never are.  A shifted k + δ and a
constant u: by (a) the links that make u and those that make δ are
disjoint, so by (b) either u = v + σ with |σ - δ| <= Λ, and k + δ = u
would put k in [v - Λ, v + Λ], or u is at most Λ less the links of δ,
which k + δ exceeds as k > Λ.
(e) Range checks.  The run lies below Q - Λ + 1 or above Q + Λ, so a
shifted k + δ is at most Q at every content of the run or at none, and a
narrowed quantifier tries it at every content or at none.  A fixed free
variable k + δ that passes `v > B` at k passes it at k0 <= k.  A constant
passes or fails both checks at every content.
By (c)-(e), at a pair kept at k and at k0, every fixer gives a constant,
a shifted value or None alike, every domain has the same length, and
every equation the same truth value; connectives and quantifiers combine
the same values, so p and q have the same values at both.  ∎

Consequence.  The first content of a run stands for the run: a pair of
the run that breaks the entailment or leaves it undecided does so at the
run's first content, which comes first.  So verdict kinds, first
witnesses, `unknown` verdicts and their bounded labels are those of the
full enumeration, and at most 2Λ + 2 contents are tried for 0, for each
numeral and for Q, whatever B and Q are.  Near B a content can differ
from the run below it only by a pair that a fixer leaves out, which
decides nothing, so B needs no contents of its own.

The constants are tight.  `d[decr](d[decr](d[decr](c))) = nnc(0)` holds
at k <= 3 = Λ only.  With q `exists m:nat. nnc(m) = d[decr](d[decr](c))`,
k = Q + 2 = Q + Λ is the last content at which q holds.  With p
`nnc(n) = d[incr](c)` and q `exists m:nat. nnc(m) = nnc(s(n))`,
k = Q - 1 = Q - Λ + 1 is the first content at which q is undecided.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

from .formulas import (SORTS, And, BoolLit, DeriveT, EmptyServ, Eq, Exists,
                       Forall, Implies, NatLit, Nnc, Not, Or, Pred, RegOf,
                       ReplyLit, ReplyT, SortError, Succ, Var, _LEAVES,
                       _operands, format_term)
from .records import record

# operator -> the sort of its argument
_ARG_SORTS = {Succ: "nat", Pred: "nat", Nnc: "nat", RegOf: "bool",
              DeriveT: "serv", ReplyT: "serv"}
# term other than a variable -> its sort
_TERM_SORTS = {NatLit: "nat", Succ: "nat", Pred: "nat", BoolLit: "bool",
               ReplyLit: "repl", ReplyT: "repl", Nnc: "serv", RegOf: "serv",
               EmptyServ: "serv", DeriveT: "serv"}
# the shifting links: s(·), p(·), and d[m](·) with m in _SHIFTS
_SHIFTING = frozenset((Succ, Pred, DeriveT))
_SHIFTS = frozenset(("incr", "decr"))


@record
class Facts:
    """What one walk of a formula finds (see analyze)."""
    sorts: dict
    numerals: set  # the values of the numerals
    links: int  # how many s(·), p(·), d[incr](·) and d[decr](·)
    conjuncts: list  # the top-level conjuncts that are equations
    narrowings: dict
    serv_quantified: bool  # whether a quantifier ranges over serv

    @cached_property
    def fixes(self):
        """name -> the conjuncts that can fix it (see _fixing), found at
        the first read: only state spaces read them, a precondition's."""
        return _fixing(self.conjuncts)


def _fixing(eqs) -> dict:
    """name x -> the equations of eqs that equate nnc(s^k(x)) or s^k(x)
    with a term t, in order, each as (nnc, k, t, the variable of t or
    None): those that can fix x."""
    out = {}
    for g in eqs:
        for side, other in ((g.left, g.right), (g.right, g.left)):
            nnc, k = type(side) is Nnc, 0
            side = side.arg if nnc else side
            while type(side) is Succ:
                side, k = side.arg, k + 1
            if type(side) is Var:
                leaf = other
                while type(leaf) not in _LEAVES:
                    leaf = leaf.arg
                out.setdefault(side.name, []).append(
                    (nnc, k, other, getattr(leaf, "name", None)))
    return out


def _root(parent: Dict[str, str], x: str) -> str:  # halving paths
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def analyze(f, foci=()) -> Facts:
    """f's Facts, in one walk on an explicit stack.

    sorts maps each free variable to its sort, in reading order, inferred
    by unification (Robinson, JACM 1965): equations join free variables
    into the classes of a union-find, and a class takes the sort an
    operator, a quantifier or a term fixes for a member; if nothing does,
    serv when it holds one of foci, else a SortError, as is a clash or a
    quantifier over a sort outside SORTS.  Free serv variables are exactly
    the foci.  conjuncts are the top-level conjuncts that are equations;
    fixes, found from them, maps a name to those that can fix it.
    narrowings maps the id of each nat quantifier to its narrowing (see
    formulas._narrowed_domain), or None: the (nnc, k, t) of the first
    conjunct, t not reading the variable, that fixes it in each disjunct
    that mentions it or in the antecedent, and whether some disjunct does
    not mention it.  Below each disjunct or antecedent of a nat
    quantifier a marker, a list, waits on the stack to settle its
    narrowing; `seen` counts the occurrences of each ∃'s variable.
    """
    parent: Dict[str, str] = {}  # free variable -> the next one of its class
    fixed: Dict[str, str] = {}  # root of a class -> the sort fixed for it
    numerals, links, serv_quantified = set(), 0, False
    top, narrowings = [], {}
    seen = {}  # an ∃'s variable -> its occurrences so far
    # (formula, bound variable -> declared sort, the equations of which
    # it is a top-level conjunct, or None)
    stack = [(f, {}, top)]
    while stack:
        g, bound, conjuncts = stack.pop()
        kind = type(g)
        if kind is Eq:
            local = {}  # the equation's variables -> the sorts it fixes
            for t in (g.left, g.right):
                hint, op = None, type(t)
                arg_sort = _ARG_SORTS.get(op)
                while arg_sort is not None:
                    if op in _SHIFTING and (op is not DeriveT
                                            or t.method in _SHIFTS):
                        links += 1
                    arg = t.arg
                    op = type(arg)
                    sort = _TERM_SORTS.get(op, arg_sort)
                    if sort != arg_sort:
                        raise SortError(f"ill-sorted term {format_term(t)}: "
                                        f"argument of sort {sort}, "
                                        f"expected {arg_sort}")
                    t, hint, arg_sort = arg, arg_sort, _ARG_SORTS.get(op)
                if op is Var:
                    name = t.name
                    if name not in bound and name not in parent:
                        parent[name] = name
                    prev = local[name] = local.get(name) or hint
                    if hint and prev != hint:
                        raise SortError(f"variable {name} used at sorts "
                                        f"{prev} and {hint}")
                    if seen and name in seen:
                        seen[name] += 1
                elif op is NatLit:
                    numerals.add(t.value)
            # each side's sort as this equation alone fixes it
            left, right = g.left, g.right
            lsort = (bound.get(left.name) or local[left.name]
                     if type(left) is Var else _TERM_SORTS.get(type(left)))
            rsort = (bound.get(right.name) or local[right.name]
                     if type(right) is Var else _TERM_SORTS.get(type(right)))
            if lsort and rsort and lsort != rsort:
                raise SortError(f"ill-sorted equality: {lsort} = {rsort}")
            eq_sort = lsort or rsort
            for t in (left, right):
                if eq_sort and type(t) is Var:
                    local[t.name] = eq_sort
            for name, sort in local.items():
                if sort is None:
                    continue
                if name in bound:
                    if bound[name] != sort:
                        raise SortError(f"bound variable {name} used at sort "
                                        f"{sort}, declared {bound[name]}")
                elif fixed.setdefault(_root(parent, name), sort) != sort:
                    raise SortError(f"variable {name} used at sorts "
                                    f"{fixed[_root(parent, name)]} and {sort}")
            if not eq_sort and len(local) == 2:
                # x = y, two free variables: join their classes
                a, b = _root(parent, left.name), _root(parent, right.name)
                sa, sb = fixed.get(a), fixed.get(b)
                if sa and sb and sa != sb:
                    raise SortError(f"ill-sorted equality: {sa} = {sb}")
                parent[b] = a
                if sb:
                    fixed[a] = sb
            if conjuncts is not None:
                conjuncts.append(g)
        elif kind is And:
            stack += ((g.right, bound, conjuncts), (g.left, bound, conjuncts))
        elif kind is Or or kind is Implies:
            stack += ((g.right, bound, None), (g.left, bound, None))
        elif kind is Not:
            stack.append((g.body, bound, None))
        elif kind is Exists or kind is Forall:
            var, sort, body = g.var, g.sort, g.body
            if sort not in SORTS:
                raise SortError(f"unknown sort {sort!r}")
            if var in seen:
                seen[var] += 1
            inner = {**bound, var: sort}
            serv_quantified = serv_quantified or sort == "serv"
            if sort != "nat" or kind is Forall and type(body) is not Implies:
                if sort == "nat":
                    narrowings[id(g)] = None
                stack.append((body, inner, None))
                continue
            narrowings[id(g)] = [[], False]
            if kind is Exists:
                parts = _operands(body, Or)
                done = [id(g), var, seen.setdefault(var, 0)]
            else:
                stack.append((body.right, inner, None))
                parts, done = [body.left], [id(g), var, None]
            for d in reversed(parts):
                group = []
                stack += ((done, None, group), (d, inner, group))
        elif kind is list:  # a disjunct or an antecedent is done
            key, var, count = g
            narrowing = narrowings[key]
            if narrowing is None:
                continue
            if count is not None:
                if seen[var] == count:
                    narrowing[1] = True  # it does not mention var
                    continue
                g[2] = seen[var]
            fix = next((c for c in _fixing(conjuncts).get(var, ())
                        if c[3] != var), None)
            if fix is None:
                narrowings[key] = None
            else:
                narrowing[0].append(fix[:3])
    out, focal = {}, ()  # focal: the classes that hold a focus, if read
    for name in parent:
        x = _root(parent, name)
        if x not in fixed and not focal:
            focal = {_root(parent, y) for y in foci if y in parent}
        out[name] = fixed.get(x) or ("serv" if x in focal else None)
        if out[name] is None:
            raise SortError(f"cannot infer the sort of variable {name}")
    return Facts(out, numerals, links, top, narrowings, serv_quantified)


def joint_sorts(p_sorts: Dict[str, str], q_sorts: Dict[str, str], foci=()):
    """(foci, var_sorts) of P's and Q's free variables, whose sorts must
    agree: the variables of sort serv and the given foci of a sequence,
    which must be of no other sort; var_sorts maps the other variables."""
    sorts = dict(p_sorts)
    for name, sort in q_sorts.items():
        if sorts.setdefault(name, sort) != sort:
            raise SortError(f"variable {name} used at two sorts")
    for name in sorted(foci):
        if sorts.get(name, "serv") != "serv":
            raise SortError(f"variable {name} used at sorts {sorts[name]} "
                            f"and serv")
    return ({n for n, s in sorts.items() if s == "serv"} | set(foci),
            {n: s for n, s in sorts.items() if s != "serv"})


def cut(space, p: Facts, q: Facts, cfg):
    """The contents of the one focus of space, the StateSpace of p -> q,
    when p and q lie in the fragment above: the special contents and the
    first content of each run.  None outside the fragment."""
    if (cfg.algebra != "counter" or len(space.foci) != 1
            or space.focus_domains[0] is not space.contents
            or len(space.fixers) != len(space.names)
            or p.serv_quantified or q.serv_quantified
            or None in (*p.narrowings.values(), *q.narrowings.values())):
        return None
    links, bound, tried = p.links + q.links, cfg.state_bound, set()
    # each special interval and the content after it, within [0, B]
    for v in {0} | p.numerals | q.numerals:
        tried.update(range(max(0, v - links), min(v + links + 1, bound) + 1))
    if p.narrowings or q.narrowings:
        qb = cfg.quant_bound
        tried.update(range(max(0, qb - links + 1),
                           min(qb + links + 1, bound) + 1))
    return sorted(tried) if len(tried) <= bound else None
