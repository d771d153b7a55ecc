"""One representative per uniform run of an isolated counter's contents.

`entails` enumerates each counter content from 0 to B.  Where one counter
is the only thing that varies, most contents cannot be told apart: away
from the numerals and from qbound the formulas take the same values at
every content.  This module finds those runs of contents, and `entails`
then tries the first content of each run and every content outside the
runs.

The fragment.  The state space of p -> q has one focus c, of the counter
algebra, that p does not pin to a content; every other free variable is
a nat variable fixed by a top-level conjunct of p (a StateSpace fixer,
whose other side mentions c and constants only); every nat quantifier of
p and q is narrowed (formulas._narrowed_domain applies); no quantifier
ranges over serv.  Quantifiers over bool and repl may occur.

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

from .formulas import (And, DeriveT, Eq, Exists, Forall, Implies, NatLit,
                       Not, Or, Pred, Succ, _LEAVES, _narrowed_domain)

_SHIFTS = frozenset(("incr", "decr"))


def cut(space, p, q, cfg) -> None:
    """Narrow the one focus of space, the StateSpace of p -> q, to the
    special contents and the first content of each run, when p and q lie
    in the fragment above."""
    if len(space.foci) != 1 or space.focus_domains[0] is not space.contents:
        return
    if len(space.fixers) != len(space.names):
        return
    numerals, links, quantified = {0}, 0, False
    stack = [p, q]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Eq:
            for t in (f.left, f.right):
                while type(t) not in _LEAVES:
                    if type(t) in (Succ, Pred) or (
                            type(t) is DeriveT and t.method in _SHIFTS):
                        links += 1
                    t = t.arg
                if type(t) is NatLit:
                    numerals.add(t.value)
        elif kind is Exists or kind is Forall:
            if f.sort == "serv" or f.sort == "nat" and (
                    _narrowed_domain(f, cfg.quant_bound) is None):
                return
            quantified = quantified or f.sort == "nat"
            stack.append(f.body)
        elif kind is Not:
            stack.append(f.body)
        elif kind is And or kind is Or or kind is Implies:
            stack += (f.left, f.right)
    # each special interval and the content after it, within [0, B]
    bound, tried = cfg.state_bound, set()
    for v in numerals:
        tried.update(range(max(0, v - links), min(v + links + 1, bound) + 1))
    if quantified:
        q = cfg.quant_bound
        tried.update(range(max(0, q - links + 1),
                           min(q + links + 1, bound) + 1))
    if len(tried) <= bound:
        space.focus_domains = [sorted(tried)]
