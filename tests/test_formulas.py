"""Assertion language: parsing, substitution, evaluation, entailment."""

import itertools
import random
import sys
from functools import partial

import pytest

from pga_hoare import analysis
from pga_hoare.formulas import (And, BoolLit, DeriveT, EmptyServ,
                                EntailVerdict, Eq, Exists, FALSE, FalseF,
                                Forall, FormulaSyntaxError, Implies,
                                MissingFocusError, NatLit, Nnc, Not, Or, Pred,
                                RegOf, ReplyLit, ReplyT, SortError, StateSpace,
                                Succ, TRUE, TrueF, Var, _formula_tokens,
                                alpha_eq,
                                compile_formula, entails, eval_formula,
                                format_formula, parse_formula,
                                sort_domain)
from pga_hoare.lexer import Tokens
from pga_hoare.services import (EMPTY, AlgebraConfig, Reply, boolreg, counter,
                                family, svc_step)

from refparsers import ref_alpha_eq, ref_subst_derive, ref_substitute

CFG = AlgebraConfig("counter", state_bound=16, quant_bound=16)
BCFG = AlgebraConfig("boolreg")


def test_parse_connectives_and_precedence():
    f = parse_formula("~c = nnc(0) /\\ true \\/ false -> c = nnc(1)")
    # ~ binds tightest, then /\, \/, -> (right-assoc)
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)
    assert isinstance(f.left.left.left, Not)


def test_parse_quantifier_and_terms():
    f = parse_formula("exists n:nat. c = nnc(s(n))")
    assert isinstance(f, Exists) and f.sort == "nat"
    f2 = parse_formula("r[iszero](c) = :t")
    assert f2 == Eq(ReplyT("iszero", Var("c")), ReplyLit(Reply.T))


def test_parse_method_with_colon_segments():
    f = parse_formula("r[set:t](r) = :t")
    assert f.left.method == "set:t"


def test_format_parse_roundtrip():
    texts = [
        "true", "~c = nnc(0)", "(c = nnc(0) /\\ d[decr](c) = nnc(1))",
        "exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))",
        "forall b:bool. r = reg(b)", "x = empty",
        "r[get](r) = :d -> false", "p(s(0)) = 0",
    ]
    for text in texts:
        f = parse_formula(text)
        assert alpha_eq(parse_formula(format_formula(f)), f)


def test_free_vars_and_sorts():
    f = parse_formula("c = nnc(n) \\/ d = nnc(0)")
    assert analysis.analyze(f).sorts == {
        "c": "serv", "d": "serv", "n": "nat"}
    assert analysis.analyze(TRUE).sorts == {}
    assert analysis.analyze(parse_formula("r[get](r) = :t")).sorts == {
        "r": "serv"}


def test_sort_inference_rejects_clashes():
    with pytest.raises(SortError):
        analysis.analyze(parse_formula("x = nnc(0) /\\ x = 0"))


def test_sort_inference_refuses_unknown_sorts():
    # only hand-built trees have one; the parser refuses it
    unknown = Exists("x", "stack", Not(Exists("y", "nat", TRUE)))
    for f in (unknown, And(TRUE, Forall("n", "nat", unknown))):
        with pytest.raises(SortError, match="^unknown sort 'stack'$"):
            analysis.analyze(f)


def test_substitute_derive_for_focus():
    f = parse_formula("c = nnc(0)")
    g = ref_subst_derive(f, "c", "decr")
    expected = parse_formula("d[decr](c) = nnc(0)")
    assert alpha_eq(g, expected)
    # the walk compares with f<d[decr](c)/c> without building it; the
    # substituted c is not substituted again
    assert alpha_eq(expected, f, "c", DeriveT("decr", Var("c")))
    assert not alpha_eq(f, f, "c", DeriveT("decr", Var("c")))
    assert not alpha_eq(parse_formula("d[decr](d[decr](c)) = nnc(0)"), f,
                        "c", DeriveT("decr", Var("c")))


def rename(f, old, new):
    """f with the free variable old renamed to new, as R9 renames it."""
    return ref_substitute(f, old, Var(new))


def test_rename_free_only():
    f = parse_formula("c = nnc(n)")
    renamed = parse_formula("c = nnc(m)")
    assert alpha_eq(rename(f, "n", "m"), renamed)
    assert alpha_eq(renamed, f, "n", Var("m"))
    assert not alpha_eq(f, f, "n", Var("m"))
    bound = parse_formula("exists n:nat. c = nnc(n)")
    assert rename(bound, "n", "m") == bound
    assert alpha_eq(bound, bound, "n", Var("m"))
    assert not alpha_eq(parse_formula("exists n:nat. c = nnc(m)"), bound,
                        "n", Var("m"))


def test_substitution_avoids_capture():
    # substituting n for x must not let n be captured by the quantifier
    f = parse_formula("exists n:nat. x = nnc(n)")
    g = ref_substitute(f, "x", Nnc(Var("n")))
    assert isinstance(g, Exists) and g.var != "n"
    assert "n" in analysis.analyze(g).sorts
    # the walk reads the substituted n as free: the binder is renamed in
    # any text that it equals
    assert alpha_eq(g, f, "x", Nnc(Var("n")))
    assert alpha_eq(parse_formula("exists m:nat. nnc(n) = nnc(m)"), f, "x",
                    Nnc(Var("n")))
    assert not alpha_eq(parse_formula("exists n:nat. nnc(n) = nnc(n)"), f,
                        "x", Nnc(Var("n")))


def test_alpha_equivalence():
    a = parse_formula("exists n:nat. c = nnc(n)")
    b = parse_formula("exists m:nat. c = nnc(m)")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, parse_formula("exists n:nat. c = nnc(s(n))"))
    # free variables compare by name
    assert not alpha_eq(parse_formula("c = nnc(n)"), parse_formula("c = nnc(m)"))
    # one object is equal to itself only under the same binders
    body = parse_formula("c = nnc(n)")
    for left, right, same in (("n", "n", True), ("n", "m", False),
                              ("m", "n", False), ("m", "m", True)):
        assert alpha_eq(Exists(left, "nat", body),
                        Exists(right, "nat", body)) is same
        assert alpha_eq(And(body, Exists(left, "nat", body)),
                        And(body, Exists(right, "nat", body))) is same
    assert alpha_eq(body, body)
    assert not alpha_eq(body, body, "n", Var("m"))
    assert alpha_eq(body, body, "m", Var("k"))


def test_eval_simple():
    f = parse_formula("c = nnc(0)")
    assert eval_formula(f, family({"c": counter(0)}), CFG) is True
    assert eval_formula(f, family({"c": counter(1)}), CFG) is False


def test_eval_reply_and_derive_terms():
    st = family({"c": counter(1)})
    assert eval_formula(parse_formula("r[iszero](c) = :t"), st, CFG) is False
    assert eval_formula(parse_formula("d[decr](c) = nnc(0)"), st, CFG) is True
    assert eval_formula(parse_formula("r[get](c) = :d"), st, CFG) is True


def test_eval_bounded_existential():
    f = parse_formula("exists n:nat. c = nnc(s(n))")
    assert eval_formula(f, family({"c": counter(3)}), CFG) is True
    # no witness below the bound, and the domain is truncated: unknown
    assert eval_formula(f, family({"c": counter(0)}), CFG) is None


def test_eval_exhaustive_sorts_decide():
    f = parse_formula("forall b:bool. (r = reg(b) \\/ ~r = reg(b))")
    assert eval_formula(f, family({"r": boolreg(True)}), BCFG) is True


def test_eval_missing_focus_raises():
    with pytest.raises(KeyError):
        eval_formula(parse_formula("c = nnc(0)"), family({}), CFG)


def test_eval_kleene_shortcuts():
    unknown = parse_formula("exists n:nat. c = nnc(s(n))")
    st = family({"c": counter(0)})
    assert eval_formula(And(FALSE, unknown), st, CFG) is False
    assert eval_formula(Or(TRUE, unknown), st, CFG) is True
    assert eval_formula(And(TRUE, unknown), st, CFG) is None


def test_entails_reflexive_and_alpha():
    p = parse_formula("exists n:nat. c = nnc(n)")
    q = parse_formula("exists m:nat. c = nnc(m)")
    assert entails(p, q, CFG).kind == "valid"


def test_entails_bounded_counter():
    v = entails(TRUE,
                parse_formula("exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))"),
                CFG)
    assert v.kind == "bounded"
    assert v.bound == CFG.state_bound


def test_entails_invalid_with_witness():
    v = entails(parse_formula("c = nnc(0)"), parse_formula("c = nnc(s(0))"), CFG)
    assert v.kind == "invalid"
    state, _ = v.witness
    assert state.get("c") == counter(0)
    # the witness really is a countermodel
    assert eval_formula(parse_formula("c = nnc(0)"), state, CFG) is True
    assert eval_formula(parse_formula("c = nnc(s(0))"), state, CFG) is False


def test_entails_exhaustive_boolreg():
    v = entails(parse_formula("r = reg(true)"),
                parse_formula("r[get](r) = :t"), BCFG)
    assert v.kind == "valid"


def test_entails_free_nat_variable():
    # universally quantified free variable, checked per valuation
    v = entails(parse_formula("c = nnc(s(n))"),
                parse_formula("~r[iszero](c) = :t"), CFG)
    assert v.kind == "bounded"


def test_eval_respects_derive_substitution():
    # F<d[m](f)/f> at u equals F at u with f stepped by m (boolreg, all cases)
    from pga_hoare.services import svc_step
    formulas = ["r = reg(true)", "r[get](r) = :t", "~r = reg(false)"]
    for text in formulas:
        f = parse_formula(text)
        for val in (False, True):
            for m in ("get", "set:t", "set:f"):
                u = family({"r": boolreg(val)})
                stepped = family({"r": svc_step(boolreg(val), m)[1]})
                g = ref_subst_derive(f, "r", m)
                assert eval_formula(g, u, BCFG) == eval_formula(f, stepped, BCFG)


# ---------------------------------------------------------------------------
# differential test: the compiled evaluator against the tree-walking one
#
# The reference below is the package's former evaluator and entailment
# loop, kept here as the specification: it walks the tree per state,
# evaluates both operands of every connective and every value of a
# quantifier's domain, and then decides; entailment tries every pair of
# the full state space.  compile_formula and entails, which skip values by
# the one-point rule, must agree with it everywhere.


def _ref_term(t, env):
    if isinstance(t, Var):
        if t.name not in env:
            raise MissingFocusError(t.name)
        return env[t.name]
    if isinstance(t, (NatLit, BoolLit, ReplyLit)):
        return t.value
    if isinstance(t, Succ):
        return _ref_term(t.arg, env) + 1
    if isinstance(t, Pred):
        return max(0, _ref_term(t.arg, env) - 1)
    if isinstance(t, Nnc):
        return counter(_ref_term(t.arg, env))
    if isinstance(t, RegOf):
        return boolreg(_ref_term(t.arg, env))
    if isinstance(t, EmptyServ):
        return EMPTY
    if isinstance(t, DeriveT):
        return svc_step(_ref_term(t.arg, env), t.method)[1]
    if isinstance(t, ReplyT):
        return svc_step(_ref_term(t.arg, env), t.method)[0]
    raise TypeError(f"not a term: {t!r}")


def _not3(v):
    return None if v is None else (not v)


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _ref_eval(f, env, cfg):
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return _not3(_ref_eval(f.body, env, cfg))
    if isinstance(f, And):
        return _and3(_ref_eval(f.left, env, cfg), _ref_eval(f.right, env, cfg))
    if isinstance(f, Or):
        return _or3(_ref_eval(f.left, env, cfg), _ref_eval(f.right, env, cfg))
    if isinstance(f, Implies):
        return _or3(_not3(_ref_eval(f.left, env, cfg)),
                    _ref_eval(f.right, env, cfg))
    if isinstance(f, Eq):
        return _ref_term(f.left, env) == _ref_term(f.right, env)
    values, exhaustive = sort_domain(f.sort, cfg)
    results = [_ref_eval(f.body, {**env, f.var: v}, cfg) for v in values]
    if isinstance(f, Exists):
        if True in results:
            return True
        if None in results or not exhaustive:
            return None
        return False
    if False in results:
        return False
    if None in results or not exhaustive:
        return None
    return True


def _ref_eval_formula(f, state, cfg, valuation=None):
    env = dict(valuation or {})
    for name, sort in analysis.analyze(f).sorts.items():
        if name in env:
            continue
        if sort == "serv":
            service = state.get(name)
            if service is None:
                raise MissingFocusError(name)
            env[name] = service
        else:
            raise ValueError(f"no valuation for free variable {name}:{sort}")
    return _ref_eval(f, env, cfg)


def enumerate_states(foci, var_sorts, cfg):
    """(pairs, exhaustive): every (state, valuation) pair within the
    bounds, foci and variables in name order, the last varying fastest."""
    services, serv_exhaustive = cfg.service_domain()
    exhaustive = True
    foci = sorted(foci)
    var_sorts = dict(sorted(var_sorts.items()))
    if foci and not serv_exhaustive:
        exhaustive = False
    domains = []
    for _, sort in var_sorts.items():
        if sort == "nat":
            domains.append(list(range(cfg.state_bound + 1)))
            exhaustive = False
        else:
            values, ex = sort_domain(sort, cfg)
            domains.append(values)
            exhaustive = exhaustive and ex
    pairs = []
    for combo in itertools.product(services, repeat=len(foci)):
        state = family(dict(zip(foci, combo)))
        for values in itertools.product(*domains):
            pairs.append((state, dict(zip(var_sorts.keys(), values))))
    return pairs, exhaustive


def _ref_entails(p, q, cfg):
    if alpha_eq(p, q):
        return EntailVerdict("valid")
    sorts = {}
    for f in (p, q):
        for name, sort in analysis.analyze(f).sorts.items():
            if name in sorts and sorts[name] != sort:
                raise SortError(f"variable {name} used at two sorts")
            sorts[name] = sort
    foci = {n for n, s in sorts.items() if s == "serv"}
    var_sorts = {n: s for n, s in sorts.items() if s != "serv"}
    pairs, exhaustive = enumerate_states(foci, var_sorts, cfg)
    undecided = False
    for state, valuation in pairs:
        pv = _ref_eval_formula(p, state, cfg, valuation)
        if pv is False:
            continue
        qv = _ref_eval_formula(q, state, cfg, valuation)
        if pv is True and qv is False:
            return EntailVerdict("invalid", witness=(state, valuation))
        if qv is None or pv is None:
            undecided = True
    if undecided:
        return EntailVerdict("unknown", bound=cfg.state_bound)
    if exhaustive:
        return EntailVerdict("valid")
    return EntailVerdict("bounded", bound=cfg.state_bound)


# free variables carry their sort in their name; quantifiers may rebind
# them (at the same sort) or bind names of their own
_NAMES = {"nat": ["n", "i"], "bool": ["b", "a"], "repl": ["x", "y"],
          "serv": ["c", "d", "u"]}
_SMALL = [AlgebraConfig("counter", state_bound=3, quant_bound=3),
          AlgebraConfig("boolreg", state_bound=2, quant_bound=2)]


_METHODS = {"counter": ["incr", "decr", "iszero"],
            "boolreg": ["get", "set:t", "set:f"]}


class _Gen:
    def __init__(self, rng, cfg):
        self.rng = rng
        self.methods = _METHODS[cfg.algebra] + ["nosuch"]

    def term(self, sort, depth):
        rng = self.rng
        if sort == "nat":
            if depth > 0 and rng.random() < 0.4:
                return rng.choice([Succ, Pred])(self.term("nat", depth - 1))
            return rng.choice([Var(rng.choice(_NAMES["nat"])),
                               NatLit(rng.randint(0, 3))])
        if sort == "bool":
            return rng.choice([Var(rng.choice(_NAMES["bool"])),
                               BoolLit(rng.random() < 0.5)])
        if sort == "repl":
            if depth > 0 and rng.random() < 0.5:
                return ReplyT(rng.choice(self.methods),
                              self.term("serv", depth - 1))
            return rng.choice([Var(rng.choice(_NAMES["repl"])),
                               ReplyLit(rng.choice(list(Reply)))])
        if depth > 0 and rng.random() < 0.6:
            kind = rng.randrange(3)
            if kind == 0:
                return Nnc(self.term("nat", depth - 1))
            if kind == 1:
                return RegOf(self.term("bool", depth - 1))
            return DeriveT(rng.choice(self.methods),
                           self.term("serv", depth - 1))
        return rng.choice([Var(rng.choice(_NAMES["serv"])), EmptyServ()])

    def formula(self, depth):
        rng = self.rng
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if rng.random() < 0.1:
                return rng.choice([TRUE, FALSE])
            sort = rng.choice(list(_NAMES))
            return Eq(self.term(sort, 2), self.term(sort, 2))
        if r < 0.4:
            return Not(self.formula(depth - 1))
        if r < 0.7:
            cls = rng.choice([And, Or, Implies])
            return cls(self.formula(depth - 1), self.formula(depth - 1))
        sort = rng.choice(list(_NAMES))
        cls = rng.choice([Exists, Forall])
        return cls(rng.choice(_NAMES[sort]), sort, self.formula(depth - 1))


def _random_formulas(seed, cfg, count, depth=4):
    """Well-sorted random formulas with at most two free foci."""
    gen = _Gen(random.Random(seed), cfg)
    out = []
    while len(out) < count:
        f = gen.formula(depth)
        try:
            sorts = analysis.analyze(f).sorts
        except SortError:
            continue
        if sum(s == "serv" for s in sorts.values()) <= 2:
            out.append(f)
    return out


def _space(f, cfg):
    sorts = analysis.analyze(f).sorts
    return enumerate_states({n for n, s in sorts.items() if s == "serv"},
                            {n: s for n, s in sorts.items() if s != "serv"},
                            cfg)[0]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.algebra)
def test_compiled_evaluation_matches_reference(cfg):
    seen = set()
    for f in _random_formulas(11, cfg, 400):
        compiled = compile_formula(f, cfg)
        for state, valuation in _space(f, cfg):
            expected = _ref_eval_formula(f, state, cfg, valuation)
            assert compiled(state, valuation) is expected, (
                format_formula(f), state, valuation)
            seen.add(expected)
    # the sample reaches every truth value, undecided included
    assert seen == {True, False, None}


def test_compiled_evaluation_covers_quantifiers_over_every_sort():
    sorts = set()
    for cfg in _SMALL:
        for f in _random_formulas(11, cfg, 400):
            stack = [f]
            while stack:
                g = stack.pop()
                if isinstance(g, (Exists, Forall)):
                    sorts.add(g.sort)
                    if isinstance(g.body, (Exists, Forall)):
                        sorts.add("nested")
                for child in ("body", "left", "right"):
                    if isinstance(getattr(g, child, None), (TrueF, FalseF, Not,
                                                            And, Or, Implies,
                                                            Exists, Forall, Eq)):
                        stack.append(getattr(g, child))
    assert sorts == {"nat", "bool", "repl", "serv", "nested"}


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.algebra)
def test_compiled_evaluation_raises_as_reference(cfg):
    # drop one focus or one valued variable: both evaluators raise the
    # same error, or both still evaluate (the name was not needed)
    rng = random.Random(3)
    raised = set()
    for f in _random_formulas(5, cfg, 300):
        pairs = _space(f, cfg)
        state, valuation = pairs[rng.randrange(len(pairs))]
        names = sorted({f for f, _ in state.entries} | set(valuation))
        if names:
            drop = rng.choice(names)
            state = family({k: v for k, v in state.entries if k != drop})
            valuation = {k: v for k, v in valuation.items() if k != drop}
        expected = _outcome(_ref_eval_formula, f, state, cfg, valuation)
        assert _outcome(eval_formula, f, state, cfg, valuation) == expected
        raised.add(expected[1] if expected[0] == "raised" else None)
    assert {MissingFocusError, ValueError} <= raised


def test_compiled_evaluation_sort_errors():
    for text in ("x = nnc(0) /\\ x = 0", "n = 0 -> n = reg(true)",
                 "s(empty) = 0", "c = nnc(r[get](c))",
                 "exists n:nat. d[incr](s(n)) = c"):
        f = parse_formula(text)
        with pytest.raises(SortError):
            compile_formula(f, CFG)
        with pytest.raises(SortError):
            eval_formula(f, family({}), CFG)


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.algebra)
def test_entails_matches_reference(cfg):
    rng = random.Random(7)
    formulas = _random_formulas(13, cfg, 120, depth=3)
    kinds = set()
    for _ in range(300):
        p, q = rng.choice(formulas), rng.choice(formulas)
        expected = _outcome(_ref_entails, p, q, cfg)
        assert _outcome(entails, p, q, cfg) == expected, (
            format_formula(p), format_formula(q))
        kinds.add(expected[1].kind)
    assert kinds == {"valid", "invalid", "bounded", "unknown"}
    # a variable at two sorts across p and q
    clash = (parse_formula("n = 0"), parse_formula("n = nnc(0)"))
    expected = _outcome(_ref_entails, *clash, cfg)
    assert expected[1] is SortError
    assert _outcome(entails, *clash, cfg) == expected


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.algebra)
def test_substituting_walk_matches_reference(cfg):
    # alpha_eq(a, b, x, t) compares a with b[t/x] without building it; the
    # former capture-avoiding substitution and recursive comparison are
    # the reference.  The repl terms include variables that b binds, so
    # that the reference renames binders.  The generator draws the same
    # shapes in both algebras from one seed, so each has its own.
    seed = {"counter": 31, "boolreg": 37}[cfg.algebra]
    rng = random.Random(seed)
    gen = _Gen(rng, cfg)
    formulas = _random_formulas(seed, cfg, 400)
    names = [x for group in _NAMES.values() for x in group]
    captured = 0
    for b in formulas:
        copy = parse_formula(format_formula(b))  # equal, not identical
        for a in (b, copy, rng.choice(formulas)):
            assert alpha_eq(a, b) == ref_alpha_eq(a, b), (a, b)
        for x in names:
            for t in (DeriveT("decr", Var("c")), Succ(Var("n")),
                      Var(rng.choice(names)),
                      gen.term(rng.choice(list(_NAMES)), 2)):
                expected = ref_substitute(b, x, t)
                # the reference names a renamed binder n_1, n_2, ...
                captured += "_" in format_formula(expected)
                for a in (expected, b, rng.choice(formulas)):
                    assert alpha_eq(a, b, x, t) == ref_alpha_eq(a, expected), (
                        format_formula(a), format_formula(b), x, t)
    assert captured > 100


def test_compiled_closed_terms_and_shadowing():
    # closed subterms fold at compile time; a quantifier that rebinds a
    # free variable restores it for the rest of the formula
    f = parse_formula("(exists n:nat. c = nnc(n)) /\\ d[incr](c) = nnc(s(n))")
    st = family({"c": counter(2)})
    assert compile_formula(f, CFG)(st, {"n": 2}) is True
    assert compile_formula(f, CFG)(st, {"n": 1}) is False
    closed = parse_formula("d[decr](nnc(s(0))) = nnc(0) /\\ r[iszero](empty) = :d")
    assert eval_formula(closed, family({}), CFG) is True
    # counters from 4096 on are not interned: equal, not identical
    for text in ("c = nnc(5000)", "d[incr](c) = nnc(5001)",
                 "nnc(s(n)) = d[incr](c)"):
        assert compile_formula(parse_formula(text), CFG)(
            family({"c": counter(5000)}), {"n": 5000}) is True, text


# ---------------------------------------------------------------------------
# one-point narrowing at the edges of the bounds
#
# The compiled quantifiers and entails try a nat variable only at the value
# an equation fixes; the reference above tries every value.

_EDGE = AlgebraConfig("counter", state_bound=3, quant_bound=5)


def _same_value(text, state, cfg, valuation=None):
    f = parse_formula(text)
    expected = _ref_eval_formula(f, state, cfg, valuation)
    assert eval_formula(f, state, cfg, valuation) is expected, text
    return expected


def test_one_point_quantifier_at_the_bound():
    none = family({})
    # Q = 5: a solution at Q is found, one past Q is outside the domain
    assert _same_value("exists n:nat. n = 5", none, _EDGE) is True
    assert _same_value("exists n:nat. n = 6", none, _EDGE) is None
    assert _same_value("exists n:nat. s(n) = 6", none, _EDGE) is True
    assert _same_value("exists n:nat. s(s(n)) = 8", none, _EDGE) is None
    assert _same_value("exists n:nat. s(n) = 0", none, _EDGE) is None
    assert _same_value("forall n:nat. (n = 5 -> false)", none, _EDGE) is False
    assert _same_value("forall n:nat. (n = 6 -> false)", none, _EDGE) is None
    # the quantifier bound, not the state bound (3), limits quantifiers
    assert _same_value("exists n:nat. n = 4", none, _EDGE) is True
    for content in range(8):
        st = family({"c": counter(content)})
        for text in ("exists n:nat. c = nnc(s(n))",
                     "exists n:nat. (nnc(s(n)) = c /\\ ~n = 2)",
                     "forall n:nat. (c = nnc(s(s(n))) -> n = 1)",
                     "exists n:nat. (n = m /\\ c = nnc(n))"):
            _same_value(text, st, _EDGE, {"m": min(content, 3)})


def test_one_point_disjunct_free_of_the_variable():
    # the first disjunct holds or fails whatever n is; the second fixes n
    text = "exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))"
    assert _same_value(text, family({"c": counter(0)}), _EDGE) is True
    assert _same_value(text, family({"c": counter(6)}), _EDGE) is True
    assert _same_value(text, family({"c": counter(7)}), _EDGE) is None
    text = "exists n:nat. (d = nnc(1) \\/ c = nnc(s(n)) \\/ n = 9)"
    for c in range(3):
        for d in range(3):
            _same_value(text, family({"c": counter(c), "d": counter(d)}),
                        _EDGE)
    assert _same_value("exists n:nat. c = nnc(2)",
                       family({"c": counter(2)}), _EDGE) is True


def test_one_point_nnc_facing_other_services():
    # nnc(...) never equals empty or a register: no value is a candidate
    for st in (family({"c": EMPTY}), family({"c": boolreg(True)}),
               family({"c": boolreg(False)})):
        assert _same_value("exists n:nat. c = nnc(n)", st, _EDGE) is None
        assert _same_value("exists n:nat. (c = nnc(s(n)) \\/ c = empty)",
                           st, _EDGE) is (st.get("c") == EMPTY or None)
        assert _same_value("forall n:nat. (nnc(n) = c -> false)",
                           st, _EDGE) is None
    for text in ("c = nnc(n)", "c = nnc(s(n))"):
        space = StateSpace({"c"}, {"n": "nat"}, BCFG,
                           analysis.analyze(parse_formula(text)))
        assert list(space.pairs()) == []


def test_one_point_entails_at_the_state_bound():
    # B = 3: a valuation at B is enumerated, one past B is not
    for text, kind in (("n = 3", "invalid"), ("n = 4", "bounded"),
                       ("n = 7", "bounded"), ("s(n) = 4", "invalid"),
                       ("s(n) = 0", "bounded"), ("c = nnc(s(n))", "invalid"),
                       ("nnc(s(s(n))) = c /\\ d = nnc(n)", "invalid")):
        p = parse_formula(text)
        expected = _ref_entails(p, FALSE, _EDGE)
        got = entails(p, FALSE, _EDGE)
        assert got == expected and got.kind == kind, text
    # the witness is the first countermodel in enumeration order
    v = entails(parse_formula("c = nnc(s(n)) /\\ d = nnc(s(m))"),
                parse_formula("~s(n) = s(m)"), _EDGE)
    assert v == _ref_entails(parse_formula("c = nnc(s(n)) /\\ d = nnc(s(m))"),
                             parse_formula("~s(n) = s(m)"), _EDGE)
    assert v.witness == (family({"c": counter(1), "d": counter(1)}),
                         {"m": 0, "n": 0})


def test_one_point_needs_a_total_formula():
    # an operator applied to a term of another sort never reaches
    # evaluation: sort inference rejects it in both checkers
    p = parse_formula("(c = nnc(0) /\\ n = 1 -> s(empty) = 0) /\\ c = nnc(n)")
    q = parse_formula("c = nnc(n)")
    expected = _outcome(_ref_entails, p, q, _EDGE)
    assert expected[:2] == ("raised", SortError)
    assert _outcome(entails, p, q, _EDGE) == expected
    # a quantifier over an unknown sort raises when evaluated; p is False
    # at every pair narrowing leaves out, but evaluating p there raises,
    # so nothing is left out
    unknown = Exists("x", "stack", TRUE)
    p = And(Implies(parse_formula("c = nnc(0) /\\ n = 1"), unknown), q)
    expected = _outcome(_ref_entails, p, q, _EDGE)
    assert expected[:2] == ("raised", SortError)
    assert _outcome(entails, p, q, _EDGE) == expected
    f = Exists("n", "nat", And(Implies(parse_formula("n = 1"), unknown),
                               parse_formula("n = 3")))
    expected = _outcome(_ref_eval_formula, f, family({}), _EDGE)
    assert expected[:2] == ("raised", SortError)
    assert _outcome(eval_formula, f, family({}), _EDGE) == expected


# ---------------------------------------------------------------------------
# one-point narrowing of foci
#
# A top-level conjunct `f = t` of P, t closed, fixes the focus f: entails
# enumerates only the states that give f t's value, and none when that
# value is no state content.  The reference enumerates every state.

_BOOL_EDGE = AlgebraConfig("boolreg", state_bound=2, quant_bound=2)
_FIXED_FOCUS_PRES = [
    "c = nnc(2)",  # in bound
    "nnc(s(s(0))) = c",  # the focus on the right
    "c = nnc(3)",  # at the state bound
    "c = nnc(4)",  # one past it
    "c = d[incr](nnc(3))",
    "c = reg(true)", "reg(false) = c", "c = d[set:t](reg(false))",
    "c = empty",
    "c = nnc(1) /\\ c = nnc(2)",  # two clashing conjuncts
    "c = reg(true) /\\ c = reg(false)",
    "d = nnc(0) /\\ (n = 1 /\\ (c = nnc(2) /\\ ~d = c))",  # in a chain
    "(true /\\ reg(true) = d) /\\ (c = d \\/ c = reg(false))",
    "c = nnc(1) /\\ d = nnc(s(n))",  # a focus fixed, a variable solved
    "~c = nnc(1) /\\ c = nnc(1)",
    "c = nnc(1) \\/ d = nnc(1)",  # no top-level conjunct: nothing fixed
]
_FIXED_FOCUS_POSTS = ["c = nnc(2)", "~c = d", "c = reg(true)", "false",
                      "exists n:nat. c = nnc(s(n))", "d[incr](c) = nnc(n)",
                      "r[get](c) = :t \\/ d = c"]


@pytest.mark.parametrize("cfg", [_EDGE, _BOOL_EDGE], ids=lambda c: c.algebra)
def test_fixed_focus_entails_matches_reference(cfg):
    kinds = set()
    for pre in map(parse_formula, _FIXED_FOCUS_PRES):
        for post in map(parse_formula, _FIXED_FOCUS_POSTS):
            expected = _outcome(_ref_entails, pre, post, cfg)
            assert _outcome(entails, pre, post, cfg) == expected, (
                format_formula(pre), format_formula(post))
            kinds.add(expected[1] if expected[0] == "raised"
                      else expected[1].kind)
    assert {"valid", "invalid", "bounded"} <= kinds, kinds
    # random P and Q, P joined either way round with a closed focus
    # equation either way round
    rng = random.Random(19)
    formulas = _random_formulas(23, cfg, 120, depth=3)
    closed = [parse_formula(f"c = {t}").right for t in (
        "nnc(0)", "nnc(2)", "nnc(7)", "reg(true)", "reg(false)", "empty",
        "d[decr](nnc(1))")]
    for _ in range(300):
        p, q = rng.choice(formulas), rng.choice(formulas)
        focus, t = Var(rng.choice(_NAMES["serv"])), rng.choice(closed)
        eq = Eq(focus, t) if rng.random() < 0.5 else Eq(t, focus)
        p = And(eq, p) if rng.random() < 0.5 else And(p, eq)
        expected = _outcome(_ref_entails, p, q, cfg)
        assert _outcome(entails, p, q, cfg) == expected, (
            format_formula(p), format_formula(q))


def test_fixed_focus_leaves_out_the_other_states():
    # only the states at which the fixing conjunct holds are enumerated
    def states(text, cfg, foci=("c", "d")):
        return list(StateSpace(set(foci), {}, cfg,
                               analysis.analyze(parse_formula(text), foci))
                    .states())
    assert states("c = nnc(2)", _EDGE) == [(2, d) for d in range(4)]
    assert states("d = nnc(s(0)) /\\ true", _EDGE) == [(c, 1)
                                                       for c in range(4)]
    assert states("nnc(1) = c /\\ d = nnc(3)", _EDGE) == [(1, 3)]
    assert states("c = nnc(1) /\\ c = nnc(2)", _EDGE) == [(1, d)
                                                          for d in range(4)]
    for text in ("c = nnc(4)", "c = reg(true)", "c = empty",
                 "d = d[incr](nnc(3))"):
        assert states(text, _EDGE) == [], text
    assert states("c = reg(true)", _BOOL_EDGE) == [(1, 0), (1, 1)]
    for text in ("c = nnc(0)", "c = empty", "c = d[incr](reg(true))"):
        assert states(text, _BOOL_EDGE) == [], text
    # a conjunct that is not at the top level, or not closed, fixes nothing
    for text in ("c = nnc(1) \\/ d = nnc(1)", "~c = nnc(1)", "c = d",
                 "c = nnc(n)"):
        assert len(states(text, _EDGE)) == 16, text
    # the first qualifying conjunct fixes the focus; a later clash is
    # decided by evaluating P
    assert entails(parse_formula("c = nnc(1) /\\ c = nnc(2)"), FALSE,
                   _EDGE).kind == "bounded"


# ---------------------------------------------------------------------------
# the cutoff for an isolated counter (pga_hoare.analysis.cut)
#
# entails tries the first content of each run of contents that p and q
# cannot tell apart; the uncut space, which is checked against the
# reference above, tries them all.  The pairs come from inside the cut's
# fragment.

_SHIFT_METHODS = ["incr", "decr", "decr", "iszero", "get"]
_REPLY_METHODS = ["incr", "decr", "iszero", "get"]


def _chain(make, t, k):
    for _ in range(k):
        t = make(t)
    return t


class _Fragment:
    """Random p, q with the one focus c, free nat variables n and m fixed
    by top-level conjuncts of p, narrowed nat quantifiers (nested too),
    s/p/d[m]/r[m] chains and small numerals.  Half of the pairs are lean:
    one fixer, and atoms that change value at the very edge of a special
    interval, or that have no shifting link."""

    def __init__(self, rng):
        self.rng = rng

    def nat(self, scope, depth):
        rng = self.rng
        if depth > 0 and rng.random() < 0.5:
            return rng.choice([Succ, Succ, Pred])(self.nat(scope, depth - 1))
        if scope and rng.random() < 0.7:
            return Var(rng.choice(scope))
        return NatLit(rng.choice([0, 0, 1, 2, 3, 4, 5, 6, 7, 8]))

    def serv(self, scope, depth):
        rng = self.rng
        r = rng.random()
        if depth > 0 and r < 0.5:
            return DeriveT(rng.choice(_SHIFT_METHODS),
                           self.serv(scope, depth - 1))
        if depth > 0 and r < 0.75:
            return Nnc(self.nat(scope, depth - 1))
        return Var("c") if rng.random() < 0.9 else EmptyServ()

    def atom(self, scope):
        rng = self.rng
        r = rng.random()
        if r < 0.45:
            return Eq(self.serv(scope, 3), self.serv(scope, 3))
        if r < 0.75:
            return Eq(self.nat(scope, 3), self.nat(scope, 3))
        return Eq(ReplyT(rng.choice(_REPLY_METHODS), self.serv(scope, 2)),
                  ReplyLit(rng.choice(list(Reply))))

    def fixer(self, x, scope):
        """An equation that fixes x from the other variables in scope."""
        rng = self.rng
        others = [v for v in scope if v != x]
        side = _chain(Succ, Var(x), rng.choice([0, 0, 1, 1, 2]))
        if rng.random() < 0.6:
            side, other = Nnc(side), self.serv(others, 3)
        else:
            other = self.nat(others, 3)
        return Eq(side, other) if rng.random() < 0.5 else Eq(other, side)

    def quantifier(self, scope, depth):
        rng = self.rng
        x = rng.choice(["i", "j", "k"])
        inner = scope + [x]
        if rng.random() < 0.3:
            guard = self.fixer(x, scope)
            if rng.random() < 0.5:
                guard = And(guard, self.formula(inner, depth - 1))
            return Forall(x, "nat", Implies(guard,
                                            self.formula(inner, depth - 1)))
        disjuncts = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            r = rng.random()
            if r < 0.2:  # free of x: 0 stands for every value
                disjuncts.append(self.formula(
                    [v for v in scope if v != x], depth - 1))
            elif r < 0.6:
                disjuncts.append(self.fixer(x, scope))
            else:
                disjuncts.append(And(self.fixer(x, scope),
                                     self.formula(inner, depth - 1)))
        body = disjuncts[0]
        for d in disjuncts[1:]:
            body = Or(body, d)
        return Exists(x, "nat", body)

    def formula(self, scope, depth):
        rng = self.rng
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return self.atom(scope)
        if r < 0.4:
            return Not(self.formula(scope, depth - 1))
        if r < 0.65:
            return rng.choice([And, Or, Implies])(
                self.formula(scope, depth - 1), self.formula(scope, depth - 1))
        if r < 0.95:
            return self.quantifier(scope, depth)
        return Exists("b", "bool", Or(Eq(Var("b"), BoolLit(True)),
                                      self.formula(scope, depth - 1)))

    def edge(self):
        """An atom over c and n: c or n at most a (floors at 0), a
        quantifier over n + j or c - a that leaves qbound behind, or an
        atom with no shifting link."""
        rng = self.rng
        r = rng.random()
        a = rng.randint(1, 3)
        if r < 0.15:
            return Eq(_chain(partial(DeriveT, "decr"), Var("c"), a),
                      Nnc(NatLit(0)))
        if r < 0.3:
            return Eq(_chain(Pred, Var("n"), a), NatLit(0))
        if r < 0.5:
            if rng.random() < 0.5:
                fixed = _chain(partial(DeriveT, "decr"), Var("c"), a)
            else:
                fixed = Nnc(_chain(Succ, Var("n"), rng.randint(0, 2)))
            return Exists("k", "nat", Eq(Nnc(Var("k")), fixed))
        if r < 0.75:
            return Eq(Var("c"), Nnc(NatLit(rng.randint(0, 6))))
        if r < 0.9:
            return Eq(Var("n"), NatLit(rng.randint(0, 6)))
        return Eq(ReplyT(rng.choice(["iszero", "decr"]), Var("c")),
                  ReplyLit(rng.choice(list(Reply))))

    def lean(self):
        rng = self.rng
        j = rng.choice([0, 0, 1, 2])
        if rng.random() < 0.5:  # n = c - j
            p = Eq(Var("c"), Nnc(_chain(Succ, Var("n"), j)))
        else:  # n = c + j
            p = Eq(Nnc(Var("n")), _chain(partial(DeriveT, "incr"), Var("c"),
                                         j))
        if rng.random() < 0.3:
            p = And(p, self.edge())
        q = self.edge()
        for _ in range(rng.randint(0, 2)):
            q = rng.choice([Or, Or, And])(q, self.edge())
        return p, (Not(q) if rng.random() < 0.3 else q)

    def pair(self):
        rng = self.rng
        if rng.random() < 0.5:
            return self.lean()
        free = rng.sample(["n", "m"], rng.choice([0, 1, 1, 2]))
        conjuncts = [self.fixer(v, []) for v in free]
        conjuncts.append(self.formula(free, 2))
        rng.shuffle(conjuncts)
        p = conjuncts[0]
        for g in conjuncts[1:]:
            p = And(p, g)
        return p, self.formula(free, 3)


def test_cutoff_matches_full_enumeration_in_its_fragment(monkeypatch):
    # qbound above B, around B and further below, so that unknown
    # verdicts come from both ends; a special interval one shorter at
    # either end fails here
    configs = [AlgebraConfig("counter", 30, q) for q in (33, 31, 30, 29, 24)]
    real, cuts = analysis.cut, []

    def spied(*args):
        contents = real(*args)
        cuts.append(contents is not None)
        return contents

    gen = _Fragment(random.Random(29))
    kinds = set()
    for _ in range(500):
        p, q = gen.pair()
        for cfg in configs:
            monkeypatch.setattr(analysis, "cut", lambda *args: None)
            expected = _outcome(entails, p, q, cfg, ("c",))
            monkeypatch.setattr(analysis, "cut", spied)
            assert _outcome(entails, p, q, cfg, ("c",)) == expected, (
                cfg.quant_bound, format_formula(p), format_formula(q))
            kinds.add(expected[1].kind if expected[0] == "value"
                      else expected[1])
    assert {"invalid", "bounded", "unknown"} <= kinds, kinds
    assert sum(cuts) > len(cuts) * 0.6, (sum(cuts), len(cuts))


def test_cutoff_tries_the_special_contents_in_its_fragment_only(monkeypatch):
    seen, pairs = [], StateSpace.pairs

    def spied(space):
        seen.append(space.focus_domains)
        return pairs(space)
    monkeypatch.setattr(StateSpace, "pairs", spied)

    def domain(p, q, cfg, foci=("c",)):
        seen.clear()
        entails(parse_formula(p), parse_formula(q), cfg, foci)
        return seen[0]

    cfg = AlgebraConfig("counter", 48, 51)
    # Λ = 1 (the s), 0 the only numeral, qbound past B: 0 to L = 2
    assert domain("true", "exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))",
                  cfg) == [[0, 1, 2]]
    # Λ = 4, numerals 0 and 3, qbound below B: [0, 8] and [37, 45]
    assert domain("c = nnc(s(s(n)))",
                  "exists k:nat. nnc(k) = d[decr](nnc(s(n))) \\/ n = 3",
                  AlgebraConfig("counter", 48, 40)) == [
        [*range(9), *range(37, 46)]]
    # Λ = 2: a run [3, 6] between 0 and the numeral 9, and one [12, 1000]
    assert domain("c = nnc(s(n))", "p(n) = 9",
                  AlgebraConfig("counter", 1000, 2000)) == [
        [0, 1, 2, 3, *range(7, 13)]]
    # a run [2, 10] below a qbound far below B, and one [13, 1000] above it
    assert domain("true", "exists n:nat. c = nnc(s(n))",
                  AlgebraConfig("counter", 1000, 11)) == [
        [0, 1, 2, 11, 12, 13]]
    # outside the fragment every content is tried
    for p, q, foci in (("true", "c = d", ("c", "d")),  # two foci
                       ("c = nnc(n)", "c = nnc(m)", ("c",)),  # m unfixed
                       ("c = nnc(n)", "b = true", ("c",)),  # a bool
                       ("true", "exists n:nat. ~c = nnc(n)", ("c",)),
                       ("true", "exists x:serv. x = c", ("c",)),
                       ("c = nnc(5)", "false", ("c",))):  # c pinned
        assert all(len(d) in (1, 49) for d in domain(p, q, cfg, foci)), p
    assert domain("true", "exists n:nat. c = nnc(n)", BCFG,
                  ("c",)) == [range(2)]
    # the special contents end where the formulas change value: the
    # first countermodel is at Λ + 1, one undecided content at Q - Λ + 1
    # (n > B leaves out the next), and q holds at Q + Λ and not after
    v = entails(TRUE, parse_formula("d[decr](d[decr](d[decr](c))) = nnc(0)"),
                cfg)
    assert v.kind == "invalid" and v.witness[0] == family({"c": counter(4)})
    for qbound, kind in ((48, "unknown"), (49, "bounded")):
        assert entails(parse_formula("nnc(n) = d[incr](c)"),
                       parse_formula("exists m:nat. nnc(m) = nnc(s(n))"),
                       AlgebraConfig("counter", 48, qbound)).kind == kind
    q = parse_formula("exists m:nat. nnc(m) = d[decr](d[decr](c))")
    for qbound, kind in ((45, "unknown"), (46, "bounded")):
        assert entails(TRUE, q, AlgebraConfig("counter", 48, qbound)
                       ).kind == kind


# ---------------------------------------------------------------------------
# the formula lexer against the former character-by-character one


def _ref_lex(t):
    symbols = ("->", "/\\", "\\/", "~", "(", ")", "[", "]", "=", ".", ":")
    tokens, n, p = [], len(t), 0
    while p < n:
        if t[p].isspace():
            p += 1
            continue
        matched = next((sym for sym in symbols if t.startswith(sym, p)), None)
        if matched:
            tokens.append((matched, p))
            p += len(matched)
            continue
        if t[p].isdigit():
            start = p
            while p < n and t[p].isdigit():
                p += 1
            tokens.append((("num", int(t[start:p])), start))
            continue
        if t[p].isalpha() or t[p] == "_":
            start = p
            while p < n and (t[p].isalnum() or t[p] == "_"):
                p += 1
            tokens.append((("ident", t[start:p]), start))
            continue
        raise FormulaSyntaxError(f"unexpected character {t[p]!r}", p)
    tokens.append((("eof", None), n))
    return tokens


_PIECES = ["->", "/\\", "\\/", "~", "(", ")", "[", "]", "=", ".", ":", " ",
           "\t", "\n", "0", "7", "42", "n", "c", "nnc", "_x", "a1", "-", "/",
           "\\", ">", "#", "$", "\u00e9", "\u00bd", "\u0663", "\u00a0",
           "\u00b2"]


def test_lexer_matches_reference():
    rng = random.Random(5)
    texts = ["c = nnc(s(n)) -> exists n:nat. (c = nnc(0) \\/ c = nnc(s(n)))",
             "r[set:t](r) = :t /\\ ~d[decr](c) = empty", "", "   ", "- >",
             "a /\\\\ b", "x = 0 $", "\\", "/", "12ab", "\u00e9t\u00e9 = 3"]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randrange(16)))
              for _ in range(3000)]
    errors = 0
    for text in texts:
        try:
            expected = ("tokens", _ref_lex(text))
        except FormulaSyntaxError as exc:
            expected = ("error", str(exc), exc.pos)
        except ValueError:
            # int() of a run holding a superscript digit such as "\u00b2":
            # the former lexer let this escape as a bare ValueError; it is
            # now an unexpected character at that digit
            with pytest.raises(FormulaSyntaxError, match="unexpected"):
                _formula_tokens(Tokens(text))
            continue
        try:
            got = ("tokens", _formula_tokens(Tokens(text)))
        except FormulaSyntaxError as exc:
            got = ("error", str(exc), exc.pos)
        assert got == expected, repr(text)
        errors += got[0] == "error"
    assert 100 < errors < len(texts) - 100


# ---------------------------------------------------------------------------
# sort inference by unification


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.algebra)
def test_sort_inference_ignores_conjunct_order(cfg):
    rng = random.Random(17)
    formulas = _random_formulas(17, cfg, 200)
    for _ in range(300):
        a, b = rng.choice(formulas), rng.choice(formulas)
        assert (analysis.analyze(And(a, b)).sorts
                == analysis.analyze(And(b, a)).sorts), (
            format_formula(a), format_formula(b))


_SORTED_TERMS = {"nat": NatLit(0), "bool": BoolLit(True),
                 "repl": ReplyLit(Reply.T), "serv": EmptyServ()}


def test_sort_inference_joins_chains_of_variables_in_any_order():
    # x0 = x1 /\ ... /\ x3 = t, conjuncts in every order and each equation
    # either way round: every xi takes the sort of t
    rng = random.Random(4)
    names = ["x0", "x1", "x2", "x3"]
    for sort, t in _SORTED_TERMS.items():
        links = [(Var(a), Var(b)) for a, b in zip(names, names[1:])]
        links.append((Var(names[-1]), t))
        for order in itertools.permutations(links):
            eqs = [Eq(*pair) if rng.random() < 0.5 else Eq(*pair[::-1])
                   for pair in order]
            f = eqs[0]
            for eq in eqs[1:]:
                f = And(f, eq)
            assert analysis.analyze(f).sorts == dict.fromkeys(names, sort)
    # an equation between two variables of different sorts is ill-sorted
    with pytest.raises(SortError, match="ill-sorted equality: nat = bool"):
        analysis.analyze(parse_formula("n = 0 /\\ b = true /\\ n = b"))
    # unfixed classes: foci make theirs serv; the others cannot be inferred
    assert analysis.analyze(parse_formula("c = d /\\ m = d"),
                            {"c"}).sorts == {
        "c": "serv", "d": "serv", "m": "serv"}
    with pytest.raises(SortError, match="sort of variable m$"):
        analysis.analyze(parse_formula("c = d /\\ m = n"), {"d"})


def test_sort_inference_of_long_chains_needs_no_recursion():
    f = Eq(Var("x0"), Var("x1"))
    for i in range(1, 998):
        f = And(f, Eq(Var(f"x{i}"), Var(f"x{i + 1}")))
    f = And(f, Eq(Var("x998"), NatLit(0)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        sorts = analysis.analyze(f).sorts
    finally:
        sys.setrecursionlimit(limit)
    assert sorts == {f"x{i}": "nat" for i in range(999)}
