"""The package's parsers as they were before the one-tokenizer front end.

Kept as test-only references: `test_parsers.py` checks that the current
parsers give the same trees as these, or raise the same exception class, on
every proof in the repository and on seeded mutations of them.  Each
grammar had its own scanner here (a character scanner for sequences, a
regular-expression lexer for formulas, brace matching for annotations and a
character tokenizer for proof files) and every parser recursed once per
nesting level.

One deliberate change from the former code: an annotation point must be a
run of digits.  The former `int(point.strip())` also accepted "+1", "1_0"
and "-0".

The formula printer is kept here too, as it was before it walked with its
own stack: it recursed once per connective and term operator.  So are
the capture-avoiding substitution, which renamed a binder that would
capture, and the alpha-equivalence that the checker applied to the
substituted formula, both recursive: `test_formulas.py` checks the
checker's one walk, which substitutes as it compares, against them, and
the proof generators write axiom instances with `ref_subst_derive`.

Two front-end readers are kept as well.  `ref_plain_tokens` is the
tokenizer's former plain mode, which matched one token at a time and cut a
quoted text or a "//" comment back to its first character;
`test_parsers.py` checks `Tokens(text, plain=True)` against it.
`ref_parse_args` is the command line's former `argparse` parser, which
`test_cli.py` checks the one-table reader against on generated argv lists.
It differs on purpose in two ways: it took unique prefixes of option names
(`--bou 5`), and it read a token such as `-c.iszero` as an unknown option.
"""

import argparse
import functools
import re
from typing import Dict, Optional

from pga_hoare.formulas import (SORTS, And, BoolLit, DeriveT, EmptyServ, Eq,
                                Exists, FALSE, Forall, Formula,
                                FormulaSyntaxError, Implies, NatLit, Nnc, Not,
                                Or, Pred, RegOf, ReplyLit, ReplyT, Succ, Term,
                                TRUE, FalseF, TrueF, Var)
from pga_hoare.judgments import AssertedSeq
from pga_hoare.proofs import ProofNode, ProofSyntaxError
from pga_hoare.services import Reply
from pga_hoare.syntax import (HALT, Basic, Instr, Jump, NegTest, PosTest,
                              Power, Repeat, SequenceSyntaxError,
                              SequenceTerm, concat_all)


# ---------------------------------------------------------------------------
# sequence terms

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_METHOD_CONT = _IDENT_CONT | {":"}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise SequenceSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SequenceSyntaxError("expected a natural number", start)
        return int(self.text[start : self.pos])

    def ident(self, allow_colon=False) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            raise SequenceSyntaxError("expected an identifier", self.pos)
        cont = _METHOD_CONT if allow_colon else _IDENT_CONT
        while self.pos < len(self.text) and self.text[self.pos] in cont:
            self.pos += 1
        return self.text[start : self.pos]


def _parse_atom(s: _Scanner) -> SequenceTerm:
    ch = s.peek()
    if ch == "(":
        s.take()
        inner = _parse_seq(s)
        s.expect(")")
        return inner
    if ch == "!":
        s.take()
        return Instr(HALT)
    if ch == "#":
        s.take()
        if s.peek() == "-":
            raise SequenceSyntaxError("negative jump offset", s.pos)
        return Instr(Jump(s.nat()))
    polarity = None
    if ch in "+-":
        polarity = s.take()
    focus = s.ident()
    s.expect(".")
    method = s.ident(allow_colon=True)
    if polarity == "+":
        return Instr(PosTest(focus, method))
    if polarity == "-":
        return Instr(NegTest(focus, method))
    return Instr(Basic(focus, method))


def _parse_item(s: _Scanner) -> SequenceTerm:
    term = _parse_atom(s)
    while s.peek() == "^":
        s.take()
        if s.peek() == "w":
            s.take()
            term = Repeat(term)
        else:
            term = Power(term, s.nat())
    return term


def _parse_seq(s: _Scanner) -> SequenceTerm:
    items = [_parse_item(s)]
    while s.peek() == ";":
        s.take()
        items.append(_parse_item(s))
    return concat_all(items)


def ref_parse_sequence(text: str) -> SequenceTerm:
    if not text.strip():
        raise SequenceSyntaxError("empty term", 0)
    s = _Scanner(text)
    term = _parse_seq(s)
    if s.peek():
        raise SequenceSyntaxError("trailing input", s.pos)
    return term


# ---------------------------------------------------------------------------
# formulas

_BIN = {"/\\": And, "\\/": Or, "->": Implies}


# One token after optional whitespace: a symbol, a run of decimal digits,
# or a word (a name when it starts with a letter or "_").  The groups are
# tried in this order, so "->" wins over a lone "-" and digits over names.
_TOKEN = re.compile(r"\s*(?:(->|/\\|\\/|[~()\[\]=.:])|(\d+)|(\w+))?")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._lex()
        self.i = 0

    def _lex(self):
        t = self.text
        n = len(t)
        tokens = self.tokens
        match = _TOKEN.match
        p = 0
        while True:
            m = match(t, p)
            p = m.end()
            group = m.lastindex
            if group is None:
                if p == n:
                    break
                raise FormulaSyntaxError(f"unexpected character {t[p]!r}", p)
            start = m.start(group)
            if group == 1:
                tokens.append((m.group(1), start))
            elif group == 2:
                tokens.append((("num", int(m.group(2))), start))
            elif t[start].isalpha() or t[start] == "_":
                tokens.append((("ident", m.group(3)), start))
            else:
                raise FormulaSyntaxError(f"unexpected character {t[start]!r}",
                                         start)
        tokens.append((("eof", None), n))

    def peek(self):
        return self.tokens[self.i][0]

    def peek2(self):
        return self.tokens[self.i + 1][0] if self.i + 1 < len(self.tokens) else ("eof", None)

    def here(self) -> int:
        return self.tokens[self.i][1]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, sym):
        tok = self.next()
        if tok != sym:
            raise FormulaSyntaxError(f"expected {sym!r}, got {tok!r}", self.tokens[self.i - 1][1])


def _is_ident(tok, name=None):
    return isinstance(tok, tuple) and tok[0] == "ident" and (name is None or tok[1] == name)


class _FormulaParser:
    def __init__(self, text: str):
        self.lx = _Lexer(text)

    def parse(self) -> Formula:
        f = self.formula()
        if self.lx.peek() != ("eof", None):
            raise FormulaSyntaxError("trailing input", self.lx.here())
        return f

    def formula(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.lx.peek() == "->":
            self.lx.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.lx.peek() == "\\/":
            self.lx.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.lx.peek() == "/\\":
            self.lx.next()
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        if self.lx.peek() == "~":
            self.lx.next()
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.lx.peek()
        if _is_ident(tok, "exists") or _is_ident(tok, "forall"):
            kind = tok[1]
            self.lx.next()
            var_tok = self.lx.next()
            if not _is_ident(var_tok):
                raise FormulaSyntaxError("expected a variable name", self.lx.here())
            self.lx.expect(":")
            sort_tok = self.lx.next()
            if not _is_ident(sort_tok) or sort_tok[1] not in SORTS:
                raise FormulaSyntaxError("expected a sort (nat/bool/serv/repl)",
                                         self.lx.here())
            self.lx.expect(".")
            body = self.formula()
            cls = Exists if kind == "exists" else Forall
            return cls(var_tok[1], sort_tok[1], body)
        if tok == "(":
            self.lx.next()
            inner = self.formula()
            self.lx.expect(")")
            return inner
        if _is_ident(tok, "true") and self.lx.peek2() != "=":
            self.lx.next()
            return TRUE
        if _is_ident(tok, "false") and self.lx.peek2() != "=":
            self.lx.next()
            return FALSE
        left = self.term()
        self.lx.expect("=")
        right = self.term()
        return Eq(left, right)

    def term(self) -> Term:
        tok = self.lx.peek()
        if tok == ":":
            self.lx.next()
            lit = self.lx.next()
            if not _is_ident(lit) or lit[1] not in ("t", "f", "d"):
                raise FormulaSyntaxError("expected :t, :f or :d", self.lx.here())
            return ReplyLit(Reply(lit[1]))
        if isinstance(tok, tuple) and tok[0] == "num":
            self.lx.next()
            return NatLit(tok[1])
        if _is_ident(tok):
            name = tok[1]
            nxt = self.lx.peek2()
            if name in ("d", "r") and nxt == "[":
                self.lx.next()
                self.lx.expect("[")
                method = self._method_name()
                self.lx.expect("]")
                self.lx.expect("(")
                arg = self.term()
                self.lx.expect(")")
                return DeriveT(method, arg) if name == "d" else ReplyT(method, arg)
            if name in ("s", "p", "nnc", "reg") and nxt == "(":
                self.lx.next()
                self.lx.expect("(")
                arg = self.term()
                self.lx.expect(")")
                return {"s": Succ, "p": Pred, "nnc": Nnc, "reg": RegOf}[name](arg)
            self.lx.next()
            if name == "empty":
                return EmptyServ()
            if name == "true":
                return BoolLit(True)
            if name == "false":
                return BoolLit(False)
            return Var(name)
        raise FormulaSyntaxError("expected a term", self.lx.here())

    def _method_name(self) -> str:
        # method names may contain ':' segments (e.g. set:t)
        tok = self.lx.next()
        if not _is_ident(tok):
            raise FormulaSyntaxError("expected a method name", self.lx.here())
        name = tok[1]
        while self.lx.peek() == ":":
            self.lx.next()
            part = self.lx.next()
            if not _is_ident(part):
                raise FormulaSyntaxError("expected a method name part", self.lx.here())
            name += ":" + part[1]
        return name


def ref_parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()


# ---------------------------------------------------------------------------
# asserted sequences


def _take_group(text: str, pos: int):
    """Consume one {...} group starting at pos; returns (inner, next_pos)."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        raise ValueError(f"expected '{{' at position {pos} in {text!r}")
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[pos + 1 : i], i + 1
    raise ValueError(f"unbalanced braces in {text!r}")


def ref_parse_annotation(inner: str):
    """The text between the braces of one annotation: (point, formula)."""
    point, bar, formula = inner.partition("|")
    if not bar:
        raise ValueError(f"annotation needs 'point | formula': {inner!r}")
    if not re.fullmatch(r"\d+", point.strip()):
        # the one deliberate change: int() also took "+1", "1_0" and "-0"
        raise ValueError(f"annotation point must be a natural number: {point!r}")
    return int(point.strip()), ref_parse_formula(formula)


def ref_parse_asserted(text: str) -> AssertedSeq:
    pre_inner, pos = _take_group(text, 0)
    tail = text[pos:]
    brace = tail.rfind("{")
    if brace < 0:
        raise ValueError(f"missing post-annotation in {text!r}")
    seq_text = tail[:brace].strip()
    if seq_text.startswith('"') and seq_text.endswith('"') and len(seq_text) >= 2:
        seq_text = seq_text[1:-1]
    post_inner, end = _take_group(tail, brace)
    if tail[end:].strip():
        raise ValueError(f"trailing input after post-annotation: {tail[end:]!r}")
    b, pre = ref_parse_annotation(pre_inner)
    e, post = ref_parse_annotation(post_inner)
    return AssertedSeq(b, pre, ref_parse_sequence(seq_text), e, post)


# ---------------------------------------------------------------------------
# proof files


_WS_RE = re.compile(r"(?:\s+|//[^\n]*)+")
_NUM_RE = re.compile(r"\d+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _ProofTokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        m = _WS_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()

    def peek(self) -> Optional[str]:
        self._skip()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        self._skip()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in "()[]":
            self.pos += 1
            return ch
        if self.text.startswith(":=", self.pos):
            self.pos += 2
            return ":="
        if self.text.startswith("=>", self.pos):
            self.pos += 2
            return "=>"
        if ch == '"':
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise ProofSyntaxError(f"unterminated string at {self.pos}")
            s = self.text[self.pos + 1 : end]
            self.pos = end + 1
            return ("str", s)
        if ch == "{":
            depth = 0
            for i in range(self.pos, len(self.text)):
                if self.text[i] == "{":
                    depth += 1
                elif self.text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        inner = self.text[self.pos + 1 : i]
                        self.pos = i + 1
                        return ("group", inner)
            raise ProofSyntaxError(f"unbalanced braces at {self.pos}")
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return ("num", int(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return ("ident", m.group())
        raise ProofSyntaxError(f"unexpected character {ch!r} at {self.pos}")

    def expect(self, tok):
        got = self.next_token()
        if got != tok:
            raise ProofSyntaxError(f"expected {tok!r}, got {got!r}")


def _annotation(inner: str):
    try:
        return ref_parse_annotation(inner)
    except ValueError as exc:
        raise ProofSyntaxError(str(exc)) from exc


class _ProofParser:
    AXIOMS = {f"A{i}" for i in range(1, 12)}
    RULES = {f"R{i}" for i in range(1, 11)}

    def __init__(self, text: str):
        self.toks = _ProofTokens(text)
        self.bindings: Dict[str, ProofNode] = {}

    def parse_file(self) -> ProofNode:
        last = None
        while True:
            tok = self.toks.next_token()
            if tok is None:
                break
            if isinstance(tok, tuple) and tok[0] == "ident":
                self.toks.expect(":=")
                self.toks.expect("(")
                node = self._node_body()
                self.bindings[tok[1]] = node
                last = node
            elif tok == "(":
                last = self._node_body()
            else:
                raise ProofSyntaxError(f"expected a binding or record, got {tok!r}")
        if last is None:
            raise ProofSyntaxError("empty proof file")
        return last

    def _asserted(self, first=None) -> AssertedSeq:
        pre = first if first is not None else self.toks.next_token()
        if not (isinstance(pre, tuple) and pre[0] == "group"):
            raise ProofSyntaxError(f"expected an annotation group, got {pre!r}")
        seq = self.toks.next_token()
        if not (isinstance(seq, tuple) and seq[0] == "str"):
            raise ProofSyntaxError(f"expected a quoted sequence, got {seq!r}")
        post = self.toks.next_token()
        if not (isinstance(post, tuple) and post[0] == "group"):
            raise ProofSyntaxError(f"expected an annotation group, got {post!r}")
        b, p = _annotation(pre[1])
        e, q = _annotation(post[1])
        return AssertedSeq(b, p, ref_parse_sequence(seq[1]), e, q)

    def _operand(self) -> ProofNode:
        tok = self.toks.next_token()
        if tok == "(":
            return self._node_body()
        if isinstance(tok, tuple) and tok[0] == "ident":
            if tok[1] not in self.bindings:
                raise ProofSyntaxError(f"unknown proof name {tok[1]!r}")
            return self.bindings[tok[1]]
        raise ProofSyntaxError(f"expected a proof node, got {tok!r}")

    def _node_body(self) -> ProofNode:
        head = self.toks.next_token()
        if not (isinstance(head, tuple) and head[0] == "ident"):
            raise ProofSyntaxError(f"expected a rule name, got {head!r}")
        rule = head[1].upper()
        if rule in self.AXIOMS:
            concl = self._asserted()
            self.toks.expect(")")
            return ProofNode(rule, concl)
        if rule == "HYP":
            idx = self.toks.next_token()
            if not (isinstance(idx, tuple) and idx[0] == "num"):
                raise ProofSyntaxError("HYP needs a hypothesis index")
            self.toks.expect(")")
            return ProofNode("HYP", hyp_index=idx[1])
        if rule == "R5":
            return self._r5()
        if rule == "R10":
            p_ob = self.toks.next_token()
            prem = self._operand()
            q_ob = self.toks.next_token()
            for ob in (p_ob, q_ob):
                if not (isinstance(ob, tuple) and ob[0] == "str"):
                    raise ProofSyntaxError("R10 needs two quoted obligations")
            self.toks.expect("=>")
            concl = self._asserted()
            self.toks.expect(")")
            return ProofNode("R10", concl, (prem,),
                             obligations=(ref_parse_formula(p_ob[1]),
                                          ref_parse_formula(q_ob[1])))
        if rule == "R9":
            x = self.toks.next_token()
            y = self.toks.next_token()
            for v in (x, y):
                if not (isinstance(v, tuple) and v[0] == "ident"):
                    raise ProofSyntaxError("R9 needs two variable names")
            prem = self._operand()
            self.toks.expect("=>")
            concl = self._asserted()
            self.toks.expect(")")
            return ProofNode("R9", concl, (prem,), rename=(x[1], y[1]))
        if rule in self.RULES or rule == "REPINTRO":
            arity = 2 if rule in ("R1", "R6") else 1
            premises = tuple(self._operand() for _ in range(arity))
            self.toks.expect("=>")
            concl = self._asserted()
            self.toks.expect(")")
            return ProofNode(rule, concl, premises)
        raise ProofSyntaxError(f"unknown rule {rule!r}")

    def _r5(self) -> ProofNode:
        kw = self.toks.next_token()
        if kw != ("ident", "hyps"):
            raise ProofSyntaxError("R5 needs a 'hyps' list")
        self.toks.expect("[")
        hyps = []
        while True:
            tok = self.toks.next_token()
            if tok == "]":
                break
            hyps.append(self._asserted(first=tok))
        kw = self.toks.next_token()
        if kw != ("ident", "k"):
            raise ProofSyntaxError("R5 needs the selected index k")
        k = self.toks.next_token()
        if not (isinstance(k, tuple) and k[0] == "num"):
            raise ProofSyntaxError("R5 index k must be a number")
        kw = self.toks.next_token()
        if kw != ("ident", "subproofs"):
            raise ProofSyntaxError("R5 needs a 'subproofs' list")
        self.toks.expect("[")
        subs = []
        while True:
            if self.toks.peek() == "]":
                self.toks.next_token()
                break
            subs.append(self._operand())
        self.toks.expect(")")
        if not hyps:
            raise ProofSyntaxError("R5 needs at least one hypothesis")
        if not 1 <= k[1] <= len(hyps):
            raise ProofSyntaxError("R5 index k out of range")
        return ProofNode("R5", hyps[k[1] - 1], hyps=tuple(hyps), k=k[1],
                         premises=tuple(subs))


def ref_parse_proof(text: str) -> ProofNode:
    return _ProofParser(text).parse_file()


# ---------------------------------------------------------------------------
# the recursive formula printer


def ref_format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, NatLit):
        return str(t.value)
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, ReplyLit):
        return ":" + t.value.value
    if isinstance(t, Succ):
        return f"s({ref_format_term(t.arg)})"
    if isinstance(t, Pred):
        return f"p({ref_format_term(t.arg)})"
    if isinstance(t, Nnc):
        return f"nnc({ref_format_term(t.arg)})"
    if isinstance(t, RegOf):
        return f"reg({ref_format_term(t.arg)})"
    if isinstance(t, EmptyServ):
        return "empty"
    if isinstance(t, DeriveT):
        return f"d[{t.method}]({ref_format_term(t.arg)})"
    if isinstance(t, ReplyT):
        return f"r[{t.method}]({ref_format_term(t.arg)})"
    raise TypeError(f"not a term: {t!r}")


def ref_format_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Not):
        return f"~{_ref_wrap(f.body)}"
    if isinstance(f, And):
        return f"{_ref_wrap(f.left)} /\\ {_ref_wrap(f.right)}"
    if isinstance(f, Or):
        return f"{_ref_wrap(f.left)} \\/ {_ref_wrap(f.right)}"
    if isinstance(f, Implies):
        return f"{_ref_wrap(f.left)} -> {_ref_wrap(f.right)}"
    if isinstance(f, Eq):
        return f"{ref_format_term(f.left)} = {ref_format_term(f.right)}"
    if isinstance(f, Exists):
        return f"exists {f.var}:{f.sort}. {ref_format_formula(f.body)}"
    if isinstance(f, Forall):
        return f"forall {f.var}:{f.sort}. {ref_format_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _ref_wrap(f: Formula) -> str:
    if isinstance(f, (TrueF, FalseF, Eq, Not)):
        return ref_format_formula(f)
    return f"({ref_format_formula(f)})"


# ---------------------------------------------------------------------------
# substitution and alpha-equivalence

_LEAVES = (Var, NatLit, BoolLit, ReplyLit, EmptyServ)
_STEP_PART = (DeriveT, ReplyT)


def _subst_term(t: Term, name: str, repl: Term) -> Term:
    if type(t) is Var:
        return repl if t.name == name else t
    if type(t) in _LEAVES:
        return t
    arg = _subst_term(t.arg, name, repl)
    return type(t)(t.method, arg) if type(t) in _STEP_PART else type(t)(arg)


def _repl_free(t: Term) -> frozenset:
    while type(t) not in _LEAVES:
        t = t.arg
    return frozenset([t.name] if type(t) is Var else ())


def _fresh(base: str, avoid) -> str:
    i = 0
    cand = base
    while cand in avoid:
        i += 1
        cand = f"{base}_{i}"
    return cand


def _formula_var_names(f: Formula) -> frozenset:
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, Not):
        return _formula_var_names(f.body)
    if isinstance(f, (And, Or, Implies)):
        return _formula_var_names(f.left) | _formula_var_names(f.right)
    if isinstance(f, (Exists, Forall)):
        return _formula_var_names(f.body) | {f.var}
    return _repl_free(f.left) | _repl_free(f.right)


def ref_substitute(f: Formula, name: str, repl: Term) -> Formula:
    """Capture-avoiding substitution of repl for free occurrences of name."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return Not(ref_substitute(f.body, name, repl))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(ref_substitute(f.left, name, repl),
                       ref_substitute(f.right, name, repl))
    if isinstance(f, Eq):
        return Eq(_subst_term(f.left, name, repl),
                  _subst_term(f.right, name, repl))
    if isinstance(f, (Exists, Forall)):
        if f.var == name:
            return f
        if f.var in _repl_free(repl):
            avoid = _formula_var_names(f.body) | _repl_free(repl) | {name}
            fresh = _fresh(f.var, avoid)
            body = ref_substitute(f.body, f.var, Var(fresh))
            return type(f)(fresh, f.sort, ref_substitute(body, name, repl))
        return type(f)(f.var, f.sort, ref_substitute(f.body, name, repl))
    raise TypeError(f"not a formula: {f!r}")


def ref_subst_derive(f: Formula, focus: str, method: str) -> Formula:
    """P with the focus replaced by its derived service: P<d[m](f)/f>."""
    return ref_substitute(f, focus, DeriveT(method, Var(focus)))


def _alpha_term(a: Term, b: Term, env_a: Dict[str, int],
                env_b: Dict[str, int]) -> bool:
    """Terms are chains around one leaf: compared link by link."""
    while type(a) is type(b):
        if type(a) is Var:
            ia, ib = env_a.get(a.name), env_b.get(b.name)
            if ia is None and ib is None:
                return a.name == b.name
            return ia == ib
        if type(a) in _LEAVES:
            return type(a) is EmptyServ or a.value == b.value
        if type(a) in _STEP_PART and a.method != b.method:
            return False
        a, b = a.arg, b.arg
    return False


def _alpha(a: Formula, b: Formula, env_a, env_b, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is Eq:
        return (_alpha_term(a.left, b.left, env_a, env_b)
                and _alpha_term(a.right, b.right, env_a, env_b))
    if isinstance(a, (TrueF, FalseF)):
        return True
    if isinstance(a, Not):
        return _alpha(a.body, b.body, env_a, env_b, depth)
    if isinstance(a, (And, Or, Implies)):
        return (_alpha(a.left, b.left, env_a, env_b, depth)
                and _alpha(a.right, b.right, env_a, env_b, depth))
    if isinstance(a, (Exists, Forall)):
        if a.sort != b.sort:
            return False
        env_a2 = {**env_a, a.var: depth}
        env_b2 = {**env_b, b.var: depth}
        return _alpha(a.body, b.body, env_a2, env_b2, depth + 1)
    raise TypeError(f"not a formula: {a!r}")


def ref_alpha_eq(a: Formula, b: Formula) -> bool:
    return _alpha(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# the tokenizer's former plain mode


_PLAIN_TOKEN = re.compile(r"\s*(\{[^{}]*\}|\"[^\"]*\"|[A-Za-z_]\w*|:=|=>"
                          r"|[~()\[\]=.:;^!#+\"{}|]|->|-|/\\|\\/|//[^\n]*"
                          r"|\d+|\w+|\S)")


def ref_plain_tokens(text: str):
    """The tokens of plain text, ending in the EOF token " ", and their
    offsets, ending in len(text)."""
    toks, starts, pos = [], [], 0
    stop = len(text.rstrip())
    while pos < stop:
        m = _PLAIN_TOKEN.match(text, pos, stop)
        tok = m.group(1)
        if tok[0] in '"/' and len(tok) > 1 and tok[:2] != "/\\":
            tok = tok[0]
        toks.append(tok)
        starts.append(m.start(1))
        pos = m.start(1) + len(tok)
    return toks + [" "], starts + [len(text)]


# ---------------------------------------------------------------------------
# the command line's former parser


@functools.cache  # parsing leaves the parser as it was
def ref_build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pga",
        description="Instruction sequence semantics and asserted-sequence "
                    "proof checking.")
    ap.add_argument("--algebra", choices=["counter", "boolreg"],
                    default="counter")
    ap.add_argument("--bound", type=int, default=100, metavar="B",
                    help="state enumeration bound for counter contents")
    ap.add_argument("--qbound", type=int, default=32, metavar="Q",
                    help="bound for quantifiers over the naturals")
    ap.add_argument("--strict", action="store_true",
                    help="reject entailments that are only valid up to the bound")
    ap.add_argument("--format", choices=["text", "structured"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical form and length")
    p.add_argument("sequence")

    p = sub.add_parser("thread", help="print the extracted thread")
    p.add_argument("sequence")

    p = sub.add_parser("run", help="run a segment against a service family")
    p.add_argument("sequence")
    p.add_argument("family", help="e.g. '{c = counter(3)}'")
    p.add_argument("--entry", type=int, default=1, metavar="B")

    p = sub.add_parser("holds", help="semantically check an asserted sequence")
    p.add_argument("assertion", help='e.g. \'{1 | true} "!" {0 | true}\'')

    p = sub.add_parser("sp", help="strongest post-condition of P under S")
    p.add_argument("pre")
    p.add_argument("sequence")
    p.add_argument("--entry", type=int, default=1, metavar="B")
    p.add_argument("--exit", type=int, default=0, metavar="E")

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("path")
    return ap


def ref_parse_args(argv):
    """argparse's reading of argv, or None where it printed help; a usage
    error raises SystemExit with a nonzero code, after printing the usage
    on stderr."""
    try:
        return ref_build_parser().parse_args(argv, argparse.Namespace())
    except SystemExit as exc:
        if exc.code in (0, None):
            return None
        raise
