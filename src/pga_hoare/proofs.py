"""Proof trees for asserted instruction sequences and their checker.

A proof is a tree of axiom instances (A1-A11) and rule applications
(R1-R10, plus the derived repetition-introduction rule).  The repetition
rule R5 carries hypothetical subderivations: its subproofs may use HYP
leaves referring to the rule's hypotheses, and may not contain a nested
repetition rule.

Sequence matching is term-level: the instruction atoms of the written
terms must line up literally (with ^w kept symbolic), so that S^w and
S ; S^w stay distinct inside repetition subproofs even though they denote
the same sequence.

Proof file format: `name := (node)` bindings, one node per parenthesized
record, `//` comments.  Examples of records:

    (A9 {1 | P} "#3" {3 | P})
    (R1 <node> <node> => {b | P} "S1 ; S2" {e | Q})
    (R9 x y <node> => {b | P} "S" {e | Q})
    (R10 "P -> P'" <node> "Q' -> Q" => {b | P} "S" {e | Q})
    (R5 hyps [{b1 | P1} "S^w" {0 | Q1}] k 1 subproofs [<node>])
    (HYP 1)

where <node> is either a nested record or a previously bound name.  The
root of the proof is the last binding (or the last bare record).

A file is read in one pass over its tokens, comments being dropped when it
is tokenized.  One loop reads each record's items in the order of its
rule's shape (_SHAPES), the records around it waiting on a stack, so
nesting costs no recursion; a syntax error names the token where it is
found, or the end of input, and its position.  A proof restates each
premise's annotations in the conclusion above it, and each R10 writes
P -> P' again, so one table per call maps the token text of each formula
read, and of each parenthesized group in it that no other group holds, to
its formula (see formulas.formula_at): an annotation's formula is keyed
without its point, so {1 | X}, {2 | X} and an obligation's operand (X) are
one object.  The table is hash-consing by text (Filliâtre & Conchon,
"Type-safe modular hash-consing", ML Workshop 2006); it dies with its
call.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from . import analysis
from .formulas import (And, DeriveT, Eq, Exists, FALSE, Formula, Implies,
                       Not, Or, ReplyLit, ReplyT, SortError, TRUE, Var,
                       alpha_eq, compile_formula, entails, format_formula,
                       formula_of)
from .judgments import AssertedSeq, annotation_of
from .lexer import (EOF, MAX_DEPTH, NAME_START, ParseError, Tokens, TOO_DEEP,
                    numeral)
from .records import record
from .services import AlgebraConfig, Reply
from .syntax import (REP, Basic, Halt, Jump, NegTest, PosTest, is_rep,
                     sequence_of, term_atoms)


# ---------------------------------------------------------------------------
# proof trees


@record
class ProofNode:
    rule: str  # A1..A11, R1..R10, HYP, REPINTRO
    conclusion: Optional[AssertedSeq] = None
    premises: Tuple["ProofNode", ...] = ()
    hyps: Tuple[AssertedSeq, ...] = ()  # R5 only
    k: int = 0  # R5 only, 1-based
    hyp_index: int = 0  # HYP only, 1-based
    rename: Optional[Tuple[str, str]] = None  # R9 only: (x, y)
    obligations: Optional[Tuple[Formula, Formula]] = None  # R10 only


@record
class CheckResult:
    accepted: bool
    failures: List[Tuple[str, str]]
    assumptions: List[str]


# ---------------------------------------------------------------------------
# term-level sequence atoms

def atoms_len(atoms: tuple) -> Optional[int]:
    """Number of instructions, or None when a repetition makes it infinite."""
    for a in atoms:
        if is_rep(a):
            return None
    return len(atoms)


def atoms_foci(atoms: tuple) -> frozenset:
    """The foci of the atoms' instructions, repetition bodies included;
    nested bodies wait on a stack, so depth costs no recursion."""
    out, stack = set(), [atoms]
    while stack:
        for a in stack.pop():
            if is_rep(a):
                stack.append(a[1])
            elif isinstance(a, (Basic, PosTest, NegTest)):
                out.add(a.focus)
    return frozenset(out)


# ---------------------------------------------------------------------------
# proof file parsing


class ProofSyntaxError(ParseError):
    pass


# What a record holds after its rule name, one letter per item: J a
# judgment {b | P} "S" {e | Q}, N a premise (a nested record or a bound
# name), q a quoted obligation, x a name, # a numeral, j and n judgments
# and premises up to "]"; the other letters are the tokens in _TOKEN_OF.
_SHAPES = {"HYP": "#)", "R1": "NN=J)", "R6": "NN=J)", "R9": "xxN=J)",
           "R10": "qNq=J)", "R5": "h[jk#s[n)",
           **dict.fromkeys((f"A{i}" for i in range(1, 12)), "J)"),
           **dict.fromkeys(("R2", "R3", "R4", "R7", "R8", "REPINTRO"),
                           "N=J)")}
_TOKEN_OF = {"=": "=>", ")": ")", "[": "[", "h": "hyps", "k": "k",
             "s": "subproofs"}
_WANTED = {"N": "a proof node", "n": "a proof node or ']'", "#": "a number",
           "q": "a quoted obligation", "x": "a variable name",
           **{c: repr(tok) for c, tok in _TOKEN_OF.items()}}


def _fail(src: Tokens, i: int, what: str):
    """Raises that what was expected where token i stands."""
    tok = src.toks[i]
    got = "end of input" if tok == EOF else repr(tok)
    raise ProofSyntaxError(f"expected {what}, got {got}", src.start(i))


def _is_name(tok: str) -> bool:
    return tok[0] in NAME_START and tok.isascii()


def _rule(src: Tokens, i: int) -> str:
    """The rule that token i names, in capitals."""
    tok = src.toks[i]
    if not _is_name(tok):
        _fail(src, i, "a rule name")
    if tok.upper() not in _SHAPES:
        raise ProofSyntaxError(f"unknown rule {tok!r}", src.start(i))
    return tok.upper()


def _judgment(src: Tokens, i: int, texts: dict, table: dict) -> AssertedSeq:
    """The judgment at tokens i..i+2, its annotations read before its
    sequence, and each of the three texts once per file."""
    toks = src.toks
    pre = toks[i]
    if pre[0] != "{" or len(pre) < 2:
        _fail(src, i, "an annotation")
    seq = toks[i + 1]
    if seq[0] != '"' or len(seq) < 2:
        _fail(src, i + 1, "a quoted sequence")
    post = toks[i + 2]
    if post[0] != "{" or len(post) < 2:
        _fail(src, i + 2, "an annotation")
    try:
        b, p = texts.get(pre) or texts.setdefault(
            pre, annotation_of(src.inner(i), table))
        e, q = texts.get(post) or texts.setdefault(
            post, annotation_of(src.inner(i + 2), table))
    except ValueError as exc:
        raise ProofSyntaxError(str(exc)) from exc
    term = texts.get(seq) or texts.setdefault(
        seq, sequence_of(src.inner(i + 1)))
    return AssertedSeq(b, p, term, e, q)


def _node(rule: str, items: list, src: Tokens, obligations: dict,
          table: dict) -> ProofNode:
    """The node of a record from the items its shape read; R10 reads its
    obligations here, after its conclusion, each text once per file."""
    if rule == "HYP":
        return ProofNode("HYP", hyp_index=items[0])
    if rule == "R5":
        hyps, k, *subs = items
        if not 1 <= k <= len(hyps):
            raise ProofSyntaxError(
                f"R5 index k={k} is not that of a hypothesis")
        return ProofNode("R5", hyps[k - 1], hyps=hyps, k=k,
                         premises=tuple(subs))
    *items, concl = items
    if rule == "R10":
        p_ob, prem, q_ob = items
        return ProofNode("R10", concl, (prem,), obligations=tuple(
            obligations.get(src.toks[k]) or obligations.setdefault(
                src.toks[k], formula_of(src.inner(k), 0, table))
            for k in (p_ob, q_ob)))
    if rule == "R9":
        x, y, prem = items
        return ProofNode("R9", concl, (prem,), rename=(x, y))
    return ProofNode(rule, concl, tuple(items))


def parse_proof(text: str) -> ProofNode:
    """The proof in text, its last binding or bare record, read in one
    pass over its tokens (see the module doc)."""
    src = Tokens(text, proof=True)
    toks = src.toks
    texts = {}  # annotation or sequence token -> what it reads
    obligations = {}  # R10's quoted token -> its formula
    table = {}  # formula text -> (formula, depth), see formulas.formula_at
    bindings: Dict[str, ProofNode] = {}
    # the record being read: its rule, shape, the index in the shape of
    # its next item and the items read; shape is None between records
    shape = last = None
    stack = []  # the records around it
    i = 0
    while True:
        tok = toks[i]
        if shape is None:  # a binding, a bare record or the end
            if tok == EOF:
                break
            name = None
            if tok != "(":
                if not _is_name(tok):
                    _fail(src, i, "a binding or record")
                if toks[i + 1] != ":=":
                    _fail(src, i + 1, "':='")
                if toks[i + 2] != "(":
                    _fail(src, i + 2, "'('")
                name, i = tok, i + 2
            rule = _rule(src, i + 1)
            shape, pos, items = _SHAPES[rule], 0, []
            i += 2
            continue
        want = shape[pos]
        if want == "J" or want == "j" and tok != "]":
            items.append(_judgment(src, i, texts, table))
            pos += want == "J"
            i += 3
            continue
        if want == "N" or want == "n" and tok != "]":
            if tok == "(":
                if len(stack) + 1 >= MAX_DEPTH:
                    raise ValueError(TOO_DEEP)
                stack.append((rule, shape, pos + (want == "N"), items))
                rule = _rule(src, i + 1)
                shape, pos, items = _SHAPES[rule], 0, []
                i += 2
                continue
            if tok not in bindings:
                if _is_name(tok):
                    raise ProofSyntaxError(f"unknown proof name {tok!r}",
                                           src.start(i))
                _fail(src, i, _WANTED[want])
            items.append(bindings[tok])
            pos += want == "N"
        elif want == ")":
            if tok != ")":
                _fail(src, i, "')'")
            node = _node(rule, items, src, obligations, table)
            if stack:
                rule, shape, pos, items = stack.pop()
                items.append(node)
            else:
                shape = None
                last = node
                if name is not None:
                    bindings[name] = node
        else:
            if want == "q" and tok[0] == '"' and len(tok) > 1:
                items.append(i)
            elif want == "x" and _is_name(tok):
                items.append(tok)
            elif want == "#" and tok[0].isdecimal():
                items.append(numeral(tok))
            elif want == "j" or want == "n":  # tok is "]"
                if want == "j":
                    items = [tuple(items)]
            elif tok != _TOKEN_OF.get(want):
                _fail(src, i, _WANTED[want])
            pos += 1
        i += 1
    if last is None:
        raise ProofSyntaxError("empty proof file")
    return last


# ---------------------------------------------------------------------------
# checking


class _Checker:
    """Checks a proof tree node by node and records what fails.  The walk
    keeps one explicit stack, so a proof as deep as a chain of thousands of
    bindings costs no recursion.  Premises are resolved to their
    conclusions in one place, so each rule's method checks only its own
    side conditions."""

    def __init__(self, cfg: AlgebraConfig, strict: bool):
        self.cfg = cfg
        self.strict = strict
        self.failures: List[Tuple[str, str]] = []
        self.assumptions: List[str] = []
        self.stack = []
        # id(term) -> (term, its atoms), for this check only; holding the
        # term keeps its id from being reused while the table lives
        self.atoms_table = {}
        # a body's key (see _interned) -> this check's marker for the body
        self.markers = {}
        # (id(f), foci or ()) -> [f, its Facts, its compiled form or None],
        # (id(P), id(Q), foci) -> (P, Q, P -> Q's verdict); no SortError kept
        self.formulas, self.verdicts = {}, {}

    def fail(self, path: str, reason: str):
        self.failures.append((path, reason))

    # -- helpers ----------------------------------------------------------

    def atoms(self, term) -> tuple:
        """term_atoms(term), computed once per term object: a proof names
        a premise's term again in its conclusion and in the rules above.
        Keyed by identity, since hashing a term walks all of it."""
        hit = self.atoms_table.get(id(term))
        if hit is None:
            atoms = term_atoms(term)
            if tuple in map(type, atoms):  # it holds a repetition marker
                atoms = self._interned(atoms)
            hit = self.atoms_table[id(term)] = (term, atoms)
        return hit[1]

    def _formula(self, f: Formula, foci: frozenset) -> list:
        """f's entry, keyed by foci where a free variable is a focus."""
        entry = (self.formulas.get((id(f), foci))
                 or self.formulas.get((id(f), ())))
        if entry is None:
            facts = analysis.analyze(f, foci)
            entry = self.formulas[id(f), foci if facts.sorts.keys() & foci
                                  else ()] = [f, facts, None]
        return entry

    def compiled(self, f: Formula, cfg: AlgebraConfig, foci: frozenset):
        """compile_formula(f, cfg, foci), cfg being this check's."""
        entry = self._formula(f, foci)
        entry[2] = entry[2] or compile_formula(f, cfg, foci, entry[1])
        return entry[2]

    def _interned(self, atoms: tuple) -> tuple:
        """atoms with each repetition marker (REP, body) replaced by this
        check's one marker for an equal body.  Equal atoms then hold the
        same marker objects, so comparing them stops at identity instead
        of recursing once per nesting level.  Inner bodies are interned
        first, on an explicit stack, so a body's key holds its own markers
        by id and hashing it is shallow."""
        stack = [(iter(atoms), [])]
        while True:
            rest, out = stack[-1]
            for a in rest:
                if is_rep(a):
                    stack.append((iter(a[1]), []))
                    break
                out.append(a)
            else:
                stack.pop()
                body = tuple(out)
                if not stack:
                    return body
                key = tuple(id(a) if is_rep(a) else a for a in body)
                marker = self.markers.get(key)
                if marker is None:
                    marker = self.markers[key] = (REP, body)
                stack[-1][1].append(marker)

    def _carry(self, path: str, message: str, a: AssertedSeq,
               b: AssertedSeq, *fields: str) -> None:
        """Records message once unless a and b agree on every named field:
        the term by its atoms, entry and exit, and the formulas pre and
        post up to alpha-equivalence."""
        for name in fields:
            if name == "term":
                same = self.atoms(a.term) == self.atoms(b.term)
            elif name in ("pre", "post"):
                same = alpha_eq(getattr(a, name), getattr(b, name))
            else:
                same = getattr(a, name) == getattr(b, name)
            if not same:
                self.fail(path, message)
                return

    def _same_seq(self, a: AssertedSeq, b: AssertedSeq, path: str,
                  what: str) -> None:
        self._carry(path, f"{what}: sequence terms differ", a, b, "term")
        self._carry(path, f"{what}: entry/exit annotations differ", a, b,
                    "entry", "exit")
        self._carry(path, f"{what}: formulas differ", a, b, "pre", "post")

    def check_annotations(self, c: AssertedSeq) -> None:
        """Records a sort clash in c's annotations, read as holds reads
        them: the foci of c's term are of sort serv.  Each rule sort-checks
        only the annotations it reads, and an axiom reads none."""
        foci = atoms_foci(self.atoms(c.term))
        try:
            analysis.joint_sorts(self._formula(c.pre, foci)[1].sorts,
                                 self._formula(c.post, foci)[1].sorts, foci)
        except SortError as exc:
            self.fail("root", f"annotations: {exc}")

    # -- the walk ---------------------------------------------------------

    def check(self, root: ProofNode) -> None:
        """Checks the tree in preorder from a stack of (node, path, hyps)
        items: a node's rule first, then its premises, left to right.  R5
        pushes checks of its own, callables that run when popped."""
        self.stack.append((root, "root", None))
        while self.stack:
            item = self.stack.pop()
            if callable(item):
                item()
            else:
                self._node(*item)

    # premises per rule (R5: one per hypothesis, which _r5 checks); the
    # rule's check is the method named after it
    _ARITY = {"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": None, "R6": 2,
              "R7": 1, "R8": 1, "R9": 1, "R10": 1, "REPINTRO": 1}

    def _node(self, node: ProofNode, path: str,
              hyps: Optional[Tuple[AssertedSeq, ...]]) -> None:
        rule = node.rule
        if rule == "HYP":
            if hyps is None:
                self.fail(path, "HYP outside a repetition subproof")
            elif not 1 <= node.hyp_index <= len(hyps):
                self.fail(path, "HYP index out of range")
        elif node.conclusion is None:
            self.fail(path, f"{rule}: no conclusion")
        elif rule.startswith("A"):
            self._axiom(node, path)
        elif rule not in self._ARITY:
            self.fail(path, f"unknown rule {rule}")
        elif rule in ("R5", "REPINTRO") and hyps is not None:
            self.fail(path, "repetition rule inside a repetition subproof")
        elif self._ARITY[rule] not in (None, len(node.premises)):
            self.fail(path, f"{rule}: needs {self._ARITY[rule]} premise(s), "
                            f"has {len(node.premises)}")
        elif rule == "R5":  # R5 resolves and pushes its subproofs itself
            self._r5(node, path)
        else:
            premises = [self._conclusion_of(p, hyps) for p in node.premises]
            missing = [i for i, p in enumerate(premises, 1) if p is None]
            for i in missing:
                self.fail(path, f"premise {i} has no usable conclusion")
            if not missing:
                getattr(self, f"_{rule.lower()}")(node, path, *premises)
            for i in range(len(node.premises), 0, -1):
                self.stack.append(
                    (node.premises[i - 1], f"{path}.{rule}[{i}]", hyps))

    def _conclusion_of(self, node: ProofNode,
                       hyps: Optional[Tuple[AssertedSeq, ...]]
                       ) -> Optional[AssertedSeq]:
        if node.rule == "HYP":
            if hyps is None or not 1 <= node.hyp_index <= len(hyps):
                return None
            return hyps[node.hyp_index - 1]
        return node.conclusion

    # -- axioms -----------------------------------------------------------

    _TEST_AXIOMS = {
        "A1": (Basic, None, 1),
        "A3": (PosTest, Reply.T, 1),
        "A4": (PosTest, Reply.F, 2),
        "A6": (NegTest, Reply.T, 2),
        "A7": (NegTest, Reply.F, 1),
    }
    _DIV_AXIOMS = {"A2": Basic, "A5": PosTest, "A8": NegTest}

    def _axiom(self, node: ProofNode, path: str) -> None:
        c = node.conclusion
        atoms = self.atoms(c.term)
        if len(atoms) != 1 or is_rep(atoms[0]):
            self.fail(path, f"{node.rule}: the sequence must be one instruction")
            return
        instr = atoms[0]
        rule = node.rule
        if c.entry != 1:
            self.fail(path, f"{rule}: entry point must be 1")
        elif rule in self._TEST_AXIOMS:
            cls, reply, exit_ = self._TEST_AXIOMS[rule]
            if not isinstance(instr, cls):
                self.fail(path, f"{rule}: wrong instruction form")
                return
            if c.exit != exit_:
                self.fail(path, f"{rule}: exit must be {exit_}")
                return
            reply_eq = ReplyT(instr.method, Var(instr.focus))
            if reply is None:
                guard: Formula = Not(Eq(reply_eq, ReplyLit(Reply.D)))
            else:
                guard = Eq(reply_eq, ReplyLit(reply))
            # P is the guard and Q<d[m](f)/f>
            derived = DeriveT(instr.method, Var(instr.focus))
            if not (type(c.pre) is And and alpha_eq(c.pre.left, guard)
                    and alpha_eq(c.pre.right, c.post, instr.focus, derived)):
                self.fail(path, f"{rule}: precondition does not match the schema")
        elif rule in self._DIV_AXIOMS:
            if not isinstance(instr, self._DIV_AXIOMS[rule]):
                self.fail(path, f"{rule}: wrong instruction form")
                return
            if c.exit != 0:
                self.fail(path, f"{rule}: exit must be 0")
                return
            guard = Eq(ReplyT(instr.method, Var(instr.focus)),
                       ReplyLit(Reply.D))
            if not alpha_eq(c.pre, guard) or not alpha_eq(c.post, FALSE):
                self.fail(path, f"{rule}: annotations do not match the schema")
        elif rule == "A9":
            if not (isinstance(instr, Jump) and instr.offset >= 1):
                self.fail(path, "A9: needs a positive jump")
            elif c.exit != instr.offset or not alpha_eq(c.pre, c.post):
                self.fail(path, "A9: exit must equal the offset, P preserved")
        elif rule == "A10":
            if not (isinstance(instr, Jump) and instr.offset == 0):
                self.fail(path, "A10: needs #0")
            elif c.exit != 0 or not alpha_eq(c.pre, TRUE) or not alpha_eq(c.post, FALSE):
                self.fail(path, "A10: must be {1 | true} #0 {0 | false}")
        elif rule == "A11":
            if not isinstance(instr, Halt):
                self.fail(path, "A11: needs !")
            elif c.exit != 0 or not alpha_eq(c.pre, c.post):
                self.fail(path, "A11: exit must be 0 with P preserved")
        else:
            self.fail(path, f"unknown axiom {rule}")

    # -- concatenation rules ----------------------------------------------

    def _r1(self, node, path, p1, p2) -> None:
        c = node.conclusion
        if p1.exit <= 0 or p1.exit != p2.entry:
            self.fail(path, "R1: intermediate exit/entry must match and be > 0")
        if not alpha_eq(p1.post, p2.pre):
            self.fail(path, "R1: intermediate formulas differ")
        if self.atoms(c.term) != self.atoms(p1.term) + self.atoms(p2.term):
            self.fail(path, "R1: conclusion is not the premises' concatenation")
        self._carry(path, "R1: entry annotation must come from premise 1",
                    c, p1, "entry", "pre")
        self._carry(path, "R1: exit annotation must come from premise 2",
                    c, p2, "exit", "post")

    def _r2(self, node, path, p) -> None:
        c = node.conclusion
        a_c, a_p = self.atoms(c.term), self.atoms(p.term)
        if a_c[: len(a_p)] != a_p or len(a_c) == len(a_p):
            self.fail(path, "R2: the premise term must be a proper prefix")
            return
        tail_len = atoms_len(a_c[len(a_p):])
        if tail_len is None:
            self.fail(path, "R2: the appended segment must be finite")
            return
        if c.exit <= 0:
            self.fail(path, "R2: requires exit e > 0")
        if p.exit != c.exit + tail_len:
            self.fail(path, "R2: premise exit must be e + len(S2)")
        self._carry(path, "R2: entry/formula annotations must carry over",
                    c, p, "entry", "pre", "post")

    def _r3(self, node, path, p) -> None:
        c = node.conclusion
        a_c, a_p = self.atoms(c.term), self.atoms(p.term)
        if a_c[: len(a_p)] != a_p or len(a_c) == len(a_p):
            self.fail(path, "R3: the premise term must be a proper prefix")
        if p.exit != 0 or c.exit != 0:
            self.fail(path, "R3: both exits must be 0")
        self._carry(path, "R3: entry/formula annotations must carry over",
                    c, p, "entry", "pre", "post")

    def _r4(self, node, path, p) -> None:
        c = node.conclusion
        a_c, a_p = self.atoms(c.term), self.atoms(p.term)
        if len(a_c) <= len(a_p) or a_c[len(a_c) - len(a_p):] != a_p:
            self.fail(path, "R4: the premise term must be a proper suffix")
            return
        head_len = atoms_len(a_c[: len(a_c) - len(a_p)])
        if head_len is None:
            self.fail(path, "R4: the prepended segment must be finite")
            return
        if c.entry != p.entry + head_len:
            self.fail(path, "R4: entry must shift by len(S1)")
        self._carry(path, "R4: exit/formula annotations must carry over",
                    c, p, "exit", "pre", "post")

    # -- repetition -------------------------------------------------------

    def _r5(self, node, path) -> None:
        if len(node.premises) != len(node.hyps):
            self.fail(path, "R5: one subproof per hypothesis is required")
            return
        if not 1 <= node.k <= len(node.hyps):
            self.fail(path, f"R5: k={node.k} is not the index of a hypothesis")
            return
        bodies = set()
        for i, h in enumerate(node.hyps, 1):
            atoms = self.atoms(h.term)
            if len(atoms) != 1 or not is_rep(atoms[0]):
                self.fail(path, f"R5: hypothesis {i} must assert a repetition S^w")
                return
            if atoms_len(atoms[0][1]) is None:
                self.fail(path, f"R5: hypothesis {i} body must be finite")
                return
            bodies.add(atoms[0][1])
            if h.exit != 0:
                self.fail(path, f"R5: hypothesis {i} must have exit 0")
        if len(bodies) != 1:
            self.fail(path, "R5: all hypotheses must share the same S")
            return
        body = next(iter(bodies))
        unrolled = body + ((REP, body),)
        # popped in turn: each subproof's conclusion, with the subproof
        # after it, then R5's own conclusion
        self.stack.append(partial(
            self._same_seq, node.conclusion, node.hyps[node.k - 1], path,
            "R5: conclusion must be the k-th hypothesis"))
        for i in range(len(node.hyps), 0, -1):
            self.stack.append(partial(
                self._subproof, node.hyps[i - 1], node.premises[i - 1],
                unrolled, node.hyps, f"{path}.R5.sub[{i}]"))

    def _subproof(self, h, sub, unrolled, hyps, path) -> None:
        """R5's check of a subproof's conclusion against its hypothesis h;
        a subproof that has a conclusion is then checked itself."""
        sc = self._conclusion_of(sub, hyps)
        if sc is None:
            self.fail(path, "subproof has no usable conclusion")
            return
        if self.atoms(sc.term) != unrolled:
            self.fail(path, "subproof must conclude about S ; S^w")
        if (sc.entry != h.entry or sc.exit != 0
                or not alpha_eq(sc.pre, h.pre)
                or not alpha_eq(sc.post, h.post)):
            self.fail(path, "subproof conclusion must match its hypothesis")
        self.stack.append((sub, path, hyps))

    def _repintro(self, node, path, p) -> None:
        c = node.conclusion
        body = self.atoms(p.term)
        if atoms_len(body) is None:
            self.fail(path, "repetition introduction needs a finite body")
            return
        if self.atoms(c.term) != ((REP, body),):
            self.fail(path, "conclusion must be the premise term repeated")
        if p.exit != 0 or c.exit != 0:
            self.fail(path, "repetition introduction requires exit 0")
        self._carry(path, "entry/formula annotations must carry over",
                    c, p, "entry", "pre", "post")

    # -- structural rules -------------------------------------------------

    def _r6(self, node, path, p1, p2) -> None:
        c = node.conclusion
        if not isinstance(c.pre, Or):
            self.fail(path, "R6: precondition must be a disjunction")
            return
        if not (alpha_eq(c.pre.left, p1.pre) and alpha_eq(c.pre.right, p2.pre)):
            self.fail(path, "R6: disjuncts must match the premises")
        for i, p in enumerate((p1, p2), 1):
            self._carry(path, f"R6: premise {i} must differ only in P",
                        c, p, "term", "entry", "exit", "post")

    def _r7(self, node, path, p) -> None:
        c = node.conclusion
        if not (isinstance(c.pre, And) and isinstance(c.post, And)):
            self.fail(path, "R7: both annotations must be conjunctions")
            return
        if not (alpha_eq(c.pre.left, p.pre) and alpha_eq(c.post.left, p.post)):
            self.fail(path, "R7: left conjuncts must match the premise")
        invariant = c.pre.right
        if not alpha_eq(invariant, c.post.right):
            self.fail(path, "R7: the invariant must be the same on both sides")
        foci = atoms_foci(self.atoms(c.term))
        try:
            if self._formula(invariant, foci)[1].sorts.keys() & foci:
                self.fail(path, "R7: the invariant mentions a focus of S")
        except SortError as exc:
            self.fail(path, f"R7: {exc}")
        self._carry(path, "R7: sequence and entry/exit must carry over",
                    c, p, "term", "entry", "exit")

    def _r8(self, node, path, p) -> None:
        c = node.conclusion
        if not isinstance(c.pre, Exists):
            self.fail(path, "R8: precondition must be existential")
            return
        x = c.pre.var
        if not alpha_eq(c.pre.body, p.pre):
            self.fail(path, "R8: the body must match the premise precondition")
        foci = atoms_foci(self.atoms(c.term))
        if x in foci:
            self.fail(path, "R8: the bound variable is a focus of S")
        try:
            if x in self._formula(c.post, foci)[1].sorts:
                self.fail(path, "R8: the bound variable occurs free in Q")
        except SortError as exc:
            self.fail(path, f"R8: {exc}")
        self._carry(path, "R8: sequence and exit annotation must carry over",
                    c, p, "term", "entry", "exit", "post")

    def _r9(self, node, path, p) -> None:
        c = node.conclusion
        if node.rename is None:
            self.fail(path, "R9: missing the variable pair")
            return
        x, y = node.rename
        foci = atoms_foci(self.atoms(c.term))
        if x in foci or y in foci:
            self.fail(path, "R9: renamed variables must not be foci of S")
        if not alpha_eq(c.pre, p.pre, x, Var(y)):
            self.fail(path, "R9: precondition is not the renamed premise")
        if not alpha_eq(c.post, p.post, x, Var(y)):
            self.fail(path, "R9: postcondition is not the renamed premise")
        self._carry(path, "R9: sequence and entry/exit must carry over",
                    c, p, "term", "entry", "exit")

    def _r10(self, node, path, p) -> None:
        c = node.conclusion
        self._carry(path, "R10: sequence and entry/exit must carry over",
                    c, p, "term", "entry", "exit")
        if node.obligations is not None:
            ob_pre, ob_post = node.obligations
            if not (type(ob_pre) is Implies and alpha_eq(ob_pre.left, c.pre)
                    and alpha_eq(ob_pre.right, p.pre)):
                self.fail(path, "R10: first obligation must be P -> P'")
            if not (type(ob_post) is Implies and alpha_eq(ob_post.left, p.post)
                    and alpha_eq(ob_post.right, c.post)):
                self.fail(path, "R10: second obligation must be Q' -> Q")
        foci = atoms_foci(self.atoms(c.term))
        for what, lhs, rhs in (("P -> P'", c.pre, p.pre),
                               ("Q' -> Q", p.post, c.post)):
            key = (id(lhs), id(rhs), foci)
            try:
                verdict = (self.verdicts.get(key) or self.verdicts.setdefault(
                    key, (lhs, rhs, entails(lhs, rhs, self.cfg, foci,
                                            self.compiled))))[2]
            except SortError as exc:
                self.fail(path, f"R10: obligation {what}: {exc}")
                continue
            if verdict.kind == "valid":
                continue
            if verdict.kind == "bounded" and not self.strict:
                self.assumptions.append(
                    f"{path}: {what}: {format_formula(lhs)} -> "
                    f"{format_formula(rhs)} (bounded, B={verdict.bound})")
                continue
            self.fail(path, f"R10: obligation {what} is {verdict.kind}")


def check_proof(p: ProofNode, cfg: AlgebraConfig = AlgebraConfig(),
                strict: bool = False) -> CheckResult:
    """Validate every node of the proof tree against the rule schemata.

    Strict mode refuses entailment obligations that are only valid up to
    the enumeration bound; otherwise they are accepted and recorded.
    """
    checker = _Checker(cfg, strict)
    if p.rule == "HYP":
        checker.fail("root", "a proof cannot be a bare hypothesis")
    else:
        checker.check(p)
        if not checker.failures:
            checker.check_annotations(p.conclusion)
    return CheckResult(not checker.failures, checker.failures,
                       checker.assumptions)
