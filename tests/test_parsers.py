"""The one-tokenizer front end: against the former parsers, round trips
through the printers, and arbitrary text."""

import pathlib
import random

from hypothesis import example, given, settings, strategies as st

import proofgen
from refparsers import (ref_format_formula, ref_format_term,
                        ref_parse_annotation, ref_parse_asserted,
                        ref_parse_formula, ref_parse_proof, ref_parse_sequence,
                        ref_plain_tokens)

from pga_hoare.formulas import (SORTS, And, BoolLit, DeriveT, EmptyServ, Eq,
                                Exists, FALSE, Forall, FormulaSyntaxError,
                                Implies, NatLit, Nnc, Not, Or, Pred, RegOf,
                                Reply, ReplyLit, ReplyT, Succ, TRUE, Var,
                                format_formula, parse_formula)
from pga_hoare.formulas import format_term as format_formula_term
from pga_hoare.judgments import (AssertedSeq, annotation_of, format_asserted,
                                 parse_asserted)
from pga_hoare.lexer import Tokens
from pga_hoare.proofs import ProofNode, ProofSyntaxError, parse_proof
from pga_hoare.syntax import (Basic, Halt, Instr, Jump, NegTest, PosTest,
                              Power, Repeat, SequenceSyntaxError, concat_all,
                              format_term, parse_sequence)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROOF_FILES = sorted(ROOT.glob("proofs/*.proof")) + [
    ROOT / "perfbench" / "counter_zero.proof"]


def parse_annotation(inner):
    """The text between the braces of one annotation: (point, formula)."""
    return annotation_of(Tokens(inner))


PARSERS = {
    "proof": (parse_proof, ref_parse_proof),
    "asserted": (parse_asserted, ref_parse_asserted),
    "annotation": (parse_annotation, ref_parse_annotation),
    "formula": (parse_formula, ref_parse_formula),
    "sequence": (parse_sequence, ref_parse_sequence),
}


# ---------------------------------------------------------------------------
# the new parsers against the former ones


def _outcome(parse, text):
    try:
        return ("parsed", parse(text))
    except ValueError as exc:
        return ("raised", type(exc))
    except IndexError:
        return ("index error",)


def _former_defect(ref):
    """The former parsers' two ways to fail other than a syntax error: the
    formula parser read past its last token ("exists n:" raised IndexError),
    and a run of digits with a superscript digit in it ("#²") reached
    int() and raised a bare ValueError."""
    return ref == ("index error",) or ref == ("raised", ValueError)


def _assert_agree(kind, text):
    parse, ref_parse = PARSERS[kind]
    got, ref = _outcome(parse, text), _outcome(ref_parse, text)
    if got != ref and _former_defect(ref) and got[0] == "raised":
        # now a syntax error of the grammar, or of the proof file
        assert got[1] in (FormulaSyntaxError, SequenceSyntaxError,
                          ProofSyntaxError), (kind, text)
        return "former defect"
    assert got == ref, (kind, text)
    return got[0]


def _corpus():
    """Texts of every grammar: the repository's proofs, generated proofs,
    and the judgments, formulas and sequences in them."""
    proofs = [path.read_text() for path in PROOF_FILES]
    rng = random.Random(8)
    proofs += [proofgen.format_proof(proofgen.random_proof(rng))
               for _ in range(60)]
    texts = {kind: [] for kind in PARSERS}
    texts["proof"] = proofs
    for text in proofs:
        stack = [parse_proof(text)]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            for a in filter(None, (node.conclusion,) + node.hyps):
                texts["asserted"].append(format_asserted(a))
                # the sequence may go without its quotes
                texts["asserted"].append(
                    format_asserted(a).replace('"', ""))
                for point, f in ((a.entry, a.pre), (a.exit, a.post)):
                    texts["annotation"].append(f"{point} | {format_formula(f)}")
                    texts["formula"].append(format_formula(f))
                texts["sequence"].append(format_term(a.term))
            for f in node.obligations or ():
                texts["formula"].append(format_formula(f))
    # the printer parenthesizes every operand, so precedence, nesting to
    # the right and the reach of a quantifier need texts of their own
    texts["formula"] += [
        "a = 0 -> b = 0 -> c = 0", "a = 0 /\\ b = 0 /\\ c = 0 \\/ d = 0",
        "a = 0 \\/ b = 0 /\\ ~c = 0 -> d = 0 \\/ e = 0",
        "~~a = 0 /\\ b = 0", "exists x:nat. x = 0 -> c = x /\\ true",
        "a = 0 -> forall x:bool. r = reg(x) \\/ false",
        "~exists x:nat. a = s(x) \\/ ~(b = 0 -> c = 0)",
        "((a = 0) -> (b = 0)) -> c = 0 /\\ (d = 0)"]
    texts["sequence"] += ["a.m ; (b.n ; c.p)^2 ; d.q^w", "((a.m)^2)^3 ; !",
                          "c. set:t ; + r . get ; #0"]
    return texts


CORPUS = _corpus()


def test_corpus_parses_as_before():
    for kind, texts in CORPUS.items():
        assert texts
        for text in texts:
            assert _assert_agree(kind, text) == "parsed", (kind, text)


# single characters and the longer symbols, including ones no grammar has
_EDITS = (list("{}()[]\"|/\\;:=.^!#+-~ \n\t_0123456789acdenprstwxkR>$'")
          + ["//", "// c\n", "->", "/\\", "\\/", "=>", ":=", "é", "²",
             "٣", "exists ", "true"])


def _mutate(rng, text, edits):
    for _ in range(edits):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:pos] + rng.choice(_EDITS) + text[pos:]
        elif kind == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(_EDITS) + text[pos + 1:]
    return text


def test_mutated_texts_agree_with_the_former_parsers():
    rng = random.Random(9)
    seen = {}
    for kind, texts in CORPUS.items():
        rounds = 1500 if kind == "proof" else 2500
        for _ in range(rounds):
            text = _mutate(rng, rng.choice(texts), rng.randint(1, 3))
            result = _assert_agree(kind, text)
            seen[kind, result] = seen.get((kind, result), 0) + 1
    for kind in PARSERS:
        # mutations both break texts and leave some of them valid
        assert seen.get((kind, "raised"), 0) > 100, kind
        assert seen.get((kind, "parsed"), 0) > 20, kind


def test_grouped_proofs_agree_with_the_former_parser():
    # written with every operand parenthesized, as counter_zero.proof and
    # perfbench's register proofs are, a proof repeats groups: an R10
    # obligation's operands are the annotations of its record and premise,
    # and a reader reads each group's text once per file
    rng = random.Random(25)
    texts = [proofgen.format_proof(proofgen.random_proof(rng), grouped=True)
             for _ in range(60)]
    shared = 0
    for text in texts:
        assert _assert_agree("proof", text) == "parsed", text
        stack = [parse_proof(text)]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            if node.obligations:  # P' of P -> P', unless a constant
                pre = node.premises[0].conclusion.pre
                if pre is not TRUE and pre is not FALSE:
                    shared += node.obligations[0].right is pre
    assert shared > 20, shared
    seen = {}
    for _ in range(1500):
        result = _assert_agree("proof", _mutate(rng, rng.choice(texts),
                                                 rng.randint(1, 3)))
        seen[result] = seen.get(result, 0) + 1
    assert seen.get("raised", 0) > 100 and seen.get("parsed", 0) > 20, seen


# ---------------------------------------------------------------------------
# parse(format(x)) == x


_ASCII_NAMES = st.sampled_from(["c", "r", "x1", "_q", "Foo", "A9"])
_METHODS = st.sampled_from(["m", "get", "set:t", "x:1", "a:", "b::c0"])
_INSTRUCTIONS = st.one_of(
    st.builds(Basic, _ASCII_NAMES, _METHODS),
    st.builds(PosTest, _ASCII_NAMES, _METHODS),
    st.builds(NegTest, _ASCII_NAMES, _METHODS),
    st.builds(Jump, st.integers(0, 20)),
    st.just(Halt()),
)


def _seq_of(items):
    # the parser nests ";" to the right, as concat_all does
    return st.lists(items, min_size=1, max_size=4).map(concat_all)


_ITEMS = st.recursive(
    _INSTRUCTIONS.map(Instr),
    lambda sub: st.one_of(
        st.builds(Power, _seq_of(sub), st.integers(0, 4)),
        st.builds(Repeat, _seq_of(sub))),
    max_leaves=10)
SEQUENCES = _seq_of(_ITEMS)

# operator names make variables too, where no "(" or "[" follows them
_NAMES = st.sampled_from(["c", "n", "x1", "_y", "été", "s", "d", "nnc"])
_FORMULA_METHODS = st.sampled_from(["get", "set:t", "decr", "a:b:c"])
TERMS = st.recursive(
    st.one_of(st.builds(Var, _NAMES), st.builds(NatLit, st.integers(0, 99)),
              st.builds(BoolLit, st.booleans()),
              st.builds(ReplyLit, st.sampled_from(list(Reply))),
              st.just(EmptyServ())),
    lambda sub: st.one_of(
        st.builds(Succ, sub), st.builds(Pred, sub), st.builds(Nnc, sub),
        st.builds(RegOf, sub), st.builds(DeriveT, _FORMULA_METHODS, sub),
        st.builds(ReplyT, _FORMULA_METHODS, sub)),
    max_leaves=4)
FORMULAS = st.recursive(
    st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Eq, TERMS, TERMS)),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Exists, _NAMES, st.sampled_from(SORTS), sub),
        st.builds(Forall, _NAMES, st.sampled_from(SORTS), sub)),
    max_leaves=8)
ASSERTED = st.builds(AssertedSeq, st.integers(1, 12), FORMULAS, SEQUENCES,
                     st.integers(0, 12), FORMULAS)


@st.composite
def _proofs(draw, depth=3):
    rule = draw(st.sampled_from(
        ["A1", "A9", "A11", "R1", "R3", "R6", "R9", "R10", "REPINTRO", "R5",
         "HYP"] if depth else ["A2", "A10", "HYP"]))
    if rule == "HYP":
        return ProofNode("HYP", hyp_index=draw(st.integers(1, 3)))
    if rule.startswith("A"):
        return ProofNode(rule, draw(ASSERTED))
    if rule == "R5":
        hyps = tuple(draw(st.lists(ASSERTED, min_size=1, max_size=3)))
        k = draw(st.integers(1, len(hyps)))
        subs = tuple(draw(st.lists(_proofs(depth - 1), max_size=2)))
        return ProofNode("R5", hyps[k - 1], premises=subs, hyps=hyps, k=k)
    premises = tuple(draw(_proofs(depth - 1))
                     for _ in range(2 if rule in ("R1", "R6") else 1))
    node = dict(rule=rule, conclusion=draw(ASSERTED), premises=premises)
    if rule == "R9":
        node["rename"] = (draw(_ASCII_NAMES), draw(_ASCII_NAMES))
    if rule == "R10":
        node["obligations"] = (draw(FORMULAS), draw(FORMULAS))
    return ProofNode(**node)


@given(SEQUENCES)
@settings(max_examples=150)
def test_sequence_roundtrip(term):
    assert parse_sequence(format_term(term)) == term


@given(FORMULAS)
@settings(max_examples=200)
def test_formula_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@given(FORMULAS)
@settings(max_examples=200)
def test_formula_printer_matches_the_recursive_one(f):
    assert format_formula(f) == ref_format_formula(f)


@given(TERMS)
@settings(max_examples=100)
def test_term_printer_matches_the_recursive_one(t):
    assert format_formula_term(t) == ref_format_term(t)


@given(ASSERTED)
@settings(max_examples=100)
def test_asserted_roundtrip(a):
    assert parse_asserted(format_asserted(a)) == a


@given(_proofs())
@settings(max_examples=60, deadline=None)
def test_proof_roundtrip(node):
    assert parse_proof(proofgen.format_proof(node)) == node


# ---------------------------------------------------------------------------
# arbitrary text: documented errors only


_TEXT = st.lists(st.one_of(st.sampled_from(_EDITS), st.characters()),
                max_size=30).map("".join)


def _too_deep(exc):
    return type(exc) is ValueError and str(exc) == "input nested too deeply"


@given(_TEXT)
@settings(max_examples=400)
@example("x = d[")
@example("exists n:")
@example("{1 | r[a:")
@example('x := (R10 "c')
@example("c.")
def test_arbitrary_text_raises_only_syntax_errors(text):
    for kind, allowed in (("sequence", (SequenceSyntaxError,)),
                          ("formula", (FormulaSyntaxError,)),
                          ("annotation", (ValueError,)),
                          ("asserted", (ValueError,)),
                          ("proof", (ValueError,))):
        try:
            PARSERS[kind][0](text)
        except Exception as exc:  # noqa: BLE001 - any class is checked
            assert isinstance(exc, allowed) or _too_deep(exc), (kind, text, exc)


# ---------------------------------------------------------------------------
# plain text: one findall of the plain pattern against the former loop


_PLAIN_PIECES = ['"', '"a ; b"', "//", "// x\n", "/", "\\", "/\\", "\\/",
                 ":=", "=>", ":", "=", "->", "-", "{", "}", "{1 | true}",
                 "{{x}", "{ }}", "|", " ", "  ", "\n", "\t", "c.iszero", "#2",
                 ";", "!", "^w", "12", "_x1", "é", "٣", "(", ")", "[", "~"]


@given(st.lists(st.one_of(st.sampled_from(_PLAIN_PIECES), st.characters()),
                max_size=25).map("".join),
       st.sampled_from(["", " ", "  \n", "\t "]))
@settings(max_examples=400)
@example('{1 | true} "c.decr // x" {0 | a /\\ b}', " ")
@example('a//b"c', "")
def test_plain_tokens_match_the_former_loop(text, trailing):
    text += trailing
    toks, starts = ref_plain_tokens(text)
    src = Tokens(text, plain=True)
    assert src.toks == toks
    assert [src.start(i) for i in range(len(toks))] == starts
