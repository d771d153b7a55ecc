"""Value classes: equality, hashing, immutability, repr and defaults."""

import os
import pathlib
import subprocess
import sys

import pytest

import pga_hoare
from pga_hoare import (formulas, judgments, proofs, segments, services,
                       syntax, threads)
from pga_hoare.formulas import (And, EmptyServ, EntailVerdict, Eq, Nnc,
                                NatLit, Pred, Succ, TrueF, Var, parse_formula)
from pga_hoare.judgments import AssertedSeq
from pga_hoare.proofs import CheckResult, ProofNode
from pga_hoare.records import replace
from pga_hoare.segments import Exited, Halted, Verdict
from pga_hoare.services import (EMPTY_FAMILY, AlgebraConfig, Service,
                                ServiceFamily, counter)
from pga_hoare.syntax import (HALT, Basic, Concat, Instr, Jump, NegTest,
                              PosTest, normalize, parse_sequence)
from pga_hoare.threads import RegularThread, extract

MODULES = (formulas, syntax, services, segments, judgments, proofs, threads)


def _records():
    """Every value class the package defines, once."""
    return sorted({cls for m in MODULES for cls in vars(m).values()
                   if isinstance(cls, type) and cls.__module__ == m.__name__
                   and hasattr(cls, "_fields")}, key=lambda c: c.__name__)


def _bare(cls, values):
    """An instance of cls holding values, made without its __init__."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


def test_every_value_class_is_a_record():
    assert len(_records()) == 43
    assert [c.__name__ for c in _records() if c.__hash__ is None] == []


def test_equality_is_class_exact_and_field_by_field():
    assert Basic("c", "m") == Basic("c", "m")
    assert Basic("c", "m") != PosTest("c", "m")
    assert PosTest("c", "m") != NegTest("c", "m")
    assert Basic("c", "m") != Basic("c", "n")
    x = Var("x")
    assert Succ(x) == Succ(Var("x")) and Succ(x) != Pred(x)
    assert Succ(x) != Nnc(x) and not Succ(x) == Pred(x)
    assert Basic("c", "m") != ("c", "m")
    # one record per name: others of the same fields still differ
    for cls in _records():
        values = [f"v{i}" for i in range(len(cls._fields))]
        a, b = _bare(cls, values), _bare(cls, values)
        assert a == b and not a != b, cls
        for other in _records():
            if other is not cls and len(other._fields) == len(values):
                assert a != _bare(other, values), (cls, other)
        if values:
            assert a != _bare(cls, values[:-1] + ["w"]), cls


def test_hash_is_that_of_the_field_tuple():
    assert hash(Basic("c", "m")) == hash(("c", "m"))
    assert hash(HALT) == hash(())
    assert hash(Jump(3)) == hash((3,))
    for cls in _records():
        if cls.__hash__ is not None:
            values = tuple(range(len(cls._fields)))
            assert hash(_bare(cls, values)) == hash(values), cls
    terms = {Succ(Var("x")), Succ(Var("x")), Pred(Var("x"))}
    assert len(terms) == 2
    f = parse_formula("c = nnc(0) /\\ d = nnc(s(0))")
    assert f == parse_formula("c = nnc(0) /\\ d = nnc(s(0))")
    assert hash(f) == hash(parse_formula("c = nnc(0) /\\ d = nnc(s(0))"))


def test_fields_cannot_be_assigned_or_deleted():
    values = (Basic("c", "m"), AlgebraConfig(), counter(3), EMPTY_FAMILY,
              Halted(EMPTY_FAMILY), Verdict("holds"), ProofNode("A11"),
              CheckResult(True, [], []),
              extract(normalize(parse_sequence("a.m ; !"))))
    for v in values:
        name = type(v)._fields[0]
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(v, name, None)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            v.other = 1
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(v, name)
    assert counter(3).content == 3


def test_repr_names_the_class_and_its_fields():
    assert repr(Basic("c", "m")) == "Basic(focus='c', method='m')"
    assert repr(HALT) == "Halt()"
    assert repr(EmptyServ()) == "EmptyServ()"
    assert repr(Eq(Var("c"), Nnc(NatLit(0)))) == (
        "Eq(left=Var(name='c'), right=Nnc(arg=NatLit(value=0)))")
    assert repr(AlgebraConfig()) == (
        "AlgebraConfig(algebra='counter', state_bound=100, quant_bound=32)")
    assert repr(Concat(Instr(HALT), Instr(Jump(2)))) == (
        "Concat(left=Instr(instruction=Halt()), "
        "right=Instr(instruction=Jump(offset=2)))")
    assert repr(CheckResult(True, [], [])) == (
        "CheckResult(accepted=True, failures=[], assumptions=[])")
    # the thread's per-layout cache is no field
    t = extract(normalize(parse_sequence("a.m ; !")))
    assert repr(t) == ("RegularThread(kind=(2, 0), focus=('a', None), "
                       "method=('m', None), then=(1, 0), else_=(1, 0))")


def test_defaults():
    assert AlgebraConfig() == AlgebraConfig("counter", 100, 32)
    assert AlgebraConfig(state_bound=7).quant_bound == 32
    assert Service("empty").content is None
    assert ServiceFamily().entries == () and ServiceFamily() == EMPTY_FAMILY
    assert Verdict("holds") == Verdict("holds", False, None, None, None)
    assert EntailVerdict("valid") == EntailVerdict("valid", None, None)
    node = ProofNode("A11")
    assert (node.conclusion, node.premises, node.hyps, node.k,
            node.hyp_index, node.rename, node.obligations) == (
        None, (), (), 0, 0, None, None)
    with pytest.raises(TypeError):
        CheckResult(True)
    with pytest.raises(TypeError):
        Basic("c")
    with pytest.raises(TypeError):
        Jump(1, 2)


def test_post_init_validates():
    for bad in ({"algebra": "stack"}, {"state_bound": 0},
                {"quant_bound": 0}):
        with pytest.raises(ValueError):
            AlgebraConfig(**bad)
    pre = parse_formula("true")
    term = parse_sequence("!")
    assert AssertedSeq(1, pre, term, 0, pre).entry == 1
    with pytest.raises(ValueError, match="entry point"):
        AssertedSeq(0, pre, term, 0, pre)
    with pytest.raises(ValueError, match="exit offset"):
        AssertedSeq(1, pre, term, -1, pre)
    with pytest.raises(ValueError, match="exit offset must be positive"):
        Exited(0, EMPTY_FAMILY)
    with pytest.raises(ValueError, match="exit offset must be positive"):
        replace(Exited(1, EMPTY_FAMILY), offset=0)


def test_thread_rebuilt_from_its_fields_is_equal_and_hashes_equal():
    t1 = extract(normalize(parse_sequence("a.m ; !")))
    t2 = RegularThread(*(getattr(t1, n) for n in RegularThread._fields))
    assert t1 == t2 and hash(t1) == hash(t2)


def test_replace_changes_only_the_named_fields():
    node = ProofNode("R5", k=1, hyps=(1,))
    assert replace(node, k=2) == ProofNode("R5", k=2, hyps=(1,))
    assert replace(node) == node and replace(node) is not node
    assert replace(And(TrueF(), TrueF()), right=Var("x")).right == Var("x")
    with pytest.raises(TypeError):
        replace(node, depth=1)


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # every fresh `pga` run pays the package's import; the value classes
    # must not bring the code generator of dataclasses back into it
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(pga_hoare.__file__).parent.parent))
    code = ("import sys, pga_hoare.cli; print(sorted({'dataclasses', "
            "'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "[]\n"
