"""Command-line behaviour: outputs and exit statuses."""

import collections
import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from refparsers import ref_parse_args

import pga_hoare
from pga_hoare import formulas
from pga_hoare.cli import (_COMMANDS, HELP_TEXT, USAGE_TEXT, UsageError,
                           main, parse_args)
from pga_hoare.formulas import parse_formula
from pga_hoare.lexer import MAX_DEPTH, MAX_DIGITS, MAX_LENGTH
from pga_hoare.proofs import check_proof, parse_proof
from pga_hoare.services import AlgebraConfig
from pga_hoare import syntax
from pga_hoare.syntax import parse_sequence

PROOF = str(pathlib.Path(__file__).resolve().parent.parent
            / "proofs" / "counter_zero.proof")


def test_normalize(capsys):
    assert main(["normalize", "(!)^w ; c.incr"]) == 0
    out = capsys.readouterr().out
    assert "period: !" in out
    assert "len: omega" in out


def test_normalize_structured(capsys):
    assert main(["--format", "structured", "normalize", "a.m ; !"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["len"] == "2"
    assert data["prefix"] == ["a.m", "!"]
    assert data["period"] is None


def test_thread(capsys):
    assert main(["thread", "(-c.iszero ; #2 ; ! ; c.decr)^w"]) == 0
    out = capsys.readouterr().out
    assert "n0: branch c.iszero -> n1 / n2" in out


def test_run(capsys):
    code = main(["run", "(-c.iszero ; #2 ; ! ; c.decr)^w",
                 "{c = counter(3)}"])
    assert code == 0
    assert "halted in {c = counter(0)}" in capsys.readouterr().out


def test_run_with_entry(capsys):
    assert main(["run", "c.incr ; !", "{c = counter(0)}", "--entry", "2"]) == 0
    assert "halted in {c = counter(0)}" in capsys.readouterr().out


def test_holds_exit_codes(capsys):
    assert main(["--bound", "24", "holds",
                 "{1 | true} (-c.iszero;#2;!;c.decr)^w {0 | c = nnc(0)}"]) == 0
    assert "HOLDS (bounded, B=24)" in capsys.readouterr().out
    assert main(["holds", '{1 | true} ! {1 | true}']) == 1
    capsys.readouterr()


def test_sp(capsys):
    assert main(["--algebra", "boolreg", "sp", "true", "r.set:t",
                 "--exit", "1"]) == 0
    out = capsys.readouterr().out
    assert "{r = bool(true)}" in out


def test_sp_no_postcondition(capsys):
    assert main(["--algebra", "boolreg", "sp", "true", "r.set:t",
                 "--exit", "0"]) == 1
    assert "error" in capsys.readouterr().out


def test_check_accepted(capsys):
    assert main(["--bound", "24", "check", PROOF]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ACCEPTED, 5 bounded entailment assumptions")


def test_check_strict_rejects(capsys):
    assert main(["--bound", "24", "--strict", "check", PROOF]) == 1
    assert capsys.readouterr().out.startswith("REJECTED")


def test_check_structured(capsys):
    assert main(["--bound", "24", "--format", "structured", "check",
                 PROOF]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["accepted"] is True
    assert len(data["assumptions"]) == 5


def test_parse_error_status(capsys):
    assert main(["normalize", "a.m ;"]) == 3
    assert main(["holds", "{1 | true !"]) == 3
    capsys.readouterr()


def test_usage_error_status(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    # help goes to stdout with status 0; a usage error prints the usage
    # and one error line on stderr, with status 3
    for argv in (["-h"], ["--help"], ["--bound", "5", "sp", "-h"],
                 ["normalize", "x", "y", "--help"]):
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert (out, err) == (HELP_TEXT, ""), argv
    for argv, message in (
            ([], "no command given"),
            (["--strict=1", "normalize", "x"],
             "argument --strict: ignored explicit argument '1'"),
            (["--bound"], "argument --bound: expected one argument"),
            (["--qbound", "x", "normalize", "x"],
             "argument --qbound: invalid int value: 'x'"),
            (["--format=json", "normalize", "x"],
             "argument --format: invalid choice: 'json' (choose from text, "
             "structured)"),
            (["-", "x"], "invalid command: '-' (choose from normalize, "
                         "thread, run, holds, sp, check)"),
            (["sp", "true"], "missing arguments: sequence"),
            (["normalize", "x", "--exit", "1", "y"],
             "unrecognized arguments: --exit 1 y"),
            (["--bou", "5", "normalize", "x"],
             "invalid command: '5' (choose from normalize, thread, run, "
             "holds, sp, check)")):
        assert main(argv) == 3, argv
        assert capsys.readouterr() == ("", f"{USAGE_TEXT}error: {message}\n")
    # the help text names every option and command of the table
    for command, (_, wanted, options) in _COMMANDS.items():
        names = list(options) + [command or "--help"]
        names += [name.upper() for name in wanted]
        assert all(name in HELP_TEXT for name in names), command


def test_dash_led_sequences_are_arguments(capsys):
    # -c.iszero names no option, so it is the sequence, as after "--";
    # before, it was read as an unknown option and the sequence was missing
    for argv, with_dashes, out, status in (
            (["normalize", "-c.iszero"], ["normalize", "--", "-c.iszero"],
             "prefix: -c.iszero\nlen: 1\n", 0),
            (["thread", "-c.iszero"], ["thread", "--", "-c.iszero"],
             "n0: branch c.iszero -> n1 / n1\nn1: dead\n", 0),
            (["--algebra", "boolreg", "sp", "true", "-r.get", "--exit", "1"],
             ["--algebra", "boolreg", "sp", "true", "--exit", "1", "--",
              "-r.get"],
             "error: no post-condition exists for this e\n", 1)):
        for args in (argv, with_dashes):
            assert main(args) == status, args
            assert capsys.readouterr() == (out, ""), args


# argv lists for the reader against argparse: global options, a command,
# its arguments and options in any order, "--", and strays; each option
# most often with a value it takes
_GLOBALS = [["--algebra", "counter"], ["--algebra", "boolreg"],
            ["--algebra=boolreg"], ["--bound", "24"], ["--bound=7"],
            ["--bound", "-3"], ["--bound", " 5 "], ["--bound", "1_0"],
            ["--qbound", "4"], ["--qbound=0"], ["--strict"],
            ["--format", "structured"], ["--format=text"]]
_OWN = [["--entry", "2"], ["--entry=3"], ["--exit", "1"], ["--exit=0"],
        ["--exit", "-1"]]
_BAD = [["--algebra", "bogus"], ["--bound", "x"], ["--bound="],
        ["--strict=1"], ["--format", "json"], ["--entry", "x"], ["--exit"],
        ["--format"]]
_ARGUMENTS = ["c.incr", "true", "{c = counter(3)}", "a b", "-", "-1", "x=1",
              "0", ""]
_STRAYS = [["--nope"], ["--nope=1"], ["-h"], ["--help"], ["--bou", "5"],
           ["--ex", "1"], ["-c.iszero"], ["-x y"], ["--x y"]]
_POSITIONALS = {"normalize": 1, "thread": 1, "run": 2, "holds": 1, "sp": 2,
                "check": 1, "nope": 1}
_OPTION_NAMES = ("--help", "--algebra", "--bound", "--qbound", "--strict",
                 "--format", "--entry", "--exit")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative numbers


def _random_argv(rng):
    def now_and_then(p, pool):
        return [rng.choice(pool)] if rng.random() < p else []
    items = [rng.choice(_GLOBALS) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    items += now_and_then(0.05, _BAD) + now_and_then(0.05, _STRAYS)
    rng.shuffle(items)
    if rng.random() < 0.03:
        return [tok for item in items for tok in item]
    command = rng.choice(list(_POSITIONALS))
    count = max(0, _POSITIONALS[command] + rng.choice([-1, 0, 0, 0, 0, 1]))
    tail = [[rng.choice(_ARGUMENTS)] for _ in range(count)]
    if command in ("run", "sp"):
        tail += [rng.choice(_OWN) for _ in range(rng.choice([0, 1, 2, 3]))]
    tail += (now_and_then(0.05, _OWN) + now_and_then(0.05, _GLOBALS)
             + now_and_then(0.05, _BAD) + now_and_then(0.05, _STRAYS))
    rng.shuffle(tail)
    if rng.random() < 0.2:
        tail.insert(rng.randrange(len(tail) + 1), ["--"])
    return [tok for item in items + [[command]] + tail for tok in item]


def _documented_difference(argv):
    """Whether argv holds an abbreviated option name, or a dash-led token
    that argparse read as an option (-c.iszero) or as an argument
    (--x y) and the table does not."""
    for tok in argv:
        name = tok.partition("=")[0]
        if tok in ("-", "--", "-h") or name in _OPTION_NAMES:
            continue
        if tok.startswith("--"):
            if " " in tok or any(o.startswith(name) for o in _OPTION_NAMES):
                return True
        elif (tok.startswith("-") and " " not in tok
              and not _NEGATIVE.match(tok)):
            return True
    return False


def _read(parse, argv):
    """parse's reading of argv as a dict, "help" or "refused"."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            read = parse(argv)
        except (UsageError, SystemExit):
            return "refused"
    return "help" if read is None else vars(read)


def test_argv_is_read_as_argparse_read_it(capsys):
    rng = random.Random(24)
    seen = collections.Counter()
    for _ in range(4000):
        argv = _random_argv(rng)
        # a "--" that ends argv changes nothing; argparse refused it where
        # the last argument came before an option
        ref = _read(ref_parse_args, argv[:-1] if argv[-1:] == ["--"]
                    else argv)
        new = _read(parse_args, argv)
        if _documented_difference(argv):
            # unique prefixes are refused, dash-led tokens are arguments
            seen["documented difference"] += 1
            if "refused" not in (ref, new):
                assert new == ref, argv
            continue
        assert new == ref, argv
        seen[ref if isinstance(ref, str) else "read"] += 1
        if ref == "refused":
            assert main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert (out, err.startswith(USAGE_TEXT)) == ("", True), argv
    # each outcome is reached often
    assert min(seen.values()) >= 50 and len(seen) == 4, seen


def test_check_r10_sort_clash_is_rejected(tmp_path, capsys):
    # an R10 whose two sides use n at two sorts fails the node; it is not
    # a usage error
    proof = tmp_path / "clash.proof"
    proof.write_text('''
    a := (A11 {1 | n = 0} "!" {0 | n = 0})
    (R10 "(n = nnc(0)) -> (n = 0)" a "(n = 0) -> (n = 0)"
     => {1 | n = nnc(0)} "!" {0 | n = 0})
    ''')
    assert main(["check", str(proof)]) == 1
    assert capsys.readouterr().out.startswith("REJECTED")


def test_long_sequences_do_not_crash(capsys):
    # the parser builds a right-nested chain of 100k concatenations
    seq = " ; ".join(["c.incr"] * 100_000 + ["!"])
    started = time.perf_counter()
    assert main(["normalize", seq]) == 0
    assert capsys.readouterr().out.endswith("len: 100001\n")
    assert main(["run", seq, "{c = counter(0)}"]) == 0
    assert capsys.readouterr().out == "halted in {c = counter(100000)}\n"
    assert time.perf_counter() - started < 10


def test_deep_nesting_is_a_usage_error(capsys):
    # the parsers recurse once per nesting level; input nested past the
    # recursion limit is reported, not raised
    seq = "(" * 2000 + "a.m" + ")" * 2000
    formula = "(" * 2000 + "true" + ")" * 2000
    for argv in (["normalize", seq],
                 ["holds", "{1 | %s} ! {0 | true}" % formula],
                 ["sp", formula, "!"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: input nested too deeply\n"
        assert captured.out == ""


def test_powers_past_max_length_are_usage_errors(tmp_path, capsys):
    # a power is refused before its body is copied, whether the count is
    # huge or the nested powers only multiply past MAX_LENGTH together
    proof = tmp_path / "huge.proof"
    proof.write_text('(A11 {1 | true} "a.m^1000000000000" {0 | true})')
    for argv in (["normalize", "a.m^1000000000000"],
                 ["holds", "{1 | true} a.m^1000000000000 {1 | true}"],
                 ["check", str(proof)],
                 ["normalize", "(a.m ; !)^%d" % (MAX_LENGTH // 2 + 1)],
                 ["thread", "((a.m)^10000)^10000"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sequence longer than {MAX_LENGTH} instructions\n")
    # normalize stops at the first repetition, so a tail past it is not
    # written out
    assert main(["normalize", "(a.m)^w ; b.m^1000000000000"]) == 0
    assert capsys.readouterr().out == "period: a.m\nlen: omega\n"


def test_repetition_bodies_count_towards_max_length(tmp_path, capsys,
                                                    monkeypatch):
    # the atoms held in each repetition body count, not just one per
    # repetition; with a cap of 1000 the test stays small
    monkeypatch.setattr(syntax, "MAX_LENGTH", 1000)
    term = " ; ".join(["(a.m^600)^w"] * 3)
    with pytest.raises(ValueError, match="longer than 1000"):
        syntax.term_atoms(syntax.parse_sequence(term))
    proof = tmp_path / "reps.proof"
    proof.write_text(f'(A11 {{1 | true}} "{term}" {{0 | true}})')
    assert main(["check", str(proof)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sequence longer than 1000 instructions\n"
    # copies of one repetition share its body
    atoms = syntax.term_atoms(syntax.parse_sequence("((a.m^600)^w)^300"))
    assert len(atoms) == 300 and len(atoms[0][1]) == 600
    for argv in (["normalize", term], ["thread", term]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


def test_sp_lists_every_state_of_the_image(capsys):
    assert main(["--bound", "3", "sp", "true", "c.decr", "--exit", "1"]) == 0
    assert capsys.readouterr().out == (
        "states: 3\n  {c = counter(0)}\n  {c = counter(1)}\n"
        "  {c = counter(2)}\nformula: (c = nnc(0) \\/ c = nnc(1)) \\/ "
        "c = nnc(2)\n")
    # states and disjuncts go by counter value, not by printed text
    assert main(["--bound", "12", "sp", "c = nnc(s(n))", "c.decr",
                 "--exit", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["states: 12", "  {c = counter(0)}", "  {c = counter(1)}"]
    assert out[10:13] == ["  {c = counter(9)}", "  {c = counter(10)}",
                          "  {c = counter(11)}"]
    assert out[13].startswith("formula: ((((((((((c = nnc(0) \\/ c = nnc(1))")
    assert out[13].endswith("\\/ c = nnc(10)) \\/ c = nnc(11)")


def test_ill_sorted_operator_arguments_are_usage_errors(capsys):
    # an operator applied to a term of another sort is a sort error, found
    # before any state is enumerated
    for pre, message in (
            ("s(empty) = 0", "s(empty): argument of sort serv, expected nat"),
            ("p(:t) = 0", "p(:t): argument of sort repl, expected nat"),
            ("c = nnc(reg(true))",
             "nnc(reg(true)): argument of sort serv, expected nat"),
            ("c = reg(0)", "reg(0): argument of sort nat, expected bool")):
        assert main(["holds", "{1 | %s} ! {0 | true}" % pre]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: ill-sorted term {message}\n"
        assert captured.out == ""


def test_thread_of_long_sequences(capsys):
    # extraction is linear: one leaf table, each jump chain followed once
    seq = " ; ".join(["c.decr ; +c.iszero ; #0"] * 33_334)
    started = time.perf_counter()
    assert main(["thread", seq]) == 0
    out = capsys.readouterr().out
    assert time.perf_counter() - started < 10
    assert out.startswith("n0: branch c.decr -> n1 / n1\n"
                          "n1: branch c.iszero -> n2 / n3\n")
    assert out.count("\n") == 2 * 33_334 + 1


def _run_fresh(argv, flags=(), lines=None):
    """The finished `python [flags] -m pga_hoare.cli argv`; with lines,
    its reader takes that many lines of stdout and then closes the pipe."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(pga_hoare.__file__).parent.parent))
    cmd = [sys.executable, *flags, "-m", "pga_hoare.cli", *argv]
    if lines is None:
        return subprocess.run(cmd, capture_output=True, text=True, env=env)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        out = "".join(proc.stdout.readline() for _ in range(lines))
        proc.stdout.close()
        err = proc.stderr.read()
        return subprocess.CompletedProcess(cmd, proc.wait(), out, err)


def _fresh(argv):
    """stdout and status of argv in a new interpreter."""
    done = _run_fresh(argv)
    return done.stdout, done.returncode


def _fresh_loads(argv):
    """stdout and status of argv in a new interpreter, the modules of
    pga_hoare that it imported, as -X importtime lists them, and the names
    of all the modules it imported."""
    done = _run_fresh(argv, ["-X", "importtime"])
    names = {line.rsplit("|", 1)[1].strip()
             for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return done.stdout, done.returncode, {
        name.split(".")[1] for name in names
        if name.startswith("pga_hoare.")}, names


def test_a_reader_that_closes_the_pipe_early_ends_the_output():
    # 838 KB of states: the reader closes the pipe after the first line;
    # the command stops writing and exits with its verdict's status
    done = _run_fresh(["--bound", "20000", "sp", "true", "c.decr", "--exit",
                       "1"], lines=1)
    assert (done.stdout, done.stderr, done.returncode) == (
        "states: 20000\n", "", 0)


def test_each_command_loads_only_what_it_runs(capsys):
    # cli imports a command's modules when the command runs, and the
    # package loads none of its modules on import; the command line is
    # read without argparse (nor the gettext it loads), and text output
    # needs no json
    holds_example = ("{1 | true} (-c.iszero ; #2 ; ! ; c.decr)^w "
                     "{0 | c = nnc(0)}")
    for argv, left_out in (
            (["normalize", "(a.m ; !)^2"],
             {"formulas", "judgments", "segments", "kernels", "proofs",
              "threads"}),
            # the thread semantics shares nothing with the interpreter's
            (["thread", "(-c.iszero ; #2 ; ! ; c.decr)^w"],
             {"formulas", "proofs", "segments", "kernels"}),
            (["run", "(-c.iszero ; #2 ; ! ; c.decr)^w", "{c = counter(3)}"],
             {"proofs", "threads"}),
            (["--bound", "24", "holds", holds_example], {"proofs", "threads"}),
            (["--bound", "24", "sp", "true", "c.decr", "--exit", "1"],
             {"proofs", "threads"}),
            (["--bound", "24", "check", PROOF],
             {"segments", "kernels", "threads"})):
        out, status, loaded, names = _fresh_loads(argv)
        here = main(argv)
        assert (out, status) == (capsys.readouterr().out, here), argv
        # every command parses and builds an AlgebraConfig
        assert {"lexer", "services"} <= loaded, (argv, loaded)
        assert not loaded & left_out, (argv, loaded & left_out)
        assert not names & {"argparse", "gettext", "json"}, (argv, names)


def test_repeated_calls_match_fresh_ones(capsys):
    # the argument parser is built once per process; no option may carry
    # over from one call to the next
    pairs = [
        (["--bound", "24", "--strict", "check", PROOF],
         ["--bound", "24", "check", PROOF]),
        (["--format", "structured", "--bound", "24", "check", PROOF],
         ["--bound", "24", "check", PROOF]),
        (["--bound", "12", "holds",
          "{1 | true} (-c.iszero;#2;!;c.decr)^w {0 | c = nnc(0)}"],
         ["--bound", "12", "sp", "true", "c.decr", "--exit", "1"]),
    ]
    for first, second in pairs:
        expected = [_fresh(first), _fresh(second)]
        for argv, want in [(first, expected[0]), (second, expected[1])] * 2:
            status = main(argv)
            assert (capsys.readouterr().out, status) == want


def test_annotation_points_are_natural_numbers(tmp_path, capsys):
    # int() took "1_0", "+1" and "0_0" as points; the tokenizer does not
    for assertion in ('{1_0 | true} "#0" {0 | true}',
                      '{+1 | true} "!" {0 | true}',
                      '{1 | true} "!" {0_0 | true}'):
        assert main(["holds", assertion]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "annotation needs 'point | formula'" in captured.err
    proof = tmp_path / "point.proof"
    proof.write_text('x := (A11 {0_1 | true} "!" {0 | true})\n')
    assert main(["check", str(proof)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: annotation needs")


def test_deep_input_is_capped_without_recursion(tmp_path, capsys):
    # every parser keeps its own stack; past MAX_DEPTH levels the input is
    # a usage error, below it the answer comes out
    n = 100_000
    deep = {
        "parentheses": "(" * n + "true" + ")" * n,
        "negations": "~" * n + "true",
        "conjunctions": " /\\ ".join(["true"] * n),
        "implications": " -> ".join(["true"] * n),
        "successors": "c = nnc(" + "s(" * n + "0" + ")" * n + ")",
    }
    for text in deep.values():
        with pytest.raises(ValueError, match="^input nested too deeply$"):
            parse_formula(text)
        assert main(["holds", "{1 | %s} ! {0 | true}" % text]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: input nested too deeply\n"
    with pytest.raises(ValueError, match="^input nested too deeply$"):
        parse_sequence("(" * n + "a.m" + ")" * n)
    records = "(R3 " * n + '(A11 {1 | true} "!" {0 | true})' + (
        ' => {1 | true} "! ; #0" {0 | true})' * n)
    with pytest.raises(ValueError, match="^input nested too deeply$"):
        parse_proof(records)
    # MAX_DEPTH levels parse, one more does not
    m = MAX_DEPTH
    for fits, deeper in ((parse_formula, "~" * (m - 1) + "true"),
                         (parse_formula, " /\\ ".join(["true"] * m)),
                         (parse_sequence, "(" * m + "a.m" + ")" * m)):
        fits(deeper)
        with pytest.raises(ValueError, match="^input nested too deeply$"):
            fits("(" + deeper + ")")
    # walks after parsing recurse once per level; at 800 levels, where the
    # former recursive parsers also answered, the answer comes out
    assert main(["holds", "{1 | %s} ! {0 | true}" % ("~" * 800 + "true")]) == 0
    assert capsys.readouterr().out == "HOLDS\n"
    for op in (" -> ", " /\\ ", " \\/ "):
        assert main(["--bound", "4", "holds", "{1 | %s} ! {0 | true}"
                     % op.join(["c = nnc(0)"] * 800)]) == 0
        assert capsys.readouterr().out == "HOLDS (bounded, B=4)\n"
    assert main(["normalize", "(" * m + "a.m" + ")" * m]) == 0
    assert capsys.readouterr().out == "prefix: a.m\nlen: 1\n"
    # a run of negations compiles to one negation or none, and a chain of
    # implications to a balanced tree: 990 levels get their verdict
    k = 990
    for q, status, out in (
            ("~" * k + "c = nnc(0)", 1,
             "FAILS (from {c = counter(0)}: halted in {c = counter(1)})\n"),
            (" -> ".join(["c = nnc(0)"] * k), 0, "HOLDS (bounded, B=3)\n")):
        assert main(["--bound", "3", "holds",
                     '{1 | true} "c.incr ; !" {0 | %s}' % q]) == status
        assert capsys.readouterr().out == out
    # the checker compares 990 levels, substituted or not, without a frame
    # per level; parentheses make two formula objects of one formula, where
    # a proof file reads one text, however spaced, into one object
    def deep(left, right, group=False):
        eq = f"{left} = nnc({right})"
        return "~" * k + (f"({eq})" if group else eq)
    one, other = deep("c", 0), deep("c", 0, group=True)
    same = parse_proof('(A11 {1 | %s} "!" {0 | %s})' % (one, other)).conclusion
    assert same.pre is not same.post
    r9 = '(R9 n m (A11 {1 | %s} "!" {0 | %s}) => {1 | %s} "!" {0 | %s})'
    premise = (deep("c", "n"), deep("c", "n", group=True), deep("c", "m"))
    for text, out in (
            ('(A11 {1 | %s} "!" {0 | %s})' % (one, other), "ACCEPTED\n"),
            ('(A9 {1 | %s} "#1" {1 | %s})' % (one, other), "ACCEPTED\n"),
            ('(A1 {1 | ~r[incr](c) = :d /\\ %s} "c.incr" {1 | %s})'
             % (deep("d[incr](c)", 0), one), "ACCEPTED\n"),
            (r9 % (*premise, deep("c", "m")), "ACCEPTED\n"),
            (r9 % (*premise, deep("c", "n")), "REJECTED\n"
             "  root: R9: postcondition is not the renamed premise\n")):
        proof = tmp_path / "deep.proof"
        proof.write_text(text)
        assert main(["check", str(proof)]) == (out != "ACCEPTED\n")
        assert capsys.readouterr().out == out


def test_rules_read_the_foci_of_deeply_repeated_terms(tmp_path, capsys):
    # R8 collects the foci of its conclusion's term, here a.m under 990
    # nested repetitions, which normalize accepts; the proof is rejected
    # for its premise's term, not refused as nested too deeply
    deep = "(" * 990 + "a.m" + ")^w" * 990
    assert main(["normalize", deep]) == 0
    capsys.readouterr()
    proof = tmp_path / "deep.proof"
    proof.write_text('(R8 (A11 {1 | true} "!" {0 | true})\n'
                     f' => {{1 | exists n:nat. true}} "{deep}" {{0 | true}})\n')
    assert main(["check", str(proof)]) == 1
    assert capsys.readouterr().out == (
        "REJECTED\n  root: R8: sequence and exit annotation must carry over\n")


def test_family_counter_contents_are_digit_runs(capsys):
    # int() took "1_0" and "+3" as counts; a count is a run of digits
    for value in ("1_0", "+3", "-1", "٣", "3.0", ""):
        assert main(["run", "!", "{c = counter(%s)}" % value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad counter literal: 'counter({value})'\n")
    for value, count in ((" 7 ", 7), ("007", 7), ("0", 0)):
        assert main(["run", "!", "{c = counter(%s)}" % value]) == 0
        assert capsys.readouterr().out == f"halted in {{c = counter({count})}}\n"


def test_sp_prints_images_of_thousands_of_states(capsys):
    # the image's disjunction nests 1999 levels deep; printing it needs no
    # recursion
    assert main(["--bound", "2000", "sp", "true", "c.decr", "--exit", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "states: 2000"
    assert out[1:-1] == [f"  {{c = counter({i})}}" for i in range(2000)]
    assert out[-1] == ("formula: " + "(" * 1998 + "c = nnc(0)"
                       + "".join(f" \\/ c = nnc({i}))" for i in range(1, 1999))
                       + " \\/ c = nnc(1999)")


def _structured(argv, capsys):
    status = main(["--format", "structured"] + argv)
    return status, json.loads(capsys.readouterr().out)


def test_unknown_verdicts_name_the_first_undecided_state(capsys):
    forall = "forall n:nat. ~c = nnc(n)"  # undecided for c > Q
    cases = [
        # every run exhausts its budget, the first from c = 0
        (["--bound", "20", "holds", "{1 | true} (c.incr)^w {0 | false}"],
         "step budget exhausted on some run", "{c = counter(0)}"),
        (["--bound", "6", "--qbound", "3", "holds", "{1 | %s} ! {0 | true}"
          % forall],
         "precondition undecided within the quantifier bound",
         "{c = counter(4)}"),
        (["--bound", "6", "--qbound", "3", "holds",
          "{1 | true} c.incr ; ! {0 | exists n:nat. c = nnc(s(n)) /\\ n = 4}"],
         "postcondition undecided within the quantifier bound",
         "{c = counter(0)}"),
        # the reason is the witness's own: c = 1 runs out of budget, P is
        # undecided later, from c = 4 on
        (["--bound", "6", "--qbound", "3", "holds",
          "{1 | c = nnc(1) \\/ %s} (c.incr)^w {0 | true}" % forall],
         "step budget exhausted on some run", "{c = counter(1)}"),
    ]
    for argv, reason, witness in cases:
        status, data = _structured(argv, capsys)
        assert status == 2
        assert (data["verdict"], data["reason"], data["witness"]) == (
            "unknown", reason, witness), argv
        # the text output does not show the witness
        assert main(argv) == 2
        assert capsys.readouterr().out == f"UNKNOWN ({reason})\n"


def test_structured_witnesses_carry_valuation_and_outcome(capsys):
    # what the text form prints after "from"; the transcript has the
    # witnesses without free variables
    status, data = _structured(["--bound", "3", "holds",
                                "{1 | (n = 2 /\\ b = false) /\\ x = :f} "
                                "c.incr ; ! {0 | false}"], capsys)
    assert status == 1
    assert data["valuation"] == {"b": False, "n": 2, "x": ":f"}
    assert data["outcome"] == {"outcome": "halted",
                               "state": "{c = counter(1)}"}


def test_structured_run_outcomes(capsys):
    family = "{c = counter(0)}"
    for seq, status, payload in (
            ("!", 0, {"outcome": "halted", "state": family}),
            ("c.incr", 0, {"outcome": "exited", "offset": 1,
                           "state": "{c = counter(1)}"}),
            ("(#1)^w", 0, {"outcome": "inactive"}),
            ("(c.incr)^w", 2, {"outcome": "budget-exhausted"})):
        assert _structured(["run", seq, family], capsys) == (status, payload)


def test_a_focus_used_at_another_sort_is_a_usage_error(capsys):
    # P's nat c must not shadow the focus c of S, nor split it in two
    for argv in (["holds", "{1 | c = 0} c.decr {1 | true}"],
                 ["--bound", "3", "sp", "s(c) = s(0)", "c.incr",
                  "--exit", "1"],
                 ["holds", "{1 | true} c.incr ; ! {0 | c = 1}"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variable c used at sorts nat and serv\n"


def test_sp_exit_statuses(capsys):
    # malformed points are usage errors, on stderr, as for holds
    for point in (["--exit", "-1"], ["--entry", "0"]):
        assert main(["--bound", "5", "sp", "true", "c.incr ; !"] + point) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    # an undecided existence is an unknown answer
    assert main(["--bound", "30", "sp", "true",
                 "c.decr ; (c.incr ; c.incr ; +d.decr)^w",
                 "--entry", "4"]) == 2
    assert capsys.readouterr().out == (
        "error: existence undecided: step budget exhausted on some run\n")
    # no post-condition for this exit: a failed answer
    for point in (["--exit", "5"], ["--entry", "9"]):
        assert main(["--bound", "5", "sp", "true", "c.incr ; !"] + point) == 1
        assert capsys.readouterr().out == (
            "error: no post-condition exists for this e\n")



def _r10_chain(levels, a0_post):
    """`levels` R10 bindings over a0 := (A11 {1 | true} "!" {0 | a0_post}),
    each naming the one before: a proof that deep, with no nesting in the
    text.  The first binding weakens a0's postcondition to true."""
    lines = [f'a0 := (A11 {{1 | true}} "!" {{0 | {a0_post}}})']
    for i in range(1, levels + 1):
        post = a0_post if i == 1 else "true"
        lines.append(f'a{i} := (R10 "true -> true" a{i - 1} "{post} -> true"'
                     ' => {1 | true} "!" {0 | true})')
    return "\n".join(lines) + "\n"


def test_long_chains_of_bindings_are_checked_without_recursion(tmp_path,
                                                                capsys):
    # the checker keeps its own stack: a proof 5,000 levels deep is checked
    # like a shallow one, and its failures keep their full paths
    proof = tmp_path / "chain.proof"
    proof.write_text(_r10_chain(5000, "true"))
    started = time.perf_counter()
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr().out == "ACCEPTED\n"
    assert time.perf_counter() - started < 5
    # a0 := (A11 {1 | true} "!" {0 | false}) does not preserve P
    proof.write_text(_r10_chain(5000, "false"))
    assert main(["check", str(proof)]) == 1
    assert capsys.readouterr().out == (
        "REJECTED\n  root" + ".R10[1]" * 5000
        + ": A11: exit must be 0 with P preserved\n")


def test_a_family_literal_gives_each_focus_once(capsys):
    # a focus given twice is an error, whichever value comes last
    for family in ("{c = counter(1), c = counter(5)}",
                   "{c = counter(1), d = bool(true), c = empty}"):
        assert main(["run", "c.incr", family]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: focus c is given twice\n"
    assert main(["run", "c.incr", "{c = counter(1), d = counter(5)}"]) == 0
    assert capsys.readouterr().out == (
        "exited at offset 1 in {c = counter(2), d = counter(5)}\n")


def test_sort_inference_joins_equated_variables(capsys):
    # an equation between two free variables joins their sorts: n = b with
    # n nat and b bool is ill-sorted, n = m gives m the sort of n, and the
    # foci of S are of sort serv when nothing else fixes them
    for argv, status, out, err in (
            (["--bound", "3", "holds",
              '{1 | n = s(0) /\\ b = true /\\ n = b} "!" {0 | false}'],
             3, "", "error: ill-sorted equality: nat = bool\n"),
            (["--bound", "3", "holds", '{1 | n = 0 /\\ n = m} "!" {0 | true}'],
             0, "HOLDS (bounded, B=3)\n", ""),
            (["--bound", "3", "holds",
              '{1 | c = d} "c.incr ; d.incr ; !" {0 | true}'],
             0, "HOLDS (bounded, B=3)\n", ""),
            (["--bound", "3", "holds", '{1 | c = m} "c.incr ; !" {0 | m = c}'],
             1, "FAILS (from {c = counter(0), m = counter(0)}: halted in "
                "{c = counter(1), m = counter(0)})\n", "")):
        assert main(argv) == status, argv
        assert capsys.readouterr() == (out, err), argv


def test_check_sort_checks_the_root_annotations(tmp_path, capsys):
    # an axiom reads no annotation's sorts, so the root's are checked as
    # holds checks them; an R10 obligation finds n = b ill-sorted itself
    r10 = ('p := (A9 {1 | n = s(0) /\\ b = true /\\ n = b} "#1" '
           '{1 | n = s(0) /\\ b = true /\\ n = b})\n'
           '(R10 "(n = s(0) /\\ b = true) -> (n = s(0) /\\ b = true /\\ n = b)"'
           ' p\n "(n = s(0) /\\ b = true /\\ n = b) -> '
           '(n = s(0) /\\ b = true /\\ n = b)"\n'
           ' => {1 | n = s(0) /\\ b = true} "#1" '
           '{1 | n = s(0) /\\ b = true /\\ n = b})\n')
    proof = tmp_path / "sorts.proof"
    for text, failure in (
            ('(A11 {1 | n = b} "!" {0 | n = b})',
             "root: annotations: cannot infer the sort of variable n"),
            ('(A9 {1 | s(empty) = 0} "#1" {1 | s(empty) = 0})',
             "root: annotations: ill-sorted term s(empty): argument of sort "
             "serv, expected nat"),
            ('(A11 {1 | c = 0} "!" {0 | c = 0})\n'
             '(R3 (A11 {1 | c = 0} "!" {0 | c = 0})'
             ' => {1 | c = 0} "! ; c.incr" {0 | c = 0})',
             "root: annotations: variable c used at sorts nat and serv"),
            (r10, "root: R10: obligation P -> P': ill-sorted equality: "
                  "nat = bool")):
        proof.write_text(text)
        assert main(["--bound", "4", "check", str(proof)]) == 1
        assert capsys.readouterr().out == f"REJECTED\n  {failure}\n"
    proof.write_text('(A11 {1 | c = d} "!" {0 | c = d})')
    assert main(["check", str(proof)]) == 1
    assert capsys.readouterr().out == (
        "REJECTED\n  root: annotations: cannot infer the sort of variable c\n")
    proof.write_text('(R3 (A11 {1 | c = d} "!" {0 | c = d})'
                     ' => {1 | c = d} "! ; c.incr ; d.incr" {0 | c = d})')
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr().out == "ACCEPTED\n"


def test_equal_deeply_repeated_terms_compare_without_recursion(tmp_path,
                                                               capsys):
    # the premise and the conclusion write a.m under 990 nested
    # repetitions with different spacing: two terms, equal atoms, whose
    # markers the checker shares, so R8 compares them by identity
    deep = "(" * 990 + "a.m" + ")^w" * 990
    spaced = "( " * 990 + "a.m" + " )^w" * 990
    proof = tmp_path / "deep.proof"
    proof.write_text(f'(R8 (A11 {{1 | true}} "{deep}" {{0 | true}})\n'
                     f' => {{1 | exists n:nat. true}} "{spaced}" {{0 | true}})\n')
    assert main(["check", str(proof)]) == 1
    assert capsys.readouterr().out == (
        "REJECTED\n  root.R8[1]: A11: the sequence must be one instruction\n")


def test_a_large_bound_costs_no_memory(capsys):
    # the counter domain is a range of contents: sweeping the transfer
    # builds no list of B + 1 services
    transfer = ("{1 | true} (-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w "
                "{0 | c = nnc(0)}")
    tracemalloc.start()
    try:
        assert main(["--bound", "1000000", "holds", transfer]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    started = time.perf_counter()
    assert main(["--bound", "1000000000", "holds", transfer]) == 0
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().out == (
        "HOLDS (bounded, B=1000000)\nHOLDS (bounded, B=1000000000)\n")


def test_fixed_focus_at_a_large_bound_costs_no_memory(capsys):
    # P fixes the countdown's counter at 5: one state runs, whatever B is,
    # and no range of B + 1 contents is copied
    countdown = ("{1 | c = nnc(5)} (-c.iszero ; #2 ; ! ; c.decr)^w "
                 "{0 | c = nnc(0)}")
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert main(["--bound", "1000000000", "holds", countdown]) == 0
        took = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 1 and peak < 2_000_000, (took, peak)
    assert capsys.readouterr().out == "HOLDS (bounded, B=1000000000)\n"


def test_cutoff_makes_the_proof_check_independent_of_the_bound(
        monkeypatch, capsys):
    # each obligation that enumerates tries only the contents near 0, its
    # numerals and qbound, so the pairs are as many at every B, and the
    # verdicts and labels are those of the full enumeration
    count = [0]
    pairs = formulas.StateSpace.pairs

    def counted(space):
        for pair in pairs(space):
            count[0] += 1
            yield pair
    monkeypatch.setattr(formulas.StateSpace, "pairs", counted)
    proof = parse_proof(pathlib.Path(PROOF).read_text())
    seen = {}
    for bound in (48, 500, 10 ** 9):
        count[0] = 0
        result = check_proof(proof, AlgebraConfig("counter", bound,
                                                  bound + 3))
        assert result.accepted and len(result.assumptions) == 5
        seen[bound] = (count[0], [line.replace(f"B={bound})", "B=…)")
                                  for line in result.assumptions])
    assert seen[48] == seen[500] == seen[10 ** 9], seen
    monkeypatch.undo()
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert main(["--bound", "1000000000", "--qbound", "1000000003",
                     "check", PROOF]) == 0
        took = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 1 and peak < 2_000_000, (took, peak)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ACCEPTED, 5 bounded entailment assumptions"
    assert [line.replace("B=1000000000)", "B=…)") for line in out[1:]] == [
        "  assumed: " + line for line in seen[48][1]]
    assert main(["--bound", "1000000000", "--strict", "check", PROOF]) == 1
    assert capsys.readouterr().out.startswith("REJECTED")


def test_one_analysis_per_formula_in_the_proof_check(monkeypatch):
    # one check of the golden proof at B=48, Q=51: the checker analyses
    # and compiles each of the eight formula objects once and decides each
    # obligation once; the spaces, the cuts and the compiler read those
    # walks' records; the one nat quantifier, read by two obligations, has
    # its narrowing built once
    from pga_hoare import analysis, proofs
    walked, spaces, cuts, counts = [], [], [], collections.Counter()
    analyze, cut = analysis.analyze, analysis.cut
    init = formulas.StateSpace.__init__

    def walk(f, foci=()):
        walked.append(analyze(f, foci))
        return walked[-1]

    def cut_from(space, p, q, cfg):
        cuts.append((p, q))
        return cut(space, p, q, cfg)

    def build(space, foci, var_sorts, cfg, pre, post=None):
        spaces.append((pre, post))
        init(space, foci, var_sorts, cfg, pre, post)

    def counted(module, name):
        real = getattr(module, name)

        def spied(*args):
            counts[name] += 1
            return real(*args)
        return spied
    monkeypatch.setattr(analysis, "analyze", walk)
    monkeypatch.setattr(analysis, "cut", cut_from)
    monkeypatch.setattr(formulas.StateSpace, "__init__", build)
    monkeypatch.setattr(formulas, "_narrowed_domain",
                        counted(formulas, "_narrowed_domain"))
    monkeypatch.setattr(analysis, "_fixing", counted(analysis, "_fixing"))
    for name in ("compile_formula", "entails"):
        monkeypatch.setattr(proofs, name, counted(proofs, name))
    proof = parse_proof(pathlib.Path(PROOF).read_text())
    result = check_proof(proof, AlgebraConfig("counter", 48, 51))
    assert result.accepted and len(result.assumptions) == 5
    # ten obligations on eight distinct (P, Q, foci) keys: three of the
    # eight are settled by alpha-equivalence, five enumerate; the checker's
    # own sort checks read formulas that R10 has already walked
    # P's fixing conjuncts are found once per record (four Ps), and once
    # for the quantifier's one disjunct that mentions its variable
    assert dict(counts) == {"_narrowed_domain": 1, "compile_formula": 8,
                            "entails": 8, "_fixing": 4 + 1}
    assert len(spaces) == 5 and len(walked) == 8
    # the spaces read the records of those walks; two obligations share
    # their P
    records = {id(w) for w in walked}
    assert all(id(pre) in records and id(post) in records
               for pre, post in spaces)
    assert len({id(pre) for pre, _ in spaces}) == 4
    # the cut reads the same two records and is given no formula to walk
    assert len(cuts) == 5 and all(
        p is pre and q is post for (p, q), (pre, post) in zip(cuts, spaces))


def test_the_checks_tables_die_with_the_check(monkeypatch):
    # a second check of the same tree walks every formula again: the
    # tables live in the checker, not on the formulas or in the module
    from pga_hoare import analysis
    walked, analyze = [], analysis.analyze

    def walk(f, foci=()):
        walked.append(analyze(f, foci))
        return walked[-1]
    monkeypatch.setattr(analysis, "analyze", walk)
    proof = parse_proof(pathlib.Path(PROOF).read_text())
    cfg = AlgebraConfig("counter", 48, 51)
    first = check_proof(proof, cfg)
    assert len(walked) == 8
    second = check_proof(proof, cfg)
    assert len(walked) == 16 and first == second
    assert not {id(w) for w in walked[:8]} & {id(w) for w in walked[8:]}


def test_an_ill_sorted_formula_fails_every_node_that_reads_it():
    # one object read at two nodes: a SortError is not kept as an answer,
    # so each node fails with its own message
    axiom = 'a := (A11 {1 | s(n) = true} "!" {0 | s(n) = true})\n'
    r8 = axiom + ('b := (R8 a => {1 | exists m:nat. s(n) = true} "!" '
                  '{0 | s(n) = true})\n'
                  '(R6 b b => {1 | (exists m:nat. s(n) = true) \\/ '
                  '(exists m:nat. s(n) = true)} "!" {0 | s(n) = true})\n')
    r10 = axiom + ('b := (R10 "s(n) = true /\\ true -> s(n) = true" a '
                   '"s(n) = true -> s(n) = true" '
                   '=> {1 | s(n) = true /\\ true} "!" {0 | s(n) = true})\n'
                   '(R6 b b => {1 | (s(n) = true /\\ true) \\/ '
                   '(s(n) = true /\\ true)} "!" {0 | s(n) = true})\n')
    clash = "ill-sorted equality: nat = bool"
    for text, message in ((r8, f"R8: {clash}"),
                          (r10, f"R10: obligation P -> P': {clash}")):
        result = check_proof(parse_proof(text), AlgebraConfig("counter", 3, 3))
        assert not result.accepted
        assert result.failures == [("root.R6[1]", message),
                                   ("root.R6[2]", message)], text


def test_a_bounded_obligation_at_two_nodes_is_assumed_at_each(
        tmp_path, capsys, monkeypatch):
    # the verdict is found once and recorded at each path that reads it
    from pga_hoare import proofs
    calls = []
    entails = proofs.entails

    def spied(*args):
        calls.append(args[:2])
        return entails(*args)
    monkeypatch.setattr(proofs, "entails", spied)
    proof = tmp_path / "twice.proof"
    proof.write_text(
        'a := (A11 {1 | c = nnc(0)} "!" {0 | c = nnc(0)})\n'
        'b := (R10 "c = nnc(0) /\\ true -> c = nnc(0)" a '
        '"c = nnc(0) -> c = nnc(0)" '
        '=> {1 | c = nnc(0) /\\ true} "!" {0 | c = nnc(0)})\n'
        '(R6 b b => {1 | (c = nnc(0) /\\ true) \\/ (c = nnc(0) /\\ true)} '
        '"!" {0 | c = nnc(0)})\n')
    assert main(["--bound", "3", "check", str(proof)]) == 0
    assumed = " P -> P': c = nnc(0) /\\ true -> c = nnc(0) (bounded, B=3)\n"
    assert capsys.readouterr().out == (
        "ACCEPTED, 2 bounded entailment assumptions\n"
        f"  assumed: root.R6[1]:{assumed}"
        f"  assumed: root.R6[2]:{assumed}")
    assert len(calls) == 2  # P -> P' and Q' -> Q, each once


def test_quantifier_domains_at_a_large_bound_cost_no_memory(capsys):
    # a nat quantifier ranges over a range up to qbound and a serv one
    # builds its counters as it goes: neither is a list
    tracemalloc.start()
    try:
        for argv in (["--bound", "3", "--qbound", "1000000000", "holds",
                      '{1 | true} "!" {0 | exists n:nat. c = nnc(n)}'],
                     ["--bound", "3", "--qbound", "1000000000", "holds",
                      '{1 | true} "c.incr ; !" {0 | exists n:nat. n = n}'],
                     ["--bound", "1000000000", "holds",
                      '{1 | c = nnc(0)} "!" {0 | exists x:serv. x = c}']):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert capsys.readouterr().out == (
        "HOLDS (bounded, B=3)\nHOLDS (bounded, B=3)\n"
        "HOLDS (bounded, B=1000000000)\n")


def test_rules_read_sorts_with_the_foci_of_the_term(tmp_path, capsys):
    # R10's obligations, R7's invariant and R8's Q are sort-checked with
    # the foci of the node's term of sort serv, as holds checks them
    premise = ('a := (A11 {1 | c = d} "!" {0 | c = d})\n'
               'b := (R3 a => {1 | c = d} "! ; c.incr ; d.incr" {0 | c = d})\n')
    r10 = premise + ('(R10 "(c = d /\\ true) -> c = d" b "c = d -> c = d"'
                     ' => {1 | c = d /\\ true} "! ; c.incr ; d.incr" '
                     '{0 | c = d})\n')
    r7 = ('a := (A11 {1 | true} "!" {0 | true})\n'
          'b := (R3 a => {1 | true} "! ; c.incr ; d.incr" {0 | true})\n'
          '(R7 b => {1 | true /\\ c = d} "! ; c.incr ; d.incr" '
          '{0 | true /\\ c = d})\n')
    r8 = premise + ('(R8 b => {1 | exists n:nat. c = d} "! ; c.incr ; d.incr"'
                    ' {0 | c = d})\n')
    proof = tmp_path / "foci.proof"
    for text, argv, status, out in (
            (r10, ["--bound", "3"], 0,
             "ACCEPTED, 1 bounded entailment assumption\n"
             "  assumed: root: P -> P': c = d /\\ true -> c = d "
             "(bounded, B=3)\n"),
            (r10, ["--bound", "3", "--strict"], 1,
             "REJECTED\n  root: R10: obligation P -> P' is bounded\n"),
            (r7, [], 1,
             "REJECTED\n  root: R7: the invariant mentions a focus of S\n"),
            (r8, [], 0, "ACCEPTED\n")):
        proof.write_text(text)
        assert main([*argv, "check", str(proof)]) == status, text
        assert capsys.readouterr().out == out, text
    assert main(["--bound", "3", "holds", '{1 | c = d /\\ true} '
                 '"! ; c.incr ; d.incr" {0 | c = d}']) == 0
    assert capsys.readouterr().out == "HOLDS (bounded, B=3)\n"


def test_runs_that_never_come_back_keep_no_table(capsys):
    # without a period no run returns to its entry, so the runs of the
    # states keep no outcome table; Q's memo is emptied when full, and a
    # single focus's contents are not copied into a product
    tracemalloc.start()
    try:
        assert main(["--bound", "200000", "holds",
                     '{1 | true} "c.incr ; !" {0 | ~c = nnc(0)}']) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "HOLDS (bounded, B=200000)\n"
    assert peak < 5_000_000, peak


def test_long_chains_of_conjuncts_and_disjuncts_get_a_verdict():
    # a chain is compiled as a balanced tree, so the longest chain the
    # parser accepts is evaluated in a fresh interpreter's stack
    n = MAX_DEPTH - 2
    conjuncts = " /\\ ".join(["c = nnc(0)"] * n)
    disjuncts = " \\/ ".join(["c = nnc(0)"] * n)
    assert _fresh(["--bound", "3", "holds",
                   "{1 | %s} ! {0 | true}" % conjuncts]) == (
        "HOLDS (bounded, B=3)\n", 0)
    assert _fresh(["--bound", "3", "sp", disjuncts, "c.incr", "--exit", "1"]
                  ) == ("states: 1\n  {c = counter(1)}\nformula: c = nnc(1)\n",
                        0)
    with pytest.raises(ValueError, match="^input nested too deeply$"):
        parse_formula(conjuncts + " /\\ true")


def test_over_long_numerals_are_refused_with_the_cap(tmp_path, capsys):
    # every place a numeral is read refuses one longer than MAX_DIGITS,
    # below Python's own limit on converting a string to an int
    long = "9" * 5000
    proof = tmp_path / "hyp.proof"
    proof.write_text(f"(HYP {long})\n")
    for argv in (["holds", "{1 | c = nnc(%s)} ! {0 | true}" % long],
                 ["sp", "true " + long, "!"],
                 ["normalize", "#" + long],
                 ["normalize", "a.m^" + long],
                 ["holds", "{%s | true} ! {0 | true}" % long],
                 ["check", str(proof)],
                 ["run", "!", "{c = counter(%s)}" % long]):
        assert main(argv) == 3, argv
        assert capsys.readouterr() == (
            "", f"error: numeral longer than {MAX_DIGITS} digits\n"), argv
    assert main(["normalize", "#" + "0" * (MAX_DIGITS - 1) + "1"]) == 0
    assert capsys.readouterr().out == "prefix: #1\nlen: 1\n"


def test_package_names_resolve_on_first_access():
    # importing pga_hoare loads none of its modules; each documented name
    # loads its own, and the names without a caller are gone
    code = """if True:
        import sys
        import pga_hoare
        loaded = sorted(m for m in sys.modules if m.startswith("pga_hoare."))
        print(loaded)
        from pga_hoare import normalize
        print(sorted(m for m in sys.modules if m.startswith("pga_hoare.")))
        for name in pga_hoare.__all__:
            getattr(pga_hoare, name)
        gone = ("minimize", "bisimilar", "fam_compose", "fam_encapsulate",
                "expand_multi_exit", "seq_equal", "term_length",
                "drop_canonical", "free_foci")
        print([name for name in gone if hasattr(pga_hoare, name)])
        from pga_hoare import cli, proofs, segments, services, syntax, threads
        print(cli.main is pga_hoare.cli.main)
        """
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(pga_hoare.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == ("[]\n['pga_hoare.lexer', 'pga_hoare.records', "
                           "'pga_hoare.syntax']\n[]\nTrue\n")
