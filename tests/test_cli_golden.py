"""Command-line outputs against a recorded transcript, byte for byte.

`cli_golden.txt` holds, for each command below, its standard output, its
standard error (lines marked `[stderr]`) and its exit status, as printed
before lap summaries were added to the segment loop.  Every command must
still print exactly that, apart from the lines listed in CHANGED: each is a
deliberate change of behaviour, not of speed, and may print several lines
in place of one.

To print the transcript of the code on the import path (from the
repository root):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib
import shlex
import sys

from pga_hoare.cli import main

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "cli_golden.txt"

COUNTDOWN = "(-c.iszero ; #2 ; ! ; c.decr)^w"
TRANSFER = "(-c.iszero ; #2 ; ! ; c.decr ; d.incr)^w"
PROOF = "proofs/counter_zero.proof"

_README = [
    ["normalize", "(a.m ; !)^2"],
    ["thread", COUNTDOWN],
    ["run", COUNTDOWN, "{c = counter(3)}"],
    ["--bound", "24", "holds", f"{{1 | true}} {COUNTDOWN} {{0 | c = nnc(0)}}"],
    ["--algebra", "boolreg", "sp", "true", "r.set:t", "--exit", "1"],
]
_PROOF_CHECKS = [
    ["--bound", bound] + strict + fmt + ["check", PROOF]
    for bound in ("24", "100")
    for strict in ([], ["--strict"])
    for fmt in ([], ["--format", "structured"])
]
# one op of each counter-loops template, in both output forms
_COUNTER_LOOPS = [
    fmt + argv
    for argv in (
        ["--bound", "300", "holds",
         f"{{1 | true}} {COUNTDOWN} {{0 | c = nnc(0)}}"],
        ["--bound", "40", "holds",
         f"{{1 | true}} {TRANSFER} {{0 | c = nnc(0)}}"],
        ["--bound", "200", "sp", "true", COUNTDOWN],
        ["--bound", "300", "holds",
         f"{{1 | true}} {COUNTDOWN} {{0 | c = nnc(1)}}"],
    )
    for fmt in ([], ["--format", "structured"])
]
_MORE = [
    # entries in the prefix and past the period's first lap
    ["--bound", "30", "holds",
     f"{{1 | true}} c.incr ; {COUNTDOWN} {{0 | c = nnc(0)}}"],
    ["--bound", "30", "holds",
     f"{{6 | c = nnc(n)}} {COUNTDOWN} {{0 | c = nnc(0)}}"],
    ["--bound", "10", "sp", "d = nnc(0)", f"c.decr ; {TRANSFER}",
     "--entry", "7"],
    ["--bound", "30", "sp", "true", "c.decr ; (c.incr ; c.incr ; +d.decr)^w",
     "--entry", "4"],
    # a diverging loop: every run exhausts its budget
    ["--bound", "20", "holds", "{1 | true} (c.incr)^w {0 | false}"],
    ["--bound", "20", "--format", "structured", "holds",
     "{1 | true} (c.incr)^w {0 | false}"],
    # family literals whose contents are not plain digits
    ["run", "!", "{c = counter(1_0)}"],
    ["run", "!", "{c = counter(+3)}"],
]
# judgments that the line sweep answers (recorded before it was added)
_LINES = [
    ["--bound", "60", "holds", f"{{1 | true}} {TRANSFER} {{0 | c = nnc(0)}}"],
    ["--bound", "60", "holds", f"{{1 | true}} {TRANSFER} {{0 | d = nnc(0)}}"],
    ["--bound", "12", "sp", "true", TRANSFER],
    ["--bound", "10", "holds",
     "{1 | true} (-c.iszero ; #2 ; ! ; c.incr ; d.decr)^w {0 | true}"],
    ["--bound", "10", "--format", "structured", "holds",
     "{1 | true} (-c.iszero ; #2 ; ! ; c.incr ; d.decr)^w {0 | true}"],
]
# proofs with faults inside an R5 subproof, in R5's check of its subproof's
# conclusion and outside R5 (recorded before the checker's walk lost its
# recursion)
_FAULTS = "tests/proofs/counter_zero_faults.proof"
_REJECTED = [
    ["--bound", "24", "check", _FAULTS],
    ["--bound", "24", "--strict", "--format", "structured", "check", _FAULTS],
    ["--bound", "24", "check", "tests/proofs/counter_zero_no_subproof.proof"],
]
# threads that reach both leaves, wrap a jump chain round the period or are
# dead only (recorded before extract emitted the node arrays directly)
_THREADS = [
    fmt + ["thread", text]
    for text in (COUNTDOWN, "+r.get ; #3 ; ! ; (c.decr ; -c.iszero ; #0)^w",
                 "(+r.get ; #3 ; !)^w", "#0 ; #0")
    for fmt in ([], ["--format", "structured"])
    if fmt or text != COUNTDOWN
]
# counters that the segment only increments and the assertions never read:
# a witness still shows their final contents, and a judgment over such
# counters alone is still bounded (recorded before holds left them out)
_UNOBSERVED = [
    fmt + ["--bound", "6", "holds",
           f"{{1 | ~(c = nnc(0))}} {TRANSFER} {{0 | false}}"]
    for fmt in ([], ["--format", "structured"])
] + [
    ["--bound", "5", "holds", "{1 | true} (c.incr ; !)^w {0 | true}"],
    ["--bound", "20", "holds", "{1 | true} (c.incr ; d.incr)^w {0 | false}"],
]
COMMANDS = (_README + _PROOF_CHECKS + _COUNTER_LOOPS + _MORE + _LINES
            + _REJECTED + _THREADS + _UNOBSERVED)

# (command, recorded line, line printed now or the lines in its place)
CHANGED = [
    # an unknown verdict names the first state that made it unknown
    (["--bound", "20", "--format", "structured", "holds",
      "{1 | true} (c.incr)^w {0 | false}"],
     '  "witness": null', '  "witness": "{c = counter(0)}"'),
    # counter contents are a run of digits
    (["run", "!", "{c = counter(1_0)}"],
     "halted in {c = counter(10)}",
     "[stderr] error: bad counter literal: 'counter(1_0)'"),
    (["run", "!", "{c = counter(1_0)}"], "[exit 0]", "[exit 3]"),
    (["run", "!", "{c = counter(+3)}"],
     "halted in {c = counter(3)}",
     "[stderr] error: bad counter literal: 'counter(+3)'"),
    (["run", "!", "{c = counter(+3)}"], "[exit 0]", "[exit 3]"),
    # sp answers an undecided existence with the unknown status
    (["--bound", "30", "sp", "true", "c.decr ; (c.incr ; c.incr ; +d.decr)^w",
      "--entry", "4"], "[exit 1]", "[exit 2]"),
]


def _witness_keys(argv, bounded, reason, valuation, halted_in=None):
    """The CHANGED entries of a structured holds: after "bounded", the
    outcome of a fails witness's run; after "reason", the witness's
    valuation.  Each is null when there is no witness."""
    outcome = (['  "outcome": null,'] if halted_in is None else
               ['  "outcome": {', '    "outcome": "halted",',
                f'    "state": "{halted_in}"', '  },'])
    return [(argv, f'  "bounded": {bounded},',
             [f'  "bounded": {bounded},', *outcome]),
            (argv, f'  "reason": {reason},',
             [f'  "reason": {reason},', f'  "valuation": {valuation},'])]


# the structured holds output shows the witness's valuation and outcome,
# as the text output does
CHANGED += (
    # holds, no witness
    _witness_keys(_COUNTER_LOOPS[1], "true", "null", "null")
    + _witness_keys(_COUNTER_LOOPS[3], "true", "null", "null")
    # fails, halting in the witness's final state
    + _witness_keys(_COUNTER_LOOPS[7], "false", "null", "{}",
                    "{c = counter(0)}")
    + _witness_keys(_UNOBSERVED[1], "false", "null", "{}",
                    "{c = counter(0), d = counter(1)}")
    # unknown: a witness without a fails outcome
    + [entry for argv in (_MORE[5], _LINES[4]) for entry in _witness_keys(
        argv, "false", '"step budget exhausted on some run"', "{}")])


def _header(argv):
    return "$ pga " + shlex.join(argv)


def transcript(argv):
    """The header, output lines and exit status of one command."""
    args = [str(ROOT / a) if a.endswith(".proof") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(args)
    lines = [_header(argv)] + out.getvalue().splitlines()
    lines += [f"[stderr] {line}" for line in err.getvalue().splitlines()]
    return lines + [f"[exit {status}]"]


def _recorded():
    """Header -> recorded lines of that command."""
    blocks, current = {}, None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ pga "):
            current = blocks[line] = [line]
        else:
            current.append(line)
    return blocks


def test_outputs_match_the_recorded_transcript():
    recorded = _recorded()
    assert list(recorded) == [_header(argv) for argv in COMMANDS]
    for argv in COMMANDS:
        expected = list(recorded[_header(argv)])
        for changed, old, new in CHANGED:
            if changed == argv:
                i = expected.index(old)
                expected[i:i + 1] = [new] if isinstance(new, str) else new
        assert transcript(argv) == expected, _header(argv)


if __name__ == "__main__":
    for argv in COMMANDS:
        sys.stdout.write("\n".join(transcript(argv)) + "\n")
