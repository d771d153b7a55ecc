"""Command-line front end.

Subcommands: normalize, thread, run, holds, sp, check.  Exit status 0 means
success / Holds / accepted, 1 Fails / rejected, 2 Unknown / budget
exhausted, 3 usage or parse error.  One loop reads argv against one table
of the documented options (`parse_args`).  Each command imports the
modules it runs when it runs, so `normalize` loads no formula or proof
code, and text output loads no `json`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .lexer import ParseError
# every command builds an AlgebraConfig, so services is loaded for all
from .services import (AlgebraConfig, Reply, family_key, format_family,
                       parse_family)

OK, FAILED, UNKNOWN, USAGE = 0, 1, 2, 3

USAGE_TEXT = """\
usage: pga [--algebra {counter,boolreg}] [--bound B] [--qbound Q] [--strict]
           [--format {text,structured}] COMMAND ARGUMENT... [OPTION]...
"""

HELP_TEXT = USAGE_TEXT + """
Instruction sequence semantics and asserted-sequence proof checking.

commands:
  normalize SEQUENCE       print the canonical form and length
  thread SEQUENCE          print the extracted thread
  run SEQUENCE FAMILY      run a segment against a service family, such as
                           '{c = counter(3)}'; takes --entry
  holds ASSERTION          semantically check an asserted sequence, such as
                           '{1 | true} "!" {0 | true}'
  sp PRE SEQUENCE          strongest post-condition of PRE under SEQUENCE;
                           takes --entry and --exit
  check PATH               check a proof file

options (the global ones go before the command, a command's own after it):
  -h, --help               print this text and exit
  --algebra A              counter (the default) or boolreg
  --bound B                state enumeration bound for counter contents
                           (default 100)
  --qbound Q               bound for quantifiers over the naturals
                           (default 32)
  --strict                 reject entailments that are only valid up to the
                           bound
  --format F               text (the default) or structured (JSON)
  --entry B                entry instruction (default 1)
  --exit E                 exit offset (default 0)

An option's value follows it or is joined to it (--bound=24), and the
last of a repeated option counts.  Every token after "--" is an argument.
Exit status: 0 success, holds or accepted; 1 fails or rejected; 2 unknown;
3 usage or parse error.
"""


class UsageError(Exception):
    """A command line that names no command, an unknown option or a
    wrong count of arguments, or gives an option a value it cannot take."""


def _emit(args, text_lines, payload) -> None:
    # where the reader closes the pipe early, the rest goes to os.devnull
    # (the Python documentation's note on SIGPIPE), so exit stays quiet
    try:
        if args.format == "structured":
            import json  # text output, the common case, never loads it
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_normalize(args, cfg) -> int:
    from .syntax import (OMEGA, format_canonical, format_instruction,
                         normalize, parse_sequence)
    c = normalize(parse_sequence(args.sequence))
    lines = []
    if c.prefix:
        lines.append("prefix: " + " ; ".join(format_instruction(i)
                                             for i in c.prefix))
    if c.period is not None:
        lines.append("period: " + " ; ".join(format_instruction(i)
                                             for i in c.period))
    length = "omega" if c.length == OMEGA else str(c.length)
    lines.append(f"len: {length}")
    _emit(args, lines, {
        "canonical": format_canonical(c),
        "prefix": [format_instruction(i) for i in c.prefix],
        "period": ([format_instruction(i) for i in c.period]
                   if c.period is not None else None),
        "len": length,
    })
    return OK


def _cmd_thread(args, cfg) -> int:
    from .syntax import parse_sequence
    from .threads import thread_dump, thread_of
    t = thread_of(parse_sequence(args.sequence))
    _emit(args, [thread_dump(t)],
          {"root": t.root, "nodes": [list(n) for n in t.nodes]})
    return OK


def _outcome_payload(o):
    from .segments import Exited, Halted, Inactive
    if isinstance(o, Halted):
        return {"outcome": "halted", "state": format_family(o.state)}
    if isinstance(o, Exited):
        return {"outcome": "exited", "offset": o.offset,
                "state": format_family(o.state)}
    if isinstance(o, Inactive):
        return {"outcome": "inactive"}
    return {"outcome": "budget-exhausted"}


def _cmd_run(args, cfg) -> int:
    from .segments import BudgetOut, format_outcome, run_segment
    from .syntax import parse_sequence
    s = parse_sequence(args.sequence)
    u = parse_family(args.family)
    o = run_segment(s, args.entry, u, cfg)
    _emit(args, [format_outcome(o)], _outcome_payload(o))
    return UNKNOWN if isinstance(o, BudgetOut) else OK


def _cmd_holds(args, cfg) -> int:
    from .judgments import parse_asserted
    from .segments import holds
    phi = parse_asserted(args.assertion)
    v = holds(phi, cfg)
    w = v.witness  # (state, valuation, outcome or reason)
    _emit(args, [str(v)], {
        "verdict": v.kind,
        "bounded": v.bounded,
        "bound": v.bound,
        "reason": v.reason,
        "witness": format_family(w[0]) if w else None,
        # nat and bool values as they are, replies as :t, :f or :d; a
        # variable of sort serv is a focus, so it is in the state instead
        "valuation": ({name: f":{x.value}" if isinstance(x, Reply) else x
                       for name, x in w[1].items()} if w else None),
        "outcome": (_outcome_payload(w[2]) if w and v.kind == "fails"
                    else None),
    })
    return {"holds": OK, "fails": FAILED, "unknown": UNKNOWN}[v.kind]


def _cmd_sp(args, cfg) -> int:
    from .formulas import format_formula, parse_formula
    from .segments import NoPostCondition, strongest_post
    from .syntax import parse_sequence
    pre = parse_formula(args.pre)
    s = parse_sequence(args.sequence)
    try:
        states, formula = strongest_post(pre, s, args.entry, args.exit, cfg)
    except NoPostCondition as exc:
        _emit(args, [f"error: {exc}"], {"error": str(exc)})
        return UNKNOWN if exc.undecided else FAILED
    listed = [format_family(u) for u in sorted(states, key=family_key)]
    lines = [f"states: {len(listed)}"] + [f"  {u}" for u in listed]
    lines.append("formula: " + format_formula(formula))
    _emit(args, lines, {"states": listed, "formula": format_formula(formula)})
    return OK


def _cmd_check(args, cfg) -> int:
    from .proofs import check_proof, parse_proof
    with open(args.path, encoding="utf-8") as fh:
        proof = parse_proof(fh.read())
    result = check_proof(proof, cfg, strict=args.strict)
    if result.accepted:
        n = len(result.assumptions)
        note = f", {n} bounded entailment assumption{'s' if n != 1 else ''}"
        lines = ["ACCEPTED" + (note if n else "")]
        lines += [f"  assumed: {a}" for a in result.assumptions]
    else:
        lines = ["REJECTED"]
        lines += [f"  {path}: {reason}" for path, reason in result.failures]
    _emit(args, lines, {
        "accepted": result.accepted,
        "failures": [list(f) for f in result.failures],
        "assumptions": result.assumptions,
    })
    return OK if result.accepted else FAILED


# The documented options in one table: each command's function,
# positionals and own options, and under None the global options.  An
# option maps to its default and to how its value is read: int, a tuple of
# choices, or None for a flag, which takes no value.
_ENTRY = {"--entry": (1, int)}
_COMMANDS = {
    None: (None, (), {"--algebra": ("counter", ("counter", "boolreg")),
                      "--bound": (100, int),
                      "--qbound": (32, int),
                      "--strict": (False, None),
                      "--format": ("text", ("text", "structured"))}),
    "normalize": (_cmd_normalize, ("sequence",), {}),
    "thread": (_cmd_thread, ("sequence",), {}),
    "run": (_cmd_run, ("sequence", "family"), _ENTRY),
    "holds": (_cmd_holds, ("assertion",), {}),
    "sp": (_cmd_sp, ("pre", "sequence"), {**_ENTRY, "--exit": (0, int)}),
    "check": (_cmd_check, ("path",), {}),
}


def _value(option: str, read, text: str):
    if read is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {option}: invalid int value: "
                             f"{text!r}") from None
    if text not in read:
        raise UsageError(f"argument {option}: invalid choice: {text!r} "
                         f"(choose from {', '.join(read)})")
    return text


def parse_args(argv):
    """The options, command and arguments of argv as attributes, or None
    when argv asks for help.

    A token is an option only where the table names it: a global option
    before the command, one of the command's own anywhere after it, and
    none after "--", so a sequence such as -c.iszero is an argument.  A
    value that an option cannot take is refused where it is read; a
    token such as --x that names no option there, and a missing or
    surplus argument, only at the end, so that -h after them still asks
    for help.
    """
    _, wanted, options = _COMMANDS[None]
    values = {name[2:]: default for name, (default, _) in options.items()}
    command, given, unknown, ended = None, [], [], False
    tokens = iter(argv)
    for tok in tokens:
        if not ended:
            if tok in ("-h", "--help"):
                return None
            name, joined, text = tok.partition("=")
            if name in options:
                read = options[name][1]
                if read is None:
                    if joined:
                        raise UsageError(f"argument {name}: ignored explicit "
                                         f"argument {text!r}")
                    values[name[2:]] = True
                    continue
                if not joined:
                    text = next(tokens, None)
                    if text is None:
                        raise UsageError(f"argument {name}: expected one "
                                         "argument")
                values[name[2:]] = _value(name, read, text)
                continue
            if tok == "--" and command is not None:
                ended = True
                continue
            # a "--" before the command is refused as a command below
            if tok.startswith("--") and tok != "--":
                unknown.append(tok)
                continue
        if command is not None:
            given.append(tok)
            continue
        if tok not in _COMMANDS:
            names = ", ".join(name for name in _COMMANDS if name)
            raise UsageError(f"invalid command: {tok!r} (choose from {names})")
        command = tok
        _, wanted, options = _COMMANDS[tok]
        values.update((name[2:], default)
                      for name, (default, _) in options.items())
    if command is None:
        raise UsageError("no command given")
    if len(given) < len(wanted):
        raise UsageError("missing arguments: "
                         + " ".join(wanted[len(given):]))
    if unknown or len(given) > len(wanted):
        raise UsageError("unrecognized arguments: "
                         + " ".join(unknown + given[len(wanted):]))
    values.update(zip(wanted, given), command=command)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{USAGE_TEXT}error: {exc}", file=sys.stderr)
        return USAGE
    if args is None:
        print(HELP_TEXT, end="")
        return OK
    try:
        cfg = AlgebraConfig(args.algebra, args.bound, args.qbound)
        return _COMMANDS[args.command][0](args, cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RecursionError:
        # parsing, printing, the checker's comparisons, negation runs and
        # chains of connectives keep their own stacks or a logarithmic
        # depth; what still recurses near MAX_DEPTH is the compiling and
        # evaluation of nests of quantifiers and of alternating connectives
        print("error: input nested too deeply", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
