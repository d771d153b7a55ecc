"""Command-line front end.

Subcommands: normalize, thread, run, holds, sp, check.  Exit status 0 means
success / Holds / accepted, 1 Fails / rejected, 2 Unknown / budget
exhausted, 3 usage or parse error.  Each command imports the modules it
runs when it runs, so `normalize` loads no formula or proof code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .lexer import ParseError
# every command builds an AlgebraConfig, so services is loaded for all
from .services import (AlgebraConfig, Reply, family_key, format_family,
                       parse_family)

OK, FAILED, UNKNOWN, USAGE = 0, 1, 2, 3


@functools.cache  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
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


def _emit(args, text_lines, payload) -> None:
    # where the reader closes the pipe early, the rest goes to os.devnull
    # (the Python documentation's note on SIGPIPE), so exit stays quiet
    try:
        if args.format == "structured":
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


_COMMANDS = {
    "normalize": _cmd_normalize,
    "thread": _cmd_thread,
    "run": _cmd_run,
    "holds": _cmd_holds,
    "sp": _cmd_sp,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv, argparse.Namespace())
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        cfg = AlgebraConfig(args.algebra, args.bound, args.qbound)
        return _COMMANDS[args.command](args, cfg)
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
