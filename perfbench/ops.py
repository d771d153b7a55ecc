"""Run one generated op against pga_hoare and check it against its known answer.

Package functions are reached through their modules at call time, so the
tracer's wrappers (installed after this module is imported) see every call.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from pga_hoare import cli, proofs, segments, services, syntax, threads

HERE = Path(__file__).resolve().parent
BCFG = services.AlgebraConfig("boolreg")
_REGISTERS = (services.family({"r": services.boolreg(False)}),
              services.family({"r": services.boolreg(True)}))


def _cli(op):
    # proof files are named relative to this directory
    argv = [str(HERE / a) if a.endswith(".proof") else a for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    lines = out.getvalue().splitlines()
    missing = [p for p in op["lines"]
               if not any(line.startswith(p) for line in lines)]
    if status == op["status"] and not missing:
        return None
    return (f"exit {status} (expected {op['status']}), missing {missing}, "
            f"stdout {out.getvalue()!r}, stderr {err.getvalue()!r}")


def _oracle(op):
    """Interpreter and thread semantics must agree on every entry, exit and content."""
    term = syntax.parse_sequence(op["segment"])
    c = syntax.normalize(term)
    for b in range(1, c.length + 1):
        outs = [segments.run_canonical(c, b, u, BCFG) for u in _REGISTERS]
        for e in range(0, 7):
            thread = threads.extract(threads.embed(term, b, e))
            for u, out in zip(_REGISTERS, outs):
                got = threads.apply(thread, u, BCFG)
                converges = (isinstance(out, segments.Halted)
                             or (e > 0 and isinstance(out, segments.Exited)
                                 and out.offset == e))
                want = out.state if converges else services.EMPTY_FAMILY
                if got != want:
                    return (f"entry {b}, exit {e}, from {u}: run gave {out}, "
                            f"apply gave {got}")
    return None


def _proof(op):
    """A generated register proof is accepted outright and its conclusion holds."""
    proof = proofs.parse_proof(op["text"])
    result = proofs.check_proof(proof, BCFG)
    if not result.accepted or result.assumptions:
        return f"check gave {result}"
    verdict = segments.holds(proof.conclusion, BCFG)
    if not verdict.is_holds:
        return f"conclusion gave {verdict}"
    return None


_KINDS = {"cli": _cli, "oracle": _oracle, "proof": _proof}


def execute(op):
    """None when the op's answer is the known one, else what went wrong.

    Exceptions from the package propagate to the caller, which counts them.
    """
    return _KINDS[op["kind"]](op)
