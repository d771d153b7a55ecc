"""Single-pass instruction sequences, their thread semantics over service
families, and a Hoare-like logic of asserted sequences with a proof checker.

Each name below is imported from its module on first access (PEP 562), so
importing the package, or one of its modules, loads no other module.
"""

from importlib import import_module

_NAMES = {
    "formulas": "EntailVerdict alpha_eq entails eval_formula format_formula "
                "parse_formula",
    "judgments": "AssertedSeq format_asserted parse_asserted",
    "proofs": "CheckResult ProofNode check_proof parse_proof",
    "segments": "BudgetOut Exited Halted Inactive Verdict holds run_canonical "
                "run_segment strongest_post",
    "services": "EMPTY EMPTY_FAMILY AlgebraConfig Reply Service ServiceFamily "
                "boolreg counter family parse_family svc_step",
    "syntax": "OMEGA CanonicalSequence format_canonical format_term normalize "
              "parse_sequence",
    "threads": "BudgetExhausted RegularThread apply embed extract sigma "
               "thread_dump thread_of",
}
# name -> the module that defines it; submodules are not in it, so the
# import system loads `from pga_hoare import cli` as a submodule
_HOME = {name: module for module, names in _NAMES.items()
         for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
