"""Single-pass instruction sequences, their thread semantics over service
families, and a Hoare-like logic of asserted sequences with a proof checker.
"""

from .formulas import (EntailVerdict, alpha_eq, entails, eval_formula,
                       format_formula, free_foci, parse_formula, substitute)
from .judgments import AssertedSeq, expand_multi_exit, format_asserted, parse_asserted
from .proofs import CheckResult, ProofNode, check_proof, parse_proof
from .segments import (BudgetOut, Exited, Halted, Inactive, Verdict, holds,
                       run_canonical, run_segment, strongest_post)
from .services import (EMPTY, EMPTY_FAMILY, AlgebraConfig, Reply, Service,
                       ServiceFamily, boolreg, counter, fam_compose,
                       fam_encapsulate, family, parse_family, svc_step)
from .syntax import (OMEGA, CanonicalSequence, format_canonical, format_term,
                     normalize, parse_sequence, seq_equal, term_length)
from .threads import (BudgetExhausted, RegularThread, apply, bisimilar, embed,
                      extract, minimize, sigma, thread_dump, thread_of)

__version__ = "0.1.0"
