"""Segment execution and the semantic side of asserted sequences.

run_segment interprets an instruction sequence directly with a program
counter, starting at entry instruction b.  holds decides an asserted
sequence by enumerating states over the configured algebra and running each
P-state; strongest_post computes the image of the P-states.  The runs of one
judgment share a kernels.SegmentRuns, an outcome table and lap summaries, so
the judgment's state graph is explored once rather than once per state.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from . import kernels
from .analysis import joint_sorts
from .formulas import (And, BoolLit, CompiledFormula, EmptyServ, Eq, Formula,
                       NatLit, Nnc, Or, RegOf, StateSpace, Var, FALSE, TRUE,
                       compile_formula)
from .judgments import AssertedSeq
from .records import record
from .services import AlgebraConfig, ServiceFamily, family_key, format_family
from .syntax import CanonicalSequence, SequenceTerm, focus_methods, normalize


# ---------------------------------------------------------------------------
# outcomes


@record
class Halted:
    state: ServiceFamily


@record
class Exited:
    offset: int
    state: ServiceFamily

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("exit offset must be positive")


@record
class Inactive:
    pass


@record
class BudgetOut:
    """The step budget ran out before the run converged or cycled."""


INACTIVE = Inactive()
BUDGET_OUT = BudgetOut()


def format_outcome(o) -> str:
    if isinstance(o, Halted):
        return f"halted in {format_family(o.state)}"
    if isinstance(o, Exited):
        return f"exited at offset {o.offset} in {format_family(o.state)}"
    if isinstance(o, Inactive):
        return "inactive"
    return "budget exhausted"


# ---------------------------------------------------------------------------
# direct interpretation


_DEFAULT_CFG = AlgebraConfig()


def run_segment(s: SequenceTerm, b: int, u: ServiceFamily,
                cfg: AlgebraConfig = _DEFAULT_CFG):
    """Run from instruction b; see the outcome types above.

    Raises ValueError when b lies beyond the segment.
    """
    c = normalize(s)
    return run_canonical(c, b, u, cfg)


def run_canonical(c: CanonicalSequence, b: int, u: ServiceFamily,
                  cfg: AlgebraConfig = _DEFAULT_CFG):
    """run_segment on a canonical form.

    Raises ValueError when b lies outside the segment or u holds a service
    of another kind than empty, counter and boolreg.
    """
    if b < 1:
        raise ValueError("entry point must be at least 1")
    if b > c.length:
        raise ValueError("entry beyond segment")
    foci, kinds, contents = kernels.encode_family(u)
    enc = kernels.encode_canonical(c, foci, kinds)
    code, off, final = kernels.run_segment_kernel(
        *enc, len(c.prefix), len(c.period or ()), b, kinds, contents,
        cfg.state_bound)
    return _outcome(code, off, final, foci, kinds)


def _outcome(code, off, final, foci, kinds):
    if code == kernels.HALTED:
        return Halted(kernels.decode_family(foci, kinds, final))
    if code == kernels.EXITED:
        return Exited(off, kernels.decode_family(foci, kinds, final))
    if code == kernels.INACTIVE:
        return INACTIVE
    return BUDGET_OUT


def _segment_runs(c: CanonicalSequence, b: int, foci, kinds,
                  cfg: AlgebraConfig, unobserved=()):
    return kernels.SegmentRuns(
        *kernels.encode_canonical(c, foci, kinds, unobserved), len(c.prefix),
        len(c.period or ()), b, kinds, cfg.state_bound)


# ---------------------------------------------------------------------------
# the semantic checker


@record
class Verdict:
    kind: str  # holds | fails | unknown
    bounded: bool = False
    bound: Optional[int] = None
    witness: Optional[tuple] = None  # (state, valuation, outcome-or-reason)
    reason: Optional[str] = None

    @property
    def is_holds(self) -> bool:
        return self.kind == "holds"

    def __str__(self) -> str:
        if self.kind == "holds":
            if self.bounded:
                return f"HOLDS (bounded, B={self.bound})"
            return "HOLDS"
        if self.kind == "fails":
            if self.witness is None:
                return f"FAILS ({self.reason})"
            state, valuation, outcome = self.witness
            extra = f", valuation {valuation}" if valuation else ""
            return (f"FAILS (from {format_family(state)}{extra}: "
                    f"{format_outcome(outcome) if not isinstance(outcome, str) else outcome})")
        return f"UNKNOWN ({self.reason})"


def _unobserved(methods, pre: CompiledFormula, post: CompiledFormula,
                cfg: AlgebraConfig) -> set:
    """The counters that the segment only increments and that neither P
    nor Q reads (see "Unobserved counters" in kernels)."""
    if cfg.algebra != "counter":
        return set()
    return {f for f, applied in methods.items()
            if applied == {"incr"} and f not in pre.sorts
            and f not in post.sorts}


def holds(phi: AssertedSeq, cfg: AlgebraConfig = _DEFAULT_CFG) -> Verdict:
    """Decide the asserted sequence over the configured algebra.

    An entry point past the end of the segment makes the judgment fail
    outright.  Otherwise every enumerated P-state must run to an outcome
    compatible with the exit annotation and satisfy Q there.
    """
    return _decide(phi, cfg, False)[0]


_UNSEEN = object()
_MEMO_CAP = 1 << 12
_PRE_UNDECIDED = "precondition undecided within the quantifier bound"
_POST_UNDECIDED = "postcondition undecided within the quantifier bound"
_BUDGET_UNDECIDED = "step budget exhausted on some run"


class _Fallback(Exception):
    """A run without the unobserved counters ran out of budget."""


def _open_cases(pre: CompiledFormula, space: StateSpace, run):
    """(contents, values, result) per pair at which pre is not False;
    result is None where pre is undecided.  Each state runs once: its
    pairs come one after another, with one contents object."""
    ran = result = None
    for env, contents, values in space.pairs():
        pv = pre.evaluate(env)
        if pv and contents is not ran:
            ran, result = contents, run(contents)
        if pv is not False:
            yield contents, values, result if pv else None


def _decide(phi: AssertedSeq, cfg: AlgebraConfig, with_image: bool):
    """(verdict, image): the verdict of holds(phi, cfg) and, if with_image
    and the verdict is not fails, the states in which runs from P-states
    reach the exit annotation (None otherwise).  The image is complete
    when the verdict is holds.

    Without the image, the states enumerated leave out the unobserved
    counters (see "Unobserved counters" in kernels): those that S only
    increments and that neither P nor Q reads.  A run from the remaining
    contents then stands for every content of the counters left out, so
    the verdict is that of the full space: its first failing or undecided
    state is the one found with 0 in each counter left out, the least of
    its class in enumeration order, and its outcome comes from one fresh
    run of that state.  The bounded label is the full space's.  A run
    without those counters that runs out of budget says nothing about
    larger contents of them, whose step limits are larger: the judgment is
    then decided again on every focus.
    """
    c = normalize(phi.term)
    if phi.entry > c.length:
        return Verdict("fails", reason="entry beyond segment",
                       witness=None), None
    methods = focus_methods(c)
    pre = compile_formula(phi.pre, cfg, methods)
    post = compile_formula(phi.post, cfg, methods)
    foci, var_sorts = joint_sorts(pre.sorts, post.sorts, methods)
    space = StateSpace(foci, var_sorts, cfg, pre.facts)
    left_out = () if with_image else _unobserved(methods, pre, post, cfg)
    if left_out:
        observed = StateSpace(foci - left_out, var_sorts, cfg, pre.facts)
        try:
            return _search(c, phi, cfg, pre, post, space, observed,
                           left_out, False)
        except _Fallback:
            pass
    return _search(c, phi, cfg, pre, post, space, space, (), with_image)


def _search(c: CanonicalSequence, phi: AssertedSeq, cfg: AlgebraConfig,
            pre: CompiledFormula, post: CompiledFormula, space: StateSpace,
            observed: StateSpace, left_out, with_image: bool):
    """_decide's (verdict, image), enumerating the states of observed,
    whose foci are those of space but left_out.  Raises _Fallback on a
    budget-out when left_out is not empty.

    The P-states go to the segment loop as content tuples in one layout:
    every focus of observed holds a service of cfg's algebra.  When P
    is closed and no variable needs a value, P is evaluated once and no
    service or env is built per state; when it is True there, the states
    whose contents all reach their lap key's threshold go by lines
    (kernels.SegmentRuns.sweep), each line's members sharing one outcome.
    Q is evaluated once per distinct (final contents on Q's foci,
    valuation), on a family of those foci alone; the image is kept as
    content tuples and decoded into families at the end, for
    strongest_post only.
    A fails verdict gives the first failing state in enumeration order; an
    unknown verdict the first undecided state, and what left it undecided.
    Where P fixes a focus or solves a nat variable (see StateSpace), the
    pairs enumerated skip only pairs at which P is False, which neither
    fail the judgment nor leave it undecided: the first failing and first
    undecided states are those of the full box.
    """
    foci = observed.foci
    kinds = [0 if cfg.algebra == "boolreg" else 1] * len(foci)
    runs = _segment_runs(c, phi.entry, foci, kinds, cfg, left_out)
    lines = None
    if pre.sorts or observed.names:
        cases = _open_cases(pre, observed, runs.run)
    else:
        pv = pre.evaluate({})
        sweep = runs.sweep(cfg.state_bound) if pv else None
        if sweep is not None:
            states, lines = sweep
        else:
            states = observed.states() if pv is not False else ()
        cases = ((contents, (), runs.run(contents) if pv else None)
                 for contents in states)
    halting = phi.exit == 0
    finals = set() if with_image else None  # final contents at the exit
    # Q reads the finals' contents on its own foci only
    q_slots = [i for i, f in enumerate(foci) if f in post.sorts]
    q_foci, q_kinds = [foci[i] for i in q_slots], [kinds[i] for i in q_slots]
    project = itemgetter(*q_slots) if q_slots else lambda final: ()
    # (final contents on Q's foci, values) -> value of Q, for at most
    # _MEMO_CAP keys: a full memo is emptied, so runs that each end in a
    # new final keep no table of them
    post_values = {}

    def judge(result, values):
        """False when the run breaks the judgment, a reason when it leaves
        it undecided, None when it fits."""
        if result is None:
            return _PRE_UNDECIDED
        code, off, final = result
        if code == kernels.INACTIVE:
            return None
        if code == kernels.BUDGET:
            if left_out:
                raise _Fallback
            return _BUDGET_UNDECIDED
        if not (code == kernels.HALTED if halting
                else code == kernels.EXITED and off == phi.exit):
            return False
        if finals is not None:
            finals.add(final)
        key = (project(final), values)
        qv = post_values.get(key, _UNSEEN)
        if qv is _UNSEEN:
            if len(post_values) == _MEMO_CAP:
                post_values.clear()
            state = kernels.decode_family(q_foci, q_kinds,
                                          [final[i] for i in q_slots])
            qv = post_values[key] = post(state, space.valuation(values))
        if qv is None:
            return _POST_UNDECIDED
        return None if qv else False

    failed = undecided = None  # (contents, values, result or reason)
    for contents, values, result in cases:  # in enumeration order
        why = judge(result, values)
        if why is False:
            failed = (contents, values, result)
            break
        if why and undecided is None:
            undecided = (contents, values, why)
    # each line by its first member, unless the stream failed before it
    for result, contents in lines(failed and failed[0]) if lines else ():
        why = judge(result, ())
        if why is False:
            if failed is None or contents < failed[0]:
                failed = (contents, (), result)
        elif why and (undecided is None or contents < undecided[0]):
            undecided = (contents, (), why)

    def widened(contents):
        """The state of space with these contents on observed's foci and 0
        in each focus left out."""
        held = dict(zip(foci, contents))
        return space.state([held.get(f, 0) for f in space.foci])

    if failed:
        contents, values, result = failed
        state = widened(contents)
        outcome = (run_canonical(c, phi.entry, state, cfg) if left_out
                   else _outcome(*result, foci, kinds))
        return Verdict("fails", witness=(
            state, space.valuation(values), outcome)), None
    image = None if finals is None else {
        kernels.decode_family(foci, kinds, final) for final in finals}
    if undecided:
        contents, values, reason = undecided
        return Verdict("unknown", reason=reason, bound=cfg.state_bound,
                       witness=(widened(contents), space.valuation(values),
                                reason)), image
    return Verdict("holds", bounded=not space.exhaustive,
                   bound=cfg.state_bound), image


# ---------------------------------------------------------------------------
# strongest post-conditions


def _state_formula(state: ServiceFamily) -> Formula:
    parts = []
    for focus, s in state.entries:
        if s.kind == "empty":
            parts.append(Eq(Var(focus), EmptyServ()))
        elif s.kind == "counter":
            parts.append(Eq(Var(focus), Nnc(NatLit(s.content))))
        elif s.kind == "boolreg":
            parts.append(Eq(Var(focus), RegOf(BoolLit(s.content))))
        else:
            raise ValueError(f"no formula literal for service kind {s.kind!r}")
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def states_formula(states) -> Formula:
    states = sorted(states, key=family_key)
    if not states:
        return FALSE
    out = _state_formula(states[0])
    for s in states[1:]:
        out = Or(out, _state_formula(s))
    return out


class NoPostCondition(ValueError):
    """{b|P} S {e|true} fails, or is undecided (undecided is then True)."""

    def __init__(self, message: str, undecided: bool = False):
        super().__init__(message)
        self.undecided = undecided


def strongest_post(pre: Formula, s: SequenceTerm, b: int, e: int,
                   cfg: AlgebraConfig = _DEFAULT_CFG):
    """(states, formula): the image of the P-states under execution.

    Defined only when {b|P} S {e|true} holds; otherwise no post-condition
    exists for this exit and NoPostCondition is raised.  Malformed input
    (an entry below 1, a negative exit, a variable used at two sorts)
    raises a plain ValueError.
    """
    guard, image = _decide(AssertedSeq(b, pre, s, e, TRUE), cfg, True)
    if guard.kind == "fails":
        raise NoPostCondition("no post-condition exists for this e")
    if guard.kind == "unknown":
        raise NoPostCondition(f"existence undecided: {guard.reason}",
                              undecided=True)
    return image, states_formula(image)
