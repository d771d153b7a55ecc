"""Per-layer tracing by wrapping pga_hoare's public functions.

Each traced function is replaced, in every pga_hoare module namespace that
binds it, by a wrapper that records a span.  Rebinding every namespace
catches calls made inside the package too, whether they go through a name
imported with `from x import f` or through a module attribute.

Per function the tracer keeps the call count and the self time: the span's
duration minus the time covered by traced calls made inside it.  A few
wrappers also count outcomes from the return value.  Time spent outside any
traced call is the harness's self time.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer (module of pga_hoare) -> public functions traced in it
LAYERS = {
    "syntax": ["parse_sequence", "normalize"],
    "judgments": ["parse_asserted"],
    "formulas": ["parse_formula", "free_vars", "eval_formula",
                 "enumerate_states", "entails", "alpha_eq"],
    "segments": ["holds", "strongest_post", "run_canonical"],
    "kernels": ["encode_family", "encode_canonical", "encode_thread",
                "decode_family", "run_segment_kernel", "apply_kernel"],
    "threads": ["extract", "apply"],
    "proofs": ["parse_proof", "check_proof"],
    "cli": ["main"],
}

_RUN_OUTCOMES = {"Halted": "halted", "Exited": "exited",
                 "Inactive": "inactive", "BudgetOut": "budget_out"}


def _proof_refs(node):
    """Node references in a proof tree, each use of a shared binding counted."""
    refs, stack = 0, [node]
    while stack:
        n = stack.pop()
        refs += 1
        stack.extend(n.premises)
    return refs


def _count_run(result, args):
    return [_RUN_OUTCOMES[type(result).__name__]]


def _count_apply(result, args):
    return [] if result.entries else ["empty"]


def _count_check(result, args):
    return [("node_refs", _proof_refs(args[0])),
            ("assumptions", len(result.assumptions))]


# function -> (outcome counters always reported, counter from the result)
COUNTERS = {
    "segments.run_canonical": (("halted", "exited", "inactive", "budget_out"),
                               _count_run),
    "threads.apply": (("empty", "budget_out"), _count_apply),
    "formulas.entails": (("valid", "bounded", "unknown", "invalid"),
                         lambda result, args: [result.kind]),
    "formulas.enumerate_states": (("pairs",),
                                  lambda result, args: [("pairs", len(result[0]))]),
    "formulas.eval_formula": (("undecided",),
                              lambda result, args: [] if result is not None
                              else ["undecided"]),
    "proofs.check_proof": (("node_refs", "assumptions"), _count_check),
}

# exception class name -> outcome counted when the wrapped call raises it
_RAISED = {"threads.apply": {"BudgetExhausted": "budget_out"}}


class Tracer:
    """Wrappers are in place inside `with tracer:`; the originals come back on
    exit.  A tracer may be entered many times; its figures accumulate."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.top_s = 0.0  # time covered by outermost traced calls
        self._stack = []
        for name in self.names():
            self.calls[name] = 0
            self.self_s[name] = 0.0
        for name, (outcomes, _) in COUNTERS.items():
            for outcome in outcomes:
                self.counts[f"{name}.{outcome}"] = 0
        self._bindings = self._find_bindings()

    @staticmethod
    def names():
        return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        raised = _RAISED.get(name, {})
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                outcome = raised.get(type(exc).__name__)
                if outcome:
                    self.counts[f"{name}.{outcome}"] += 1
                raise
            finally:
                span = perf() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - child
                if stack:
                    stack[-1] += span
                else:
                    self.top_s += span
            if counter is not None:
                for item in counter(result, args):
                    key, n = item if isinstance(item, tuple) else (item, 1)
                    self.counts[f"{name}.{key}"] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every traced binding."""
        for layer in LAYERS:
            importlib.import_module(f"pga_hoare.{layer}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pga_hoare"
                                         or key.startswith("pga_hoare."))]
        out = []
        for layer, fns in LAYERS.items():
            home = sys.modules[f"pga_hoare.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # gone from the package: its figures stay 0
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            out.append((module, attr, original, wrapper))
        return out

    def __enter__(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        return False
