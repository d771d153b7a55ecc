"""Kernel selection and encoding helpers.

The hot inner loops (segment interpretation and thread application) exist
twice: a Cython extension and a pure-Python fallback with the same contract.
The compiled one is preferred for single runs; set PGA_HOARE_PURE=1 to force
the fallback.  Runs that share an outcome table (one judgment's runs over
many states) always use the pure segment loop, the only one that takes a
table.
"""

from __future__ import annotations

import os

from . import _kernels_py
from .services import EMPTY, Reply, Service, ServiceFamily, family
from .syntax import Basic, CanonicalSequence, Halt, Jump, NegTest, PosTest

if os.environ.get("PGA_HOARE_PURE") == "1":
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

HALTED = _kernels_py.HALTED
EXITED = _kernels_py.EXITED
INACTIVE = _kernels_py.INACTIVE
BUDGET = _kernels_py.BUDGET

run_segment_kernel = _impl.run_segment_kernel
run_segment_tabled = _kernels_py.run_segment_kernel
apply_kernel = _impl.apply_kernel


def implementation() -> str:
    return _impl.IMPLEMENTATION


_KIND_CODE = {"boolreg": 0, "counter": 1}
_METHOD_CODE = {
    "boolreg": {"get": 0, "set:t": 1, "set:f": 2},
    "counter": {"incr": 0, "decr": 1, "iszero": 2},
}


def encodable_family(u: ServiceFamily) -> bool:
    return all(s.kind in ("empty", "boolreg", "counter") for _, s in u.entries)


def encode_family(u: ServiceFamily, default_kind: str = "counter"):
    """(foci, kinds, contents): parallel per-slot arrays, foci sorted.

    An empty service keeps content -1; its kind slot falls back to
    default_kind (irrelevant, every method replies D on it).
    """
    foci = [f for f, _ in u.entries]
    kinds = []
    contents = []
    for _, s in u.entries:
        if s.kind == "empty":
            kinds.append(_KIND_CODE[default_kind])
            contents.append(-1)
        elif s.kind == "boolreg":
            kinds.append(0)
            contents.append(1 if s.content else 0)
        else:
            kinds.append(1)
            contents.append(s.content)
    return foci, kinds, contents


def decode_family(foci, kinds, contents) -> ServiceFamily:
    items = {}
    for f, k, c in zip(foci, kinds, contents):
        if c < 0:
            items[f] = EMPTY
        elif k == 0:
            items[f] = Service("boolreg", c == 1)
        else:
            items[f] = Service("counter", c)
    return family(items)


def encode_canonical(c: CanonicalSequence, foci, kinds):
    """(ops, arg1, arg2) arrays, one entry per representative position."""
    slot = {f: i for i, f in enumerate(foci)}
    ops, arg1, arg2 = [], [], []
    for instr in c.prefix + (c.period or ()):
        if isinstance(instr, Halt):
            ops.append(4)
            arg1.append(0)
            arg2.append(0)
        elif isinstance(instr, Jump):
            ops.append(3)
            arg1.append(instr.offset)
            arg2.append(0)
        else:
            if isinstance(instr, Basic):
                ops.append(0)
            elif isinstance(instr, PosTest):
                ops.append(1)
            else:
                assert isinstance(instr, NegTest)
                ops.append(2)
            s = slot.get(instr.focus, -1)
            arg1.append(s)
            if s < 0:
                arg2.append(-1)
            else:
                kind_name = "boolreg" if kinds[s] == 0 else "counter"
                arg2.append(_METHOD_CODE[kind_name].get(instr.method, -1))
    return ops, arg1, arg2


def encode_thread(nodes, foci, kinds):
    """Parallel node arrays for apply_kernel from a RegularThread's nodes.

    nodes is a sequence of ("stop",) / ("dead",) / ("branch", focus, method,
    then_index, else_index) tuples.
    """
    slot = {f: i for i, f in enumerate(foci)}
    node_kind, node_slot, node_method, node_then, node_else = [], [], [], [], []
    for n in nodes:
        if n[0] == "stop":
            node_kind.append(0)
            node_slot.append(0)
            node_method.append(0)
            node_then.append(0)
            node_else.append(0)
        elif n[0] == "dead":
            node_kind.append(1)
            node_slot.append(0)
            node_method.append(0)
            node_then.append(0)
            node_else.append(0)
        else:
            _, focus, method, then_i, else_i = n
            node_kind.append(2)
            s = slot.get(focus, -1)
            node_slot.append(s)
            if s < 0:
                node_method.append(-1)
            else:
                kind_name = "boolreg" if kinds[s] == 0 else "counter"
                node_method.append(_METHOD_CODE[kind_name].get(method, -1))
            node_then.append(then_i)
            node_else.append(else_i)
    return node_kind, node_slot, node_method, node_then, node_else


def reply_code(r: Reply) -> int:
    return {Reply.F: 0, Reply.T: 1, Reply.D: 2}[r]
