"""Regular threads: extraction from canonical sequences and application.

A regular thread is a finite graph of Stop/Dead leaves and binary action
branches.  Extraction resolves jump chains ahead of time, so the thread has
one node per useful representative position.  Applying a thread to a service
family runs it to completion; divergence yields the empty family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Tuple

from . import kernels
from .services import EMPTY_FAMILY, AlgebraConfig, ServiceFamily
from .syntax import (Basic, CanonicalSequence, Concat, Halt, Instr, Jump,
                     NegTest, PosTest, SequenceTerm, concat_all,
                     normalize)


class BudgetExhausted(Exception):
    """The step budget ran out before a verdict was reached."""


@dataclass(frozen=True)
class RegularThread:
    """Nodes are ("stop",), ("dead",), or ("branch", focus, method, t, e)."""

    nodes: Tuple[tuple, ...]
    root: int

    def node(self, i: int) -> tuple:
        return self.nodes[i]


STOP_THREAD = RegularThread((("stop",),), 0)
DEAD_THREAD = RegularThread((("dead",),), 0)


def _jump_targets(c: CanonicalSequence, instrs: tuple) -> list:
    """For each representative position r (instrs[r] its instruction), that
    of the first non-jump instruction execution reaches from r, or None
    when it becomes inactive (#0, a jump off the end, a cycle of jumps).
    Each chain is followed once; its positions are marked while it is."""
    unknown, following = 0, -1
    target = [r if not isinstance(instr, Jump) else unknown
              for r, instr in enumerate(instrs)]
    for start in range(1, len(instrs)):
        chain = []
        r = start
        while r is not None and target[r] == unknown:
            target[r] = following
            chain.append(r)
            offset = instrs[r].offset
            r = c.representative(r + offset) if offset else None
        end = None if r is None or target[r] == following else target[r]
        for r in chain:
            target[r] = end
    return target


def extract(c: CanonicalSequence) -> RegularThread:
    """Thread extraction: one branch node per useful position."""
    instrs = (None,) + c.prefix + (c.period or ())
    target = _jump_targets(c, instrs)
    nodes = []
    leaves = {}  # "stop"/"dead" -> its one node

    def leaf(kind: str) -> int:
        if kind not in leaves:
            leaves[kind] = len(nodes)
            nodes.append((kind,))
        return leaves[kind]

    # Pass 1: nodes for non-jump representative positions.
    position_node = {}
    for rep in range(1, len(instrs)):
        instr = instrs[rep]
        if isinstance(instr, Halt):
            position_node[rep] = leaf("stop")
        elif not isinstance(instr, Jump):
            position_node[rep] = len(nodes)
            nodes.append(None)  # patched below

    # Pass 2: wire successors through the resolved jumps.
    def node_at(pos: int) -> int:
        rep = c.representative(pos)
        end = None if rep is None else target[rep]
        return leaf("dead") if end is None else position_node[end]

    for rep, i in position_node.items():
        instr = instrs[rep]
        if isinstance(instr, Halt):
            continue
        then_i = node_at(rep + 1)
        else_i = node_at(rep + 2)
        if isinstance(instr, Basic):
            nodes[i] = ("branch", instr.focus, instr.method, then_i, then_i)
        elif isinstance(instr, PosTest):
            nodes[i] = ("branch", instr.focus, instr.method, then_i, else_i)
        else:
            assert isinstance(instr, NegTest)
            nodes[i] = ("branch", instr.focus, instr.method, else_i, then_i)

    root = node_at(1)
    return _trim(RegularThread(tuple(nodes), root))


def _trim(t: RegularThread) -> RegularThread:
    """Drop unreachable nodes and renumber in BFS order from the root."""
    order = []
    index = {}
    queue = deque([t.root])
    while queue:
        i = queue.popleft()
        if i in index:
            continue
        index[i] = len(order)
        order.append(i)
        node = t.nodes[i]
        if node[0] == "branch":
            queue.append(node[3])
            queue.append(node[4])
    new_nodes = []
    for i in order:
        node = t.nodes[i]
        if node[0] == "branch":
            node = (node[0], node[1], node[2], index[node[3]], index[node[4]])
        new_nodes.append(node)
    return RegularThread(tuple(new_nodes), 0)


def minimize(t: RegularThread) -> RegularThread:
    """Bisimulation quotient via partition refinement, BFS-canonicalized."""
    n = len(t.nodes)
    labels = {}
    block = []
    for i in range(n):
        node = t.nodes[i]
        key = (node[0],) if node[0] != "branch" else ("branch", node[1], node[2])
        block.append(labels.setdefault(key, len(labels)))
    while True:
        sigs = {}
        refined = []
        for i in range(n):
            node = t.nodes[i]
            if node[0] == "branch":
                sig = (block[i], block[node[3]], block[node[4]])
            else:
                sig = (block[i],)
            refined.append(sigs.setdefault(sig, len(sigs)))
        if len(sigs) == len(set(block)):
            block = refined
            break
        block = refined
    rep_of = {}
    mapped = []
    for i in range(n):
        rep_of.setdefault(block[i], i)
        mapped.append(rep_of[block[i]])
    nodes = list(t.nodes)
    for i in range(n):
        node = nodes[i]
        if node[0] == "branch":
            nodes[i] = (node[0], node[1], node[2], mapped[node[3]],
                        mapped[node[4]])
    return _trim(RegularThread(tuple(nodes), mapped[t.root]))


def bisimilar(a: RegularThread, b: RegularThread) -> bool:
    return minimize(a) == minimize(b)


def sigma(e: int) -> SequenceTerm:
    """The exit-observation suffix: e-1 inactivity jumps then termination."""
    if e < 1:
        raise ValueError("sigma is defined for positive e")
    return concat_all([Instr(Jump(0))] * (e - 1) + [Instr(Halt())])


def embed(s: SequenceTerm, b: int, e: int) -> CanonicalSequence:
    """The segment as entered at its bth instruction with exit offset e.

    e = 0 observes termination inside the segment; e > 0 turns exit at
    offset e into observable termination.
    """
    if b < 1:
        raise ValueError("entry point must be positive")
    term: SequenceTerm = Concat(Instr(Jump(b)), s)
    if e > 0:
        term = Concat(term, sigma(e))
    return normalize(term)


def thread_of(s: SequenceTerm) -> RegularThread:
    return extract(normalize(s))


_DEFAULT_CFG = AlgebraConfig()


def apply(t: RegularThread, u: ServiceFamily,
          cfg: AlgebraConfig = _DEFAULT_CFG) -> ServiceFamily:
    """Run the thread against the family (the apply operator).

    Stop yields the current family, Dead the empty family; a missing focus
    or a D reply also yields the empty family, as does divergence (revisit
    of a (node, family) pair).  Raises BudgetExhausted when a counter grows
    without the state ever repeating, and ValueError when u holds a service
    of another kind than empty, counter and boolreg.
    """
    foci, kinds, contents = kernels.encode_family(u)
    enc = kernels.encode_thread(t.nodes, foci, kinds)
    outcome, final = kernels.apply_kernel(*enc, t.root, kinds, contents,
                                          cfg.state_bound)
    if outcome == kernels.BUDGET:
        raise BudgetExhausted("apply step budget exhausted")
    if outcome == kernels.HALTED:
        return kernels.decode_family(foci, kinds, final)
    return EMPTY_FAMILY


def thread_dump(t: RegularThread) -> str:
    """Adjacency-list dump, one node per line, root first."""
    lines = []
    for i, node in enumerate(t.nodes):
        if node[0] == "stop":
            lines.append(f"n{i}: stop")
        elif node[0] == "dead":
            lines.append(f"n{i}: dead")
        else:
            _, focus, method, then_i, else_i = node
            lines.append(f"n{i}: branch {focus}.{method} -> n{then_i} / n{else_i}")
    return "\n".join(lines)
