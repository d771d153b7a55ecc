"""Host-speed calibration.

The benchmark shares its host with other work, and the speed of one core
swings by up to half within seconds (a fixed pga op measured 80-150 ms
while CPU time tracked wall time).  So the benchmark times a fixed piece of
pure-Python reference work next to the ops it measures, and scales each op's
wall time by REFERENCE_S / (the reference work's time).  Times then read as
on a host where the reference work takes REFERENCE_S.

The reference work mixes what the measured ops do: building and probing a
growing set of fresh tuples, small objects with attribute access, and
function calls building small dicts.  It imports nothing from pga_hoare, so
no change to the program can move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 1.2e-3  # about the reference work's time in a quiet spell on a 2-core x86_64 host
_REPEATS = 3  # the reference work's time is its mean over this many runs


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _objects(n=600):
    seen, index, acc = set(), {}, 0
    for i in range(n):
        p = _Pair(i & 63, (i * 7) & 31)
        key = (p.a, p.b)
        if key in seen:
            acc += index[key]
        else:
            seen.add(key)
            index[key] = len(seen)
        if isinstance(p, _Pair):
            acc ^= hash(key) & 7
    return acc


def _visited(n=1500):
    seen, contents, pos = set(), [0, 0], 1
    for i in range(n):
        contents[i & 1] += 1
        key = (pos, tuple(contents))
        if key in seen:
            break
        seen.add(key)
        pos = pos % 5 + 1
    return len(seen)


def _ordered(x, y):
    return (x, y) if x < y else (y, x)


def _calls(n=800):
    acc = []
    for i in range(n):
        a, b = _ordered(i, n - i)
        acc.append({"a": a, "b": b}.get("a"))
    return len(acc)


def reference_seconds():
    """Time of the reference work now, as a mean over _REPEATS runs.

    A mean, not a best: the ops it scales feel the host's average speed.
    """
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _objects()
        _visited()
        _calls()
    return (time.perf_counter() - start) / _REPEATS
