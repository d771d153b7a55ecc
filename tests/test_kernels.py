"""The compiled and pure execution kernels must agree exactly."""

import random

import pytest

from pga_hoare import kernels, _kernels_py
from pga_hoare.services import AlgebraConfig, boolreg, counter, family
from pga_hoare.syntax import normalize, parse_sequence
from pga_hoare.threads import extract

try:
    from pga_hoare import _kernels
except ImportError:
    _kernels = None

needs_ext = pytest.mark.skipif(_kernels is None,
                               reason="compiled extension not built")

_ALPHABET = ["r.get", "+r.get", "-r.get", "r.set:t", "r.set:f",
             "#0", "#1", "#2", "#3", "!"]


def _random_sequences(n, rng, repeat_some=True):
    out = []
    for _ in range(n):
        k = rng.randint(1, 5)
        body = " ; ".join(rng.choice(_ALPHABET) for _ in range(k))
        if repeat_some and rng.random() < 0.4:
            body = f"({body})^w"
        out.append(parse_sequence(body))
    return out


@needs_ext
def test_extension_selected_by_default():
    assert kernels.implementation() == "cython"


@needs_ext
def test_segment_kernels_agree_on_random_inputs():
    rng = random.Random(7)
    for s in _random_sequences(300, rng):
        c = normalize(s)
        for content in (0, 1):
            u = family({"r": boolreg(bool(content))})
            foci, kinds, contents = kernels.encode_family(u)
            enc = kernels.encode_canonical(c, foci, kinds)
            args = (*enc, len(c.prefix), len(c.period or ()), 1, kinds,
                    contents, 100)
            assert (_kernels.run_segment_kernel(*args)
                    == _kernels_py.run_segment_kernel(*args))


@needs_ext
def test_apply_kernels_agree_on_random_threads():
    rng = random.Random(11)
    for s in _random_sequences(200, rng):
        t = extract(normalize(s))
        for content in (0, 1):
            u = family({"r": boolreg(bool(content))})
            foci, kinds, contents = kernels.encode_family(u)
            enc = kernels.encode_thread(t.nodes, foci, kinds)
            args = (*enc, t.root, kinds, contents, 100)
            assert (_kernels.apply_kernel(*args)
                    == _kernels_py.apply_kernel(*args))


@needs_ext
def test_kernels_agree_on_counters():
    c = normalize(parse_sequence("(-c.iszero ; #2 ; ! ; c.decr)^w"))
    for n in range(0, 30):
        u = family({"c": counter(n)})
        foci, kinds, contents = kernels.encode_family(u)
        enc = kernels.encode_canonical(c, foci, kinds)
        args = (*enc, len(c.prefix), len(c.period or ()), 1, kinds, contents,
                100)
        out = _kernels.run_segment_kernel(*args)
        assert out == _kernels_py.run_segment_kernel(*args)
        assert out[0] == _kernels_py.HALTED
        assert out[2] == [0]


@needs_ext
def test_budget_agrees():
    c = normalize(parse_sequence("(c.incr)^w"))
    u = family({"c": counter(0)})
    foci, kinds, contents = kernels.encode_family(u)
    enc = kernels.encode_canonical(c, foci, kinds)
    args = (*enc, len(c.prefix), len(c.period or ()), 1, kinds, contents, 5)
    out = _kernels.run_segment_kernel(*args)
    assert out == _kernels_py.run_segment_kernel(*args)
    assert out[0] == _kernels_py.BUDGET


def test_pure_fallback_env_var():
    import os
    import subprocess
    import sys

    code = ("import pga_hoare.kernels as k; print(k.implementation())")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PGA_HOARE_PURE": "1"},
                         capture_output=True, text=True)
    assert out.stdout.strip() == "python"


def test_encode_decode_family_roundtrip():
    u = family({"c": counter(3), "r": boolreg(True)})
    foci, kinds, contents = kernels.encode_family(u)
    assert kernels.decode_family(foci, kinds, contents) == u
