"""Service behaviour, service families, and the algebra configuration."""

import pytest

from pga_hoare.services import (EMPTY, EMPTY_FAMILY, AlgebraConfig, Reply,
                                boolreg, counter, family, family_key,
                                format_family, parse_family, svc_step)


def test_counter_methods():
    assert svc_step(counter(0), "incr") == (Reply.T, counter(1))
    assert svc_step(counter(3), "decr") == (Reply.T, counter(2))
    # decr at zero: reply F, content untouched
    assert svc_step(counter(0), "decr") == (Reply.F, counter(0))
    assert svc_step(counter(0), "iszero")[0] == Reply.T
    assert svc_step(counter(7), "iszero") == (Reply.F, counter(7))


def test_boolreg_methods():
    assert svc_step(boolreg(True), "get") == (Reply.T, boolreg(True))
    assert svc_step(boolreg(False), "get") == (Reply.F, boolreg(False))
    assert svc_step(boolreg(False), "set:t") == (Reply.T, boolreg(True))
    assert svc_step(boolreg(True), "set:f") == (Reply.T, boolreg(False))


def test_unknown_method_degenerates():
    assert svc_step(counter(2), "get") == (Reply.D, EMPTY)
    assert svc_step(boolreg(True), "incr") == (Reply.D, EMPTY)


def test_empty_service_always_d():
    for m in ("incr", "get", "anything"):
        assert svc_step(EMPTY, m) == (Reply.D, EMPTY)


def test_family_lookup_and_update():
    u = family({"c": counter(1), "r": boolreg(True)})
    assert u.get("c") == counter(1)
    assert u.get("x") is None
    assert "r" in u
    v = family({**dict(u.entries), "c": counter(2)})
    assert v.get("c") == counter(2)
    assert u.get("c") == counter(1)


def test_family_literal_roundtrip():
    text = "{c = counter(3), d = empty, r = bool(true)}"
    u = parse_family(text)
    assert u.get("c") == counter(3)
    assert u.get("d") == EMPTY
    assert u.get("r") == boolreg(True)
    assert format_family(u) == text


def test_family_literal_errors():
    with pytest.raises(ValueError):
        parse_family("c = counter(3)")
    with pytest.raises(ValueError):
        parse_family("{c = widget(1)}")


def test_config_validation():
    with pytest.raises(ValueError):
        AlgebraConfig("stack")
    with pytest.raises(ValueError):
        AlgebraConfig("counter", 0)


def test_service_domains():
    services, exhaustive = AlgebraConfig("boolreg").service_domain()
    assert exhaustive and set(services) == {boolreg(False), boolreg(True)}
    services, exhaustive = AlgebraConfig("counter", state_bound=5).service_domain()
    assert not exhaustive
    assert list(services) == [counter(n) for n in range(6)]


def test_services_are_shared_up_to_a_cap():
    # counters below 4096 and both registers are built once; a larger
    # counter is an equal new instance, and the shared table stays capped
    from pga_hoare import services
    assert counter(7) is counter(7) and boolreg(1) is boolreg(True)
    domain, _ = AlgebraConfig("counter", state_bound=300).service_domain()
    assert all(s is counter(n) for n, s in enumerate(domain))
    big = counter(10 ** 6)
    assert big == counter(10 ** 6) and big.content == 10 ** 6
    assert len(services._COUNTERS) <= 4096
    with pytest.raises(ValueError):
        counter(-1)


def test_family_key_orders_contents_by_value():
    states = [family({"c": counter(n)}) for n in (10, 2, 0)]
    assert sorted(states, key=family_key) == [family({"c": counter(n)})
                                             for n in (0, 2, 10)]
    # per focus: kind, then content
    states = [family({"r": boolreg(True)}), family({"r": EMPTY}),
              family({"r": boolreg(False)}), family({"r": counter(1)})]
    assert [format_family(u) for u in sorted(states, key=family_key)] == [
        "{r = bool(false)}", "{r = bool(true)}", "{r = counter(1)}",
        "{r = empty}"]


def test_family_literals_are_read_from_tokens():
    # spacing between tokens does not matter; messages quote the text
    assert parse_family(" {c=counter( 7 ),d = bool( false )} ") == family(
        {"c": counter(7), "d": boolreg(False)})
    assert parse_family("{ }") == EMPTY_FAMILY
    for text, message in (
            ("{c = }", "malformed family entry: 'c ='"),
            ("{1x = empty}", "malformed family entry: '1x = empty'"),
            ("{c = empty,}", "malformed family entry: ''"),
            ("{c = counter(3}", "unknown service literal: 'counter(3'"),
            ("{c = bool(1)}", "bad bool literal: 'bool(1)'"),
            ("{c = empty} {d = empty}", "family literal must be "
                                        "brace-delimited: "
                                        "'{c = empty} {d = empty}'"),
            ("{", "family literal must be brace-delimited: '{'")):
        with pytest.raises(ValueError) as caught:
            parse_family(text)
        assert str(caught.value) == message
