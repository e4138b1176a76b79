import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetval import Dyadic, ONE, ZERO, parse_dyadic
from posetval.errors import NegativeResult, ParseError, PrecisionLoss

dyadics = st.builds(Dyadic, st.integers(0, 1 << 20), st.integers(0, 12))


def test_add_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    assert ZERO + Dyadic(3, 3) == Dyadic(3, 3)
    half_plus_half = Dyadic(1, 1) + Dyadic(1, 1)
    assert half_plus_half == ONE
    assert (half_plus_half.num, half_plus_half.exp) == (1, 0)


def test_sub_examples():
    assert Dyadic(3, 2) - Dyadic(1, 2) == Dyadic(1, 1)
    x = Dyadic(5, 3)
    assert x - x == ZERO
    with pytest.raises(NegativeResult):
        Dyadic(1, 2) - Dyadic(1, 1)


def test_compare_examples():
    assert Dyadic(1, 1) < Dyadic(3, 2)
    assert Dyadic(2, 2) == Dyadic(1, 1)   # canonical form
    assert Dyadic(7, 3) < Dyadic(1, 0)


def test_rescale_examples():
    assert Dyadic(3, 2).rescale(4) == 12
    assert ZERO.rescale(10) == 0
    with pytest.raises(PrecisionLoss):
        Dyadic(1, 3).rescale(2)


def test_canonical_form():
    d = Dyadic(4, 4)
    assert (d.num, d.exp) == (1, 2)
    z = Dyadic(0, 7)
    assert (z.num, z.exp) == (0, 0)
    with pytest.raises(NegativeResult):
        Dyadic(-1, 0)


@given(dyadics, dyadics)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(dyadics, dyadics, dyadics)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(dyadics, dyadics)
def test_compare_total_antisymmetric(a, b):
    assert (a.compare(b) == 0) == (a == b)
    assert a.compare(b) == -b.compare(a)


@given(dyadics, dyadics, dyadics)
def test_compare_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(dyadics, st.integers(0, 8))
def test_rescale_round_trip(a, extra):
    n = a.exp + extra
    assert Dyadic(a.rescale(n), n) == a


@given(dyadics)
def test_text_round_trip(a):
    assert parse_dyadic(str(a)) == a


def test_parse_forms():
    assert parse_dyadic("3/2^2") == Dyadic(3, 2)
    assert parse_dyadic("1") == ONE
    assert parse_dyadic("0") == ZERO
    assert parse_dyadic(" 007/2^03\n") == Dyadic(7, 3)
    # only ASCII decimal digits, though int() takes more
    for bad in ("x", "1/3", "-1", "1/2^-1", "3/4", "1_0", "+3", "\uff13",
                "1/2^0_3", "1/2^ 3", "1 /2^3", "1/2^+3", "", "1/2^", "/2^3",
                "\u0663/2^1", "1/2^\u00b3"):
        with pytest.raises(ParseError):
            parse_dyadic(bad)


def test_mul_exact():
    assert Dyadic(3, 2) * Dyadic(1, 1) == Dyadic(3, 3)
    assert ONE * Dyadic(5, 4) == Dyadic(5, 4)


def test_fields_are_frozen():
    d = Dyadic(3, 2)
    for name in ("num", "exp"):
        with pytest.raises(FrozenInstanceError):
            setattr(d, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(d, name)
    assert (d.num, d.exp) == (3, 2)


@given(dyadics)
def test_copies_and_pickles_are_equal(a):
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert (b.num, b.exp) == (a.num, a.exp)


def test_equality_and_hash_go_by_the_canonical_form():
    assert Dyadic(2, 1) == ONE and hash(Dyadic(2, 1)) == hash(ONE)
    assert hash(Dyadic(6, 3)) == hash((3, 2))
    assert ONE != (1, 0)
    assert ONE.__eq__(1) is NotImplemented
    assert Dyadic(1, 1) < ONE <= Dyadic(2, 1) < Dyadic(3, 1)
    assert str(Dyadic(6, 3)) == "3/2^2" and repr(ZERO) == "Dyadic(0)"


def test_post_init_runs_once_per_value(monkeypatch):
    # a profiler may count the values made by wrapping __post_init__
    calls = []
    real = Dyadic.__post_init__

    def counting(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(Dyadic, "__post_init__", counting)
    a, b = Dyadic(4, 3), Dyadic(0, 5)
    assert len(calls) == 2 and (a.num, a.exp, b.exp) == (1, 1, 0)
    a + b, a - b, a * a, parse_dyadic("3/2^4")
    copy.deepcopy(a), pickle.loads(pickle.dumps(a))
    assert len(calls) == 8
    with pytest.raises(NegativeResult):
        Dyadic(-1, 0)
    assert len(calls) == 9
