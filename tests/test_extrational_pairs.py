"""``ExtRational`` keeps a finite value as a reduced int pair with a positive
denominator, and reads as the ``Fraction`` of that pair wherever it is
compared, hashed, converted, printed, copied or pickled."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.model import INFINITY, ExtRational

BIG = 10**600
_ints = st.one_of(st.integers(-1000, 1000), st.integers(-BIG, BIG))
_pairs = st.tuples(_ints, _ints.filter(bool))


def _float(x):
    """float(x), or the type of what it raises: a 600-digit quotient overflows."""
    try:
        return float(x)
    except OverflowError as exc:
        return type(exc)


@settings(deadline=None)
@given(_pairs)
def test_the_pair_is_reduced_with_a_positive_denominator(pair):
    value, reference = ExtRational(*pair), Fraction(*pair)
    assert (value.numerator, value.denominator) == (reference.numerator, reference.denominator)
    assert value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1


@settings(deadline=None)
@given(_pairs)
def test_a_value_reads_as_its_fraction(pair):
    value, reference = ExtRational(*pair), Fraction(*pair)
    assert str(value) == str(reference)
    assert repr(value) == f"ExtRational({str(reference)!r})"
    assert hash(value) == hash(reference)
    assert _float(value) == _float(reference)
    assert bool(value) == bool(reference)
    assert value == reference and reference == value
    assert value.as_fraction() == reference


@settings(deadline=None)
@given(_pairs, _pairs)
def test_two_values_compare_as_their_fractions(a, b):
    x, y = ExtRational(*a), ExtRational(*b)
    fx, fy = Fraction(*a), Fraction(*b)
    assert (x == y) == (fx == fy)
    assert (x < y) == (fx < fy)
    assert (x <= y) == (fx <= fy)
    assert (x < fy) == (fx < fy)
    assert (x == fy) == (fx == fy)
    assert (x < INFINITY) and (x < ExtRational(INFINITY)) and not (ExtRational(INFINITY) < x)


def test_the_infinite_value_reads_as_inf():
    inf = ExtRational(INFINITY)
    assert not inf.is_finite and inf == INFINITY and inf == ExtRational("inf")
    assert str(inf) == "inf" and repr(inf) == "ExtRational('inf')"
    assert hash(inf) == hash(float("inf")) and float(inf) == float("inf") and inf
    with pytest.raises(ArithmeticError, match="no Fraction form"):
        inf.as_fraction()
    with pytest.raises(ArithmeticError, match="no Fraction form"):
        inf.numerator


@pytest.mark.parametrize(
    "value",
    [
        ExtRational(6, -4),
        ExtRational(0, -5),
        ExtRational(-BIG - 1, 3 * BIG),
        ExtRational(Fraction(7, 9)),
        ExtRational("1e-3"),
        ExtRational(12),
        ExtRational(INFINITY),
    ],
    ids=["negative", "zero", "600 digits", "from a Fraction", "from a literal", "int", "inf"],
)
def test_copy_and_pickle_round_trip(value):
    for _ in range(2):  # before and after the value's text and Fraction are made
        for other in (
            copy.copy(value),
            copy.deepcopy(value),
            *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(other) is ExtRational
            assert other == value and str(other) == str(value) and hash(other) == hash(value)
            assert other.is_finite == value.is_finite
        str(value), hash(value)


def test_a_zero_denominator_raises_as_fraction_does():
    for numerator in (1, 0, -3):
        with pytest.raises(ZeroDivisionError) as expected:
            Fraction(numerator, 0)
        with pytest.raises(ZeroDivisionError) as raised:
            ExtRational(numerator, 0)
        assert str(raised.value) == str(expected.value)
