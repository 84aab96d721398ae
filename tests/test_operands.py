"""How every ``ExtRational`` operator reads its operand: an int, a Fraction,
``INFINITY`` or another ``ExtRational`` is a value, and any other type is
``NotImplemented``, so arithmetic with it raises ``TypeError`` and equality
with it is False.  The table pins each operator's value, reflected forms
included; ``!`` marks an ``ArithmeticError``."""

import operator
from fractions import Fraction

import pytest

from relaydof.model import INFINITY, ExtRational

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("value", [1.5, "1", None, object()])
@pytest.mark.parametrize("extended_value", [ExtRational(1), ExtRational(INFINITY)])
def test_foreign_operands_are_not_implemented(extended_value, value):
    for op in ARITHMETIC:
        with pytest.raises(TypeError):
            op(extended_value, value)
        with pytest.raises(TypeError):
            op(value, extended_value)
    assert not extended_value == value and not value == extended_value
    assert extended_value != value and value != extended_value


# (x, y, "x+y y+x x-y y-x x*y y*x x/y y/x")
TABLE = [
    (ExtRational(1), 0, "1 1 1 -1 0 0 inf 0"),
    (ExtRational(1), 3, "4 4 -2 2 3 3 1/3 3"),
    (ExtRational(1), Fraction(2, 3), "5/3 5/3 1/3 -1/3 2/3 2/3 3/2 2/3"),
    (ExtRational(1), INFINITY, "inf inf ! inf inf inf 0 inf"),
    (ExtRational(-1, 2), 0, "-1/2 -1/2 -1/2 1/2 0 0 inf 0"),
    (ExtRational(-1, 2), 3, "5/2 5/2 -7/2 7/2 -3/2 -3/2 -1/6 -6"),
    (ExtRational(-1, 2), Fraction(2, 3), "1/6 1/6 -7/6 7/6 -1/3 -1/3 -3/4 -4/3"),
    (ExtRational(-1, 2), INFINITY, "inf inf ! inf ! ! 0 !"),
    (ExtRational(0), 0, "0 0 0 0 0 0 ! !"),
    (ExtRational(0), 3, "3 3 -3 3 0 0 0 inf"),
    (ExtRational(0), Fraction(2, 3), "2/3 2/3 -2/3 2/3 0 0 0 inf"),
    (ExtRational(0), INFINITY, "inf inf ! inf ! ! 0 inf"),
    (ExtRational(INFINITY), 0, "inf inf inf ! ! ! inf 0"),
    (ExtRational(INFINITY), 3, "inf inf inf ! inf inf inf 0"),
    (ExtRational(INFINITY), Fraction(2, 3), "inf inf inf ! inf inf inf 0"),
    (ExtRational(INFINITY), INFINITY, "inf inf ! ! inf inf ! !"),
]


def _results(x, y):
    texts = []
    for op in ARITHMETIC:
        for a, b in ((x, y), (y, x)):
            try:
                result = op(a, b)
            except ArithmeticError:
                texts.append("!")
                continue
            assert type(result) is ExtRational
            texts.append(str(result))
    return " ".join(texts)


@pytest.mark.parametrize("x, y, expected", TABLE)
def test_operators_with_plain_operands(x, y, expected):
    assert _results(x, y) == expected


@pytest.mark.parametrize("x, y, expected", TABLE)
def test_an_extended_operand_acts_as_its_value(x, y, expected):
    assert _results(x, ExtRational(y)) == expected


def test_a_bool_is_an_int():
    assert ExtRational(1) + True == 2 and True - ExtRational(1) == 0
    assert ExtRational(INFINITY) * True == INFINITY
