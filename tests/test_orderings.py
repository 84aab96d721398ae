"""Each relation of the extended numbers is written once: ``Infinity``
defines ``__le__`` and ``ExtRational`` defines ``__lt__`` beside their
``__eq__``, and ``functools.total_ordering`` derives the other orderings.
The oracle here is a sort key: (0, the Fraction) for a finite value, (1, 0)
for the infinite one."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relaydof import model
from relaydof.model import INFINITY, ExtRational, Infinity, LayerSpec, topology_from_obj

from support import calls

ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def _written_here(cls):
    return {name for name, value in vars(cls).items() if getattr(value, "__module__", None) == model.__name__}


def test_infinity_writes_one_ordering():
    assert _written_here(Infinity) == {"__repr__", "__eq__", "__hash__", "__le__"}


def test_ext_rational_writes_one_ordering():
    written = _written_here(ExtRational)
    assert {"__eq__", "__lt__"} <= written
    assert not written & {"__le__", "__gt__", "__ge__"}


def test_layer_spec_validates_in_its_constructor():
    assert not hasattr(LayerSpec, "__post_init__")


def _key(value):
    if isinstance(value, ExtRational):
        return (0, value.as_fraction()) if value.is_finite else (1, 0)
    if isinstance(value, Infinity):
        return (1, 0)
    return (0, Fraction(value))


VALUES = [
    -2,
    0,
    1,
    True,
    Fraction(1, 3),
    Fraction(-5, 2),
    INFINITY,
    ExtRational(0),
    ExtRational(1),
    ExtRational(-5, 2),
    ExtRational(1, 3),
    ExtRational(INFINITY),
]


@pytest.mark.parametrize("op", ORDERINGS, ids=lambda op: op.__name__)
def test_mixed_orderings_agree_with_key_oracle(op):
    for a, b in itertools.product(VALUES, repeat=2):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            continue
        assert op(a, b) == op(_key(a), _key(b)), (op.__name__, a, b)


extended = st.one_of(
    st.just(INFINITY),
    st.integers(-50, 50),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=12).map(ExtRational),
    st.just(ExtRational(INFINITY)),
)


@given(extended, extended)
def test_orderings_agree_with_key_oracle(a, b):
    for op in ORDERINGS:
        assert op(a, b) == op(_key(a), _key(b))


def test_infinity_le_is_one_call(monkeypatch):
    compared = calls(monkeypatch, Infinity, "__le__")
    assert not operator.le(INFINITY, 1)
    assert compared == [(INFINITY, 1)]


@pytest.mark.parametrize("value", [1.5, "1", None, object()])
@pytest.mark.parametrize("extended_value", [INFINITY, ExtRational(1), ExtRational(INFINITY)])
def test_foreign_values_do_not_order(extended_value, value):
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(extended_value, value)
        with pytest.raises(TypeError):
            op(value, extended_value)
    assert extended_value != value and not extended_value == value


@pytest.mark.parametrize(
    "value, expected",
    [
        (ExtRational(0), ExtRational(INFINITY)),
        (ExtRational(INFINITY), ExtRational(0)),
        (ExtRational(4), ExtRational(1, 4)),
        (ExtRational(-2, 3), ExtRational(-3, 2)),
    ],
)
def test_reciprocal_is_division(value, expected):
    result = value.reciprocal()
    assert type(result) is ExtRational
    assert result == expected and result == ExtRational(1) / value


def test_min_max_of_mixed_sequences():
    values = [3, INFINITY, Fraction(1, 2), ExtRational(2)]
    assert min(values) == Fraction(1, 2)
    assert max(values) is INFINITY
    assert sorted([INFINITY, 2, ExtRational(1), Fraction(3, 2)]) == [ExtRational(1), Fraction(3, 2), 2, INFINITY]


def test_only_node_counts_share_a_spec():
    t = topology_from_obj(
        {"layers": [{"nodes": 2}, {"antennas": [1, 2]}, {"nodes": 2}, {"antennas": [1, 2]}, {"nodes": "inf"}, {"nodes": "inf"}]}
    )
    first, antennas, again, antennas_again, inf, inf_again = t.layers
    assert first is again and inf is inf_again
    assert antennas == antennas_again and antennas is not antennas_again
