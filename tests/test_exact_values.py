"""Every library value that becomes a Fraction is read by one rule: an int
(not a bool), a Fraction, an ``ExtRational``, ``INFINITY`` or a rational
literal read as the documents read it.  A float, a bool, a padded literal
or any other value raises instead of being stored.  The probe table runs
each value through the four places that take one: the ``ExtRational``
constructor, a ``DemandMatrix`` value, ``DemandMatrix.scale`` and a
``FamilySpec`` base entry; an infinite value is an error in all but the
first."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relaydof
from relaydof.model import (
    INFINITY,
    DemandError,
    DemandMatrix,
    DocumentError,
    ExtRational,
    LayerSpec,
    NetworkTopology,
    TopologyError,
    scale_antennas,
)
from relaydof.scaling import FamilyError, FamilySpec, antenna_scale_check, evaluate_family


def _extended(value):
    read = ExtRational(value)
    return read.as_fraction() if read.is_finite else INFINITY


# each route returns the Fraction it stored for a value (inf for ExtRational)
ROUTES = {
    "ExtRational": _extended,
    "demand value": lambda value: DemandMatrix({(0, 0): value}).entries[(0, 0)],
    "scale": lambda value: DemandMatrix({(0, 0): Fraction(1)}).scale(value).entries[(0, 0)],
    "family base": lambda value: FamilySpec("ProportionalFixedK", base=(value, 1)).base[0],
}

# what each route but ExtRational raises for an infinite value
INFINITE = {
    "demand value": (DemandError, "demand entry (dst 1, src 1) must be finite"),
    "scale": (ArithmeticError, "infinite value has no Fraction form"),
    "family base": (FamilyError, "base profile entries must be finite"),
}

# (value, the Fraction it reads as, INFINITY, or the error it raises)
PROBES = [
    (3, Fraction(3)),
    (Fraction(2, 3), Fraction(2, 3)),
    (ExtRational(5, 4), Fraction(5, 4)),
    (ExtRational(INFINITY), INFINITY),
    (INFINITY, INFINITY),
    ("2/3", Fraction(2, 3)),
    ("inf", INFINITY),
    (" 1/3", (DocumentError, "bad rational literal ' 1/3'")),
    ("1_0", (DocumentError, "bad rational literal '1_0'")),
    (0.1, (TypeError, "expected an exact number, got 0.1")),
    (True, (TypeError, "expected an exact number, got True")),
    (None, (TypeError, "expected an exact number, got None")),
]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("value, expected", PROBES, ids=[repr(value) for value, _ in PROBES])
def test_probe(route, value, expected):
    read = ROUTES[route]
    if expected is INFINITY and route in INFINITE:
        expected = INFINITE[route]
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read(value)
        return
    result = read(value)
    assert result == expected
    assert type(result) is type(expected)


# Fraction builds 10**|e| for an exponent e: at the int-string limit's bound
# each of these calls reads its literal as bad at once, and without it runs
# for minutes
HUGE_EXPONENTS = [
    ('DemandMatrix({(0, 0): "1e-20000000"})', "1e-20000000"),
    ('DemandMatrix({(0, 0): Fraction(1, 3)}).scale("1e20000000")', "1e20000000"),
    ('FamilySpec("ProportionalFixedK", base=("1e20000000", 1))', "1e20000000"),
]


@pytest.mark.parametrize("call, literal", HUGE_EXPONENTS)
def test_huge_exponent_is_a_bad_literal_at_once(call, literal):
    src = str(Path(relaydof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import time\n"
        "from fractions import Fraction\n"
        "from relaydof.model import DemandMatrix, DocumentError\n"
        "from relaydof.scaling import FamilySpec\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    {call}\n"
        "except DocumentError as exc:\n"
        "    print(time.perf_counter() - start, exc, sep='\\n')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=30
    )
    seconds, message = out.stdout.splitlines()
    assert float(seconds) < 1
    assert message == f"bad rational literal {literal!r}"


# -- mixed forms read as the all-Fraction input ---------------------------------------

_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def _forms(draw, values):
    """Each value as a Fraction, an int when whole, a literal or an ExtRational."""
    forms = []
    for value in values:
        choices = [value, str(value), ExtRational(value), ExtRational(str(value))]
        if value.denominator == 1:
            choices.append(value.numerator)
        forms.append(draw(st.sampled_from(choices)))
    return forms


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(_fractions, min_size=1, max_size=6), _fractions)
def test_mixed_forms_read_as_fractions(data, values, factor):
    forms = data.draw(_forms(values))
    (factor_form,) = data.draw(_forms([factor]))
    keys = [(k, k + 1) for k in range(len(values))]
    exact = DemandMatrix(dict(zip(keys, values)))
    mixed = DemandMatrix(dict(zip(keys, forms)))
    assert mixed == exact
    assert all(type(v) is Fraction for v in mixed.entries.values())
    assert mixed.scale(factor_form) == exact.scale(factor)
    assert [ExtRational(form) for form in forms] == [ExtRational(value) for value in values]
    positive = [abs(value) + 1 for value in values] + [Fraction(1)]
    assert FamilySpec("ProportionalFixedK", base=tuple(data.draw(_forms(positive)))) == FamilySpec(
        "ProportionalFixedK", base=tuple(positive)
    )


# -- counts: an int, not a bool or a float ------------------------------------------

CHAIN = NetworkTopology((LayerSpec(nodes=2), LayerSpec(nodes=3), LayerSpec(nodes=2)))


@pytest.mark.parametrize("route", [scale_antennas, antenna_scale_check])
@pytest.mark.parametrize("factor", [True, 2.0])
def test_antenna_scale_factor_is_an_int(route, factor):
    message = f"antenna scale factor must be a positive integer, got {factor!r}"
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        route(CHAIN, factor)


@pytest.mark.parametrize(
    "pinned, message",
    [
        (((1, 2.5),), "pinned size of layer 1 must be an integer, got 2.5"),
        (((1, True),), "pinned size of layer 1 must be an integer, got True"),
        (((True, 2),), "'pinned' key True is not a layer index"),
        (((1.0, 2),), "'pinned' key 1.0 is not a layer index"),
    ],
)
def test_pinned_layers_are_ints(pinned, message):
    with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
        FamilySpec("PinnedLayerFixedK", base=(1, 1, 1), pinned=pinned)


@pytest.mark.parametrize("n", [2.5, True, 16.0])
def test_family_parameter_is_an_int(n):
    family = FamilySpec("FixedSizesGrowingK", base=(2,))
    with pytest.raises(FamilyError, match=f"^{re.escape(f'family parameter must be an integer, got {n!r}')}$"):
        evaluate_family(family, n)
