"""``model._exact`` reads a literal into ints, as ``Fraction``'s own reader
values it, within the document rules: literal characters only, and each
digit run and the exponent within the int-string limit.  On any string of
literal characters it gives the reference model's ``Fraction`` or the same
``DocumentError`` text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.model import _LITERAL_CHARS, DocumentError, _exact, _pair

import reference
from support import outcome


def _agree(value: str):
    read = outcome(_exact, value, errors=DocumentError)
    assert read == outcome(reference.reference_exact, value, errors=DocumentError)
    assert read[0] != "ok" or type(read[1]) is Fraction
    # the int pair it reads is the Fraction's own, so reduced
    assert read[0] != "ok" or _pair(value) == (read[1].numerator, read[1].denominator)


CASES = [
    "+3/4",
    "-3/4",
    "03/4",
    "3/0",
    "/4",
    "4/",
    "1e5",
    "1e-20000000",
    "1" * 4301 + "/4",
    "4/" + "1" * 4301,
    "1" * 4300 + "/4",
    "٣/4",  # ARABIC-INDIC DIGIT THREE
    "3 /4",
    "3_0/4",
    "3/4/5",
    "0/7",
    "00",
    "",
    "/",
    # the int-string limit holds each digit run, not the literal, and the exponent
    "1" * 4300 + "." + "1" * 4300,
    "1" * 4301 + ".5",
    "." + "1" * 4301,
    "1e4301",
    # a sign, a point and an exponent at the grammar's edges
    "1.e5",
    "+.5",
    ".e5",
    "1e",
    "1e+",
    "-",
    "+-1",
    "1/2e3",
    "1.5/2",
]


# a long literal is named by its length, and by its point and digit count when it starts with a point
IDS = [c if len(c) < 20 else f"{len(c)} chars" if c[0] != "." else f".{len(c) - 1} digits" for c in CASES]


@pytest.mark.parametrize("value", CASES, ids=IDS)
def test_the_reader_matches_fractions_reader(value):
    _agree(value)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=sorted(_LITERAL_CHARS), max_size=12))
def test_any_literal_characters_read_as_fractions_reader_reads_them(value):
    _agree(value)


@settings(deadline=None)
@given(st.from_regex(r"[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
def test_plain_fractions_read_as_fractions_reader_reads_them(value):
    _agree(value)


@settings(deadline=None)
@given(st.from_regex(r"[+-]?([0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{0,4})?|[0-9]{0,20}/[0-9]{0,20})", fullmatch=True))
def test_signed_decimals_and_exponents_read_as_fractions_reader_reads_them(value):
    _agree(value)
