"""``model._exact`` reads a plain ``p`` or ``p/q`` literal as two ints, and
every other literal with ``Fraction``'s own reader.  The reader it shortcuts
stays here as the oracle: on any string of literal characters the two give
the same ``Fraction`` or the same ``DocumentError`` text."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.model import _LITERAL_CHARS, DocumentError, _exact


def reference_exact(value: str) -> Fraction:
    """The literal reader before the int-pair shortcut: Fraction reads every literal."""
    try:
        if not _LITERAL_CHARS.issuperset(value):
            raise ValueError(value)
        exponent = value.lower().partition("e")[2]
        if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational literal {value!r}") from exc


def outcome(read, value: str):
    """("value", Fraction) or ("error", its text), from one reader."""
    try:
        result = read(value)
    except DocumentError as exc:
        return "error", str(exc)
    assert type(result) is Fraction
    return "value", result


def _agree(value: str):
    assert outcome(_exact, value) == outcome(reference_exact, value)


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
]


@pytest.mark.parametrize("value", CASES, ids=[c if len(c) < 20 else f"{len(c)} chars" for c in CASES])
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
