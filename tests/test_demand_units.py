"""A demand matrix stores its values as int counts over one unit, in lowest
terms.  Under hypothesis, a parsed demand reads as the reference model's
plain ``Fraction`` demand: its entries, sums and scaled copies, and its
antenna spread; it rebuilds from its entries and survives pickling; and
its stored form stays in lowest terms after ``scale`` and the spread.  The
parser's direct ``p``/``p/q`` reader gives what ``Fraction``'s reader gives."""

import math
import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from relaydof.model import DemandMatrix, DocumentError, ExtRational, demand_from_obj, topology_from_obj
from relaydof.schedule import _virtualize_demand

import reference
from support import SCHEDULE_TOPOLOGIES, demands, outcome


def _in_lowest_terms(d: DemandMatrix):
    counts = list(d.counts.values())
    assert type(d.unit) is int and d.unit >= 1 and all(type(c) is int and c for c in counts)
    assert math.gcd(d.unit, *counts) == 1


def _sums(entries: dict, by: int) -> dict:
    """The Fraction sums of a demand by destination (``by`` 0) or source (1)."""
    sums = {}
    for key, v in entries.items():
        sums[key[by]] = sums.get(key[by], 0) + v
    return sums


@settings(max_examples=200, deadline=None)
@given(st.data(), st.fractions(-3, 3, max_denominator=12))
def test_the_int_form_reads_as_the_fraction_demand(data, factor):
    topology = data.draw(SCHEDULE_TOPOLOGIES)
    obj = data.draw(demands(topology))
    d, plain = demand_from_obj(obj), reference.reference_demand(obj)
    _in_lowest_terms(d)
    assert d.entries == plain and all(type(v) is Fraction for v in d.entries.values())
    unit, rows, cols = d.unit_sums()
    assert unit == d.unit == math.lcm(*(v.denominator for v in plain.values()))
    assert {i: Fraction(c, unit) for i, c in rows.items()} == _sums(plain, 1)
    assert {j: Fraction(c, unit) for j, c in cols.items()} == _sums(plain, 0)
    assert d.total == sum(plain.values(), Fraction(0))
    assert [d.row_sum(k) for k in range(9)] == [_sums(plain, 1).get(k, 0) for k in range(9)]
    assert [d.col_sum(k) for k in range(9)] == [_sums(plain, 0).get(k, 0) for k in range(9)]
    assert d.is_zero == (not plain)

    scaled = d.scale(factor)
    _in_lowest_terms(scaled)
    assert scaled.entries == {key: v * factor for key, v in plain.items() if factor}
    assert d.scale(ExtRational(factor)) == scaled == d.scale(str(factor))

    assert DemandMatrix(d.entries) == d == DemandMatrix(plain)
    for clone in (pickle.loads(pickle.dumps(d, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)):
        assert type(clone) is DemandMatrix and clone == d and repr(clone) == repr(d)

    t = topology_from_obj(topology)
    virtual = _virtualize_demand(t, d)
    _in_lowest_terms(virtual)
    assert virtual.entries == reference.virtual_demand(t, plain)


def _one(value):
    return {"demands": [{"dst": 1, "src": 1, "dof": value}]}


def _agree(value: str):
    read = outcome(lambda v: dict(demand_from_obj(_one(v)).entries), value, errors=DocumentError)
    want = outcome(lambda v: {key: x for key, x in {(0, 0): reference.reference_exact(v)}.items() if x}, value,
                   errors=DocumentError)
    assert read == want


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/", max_size=12) | st.from_regex(r"[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
def test_digit_literals_read_as_fractions_reader_reads_them(value):
    _agree(value)


def test_digit_literals_past_the_int_string_limit_are_bad_literals():
    for value in ("1" * 4301 + "/4", "4/" + "1" * 4301, "1" * 4300 + "/4", "3/0", "٣/4", "0/0"):
        _agree(value)
