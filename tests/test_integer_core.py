"""The integer route of the exact core: each reported value is built once,
from integers, and the per-hop loops it replaced are the reference model's.

``reference.gap_bounds`` reads both bounds of ``inverse_gap`` off the hops
by their definition.  The counting tests pin how many ``Fraction`` and
``ExtRational`` values the region check and the scale build, so a return to
per-constraint rationals shows as a failure.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.analysis import analyze, inverse_gap
from relaydof.model import INFINITY, DemandMatrix, ExtRational, parse_demand
from relaydof.region import check_demand, max_uniform_scale
from relaydof.scaling import parse_family

import reference
from support import calls, chain


# -- model ----------------------------------------------------------------------


def test_extrational_keeps_an_exact_fraction():
    value = Fraction(6, 4)
    assert ExtRational(value).as_fraction() is value
    assert ExtRational(6, 4).as_fraction() == Fraction(3, 2)
    assert ExtRational(value, 3).as_fraction() == Fraction(1, 2)
    with pytest.raises(TypeError):
        ExtRational("1/2", 3)


def test_documents_read_rationals_without_extrationals(monkeypatch):
    built = calls(monkeypatch, ExtRational, "__init__")
    demand = parse_demand('{"demands":[{"dst":1,"src":1,"dof":"1/2"},{"dst":2,"src":1,"dof":"0.25"}]}')
    family = parse_family('{"kind":"ProportionalFixedK","base":["1/2","3e0",2]}')
    assert len(built) == 0
    assert demand.entries == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4)}
    assert family.base == (Fraction(1, 2), Fraction(3), Fraction(2))


# -- inverse_gap ------------------------------------------------------------------


_size = st.one_of(st.integers(1, 64), st.just(INFINITY), st.integers(0, 9).map(lambda k: 10**40 + k))


@settings(deadline=None)
@given(st.lists(_size, min_size=2, max_size=60))
def test_bound1_matches_the_per_hop_loop(sizes):
    exact, bound1, bound2 = inverse_gap(sizes)
    assert bound1 == reference.gap_bounds(sizes)[0]
    assert exact <= bound1 <= bound2


@settings(deadline=None)
@given(st.lists(_size, min_size=2, max_size=60))
def test_bound2_matches_its_oracle(sizes):
    assert inverse_gap(sizes)[2].as_fraction() == reference.gap_bounds(sizes)[1]


def test_bound1_builds_few_extrationals(monkeypatch):
    sizes = [INFINITY if k % 97 == 0 else 1 + (k * k) % 64 for k in range(1, 4001)]
    expected = reference.gap_bounds(sizes)[0]
    built = calls(monkeypatch, ExtRational, "__init__")
    assert inverse_gap(sizes)[1] == expected
    assert len(built) < 10


# -- region -----------------------------------------------------------------------


def test_feasible_dense_check_builds_no_fraction(monkeypatch):
    t = chain([16, 7, 16])
    analyze(t)  # fills the topology's sums
    # alpha = 28/11 of [16, 7, 16]; every row and column sums to 2/15 < 7/44
    d = DemandMatrix({(j, i): Fraction(1, 120) for j in range(16) for i in range(16)})
    built = calls(monkeypatch, Fraction, "__new__")
    verdict = check_demand(t, d)
    assert len(built) == 0
    assert verdict.feasible and not verdict.binding


def test_infeasible_check_builds_two_fractions_per_violation(monkeypatch):
    t = chain([16, 7, 16])
    analyze(t)
    d = DemandMatrix({(j, i): Fraction(1, 2 + (i + j) % 5) for j in range(16) for i in range(16)})
    built = calls(monkeypatch, Fraction, "__new__")
    verdict = check_demand(t, d)
    assert len(verdict.violations) == 33  # the total, and every row and column
    assert len(built) <= 2 * len(verdict.violations)


def test_scale_builds_t_star_once_plus_one_value_per_entry(monkeypatch):
    t = chain([16, 7, 16])
    analyze(t)
    d = DemandMatrix({(j, i): Fraction(1, 1 + (3 * i + j) % 7) for j in range(16) for i in range(16)})
    built = calls(monkeypatch, Fraction, "__new__")
    result = max_uniform_scale(t, d)
    assert len(built) <= 1 + len(d.entries)
    assert result.verdict.feasible and result.verdict.binding
