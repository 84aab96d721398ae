"""A topology computes its two reciprocal sums once and every call shares them.

``analyze``, the region checks, a demand schedule and the base value of
``antenna_scale_check`` all read (sum of 1/alpha, sum of 1/beta) from the
topology's one lazily filled slot.  These tests count the uncached
``analysis._reciprocal_sums`` and hold every result, whatever the call
order, to a fresh topology's, the raw-size route's and the reference model's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof import analysis
from relaydof.analysis import AnalysisError, achievable_sum_dof, analyze, cutset_sum_dof
from relaydof.model import INFINITY, DemandError, DemandMatrix, Infinity, LayerSpec, NetworkTopology
from relaydof.region import check_demand, max_uniform_scale
from relaydof.scaling import antenna_scale_check
from relaydof.schedule import integer_schedule, recurrence_sum_dof

import reference
from support import layers, outcome


@pytest.fixture
def counted(monkeypatch):
    """The sizes of every ``_reciprocal_sums`` call, in order."""
    calls = []
    original = analysis._reciprocal_sums

    def counting(sizes):
        calls.append(list(sizes))
        return original(sizes)

    monkeypatch.setattr(analysis, "_reciprocal_sums", counting)
    return calls


def _filled(t: NetworkTopology) -> bool:
    return hasattr(t, "_sums")


def test_each_topology_computes_its_sums_once(counted):
    layers = (LayerSpec(antennas=(1, 2)), LayerSpec(nodes=4), LayerSpec(nodes=3), LayerSpec(nodes=2))
    t = NetworkTopology(layers)
    d = DemandMatrix({(0, 0): Fraction(1, 7), (1, 1): Fraction(1, 9)})
    analyze(t)
    check_demand(t, d)
    max_uniform_scale(t, d)
    integer_schedule(t, d)
    base, scaled, _ = antenna_scale_check(t, 2)
    sizes = list(t.effective_sizes())
    # the scaled chain is a raw-size call of its own, made every time
    assert counted == [sizes, [2 * s for s in sizes]]
    assert base == achievable_sum_dof(sizes) and scaled == achievable_sum_dof([2 * s for s in sizes])

    counted.clear()
    twin = NetworkTopology(layers)
    assert twin == t and not _filled(twin)
    assert analyze(twin) == analyze(t)
    assert counted == [sizes]


@st.composite
def chains(draw):
    """A chain with about 5% infinite and 10% antenna layers, and a sparse
    demand on its endpoints when both are finite."""
    specs = draw(st.lists(layers(), min_size=2, max_size=60))
    src, dst = specs[0], specs[-1]
    if src.is_infinite or dst.is_infinite:
        return specs, None
    keys = st.tuples(st.integers(0, dst.node_count - 1), st.integers(0, src.node_count - 1))
    value = st.builds(Fraction, st.integers(1, 20), st.integers(1, 20))
    return specs, DemandMatrix(draw(st.dictionaries(keys, value, min_size=1, max_size=6)))


def _results(topology, d: DemandMatrix | None, analyze_first: bool = True) -> dict:
    """Every topology-level result, analyze before or after the region
    checks; each call runs on the topology that ``topology()`` returns."""
    calls = [("analyze", analyze, ())]
    if d is not None:
        calls += [("check", check_demand, (d,)), ("scale", max_uniform_scale, (d,))]
    if not analyze_first:
        calls.append(calls.pop(0))
    if topology().is_finite:
        calls.append(("antenna", antenna_scale_check, (3,)))
    errors = (AnalysisError, DemandError, ArithmeticError)
    return {key: outcome(fn, topology(), *args, errors=errors) for key, fn, args in calls}


def _check_against_raw_sizes(specs, d, results):
    t = NetworkTopology(tuple(specs))
    sizes = t.effective_sizes()
    alpha, beta = achievable_sum_dof(list(sizes)), cutset_sum_dof(list(sizes))
    status, report = results["analyze"]
    if all(isinstance(s, Infinity) for s in sizes):
        assert status == "AnalysisError"
    else:
        assert status == "ok" and (report.achievable, report.cutset) == (alpha, beta)
    if t.is_finite:
        assert results["antenna"][1][0] == alpha
        if len(sizes) > 2:  # the schedule route needs a relay layer
            assert alpha == recurrence_sum_dof(list(sizes))
    if d is not None:
        assert results["check"] == ("ok", reference.verdict(t, d.entries))
        assert results["scale"][1].t_star == reference.t_star(t, d.entries)


def _check_case(specs, d):
    checked, analyzed = NetworkTopology(tuple(specs)), NetworkTopology(tuple(specs))
    checked_first = _results(lambda: checked, d, analyze_first=False)
    assert checked_first == _results(lambda: analyzed, d) == _results(lambda: NetworkTopology(tuple(specs)), d)
    _check_against_raw_sizes(specs, d, checked_first)


@settings(deadline=None, max_examples=60)
@given(chains())
def test_results_do_not_depend_on_call_order(case):
    _check_case(*case)


def test_long_chain_matches_the_raw_size_route():
    sizes = [INFINITY if k % 97 == 0 else 1 + (k * k) % 64 for k in range(1, 4001)]
    _check_case([LayerSpec(nodes=s) for s in sizes], DemandMatrix({(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 5)}))


def test_a_call_that_raises_stores_nothing(counted):
    unbounded = NetworkTopology((LayerSpec(nodes=INFINITY),) * 3)
    for _ in range(2):
        with pytest.raises(AnalysisError, match="all layers infinite"):
            analyze(unbounded)
    assert not _filled(unbounded)

    t = NetworkTopology((LayerSpec(nodes=2), LayerSpec(nodes=3), LayerSpec(nodes=2)))
    outside = DemandMatrix({(5, 0): Fraction(1)})
    for _ in range(2):
        with pytest.raises(DemandError, match="destination index out of range"):
            check_demand(t, outside)
    assert not _filled(t) and counted == []
    check_demand(t, DemandMatrix({(0, 0): Fraction(1)}))
    assert _filled(t) and counted == [[2, 3, 2]]
