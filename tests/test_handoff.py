"""The analysis core hands its sums over as integers, and every reported
value is one ``ExtRational`` built from two of them.

The two reciprocal sums of a chain are reduced (numerator, denominator)
int pairs, read as they are by the region checks, the scaling check and
schedule verification: no ``Fraction`` is made for them, and no
``ExtRational`` operator runs anywhere in the package's flows.  A demand
is read into int counts over one unit, and parsed, checked, scaled and
planned from them with no ``Fraction``.
"""

import json
import math
from fractions import Fraction

import pytest

from relaydof.analysis import (
    _reciprocal_sums,
    _topology_sums,
    absolute_and_fractional_gap,
    achievable_sum_dof,
    analyze,
    cutset_sum_dof,
    inverse_gap,
    report_to_obj,
)
from relaydof.model import INFINITY, DemandMatrix, ExtRational, LayerSpec, parse_demand
from relaydof.region import check_demand, max_uniform_scale
from relaydof.scaling import FAMILY_KINDS, FamilySpec, antenna_scale_check, classify, sweep_rows
from relaydof.schedule import integer_schedule, plan_to_dot, schedule_to_obj, verify_schedule

from support import calls, chain, fractions_built

_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "reciprocal",
)


@pytest.fixture
def no_arithmetic(monkeypatch):
    """Make every ``ExtRational`` operator raise; the names of those that ran, in order."""
    ran = []

    def refusing(name):
        def refuse(*args):
            ran.append(name)
            raise AssertionError(f"ExtRational.{name} ran")

        return refuse

    for name in _OPERATORS:
        monkeypatch.setattr(ExtRational, name, refusing(name))
    return ran


_ANTENNAS = chain([LayerSpec(antennas=(1, 2)), 4, 3, LayerSpec(antennas=(2, 1, 1))])
_FAMILIES = {
    "ProportionalFixedK": FamilySpec("ProportionalFixedK", base=(1, "1/2", 1)),
    "PinnedLayerFixedK": FamilySpec("PinnedLayerFixedK", base=(1, 1, 1), pinned=((1, 2),)),
    "FixedSizesGrowingK": FamilySpec("FixedSizesGrowingK", base=(2,)),
    "AntennaScaled": FamilySpec("AntennaScaled", topology=_ANTENNAS),
}


@pytest.mark.parametrize(
    "sizes",
    [[3, 4, 3, 2], [2, INFINITY, 5, 1, 6], [INFINITY, 3, INFINITY], [1, 7, 1], [10**40 + 1, 6, 10**40, 4]],
)
def test_analysis_runs_no_extrational_operator(no_arithmetic, sizes):
    report = analyze(chain(sizes))
    assert report_to_obj(report)["achievable"] == str(report.achievable)
    inverse_gap(sizes)
    absolute_and_fractional_gap(sizes)
    assert no_arithmetic == []


def test_region_and_antenna_scaling_run_no_extrational_operator(no_arithmetic):
    demand = DemandMatrix({(0, 0): Fraction(1, 7), (1, 1): Fraction(1, 9), (2, 0): Fraction(5, 3)})
    assert not check_demand(_ANTENNAS, demand).feasible
    assert max_uniform_scale(_ANTENNAS, demand).verdict.feasible
    base, scaled, ratio = antenna_scale_check(_ANTENNAS, 3)
    assert ratio.as_fraction() == scaled.as_fraction() / base.as_fraction()
    assert no_arithmetic == []


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_classification_runs_no_extrational_operator(no_arithmetic, kind):
    verdict = classify(_FAMILIES[kind])
    assert len(sweep_rows(verdict)) == len(verdict.samples)
    assert no_arithmetic == []


@pytest.mark.parametrize("demand", [None, DemandMatrix({(0, 0): Fraction(1, 30), (1, 2): Fraction(1, 50)})])
def test_schedules_run_no_extrational_operator(no_arithmetic, demand):
    s = integer_schedule(chain([3, 4, 2, 3]), demand)
    assert verify_schedule(s).ok
    schedule_to_obj(s)
    plan_to_dot(s.split_plan)
    assert no_arithmetic == []


def test_sums_build_no_fraction(monkeypatch):
    sizes = [3, 4, INFINITY, 3, 10**40 + 3, 2]
    t = chain(sizes)
    built = calls(monkeypatch, Fraction, "__new__")
    pairs = _reciprocal_sums(sizes)
    assert _topology_sums(t) == pairs
    assert built == []
    assert all(type(n) is type(d) is int and math.gcd(n, d) == 1 for n, d in pairs)
    monkeypatch.undo()
    expected = achievable_sum_dof(sizes), cutset_sum_dof(sizes)
    assert [Fraction(d, n) for n, d in pairs] == [v.as_fraction() for v in expected]


def test_the_demand_path_builds_no_fraction(monkeypatch):
    cells = [(1, 1), (3, 1), (2, 2), (1, 2), (3, 2), (2, 1)]
    # p/q literals, then decimal and exponent ones
    for literals in (["1/7", "5/3", "2", "0", "12/8", "1/9"], ["0.125", "5e-2", "1.5", "2E0", ".25", "-0e3"]):
        text = json.dumps({"demands": [{"dst": j, "src": i, "dof": v} for (j, i), v in zip(cells, literals)]})
        built = fractions_built(monkeypatch)
        demand = parse_demand(text)
        assert not check_demand(_ANTENNAS, demand).feasible
        result = max_uniform_scale(_ANTENNAS, demand)
        assert result.verdict.feasible and built == []
        # a schedule builds the Fractions its records hold, two per phase and
        # three totals, and none for its demand, uniform or given
        for t, d in ((_ANTENNAS, result.scaled), (_ANTENNAS, None), (chain([60, 4, 3, 50]), None)):
            built.clear()
            s = integer_schedule(t, d)
            assert len(built) == 2 * len(s.phases) + 3
        monkeypatch.undo()
        assert demand.entries == {(j - 1, i - 1): Fraction(v) for (j, i), v in zip(cells, literals) if Fraction(v)}
