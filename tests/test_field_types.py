"""``verify_schedule`` reports a field of the wrong type instead of raising:
a field its checks cannot read, a number that is not an int or a Fraction
(True == 1, 8.0 == 8), a plan unit that is not a positive int and a stored
count or row index that is not an int fail all four checks, in order, with
one detail."""

from fractions import Fraction

import pytest

from relaydof.model import DemandMatrix, LayerSpec, NetworkTopology
from relaydof.schedule import integer_schedule, verify_schedule

from support import chain, put, replace, with_plan

CHECKS = ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]


def _schedule():
    return integer_schedule(chain([2, 3, 2]))


def _phase0(s, **changes):
    return replace(s, phases=(replace(s.phases[0], **changes), *s.phases[1:]))


def _per_pair0(s, value):
    return with_plan(s, per_pair=(value, *s.split_plan.per_pair[1:]))


def _row0(s, field, at, value):
    """The schedule with item ``at`` of the first row of a plan field set to ``value``."""
    rows = getattr(s.split_plan, field)
    return with_plan(s, **{field: put(rows, 0, put(rows[0], at, value))})


def _zeroed(s):
    plan = s.split_plan
    sinks = tuple((j, tuple((i, 0) for i, _ in received), 0) for j, received, _ in plan.sinks)
    return with_plan(s, unit=0, sources=tuple((j, i, 0) for j, i, _ in plan.sources), sinks=sinks)


BAD = [None, 4.0, "4"]
CASES = [
    *((f"block_length={v!r}", lambda s, v=v: _phase0(s, block_length=v)) for v in BAD),
    *((f"total_delay={v!r}", lambda s, v=v: replace(s, total_delay=v)) for v in (None, "4")),
    *((f"sum_dof={v!r}", lambda s, v=v: replace(s, sum_dof=v)) for v in (None, 4.0)),
    *((f"plan.total_bits={v!r}", lambda s, v=v: with_plan(s, total_bits=v)) for v in BAD),
    *((f"plan.padding_bits={v!r}", lambda s, v=v: with_plan(s, padding_bits=v)) for v in BAD),
    *((f"per_pair[0]={v!r}", lambda s, v=v: _per_pair0(s, v)) for v in BAD),
    *((f"sources[0].dst={v!r}", lambda s, v=v: _row0(s, "sources", 0, v)) for v in (None, "4")),
    # records and containers that are not what they should be
    ("phases=None", lambda s: replace(s, phases=None)),
    ("phases[0]=None", lambda s: replace(s, phases=(None, *s.phases[1:]))),
    ("split_plan=None", lambda s: replace(s, split_plan=None)),
    ("demand=None", lambda s: with_plan(s, demand=None)),
    ("sources=None", lambda s: with_plan(s, sources=None)),
    ("sinks=None", lambda s: with_plan(s, sinks=None)),
    # plan rows one item short or one too long
    ("sources[0]=(0, 0)", lambda s: with_plan(s, sources=((0, 0), *s.split_plan.sources[1:]))),
    ("sources[0]=(0, 0, 1, 1)", lambda s: with_plan(s, sources=((0, 0, 1, 1), *s.split_plan.sources[1:]))),
    ("paddings=((0,),)", lambda s: with_plan(s, paddings=((0,),))),
    ("sinks[0]=(0, ())", lambda s: with_plan(s, sinks=((0, ()), *s.split_plan.sinks[1:]))),
    ("received entry not a pair", lambda s: _row0(s, "sinks", 1, ((0,),))),
    # a unit that is not positive, also with every count 0, as a check that
    # read the unit only to scale the counts would pass
    *((f"unit={v!r}", lambda s, v=v: with_plan(s, unit=v)) for v in (0, -1)),
    ("unit=0 and every count 0", _zeroed),
]
# both shares are 1 on this schedule, so a bool would pass every check
BOOLS = [
    ("per_pair_bits=True", lambda s: _phase0(s, per_pair_bits=True), "phases[0].per_pair_bits"),
    ("per_pair[0]=True", lambda s: _per_pair0(s, True), "split_plan.per_pair[0]"),
]


def _phase(s, k, **changes):
    return replace(s, phases=tuple(replace(p, **changes) if i == k else p for i, p in enumerate(s.phases)))


def _number_fields():
    """(name, tamper, value) of each number under the rule on ``_schedule()``;
    ``tamper(s, v)`` sets the field to v.  A tx_count and the last phase's
    rx_count are phase sizes, whose own check reports them first."""
    s = _schedule()
    for k, p in enumerate(s.phases):
        for name in ("hop", "rx_count", "block_length", "per_pair_dof", "per_pair_bits"):
            if (name, k) != ("rx_count", len(s.phases) - 1):
                yield f"phases[{k}].{name}", lambda s, v, k=k, name=name: _phase(s, k, **{name: v}), getattr(p, name)
    for k, share in enumerate(s.split_plan.per_pair):
        yield f"split_plan.per_pair[{k}]", lambda s, v, k=k: with_plan(s, per_pair=put(s.split_plan.per_pair, k, v)), share
    for name in ("total_delay", "total_bits", "sum_dof"):
        yield name, lambda s, v, name=name: replace(s, **{name: v}), getattr(s, name)
    for name in ("total_bits", "padding_bits", "bits_per_dof"):
        yield f"split_plan.{name}", lambda s, v, name=name: with_plan(s, **{name: v}), getattr(s.split_plan, name)


# The number rule: every number the checks compare with ==, but the per-node
# counts, is an int or a Fraction.  Each field gets a float and a bool, of
# its value where one exists (0.25 == 1/4, False == 0), so only the rule can
# fail them.
NUMBER_CASES = [
    (f"{name}={bad!r}", tamper, bad, name)
    for name, tamper, value in _number_fields()
    for bad in (float(value), bool(value) if value in (0, 1) else True)
]


def _fails_every_check(report):
    assert [c.name for c in report.checks] == CHECKS
    assert not any(c.passed for c in report.checks)
    assert {c.detail for c in report.checks} == {report.checks[0].detail}
    return report.checks[0].detail


@pytest.mark.parametrize("tamper", [case[1] for case in CASES], ids=[case[0] for case in CASES])
def test_an_unreadable_field_fails_every_check(tamper):
    detail = _fails_every_check(verify_schedule(tamper(_schedule())))
    assert detail.startswith(("TypeError: ", "AttributeError: ", "ValueError: "))


@pytest.mark.parametrize("tamper, field", [case[1:] for case in BOOLS], ids=[case[0] for case in BOOLS])
def test_a_bool_share_fails_every_check(tamper, field):
    detail = _fails_every_check(verify_schedule(tamper(_schedule())))
    assert detail == f"TypeError: {field} must be an int or a Fraction, got True"


@pytest.mark.parametrize("tamper, value, field", [case[1:] for case in NUMBER_CASES], ids=[case[0] for case in NUMBER_CASES])
def test_a_number_that_is_not_an_int_or_a_fraction_fails_every_check(tamper, value, field):
    detail = _fails_every_check(verify_schedule(tamper(_schedule(), value)))
    assert detail == f"TypeError: {field} must be an int or a Fraction, got {value!r}"


@pytest.mark.parametrize("k, value", [(0, 2.0), (1, 3.0), (0, True)])
def test_a_phase_size_that_is_not_an_int_is_reported_as_a_size(k, value):
    s = _schedule()
    sizes = [2, 3, 2]
    sizes[k] = value
    detail = _fails_every_check(verify_schedule(_phase(s, k, tx_count=value)))
    assert detail.startswith(f"phase sizes {sizes}: ") and detail.endswith(f", got {value!r}")


def test_the_first_number_that_breaks_the_rule_is_named():
    s = replace(_phase(_schedule(), 1, hop=True), total_delay=8.0)
    detail = _fails_every_check(verify_schedule(s))
    assert detail == "TypeError: phases[1].hop must be an int or a Fraction, got True"


def test_the_detail_is_the_read_error():
    report = verify_schedule(with_plan(_schedule(), sources=((0, 0),)))
    assert report.checks[0].detail == "ValueError: not enough values to unpack (expected 3, got 2)"



def test_ints_and_fractions_of_the_right_value_pass():
    s = _schedule()
    assert s.split_plan.per_pair[0] == 1 and s.phases[0].per_pair_bits == 1
    for tampered in (
        _per_pair0(s, 1),
        _phase0(s, per_pair_bits=1),
        with_plan(s, total_bits=Fraction(s.split_plan.total_bits)),
        replace(s, sum_dof=Fraction(s.sum_dof)),
    ):
        assert verify_schedule(tampered).ok


class Count(int):
    pass


def test_a_schedule_over_int_subclass_sizes_verifies():
    # LayerSpec takes any int but bool, and the plan keeps the size as given
    t = NetworkTopology((LayerSpec(nodes=2), LayerSpec(nodes=Count(3)), LayerSpec(nodes=2)))
    s = integer_schedule(t)
    assert type(s.phases[0].rx_count) is Count
    assert verify_schedule(s).ok
    assert verify_schedule(_per_pair0(s, Count(1))).ok


def test_bad_sizes_are_reported_before_field_types():
    s = _schedule()
    report = verify_schedule(_phase0(s, tx_count=0, block_length=None))
    assert report.checks[0].detail.startswith("phase sizes [0, 3, 2]:")

# The count rule: the plan's unit is a positive int, and every stored count and
# row index an int.  Each gets None, a float, a bool and a Fraction of its value where one
# exists (True == 1 otherwise), so only the rule can fail the last three.
_PLAN = _schedule().split_plan
_STORED = [
    ("split_plan.unit", lambda s, v: with_plan(s, unit=v), _PLAN.unit),
    ("split_plan.sources[0] count", lambda s, v: _row0(s, "sources", 2, v), _PLAN.sources[0][2]),
    ("split_plan.paddings[0] count", lambda s, v: with_plan(s, paddings=((0, v),)), 0),
    ("split_plan.sinks[0] received[0] count", lambda s, v: _row0(s, "sinks", 1, ((0, v), *_PLAN.sinks[0][1][1:])),
     _PLAN.sinks[0][1][0][1]),
    ("split_plan.sinks[0] padding count", lambda s, v: _row0(s, "sinks", 2, v), _PLAN.sinks[0][2]),
]
# the same rule for every row index: 0.0 and False hash and compare as 0 in
# every dict the checks use, and the writers would print msg[1.0,1]
_INDICES = [
    ("split_plan.sources[0] dst", lambda s, v: _row0(s, "sources", 0, v)),
    ("split_plan.sources[0] src", lambda s, v: _row0(s, "sources", 1, v)),
    ("split_plan.paddings[0] src", lambda s, v: with_plan(s, paddings=((v, 0),))),
    ("split_plan.sinks[0] dst", lambda s, v: _row0(s, "sinks", 0, v)),
    ("split_plan.sinks[0] received[0] src",
     lambda s, v: _row0(s, "sinks", 1, ((v, _PLAN.sinks[0][1][0][1]), *_PLAN.sinks[0][1][1:]))),
]
_STORED += [(name, tamper, 0) for name, tamper in _INDICES]
STORED_CASES = [
    (f"{name}={bad!r}", tamper, bad, name)
    for name, tamper, value in _STORED
    for bad in (None, float(value), bool(value) if value in (0, 1) else True, Fraction(value))
]


@pytest.mark.parametrize("tamper, value, name", [c[1:] for c in STORED_CASES], ids=[c[0] for c in STORED_CASES])
def test_a_stored_value_that_is_not_an_int_fails_every_check(tamper, value, name):
    detail = _fails_every_check(verify_schedule(tamper(_schedule(), value)))
    assert detail.startswith(f"TypeError: {name} must be a") and detail.endswith(f" int, got {value!r}")
