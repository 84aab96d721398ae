"""``verify_schedule`` reports a field of the wrong type instead of raising:
a field its checks cannot read, and a share that is a bool (True == 1),
fail all four checks, in order, with one detail."""

from fractions import Fraction

import pytest

from relaydof.model import LayerSpec, NetworkTopology
from relaydof.schedule import integer_schedule, verify_schedule

CHECKS = ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]


def _schedule():
    return integer_schedule(NetworkTopology(tuple(LayerSpec(nodes=n) for n in (2, 3, 2))))


def _replace(record, **changes):
    """``record`` rebuilt through its constructor with ``changes``."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def _with_plan(s, **changes):
    return _replace(s, split_plan=_replace(s.split_plan, **changes))


def _phase0(s, **changes):
    return _replace(s, phases=(_replace(s.phases[0], **changes), *s.phases[1:]))


def _per_pair0(s, value):
    return _with_plan(s, per_pair=(value, *s.split_plan.per_pair[1:]))


def _source0(s, **changes):
    sources = s.split_plan.sources
    return _with_plan(s, sources=(_replace(sources[0], **changes), *sources[1:]))


def _sink0(s, **changes):
    sinks = s.split_plan.sinks
    return _with_plan(s, sinks=(_replace(sinks[0], **changes), *sinks[1:]))


BAD = [None, 4.0, "4"]
CASES = [
    *((f"block_length={v!r}", lambda s, v=v: _phase0(s, block_length=v)) for v in BAD),
    *((f"total_delay={v!r}", lambda s, v=v: _replace(s, total_delay=v)) for v in (None, "4")),
    *((f"sum_dof={v!r}", lambda s, v=v: _replace(s, sum_dof=v)) for v in (None, 4.0)),
    *((f"plan.total_bits={v!r}", lambda s, v=v: _with_plan(s, total_bits=v)) for v in BAD),
    *((f"plan.padding_bits={v!r}", lambda s, v=v: _with_plan(s, padding_bits=v)) for v in BAD),
    *((f"per_pair[0]={v!r}", lambda s, v=v: _per_pair0(s, v)) for v in BAD),
    *((f"sources[0].bits={v!r}", lambda s, v=v: _source0(s, bits=v)) for v in BAD),
    *((f"sinks[0].padding_bits={v!r}", lambda s, v=v: _sink0(s, padding_bits=v)) for v in BAD),
    *((f"sources[0].dst={v!r}", lambda s, v=v: _source0(s, dst=v)) for v in (None, "4")),
    # records and containers that are not what they should be
    ("phases=None", lambda s: _replace(s, phases=None)),
    ("phases[0]=None", lambda s: _replace(s, phases=(None, *s.phases[1:]))),
    ("split_plan=None", lambda s: _replace(s, split_plan=None)),
    ("demand=None", lambda s: _with_plan(s, demand=None)),
    ("sources=None", lambda s: _with_plan(s, sources=None)),
    ("sinks=None", lambda s: _with_plan(s, sinks=None)),
    ("received entry not a pair", lambda s: _sink0(s, received=((0,),))),
]
# both shares are 1 on this schedule, so a bool would pass every check
BOOLS = [
    ("per_pair_bits=True", lambda s: _phase0(s, per_pair_bits=True), "phases[0].per_pair_bits"),
    ("per_pair[0]=True", lambda s: _per_pair0(s, True), "split_plan.per_pair[0]"),
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


def test_the_detail_is_the_read_error():
    report = verify_schedule(_sink0(_schedule(), padding_bits="4"))
    assert report.checks[0].detail == "AttributeError: 'str' object has no attribute 'denominator'"


def test_ints_and_fractions_of_the_right_value_pass():
    s = _schedule()
    assert s.split_plan.per_pair[0] == 1 and s.phases[0].per_pair_bits == 1
    for tampered in (
        _per_pair0(s, 1),
        _phase0(s, per_pair_bits=1),
        _with_plan(s, total_bits=Fraction(s.split_plan.total_bits)),
        _replace(s, sum_dof=Fraction(s.sum_dof)),
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
