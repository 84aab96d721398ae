"""``verify_schedule`` checks each phase's own fields, not only the
forwarding recurrence between block lengths: a phase's hop index is its
position, its per-pair DoF is 1/(tx+rx-1) and its per-pair bits are its
block length over tx+rx-1."""

from fractions import Fraction

import pytest

from relaydof.model import INFINITY
from relaydof.schedule import PhasePlan, integer_schedule, schedule_to_obj, verify_schedule

from support import chain, replace


def _schedule():
    return integer_schedule(chain([2, 3, 2]))


def _recurrence(report):
    [check] = [c for c in report.checks if c.name == "phase-recurrence"]
    return check


def test_untampered_phase0_is_the_x_network_share():
    s = _schedule()
    assert s.phases[0] == PhasePlan(0, 2, 3, 4, Fraction(1, 4), Fraction(1))
    assert verify_schedule(s).ok


@pytest.mark.parametrize(
    "phase0",
    [
        PhasePlan(0, 2, 3, 4, Fraction(1, 2), Fraction(5)),
        PhasePlan(7, 2, 3, 4, Fraction(1, 4), Fraction(1)),
        PhasePlan(0, 2, 3, 4, Fraction(1, 4), Fraction(2)),
    ],
    ids=["dof-and-bits", "hop", "bits"],
)
def test_tampered_phase_fields_fail_recurrence(phase0):
    s = _schedule()
    tampered = replace(s, phases=(phase0, s.phases[1]))
    report = verify_schedule(tampered)
    assert [c.name for c in report.failures()] == ["phase-recurrence"]
    assert _recurrence(report).detail == "phase fields off at hop(s) [0]"
    # the names of the checks stay the same
    assert [c.name for c in report.checks] == ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]


def test_both_details_are_joined():
    s = _schedule()
    bad = PhasePlan(1, 3, 2, s.phases[1].block_length + 1, Fraction(1, 4), Fraction(1))
    detail = _recurrence(verify_schedule(replace(s, phases=(s.phases[0], bad)))).detail
    assert detail == "forwarding mismatch at hop(s) [1]; phase fields off at hop(s) [1]"


CHECKS = ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]


@pytest.mark.parametrize(
    "phases, detail",
    [
        (
            lambda s: (PhasePlan(0, 0, 1, 4, Fraction(1), Fraction(4)), s.phases[1]),
            "phase sizes [0, 3, 2]: transmitter count must be a positive integer or INFINITY, got 0",
        ),
        (
            lambda s: (s.phases[0], PhasePlan(1, -1, 2, 4, Fraction(1, 4), Fraction(1))),
            "phase sizes [2, -1, 2]: transmitter count must be a positive integer or INFINITY, got -1",
        ),
        # only the last phase's rx_count is a receiver count, and the first
        # bad size is the one named
        (
            lambda s: (s.phases[0], PhasePlan(1, 3, 0, 4, Fraction(1, 2), Fraction(2))),
            "phase sizes [2, 3, 0]: receiver count must be a positive integer or INFINITY, got 0",
        ),
        (
            lambda s: (s.phases[0], PhasePlan(1, True, 0, 4, Fraction(1, 4), Fraction(1))),
            "phase sizes [2, True, 0]: transmitter count must be a positive integer or INFINITY, got True",
        ),
        (lambda s: (), "phase sizes []: need at least 2 layers"),
        # valid sizes that no schedule runs on
        (lambda s: s.phases[:1], "phase sizes [2, 3]: schedule synthesis needs at least one relay layer"),
        (
            lambda s: (s.phases[0], PhasePlan(1, INFINITY, 2, 4, Fraction(1, 2), Fraction(2))),
            "phase sizes [2, inf, 2]: layer 1: schedules are finite-network objects",
        ),
        (
            lambda s: (s.phases[0], PhasePlan(1, 3, INFINITY, 4, Fraction(1, 2), Fraction(2))),
            "phase sizes [2, 3, inf]: layer 2: schedules are finite-network objects",
        ),
    ],
    ids=[
        "zero-tx", "negative-tx", "zero-last-rx", "bool-tx-before-zero-rx", "no-phases", "no-relay", "infinite-tx",
        "infinite-last-rx",
    ],
)
def test_phases_of_bad_sizes_fail_every_check(phases, detail):
    s = _schedule()
    report = verify_schedule(replace(s, phases=phases(s)))
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [(name, False, detail) for name in CHECKS]


@pytest.mark.parametrize(
    "phase0",
    [
        PhasePlan(0, 2, -1, 4, Fraction(1, 4), Fraction(1)),
        # consistent with itself, but layer 1 holds 3 nodes
        PhasePlan(0, 2, 5, 4, Fraction(1, 6), Fraction(2, 3)),
    ],
    ids=["negative-rx", "other-rx"],
)
def test_receiver_count_off_its_next_phase_fails_recurrence(phase0):
    s = _schedule()
    report = verify_schedule(replace(s, phases=(phase0, s.phases[1])))
    assert [c.name for c in report.failures()] == ["phase-recurrence"]
    assert _recurrence(report).detail == "phase fields off at hop(s) [0]"


def test_tampered_values_would_reach_the_writer():
    # what the check keeps from being written out as verified
    s = _schedule()
    tampered = replace(s, phases=(PhasePlan(0, 2, 3, 4, Fraction(1, 2), Fraction(5)), s.phases[1]))
    phase = schedule_to_obj(tampered)["phases"][0]
    assert (phase["per_pair_dof"], phase["per_pair_bits"]) == ("1/2", "5")
    assert not verify_schedule(tampered).ok
