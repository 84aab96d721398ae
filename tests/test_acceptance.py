"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every assertion is exact unless the criterion itself is
about a float (the scaling slope).
"""

import itertools
import random
import time
from fractions import Fraction

from relaydof.analysis import (
    achievable_sum_dof,
    analyze,
    cutset_sum_dof,
    inverse_gap,
    is_optimal,
    relay_loss_factor,
    ultimate_capacity,
)
from relaydof.model import (
    INFINITY,
    DemandMatrix,
    LayerSpec,
    NetworkTopology,
    antenna_split,
    parse_topology,
)
from relaydof.region import check_demand, max_uniform_scale
from relaydof.scaling import FamilySpec, classify
from relaydof.schedule import integer_schedule, recurrence_sum_dof, verify_schedule

from support import chain


def _passed(number, message, started):
    print(f"ACCEPTANCE {number:02d} PASS: {message} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_recurrence_oracle_matches_closed_form():
    started = time.perf_counter()
    count = 0
    for length in range(3, 7):  # 1 to 4 relay layers
        for sizes in itertools.product(range(1, 6), repeat=length):
            assert recurrence_sum_dof(sizes) == achievable_sum_dof(sizes)
            count += 1
    elapsed = time.perf_counter() - started
    assert count == 19500
    assert elapsed < 10
    _passed(1, f"recurrence route equals closed form on {count} exhaustive chains", started)


def test_criterion_02_gap_identity_and_bound_chain():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(10_000):
        sizes = [rng.randint(1, 12) for _ in range(rng.randint(2, 8))]
        exact, bound1, bound2 = inverse_gap(sizes)
        alpha = achievable_sum_dof(sizes)
        beta = cutset_sum_dof(sizes)
        assert exact == alpha.reciprocal() - beta.reciprocal()
        assert exact <= bound1 <= bound2
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _passed(2, "reciprocal gap identity and bound chain on 10000 random chains", started)


def test_criterion_03_optimality_equivalence():
    started = time.perf_counter()
    values = (1, 2, 3, INFINITY)
    count = 0
    for length in range(2, 6):  # up to 3 relay layers
        for sizes in itertools.product(values, repeat=length):
            assert is_optimal(sizes) == (achievable_sum_dof(sizes) == cutset_sum_dof(sizes))
            count += 1
    assert count >= 4**5
    patterns = [
        lambda x: [1, x, 1, x, 1],
        lambda x: [1, x, INFINITY, x, 1],
        lambda x: [1, x, INFINITY, x, INFINITY],
        lambda x: [1, INFINITY, x, INFINITY, x],
        lambda x: [INFINITY, x, INFINITY, x, INFINITY],
        lambda x: [x, 1, x, 1, x],
        lambda x: [x, 1, x, INFINITY, x],
        lambda x: [x, INFINITY, x, INFINITY, x],
    ]
    for pattern in patterns:
        for x in (2, 5):
            sizes = pattern(x)
            assert is_optimal(sizes)
            assert achievable_sum_dof(sizes) == cutset_sum_dof(sizes)
    _passed(3, f"optimality condition matches zero gap on {count} chains plus 8 patterns", started)


def test_criterion_04_ultimate_capacity_with_unbounded_relays():
    started = time.perf_counter()
    for s0 in range(1, 11):
        for sk1 in range(1, 11):
            ceiling = ultimate_capacity(s0, sk1)
            for relays in range(1, 5):
                sizes = [s0] + [INFINITY] * relays + [sk1]
                alpha = achievable_sum_dof(sizes)
                beta = cutset_sum_dof(sizes)
                assert alpha == beta == ceiling
            direct = Fraction(s0 * sk1, s0 + sk1 - 1)
            assert relay_loss_factor(s0, sk1) == ceiling / direct
    assert relay_loss_factor(1, 1) == Fraction(1, 2)
    _passed(4, "unbounded relay layers reach the harmonic endpoint ceiling", started)


def test_criterion_05_parallel_relay_chain():
    started = time.perf_counter()
    for n in range(1, 101):
        assert achievable_sum_dof([1, n, 1]) == Fraction(1, 2)
    _passed(5, "single source and destination stay at 1/2 for any relay width", started)


def test_criterion_06_schedule_soundness():
    started = time.perf_counter()
    count = 0
    for length in range(3, 6):  # 1 to 3 relay layers
        for sizes in itertools.product(range(1, 5), repeat=length):
            schedule = integer_schedule(chain(sizes))
            report = verify_schedule(schedule)
            assert report.ok, (sizes, report.failures())
            count += 1
    worked = integer_schedule(chain([1, 2, 4]))
    assert [p.block_length for p in worked.phases] == [8, 5]
    assert worked.total_bits == 8
    assert worked.total_delay == 13
    assert worked.sum_dof == Fraction(8, 13)
    _passed(6, f"all {count} exhaustive schedules verify; worked chain matches", started)


def _random_multi_antenna(rng):
    layers = []
    for _ in range(rng.randint(3, 5)):  # 1 to 3 relay layers
        nodes = rng.randint(1, 4)
        if rng.random() < 0.2:
            layers.append(LayerSpec(nodes=nodes))
        else:
            layers.append(LayerSpec(antennas=tuple(rng.randint(1, 3) for _ in range(nodes))))
    return NetworkTopology(tuple(layers))


def test_criterion_07_antenna_splitting_equivalence():
    started = time.perf_counter()
    rng = random.Random(1007)
    for _ in range(1000):
        t = _random_multi_antenna(rng)
        expanded = antenna_split(t)
        assert analyze(t) == analyze(expanded)
        assert integer_schedule(t) == integer_schedule(expanded)
    _passed(7, "1000 multi-antenna networks analyze and schedule as their split twins", started)


def test_criterion_08_scaling_law_classification():
    started = time.perf_counter()
    base = (Fraction(1), Fraction(1), Fraction(1))
    verdict = classify(FamilySpec(kind="ProportionalFixedK", base=base))
    assert verdict.classification == "Linear"
    assert abs(verdict.slope_estimate - 1) <= 0.15
    verdict = classify(FamilySpec(kind="PinnedLayerFixedK", base=base, pinned=((1, 2),)))
    assert verdict.classification == "Constant"
    assert abs(verdict.slope_estimate - 0) <= 0.15
    verdict = classify(FamilySpec(kind="FixedSizesGrowingK", base=(Fraction(2),)))
    assert verdict.classification == "Inverse"
    assert abs(verdict.slope_estimate + 1) <= 0.15
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _passed(8, "canonical families classify Linear / Constant / Inverse", started)


def test_criterion_09_region_membership_tables():
    started = time.perf_counter()
    t3333 = chain([3, 3, 3, 3])
    one = Fraction(1)
    half = Fraction(1, 2)
    table_patterns = [
        ({(0, 0): one, (1, 1): one, (2, 2): one}, Fraction(1, 5)),
        ({(0, 0): one, (1, 1): half, (1, 2): half, (2, 1): half, (2, 2): half}, Fraction(1, 5)),
        (
            {(0, 0): one, (2, 2): one, (1, 0): one, (0, 1): one, (2, 1): one, (1, 2): one},
            Fraction(1, 10),
        ),
        ({(j, i): one for j in range(3) for i in range(3)}, Fraction(1, 15)),
    ]
    every_constraint = {"total"} | {f"src:{k}" for k in (1, 2, 3)} | {f"dst:{k}" for k in (1, 2, 3)}
    for pattern, expected_scale in table_patterns:
        result = max_uniform_scale(t3333, DemandMatrix(pattern))
        assert result.t_star == expected_scale
        assert result.verdict.feasible
        assert set(result.verdict.binding) == every_constraint

    mixed = parse_topology(
        '{"layers":[{"antennas":[2,1]},{"antennas":[2,2]},{"antennas":[1,1,1]}]}'
    )
    mixed_patterns = [
        ({(0, 0): one, (1, 0): one, (2, 1): one}, Fraction(1, 3)),
        (
            {(0, 0): one, (1, 0): one, (2, 0): one, (0, 1): half, (1, 1): half, (2, 1): half},
            Fraction(2, 9),
        ),
    ]
    for pattern, expected_scale in mixed_patterns:
        result = max_uniform_scale(mixed, DemandMatrix(pattern))
        assert result.t_star == expected_scale
        assert result.verdict.feasible

    # exceeding any single per-source share by 1/1000 must be rejected
    alpha = achievable_sum_dof([3, 3, 3, 3]).as_fraction()
    for i in range(3):
        over = alpha / 3 + Fraction(1, 1000)
        spread = {(j, i): over / 3 for j in range(3)}
        verdict = check_demand(t3333, DemandMatrix(spread))
        assert not verdict.feasible
        assert [v.constraint for v in verdict.violations] == [f"src:{i + 1}"]
    _passed(9, "published demand patterns scale to a fully binding boundary", started)


def test_criterion_10_degradation_on_insertion():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(1000):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(3, 6))]
        base_alpha = achievable_sum_dof(sizes)
        base_schedule = integer_schedule(chain(sizes))
        position = rng.randint(1, len(sizes) - 1)
        longer = sizes[:position] + [rng.randint(1, 5)] + sizes[position:]
        assert achievable_sum_dof(longer) < base_alpha
        longer_schedule = integer_schedule(chain(longer))
        assert Fraction(longer_schedule.total_delay, longer_schedule.total_bits) > Fraction(
            base_schedule.total_delay, base_schedule.total_bits
        )
    _passed(10, "inserting a relay layer always costs rate and delay per bit", started)
