"""Closed-form DoF quantities: worked values, identities, enumerations."""

import itertools
import random
from fractions import Fraction

import pytest

from relaydof.analysis import (
    AnalysisError,
    absolute_and_fractional_gap,
    achievable_sum_dof,
    analyze,
    bounding_set,
    cutset_sum_dof,
    hop_achievable_dof,
    hop_cutset_dof,
    inverse_gap,
    is_optimal,
    relay_loss_factor,
    ultimate_capacity,
)
from relaydof.model import INFINITY, ExtRational, parse_topology

from support import chain


# -- per-hop values -----------------------------------------------------------


def test_hop_achievable_worked_values():
    assert hop_achievable_dof(3, 3) == ExtRational(9, 5)
    assert hop_achievable_dof(1, 1) == 1


def test_hop_achievable_infinite_limits():
    assert hop_achievable_dof(1, INFINITY) == 1
    assert hop_achievable_dof(INFINITY, 3) == 3
    # numeric cross-check of the limit at a very large finite size
    big = 10**6
    for m in (1, 3, 7):
        finite = Fraction(m * big, m + big - 1)
        assert abs(float(finite) - m) / m < 1e-4
    assert not hop_achievable_dof(INFINITY, INFINITY).is_finite


def test_hop_cutset_values():
    assert hop_cutset_dof(3, 3) == 3
    assert hop_cutset_dof(2, INFINITY) == 2
    assert hop_cutset_dof(1, 5) == 1


# -- chain values -------------------------------------------------------------


def test_achievable_sum_dof_values():
    assert achievable_sum_dof([2, 2, 2]) == ExtRational(2, 3)
    for n in (1, 2, 17, 100):
        assert achievable_sum_dof([1, n, 1]) == ExtRational(1, 2)
    assert achievable_sum_dof([1, INFINITY, 3]) == ExtRational(3, 4)


def test_cutset_sum_dof_values():
    assert cutset_sum_dof([2, 2, 2]) == 1
    assert cutset_sum_dof([3, 3, 3, 3]) == 1
    assert cutset_sum_dof([3, INFINITY, 3]) == ExtRational(3, 2)


def test_bounding_set():
    assert bounding_set([1, 4, 1]) == frozenset()
    assert bounding_set([2, 2, 2]) == {0, 1}
    assert bounding_set([1, 3, 2]) == {1}


def test_inverse_gap_values():
    exact, _, _ = inverse_gap([2, 2, 2])
    assert exact == ExtRational(1, 2)
    alpha = achievable_sum_dof([2, 2, 2])
    beta = cutset_sum_dof([2, 2, 2])
    assert exact == alpha.reciprocal() - beta.reciprocal()

    exact, b1, b2 = inverse_gap([1, 4, 1])
    assert exact == 0 and b1 == 0 and b2 == 0

    exact, b1, b2 = inverse_gap([3, 3, 3, 3])
    assert exact == ExtRational(2, 3)
    assert b1 == 1
    assert b2 == 1


def test_absolute_and_fractional_gap_values():
    gap, _ = absolute_and_fractional_gap([2, 2, 2])
    assert gap == ExtRational(1, 3)
    alpha = achievable_sum_dof([2, 2, 2])
    beta = cutset_sum_dof([2, 2, 2])
    assert gap == alpha * beta * (alpha.reciprocal() - beta.reciprocal())

    gap, _ = absolute_and_fractional_gap([1, 4, 1])
    assert gap == 0

    gap, frac = absolute_and_fractional_gap([3, 3, 3, 3])
    assert gap == ExtRational(2, 5)
    assert frac == ExtRational(2, 3)


def test_gap_error_when_everything_unbounded():
    with pytest.raises(AnalysisError):
        absolute_and_fractional_gap([INFINITY, INFINITY])


def test_is_optimal_patterns():
    for x in (2, 5, 9):
        assert is_optimal([1, x, 1, x, 1])
        assert is_optimal([1, x, INFINITY, x, 1])
    assert not is_optimal([2, 2, 2])


def test_ultimate_capacity_values():
    assert ultimate_capacity(3, 3) == ExtRational(3, 2)
    assert ultimate_capacity(1, 1) == ExtRational(1, 2)
    assert ultimate_capacity(1, 3) == ExtRational(3, 4)
    assert ultimate_capacity(1, 3) == achievable_sum_dof([1, INFINITY, 3])
    with pytest.raises(AnalysisError):
        ultimate_capacity(INFINITY, 3)


def test_relay_loss_factor_values():
    assert relay_loss_factor(1, 1) == ExtRational(1, 2)
    assert relay_loss_factor(3, 3) == ExtRational(5, 6)
    assert relay_loss_factor(100, 100) == ExtRational(199, 200)
    # equals the capacity ceiling over the direct-link X-network value
    for s0, sk1 in ((1, 1), (2, 5), (4, 4)):
        direct = ExtRational(s0 * sk1, s0 + sk1 - 1)
        assert relay_loss_factor(s0, sk1) == ultimate_capacity(s0, sk1) / direct


# -- the aggregate report -----------------------------------------------------


def test_analyze_plain_chain():
    r = analyze(chain([2, 2, 2]))
    assert r.achievable == ExtRational(2, 3)
    assert r.cutset == 1
    assert not r.optimal
    assert r.achievable_per_hop == (ExtRational(4, 3), ExtRational(4, 3))
    assert r.cutset_per_hop == (ExtRational(2), ExtRational(2))
    assert r.ultimate_capacity == 1
    assert r.relay_loss_factor == ExtRational(3, 4)
    per_hop_sum = ExtRational(0)
    for a, b in zip(r.achievable_per_hop, r.cutset_per_hop):
        per_hop_sum = per_hop_sum + (a.reciprocal() - b.reciprocal())
    assert r.inverse_gap == per_hop_sum


def test_analyze_mixed_antennas():
    t = parse_topology('{"layers":[{"antennas":[2,1]},{"antennas":[2,2]},{"antennas":[1,1,1]}]}')
    r = analyze(t)
    assert t.effective_sizes() == (3, 4, 3)
    assert r.achievable_per_hop == (ExtRational(2), ExtRational(2))
    assert r.achievable == 1
    assert r.cutset_per_hop == (ExtRational(3), ExtRational(3))
    assert r.cutset == ExtRational(3, 2)


def test_analyze_infinite_relay_is_optimal():
    r = analyze(chain([1, INFINITY, 1]))
    assert r.achievable == r.cutset == ExtRational(1, 2)
    assert r.optimal
    assert r.absolute_gap == 0


def test_analyze_rejects_all_infinite_topology():
    with pytest.raises(AnalysisError):
        analyze(chain([INFINITY, INFINITY, INFINITY]))


# -- identities and enumerations ----------------------------------------------


def test_gap_identity_on_random_finite_topologies():
    rng = random.Random(7)
    for _ in range(400):
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 7))]
        exact, b1, b2 = inverse_gap(sizes)
        alpha = achievable_sum_dof(sizes)
        beta = cutset_sum_dof(sizes)
        assert exact == alpha.reciprocal() - beta.reciprocal()
        assert exact <= b1 <= b2


def test_monotone_chain_property():
    rng = random.Random(8)
    for _ in range(300):
        sizes = [
            INFINITY if rng.random() < 0.15 else rng.randint(1, 8)
            for _ in range(rng.randint(2, 7))
        ]
        if all(isinstance(s, type(INFINITY)) for s in sizes):
            continue
        alpha = achievable_sum_dof(sizes)
        beta = cutset_sum_dof(sizes)
        assert alpha <= beta
        for m, n in zip(sizes[:-1], sizes[1:]):
            assert alpha <= hop_achievable_dof(m, n)
            assert beta <= hop_cutset_dof(m, n)


def test_optimality_equivalence_enumerated():
    values = (1, 2, 3, INFINITY)
    for length in range(2, 6):
        for sizes in itertools.product(values, repeat=length):
            assert is_optimal(sizes) == (achievable_sum_dof(sizes) == cutset_sum_dof(sizes))


def test_limit_consistency_with_large_finite_substitute():
    rng = random.Random(9)
    big = 10**6
    for _ in range(200):
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 7))]
        spots = rng.sample(range(len(sizes)), rng.randint(1, len(sizes) - 1))
        symbolic = list(sizes)
        substituted = list(sizes)
        for k in spots:
            symbolic[k] = INFINITY
            substituted[k] = big
        exact = float(achievable_sum_dof(symbolic))
        numeric = float(achievable_sum_dof(substituted))
        assert abs(exact - numeric) / numeric < 1e-4


def test_degradation_adding_a_relay_layer():
    rng = random.Random(10)
    for _ in range(200):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 6))]
        base = achievable_sum_dof(sizes)
        position = rng.randint(1, len(sizes) - 1)
        inserted = rng.choice([rng.randint(1, 6), INFINITY])
        longer = sizes[:position] + [inserted] + sizes[position:]
        assert achievable_sum_dof(longer) < base


def test_ultimate_capacity_needs_unbounded_relays():
    # A finite relay layer squeezed between two layers of size > 1 keeps the
    # chain strictly below the capacity ceiling.
    values = (1, 2, 3, INFINITY)
    checked = 0
    for length in range(3, 6):
        for sizes in itertools.product(values, repeat=length):
            if isinstance(sizes[0], type(INFINITY)) or isinstance(sizes[-1], type(INFINITY)):
                continue
            pinch = any(
                not isinstance(sizes[k], type(INFINITY))
                and sizes[k - 1] > 1
                and sizes[k + 1] > 1
                for k in range(1, length - 1)
            )
            if not pinch:
                continue
            checked += 1
            assert achievable_sum_dof(sizes) < ultimate_capacity(sizes[0], sizes[-1])
    assert checked > 100
