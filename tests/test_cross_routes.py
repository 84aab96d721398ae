"""The 1/(mn) terms of a chain's reciprocal sums take one of two routes,
picked by the bit length of the chain's unit: one product of two weights
per hop for a short unit, one division of unit**2 per distinct hop product
for a long one.  Both routes, and the sums through each, agree with the
reference model's per-hop ``Fraction`` sum on chains whose unit lies on
either side of the threshold."""

from fractions import Fraction

import pytest
from hypothesis import given, note, settings, strategies as st

from relaydof import analysis
from relaydof.analysis import _MULTIPLY_BITS, _cross_by_count, _cross_by_multiply, _layer_weights, _reciprocal_sums
from relaydof.analysis import achievable_sum_dof, cutset_sum_dof
from relaydof.model import INFINITY

import reference
from support import calls, primes_from

PRIMES = primes_from(10**6, 4000)


def _pairs(sizes) -> tuple[tuple[int, int], ...]:
    """The reference sums as reduced (numerator, denominator) pairs."""
    return tuple((s.numerator, s.denominator) for s in reference.reciprocal_sums(sizes))


_short = st.lists(st.one_of(st.integers(1, 64), st.just(INFINITY)), min_size=2, max_size=80)
_long = st.lists(st.one_of(st.sampled_from(PRIMES[:200]), st.just(INFINITY)), min_size=2, max_size=60)
_large = st.lists(st.one_of(st.integers(1, 10**6), st.integers(10**20, 10**40), st.just(INFINITY)), min_size=2, max_size=40)
# few distinct sizes, so many hops share a product m*n (2*6 = 3*4)
_repeated = st.lists(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12]), st.just(INFINITY)), min_size=2, max_size=80)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_short, _long, _large, _repeated))
def test_both_routes_agree_with_the_per_hop_sum(sizes):
    unit, w = _layer_weights(sizes)
    note(f"unit has {unit.bit_length()} bits, the threshold is {_MULTIPLY_BITS}")
    cross = _cross_by_multiply(w)
    # unit**2 times the sum of 1/(mn) over the hops with two finite ends
    finite = [m * n for m, n in zip(sizes, sizes[1:]) if INFINITY not in (m, n)]
    assert cross == _cross_by_count(sizes, unit * unit) == sum(Fraction(unit * unit, mn) for mn in finite)
    expected = _pairs(sizes)
    assert _reciprocal_sums(sizes) == expected
    assert (achievable_sum_dof(sizes), cutset_sum_dof(sizes)) == reference.sum_dofs(sizes)
    # the whole sums through each route, whichever one the unit picks
    for bits in (-1, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_MULTIPLY_BITS", bits)
            assert _reciprocal_sums(sizes) == expected


@pytest.mark.parametrize(
    "sizes, multiplies",
    [
        ([*range(1, 65), INFINITY, 64, 1], True),
        (PRIMES[:8], True),
        (PRIMES[:40], False),
        ([INFINITY, *PRIMES[:20], INFINITY, *PRIMES[:20]], False),
    ],
    ids=["1..64 and inf", "8 primes", "40 primes", "40 primes twice, inf ends"],
)
def test_each_side_of_the_threshold(sizes, multiplies):
    unit, _ = _layer_weights(sizes)
    assert (unit.bit_length() <= _MULTIPLY_BITS) == multiplies
    assert _reciprocal_sums(sizes) == _pairs(sizes)


def _routes_taken(monkeypatch, sizes) -> list[str]:
    made = {name: calls(monkeypatch, analysis, name) for name in ("_cross_by_multiply", "_cross_by_count")}
    _reciprocal_sums(sizes)
    return [name for name, taken in made.items() for _ in taken]


def test_an_exact_core_chain_multiplies(monkeypatch):
    # 4,000 layers of sizes 1..64 and inf: the unit divides lcm(1..64), of 90 bits
    sizes = [INFINITY if k % 97 == 0 else 1 + (k * k) % 64 for k in range(1, 4001)]
    assert _routes_taken(monkeypatch, sizes) == ["_cross_by_multiply"]


def test_a_chain_of_4000_primes_counts(monkeypatch):
    assert _routes_taken(monkeypatch, PRIMES) == ["_cross_by_count"]
