"""The 1/(mn) terms of a chain's reciprocal sums take one of two routes,
picked by the bit length of the chain's unit: one product of two weights
per hop for a short unit, one division of unit**2 per distinct hop product
for a long one.  Both routes, and the sums through each, agree with a
per-hop ``Fraction`` sum on chains whose unit lies on either side of the
threshold."""

from fractions import Fraction

import pytest
from hypothesis import given, note, settings, strategies as st

from relaydof import analysis
from relaydof.analysis import _MULTIPLY_BITS, _cross_by_count, _cross_by_multiply, _layer_weights, _reciprocal_sums
from relaydof.model import INFINITY


def _primes_from(low: int, count: int) -> list[int]:
    sieve = bytearray([1]) * (low + 20 * count)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return [n for n in range(low, len(sieve)) if sieve[n]][:count]


PRIMES = _primes_from(10**6, 4000)


def reference_sums(sizes) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha, sum of 1/beta), one Fraction per hop."""
    inv_alpha = inv_beta = Fraction(0)
    for m, n in zip(sizes, sizes[1:]):
        if m is INFINITY and n is INFINITY:
            continue
        if m is INFINITY or n is INFINITY:
            finite = n if m is INFINITY else m
            inv_alpha += Fraction(1, finite)
            inv_beta += Fraction(1, finite)
        else:
            inv_alpha += Fraction(m + n - 1, m * n)
            inv_beta += Fraction(1, min(m, n))
    return inv_alpha, inv_beta


def reference_cross(sizes, unit: int) -> Fraction:
    """Sum of unit**2/(mn) over the hops with two finite ends."""
    return sum(
        (Fraction(unit * unit, m * n) for m, n in zip(sizes, sizes[1:]) if INFINITY not in (m, n)),
        Fraction(0),
    )


def _pairs(sums) -> tuple[tuple[int, int], ...]:
    return tuple((s.numerator, s.denominator) for s in sums)


_short = st.lists(st.one_of(st.integers(1, 64), st.just(INFINITY)), min_size=2, max_size=80)
_long = st.lists(st.one_of(st.sampled_from(PRIMES[:200]), st.just(INFINITY)), min_size=2, max_size=60)


@settings(deadline=None)
@given(st.one_of(_short, _long))
def test_both_routes_agree_with_the_per_hop_sum(sizes):
    unit, w = _layer_weights(sizes)
    note(f"unit has {unit.bit_length()} bits, the threshold is {_MULTIPLY_BITS}")
    cross = _cross_by_multiply(w)
    assert cross == _cross_by_count(sizes, unit * unit) == reference_cross(sizes, unit)
    expected = _pairs(reference_sums(sizes))
    assert _reciprocal_sums(sizes) == expected
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
    assert _reciprocal_sums(sizes) == _pairs(reference_sums(sizes))


def _routes_taken(monkeypatch, sizes) -> list[str]:
    taken = []
    for name in ("_cross_by_multiply", "_cross_by_count"):
        original = getattr(analysis, name)

        def spy(*args, _original=original, _name=name):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(analysis, name, spy)
    _reciprocal_sums(sizes)
    return taken


def test_an_exact_core_chain_multiplies(monkeypatch):
    # 4,000 layers of sizes 1..64 and inf: the unit divides lcm(1..64), of 90 bits
    sizes = [INFINITY if k % 97 == 0 else 1 + (k * k) % 64 for k in range(1, 4001)]
    assert _routes_taken(monkeypatch, sizes) == ["_cross_by_multiply"]


def test_a_chain_of_4000_primes_counts(monkeypatch):
    assert _routes_taken(monkeypatch, PRIMES) == ["_cross_by_count"]
