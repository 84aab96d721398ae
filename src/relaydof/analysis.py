"""Closed-form DoF quantities for layered relay chains.

Every hop between adjacent layers behaves like a single-hop X network whose
achievable sum DoF is M*N/(M+N-1); the chain combines like series
capacitors, by summing reciprocals.  The cut-set route turns each relay
layer into one multi-antenna super node, giving min(M, N) per hop and the
matching harmonic combination.  Both sums of reciprocals come from one
exact pass over the chain's distinct hops (``_reciprocal_sums``); every
public result is an exact ExtRational.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .model import ExtCount, ExtRational, Infinity, INFINITY, NetworkTopology

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "hop_achievable_dof",
    "achievable_sum_dof",
    "hop_cutset_dof",
    "cutset_sum_dof",
    "bounding_set",
    "inverse_gap",
    "absolute_and_fractional_gap",
    "is_optimal",
    "ultimate_capacity",
    "relay_loss_factor",
    "analyze",
    "report_to_obj",
]


class AnalysisError(ValueError):
    """A requested quantity is undefined for the given topology."""


@dataclass(frozen=True)
class AnalysisReport:
    """All derived DoF quantities for one topology.

    ``ultimate_capacity`` and ``relay_loss_factor`` are populated only when
    both endpoint layers are finite.
    """

    achievable: ExtRational
    achievable_per_hop: tuple[ExtRational, ...]
    cutset: ExtRational
    cutset_per_hop: tuple[ExtRational, ...]
    inverse_gap: ExtRational
    absolute_gap: ExtRational
    fractional_gap_bound: ExtRational
    bounding_set: frozenset[int]
    optimal: bool
    ultimate_capacity: ExtRational | None
    relay_loss_factor: ExtRational | None


def _check_size(value: ExtCount, what: str) -> None:
    if isinstance(value, Infinity):
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise AnalysisError(f"{what} must be a positive integer or INFINITY, got {value!r}")


@lru_cache(maxsize=None)
def hop_achievable_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Single-hop X-network sum DoF for M transmitters and N receivers.

    Finite case is M*N/(M+N-1).  With exactly one side infinite the value is
    the finite side (the limit of the finite formula); with both sides
    infinite it is unbounded.
    """
    _check_size(m, "transmitter count")
    _check_size(n, "receiver count")
    m_inf = isinstance(m, Infinity)
    n_inf = isinstance(n, Infinity)
    if m_inf and n_inf:
        return ExtRational(INFINITY)
    if m_inf:
        return ExtRational(n)
    if n_inf:
        return ExtRational(m)
    return ExtRational(m * n, m + n - 1)


@lru_cache(maxsize=None)
def hop_cutset_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Cut-set DoF of one hop: min of the endpoint sizes."""
    _check_size(m, "transmitter count")
    _check_size(n, "receiver count")
    return ExtRational(min(m, n))


def _hops(sizes: Sequence[ExtCount]):
    if len(sizes) < 2:
        raise AnalysisError("need at least 2 layers")
    return list(zip(sizes[:-1], sizes[1:]))


def _check_sizes(sizes: Sequence[ExtCount]) -> None:
    """Validate a whole chain, naming the first bad size as the hop checks do."""
    if len(sizes) < 2:
        raise AnalysisError("need at least 2 layers")
    if set(map(type, sizes)) <= {int, Infinity} and min(set(sizes) - {INFINITY}, default=1) >= 1:
        return
    for k, value in enumerate(sizes):
        _check_size(value, "transmitter count" if k == 0 else "receiver count")


def _fraction_sum(terms: dict[int, int]) -> Fraction:
    """Sum of numerator/denominator over {denominator: numerator}, with one
    LCM and one gcd."""
    unit = math.lcm(*terms)
    return Fraction(sum(num * (unit // den) for den, num in terms.items()), unit)


def _reciprocal_sums(sizes: Sequence[ExtCount]) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha_k, sum of 1/beta_k) over the chain's hops, exactly.

    A finite hop adds (m+n-1)/(mn) and 1/min(m, n); a hop with one infinite
    end adds 1/(finite end) to both sums; a hop with both ends infinite adds
    nothing.  Each distinct (m, n) pair is visited once, with its count.
    """
    _check_sizes(sizes)
    inv_alpha: dict[int, int] = {}
    inv_beta: dict[int, int] = {}
    for (m, n), count in Counter(zip(sizes, sizes[1:])).items():
        m_inf, n_inf = isinstance(m, Infinity), isinstance(n, Infinity)
        if m_inf and n_inf:
            continue
        if m_inf or n_inf:
            finite = n if m_inf else m
            inv_alpha[finite] = inv_alpha.get(finite, 0) + count
            inv_beta[finite] = inv_beta.get(finite, 0) + count
        else:
            inv_alpha[m * n] = inv_alpha.get(m * n, 0) + count * (m + n - 1)
            low = min(m, n)
            inv_beta[low] = inv_beta.get(low, 0) + count
    return _fraction_sum(inv_alpha), _fraction_sum(inv_beta)


def _harmonic(inverse_sum: Fraction) -> ExtRational:
    return ExtRational(INFINITY) if inverse_sum == 0 else ExtRational(1 / inverse_sum)


def achievable_sum_dof(sizes: Sequence[ExtCount]) -> ExtRational:
    """Whole-chain achievable sum DoF: reciprocals of per-hop values add."""
    return _harmonic(_reciprocal_sums(sizes)[0])


def cutset_sum_dof(sizes: Sequence[ExtCount]) -> ExtRational:
    """Whole-chain cut-set upper bound, combined the same harmonic way."""
    return _harmonic(_reciprocal_sums(sizes)[1])


def bounding_set(sizes: Sequence[ExtCount]) -> frozenset[int]:
    """Hops whose smaller endpoint exceeds 1; only these can contribute gap."""
    return frozenset(k for k, (m, n) in enumerate(_hops(sizes)) if min(m, n) > 1)


def inverse_gap(sizes: Sequence[ExtCount]) -> tuple[ExtRational, ExtRational, ExtRational]:
    """Exact reciprocal-space gap between the bounds, plus two upper bounds.

    Returns (exact, bound1, bound2) with exact <= bound1 <= bound2.  Hops
    with an infinite endpoint contribute nothing; when no hop can contribute
    the bounds are 0 as well.
    """
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    hops = _hops(sizes)
    members = bounding_set(sizes)
    bound1 = ExtRational(0)
    for k in members:
        m, n = hops[k]
        bound1 = bound1 + ExtRational(max(m, n)).reciprocal()
    if members:
        smallest_tx = min(sizes[k] for k in members)
        bound2 = ExtRational(len(members)) * ExtRational(smallest_tx).reciprocal()
    else:
        bound2 = ExtRational(0)
    return ExtRational(inv_alpha - inv_beta), bound1, bound2


def absolute_and_fractional_gap(sizes: Sequence[ExtCount]) -> tuple[ExtRational, ExtRational]:
    """Absolute bound gap and an upper bound on the fractional gap.

    The absolute gap is the cut-set value minus the achievable value; the
    fractional bound is cutset * (1/achievable - 1/cutset), which dominates
    (gap / capacity).  Undefined when the chain is unbounded on both routes.
    """
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    if inv_alpha == 0:
        raise AnalysisError("gap is undefined when both bounds are infinite")
    upper = 1 / inv_beta
    return ExtRational(upper - 1 / inv_alpha), ExtRational(upper * (inv_alpha - inv_beta))


def is_optimal(sizes: Sequence[ExtCount]) -> bool:
    """True iff every adjacent layer pair contains a 1 or an infinite layer.

    Exactly then the achievable and cut-set values coincide.
    """
    return all(
        m == 1 or n == 1 or isinstance(m, Infinity) or isinstance(n, Infinity)
        for m, n in _hops(sizes)
    )


def ultimate_capacity(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Sum DoF ceiling once every relay layer grows without bound."""
    if isinstance(source_size, Infinity) or isinstance(destination_size, Infinity):
        raise AnalysisError("ultimate capacity needs finite endpoint layers")
    return (ExtRational(1, source_size) + ExtRational(1, destination_size)).reciprocal()


def relay_loss_factor(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Fraction of single-hop X-network DoF that survives relaying.

    Equals the ultimate capacity divided by the direct-link X-network value,
    i.e. 1 - 1/(S0 + SK1); worst case 1/2 with one source and one
    destination.
    """
    if isinstance(source_size, Infinity) or isinstance(destination_size, Infinity):
        raise AnalysisError("relay loss factor needs finite endpoint layers")
    return ExtRational(1) - ExtRational(1, source_size + destination_size)


def analyze(t: NetworkTopology) -> AnalysisReport:
    """Full report over the topology's effective (antenna-split) sizes."""
    sizes = t.effective_sizes()
    if all(isinstance(s, Infinity) for s in sizes):
        raise AnalysisError("all layers infinite: bounds are unbounded and the gap is undefined")
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    hops = _hops(sizes)
    lower, upper = 1 / inv_alpha, 1 / inv_beta
    endpoints_finite = not (
        isinstance(sizes[0], Infinity) or isinstance(sizes[-1], Infinity)
    )
    return AnalysisReport(
        achievable=ExtRational(lower),
        achievable_per_hop=tuple(hop_achievable_dof(m, n) for m, n in hops),
        cutset=ExtRational(upper),
        cutset_per_hop=tuple(hop_cutset_dof(m, n) for m, n in hops),
        inverse_gap=ExtRational(inv_alpha - inv_beta),
        absolute_gap=ExtRational(upper - lower),
        fractional_gap_bound=ExtRational(upper * (inv_alpha - inv_beta)),
        bounding_set=bounding_set(sizes),
        optimal=is_optimal(sizes),
        ultimate_capacity=(
            ultimate_capacity(sizes[0], sizes[-1]) if endpoints_finite else None
        ),
        relay_loss_factor=(
            relay_loss_factor(sizes[0], sizes[-1]) if endpoints_finite else None
        ),
    )


def report_to_obj(report: AnalysisReport) -> dict:
    """JSON-friendly dict with rationals as "p/q" strings, infinity as "inf"."""
    obj = {
        "achievable": str(report.achievable),
        "achievable_per_hop": [str(x) for x in report.achievable_per_hop],
        "cutset": str(report.cutset),
        "cutset_per_hop": [str(x) for x in report.cutset_per_hop],
        "inverse_gap": str(report.inverse_gap),
        "absolute_gap": str(report.absolute_gap),
        "fractional_gap_bound": str(report.fractional_gap_bound),
        "bounding_set": sorted(report.bounding_set),
        "optimal": report.optimal,
    }
    if report.ultimate_capacity is not None:
        obj["ultimate_capacity"] = str(report.ultimate_capacity)
        obj["relay_loss_factor"] = str(report.relay_loss_factor)
    return obj
