"""Closed-form DoF quantities for layered relay chains.

Every hop between adjacent layers behaves like a single-hop X network whose
achievable sum DoF is M*N/(M+N-1); the chain combines like series
capacitors, by summing reciprocals.  The cut-set route turns each relay
layer into one multi-antenna super node, giving min(M, N) per hop and the
matching harmonic combination.  Both sums of reciprocals come from one
integer weight per layer, unit/size (``_reciprocal_sums``); every public
result is an exact ExtRational.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat

from .model import ExtCount, ExtRational, Infinity, INFINITY, NetworkTopology, Record

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


class AnalysisReport(Record):
    """All derived DoF quantities for one topology.

    ``ultimate_capacity`` and ``relay_loss_factor`` are populated only when
    both endpoint layers are finite.
    """

    __slots__ = _fields = (
        "achievable",
        "achievable_per_hop",
        "cutset",
        "cutset_per_hop",
        "inverse_gap",
        "absolute_gap",
        "fractional_gap_bound",
        "bounding_set",
        "optimal",
        "ultimate_capacity",
        "relay_loss_factor",
    )

    def __init__(
        self,
        achievable: ExtRational,
        achievable_per_hop: tuple[ExtRational, ...],
        cutset: ExtRational,
        cutset_per_hop: tuple[ExtRational, ...],
        inverse_gap: ExtRational,
        absolute_gap: ExtRational,
        fractional_gap_bound: ExtRational,
        bounding_set: frozenset[int],
        optimal: bool,
        ultimate_capacity: ExtRational | None,
        relay_loss_factor: ExtRational | None,
    ):
        a, b, c, d, e, f, g, h, i, j, k = self._put
        a(self, achievable)
        b(self, achievable_per_hop)
        c(self, cutset)
        d(self, cutset_per_hop)
        e(self, inverse_gap)
        f(self, absolute_gap)
        g(self, fractional_gap_bound)
        h(self, bounding_set)
        i(self, optimal)
        j(self, ultimate_capacity)
        k(self, relay_loss_factor)


def _finite_sizes(sizes: Sequence[ExtCount]) -> set[int]:
    """The chain's distinct finite sizes, after validating the whole chain:
    the one check of raw sizes, made once by every public function that takes
    them.  A bad size at index 0 is a transmitter count, later a receiver count.
    """
    if len(sizes) < 2:
        raise AnalysisError("need at least 2 layers")
    if set(map(type, sizes)) <= {int, Infinity}:
        finite = set(sizes)
        finite.discard(INFINITY)
        if min(finite, default=1) >= 1:
            return finite
    for k, value in enumerate(sizes):
        if isinstance(value, bool) or not isinstance(value, (int, Infinity)) or value < 1:
            what = "transmitter count" if k == 0 else "receiver count"
            raise AnalysisError(f"{what} must be a positive integer or INFINITY, got {value!r}")
    return {s for s in sizes if not isinstance(s, Infinity)}


def hop_achievable_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Single-hop X-network sum DoF for M transmitters and N receivers.

    Finite case is M*N/(M+N-1).  With exactly one side infinite the value is
    the finite side (the limit of the finite formula); with both sides
    infinite it is unbounded.
    """
    _finite_sizes((m, n))
    return _hop_achievable(m, n)


def hop_cutset_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Cut-set DoF of one hop: min of the endpoint sizes."""
    _finite_sizes((m, n))
    return _hop_cutset(m, n)


# The caches take only validated sizes: a cache key (2.0, 3) equals (2, 3).
@lru_cache(maxsize=None)
def _hop_achievable(m: ExtCount, n: ExtCount) -> ExtRational:
    if n < m:
        return _hop_achievable(n, m)  # symmetric: (m, n) and (n, m) share one value
    if isinstance(n, Infinity):
        return _count_dof(m)
    return ExtRational(m * n, m + n - 1)


@lru_cache(maxsize=None)
def _hop_cutset(m: ExtCount, n: ExtCount) -> ExtRational:
    return _count_dof(min(m, n))


@lru_cache(maxsize=None)
def _count_dof(size: ExtCount) -> ExtRational:
    """One shared value per layer size, for every hop whose value it is."""
    return ExtRational(size)


def _reciprocal_sums(sizes: Sequence[ExtCount]) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha_k, sum of 1/beta_k) over the chain's hops, exactly.

    With unit = lcm of the finite sizes, every layer has an integer weight
    w = unit/size, 0 for an infinite layer.  A hop (m, n) adds
    1/beta = max(1/m, 1/n) = (w_m + w_n + |w_m - w_n|) / (2 * unit) and
    1/alpha = 1/m + 1/n - 1/(mn) = (w_m + w_n) / unit - 1/(mn), where the
    1/(mn) term, unit**2 // (mn) over unit**2, is there only when both ends
    are finite; this covers hops with one or two infinite ends as well.
    Every sum is a C-level pass over the layers, and no two weights are
    multiplied, so the cost stays linear in the digits of the unit.
    """
    finite = _finite_sizes(sizes)
    unit = math.lcm(*finite)
    weight = {s: unit // s for s in finite}
    w = list(map(weight.get, sizes, repeat(0)))
    # sum over hops of (w_m + w_n): every layer twice except the two ends
    ends = 2 * sum(w) - w[0] - w[-1]
    spreads = sum(map(abs, map(operator.sub, w, w[1:])))
    # m*n of every hop with two finite ends (an infinite layer reads as 0)
    plain = list(map(dict(zip(finite, finite)).get, sizes, repeat(0)))
    tied = filter(None, map(operator.mul, plain, plain[1:]))
    square = unit * unit
    inv_alpha = Fraction(unit * ends - sum(map(square.__floordiv__, tied)), square)
    return inv_alpha, Fraction(ends + spreads, 2 * unit)


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
    _finite_sizes(sizes)
    return _bounding_set(sizes)


def _bounding_set(sizes: Sequence[ExtCount]) -> frozenset[int]:
    # layer k at most 1 leaves out hops k - 1 and k
    small = list(compress(count(), map(operator.le, sizes, repeat(1))))
    return frozenset(range(len(sizes) - 1)).difference(small, map(operator.sub, small, repeat(1)))


def inverse_gap(sizes: Sequence[ExtCount]) -> tuple[ExtRational, ExtRational, ExtRational]:
    """Exact reciprocal-space gap between the bounds, plus two upper bounds.

    Returns (exact, bound1, bound2) with exact <= bound1 <= bound2.  Hops
    with an infinite endpoint contribute nothing; when no hop can contribute
    the bounds are 0 as well.
    """
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    members = _bounding_set(sizes)
    bound1 = ExtRational(0)
    for k in members:
        bound1 = bound1 + ExtRational(max(sizes[k], sizes[k + 1])).reciprocal()
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
    _finite_sizes(sizes)
    return all(
        m == 1 or n == 1 or isinstance(m, Infinity) or isinstance(n, Infinity)
        for m, n in zip(sizes, sizes[1:])
    )


def ultimate_capacity(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Sum DoF ceiling once every relay layer grows without bound."""
    _finite_sizes((source_size, destination_size))
    if isinstance(source_size, Infinity) or isinstance(destination_size, Infinity):
        raise AnalysisError("ultimate capacity needs finite endpoint layers")
    return (ExtRational(1, source_size) + ExtRational(1, destination_size)).reciprocal()


def relay_loss_factor(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Fraction of single-hop X-network DoF that survives relaying.

    Equals the ultimate capacity divided by the direct-link X-network value,
    i.e. 1 - 1/(S0 + SK1); worst case 1/2 with one source and one
    destination.
    """
    _finite_sizes((source_size, destination_size))
    if isinstance(source_size, Infinity) or isinstance(destination_size, Infinity):
        raise AnalysisError("relay loss factor needs finite endpoint layers")
    return ExtRational(1) - ExtRational(1, source_size + destination_size)


def analyze(t: NetworkTopology) -> AnalysisReport:
    """Full report over the topology's effective (antenna-split) sizes."""
    sizes = t.effective_sizes()
    if all(isinstance(s, Infinity) for s in sizes):
        raise AnalysisError("all layers infinite: bounds are unbounded and the gap is undefined")
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    lower, upper = 1 / inv_alpha, 1 / inv_beta
    tx, rx = sizes[:-1], sizes[1:]
    endpoints_finite = not (
        isinstance(sizes[0], Infinity) or isinstance(sizes[-1], Infinity)
    )
    return AnalysisReport(
        achievable=ExtRational(lower),
        achievable_per_hop=tuple(map(_hop_achievable, tx, rx)),
        cutset=ExtRational(upper),
        cutset_per_hop=tuple(map(_hop_cutset, tx, rx)),
        inverse_gap=ExtRational(inv_alpha - inv_beta),
        absolute_gap=ExtRational(upper - lower),
        fractional_gap_bound=ExtRational(upper * (inv_alpha - inv_beta)),
        bounding_set=_bounding_set(sizes),
        # a hop's gap (min - 1)/(mn) is zero exactly when it has a 1 or an
        # infinite end, so the sums agree exactly when every hop does
        optimal=inv_alpha == inv_beta,
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
        "achievable_per_hop": list(map(str, report.achievable_per_hop)),
        "cutset": str(report.cutset),
        "cutset_per_hop": list(map(str, report.cutset_per_hop)),
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
