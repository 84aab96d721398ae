"""Closed-form DoF quantities for layered relay chains.

Every hop between adjacent layers behaves like a single-hop X network whose
achievable sum DoF is M*N/(M+N-1); the chain combines like series
capacitors, by summing reciprocals.  The cut-set route turns each relay
layer into one multi-antenna super node, giving min(M, N) per hop and the
matching harmonic combination.  Both sums come from one integer weight
per layer, unit/size (``_layer_weights``), as two reduced integer pairs an/ad
and bn/bd kept by a topology once computed (``_topology_sums``).  Their
1/(mn) terms take one product of two weights per hop while unit is short,
else one division of unit**2 per distinct hop product, a route that costs
O(L**2) on a chain of L distinct primes (``_weight_sums``).  Every other
value is a closed form in those integers or the endpoint sizes, and each
reported value is one ExtRational built at the end from two integers.
Both values of a hop come from one bounded cache of size pairs
(``_hop_values``), each with its text made as it enters; any other value
gets its text from its first report, which keeps it for the next.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
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
    """All derived DoF quantities for one topology; ``ultimate_capacity`` and
    ``relay_loss_factor`` are None unless both endpoint layers are finite."""

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


def _finite_sizes(sizes: Sequence[ExtCount], receivers: int = 1) -> set[int]:
    """The chain's distinct finite sizes, after validating the whole chain:
    the one check of raw sizes, made once by every public function that takes
    them.  A bad size before index ``receivers`` is a transmitter count, later
    a receiver count: chains pass 1, phase lists their last index.
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
            what = "transmitter count" if k < receivers else "receiver count"
            raise AnalysisError(f"{what} must be a positive integer or INFINITY, got {value!r}")
    return {s for s in sizes if not isinstance(s, Infinity)}


def hop_achievable_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Single-hop X-network sum DoF for M transmitters and N receivers.

    Finite case is M*N/(M+N-1).  With exactly one side infinite the value is
    the finite side (the limit of the finite formula); with both sides
    infinite it is unbounded.
    """
    _finite_sizes((m, n))
    return _hop_values(m, n)[0]


def hop_cutset_dof(m: ExtCount, n: ExtCount) -> ExtRational:
    """Cut-set DoF of one hop: min of the endpoint sizes."""
    _finite_sizes((m, n))
    return _hop_values(m, n)[1]


# The hop cache's bound, in ordered size pairs: exact-core's effective sizes
# are 1..64 and inf, at most 65**2 = 4,225 pairs, so its whole working set
# fits, and a long-lived process keeps no more pairs than this.
_HOP_PAIRS = 8192


@lru_cache(maxsize=_HOP_PAIRS)
def _hop_values(m: ExtCount, n: ExtCount) -> tuple[ExtRational, ExtRational]:
    """(achievable, cut-set) of one hop of validated sizes (a key (2.0, 3)
    equals (2, 3)), each value with its text made here, so that a report
    reads every hop's text in one pass."""
    if n < m:
        return _hop_values(n, m)  # symmetric: (m, n) and (n, m) share one pair
    cutset = ExtRational(m)
    achievable = cutset if isinstance(n, Infinity) else ExtRational(m * n, m + n - 1)
    try:
        str(cutset), str(achievable)
    except ValueError:
        pass  # past the int-string limit: left without a text, for the report to raise
    return achievable, cutset


def _layer_weights(sizes: Sequence[ExtCount]) -> tuple[int, list[int]]:
    """(unit = lcm of the finite sizes, then per layer unit/size, 0 if infinite)."""
    finite = _finite_sizes(sizes)
    unit = math.lcm(*finite)
    weight = {s: unit // s for s in finite}
    return unit, list(map(weight.get, sizes, repeat(0)))


def _reciprocal_sums(sizes: Sequence[ExtCount]) -> tuple[tuple[int, int], tuple[int, int]]:
    """(sum of 1/alpha_k, sum of 1/beta_k) over the chain's hops, as reduced
    (numerator, denominator) pairs: ``_weight_sums`` of its ``_layer_weights``."""
    return _weight_sums(sizes, *_layer_weights(sizes))


def _weight_sums(sizes: Sequence[ExtCount], unit: int, w: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two reciprocal sums of a chain from its ``_layer_weights``, each reduced by one gcd.

    A hop (m, n) adds 1/beta = max(1/m, 1/n) = (w_m + w_n + |w_m - w_n|) / (2 * unit)
    and 1/alpha = 1/m + 1/n - 1/(mn) = (w_m + w_n) / unit - 1/(mn), where the
    1/(mn) term, unit**2 // (mn) = w_m * w_n over unit**2, is there only when
    both ends are finite; this covers hops with one or two infinite ends as
    well.  Every sum is a C-level pass, and unit's bit length picks the
    route of the 1/(mn) terms.
    """
    # sum over hops of (w_m + w_n): every layer twice except the two ends
    ends = 2 * sum(w) - w[0] - w[-1]
    spreads = sum(map(abs, map(operator.sub, w, w[1:])))
    square = unit * unit
    cross = _cross_by_multiply(w) if unit.bit_length() <= _MULTIPLY_BITS else _cross_by_count(sizes, square)
    an, bn, bd = unit * ends - cross, ends + spreads, 2 * unit
    g, h = math.gcd(an, square), math.gcd(bn, bd)
    return (an // g, square // g), (bn // h, bd // h)


# Up to this bit length of unit, ``_weight_sums`` multiplies weights.  On
# 1,000-hop chains the multiply route wins below about 240 bits whatever the
# hop products, and up to about 1,000 bits when few products repeat; past
# that its products of two unit-sized weights lose to the count route's
# divisions of unit**2 by short products (2x to 10x at 3,600 bits).  A
# chain of sizes 1..64 has a unit of at most 90 bits, lcm(1..64).
_MULTIPLY_BITS = 240


def _cross_by_multiply(w: list[int]) -> int:
    """Sum over the hops of unit**2 // (mn) as w_m * w_n, which is 0 at an
    infinite end: one product per hop, whose cost grows with the square of
    unit's digits."""
    return sum(map(operator.mul, w, w[1:]))


def _cross_by_count(sizes: Sequence[ExtCount], square: int) -> int:
    """Sum over the hops with two finite ends of square // (mn), square = unit**2:
    one division per distinct product mn, each costing time linear in unit's
    digits.  The whole is not linear: on a chain of distinct primes every mn
    is distinct and unit has O(L) digits, so this route costs O(L**2)."""
    # each size as a plain int, 0 for an infinite layer; reading it back
    # from its weight, unit // w, would cost one long division per layer
    finite = dict(zip(sizes, sizes))
    finite.pop(INFINITY, None)
    plain = list(map(finite.get, sizes, repeat(0)))
    # how many hops have each product m*n, over hops with two finite ends
    tied = Counter(filter(None, map(operator.mul, plain, plain[1:])))
    return sum(map(operator.mul, map(square.__floordiv__, tied), tied.values()))


_store_sums = NetworkTopology._sums.__set__


def _topology_sums(t: NetworkTopology) -> tuple[tuple[int, int], tuple[int, int]]:
    """``_reciprocal_sums`` of the topology's effective sizes, computed on
    first use and kept in its ``_sums`` slot: ``analyze``, the region
    checks and ``antenna_scale_check`` of one topology share one pass.
    """
    try:
        return t._sums
    except AttributeError:
        sums = _reciprocal_sums(t.effective_sizes())
        _store_sums(t, sums)
        return sums


def _harmonic(inverse_sum: tuple[int, int]) -> ExtRational:
    n, d = inverse_sum
    return ExtRational(d, n) if n else ExtRational(INFINITY)


def _gaps(inv_alpha: tuple[int, int], inv_beta: tuple[int, int]) -> tuple[ExtRational, ExtRational, ExtRational]:
    """(inverse gap g/(ad*bd), absolute gap g/(an*bn), fractional bound g/(ad*bn)) with
    g = an*bd - bn*ad, from sum 1/alpha = an/ad > 0 and sum 1/beta = bn/bd."""
    (an, ad), (bn, bd) = inv_alpha, inv_beta
    g = an * bd - bn * ad
    return ExtRational(g, ad * bd), ExtRational(g, an * bn), ExtRational(g, ad * bn)


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
    unit, w = _layer_weights(sizes)
    inv_alpha, inv_beta = _weight_sums(sizes, unit, w)
    members = _bounding_set(sizes)
    # 1/max(m, n) of a hop is min(w_m, w_n)/unit, 0 with an infinite end
    bound1 = ExtRational(sum(min(w[k], w[k + 1]) for k in members), unit)
    smallest_tx = min(map(sizes.__getitem__, members), default=INFINITY)
    bound2 = ExtRational(0) if isinstance(smallest_tx, Infinity) else ExtRational(len(members), smallest_tx)
    # an all-infinite chain has both sums 0, and no gap
    return _gaps(inv_alpha, inv_beta)[0] if inv_alpha[0] else ExtRational(0), bound1, bound2


def absolute_and_fractional_gap(sizes: Sequence[ExtCount]) -> tuple[ExtRational, ExtRational]:
    """Absolute bound gap and an upper bound on the fractional gap.

    The absolute gap is the cut-set value minus the achievable value; the
    fractional bound is cutset * (1/achievable - 1/cutset), which dominates
    (gap / capacity).  Undefined when the chain is unbounded on both routes.
    """
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    if not inv_alpha[0]:
        raise AnalysisError("gap is undefined when both bounds are infinite")
    return _gaps(inv_alpha, inv_beta)[1:]


def is_optimal(sizes: Sequence[ExtCount]) -> bool:
    """True iff every adjacent layer pair contains a 1 or an infinite layer.

    Exactly then the achievable and cut-set values coincide.
    """
    _finite_sizes(sizes)
    return all(1 in hop or INFINITY in hop for hop in zip(sizes, sizes[1:]))


def _endpoint_total(source_size: ExtCount, destination_size: ExtCount, what: str) -> int:
    _finite_sizes((source_size, destination_size))
    if isinstance(source_size, Infinity) or isinstance(destination_size, Infinity):
        raise AnalysisError(f"{what} needs finite endpoint layers")
    return source_size + destination_size


def ultimate_capacity(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Sum DoF ceiling once every relay layer grows without bound: S0*SL/(S0 + SL)."""
    total = _endpoint_total(source_size, destination_size, "ultimate capacity")
    return ExtRational(source_size * destination_size, total)


def relay_loss_factor(source_size: ExtCount, destination_size: ExtCount) -> ExtRational:
    """Fraction of single-hop X-network DoF that survives relaying: the ultimate
    capacity over the direct-link X-network value, 1 - 1/(S0 + SL); worst case
    1/2 with one source and one destination."""
    total = _endpoint_total(source_size, destination_size, "relay loss factor")
    return ExtRational(total - 1, total)


def analyze(t: NetworkTopology) -> AnalysisReport:
    """Full report over the topology's effective (antenna-split) sizes."""
    sizes = t.effective_sizes()
    if not any(map(isinstance, sizes, repeat(int))):
        raise AnalysisError("all layers infinite: bounds are unbounded and the gap is undefined")
    inv_alpha, inv_beta = _topology_sums(t)
    inverse_gap, absolute_gap, fractional_gap_bound = _gaps(inv_alpha, inv_beta)
    pairs = list(map(_hop_values, sizes[:-1], sizes[1:]))
    ends = sizes[0], sizes[-1]
    endpoints_finite = INFINITY not in ends
    return AnalysisReport(
        achievable=_harmonic(inv_alpha),
        achievable_per_hop=tuple(map(operator.itemgetter(0), pairs)),
        cutset=_harmonic(inv_beta),
        cutset_per_hop=tuple(map(operator.itemgetter(1), pairs)),
        inverse_gap=inverse_gap,
        absolute_gap=absolute_gap,
        fractional_gap_bound=fractional_gap_bound,
        bounding_set=_bounding_set(sizes),
        # a hop's gap (min - 1)/(mn) is zero exactly when it has a 1 or an
        # infinite end, so the sums agree exactly when every hop does
        optimal=not inverse_gap,
        ultimate_capacity=ultimate_capacity(*ends) if endpoints_finite else None,
        relay_loss_factor=relay_loss_factor(*ends) if endpoints_finite else None,
    )


def _texts(values: tuple[ExtRational, ...]) -> list[str]:
    """``str`` of each value: one C-level read of the texts they keep, once all have one."""
    # measured (CPython 3.11): calling str() on each instead made exact-core ops_per_s 5.9% lower
    try:
        return list(map(operator.attrgetter("_text"), values))
    except AttributeError:
        return list(map(str, values))


def report_to_obj(report: AnalysisReport) -> dict:
    """JSON-friendly dict with rationals as "p/q" strings, infinity as "inf"."""
    obj = {
        "achievable": str(report.achievable),
        "achievable_per_hop": _texts(report.achievable_per_hop),
        "cutset": str(report.cutset),
        "cutset_per_hop": _texts(report.cutset_per_hop),
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
