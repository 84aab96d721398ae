"""Closed-form DoF quantities for layered relay chains.

Every hop between adjacent layers behaves like a single-hop X network whose
achievable sum DoF is M*N/(M+N-1); the chain combines like series
capacitors, by summing reciprocals.  The cut-set route turns each relay
layer into one multi-antenna super node, giving min(M, N) per hop and the
matching harmonic combination.  Both sums come from one integer weight
per layer, unit/size (``_layer_weights``), kept by a topology once computed
(``_topology_sums``).  Every other value is a closed form in the integers
of those sums, an/ad and bn/bd, or of the endpoint sizes, and each public
result is one exact ExtRational built from a numerator and a denominator.
A hop value is formatted as it enters the hop caches; reports read its text.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
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
    return _formatted(ExtRational(m * n, m + n - 1))


@lru_cache(maxsize=None)
def _hop_cutset(m: ExtCount, n: ExtCount) -> ExtRational:
    return _count_dof(min(m, n))


@lru_cache(maxsize=None)
def _count_dof(size: ExtCount) -> ExtRational:
    """One shared value per layer size, for every hop whose value it is."""
    return _formatted(ExtRational(size))


def _formatted(value: ExtRational) -> ExtRational:
    """``value`` with its text made, unless it is past the int-string limit."""
    try:
        str(value)
    except ValueError:  # left for the report to raise
        pass
    return value


def _layer_weights(sizes: Sequence[ExtCount]) -> tuple[int, list[int], list[int]]:
    """(unit = lcm of the finite sizes, then per layer unit/size and the size, 0 if infinite)."""
    finite = _finite_sizes(sizes)
    unit = math.lcm(*finite)
    weight = {s: unit // s for s in finite}
    plain = dict(zip(finite, finite))
    return unit, list(map(weight.get, sizes, repeat(0))), list(map(plain.get, sizes, repeat(0)))


def _reciprocal_sums(sizes: Sequence[ExtCount]) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha_k, sum of 1/beta_k) over the chain's hops, exactly:
    ``_weight_sums`` of its ``_layer_weights``."""
    return _weight_sums(*_layer_weights(sizes))


def _weight_sums(unit: int, w: list[int], plain: list[int]) -> tuple[Fraction, Fraction]:
    """The two reciprocal sums in a chain's ``_layer_weights``.

    A hop (m, n) adds 1/beta = max(1/m, 1/n) = (w_m + w_n + |w_m - w_n|) / (2 * unit)
    and 1/alpha = 1/m + 1/n - 1/(mn) = (w_m + w_n) / unit - 1/(mn), where the
    1/(mn) term, unit**2 // (mn) over unit**2, is there only when both ends
    are finite; this covers hops with one or two infinite ends as well.
    Every sum is a C-level pass, over the layers or over the distinct mn,
    and no two weights are multiplied, so each term costs time linear in
    unit's digits.  The whole is not linear: on a chain of distinct primes
    every mn is distinct and unit has O(L) digits, so the sums cost O(L**2).
    """
    # sum over hops of (w_m + w_n): every layer twice except the two ends
    ends = 2 * sum(w) - w[0] - w[-1]
    spreads = sum(map(abs, map(operator.sub, w, w[1:])))
    # how many hops have each product m*n, over hops with two finite ends
    tied = Counter(filter(None, map(operator.mul, plain, plain[1:])))
    square = unit * unit
    cross = sum(map(operator.mul, map(square.__floordiv__, tied), tied.values()))
    return Fraction(unit * ends - cross, square), Fraction(ends + spreads, 2 * unit)


_store_sums = NetworkTopology._sums.__set__


def _topology_sums(t: NetworkTopology) -> tuple[Fraction, Fraction]:
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


def _harmonic(inverse_sum: Fraction) -> ExtRational:
    n, d = inverse_sum.as_integer_ratio()
    return ExtRational(d, n) if n else ExtRational(INFINITY)


def _gaps(inv_alpha: Fraction, inv_beta: Fraction) -> tuple[ExtRational, ExtRational, ExtRational]:
    """(inverse gap g/(ad*bd), absolute gap g/(an*bn), fractional bound g/(ad*bn)) with
    g = an*bd - bn*ad, from sum 1/alpha = an/ad > 0 and sum 1/beta = bn/bd."""
    an, ad = inv_alpha.as_integer_ratio()
    bn, bd = inv_beta.as_integer_ratio()
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
    unit, w, plain = _layer_weights(sizes)
    inv_alpha, inv_beta = _weight_sums(unit, w, plain)
    members = _bounding_set(sizes)
    # 1/max(m, n) of a hop is min(w_m, w_n)/unit, 0 with an infinite end
    bound1 = ExtRational(sum(min(w[k], w[k + 1]) for k in members), unit)
    smallest_tx = min(map(sizes.__getitem__, members), default=INFINITY)
    bound2 = ExtRational(len(members)) * ExtRational(smallest_tx).reciprocal()
    # an all-infinite chain has both sums 0, and no gap
    return _gaps(inv_alpha, inv_beta)[0] if inv_alpha else ExtRational(0), bound1, bound2


def absolute_and_fractional_gap(sizes: Sequence[ExtCount]) -> tuple[ExtRational, ExtRational]:
    """Absolute bound gap and an upper bound on the fractional gap.

    The absolute gap is the cut-set value minus the achievable value; the
    fractional bound is cutset * (1/achievable - 1/cutset), which dominates
    (gap / capacity).  Undefined when the chain is unbounded on both routes.
    """
    inv_alpha, inv_beta = _reciprocal_sums(sizes)
    if inv_alpha == 0:
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
    tx, rx = sizes[:-1], sizes[1:]
    ends = sizes[0], sizes[-1]
    endpoints_finite = INFINITY not in ends
    return AnalysisReport(
        achievable=_harmonic(inv_alpha),
        achievable_per_hop=tuple(map(_hop_achievable, tx, rx)),
        cutset=_harmonic(inv_beta),
        cutset_per_hop=tuple(map(_hop_cutset, tx, rx)),
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
    """``str`` of each value, read from the texts the hop caches made if all have one."""
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
