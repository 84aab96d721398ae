"""Membership and scaling of demand matrices in the achievable DoF region.

The region is a simple closed polytope over the per-message DoF values:
one total constraint and one share constraint per source and per
destination node, each share proportional to that node's antenna count.
For single-antenna endpoints the shares reduce to an even 1/|V| split.
Both sides of a constraint are integer ratios, compared exactly by
cross-multiplication; the boundary is feasible.
"""

from __future__ import annotations

from .analysis import _topology_sums
from .model import DemandError, DemandMatrix, ExtRational, NetworkTopology, Record, validate_demand

__all__ = [
    "Violation",
    "RegionVerdict",
    "ScaleResult",
    "check_demand",
    "max_uniform_scale",
    "verdict_to_obj",
]


class Violation(Record):
    """One failed constraint: identifier plus both sides of the comparison."""

    __slots__ = _fields = ("constraint", "lhs", "rhs")

    constraint: str
    lhs: ExtRational
    rhs: ExtRational


class RegionVerdict(Record):
    __slots__ = _fields = ("feasible", "violations", "binding")

    feasible: bool
    violations: tuple[Violation, ...]
    binding: tuple[str, ...]


class ScaleResult(Record):
    """Largest feasible uniform scaling of a demand pattern."""

    __slots__ = _fields = ("t_star", "scaled", "verdict")

    t_star: ExtRational
    scaled: DemandMatrix
    verdict: RegionVerdict


def _constraints(t: NetworkTopology, d: DemandMatrix) -> list[tuple[str, int, int, int, int]]:
    """The region constraints as (id, p, q, r, s): lhs p/q against rhs r/s, in
    report order.  A sum of p demand units is p/unit, and the share of a node
    with a of its layer's S antennas is alpha*a/S = ad*a/(an*S).  A source or
    destination without demand has lhs 0 below its positive share, so it is
    left out: the cost follows the demand, not the endpoint sizes.
    """
    errors = validate_demand(t, d)
    if errors:
        raise DemandError("; ".join(errors))
    # finite endpoints give a positive sum, so alpha is finite
    an, ad = _topology_sums(t)[0]
    unit, rows, cols = d.unit_sums()
    constraints = [("total", sum(rows.values()), unit, ad, an)]
    for prefix, layer, sums in (("src", t.source_layer, rows), ("dst", t.destination_layer, cols)):
        antennas = layer.antennas
        s = an * layer.effective_size
        for k in sorted(sums):
            a = 1 if antennas is None else antennas[k]
            constraints.append((f"{prefix}:{k + 1}", sums[k], unit, ad * a, s))
    return constraints


def _verdict(constraints) -> RegionVerdict:
    violations = []
    binding = []
    for name, p, q, r, s in constraints:
        lhs, rhs = p * s, r * q  # p/q against r/s, cross-multiplied
        if lhs > rhs:
            violations.append(Violation(name, ExtRational(p, q), ExtRational(r, s)))
        elif lhs == rhs:
            binding.append(name)
    return RegionVerdict(not violations, tuple(violations), tuple(binding))


def check_demand(t: NetworkTopology, d: DemandMatrix) -> RegionVerdict:
    """Exact membership check; reports every violated and binding constraint."""
    return _verdict(_constraints(t, d))


def max_uniform_scale(t: NetworkTopology, pattern: DemandMatrix) -> ScaleResult:
    """Scale a nonzero pattern to the region boundary.

    Returns the largest t* >= 0 with t* * pattern feasible; at least one
    constraint is binding at t*.
    """
    if pattern.is_zero:
        raise DemandError("cannot scale a zero demand pattern")
    constraints = _constraints(t, pattern)
    # t* is the least rhs/lhs = r*q/(s*p), found by cross-multiplication;
    # 1/0 stands above every candidate
    num, den = 1, 0
    for _, p, q, r, s in constraints:
        if r * q * den < num * s * p:
            num, den = r * q, s * p
    # every left-hand side is a sum of entries, so scaling the pattern by t*
    # scales each one by t* exactly
    verdict = _verdict((name, p * num, q * den, r, s) for name, p, q, r, s in constraints)
    t_star = ExtRational(num, den)
    return ScaleResult(t_star=t_star, scaled=pattern.scale(t_star), verdict=verdict)


def verdict_to_obj(v: RegionVerdict) -> dict:
    return {
        "feasible": v.feasible,
        "violations": [
            {"constraint": x.constraint, "lhs": str(x.lhs), "rhs": str(x.rhs)}
            for x in v.violations
        ],
        "binding": list(v.binding),
    }
