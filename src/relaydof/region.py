"""Membership and scaling of demand matrices in the achievable DoF region.

The region is a simple closed polytope over the per-message DoF values:
one total constraint and one share constraint per source and per
destination node, each share proportional to that node's antenna count.
For single-antenna endpoints the shares reduce to an even 1/|V| split.
All comparisons are exact; the boundary is feasible.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import achievable_sum_dof
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

    def __init__(self, constraint: str, lhs: ExtRational, rhs: ExtRational):
        put_constraint, put_lhs, put_rhs = self._put
        put_constraint(self, constraint)
        put_lhs(self, lhs)
        put_rhs(self, rhs)


class RegionVerdict(Record):
    __slots__ = _fields = ("feasible", "violations", "binding")

    def __init__(self, feasible: bool, violations: tuple[Violation, ...], binding: tuple[str, ...]):
        put_feasible, put_violations, put_binding = self._put
        put_feasible(self, feasible)
        put_violations(self, violations)
        put_binding(self, binding)


class ScaleResult(Record):
    """Largest feasible uniform scaling of a demand pattern."""

    __slots__ = _fields = ("t_star", "scaled", "verdict")

    def __init__(self, t_star: ExtRational, scaled: DemandMatrix, verdict: RegionVerdict):
        put_t_star, put_scaled, put_verdict = self._put
        put_t_star(self, t_star)
        put_scaled(self, scaled)
        put_verdict(self, verdict)


def _constraints(t: NetworkTopology, d: DemandMatrix) -> list[tuple[str, Fraction, Fraction]]:
    """The region constraints as (id, lhs, rhs), exactly, in report order.

    A source or destination without demand has lhs 0 below its positive
    share, so it can be neither violated nor binding and is left out: the
    cost follows the demand, not the endpoint sizes.
    """
    errors = validate_demand(t, d)
    if errors:
        raise DemandError("; ".join(errors))
    alpha = achievable_sum_dof(t.effective_sizes()).as_fraction()
    unit, rows, cols = d.unit_sums()
    constraints = [("total", Fraction(sum(rows.values()), unit), alpha)]
    for prefix, layer, sums in (("src", t.source_layer, rows), ("dst", t.destination_layer, cols)):
        antennas = layer.antennas
        share: dict[int, Fraction] = {}
        for k in sorted(sums):
            a = 1 if antennas is None else antennas[k]
            if a not in share:
                share[a] = alpha * Fraction(a, layer.effective_size)
            constraints.append((f"{prefix}:{k + 1}", Fraction(sums[k], unit), share[a]))
    return constraints


def _verdict(constraints) -> RegionVerdict:
    violations = []
    binding = []
    for name, lhs, rhs in constraints:
        if lhs > rhs:
            violations.append(Violation(name, ExtRational(lhs), ExtRational(rhs)))
        elif lhs == rhs:
            binding.append(name)
    return RegionVerdict(
        feasible=not violations,
        violations=tuple(violations),
        binding=tuple(binding),
    )


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
    t_star = min(rhs / lhs for _, lhs, rhs in constraints if lhs != 0)
    # every left-hand side is a sum of entries, so scaling the pattern by t*
    # scales each one by t* exactly
    verdict = _verdict((name, lhs * t_star, rhs) for name, lhs, rhs in constraints)
    return ScaleResult(t_star=ExtRational(t_star), scaled=pattern.scale(t_star), verdict=verdict)


def verdict_to_obj(v: RegionVerdict) -> dict:
    return {
        "feasible": v.feasible,
        "violations": [
            {"constraint": x.constraint, "lhs": str(x.lhs), "rhs": str(x.rhs)}
            for x in v.violations
        ],
        "binding": list(v.binding),
    }
