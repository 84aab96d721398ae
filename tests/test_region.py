"""Achievable-region membership and boundary scaling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relaydof.analysis import achievable_sum_dof
from relaydof.model import DemandError, DemandMatrix, LayerSpec, NetworkTopology, parse_topology
from relaydof.region import check_demand, max_uniform_scale, verdict_to_obj

from support import chain


T3333 = chain([3, 3, 3, 3])
MIXED = parse_topology('{"layers":[{"antennas":[2,1]},{"antennas":[2,2]},{"antennas":[1,1,1]}]}')


def test_diagonal_demand_binds_every_share():
    d = DemandMatrix({(k, k): Fraction(1, 5) for k in range(3)})
    verdict = check_demand(T3333, d)
    assert verdict.feasible
    for name in ("src:1", "src:2", "src:3", "dst:1", "dst:2", "dst:3", "total"):
        assert name in verdict.binding


def test_weighted_demand_is_feasible():
    d = DemandMatrix(
        {
            (0, 0): Fraction(1, 5),
            (1, 1): Fraction(1, 10),
            (1, 2): Fraction(1, 10),
            (2, 1): Fraction(1, 10),
            (2, 2): Fraction(1, 10),
        }
    )
    verdict = check_demand(T3333, d)
    assert verdict.feasible
    assert "src:1" in verdict.binding


def test_oversized_row_is_rejected():
    verdict = check_demand(T3333, DemandMatrix({(0, 0): Fraction(1, 4)}))
    assert not verdict.feasible
    names = {v.constraint for v in verdict.violations}
    assert "src:1" in names
    src1 = next(v for v in verdict.violations if v.constraint == "src:1")
    assert src1.lhs == Fraction(1, 4) and src1.rhs == Fraction(1, 5)


def test_verdict_serialization_shape():
    obj = verdict_to_obj(check_demand(T3333, DemandMatrix({(0, 0): Fraction(1, 4)})))
    assert obj["feasible"] is False
    assert {"constraint": "src:1", "lhs": "1/4", "rhs": "1/5"} in obj["violations"]


# -- max_uniform_scale --------------------------------------------------------


def test_scale_identity_pattern():
    pattern = DemandMatrix({(k, k): Fraction(1) for k in range(3)})
    result = max_uniform_scale(T3333, pattern)
    assert result.t_star == Fraction(1, 5)
    assert all(v == Fraction(1, 5) for v in result.scaled.entries.values())
    assert result.verdict.feasible and result.verdict.binding


def test_scale_full_pattern_on_2_chain():
    t = chain([2, 2, 2])
    pattern = DemandMatrix({(j, i): Fraction(1) for j in range(2) for i in range(2)})
    result = max_uniform_scale(t, pattern)
    assert result.t_star == Fraction(1, 6)
    assert result.scaled.total == achievable_sum_dof([2, 2, 2])
    assert "total" in result.verdict.binding


def test_scale_on_mixed_antennas():
    pattern = DemandMatrix({(0, 0): Fraction(1), (1, 0): Fraction(1), (2, 1): Fraction(1)})
    result = max_uniform_scale(MIXED, pattern)
    assert result.t_star == Fraction(1, 3)
    assert result.verdict.feasible


def test_scale_rejects_zero_pattern():
    with pytest.raises(DemandError):
        max_uniform_scale(T3333, DemandMatrix({}))


# -- invariants ----------------------------------------------------------------


def _random_pattern(rng, n_src, n_dst):
    entries = {}
    for _ in range(rng.randint(1, n_src * n_dst)):
        key = (rng.randrange(n_dst), rng.randrange(n_src))
        entries[key] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return DemandMatrix(entries)


@given(st.fractions(min_value=0, max_value=1, max_denominator=64), st.integers(0, 2**31 - 1))
def test_scale_feasibility_is_monotone(s, seed):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
    t = chain(sizes)
    pattern = _random_pattern(rng, sizes[0], sizes[-1])
    result = max_uniform_scale(t, pattern)
    below = pattern.scale(result.t_star.as_fraction() * s)
    assert check_demand(t, below).feasible


def test_boundary_scale_always_feasible_and_binding():
    rng = random.Random(13)
    for _ in range(200):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        t = chain(sizes)
        pattern = _random_pattern(rng, sizes[0], sizes[-1])
        result = max_uniform_scale(t, pattern)
        verdict = check_demand(t, result.scaled)
        assert verdict.feasible
        assert len(verdict.binding) >= 1


def test_single_antenna_shares_match_even_split():
    # the antenna-proportional bound must reduce to alpha/|V0| when every
    # node has one antenna, and an explicit [1,1,..] profile must behave
    # exactly like a bare node count
    rng = random.Random(14)
    for _ in range(50):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        as_nodes = chain(sizes)
        as_antennas = NetworkTopology(
            tuple(LayerSpec(antennas=(1,) * s) for s in sizes)
        )
        alpha = achievable_sum_dof(sizes).as_fraction()
        pattern = _random_pattern(rng, sizes[0], sizes[-1])
        result = max_uniform_scale(as_nodes, pattern)
        assert check_demand(as_antennas, result.scaled) == check_demand(as_nodes, result.scaled)
        # direct even-split witness: a single row at alpha/|V0| binds src:1,
        # and fits the column bound exactly when alpha/|V0| <= alpha/|VK1|
        probe = DemandMatrix({(0, 0): alpha / sizes[0]})
        verdict = check_demand(as_nodes, probe)
        assert "src:1" in verdict.binding
        assert verdict.feasible == (sizes[-1] <= sizes[0])


def test_all_rows_binding_forces_total_binding():
    rng = random.Random(15)
    for _ in range(100):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        t = chain(sizes)
        alpha = achievable_sum_dof(sizes).as_fraction()
        share = alpha / (sizes[0] * sizes[-1])
        d = DemandMatrix(
            {(j, i): share for j in range(sizes[-1]) for i in range(sizes[0])}
        )
        verdict = check_demand(t, d)
        assert verdict.feasible
        assert all(f"src:{i + 1}" in verdict.binding for i in range(sizes[0]))
        assert "total" in verdict.binding
