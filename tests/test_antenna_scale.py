"""``antenna_scale_check`` scales layer sizes, not antenna lists: the
route that built the scaled topology is the reference model's oracle of it."""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.analysis import achievable_sum_dof
from relaydof.model import INFINITY, LayerSpec, NetworkTopology, TopologyError, parse_topology
from relaydof.scaling import antenna_scale_check

import reference
from support import outcome


_scale_layers = st.one_of(
    st.integers(1, 12).map(LayerSpec),
    st.just(LayerSpec(INFINITY)),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda a: LayerSpec(antennas=tuple(a))),
)


@settings(max_examples=300, deadline=None)
@given(
    layers=st.lists(_scale_layers, min_size=2, max_size=5),
    s=st.one_of(st.integers(-2, 6), st.sampled_from([True, False, 2.0, "2", None, Fraction(2)])),
)
def test_antenna_scale_check_matches_the_expanding_route(layers, s):
    t = NetworkTopology(tuple(layers))
    assert outcome(antenna_scale_check, t, s) == outcome(reference.antenna_scale, t, s)


def test_antenna_scale_check_reports_a_bad_factor_before_an_infinite_layer():
    t = NetworkTopology((LayerSpec(2), LayerSpec(INFINITY), LayerSpec(INFINITY)))
    with pytest.raises(TopologyError, match="antenna scale factor must be a positive integer, got 0"):
        antenna_scale_check(t, 0)
    with pytest.raises(TopologyError, match="^layer 1: cannot antenna-scale an infinite layer$"):
        antenna_scale_check(t, 2)


def test_antenna_scale_check_expands_no_node():
    t = parse_topology('{"layers":[{"nodes":1000000},{"nodes":3},{"nodes":1000000}]}')
    tracemalloc.start()
    start = time.perf_counter()
    alpha_1, alpha_s, ratio = antenna_scale_check(t, 3)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1_000_000
    assert alpha_1 == achievable_sum_dof([10**6, 3, 10**6])
    assert alpha_s == achievable_sum_dof([3 * 10**6, 9, 3 * 10**6])
    assert ratio == alpha_s / alpha_1
