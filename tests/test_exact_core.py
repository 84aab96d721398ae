"""The one-pass exact core against the reference model's per-hop sums,
report and region constraints, the way ``recurrence_sum_dof`` is kept as an
oracle for the closed form.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relaydof
from relaydof.analysis import (
    AnalysisError,
    AnalysisReport,
    absolute_and_fractional_gap,
    achievable_sum_dof,
    analyze,
    cutset_sum_dof,
    hop_achievable_dof,
    inverse_gap,
)
from relaydof.model import INFINITY, DemandMatrix, ExtRational, Infinity, LayerSpec, NetworkTopology
from relaydof.region import check_demand, max_uniform_scale
from relaydof.scaling import FamilySpec, classify

import reference
from support import calls, layers


# -- analysis -----------------------------------------------------------------


@settings(deadline=None)
@given(st.lists(layers(), min_size=2, max_size=80))
def test_analyze_matches_the_extrational_route(chain):
    t = NetworkTopology(tuple(chain))
    sizes = t.effective_sizes()
    if all(isinstance(s, Infinity) for s in sizes):
        with pytest.raises(AnalysisError):
            analyze(t)
        return
    assert analyze(t) == AnalysisReport(**reference.report(sizes))
    assert (achievable_sum_dof(sizes), cutset_sum_dof(sizes)) == reference.sum_dofs(sizes)


@pytest.mark.parametrize(
    "sizes",
    [
        [2, INFINITY] * 6 + [3],
        [INFINITY, INFINITY, 4, INFINITY, 4, INFINITY, INFINITY],
        [5] * 40,
        [1, 2] * 20 + [INFINITY],
    ],
)
def test_repeated_hops_count_every_time(sizes):
    t = NetworkTopology(tuple(LayerSpec(nodes=s) for s in sizes))
    assert analyze(t) == AnalysisReport(**reference.report(sizes))


def test_analyze_builds_few_extrationals(monkeypatch):
    sizes = [INFINITY if k % 97 == 0 else 1 + (k * k) % 64 for k in range(1, 4001)]
    t = NetworkTopology(tuple(LayerSpec(nodes=s) for s in sizes))
    analyze(t)  # fills the hop_*_dof caches
    built = calls(monkeypatch, ExtRational, "__init__")
    analyze(t)
    assert len(built) < 50


@pytest.mark.parametrize(
    "fn", [achievable_sum_dof, cutset_sum_dof, inverse_gap, absolute_and_fractional_gap]
)
@pytest.mark.parametrize(
    "sizes, message",
    [
        ([0, 2], "transmitter count must be a positive integer or INFINITY, got 0"),
        ([2, 3, 0, INFINITY, -1], "receiver count must be a positive integer or INFINITY, got 0"),
        ([2, 3, True], "receiver count .* got True"),
        ([Fraction(2), 3], "transmitter count .* got Fraction"),
        ([3], "need at least 2 layers"),
    ],
)
def test_every_chain_quantity_validates_its_sizes(fn, sizes, message):
    hop_achievable_dof(2, 3)  # a cached hop never stands in for validation
    with pytest.raises(AnalysisError, match=message):
        fn(sizes)


# -- region -------------------------------------------------------------------


@st.composite
def demands(draw):
    """A chain with finite endpoints and a demand on it: sparse, or dense on
    16 x 16 endpoints.  A relay layer may be unbounded or past 10**400."""
    dense = draw(st.integers(0, 3)) == 0
    relay = st.one_of(st.integers(1, 16), st.just(INFINITY), st.integers(0, 9).map(lambda k: 10**400 + k))
    relays = draw(st.lists(relay, min_size=0, max_size=4))
    if dense:
        src, dst = LayerSpec(nodes=16), LayerSpec(nodes=16)
    else:
        endpoint = st.one_of(
            st.integers(1, 12).map(lambda n: LayerSpec(nodes=n)),
            st.lists(st.integers(1, 4), min_size=1, max_size=6).map(lambda a: LayerSpec(antennas=tuple(a))),
        )
        src, dst = draw(endpoint), draw(endpoint)
    t = NetworkTopology((src, *(LayerSpec(nodes=n) for n in relays), dst))
    value = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))
    n_src, n_dst = src.node_count, dst.node_count
    if dense:
        cells = {(j, i): draw(value) for j in range(n_dst) for i in range(n_src)}
    else:
        keys = st.tuples(st.integers(0, n_dst - 1), st.integers(0, n_src - 1))
        cells = draw(st.dictionaries(keys, value, min_size=1, max_size=12))
    return t, DemandMatrix(cells)


@settings(deadline=None)
@given(demands(), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(11, 10)]))
def test_region_matches_per_row_and_column_sums(case, factor):
    t, pattern = case
    assert check_demand(t, pattern) == reference.verdict(t, pattern.entries)
    result = max_uniform_scale(t, pattern)
    t_star = reference.t_star(t, pattern.entries)
    assert result.t_star == t_star
    assert result.scaled == pattern.scale(t_star)
    assert result.verdict == reference.verdict(t, result.scaled.entries)
    near = pattern.scale(t_star * factor)
    assert check_demand(t, near) == reference.verdict(t, near.entries)


# -- scaling without numpy ----------------------------------------------------


def test_import_leaves_numpy_out():
    src = str(Path(relaydof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, relaydof; print(relaydof.__file__); print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    origin, numpy_loaded = out.stdout.split()
    assert Path(origin).resolve() == Path(relaydof.__file__).resolve()
    assert numpy_loaded == "False"


@pytest.mark.parametrize(
    "family",
    [
        FamilySpec(kind="ProportionalFixedK", base=(Fraction(1), Fraction(1), Fraction(1))),
        FamilySpec(kind="PinnedLayerFixedK", base=(Fraction(1), Fraction(1), Fraction(1)), pinned=((1, 2),)),
        FamilySpec(kind="FixedSizesGrowingK", base=(Fraction(2),)),
    ],
    ids=lambda f: f.kind,
)
def test_slope_matches_polyfit(family):
    np = pytest.importorskip("numpy")
    verdict = classify(family)
    xs = [math.log(n) for n, _ in verdict.samples]
    ys = [math.log(float(alpha)) for _, alpha in verdict.samples]
    assert abs(verdict.slope_estimate - float(np.polyfit(xs, ys, 1)[0])) <= 1e-12
