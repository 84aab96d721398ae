"""Family samples as size sequences: the reference model's topology-building
route as the oracle of ``_family_sizes``, and its exact limit of alpha(n) as
the oracle of the fitted class."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof import scaling
from relaydof.analysis import achievable_sum_dof
from relaydof.model import LayerSpec, NetworkTopology
from relaydof.scaling import FamilyError, FamilySpec, _family_sizes, classify, evaluate_family

import reference
from support import outcome


# the ranges relaybench/docs.family draws, plus antenna-scaled bases
_profile_entry = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))


@st.composite
def families(draw):
    kind = draw(st.sampled_from(scaling.FAMILY_KINDS))
    if kind == "ProportionalFixedK":
        return FamilySpec(kind=kind, base=tuple(draw(st.lists(_profile_entry, min_size=2, max_size=5))))
    if kind == "PinnedLayerFixedK":
        length = draw(st.integers(3, 5))
        layers = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=length - 1, unique=True))
        return FamilySpec(
            kind=kind,
            base=tuple(Fraction(draw(st.integers(1, 3))) for _ in range(length)),
            pinned=tuple((k, draw(st.integers(1, 4))) for k in layers),
        )
    if kind == "FixedSizesGrowingK":
        return FamilySpec(kind=kind, base=(Fraction(draw(st.integers(1, 4))),))
    layer = st.one_of(
        st.builds(LayerSpec, nodes=st.integers(1, 6)),
        st.builds(LayerSpec, antennas=st.lists(st.integers(1, 4), min_size=1, max_size=4)),
    )
    return FamilySpec(kind=kind, topology=NetworkTopology(tuple(draw(st.lists(layer, min_size=2, max_size=5)))))


# -- the topology-building route as the oracle ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(families(), st.lists(st.integers(0, 5000), min_size=1, max_size=8))
def test_family_sizes_match_the_topology_route(f, ns):
    for n in [*range(0, 9), *ns]:
        expected = outcome(reference.reference_family, f, n, errors=FamilyError)
        if expected[0] != "ok":
            assert outcome(_family_sizes, f, n, errors=FamilyError) == expected
            assert outcome(evaluate_family, f, n, errors=FamilyError) == expected
            continue
        topology, alpha = expected[1]
        assert _family_sizes(f, n) == list(topology.effective_sizes())
        assert evaluate_family(f, n) == (topology, alpha)


def test_antenna_scaled_classify_expands_no_layer(monkeypatch):
    family = scaling.parse_family(
        '{"kind":"AntennaScaled","topology":{"layers":[{"nodes":100000000},{"nodes":3},{"nodes":100000000}]}}'
    )

    def refuse(*args, **kwargs):
        raise AssertionError("classify built a layer")

    monkeypatch.setattr(scaling, "scale_antennas", refuse)
    monkeypatch.setattr(LayerSpec, "__init__", refuse)
    start = time.perf_counter()
    verdict = classify(family)
    assert time.perf_counter() - start < 1
    assert verdict.classification == "Linear"
    assert verdict.samples[0] == (16, achievable_sum_dof([16 * 10**8, 48, 16 * 10**8]))


# -- the exact limit of alpha(n) as the oracle of the fitted class -----------------------


CLASS_OF_EXPONENT = {1: "Linear", 0: "Constant", -1: "Inverse"}


@settings(max_examples=150, deadline=None)
@given(families())
def test_alpha_tends_to_the_exact_limit(f):
    p, c = reference.exact_limit(f)
    # far enough out that alpha sits well inside the 1e-3 tolerance of its
    # limit; a growing-depth family is a list of about n/s layers
    n = 10**5 if f.kind == "FixedSizesGrowingK" else 10**12
    alpha = achievable_sum_dof(_family_sizes(f, n)).as_fraction()
    assert 0 < c and abs(alpha / Fraction(n) ** p - c) <= c / 1000


@settings(max_examples=150, deadline=None)
@given(families())
def test_fitted_class_is_never_another_than_the_limit_class(f):
    # Unclassified is allowed here: some families are still far from their
    # limit over the sample grid (the strict xfail cases below)
    verdict = classify(f)
    assert verdict.classification in (None, CLASS_OF_EXPONENT[reference.exact_limit(f)[0]])


@pytest.mark.parametrize(
    "f",
    [
        FamilySpec(kind="ProportionalFixedK", base=tuple(map(Fraction, ("1/4", "1/4", "4", "4")))),
        FamilySpec(kind="PinnedLayerFixedK", base=tuple(map(Fraction, (1, 3, 3, 1))), pinned=((0, 4),)),
        # the second layer is 1 node at every sampled n, so the fit names
        # Constant with confidence where the limit is Linear
        FamilySpec(kind="ProportionalFixedK", base=(Fraction(10**300), Fraction(1))),
    ],
    ids=["proportional-quarter-quarter-4-4", "pinned-1-3-3-1-first-at-4", "proportional-1e300-1"],
)
@pytest.mark.xfail(strict=True, reason="the sample grid ends before these families near their limit")
def test_fitted_class_is_the_limit_class(f):
    assert classify(f).classification == CLASS_OF_EXPONENT[reference.exact_limit(f)[0]]

