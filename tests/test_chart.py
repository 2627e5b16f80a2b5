"""Model charts: ``Chart.apply`` conjugates each symbol to its model map,
``Chart.inverse`` gives the chart of the inverse map with the same class,
``Chart.parameter`` inverts the commutant's model action, and conjugators
built from two charts conjugate."""

from __future__ import annotations

import cmath
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpiso import (
    DiscAutomorphism,
    Kind,
    classify,
    compose,
    eval_auto,
    find_conjugator,
    identity,
    inverse,
    model_chart,
    parabolic_fixing_one,
    pointwise_distance,
    rotation,
    standard_hyperbolic,
)

from conftest import interior_point, random_by_kind


def disc_points(r_max):
    return st.builds(
        lambda r, theta: r * cmath.exp(1j * theta),
        st.floats(min_value=0.0, max_value=r_max),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


def automorphisms(r_max):
    return st.builds(
        lambda theta, a: DiscAutomorphism(cmath.exp(1j * theta), a),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        disc_points(r_max),
    )


#: canonical maps of each class, well inside their classification bands
canonical = st.one_of(
    st.floats(min_value=0.1, max_value=2.0 * math.pi - 0.1).map(lambda t: rotation(cmath.exp(1j * t))),
    st.floats(min_value=0.05, max_value=0.9).map(standard_hyperbolic),
    st.floats(min_value=0.1, max_value=math.pi - 0.1).map(lambda t: parabolic_fixing_one(cmath.exp(1j * t))),
    st.floats(min_value=0.1, max_value=math.pi - 0.1).map(lambda t: parabolic_fixing_one(cmath.exp(-1j * t))),
)


@st.composite
def symbols(draw):
    """A map of each non-identity class, moved by a random conjugator."""
    kappa, eta = draw(canonical), draw(automorphisms(0.6))
    return compose(eta, compose(kappa, inverse(eta)))


def model(chart, t, zeta):
    """The commutant's model map at ``t`` applied to the chart point ``zeta``."""
    if chart.kind is Kind.ELLIPTIC:
        return cmath.exp(1j * t) * zeta
    if chart.kind is Kind.HYPERBOLIC:
        return math.exp(-2.0 * t) * zeta
    return zeta + t


def preimage(chart, zeta):
    m = chart.m
    return (m[3] * zeta - m[1]) / (m[0] - m[2] * zeta)


@settings(max_examples=150, deadline=None)
@given(symbols(), disc_points(0.6))
def test_chart_conjugates_the_symbol_to_its_model_action(phi, z):
    chart = model_chart(phi)
    kind, m, action = chart
    zeta = chart.apply(z)
    want = zeta + action if kind is Kind.PARABOLIC else action * zeta
    assert abs(chart.apply(eval_auto(phi, z)) - want) <= 1e-10 * (1.0 + abs(want)) ** 2


def test_inverse_chart_conjugates_the_inverse_map(rng):
    for kind in ("Elliptic", "Hyperbolic", "Parabolic"):
        for _ in range(50):
            phi = random_by_kind(rng, kind)
            chart = model_chart(phi).inverse()
            assert chart.kind is classify(phi).kind
            if chart.kind is Kind.HYPERBOLIC:
                assert chart.m[2] == 1.0
            for _ in range(8):
                z = interior_point(rng, 0.9)
                zeta = chart.apply(z)
                want = zeta + chart.action if kind == "Parabolic" else chart.action * zeta
                assert abs(chart.apply(eval_auto(inverse(phi), z)) - want) <= 1e-12 * abs(want)
                if chart.kind is Kind.HYPERBOLIC:
                    assert zeta.imag > 0.0
    unit = model_chart(identity())
    assert unit.inverse() is unit


@settings(max_examples=150, deadline=None)
@given(symbols(), disc_points(0.6), st.floats(min_value=-1.0, max_value=1.0))
def test_solved_parameter_carries_preimages(phi, z, t0):
    chart = model_chart(phi)
    v = chart.apply(z)
    u = model(chart, t0, v)
    t = chart.parameter(u, v)
    if chart.kind is Kind.ELLIPTIC:
        assume(t is not None)
    target = preimage(chart, u)
    assume(abs(target) < 0.999)
    gap = abs(eval_auto(chart.commutant(t), z) - target)
    assert gap <= 1e-9 / (1.0 - abs(target))


@settings(max_examples=150, deadline=None)
@given(symbols(), automorphisms(0.7))
def test_find_conjugator_on_conjugated_symbols(phi, eta):
    psi = compose(eta, compose(phi, inverse(eta)))
    found = find_conjugator(phi, psi)
    assert found is not None
    assert pointwise_distance(compose(psi, found), compose(found, phi)) <= 1e-10
