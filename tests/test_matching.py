"""Bottleneck matching of zero multisets inside ``decide_equivalent``.

``_multiset_match`` must return exactly ``min over bijections of max pair
distance`` (or None above the cap), for every size; the brute force over
permutations below is the reference, kept to small sizes.
"""

from __future__ import annotations

import cmath
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hpiso import (
    IsometrySpec,
    compose,
    conjugated_spec,
    decide_equivalent,
    disc_translation,
    inverse,
    normalized_factor,
    pointwise_distance,
    rotation,
    standard_hyperbolic,
)
from hpiso.equivalence import _multiset_match

B = 0.3 + 0.2j
#: six zeros shared by both sides, far from ``B`` and from each other
FAR = [-0.5 + 0.1j, 0.6j, -0.4 - 0.5j, 0.7 - 0.2j, 0.05 - 0.6j, -0.7 + 0.4j]


def brute_force(left, right, cap):
    best = min(
        max(abs(x - right[j]) for x, j in zip(left, perm))
        for perm in itertools.permutations(range(len(right)))
    )
    return best if best <= cap else None


def test_eight_zeros_two_close_beat_greedy():
    # nearest-first pairing takes b <-> b + 4e-9 and leaves b + 8e-9 to
    # b - 4.8e-9 (12.8e-9, over the cap); the optimum pairs across
    left = [B, B + 8e-9] + FAR
    right = [B - 4.8e-9, B + 4e-9] + FAR
    got = _multiset_match(left, right, 1e-8)
    assert got == abs(B - (B - 4.8e-9))
    assert math.isclose(got, 4.8e-9, rel_tol=1e-6)
    assert _multiset_match(left, right, math.nextafter(got, 0.0)) is None


def test_empty_multisets_match_at_zero():
    assert _multiset_match([], [], 0.0) == 0.0


@st.composite
def matching_cases(draw):
    """Two multisets of up to six points and a cap.

    Points sit on small lattices around one to three centres, so duplicate
    points, tied distances and clusters tighter than the cap are common;
    the cap is the optimum itself, the float just below it, or drawn.
    """
    n = draw(st.integers(1, 6))
    unit = draw(st.sampled_from([1e-9, 3e-9, 0.1, 0.125]))
    centres = draw(st.lists(st.sampled_from([0.0, 0.5 - 0.25j, -0.3 + 0.6j, 0.3 + 0.2j]),
                            min_size=1, max_size=3))
    step = st.integers(-2, 2)

    def point():
        return draw(st.sampled_from(centres)) + unit * complex(draw(step), draw(step))

    left = [point() for _ in range(n)]
    if draw(st.booleans()):  # a perturbed permutation of the left side
        right = [x + unit * complex(draw(step), draw(step)) * draw(st.sampled_from([0, 0.5, 1]))
                 for x in draw(st.permutations(left))]
    else:
        right = [point() for _ in range(n)]
    optimum = brute_force(left, right, math.inf)
    cap = draw(st.one_of(
        st.just(optimum),
        st.just(math.nextafter(optimum, -math.inf)),
        st.sampled_from([0.0, 1e-8, 10 * unit, math.inf]),
        st.floats(0.0, 4 * unit),
    ))
    return left, right, cap


@settings(max_examples=250, deadline=None)
@given(matching_cases())
def test_matches_brute_force_bit_for_bit(case):
    left, right, cap = case
    want = brute_force(left, right, cap)
    got = _multiset_match(left, right, cap)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.hex() == want.hex()


def test_decide_equivalent_d8_with_two_zeros_8e9_apart():
    # s2 conjugates a spec whose cluster near B is perturbed by a few 1e-9;
    # the perturbations sum to zero, so the inner ratio stays constant to
    # second order, and nearest-first pairing of the cluster overshoots the
    # cap of 10 tol (11.2e-9) while the optimal pairing needs 5e-9
    phi = compose(disc_translation(0.2 - 0.1j),
                  compose(standard_hyperbolic(0.4), disc_translation(-0.2 + 0.1j)))

    def spec(zeros):
        return IsometrySpec(3.0, 1.0, tuple(normalized_factor(a) for a in zeros), phi)

    cluster = [B, B + 8e-9, B + (11 - 3j) * 1e-9]
    moved = [B - 5e-9j, B + (4 + 2j) * 1e-9, B + 15e-9]
    assert abs(sum(moved) - sum(cluster)) < 1e-15
    eta = compose(rotation(cmath.exp(0.9j)), disc_translation(0.1))
    s1 = spec(cluster + FAR)
    s2 = conjugated_spec(spec(moved + FAR), eta, cmath.exp(0.4j))
    w = decide_equivalent(s1, s2)
    assert w is not None
    assert 4.9e-9 < w.residual <= 1e-8
    assert pointwise_distance(compose(inverse(w.eta), compose(phi, w.eta)), s2.phi) <= 1e-8
    assert abs(abs(w.rho) - 1.0) < 1e-12
