"""The invariant screen of ``decide_equivalent`` (``_invariant_gap``).

The sorted pairwise pseudo-hyperbolic distances of the zeros of ``Psi`` are
an equivalence invariant; for non-identity symbols with ``d >= 2`` a gap
between them beyond the band answers None before any candidate conjugator
is built.  The band must cover every pair a witness could pass, and the
screen may only ever return the answer the candidate search would give.
"""

from __future__ import annotations

import cmath
import math
import re

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpiso import (
    AmbiguousClassification,
    DiscAutomorphism,
    DomainError,
    IdentityAmbiguity,
    IsometrySpec,
    compose,
    conjugated_spec,
    decide_equivalent,
    disc_translation,
    eval_auto,
    identity,
    inverse,
    normalized_factor,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)
from hpiso import equivalence as eq
from hpiso.moebius import MAX_ZERO_MODULUS, Chart, model_chart

U = 2.0**-53
#: two zeros this close sit inside the match cap at the default tolerance
CLOSE = 5e-9


def spec(zeros, phi, phase=1.0) -> IsometrySpec:
    return IsometrySpec(3.0, phase, tuple(map(normalized_factor, zeros)), phi)


def witness_key(w):
    """Every float of a witness, as ``repr`` (which round-trips bit for bit)."""
    return None if w is None else repr((w.eta.lam, w.eta.a, w.rho, w.residual))


def unscreened(s1, s2, tol=1e-9):
    """The answer of the candidate search alone, as before the screen."""
    return eq._commutant_search(s1, s2, model_chart(s1.phi, tol), model_chart(s2.phi, tol), tol)


def conjugate(eta, kappa):
    return compose(eta, compose(kappa, inverse(eta)))


def polar(r, t):
    return r * cmath.exp(2j * math.pi * t)


unit_interval = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def symbols(draw):
    """A non-identity symbol of each class, conjugated away from its model."""
    kind = draw(st.sampled_from(["elliptic", "hyperbolic", "parabolic"]))
    if kind == "elliptic":
        kappa = rotation(cmath.exp(1j * draw(st.floats(0.3, 2.5)) * draw(st.sampled_from([-1, 1]))))
    elif kind == "hyperbolic":
        kappa = standard_hyperbolic(draw(st.floats(0.2, 0.6)))
    else:
        kappa = parabolic_fixing_one(draw(st.sampled_from([1j, -1j])))
    return conjugate(disc_translation(polar(draw(st.floats(0.0, 0.5)), draw(unit_interval))), kappa)


@st.composite
def zero_sets(draw, d):
    """``d`` zeros: most inside ``|a| <= 0.8``, some up to ``1 - 1e-9``, and
    possibly a pair ``5e-9`` apart."""
    radius = st.one_of(st.floats(0.0, 0.8), st.floats(0.8, 1.0 - 1e-9), st.just(1.0 - 1e-9))
    zs = [polar(draw(radius), draw(unit_interval)) for _ in range(d)]
    if draw(st.booleans()):
        zs[1] = zs[0] + CLOSE * cmath.exp(2j * math.pi * draw(unit_interval))
        assume(abs(zs[1]) <= 1.0 - 1e-9)
    return zs


def automorphisms():
    return st.builds(lambda t, r, s: compose(rotation(cmath.exp(2j * math.pi * t)), disc_translation(polar(r, s))),
                     unit_interval, st.floats(0.0, 0.5), unit_interval)


def displaced(s, draw, length):
    """``s`` with each zero moved by at most ``length`` in a drawn direction
    (a zero the move would push past ``MAX_ZERO_MODULUS`` stays put)."""
    factors = []
    for f in s.psi_zeros:
        a = f.a + length * draw(unit_interval) * cmath.exp(2j * math.pi * draw(unit_interval))
        factors.append(DiscAutomorphism(f.lam, a if abs(a) <= MAX_ZERO_MODULUS else f.a))
    return IsometrySpec(s.p, s.phase, tuple(factors), s.phi)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_screen_never_fires_within_the_match_cap(data):
    # s2 is s1 conjugated, then every zero moved by less than the cap 10 tol:
    # a candidate near the true conjugator could pass the zero match
    draw = data.draw
    d = draw(st.integers(2, 8))
    tol = draw(st.sampled_from([1e-9, 1e-7, 1e-5]))
    s1 = spec(draw(zero_sets(d)), draw(symbols()))
    s2 = conjugated_spec(s1, draw(automorphisms()), cmath.exp(1j * draw(st.floats(0.0, 6.0))))
    s2 = displaced(s2, draw, 10.0 * tol * (1.0 - 2.0**-20))
    gap, band = eq._invariant_gap(s1, s2, tol)
    assert gap <= band


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-9), unit_interval, st.floats(0.0, MAX_ZERO_MODULUS), unit_interval, unit_interval)
def test_moved_zero_rounding_within_the_band_term(r, t, rc, tc, tl):
    # e = 32u/(1 - |a|) bounds |fl(eval_auto(g, a)) - g(a)| for the exact
    # automorphism with g's zero and its phase made unimodular
    assume(abs(polar(rc, tc)) <= MAX_ZERO_MODULUS)  # the rotation can round |zero| past the cap
    g = DiscAutomorphism(cmath.exp(2j * math.pi * tl), polar(rc, tc))
    a = polar(r, t)
    with mp.workprec(200):
        lam = mp.mpc(g.lam) / abs(mp.mpc(g.lam))
        exact = lam * (mp.mpc(a) - mp.mpc(g.a)) / (1 - mp.conj(mp.mpc(g.a)) * mp.mpc(a))
        err = float(abs(mp.mpc(eval_auto(g, a)) - exact))
    assert err <= 32 * U / (1.0 - abs(a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screen_keeps_every_verdict_and_witness(data):
    draw = data.draw
    d = draw(st.integers(2, 6))
    phi = draw(symbols())
    zeros = draw(zero_sets(d))
    s1 = spec(zeros, phi, cmath.exp(1j * draw(st.floats(0.0, 6.0))))
    variant = draw(st.sampled_from(["equivalent", "displaced", "one moved", "other symbol"]))
    if variant == "one moved":
        zeros = zeros[:-1] + [zeros[-1] + draw(st.floats(1e-9, 0.1)) * cmath.exp(1j * draw(st.floats(0.0, 6.0)))]
        assume(abs(zeros[-1]) <= 0.99)
    elif variant == "other symbol":
        phi = draw(symbols())
    s2 = conjugated_spec(spec(zeros, phi), draw(automorphisms()), cmath.exp(1j * draw(st.floats(0.0, 6.0))))
    if variant == "displaced":
        s2 = displaced(s2, draw, 5e-9)
    try:
        want = unscreened(s1, s2)
    except AmbiguousClassification:
        with pytest.raises(AmbiguousClassification):
            decide_equivalent(s1, s2)
        return
    except DomainError as exc:
        # a candidate that is not representable and whose matrix matches the
        # zeros: the same error, unless the screen certifies that no witness
        # exists
        gap, band = eq._invariant_gap(s1, s2, 1e-9)
        if gap > band:
            assert decide_equivalent(s1, s2) is None
        else:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                decide_equivalent(s1, s2)
        return
    assert witness_key(decide_equivalent(s1, s2)) == witness_key(want)


def test_gap_just_inside_the_band_falls_through_to_the_search(monkeypatch):
    # rho(0, x) = |x|, so the zero pairs {0, x} and {0, x + s} differ by s
    phi = standard_hyperbolic(0.5)
    s1 = spec([0.0, 0.6], phi)
    _, band = eq._invariant_gap(s1, s1, 1e-9)
    searched = []
    search = eq._commutant_search
    monkeypatch.setattr(eq, "_commutant_search", lambda *args: searched.append(1) or search(*args))

    inside = spec([0.0, 0.6 + 0.99 * band], phi)
    gap, band_inside = eq._invariant_gap(s1, inside, 1e-9)
    assert 0.98 * band_inside < gap <= band_inside
    assert decide_equivalent(s1, inside) is None
    assert searched == [1]

    outside = spec([0.0, 0.6 + 1.01 * band], phi)
    gap, band_outside = eq._invariant_gap(s1, outside, 1e-9)
    assert gap > band_outside
    assert decide_equivalent(s1, outside) is None
    assert searched == [1]


def test_band_is_infinite_when_zeros_reach_the_circle():
    phi = standard_hyperbolic(0.5)
    s1 = spec([0.0, 0.5], phi)
    s2 = spec([0.0, MAX_ZERO_MODULUS], phi)
    gap, band = eq._invariant_gap(s1, s2, 1e-9)
    assert gap > 0.4 and band == math.inf
    assert decide_equivalent(s1, s2) is None


def test_parabolic_band_symbol_still_raises_ambiguous_classification():
    # rotation by 1e-5 lies inside the trace band |t - 2| <= 1e-9; the zeros
    # differ in their invariants, but the charts are built first
    phi = rotation(cmath.exp(1e-5j))
    s1 = spec([0.1, 0.5j], phi)
    s2 = spec([0.1, -0.7], phi)
    assert eq._invariant_gap(s1, s2, 1e-9)[0] > 0.1
    with pytest.raises(AmbiguousClassification):
        decide_equivalent(s1, s2)


def test_identity_symbols_are_not_screened(monkeypatch):
    def screen(*args):
        raise AssertionError("the invariant screen ran on identity symbols")

    monkeypatch.setattr(eq, "_invariant_gap", screen)
    with pytest.raises(IdentityAmbiguity):
        decide_equivalent(spec([0.1, -0.1], identity()), spec([0.8, -0.8], identity()))


def count_candidates(monkeypatch):
    """Count ``Chart.conjugator`` and ``_witness_from_eta`` calls."""
    calls = {"conjugator": 0, "witness": 0}
    conjugator, witness = Chart.conjugator, eq._witness_from_eta

    def counted_conjugator(*args, **kwargs):
        calls["conjugator"] += 1
        return conjugator(*args, **kwargs)

    def counted_witness(*args):
        calls["witness"] += 1
        return witness(*args)

    monkeypatch.setattr(Chart, "conjugator", counted_conjugator)
    monkeypatch.setattr(eq, "_witness_from_eta", counted_witness)
    return calls


def test_inequivalent_d8_pair_builds_no_candidate(monkeypatch):
    phi = conjugate(disc_translation(0.2 - 0.3j), standard_hyperbolic(0.4))
    zeros = [0.3 + 0.2j, 0.3 + 0.2j + CLOSE, -0.5 + 0.1j, 0.6j, -0.4 - 0.5j, 0.7 - 0.2j, 0.05 - 0.6j, -0.7 + 0.4j]
    eta = compose(rotation(cmath.exp(0.9j)), disc_translation(0.1))
    s1 = spec(zeros, phi)
    s2 = conjugated_spec(spec(zeros[:-1] + [-0.69 + 0.4j], phi), eta, cmath.exp(0.4j))
    calls = count_candidates(monkeypatch)
    assert decide_equivalent(s1, s2) is None
    assert calls == {"conjugator": 0, "witness": 0}

    # the counters see the candidates of the equivalent pair
    assert decide_equivalent(s1, conjugated_spec(s1, eta, cmath.exp(0.4j))) is not None
    assert calls["conjugator"] >= 1 and calls["witness"] >= 1


def count_matrix_moves(monkeypatch):
    """The parameters ``t`` of the candidates judged by their chart matrix
    (``Chart.moves``)."""
    calls = []
    moves = Chart.moves

    def counted(self, other, t, back, forth):
        calls.append(t)
        return moves(self, other, t, back, forth)

    monkeypatch.setattr(Chart, "moves", counted)
    return calls


@pytest.mark.parametrize("c", [1j, -1j])
@pytest.mark.parametrize("shift", [0.0, 0.1, 0.1j, -0.3])
def test_unrepresentable_candidates_are_skipped(c, shift, monkeypatch):
    # a zero at the centre and one 1e-9 from the fixed point 1 pin commutant
    # parameters whose candidates pass the 1e-14 cap; the points their
    # matrices move match no zero set, so the answer is None
    phi = parabolic_fixing_one(c)
    zeros = [0.0, 0.0, 1.0 - 1e-9, 1.0 - 1e-9]
    s1 = spec(zeros, phi)
    s2 = conjugated_spec(spec(zeros[:-1] + [zeros[-1] + 1e-7j], phi), disc_translation(shift), 1.0)
    judged = count_matrix_moves(monkeypatch)
    assert decide_equivalent(s1, s2) is None
    assert decide_equivalent(s2, s1) is None
    assert judged


def test_unrepresentable_candidate_that_matches_no_zeros_answers_none(monkeypatch):
    # every zero is 1e-9 from the circle; the candidate pinned by the zero
    # 1e-7 (in angle) from the fixed point is not representable, and the
    # zeros its matrix moves match nothing
    phi = parabolic_fixing_one(1j)
    r = 1.0 - 1e-9
    s1 = spec([r * cmath.exp(1e-7j), r * cmath.exp(1j)], phi)
    s2 = spec([r * cmath.exp(0.5j), r * cmath.exp(2j)], phi)
    judged = count_matrix_moves(monkeypatch)
    assert decide_equivalent(s1, s2) is None
    assert judged


@pytest.mark.parametrize("near", [[-0.9, -0.8 + 0.1j, -0.95 - 0.05j], [-1.0 + 1e-12, -0.5 + 0.3j]])
def test_unrepresentable_candidate_that_matches_raises(near):
    # the only witness is the translation along (-1, 1) by c = 1 - 8e-15, a
    # commutant element of phi whose zero -c lies past the cap; it moves the
    # zeros near -1 onto the given zeros, some 1e-13 from the circle.  Its
    # matrix moves a zero near 1 back with an error up to about 1e-3, and the
    # zero 1e-12 from -1 forward with one of about 4e-7, so both orders raise
    # only if each pair is judged in its better direction
    phi = standard_hyperbolic(0.5)
    c = 1.0 - 8e-15
    far = [(w + c) / (1.0 + c * w) for w in near]
    assert max(map(abs, far)) <= MAX_ZERO_MODULUS
    for s1, s2 in ((near, far), (far, near)):
        with pytest.raises(DomainError, match="zero must lie strictly inside the disc"):
            decide_equivalent(spec(s1, phi), spec(s2, phi))


def test_unrepresentable_first_conjugator_raises_only_if_it_matches(monkeypatch):
    # the centred charts of zeros 1e-9 from the circle give an eta_0 (t = 0)
    # past the cap; it matches nothing, so no DomainError escapes, whatever the
    # anchored search then concludes about this rotation-conjugate pair
    r = 1.0 - 1e-9
    s1 = spec([r, r * cmath.exp(1j), r * cmath.exp(2.5j)], identity())
    s2 = conjugated_spec(s1, rotation(cmath.exp(0.3j)), 1.0)
    judged = count_matrix_moves(monkeypatch)
    try:
        assert decide_equivalent(s1, s2) is not None
    except IdentityAmbiguity:
        pass
    assert 0.0 in judged
