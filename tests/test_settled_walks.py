"""Orbit walks that stop at the certified index.

``eval_blaschke`` walks ``min(N, K)`` factors and ``decide_crownover`` (with
no CSV) ``min(n, d K)`` evidence terms.  The results must equal, bit for bit,
a test-local full-length reference that walks every term with
``orbit_terms`` and reduces with ``np.prod`` or ``np.cumsum``; ``K`` must be
sound, i.e. every computed gap from ``K`` on lies below the threshold that
``K`` was chosen for; and ``orbit_terms`` must give each term the same bits
however many terms are asked for.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from hpiso import (
    IsometrySpec,
    TailCertificate,
    ZeroSequence,
    compose,
    construct_nonzero_intersection,
    convergence_certificate,
    decide_crownover,
    disc_translation,
    eval_blaschke,
    identity,
    inverse,
    normalized_factor,
    orbit_terms,
    standard_hyperbolic,
)
from hpiso.isometries import _accumulated_sequences, _settled_depth

from conftest import interior_point, random_by_kind

DEPTHS = (0, 1, 2, 45, 300, 4097, 2**17)
RADII = (0.0, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)


def phases(a):
    mod = np.abs(a)
    return np.divide(-np.conj(a), mod, out=np.ones_like(a), where=mod > 0.0)


def full_product(seq, z, n):
    """The product over all ``n`` factors, each within ``2^-54`` of 1 set to 1.

    The factor expression keeps the library's operand order: numpy's complex
    product is not symmetric in its last bit, and an unnamed left operand
    keeps its place when numpy reuses it.
    """
    a, gap = orbit_terms(seq, n)
    factors = phases(a) * (z - a) / (1.0 - np.conj(a) * z)
    factors[2.0 * gap <= 2.0**-54 * (1.0 - abs(z))] = 1.0
    value = complex(np.prod(factors))
    return value, abs(value) * 2.0 * convergence_certificate(seq).tail(n) / (1.0 - abs(z))


def full_evidence_sum(spec, n):
    """The ``np.cumsum`` total of all ``n`` interleaved evidence gaps."""
    seqs = _accumulated_sequences(spec)
    depth = -(-n // len(seqs))
    gaps = np.stack([orbit_terms(s, depth)[1] for s in seqs], axis=1).ravel()[:n]
    return float(np.cumsum(gaps)[-1])


def hyperbolic_sequences(rng, count):
    for _ in range(count):
        phi = random_by_kind(rng, "Hyperbolic")
        r = 1.0 - 10.0 ** -rng.uniform(0.1, 6.0)
        yield ZeroSequence.orbit(normalized_factor(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))), phi)
        yield ZeroSequence.forward_orbit(phi)


def ill_conditioned_hyperbolic_sequences(rng, count):
    # fixed points pushed together by a conjugator zero near the circle, and
    # multipliers near 1: where rounding of the chart hurts the tail most
    for _ in range(count):
        r = 10.0 ** -rng.uniform(1.0, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        eta = disc_translation((1.0 - 10.0 ** -rng.uniform(2.0, 3.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        phi = compose(eta, compose(standard_hyperbolic(r), inverse(eta)))
        yield ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.99)), phi)
        yield ZeroSequence.forward_orbit(phi)


def same_bits(x: complex, y: complex) -> bool:
    return repr(x) == repr(y)


def test_eval_blaschke_equals_the_full_walk(rng):
    for seq in [*hyperbolic_sequences(rng, 6), *ill_conditioned_hyperbolic_sequences(rng, 2)]:
        for n in DEPTHS:
            for r in RADII:
                z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                value, bound = eval_blaschke(seq, z, n)
                ref_value, ref_bound = full_product(seq, z, n)
                assert same_bits(value, ref_value) and same_bits(bound, ref_bound), (n, r)


def test_eval_blaschke_parabolic_equals_the_full_walk(rng):
    # an inverse-square tail puts K far past N, so nothing is cut
    seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.9)), random_by_kind(rng, "Parabolic"))
    for n in (1, 300, 4097):
        z = (1.0 - 1e-9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert same_bits(eval_blaschke(seq, z, n), full_product(seq, z, n))


def finite_specs(rng):
    for kind in ("Hyperbolic", "Parabolic", "Elliptic"):
        for d in (1, 3):
            radii = [1.0 - 10.0 ** -rng.uniform(0.1, 6.0) for _ in range(d)]
            zeros = tuple(normalized_factor(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))) for r in radii)
            yield IsometrySpec(3.0, 1.0, zeros, random_by_kind(rng, kind))


def thinned_specs(rng):
    for kind in ("Hyperbolic", "Parabolic"):
        phi = random_by_kind(rng, kind)
        for count in (1, 5):
            yield IsometrySpec(3.0, 1.0, (), phi, infinite=construct_nonzero_intersection(phi, count))


def test_decide_crownover_equals_the_full_walk(rng):
    specs = list(finite_specs(rng)) + list(thinned_specs(rng))
    for spec in specs:
        for n in DEPTHS[1:]:
            verdict = decide_crownover(spec, n)
            assert verdict.evidence.n_terms == n
            assert same_bits(verdict.evidence.partial_sum, full_evidence_sum(spec, n)), n


def computed_gaps_from(seq, k, count=4096):
    return orbit_terms(seq, np.arange(k, k + count))[1]


def test_settled_index_is_sound(rng):
    # every computed gap from K on lies below the target K was chosen for:
    # for eval_blaschke 2^-57 (1 - |z|), a quarter of the 2^-54 rule
    seqs = list(hyperbolic_sequences(rng, 40)) + list(ill_conditioned_hyperbolic_sequences(rng, 20))
    for seq in seqs:
        cert = convergence_certificate(seq)
        for r in RADII:
            target = 2.0**-57 * (1.0 - r)
            assert np.all(computed_gaps_from(seq, cert.first_index_below(target)) < target), r
    # for decide_crownover, from _settled_depth on every gap of every
    # sequence lies below a quarter of ulp(L)/2, where L is the first gap: a
    # running sum of at least L is unchanged by an addend below ulp(L)/2
    groups = [(seq,) for seq in seqs] + [_accumulated_sequences(s) for s in thinned_specs(rng)]
    for group in groups:
        certs = [convergence_certificate(s) for s in group]
        if not all(isinstance(c, TailCertificate) for c in certs):
            continue
        k = _settled_depth(group, certs)
        limit = math.ulp(float(orbit_terms(group[0], 1)[1][0])) / 8.0
        assert all(np.all(computed_gaps_from(s, k) < limit) for s in group)


@pytest.mark.parametrize("kind", ["Elliptic", "Hyperbolic", "Parabolic", "Identity"])
def test_orbit_terms_are_prefix_stable(rng, kind):
    # the bits of a term do not depend on how many terms are asked for; numpy
    # elides temporaries only above 2^14 entries, so n crosses that size
    for _ in range(8):
        phi = identity() if kind == "Identity" else random_by_kind(rng, kind)
        for seq in (ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.9)), phi),
                    ZeroSequence.forward_orbit(phi)):
            a, gap = orbit_terms(seq, 20_000)
            for m in (1, 256, 16_383, 16_384):
                b, h = orbit_terms(seq, m)
                assert np.array_equal(a[:m], b) and np.array_equal(gap[:m], h)
