"""Zero sequences, certified convergence bounds, product evaluation.

Certificate soundness is checked against brute-force orbit sums; deep orbit
points carry ~1e-16 of rounding per term, so term-by-term comparisons allow a
1e-13 noise floor.  The worked parabolic example (lam = i, a = (1+i)/2,
fixing 1) has backward orbit n/(n - i) and the exactly summable term values
1/(n^2 + 1), which pins several closed forms below."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpiso import (
    DivergenceCertificate,
    DomainError,
    GeneratorExhausted,
    MergedTailCertificate,
    NotCertified,
    TailCertificate,
    ZeroSequence,
    classify,
    classify_blaschke,
    compose,
    convergence_certificate,
    eval_auto,
    eval_blaschke,
    identity,
    inverse,
    iterate,
    model_chart,
    normalized_factor,
    orbit_terms,
    rotation,
    standard_hyperbolic,
    write_orbit_csv,
)

from conftest import (
    exactly_rounded_sum,
    interior_point,
    phi_parabolic_plus,
    random_by_kind,
    random_conjugator,
    random_elliptic,
    random_hyperbolic,
    random_parabolic,
)

NOISE = 1e-13  # accumulated rounding floor for orbit-walk comparisons
SUM_NOISE = 1e-12  # floor for sums of hundreds of saturated 1 - |a| terms


def term_bound(cert: TailCertificate, k: int) -> float:
    """The certificate's bound on ``1 - |a_k|``, from its fields."""
    if cert.kind == "geometric":
        return cert.constant * cert.ratio**k
    u = cert.offset + cert.step * k
    return cert.constant / (u * u + cert.height * cert.height)


def brute_tail(seq: ZeroSequence, m: int, horizon: int) -> float:
    terms = seq.terms_up_to(horizon)
    return math.fsum(max(0.0, 1.0 - abs(a)) for a in terms[m:])


# ---------------------------------------------------------------------------
# factors and sequences


def test_normalized_factor_zero_and_positivity(rng):
    for _ in range(50):
        a = interior_point(rng, 0.95)
        fac = normalized_factor(a)
        assert abs(eval_auto(fac, a)) < 1e-15
        v = eval_auto(fac, 0.0)
        assert abs(v.imag) < 1e-15 and v.real >= 0.0
        assert abs(v.real - abs(a)) < 1e-15
    assert normalized_factor(0.0).is_identity()


def test_explicit_sequence_basics():
    seq = ZeroSequence.explicit([0.5, -0.25j, 0.0])
    assert seq.is_explicit and seq.index_offset == 0
    assert seq.terms_up_to(3) == [0.5, -0.25j, 0.0]
    with pytest.raises(GeneratorExhausted):
        seq.terms_up_to(4)
    with pytest.raises(DomainError):
        ZeroSequence.explicit([1.0])
    with pytest.raises(DomainError):
        seq.terms_up_to(-1)


def test_orbit_sequence_agrees_with_direct_iteration(rng):
    for _ in range(10):
        phi = random_hyperbolic(rng)
        psi = normalized_factor(interior_point(rng, 0.6))
        seq = ZeroSequence.orbit(psi, phi)
        beta, chart = seq.start_and_chart()
        assert chart == model_chart(phi).inverse()
        walked = seq.terms_up_to(12)
        assert walked[0] == beta == psi.a
        for k in (0, 1, 5, 11):
            direct = eval_auto(iterate(phi, -k), psi.a)
            assert abs(walked[k] - direct) < NOISE
            # the step chart's model map is phi^{-1}: k dilations reach direct
            zeta = chart.action**k * chart.apply(beta)
            m = chart.m
            assert abs((m[3] * zeta - m[1]) / (m[0] - m[2] * zeta) - direct) < 1e-15


def test_forward_orbit_indexing(rng):
    phi = random_parabolic(rng)
    seq = ZeroSequence.forward_orbit(phi)
    assert seq.index_offset == 1
    a = seq.terms_up_to(3)
    assert abs(a[0] - eval_auto(phi, 0.0)) < 1e-15
    assert abs(a[2] - eval_auto(iterate(phi, 3), 0.0)) < NOISE


def test_backward_orbit_closed_form():
    # the worked parabolic: phi_{-n}(0) = n/(n - i), 1 - |.|^2 = 1/(n^2 + 1)
    phi = phi_parabolic_plus()
    seq = ZeroSequence.orbit(normalized_factor(0.0), phi)
    terms = seq.terms_up_to(400)
    for n, a in enumerate(terms):
        ref = 0.0 if n == 0 else n / (n - 1j)
        assert abs(a - ref) <= 1e-12
        assert abs((1.0 - abs(a) ** 2) - 1.0 / (n * n + 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# certificates


def test_certificate_elliptic_and_identity_divergence(rng):
    for _ in range(10):
        phi = random_elliptic(rng)
        seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.6)), phi)
        cert = convergence_certificate(seq)
        assert isinstance(cert, DivergenceCertificate)
        for a in seq.terms_up_to(300):
            assert 1.0 - abs(a) >= cert.delta - NOISE

    seq = ZeroSequence.orbit(normalized_factor(0.3 + 0.2j), identity())
    cert = convergence_certificate(seq)
    assert isinstance(cert, DivergenceCertificate)
    assert cert.delta == pytest.approx(1.0 - abs(0.3 + 0.2j))


def test_certificate_hyperbolic_sound_and_tight(rng):
    for _ in range(12):
        phi = random_hyperbolic(rng)
        seed = interior_point(rng, 0.7)
        seq = ZeroSequence.orbit(normalized_factor(seed), phi)
        cert = convergence_certificate(seq)
        assert isinstance(cert, TailCertificate) and cert.kind == "geometric"
        s = classify(inverse(phi)).multiplier.real
        assert cert.ratio == pytest.approx(s, abs=1e-12)
        terms = seq.terms_up_to(400)
        for k, a in enumerate(terms):
            assert 1.0 - abs(a) <= term_bound(cert, k) + NOISE
        for m in (0, 1, 5, 20, 60):
            actual = brute_tail(seq, m, 400)
            assert actual <= cert.tail(m) + SUM_NOISE
        # tightness: the certified total must not overshoot the truth wildly
        assert cert.tail(0) <= 25.0 * max(brute_tail(seq, 0, 400), 1e-12)


def test_certificate_parabolic_exact_shape():
    # forward orbit of the worked parabolic: 1 - |a_k|^2 = 1/((k+1)^2 + 1)
    phi = phi_parabolic_plus()
    seq = ZeroSequence.forward_orbit(phi)
    cert = convergence_certificate(seq)
    assert isinstance(cert, TailCertificate) and cert.kind == "inverse-square"
    for k in range(200):
        assert term_bound(cert, k) == pytest.approx(1.0 / ((k + 1) ** 2 + 1.0), rel=1e-12)
    for m in (0, 3, 50):
        actual = brute_tail(seq, m, 3000)
        assert actual <= cert.tail(m) + SUM_NOISE
        assert cert.tail(m) <= 4.0 * actual + NOISE


def test_certificate_parabolic_random_soundness(rng):
    for _ in range(10):
        phi = random_parabolic(rng)
        seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.7)), phi)
        cert = convergence_certificate(seq)
        assert isinstance(cert, TailCertificate) and cert.kind == "inverse-square"
        terms = seq.terms_up_to(400)
        for k, a in enumerate(terms):
            assert 1.0 - abs(a) <= term_bound(cert, k) + NOISE
        for m in (0, 2, 30):
            assert brute_tail(seq, m, 400) <= cert.tail(m) + 1e-3  # + true tail past 400
        assert brute_tail(seq, 0, 400) <= cert.tail(0) + SUM_NOISE


def test_certificate_works_for_deep_seeds(rng):
    # a seed near the attracting fixed point makes the backward orbit cross
    # the whole disc first; the geometric envelope must clear that hump, so
    # compare the constant against the minimal valid envelope instead of the
    # raw tail
    phi = standard_hyperbolic(0.6)
    deep = eval_auto(iterate(phi, 6), 0.1 + 0.05j)
    seq = ZeroSequence.orbit(normalized_factor(deep), phi)
    cert = convergence_certificate(seq)
    assert brute_tail(seq, 0, 300) <= cert.tail(0) + SUM_NOISE
    terms = seq.terms_up_to(300)
    min_constant = max((1.0 - abs(a)) / cert.ratio ** k for k, a in enumerate(terms))
    assert cert.constant <= 8.0 * min_constant


def test_certificate_rejects_explicit():
    with pytest.raises(DomainError):
        convergence_certificate(ZeroSequence.explicit([0.5]))


def test_certificate_dataclass_validation():
    with pytest.raises(DomainError):
        TailCertificate("geometric", 1.0, ratio=1.0)
    with pytest.raises(DomainError):
        TailCertificate("inverse-square", 1.0, step=0.0)
    with pytest.raises(DomainError):
        TailCertificate("nonsense", 1.0)
    with pytest.raises(DomainError):
        DivergenceCertificate(0.0)
    with pytest.raises(DomainError):
        MergedTailCertificate(())
    cert = TailCertificate("geometric", 2.0, ratio=0.5)
    with pytest.raises(DomainError):
        cert.tail(-1)


def test_merged_certificate_bounds_interleaved_tail(rng):
    phi = random_hyperbolic(rng)
    seqs = [
        ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.6)), phi)
        for _ in range(3)
    ]
    certs = [convergence_certificate(s) for s in seqs]
    merged = MergedTailCertificate(tuple(certs))
    cols = [s.terms_up_to(200) for s in seqs]
    flat = [cols[j][k] for k in range(200) for j in range(3)]
    for m in (0, 1, 7, 30):
        actual = math.fsum(1.0 - abs(a) for a in flat[m:])
        assert actual <= merged.tail(m) + SUM_NOISE


# ---------------------------------------------------------------------------
# classification of sequences


def test_classify_orbitals_certified(rng):
    for kind, want in (("Hyperbolic", "Blaschke"), ("Parabolic", "Blaschke"),
                       ("Elliptic", "NotBlaschke")):
        phi = random_by_kind(rng, kind)
        seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.5)), phi)
        verdict = classify_blaschke(seq, n_max=128)
        assert verdict.verdict == want
        assert verdict.certificate is not None
        assert verdict.n_terms == 128
        if want == "Blaschke":
            assert verdict.growth == "Bounded"
            assert isinstance(verdict.certificate, TailCertificate)
        else:
            assert verdict.growth == "Linear"
            assert isinstance(verdict.certificate, DivergenceCertificate)
            assert verdict.partial_sum >= 128 * verdict.certificate.delta - NOISE


def test_classify_identity_step_divergent():
    seq = ZeroSequence.orbit(normalized_factor(0.4), identity())
    verdict = classify_blaschke(seq)
    assert verdict.verdict == "NotBlaschke"
    assert verdict.partial_sum == pytest.approx(256 * 0.6)


def test_classify_verdict_stable_under_more_terms(rng):
    phi = random_parabolic(rng)
    seq = ZeroSequence.orbit(normalized_factor(0.2), phi)
    v1 = classify_blaschke(seq, n_max=64)
    v2 = classify_blaschke(seq, n_max=512)
    assert v1.verdict == v2.verdict == "Blaschke"
    assert v2.partial_sum >= v1.partial_sum - NOISE


def test_classify_explicit_fits():
    # finitely many terms certify nothing, whatever their partial sums look like
    cases = (
        ([1.0 - 1.0 / (k + 2.0) for k in range(600)], 600),  # harmonic decay
        ([0.5 * 1j ** (k % 4) for k in range(300)], 300),  # constant modulus
        ([1.0 - 2.0 ** (-k) for k in range(1, 45)], 128),  # summable geometric decay
    )
    for zeros, n_max in cases:
        v = classify_blaschke(ZeroSequence.explicit(zeros), n_max=n_max)
        assert v.verdict == "Undetermined" and v.growth == "Other"
        assert v.certificate is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=600,
    ),
    st.integers(min_value=64, max_value=700),
)
def test_classify_explicit_is_always_undetermined(zeros, n_max):
    seq = ZeroSequence.explicit(zeros)
    v = classify_blaschke(seq, n_max=n_max)
    n = min(n_max, len(zeros))
    assert v.verdict == "Undetermined" and v.growth == "Other"
    assert v.n_terms == n and f"{n} terms" in v.reason
    assert v.partial_sum == exactly_rounded_sum(orbit_terms(seq, n)[1])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("Elliptic", "Hyperbolic", "Parabolic")),
    st.integers(min_value=64, max_value=700),
)
def test_classify_orbit_partial_sum_is_exactly_rounded(seed, kind, n_max):
    rng = np.random.default_rng(seed)
    seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.9)), random_by_kind(rng, kind))
    v = classify_blaschke(seq, n_max=n_max)
    assert v.n_terms == n_max
    assert v.partial_sum == exactly_rounded_sum(orbit_terms(seq, n_max)[1])


def test_classify_empty_explicit_sequence_raises():
    with pytest.raises(DomainError):
        classify_blaschke(ZeroSequence.explicit([]))


def test_classify_explicit_too_short():
    v = classify_blaschke(ZeroSequence.explicit([0.1, 0.2]), n_max=64)
    assert v.verdict == "Undetermined"
    assert "2 terms" in v.reason
    with pytest.raises(DomainError):
        classify_blaschke(ZeroSequence.explicit([0.1] * 100), n_max=32)


# ---------------------------------------------------------------------------
# orbit stability bounds


def test_orbit_comparison_bound(rng):
    # with alpha the seed zero: (1 - |b_n|^2) <= 2 (1 - |a_n|^2) / (1 - |alpha|)
    # where a_n is the orbit of 0 and b_n the orbit of alpha
    for _ in range(20):
        phi = random_hyperbolic(rng) if rng.uniform() < 0.5 else random_parabolic(rng)
        alpha = interior_point(rng, 0.8)
        a_seq = ZeroSequence.orbit(normalized_factor(0.0), phi).terms_up_to(300)
        b_seq = ZeroSequence.orbit(normalized_factor(alpha), phi).terms_up_to(300)
        bound = 2.0 / (1.0 - abs(alpha))
        for a, b in zip(a_seq, b_seq):
            lhs = 1.0 - abs(b) ** 2
            rhs = bound * (1.0 - abs(a) ** 2)
            assert lhs <= rhs + NOISE


def test_conjugated_orbit_stays_certified_blaschke(rng):
    for _ in range(10):
        phi = random_hyperbolic(rng) if rng.uniform() < 0.5 else random_parabolic(rng)
        eta = random_conjugator(rng)
        phi_t = compose(eta, compose(phi, inverse(eta)))
        seed = normalized_factor(eval_auto(eta, 0.1))
        verdict = classify_blaschke(ZeroSequence.orbit(seed, phi_t), n_max=128)
        assert verdict.verdict == "Blaschke"


# ---------------------------------------------------------------------------
# evaluation


def test_finite_product_unimodular_on_circle(rng):
    zeros = [interior_point(rng, 0.95) for _ in range(10000)]
    lams = [1.0 + 0.0j if a == 0 else -a.conjugate() / abs(a) for a in zeros]
    import cmath
    for theta in (0.1, 2.5, 4.0):
        z = cmath.exp(1j * theta)
        mod = 0.0
        for a, lam in zip(zeros, lams):
            mod += math.log(abs(lam * (z - a) / (1.0 - a.conjugate() * z)))
        assert abs(mod) <= 1e-11  # log|product| stays 0 to full precision


def test_eval_blaschke_truncation_bound(rng):
    phi = random_hyperbolic(rng)
    seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.5)), phi)
    for z in (0.3 + 0.1j, -0.55j, 0.7):
        v32, bound32 = eval_blaschke(seq, z, n_terms=32)
        v2048, _ = eval_blaschke(seq, z, n_terms=2048)
        assert abs(v2048 - v32) <= bound32 + NOISE


def test_eval_blaschke_rejects_divergent_and_boundary(rng):
    elliptic_seq = ZeroSequence.orbit(normalized_factor(0.3), random_elliptic(rng))
    with pytest.raises(NotCertified):
        eval_blaschke(elliptic_seq, 0.2)
    ok_seq = ZeroSequence.explicit([0.5])
    with pytest.raises(DomainError):
        eval_blaschke(ok_seq, 1.0)


def test_eval_blaschke_rejects_non_sequences():
    for arg in ([0.5, 0.25], normalized_factor(0.5), None):
        with pytest.raises(DomainError):
            eval_blaschke(arg, 0.1)


def test_eval_blaschke_explicit_exact_tail():
    seq = ZeroSequence.explicit([0.5, -0.3j, 0.2 + 0.2j])
    v_all, bound_all = eval_blaschke(seq, 0.1, n_terms=3)
    assert bound_all == 0.0
    v_two, bound_two = eval_blaschke(seq, 0.1, n_terms=2)
    assert abs(v_all - v_two) <= bound_two


# ---------------------------------------------------------------------------
# reporting


def test_write_orbit_csv_layout(rng):
    phi = phi_parabolic_plus()
    seq = ZeroSequence.forward_orbit(phi)
    buf = io.StringIO()
    total = write_orbit_csv(buf, seq, 10)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,re_b,im_b,one_minus_abs,partial_sum"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1"  # forward orbits are 1-indexed
    assert abs(float(first[3]) - (1.0 - abs(eval_auto(phi, 0.0)))) < 1e-15
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(total)

    seq0 = ZeroSequence.orbit(normalized_factor(0.3), phi)
    buf = io.StringIO()
    write_orbit_csv(buf, seq0, 3)
    assert buf.getvalue().splitlines()[1].split(",")[0] == "0"


# ---------------------------------------------------------------------------
# hypothesis fuzz

radii = st.floats(min_value=0.05, max_value=0.9)


@settings(max_examples=60, deadline=None)
@given(radii, st.floats(min_value=-0.85, max_value=0.85))
def test_fuzz_hyperbolic_certificates_sound(seed_r, r):
    if abs(r) < 0.05:
        return
    seq = ZeroSequence.orbit(normalized_factor(seed_r), standard_hyperbolic(r))
    cert = convergence_certificate(seq)
    assert isinstance(cert, TailCertificate)
    assert brute_tail(seq, 0, 200) <= cert.tail(0) + SUM_NOISE


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * math.pi), radii)
def test_fuzz_elliptic_certificates_divergent(theta, seed_r):
    import cmath
    if min(abs(theta), abs(theta - 2.0 * math.pi)) < 1e-3:
        return
    seq = ZeroSequence.orbit(normalized_factor(seed_r), rotation(cmath.exp(1j * theta)))
    cert = convergence_certificate(seq)
    assert isinstance(cert, DivergenceCertificate)
    for a in seq.terms_up_to(64):
        assert 1.0 - abs(a) >= cert.delta - NOISE
