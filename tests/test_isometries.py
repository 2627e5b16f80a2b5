"""Range-intersection dichotomy, infinite constructions, equivalence.

The decision functions here are certificate-backed, so the tests verify the
certificates against brute force (accumulated zero sums, truncated product
identities) and check the decision surface itself: truth table by symbol
class, conjugation invariance, and the witness relations for equivalence.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from hpiso import (
    AmbiguousClassification,
    CrownoverVerdict,
    DivergenceCertificate,
    DomainError,
    EquivWitness,
    HpContext,
    HpisoError,
    IdentityAmbiguity,
    InfiniteConstruction,
    IsometrySpec,
    Kind,
    MergedTailCertificate,
    NotCertified,
    WrongClass,
    ZeroCodimension,
    ZeroSequence,
    circle_points,
    classify,
    codimension,
    compose,
    conjugated_spec,
    construct_nonzero_intersection,
    construct_zero_intersection,
    convergence_certificate,
    decide_crownover,
    decide_equivalent,
    disc_translation,
    eval_auto,
    evidence_rows,
    identity,
    inner_product_values,
    inverse,
    invariant_subspace_check,
    iterate,
    normalized_factor,
    orbit_terms,
    parabolic_fixing_one,
    pointwise_distance,
    random_polynomial,
    rotation,
    standard_hyperbolic,
    truncate_spec,
)
from hpiso.hardy import BoundaryFunction

from conftest import (
    NEAR_BAND_PINNED,
    interior_point,
    phi_parabolic_plus,
    random_by_kind,
    random_conjugator,
    random_elliptic,
    random_hyperbolic,
    random_parabolic,
    unimodular,
)


def finite_spec(rng, phi, codim: int, p: float = 3.0) -> IsometrySpec:
    factors = tuple(normalized_factor(interior_point(rng, 0.7)) for _ in range(codim))
    return IsometrySpec(p, unimodular(rng), factors, phi)


# ---------------------------------------------------------------------------
# codimension and evidence


def test_codimension(rng):
    phi = random_hyperbolic(rng)
    assert codimension(finite_spec(rng, phi, 0)) == 0
    assert codimension(finite_spec(rng, phi, 3)) == 3
    spec = IsometrySpec(3.0, 1.0, (), phi, infinite=construct_zero_intersection(phi))
    assert codimension(spec) == math.inf


def test_evidence_rows_interleave_factor_major(rng):
    phi = random_hyperbolic(rng)
    f1 = normalized_factor(0.3)
    f2 = normalized_factor(-0.2 + 0.4j)
    spec = IsometrySpec(3.0, 1.0, (f1, f2), phi)
    rows = evidence_rows(spec, 7)
    assert len(rows) == 7
    col1 = ZeroSequence.orbit(f1, phi).terms_up_to(4)
    col2 = ZeroSequence.orbit(f2, phi).terms_up_to(4)
    expect = [col1[0], col2[0], col1[1], col2[1], col1[2], col2[2], col1[3]]
    for (a, term, _), ref in zip(rows, expect):
        assert a == ref
        assert term == pytest.approx(max(0.0, 1.0 - abs(ref)), abs=1e-15)
    partials = [r[2] for r in rows]
    assert all(b >= a for a, b in zip(partials, partials[1:]))
    assert partials[-1] == pytest.approx(math.fsum(r[1] for r in rows))


def test_evidence_multiset_is_union_of_per_factor_orbits(rng):
    phi = random_parabolic(rng)
    spec = finite_spec(rng, phi, 3)
    rows = evidence_rows(spec, 12)
    got = sorted((round(a.real, 10), round(a.imag, 10)) for a, _, _ in rows)
    ref = []
    for fac in spec.psi_zeros:
        ref.extend(ZeroSequence.orbit(fac, phi).terms_up_to(4))
    ref = sorted((round(a.real, 10), round(a.imag, 10)) for a in ref)
    assert got == ref


def test_evidence_rows_guards(rng):
    phi = random_hyperbolic(rng)
    with pytest.raises(ZeroCodimension):
        evidence_rows(finite_spec(rng, phi, 0), 8)
    with pytest.raises(DomainError):
        evidence_rows(finite_spec(rng, phi, 1), 0)


# ---------------------------------------------------------------------------
# the dichotomy


def test_crownover_truth_table(rng):
    cases = (
        ("Hyperbolic", "NotCrownover", "HyperbolicSymbol", "Blaschke"),
        ("Parabolic", "NotCrownover", "ParabolicSymbol", "Blaschke"),
        ("Elliptic", "Crownover", "EllipticOrIdentitySymbol", "NotBlaschke"),
    )
    for kind, want, reason, evid in cases:
        for _ in range(8):
            phi = random_by_kind(rng, kind)
            spec = finite_spec(rng, phi, int(rng.integers(1, 4)))
            v = decide_crownover(spec)
            assert isinstance(v, CrownoverVerdict)
            assert v.verdict == want and v.reason == reason
            assert v.evidence.verdict == evid
            assert v.codim == codimension(spec)
            assert v.evidence.n_terms == 256


def test_crownover_identity_symbol(rng):
    spec = finite_spec(rng, identity(), 2)
    v = decide_crownover(spec)
    assert v.verdict == "Crownover" and v.reason == "EllipticOrIdentitySymbol"
    cert = v.evidence.certificate
    assert isinstance(cert, DivergenceCertificate)
    # identity recycles the same zeros forever: linear growth at exactly delta
    assert v.evidence.partial_sum >= 256 * cert.delta - 1e-9


def test_crownover_certificates_dominate_evidence(rng):
    for kind in ("Hyperbolic", "Parabolic"):
        phi = random_by_kind(rng, kind)
        spec = finite_spec(rng, phi, 2)
        v = decide_crownover(spec, n_evidence=512)
        assert isinstance(v.evidence.certificate, MergedTailCertificate)
        assert v.evidence.partial_sum <= v.evidence.certificate.tail(0) + 1e-12


def test_crownover_zero_codim(rng):
    with pytest.raises(ZeroCodimension):
        decide_crownover(finite_spec(rng, random_hyperbolic(rng), 0))


def test_crownover_conjugation_invariant(rng):
    for _ in range(12):
        kind = ("Hyperbolic", "Parabolic", "Elliptic")[int(rng.integers(0, 3))]
        phi = random_by_kind(rng, kind)
        spec = finite_spec(rng, phi, int(rng.integers(1, 3)))
        v1 = decide_crownover(spec)
        spec2 = conjugated_spec(spec, random_conjugator(rng), unimodular(rng))
        v2 = decide_crownover(spec2)
        assert v1.verdict == v2.verdict and v1.reason == v2.reason


def near_band_symbols(rng, count):
    """Hyperbolic, elliptic and both kinds of parabolic maps with parameter
    ``s`` between 1e-9 and 1e-1, conjugated by zeros 1e-2 to 1e-6 from the
    circle; draws whose conjugate passes the 1e-14 cap are skipped."""
    models = (
        standard_hyperbolic,
        lambda s: rotation(cmath.exp(1j * s)),
        lambda s: parabolic_fixing_one(cmath.exp(1j * s)),
        lambda s: parabolic_fixing_one(-cmath.exp(1j * s)),
    )
    for i in range(count):
        s = 10.0 ** -rng.uniform(1.0, 9.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        eta = disc_translation((1.0 - 10.0 ** -rng.uniform(2.0, 6.0)) * unimodular(rng))
        try:
            yield compose(eta, compose(models[i % 4](s), inverse(eta)))
        except HpisoError:
            continue


def certified_reason(cert, constructed: bool) -> str:
    if isinstance(cert, DivergenceCertificate):
        return "ConstructedDivergent" if constructed else "EllipticOrIdentitySymbol"
    if constructed:
        return "ConstructedConvergent"
    (kind,) = {part.kind for part in cert.parts}
    return "HyperbolicSymbol" if kind == "geometric" else "ParabolicSymbol"


#: the ``decide_crownover`` reason of a finite spec, by ``classify(phi)``'s kind
CLASS_REASON = {
    Kind.IDENTITY: "EllipticOrIdentitySymbol",
    Kind.ELLIPTIC: "EllipticOrIdentitySymbol",
    Kind.HYPERBOLIC: "HyperbolicSymbol",
    Kind.PARABOLIC: "ParabolicSymbol",
}


def test_near_band_symbols_answer_by_their_certificate(rng):
    # inside the band every answer follows the certificate, whose chart is
    # the one classify(phi) reads: finite specs give the reason of that
    # class, or raise AmbiguousClassification with it, and both constructions
    # pass or fail their class gate as that class says; nothing outside
    # HpisoError may escape
    ctx, g = HpContext(3.0, 64), lambda w: np.ones_like(w)
    symbols = [*NEAR_BAND_PINNED, *near_band_symbols(rng, 400)]
    answered = 0
    for i, phi in enumerate(symbols):
        try:  # the reason a finite spec must give, and the constructions' gate
            kind = classify(phi).kind
            implied = CLASS_REASON[kind]
            gate = WrongClass if kind in (Kind.IDENTITY, Kind.ELLIPTIC) else None
        except AmbiguousClassification:
            implied, gate = None, AmbiguousClassification
        zeros = tuple(normalized_factor(interior_point(rng, 0.9)) for _ in range(2))
        specs = [IsometrySpec(3.0, 1.0, zeros[:d], phi) for d in (1, 2)]
        for build in (construct_zero_intersection, lambda f: construct_nonzero_intersection(f, 3)):
            try:
                specs.append(IsometrySpec(3.0, 1.0, (), phi, infinite=build(phi)))
                stopped = None
            except (AmbiguousClassification, WrongClass) as exc:
                stopped = type(exc)
            except HpisoError:  # past the class gate, e.g. the thinning index cap
                stopped = None
            assert stopped is gate
        for spec in specs:
            if implied is None and spec.infinite is None:
                with pytest.raises(AmbiguousClassification):
                    decide_crownover(spec, 64)
                continue
            try:
                v = decide_crownover(spec, 64)
            except HpisoError:
                assert i >= len(NEAR_BAND_PINNED) or spec.infinite is not None
                continue
            answered += 1
            cert = v.evidence.certificate
            assert v.verdict == ("Crownover" if isinstance(cert, DivergenceCertificate) else "NotCrownover")
            assert v.reason == certified_reason(cert, spec.infinite is not None)
            assert spec.infinite is not None or v.reason == implied
        try:
            invariant_subspace_check(specs[0], g, ctx, n_trunc=8)
        except NotCertified:
            cert = convergence_certificate(ZeroSequence.orbit(zeros[0], phi))
            assert isinstance(cert, DivergenceCertificate)
        except HpisoError:
            pass
    assert answered >= len(symbols)


# ---------------------------------------------------------------------------
# infinite constructions


def test_construction_validation(rng):
    hyp = random_hyperbolic(rng)
    with pytest.raises(DomainError):
        InfiniteConstruction("Nonsense", hyp)
    with pytest.raises(WrongClass):
        InfiniteConstruction("BackwardOrbitProduct", random_elliptic(rng))
    with pytest.raises(WrongClass):
        InfiniteConstruction("BackwardOrbitProduct", identity())
    with pytest.raises(DomainError):
        InfiniteConstruction("ThinnedForwardProduct", hyp)  # no indices
    with pytest.raises(DomainError):
        InfiniteConstruction("ThinnedForwardProduct", hyp, (1, 5), 1.0)
    with pytest.raises(DomainError):
        InfiniteConstruction("ThinnedForwardProduct", hyp, (5, 5), 1.0)
    with pytest.raises(DomainError):
        InfiniteConstruction("ThinnedForwardProduct", hyp, (2, 5), 0.0)
    with pytest.raises(DomainError):
        InfiniteConstruction("BackwardOrbitProduct", hyp, (2,))
    with pytest.raises(DomainError):
        InfiniteConstruction("BackwardOrbitProduct", hyp, (), 1.0)
    with pytest.raises(WrongClass):
        construct_zero_intersection(rotation(cmath.exp(0.9j)))
    with pytest.raises(WrongClass):
        construct_nonzero_intersection(random_elliptic(rng), 3)
    with pytest.raises(DomainError):
        construct_nonzero_intersection(hyp, 0)


def test_backward_orbit_product_zeros(rng):
    phi = random_parabolic(rng)
    con = construct_zero_intersection(phi)
    assert con.kind == "BackwardOrbitProduct" and con.indices == ()
    zeros = con.own_zeros(6)
    for n, a in enumerate(zeros, start=1):
        assert abs(a - eval_auto(iterate(phi, n), 0.0)) < 1e-12
    assert con.own_zeros(0) == []
    with pytest.raises(DomainError):
        con.own_zeros(-1)


def test_thinned_product_deterministic_and_consistent(rng):
    phi = phi_parabolic_plus()
    c1 = construct_nonzero_intersection(phi, 3)
    c2 = construct_nonzero_intersection(phi, 3)
    assert c1.indices == c2.indices and c1.budget == c2.budget
    assert c1.indices[0] >= 2
    assert all(b > a for a, b in zip(c1.indices, c1.indices[1:]))
    # stored zeros are the backward orbit at the stored indices
    zeros = c1.own_zeros(3)
    back = inverse(phi)
    for n_k, a in zip(c1.indices, zeros):
        direct = 0.0 + 0.0j
        for _ in range(n_k):
            direct = eval_auto(back, direct)
        assert abs(a - direct) < 1e-12
    # deterministic extension agrees with the stored prefix
    deeper = c1.own_zeros(4)
    assert deeper[:3] == zeros


def test_thinned_product_budget_certified(rng):
    for phi in (phi_parabolic_plus(), standard_hyperbolic(0.5)):
        con = construct_nonzero_intersection(phi, 6)
        seqs = con.accumulated_sequences()
        assert len(seqs) == 6
        certs = [convergence_certificate(s) for s in seqs]
        # greedy rule: the k-th certified tail fits under budget / 2^(k+1)
        for k, cert in enumerate(certs):
            assert cert.tail(0) <= con.budget / 2.0 ** (k + 1) + 1e-12
        merged = MergedTailCertificate(tuple(certs))
        total = merged.tail(0) + con.budget / 2.0 ** len(con.indices)
        assert total < con.budget
        # brute-force accumulated sum sits below the certificate
        brute = math.fsum(
            1.0 - abs(a) for s in seqs for a in s.terms_up_to(400)
        )
        assert brute <= merged.tail(0) + 1e-10


def test_thinned_deep_truncation_not_certified():
    con = construct_nonzero_intersection(phi_parabolic_plus(), 3)
    with pytest.raises(NotCertified, match="thinning"):
        con.own_zeros(64)


def test_thinned_target_underflow_not_certified():
    # a contracting symbol's indices grow by one per halving of the budget, so
    # the halvings run out of floats long before the index cap: 2.0**k is not
    # a float from k = 1024 on, and budget / 2^k reaches 0 by k = 1075
    phi = standard_hyperbolic(0.5)
    assert len(construct_nonzero_intersection(phi, 1024).indices) == 1024
    with pytest.raises(NotCertified, match="float range"):
        construct_nonzero_intersection(phi, 2000)


def test_backward_orbit_accumulated_sequence_is_recurring_zero(rng):
    phi = random_hyperbolic(rng)
    con = construct_zero_intersection(phi)
    (seq,) = con.accumulated_sequences()
    b1 = eval_auto(phi, 0.0)
    assert all(abs(a - b1) < 1e-15 for a in seq.terms_up_to(5))
    spec = IsometrySpec(3.0, 1.0, (), phi, infinite=con)
    v = decide_crownover(spec)
    assert v.verdict == "Crownover" and v.reason == "ConstructedDivergent"
    assert v.codim == math.inf
    assert v.evidence.partial_sum >= 256 * (1.0 - abs(b1)) - 1e-9


def test_thinned_spec_verdict(rng):
    con = construct_nonzero_intersection(standard_hyperbolic(0.5), 4)
    spec = IsometrySpec(1.5, 1.0, (), standard_hyperbolic(0.5), infinite=con)
    v = decide_crownover(spec)
    assert v.verdict == "NotCrownover" and v.reason == "ConstructedConvergent"
    assert v.evidence.verdict == "Blaschke"
    assert "budget" in v.evidence.reason


def test_shift_identity_defect(rng):
    # truncations of the backward orbit product satisfy |Psi_n(phi(z))| =
    # |z| |Psi_{n-1}(z)|; both sides vanish on the same zero sets, so the
    # residual at interior sample points is pure rounding
    z = np.array(circle_points(0.6, 17) + circle_points(0.25, 9))
    for phi in (phi_parabolic_plus(), standard_hyperbolic(0.5), random_hyperbolic(rng)):
        con = construct_zero_intersection(phi)
        w = inner_product_values([phi.a], z, phi.lam)
        for n, bound in ((1, 1e-12), (8, 1e-12), (64, 1e-12), (512, 5e-12)):
            zeros = con.own_zeros(n)
            num = np.abs(inner_product_values(zeros, w))
            den = np.abs(z) * np.abs(inner_product_values(zeros[: n - 1], z))
            assert np.max(np.abs(num - den)) < bound


# ---------------------------------------------------------------------------
# truncation and conjugation


def test_truncate_spec(rng):
    phi = standard_hyperbolic(0.4)
    con = construct_zero_intersection(phi)
    base = normalized_factor(0.2)
    spec = IsometrySpec(3.0, 1.0j, (base,), phi, infinite=con)
    fin = truncate_spec(spec, 8)
    assert fin.infinite is None
    assert len(fin.psi_zeros) == 9 and fin.psi_zeros[0] == base
    zeros = con.own_zeros(8)
    for fac, a in zip(fin.psi_zeros[1:], zeros):
        assert abs(fac.a - a) < 1e-15
    ctx = HpContext(3.0, 256)
    from hpiso import verify_isometry

    assert verify_isometry(fin, ctx, degree=8)["rel_defect"] <= 1e-6
    plain = finite_spec(rng, phi, 2)
    assert truncate_spec(plain, 99) is plain


def test_truncate_spec_drops_saturated_zeros(rng):
    # hyperbolic forward orbits reach machine distance from the boundary by
    # step ~40; deeper factors equal 1 to working precision and are dropped
    phi = standard_hyperbolic(0.4)
    spec = IsometrySpec(3.0, 1.0, (), phi, infinite=construct_zero_intersection(phi))
    fin = truncate_spec(spec, 128)
    assert fin.infinite is None
    assert 0 < len(fin.psi_zeros) < 128
    assert all(abs(fac.a) <= 1.0 - 1e-14 for fac in fin.psi_zeros)
    from hpiso import verify_isometry

    ctx = HpContext(3.0, 256)
    assert verify_isometry(fin, ctx, degree=8)["rel_defect"] <= 1e-6
    # parabolic orbits stay resolvable much deeper: nothing is dropped
    par = IsometrySpec(
        3.0,
        1.0,
        (),
        phi_parabolic_plus(),
        infinite=construct_zero_intersection(phi_parabolic_plus()),
    )
    assert len(truncate_spec(par, 128).psi_zeros) == 128


def test_conjugated_spec_relations(rng):
    spec = finite_spec(rng, random_hyperbolic(rng), 2)
    eta = random_conjugator(rng)
    rho = 2.0j  # gets renormalized
    spec2 = conjugated_spec(spec, eta, rho)
    ref_symbol = compose(inverse(eta), compose(spec.phi, eta))
    assert pointwise_distance(spec2.phi, ref_symbol) < 1e-13
    assert spec2.phase == pytest.approx(1j * spec.phase)
    z = interior_point(rng, 0.8)
    for fac, fac2 in zip(spec.psi_zeros, spec2.psi_zeros):
        assert abs(eval_auto(fac2, z) - eval_auto(fac, eval_auto(eta, z))) < 1e-12
    with pytest.raises(DomainError):
        conjugated_spec(spec, eta, 0.0)
    infinite = IsometrySpec(
        3.0, 1.0, (), spec.phi, infinite=construct_zero_intersection(spec.phi)
    )
    with pytest.raises(DomainError):
        conjugated_spec(infinite, eta, 1.0)


# ---------------------------------------------------------------------------
# invariant subspaces


def test_invariant_subspace_certified(rng):
    ctx = HpContext(3.0, 256)
    g_poly = BoundaryFunction(random_polynomial(rng, 8), 256)
    tests = (
        lambda w: np.ones_like(w),
        lambda w: w,
        g_poly,
    )
    for phi in (phi_parabolic_plus(), standard_hyperbolic(0.5)):
        spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3 + 0.1j),), phi)
        for g in tests:
            rep = invariant_subspace_check(spec, g, ctx, n_trunc=512)
            assert rep.defect <= rep.tail_bound + 1e-8
            assert abs(abs(rep.rho) - 1.0) < 1e-9
            assert rep.n_terms == 512 and rep.radius == 0.5
            # the correction factor tends to 1: dropping it costs only the tail
            assert rep.defect_uncorrected <= rep.tail_bound + 1e-8


RHO_SYMBOLS = (
    phi_parabolic_plus(),
    parabolic_fixing_one(cmath.exp(-2.2j)),
    standard_hyperbolic(0.5),
    standard_hyperbolic(-0.85),
    compose(disc_translation(0.3 - 0.4j), compose(standard_hyperbolic(0.3), disc_translation(-0.3 + 0.4j))),
    compose(disc_translation(-0.6j), compose(parabolic_fixing_one(-1j), disc_translation(0.6j))),
)


@pytest.mark.parametrize("phi", RHO_SYMBOLS)
@pytest.mark.parametrize("alpha, radius", [(0.3 + 0.1j, 0.5), (-0.9j, 0.5), (0.6, 0.8)])
def test_invariant_subspace_rho_matches_50_digit_product(phi, alpha, radius):
    """``rho`` against ``mu prod_{k<N} f_k(w*)/f_{k+1}(z*)``, ``mu = phase
    psi(z*)/f_0(z*)``, at 50 digits, on the float zeros, test point ``z*``
    and ``w* = fl(phi(z*))``.

    First-order rounding bound from the operation count, ``u = 2^-53``: in
    ``inner_product_values`` a factor at ``x`` costs at most one rounding in
    ``x - a``, two complex products (``sqrt(2) gamma_2`` each, Higham §3.6)
    into the numerator and denominator buffers and one into the scale
    ``-conj(a)``, and a denominator whose relative error is at most ``u + 4u
    / (1 - |x|)`` (``x - 1/conj(a)``, the reciprocal within ``4u``, for ``|a|
    >= 1/2``; ``1 - conj(a) x`` within ``4u`` otherwise): at most ``16u / (1
    - |x|)``, the per-block division and product included.  ``rho`` takes
    ``N`` factors at ``w*`` and ``N + 1`` at ``z*``; ``eval_auto`` for ``psi``,
    the phase ``lam_N`` and the four products and quotients assembling
    ``rho`` add less than ``64u``.
    """
    n = 512
    spec = IsometrySpec(3.0, cmath.exp(0.7j), (normalized_factor(alpha),), phi)
    rep = invariant_subspace_check(spec, lambda w: np.ones_like(w), HpContext(3.0, 64), n_trunc=n, radius=radius)
    zeros = orbit_terms(ZeroSequence.orbit(spec.psi_zeros[0], phi), n + 1)[0].tolist()
    z_star = radius * cmath.exp(0.377j)  # the first test point tried
    assert min(abs(z_star - a) for a in zeros) > 1e-6
    w_star = eval_auto(phi, z_star)
    with mp.workdps(50):
        def factor(lam, a, x):
            a, x = mp.mpc(a), mp.mpc(x)
            return lam * (x - a) / (1 - mp.conj(a) * x)

        def orbit_factor(a, x):
            return factor(1 if a == 0 else -mp.conj(mp.mpc(a)) / abs(mp.mpc(a)), a, x)

        psi = spec.psi_zeros[0]
        # mu = phase psi(z*) / f_0(z*), then the telescoping product
        exact = mp.mpc(spec.phase) * factor(mp.mpc(psi.lam), psi.a, z_star) / orbit_factor(zeros[0], z_star)
        for k in range(n):
            exact *= orbit_factor(zeros[k], w_star) / orbit_factor(zeros[k + 1], z_star)
        err = float(abs(mp.mpc(rep.rho) - exact))
    u = 2.0**-53
    bound = 16 * u * ((n + 1) / (1.0 - abs(z_star)) + n / (1.0 - abs(w_star))) + 64 * u
    assert err <= bound


def test_invariant_subspace_identity_symbol(rng):
    ctx = HpContext(1.5, 128)
    spec = IsometrySpec(1.5, unimodular(rng), (normalized_factor(0.4),), identity())
    rep = invariant_subspace_check(spec, lambda w: np.ones_like(w), ctx, n_trunc=16)
    assert rep.tail_bound == 0.0
    assert rep.defect <= 1e-10


def test_invariant_subspace_guards(rng):
    ctx = HpContext(3.0, 128)
    g = lambda w: np.ones_like(w)
    elliptic = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), random_elliptic(rng))
    with pytest.raises(NotCertified):
        invariant_subspace_check(elliptic, g, ctx)
    phi = random_hyperbolic(rng)
    with pytest.raises(DomainError):
        invariant_subspace_check(finite_spec(rng, phi, 2), g, ctx)
    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), phi)
    with pytest.raises(DomainError):
        invariant_subspace_check(spec, g, ctx, n_trunc=0)
    with pytest.raises(DomainError):
        invariant_subspace_check(spec, g, ctx, radius=1.0)


def test_invariant_subspace_tail_shrinks(rng):
    ctx = HpContext(3.0, 128)
    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.25),), phi_parabolic_plus())
    g = lambda w: np.ones_like(w)
    t64 = invariant_subspace_check(spec, g, ctx, n_trunc=64).tail_bound
    t512 = invariant_subspace_check(spec, g, ctx, n_trunc=512).tail_bound
    assert 0.0 < t512 < t64


# ---------------------------------------------------------------------------
# equivalence


def assert_witness_valid(s1, s2, w, tol=1e-7):
    assert isinstance(w, EquivWitness)
    assert w.residual <= tol
    sym = compose(inverse(w.eta), compose(s1.phi, w.eta))
    assert pointwise_distance(sym, s2.phi) <= 10 * tol
    assert abs(abs(w.rho) - 1.0) < 1e-9


def test_equivalence_reflexive(rng):
    for kind in ("Hyperbolic", "Parabolic", "Elliptic"):
        spec = finite_spec(rng, random_by_kind(rng, kind), 2)
        w = decide_equivalent(spec, spec)
        assert_witness_valid(spec, spec, w)


def test_equivalence_round_trip_and_symmetry(rng):
    for kind in ("Hyperbolic", "Parabolic", "Elliptic"):
        for codim in (1, 2, 3):
            spec = finite_spec(rng, random_by_kind(rng, kind), codim)
            eta = random_conjugator(rng)
            spec2 = conjugated_spec(spec, eta, unimodular(rng))
            w12 = decide_equivalent(spec, spec2)
            assert w12 is not None, f"{kind} codim {codim}"
            assert_witness_valid(spec, spec2, w12)
            w21 = decide_equivalent(spec2, spec)
            assert w21 is not None
            assert_witness_valid(spec2, spec, w21)


def test_equivalence_transitive(rng):
    spec = finite_spec(rng, random_hyperbolic(rng), 2)
    s2 = conjugated_spec(spec, random_conjugator(rng), unimodular(rng))
    s3 = conjugated_spec(s2, random_conjugator(rng), unimodular(rng))
    assert decide_equivalent(spec, s2) is not None
    assert decide_equivalent(s2, s3) is not None
    w = decide_equivalent(spec, s3)
    assert w is not None
    assert_witness_valid(spec, s3, w)


def test_equivalence_identity_symbol_codim_one_and_phase(rng):
    f1 = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), identity())
    f2 = IsometrySpec(3.0, 1.0j, (normalized_factor(-0.5j),), identity())
    w = decide_equivalent(f1, f2)
    assert w is not None and w.residual <= 1e-9
    # codim 0, identity symbols: pure phase change
    g1 = IsometrySpec(3.0, 1.0, (), identity())
    g2 = IsometrySpec(3.0, cmath.exp(0.7j), (), identity())
    w = decide_equivalent(g1, g2)
    assert w.eta.is_identity() and w.rho == pytest.approx(cmath.exp(0.7j))


def test_equivalence_negative_cases(rng):
    hyp = random_hyperbolic(rng)
    s1 = finite_spec(rng, hyp, 2, p=3.0)
    with pytest.raises(DomainError):
        decide_equivalent(s1, finite_spec(rng, hyp, 2, p=1.5))
    assert decide_equivalent(s1, finite_spec(rng, hyp, 3)) is None
    assert decide_equivalent(s1, finite_spec(rng, random_elliptic(rng), 2)) is None
    assert decide_equivalent(s1, finite_spec(rng, identity(), 2)) is None

    # non-conjugate rotations (different angles) are never equivalent
    r1 = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), rotation(cmath.exp(0.5j)))
    r2 = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), rotation(cmath.exp(1.5j)))
    assert decide_equivalent(r1, r2) is None

    # same symbol, zeros off the commutant flow line
    a1 = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), standard_hyperbolic(0.5))
    a2 = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.3 + 0.4j),), standard_hyperbolic(0.5)
    )
    assert decide_equivalent(a1, a2) is None

    infinite = IsometrySpec(
        3.0, 1.0, (), hyp, infinite=construct_zero_intersection(hyp)
    )
    with pytest.raises(DomainError):
        decide_equivalent(infinite, s1)


def test_equivalence_identity_symbol_ambiguity(rng):
    # identity symbol, two zero pairs at different hyperbolic separations:
    # no rigid motion matches them, and the search reports that honestly
    s1 = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.1), normalized_factor(-0.1)), identity()
    )
    s2 = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.8), normalized_factor(-0.8)), identity()
    )
    with pytest.raises(IdentityAmbiguity):
        decide_equivalent(s1, s2)


def test_equivalence_checks_tol_for_every_symbol(rng):
    # the range ``classify`` accepts, checked before any early return: an
    # identity symbol never reaches ``classify``, and a huge ``tol`` there
    # would accept the ``{0.1, -0.1}`` / ``{0.8, -0.8}`` pair
    near = IsometrySpec(3.0, 1.0, (normalized_factor(0.1), normalized_factor(-0.1)), identity())
    far = IsometrySpec(3.0, 1.0, (normalized_factor(0.8), normalized_factor(-0.8)), identity())
    pairs = [
        (near, near),
        (near, far),
        (IsometrySpec(3.0, 1.0, (), identity()),) * 2,
        (near, finite_spec(rng, random_hyperbolic(rng), 2)),
        (near, finite_spec(rng, identity(), 3)),
    ]
    for s1, s2 in pairs:
        for tol in (math.nan, math.inf, -1.0, 0.0, 1e-3, 1e300, 1e-15):
            with pytest.raises(DomainError, match=r"must lie in \[1e-14, 1e-4\]"):
                decide_equivalent(s1, s2, tol)
    for tol in (1e-14, 1e-4):
        assert decide_equivalent(near, near, tol).residual <= tol


def test_equivalence_respects_multiplicity(rng):
    # same two zeros but one doubled: multiset match must fail
    z = 0.4 + 0.1j
    phi = standard_hyperbolic(0.5)
    s1 = IsometrySpec(
        3.0, 1.0, (normalized_factor(z), normalized_factor(z)), phi
    )
    s2 = IsometrySpec(
        3.0, 1.0, (normalized_factor(z), normalized_factor(0.4 - 0.3j)), phi
    )
    assert decide_equivalent(s1, s2) is None
