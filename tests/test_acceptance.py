"""Acceptance suite: eleven criteria, one printed pass/fail line each.

Each criterion states its tolerance inline.  The ``verdict`` fixture prints
its line with capture disabled, so a plain ``pytest`` run shows the eleven
verdicts as they are decided.  Machine-noise allowances are stated where a
criterion compares quantities that saturate at double-precision resolution
(products of ~500 factors carry ~1e-13 of rounding; certified tails can
underflow below it).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from hpiso import (
    BoundaryFunction,
    DiscAutomorphism,
    HpContext,
    IsometrySpec,
    MergedTailCertificate,
    ZeroSequence,
    commutant_element,
    compose,
    composition_constant,
    conjugated_spec,
    construct_nonzero_intersection,
    construct_zero_intersection,
    convergence_certificate,
    decide_crownover,
    decide_equivalent,
    eval_auto,
    eval_blaschke,
    identity,
    inverse,
    invariant_subspace_check,
    iterate,
    normalized_factor,
    parabolic_fixing_one,
    pointwise_distance,
    random_polynomial,
    rotation,
    standard_hyperbolic,
    verify_isometry,
)

from conftest import (
    SEED,
    interior_point,
    random_automorphism,
    random_by_kind,
    random_conjugator,
    random_hyperbolic,
    random_parabolic,
    unimodular,
)

PHI_I = parabolic_fixing_one(1j)
PSI_HALF = standard_hyperbolic(0.5)


@pytest.fixture
def verdict(capfd):
    def _report(num: int, title: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} - {title}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def fresh_rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(SEED + tag)


def test_criterion_01_parabolic_iterate_closed_form(verdict):
    # |iterate(phi_i, n)(z) - (n - (n-i)z)/(n+i - nz)| <= 1e-9, runtime < 5 s
    rng = fresh_rng(1)
    t0 = time.perf_counter()
    spot = [1, 2, 3, 5, 10, 32, 100, 316, 1000, 3162, 10000]
    points = [interior_point(rng, 0.9) for _ in range(100)]
    worst = 0.0
    for n in spot:
        phi_n = iterate(PHI_I, n)
        for z in points:
            ref = (n - (n - 1j) * z) / (n + 1j - n * z)
            worst = max(worst, abs(eval_auto(phi_n, z) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    verdict(1, "parabolic iterate closed form", ok,
           f"max err {worst:.3e} <= 1e-09, {elapsed:.2f}s < 5s")


def test_criterion_02_backward_orbit_blaschke_sums(verdict):
    # a_n = n/(n - i): term-by-term match of 1 - |a_n|^2 with 1/(n^2+1) to
    # 1e-12, and the 1 - |a_n| series is Cauchy with certified tail < 1e-3
    # beyond n = 1000
    seq = ZeroSequence.orbit(normalized_factor(0.0), PHI_I)
    terms = seq.terms_up_to(4001)
    worst = 0.0
    for n, a in enumerate(terms[:2001]):
        worst = max(worst, abs((1.0 - abs(a) ** 2) - 1.0 / (n * n + 1.0)))
    # rigorous tail beyond n = 1000: brute prefix to 4000 plus certified rest
    cert = convergence_certificate(seq)
    tail = math.fsum(1.0 - abs(a) for a in terms[1001:]) + cert.tail(4001)
    ok = worst <= 1e-12 and tail < 1e-3
    verdict(2, "backward-orbit Blaschke sums", ok,
           f"term err {worst:.3e} <= 1e-12, tail past n=1000: {tail:.3e} < 1e-3")


def test_criterion_03_semicircle_parameter(verdict):
    # conjugating the canonical parabolic through psi_r moves the parameter
    # c to (-2r + i(1 - r^2))/(1 + r^2); c_0 = i to 1e-14
    worst = 0.0
    for k in range(99):
        r = k / 50.0 - 0.98
        psi_r = DiscAutomorphism(1.0, r)
        conj = compose(psi_r, compose(PHI_I, inverse(psi_r)))
        c = 2.0 * conj.a - 1.0
        ref = (-2.0 * r + 1j * (1.0 - r * r)) / (1.0 + r * r)
        worst = max(worst, abs(c - ref))
    psi_0 = DiscAutomorphism(1.0, 0.0)
    c0 = 2.0 * compose(psi_0, compose(PHI_I, inverse(psi_0))).a - 1.0
    err0 = abs(c0 - 1j)
    ok = worst <= 1e-12 and err0 <= 1e-14
    verdict(3, "semicircle of conjugated parabolics", ok,
           f"grid err {worst:.3e} <= 1e-12, c_0 err {err0:.3e} <= 1e-14")


def test_criterion_04_isometry_norm_defect(verdict):
    # 50 random (phi, p in {1,1.5,3,4}) x 10 random polynomials of degree
    # <= 32: relative norm defect <= 1e-6 at N = 8192, runtime < 30 s
    rng = fresh_rng(4)
    t0 = time.perf_counter()
    ctxs = {p: HpContext(p, 8192) for p in (1.0, 1.5, 3.0, 4.0)}
    worst = 0.0
    for k in range(50):
        phi = random_automorphism(rng)
        p = (1.0, 1.5, 3.0, 4.0)[k % 4]
        spec = IsometrySpec(p, unimodular(rng), (), phi)
        for _ in range(10):
            deg = int(rng.integers(0, 33))
            f = BoundaryFunction(random_polynomial(rng, deg), 8192)
            rep = verify_isometry(spec, ctxs[p], f=f)
            worst = max(worst, rep["rel_defect"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    verdict(4, "composition isometry norm defect", ok,
           f"max rel defect {worst:.3e} <= 1e-06, {elapsed:.1f}s < 30s")


def test_criterion_05_weight_cocycle(verdict):
    # weight-ratio spread <= 1e-9 over 100 random pairs; closed-form rho
    # agrees with the numeric rho to 1e-8
    rng = fresh_rng(5)
    worst_spread = 0.0
    worst_rho = 0.0
    for _ in range(100):
        phi = random_automorphism(rng)
        psi = random_automorphism(rng)
        p = float(rng.choice((1.0, 1.5, 3.0, 4.0)))
        cc = composition_constant(phi, psi, p)
        worst_spread = max(worst_spread, cc.spread)
        worst_rho = max(worst_rho, abs(cc.rho_closed - cc.rho_numeric))
    ok = worst_spread <= 1e-9 and worst_rho <= 1e-8
    verdict(5, "composition cocycle constant", ok,
           f"max spread {worst_spread:.3e} <= 1e-09, closed-vs-numeric "
           f"{worst_rho:.3e} <= 1e-08")


def test_criterion_06_equivalence_round_trip(verdict):
    # 200 codim-1 round trips across the symbol classes decide with witness
    # residual <= 1e-7; 200 pairs with mismatched class or multiplier
    # return absent
    rng = fresh_rng(6)
    kinds = ("Hyperbolic", "Parabolic", "Elliptic", "Identity")
    worst = 0.0
    for k in range(200):
        kind = kinds[k % 4]
        phi = identity() if kind == "Identity" else random_by_kind(rng, kind)
        s1 = IsometrySpec(
            3.0, unimodular(rng), (normalized_factor(interior_point(rng, 0.7)),), phi
        )
        s2 = conjugated_spec(s1, random_conjugator(rng), unimodular(rng))
        w = decide_equivalent(s1, s2)
        assert w is not None, f"round trip {k} ({kind}) undecided"
        worst = max(worst, w.residual)

    absent = 0
    for k in range(200):
        fac = (normalized_factor(interior_point(rng, 0.7)),)
        if k % 2 == 0:  # mismatched class
            s1 = IsometrySpec(3.0, 1.0, fac, random_by_kind(rng, "Hyperbolic"))
            s2 = IsometrySpec(3.0, 1.0, fac, random_by_kind(rng, "Elliptic"))
        else:  # same class, mismatched multiplier
            r1 = float(rng.uniform(0.15, 0.5))
            s1 = IsometrySpec(3.0, 1.0, fac, standard_hyperbolic(r1))
            s2 = IsometrySpec(3.0, 1.0, fac, standard_hyperbolic(r1 + 0.3))
        if decide_equivalent(s1, s2) is None:
            absent += 1
    ok = worst <= 1e-7 and absent == 200
    verdict(6, "equivalence decision round trip", ok,
           f"200/200 witnesses, max residual {worst:.3e} <= 1e-07; "
           f"{absent}/200 non-equivalent pairs absent")


def test_criterion_07_range_intersection_truth_table(verdict):
    # elliptic/identity symbols: trivial-intersection verdict with linearly
    # growing evidence; hyperbolic/parabolic: the certified-bounded verdict.
    # 50 random instances per class
    rng = fresh_rng(7)
    counts = {}
    for kind, want, growth in (
        ("Elliptic", "Crownover", "Linear"),
        ("Identity", "Crownover", "Linear"),
        ("Hyperbolic", "NotCrownover", "Bounded"),
        ("Parabolic", "NotCrownover", "Bounded"),
    ):
        good = 0
        for _ in range(50):
            phi = identity() if kind == "Identity" else random_by_kind(rng, kind)
            codim = int(rng.integers(1, 4))
            factors = tuple(
                normalized_factor(interior_point(rng, 0.7)) for _ in range(codim)
            )
            spec = IsometrySpec(3.0, unimodular(rng), factors, phi)
            v = decide_crownover(spec)
            if v.verdict == want and v.evidence.growth == growth:
                if want == "NotCrownover":
                    cert = v.evidence.certificate
                    if v.evidence.partial_sum <= cert.tail(0) + 1e-10:
                        good += 1
                else:
                    delta = v.evidence.certificate.delta
                    if v.evidence.partial_sum >= v.evidence.n_terms * delta - 1e-9:
                        good += 1
        counts[kind] = good
    ok = all(v == 50 for v in counts.values())
    verdict(7, "range-intersection truth table", ok,
           "; ".join(f"{k}: {v}/50" for k, v in counts.items()))


def test_criterion_08_orbit_comparison_bound(verdict):
    # (1 - |b_n|^2) <= 2 (1 - |a_n|^2)/(1 - |alpha|) for n <= 1000 over 100
    # random non-elliptic pairs; 1e-13 slack covers saturated-orbit rounding
    rng = fresh_rng(8)
    worst_excess = -math.inf
    for k in range(100):
        phi = random_hyperbolic(rng) if k % 2 == 0 else random_parabolic(rng)
        alpha = interior_point(rng, 0.8)
        a_terms = ZeroSequence.orbit(normalized_factor(0.0), phi).terms_up_to(1001)
        b_terms = ZeroSequence.orbit(normalized_factor(alpha), phi).terms_up_to(1001)
        factor = 2.0 / (1.0 - abs(alpha))
        for a, b in zip(a_terms, b_terms):
            excess = (1.0 - abs(b) ** 2) - factor * (1.0 - abs(a) ** 2)
            worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-13
    verdict(8, "orbit comparison bound", ok,
           f"max excess {worst_excess:.3e} <= 1e-13 over 100 pairs, n <= 1000")


def test_criterion_09_intersection_constructions(verdict):
    # backward-orbit product: truncated shift identity within the certified
    # tail bound at N = 512 on 32 interior points (plus 5e-12 of rounding
    # for 512-factor products); thinned product: certified double sum below
    # its budget for both canonical symbols at K = 6
    rng = fresh_rng(9)
    n_trunc = 512
    worst_margin = -math.inf
    for phi in (PHI_I, PSI_HALF):
        con = construct_zero_intersection(phi)
        zeros = con.own_zeros(n_trunc)
        lams = [1.0 + 0.0j if a == 0 else -a.conjugate() / abs(a) for a in zeros]
        seq = ZeroSequence.forward_orbit(phi)
        for _ in range(16):
            z = interior_point(rng, 0.6)
            w = eval_auto(phi, z)
            prod_w, prod_z = 1.0, 1.0
            for lam, a in zip(lams, zeros):
                prod_w *= abs(lam * (w - a) / (1.0 - a.conjugate() * w))
                prod_z *= abs(lam * (z - a) / (1.0 - a.conjugate() * z))
            defect = abs(prod_w - abs(z) * prod_z)
            bound = eval_blaschke(seq, z, n_terms=n_trunc - 1)[1] + 5e-12
            worst_margin = max(worst_margin, defect - bound)

    sums_ok = True
    details = []
    for phi, name in ((PHI_I, "parabolic"), (PSI_HALF, "hyperbolic")):
        con = construct_nonzero_intersection(phi, 6)
        certs = [convergence_certificate(s) for s in con.accumulated_sequences()]
        total = MergedTailCertificate(tuple(certs)).tail(0) + con.budget / 2.0**6
        sums_ok = sums_ok and total < con.budget
        details.append(f"{name}: double sum {total:.3g} < budget {con.budget:.3g}")
    ok = worst_margin <= 0.0 and sums_ok
    verdict(9, "intersection constructions", ok,
           f"shift defect within tail bound (margin {worst_margin:.3e}); "
           + "; ".join(details))


def test_criterion_10_commutant_family(verdict):
    # the one-parameter commutant is a homomorphism to 1e-10; the flip that
    # conjugates the dilation to its inverse is rejected; commuting is
    # equivalent to family membership on sampled candidates, 30 base
    # automorphisms per class
    rng = fresh_rng(10)
    probes = [interior_point(rng, 0.8) for _ in range(8)]

    def commutes(phi, eta, tol=1e-8):
        return all(
            abs(eval_auto(compose(phi, eta), z) - eval_auto(compose(eta, phi), z)) <= tol
            for z in probes
        )

    worst_hom = 0.0
    family_ok = 0
    outsider_ok = 0
    for kind in ("Hyperbolic", "Parabolic", "Elliptic"):
        for _ in range(30):
            phi = random_by_kind(rng, kind)
            s, t = float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-1.2, 1.2))
            gs, gt = commutant_element(phi, s), commutant_element(phi, t)
            gst = commutant_element(phi, s + t)
            worst_hom = max(worst_hom, pointwise_distance(compose(gs, gt), gst))
            if commutes(phi, gt) and commutes(phi, gs):
                family_ok += 1
            eta = random_automorphism(rng)
            if not commutes(phi, eta, tol=1e-6):
                outsider_ok += 1

    flip = rotation(-1.0)
    conj = compose(flip, compose(PSI_HALF, inverse(flip)))
    flip_conjugates = pointwise_distance(conj, inverse(PSI_HALF)) <= 1e-12
    flip_rejected = not commutes(PSI_HALF, flip, tol=1e-6)

    ok = (
        worst_hom <= 1e-10
        and family_ok == 90
        and outsider_ok == 90
        and flip_conjugates
        and flip_rejected
    )
    verdict(10, "commutant one-parameter family", ok,
           f"homomorphism defect {worst_hom:.3e} <= 1e-10; family commutes "
           f"{family_ok}/90; outsiders rejected {outsider_ok}/90; flip "
           f"conjugates-but-not-commutes: {flip_conjugates and flip_rejected}")


def test_criterion_11_invariant_subspace(verdict):
    # certified invariance defect <= tail + 1e-8 for the canonical parabolic
    # and hyperbolic backward-orbit products, g in {1, z, random degree-8}
    rng = fresh_rng(11)
    ctx = HpContext(3.0, 8192)
    g_random = BoundaryFunction(random_polynomial(rng, 8), 8192)
    tests = (
        ("1", lambda w: np.ones_like(w)),
        ("z", lambda w: w),
        ("deg-8", g_random),
    )
    worst = -math.inf
    for phi in (PHI_I, PSI_HALF):
        spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3 + 0.1j),), phi)
        for _, g in tests:
            rep = invariant_subspace_check(spec, g, ctx, n_trunc=512)
            worst = max(worst, rep.defect - (rep.tail_bound + 1e-8))
    ok = worst <= 0.0
    verdict(11, "invariant subspace certification", ok,
           f"max(defect - tail - 1e-08) = {worst:.3e} <= 0 over both symbols, three g")
