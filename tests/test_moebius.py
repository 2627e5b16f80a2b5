"""Group structure, classification, canonical forms, commutants.

Oracles are independent of the implementation: compositions are checked
pointwise (a Moebius map is determined by three points), fixed points by
direct substitution, multipliers against the symbolic derivative written out
inline, and the parabolic orientation convention is re-derived through an
explicit half-plane chart."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpiso import (
    AmbiguousClassification,
    DiscAutomorphism,
    DomainError,
    IdentityError,
    Kind,
    Orientation,
    boundary_points,
    circle_points,
    classify,
    commutant_element,
    compose,
    disc_translation,
    eval_auto,
    find_conjugator,
    identity,
    inverse,
    iterate,
    model_chart,
    parabolic_fixing_one,
    pointwise_distance,
    rotation,
    standard_hyperbolic,
)

from conftest import (
    commutes,
    interior_point,
    phi_parabolic_plus,
    random_automorphism,
    random_by_kind,
    random_conjugator,
    random_elliptic,
    random_hyperbolic,
    random_parabolic,
    unimodular,
)

KINDS = ("Elliptic", "Parabolic", "Hyperbolic")


def mobius_formula(lam: complex, a: complex, z: complex) -> complex:
    """Independent evaluation of lam (z - a)/(1 - conj(a) z)."""
    return lam * (z - a) / (1.0 - a.conjugate() * z)


def derivative_formula(phi: DiscAutomorphism, z: complex) -> complex:
    """phi'(z) = lam (1 - |a|^2) / (1 - conj(a) z)^2, written out independently."""
    den = 1.0 - phi.a.conjugate() * z
    return phi.lam * (1.0 - abs(phi.a) ** 2) / (den * den)


def upper_half_plane_chart(w: complex, z: complex) -> complex:
    """C_w(z) = i (conj(w) z + 1) / (1 - conj(w) z): disc -> upper half plane, w -> inf."""
    return 1j * (w.conjugate() * z + 1.0) / (1.0 - w.conjugate() * z)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_phase_renormalized_and_zero_capped():
    phi = DiscAutomorphism(3.0 + 4.0j, 0.25j)
    assert abs(abs(phi.lam) - 1.0) < 1e-15
    assert phi.a == 0.25j
    with pytest.raises(DomainError):
        DiscAutomorphism(1.0, 1.0)
    with pytest.raises(DomainError):
        DiscAutomorphism(0.0, 0.0)


def test_eval_matches_defining_formula(rng):
    for _ in range(200):
        phi = random_automorphism(rng)
        z = interior_point(rng, 0.999)
        assert abs(eval_auto(phi, z) - mobius_formula(phi.lam, phi.a, z)) < 1e-15
    with pytest.raises(DomainError):
        eval_auto(random_automorphism(rng), 1.1)


def test_boundary_preservation(rng):
    for _ in range(100):
        phi = random_automorphism(rng)
        for z in boundary_points(8):
            assert abs(abs(eval_auto(phi, z)) - 1.0) <= 1e-12


def test_zero_and_identity_behaviour(rng):
    phi = random_automorphism(rng)
    assert abs(eval_auto(phi, phi.a)) < 1e-15  # a goes to 0
    e = identity()
    assert e.is_identity()
    for z in circle_points(0.7, 5):
        assert eval_auto(e, z) == z


# ---------------------------------------------------------------------------
# group laws


def test_compose_pointwise_oracle(rng):
    for _ in range(300):
        f, g = random_automorphism(rng), random_automorphism(rng)
        fg = compose(f, g)
        for z in circle_points(0.8, 5):
            assert abs(eval_auto(fg, z) - eval_auto(f, eval_auto(g, z))) < 1e-12


def test_associativity_thousand_triples(rng):
    pts = [interior_point(rng, 0.9) for _ in range(8)]
    worst = 0.0
    for _ in range(1000):
        f, g, h = (random_automorphism(rng) for _ in range(3))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        worst = max(worst, pointwise_distance(left, right, pts))
    assert worst <= 1e-11


def test_inverse_within_1e12_of_identity(rng):
    for _ in range(1000):
        phi = random_automorphism(rng)
        both = compose(phi, inverse(phi))
        assert abs(both.lam - 1.0) <= 1e-12 and abs(both.a) <= 1e-12
        assert pointwise_distance(both, identity()) <= 1e-11
    # closed form of the inverse: z -> conj(lam) z + lam a ... checked pointwise
    phi = random_automorphism(rng)
    inv = inverse(phi)
    for z in circle_points(0.6, 7):
        assert abs(eval_auto(inv, eval_auto(phi, z)) - z) < 1e-13


# ---------------------------------------------------------------------------
# iteration


def test_iterate_equals_repeated_composition(rng):
    for _ in range(25):
        phi = random_automorphism(rng, 0.6)
        acc = identity()
        for n in range(1, 9):
            acc = compose(phi, acc)
            assert pointwise_distance(iterate(phi, n), acc) < 1e-11


def test_iterate_additivity(rng):
    for _ in range(50):
        phi = random_by_kind(rng, KINDS[int(rng.integers(3))])
        m = int(rng.integers(-1000, 1001))
        n = int(rng.integers(-1000, 1001))
        try:
            parts = [iterate(phi, m), iterate(phi, n)]
            left = iterate(phi, m + n)
            right = compose(parts[0], parts[1])
        except DomainError:
            continue  # non-elliptic deep iterates may leave the representable disc
        gap = min(1.0 - abs(g.a) for g in (left, *parts))
        # composing states at distance `gap` from the boundary costs ~eps/gap
        # of relative precision, so the identity can only be asked for at
        # 1e-10 while the states stay clear of the degenerate shell
        tol = 1e-10 if gap > 1e-4 else 2000.0 * 2.3e-16 / gap
        assert pointwise_distance(left, right, circle_points(0.5, 8)) <= tol


def test_iterate_edge_cases(rng):
    phi = random_automorphism(rng)
    assert iterate(phi, 0).is_identity()
    assert pointwise_distance(iterate(phi, -1), inverse(phi)) < 1e-13
    with pytest.raises(DomainError):
        iterate(phi, 10**9 + 1)


# ---------------------------------------------------------------------------
# classification


def test_classify_identity():
    cls = classify(identity())
    assert cls.kind is Kind.IDENTITY
    assert cls.fixed_points == ()
    assert cls.multiplier == 1.0 + 0.0j
    assert cls.orientation is Orientation.NOT_APPLICABLE


def test_fixed_points_satisfy_fixed_point_equation(rng):
    for kind in KINDS:
        for _ in range(50):
            phi = random_by_kind(rng, kind)
            cls = classify(phi)
            assert cls.kind.value == kind
            for w in cls.fixed_points:
                assert abs(eval_auto(phi, w) - w) < 1e-7


def test_multiplier_is_the_derivative_at_the_fixed_point(rng):
    for kind in KINDS:
        for _ in range(50):
            phi = random_by_kind(rng, kind)
            cls = classify(phi)
            d = derivative_formula(phi, cls.fixed_points[0])
            if kind == "Elliptic":
                assert abs(cls.multiplier - d / abs(d)) < 1e-9
                assert abs(abs(cls.multiplier) - 1.0) < 1e-12
            elif kind == "Parabolic":
                assert abs(d - 1.0) < 1e-5
                assert abs(cls.multiplier - 1.0) < 1e-5
            else:
                assert abs(cls.multiplier - abs(d)) < 1e-8
                assert 0.0 < cls.multiplier.real < 1.0


def test_fixed_point_geometry_by_kind(rng):
    for _ in range(50):
        e = classify(random_elliptic(rng))
        assert len(e.fixed_points) == 1 and abs(e.fixed_points[0]) < 1.0
        p = classify(random_parabolic(rng))
        assert len(p.fixed_points) == 1
        assert abs(abs(p.fixed_points[0]) - 1.0) < 1e-9
        assert p.orientation in (Orientation.PLUS, Orientation.MINUS)
        h = classify(random_hyperbolic(rng))
        assert len(h.fixed_points) == 2
        for w in h.fixed_points:
            assert abs(abs(w) - 1.0) < 1e-9


def test_hyperbolic_attracting_point_listed_first(rng):
    for _ in range(50):
        phi = random_hyperbolic(rng)
        cls = classify(phi)
        att, rep = cls.fixed_points
        z = 0.1 + 0.05j
        for _ in range(60):
            z = eval_auto(phi, z)
        assert abs(z - att) < 1e-3
        assert abs(z - rep) > 0.5


def test_classification_conjugation_invariant(rng):
    for _ in range(1000):
        kind = KINDS[int(rng.integers(3))]
        phi = random_by_kind(rng, kind)
        eta = random_conjugator(rng)
        conj = compose(eta, compose(phi, inverse(eta)))
        c1, c2 = classify(phi), classify(conj)
        assert c1.kind is c2.kind
        if c1.kind is Kind.HYPERBOLIC:
            assert abs(c1.multiplier - c2.multiplier) <= 1e-9
        if c1.kind is Kind.PARABOLIC:
            assert c1.orientation is c2.orientation


def test_standard_families_classify_exactly():
    lam = cmath.exp(0.9j)
    cls = classify(rotation(lam))
    assert cls.kind is Kind.ELLIPTIC and cls.fixed_points == (0.0 + 0.0j,)
    assert abs(cls.multiplier - lam) < 1e-15

    r = 0.4
    cls = classify(standard_hyperbolic(r))
    assert cls.kind is Kind.HYPERBOLIC
    assert abs(cls.fixed_points[0] + 1.0) < 1e-9  # attracting -1 for r > 0
    assert abs(cls.fixed_points[1] - 1.0) < 1e-9
    assert abs(cls.multiplier - (1.0 - r) / (1.0 + r)) < 1e-12

    cls = classify(phi_parabolic_plus())
    assert cls.kind is Kind.PARABOLIC
    assert abs(cls.fixed_points[0] - 1.0) < 1e-12
    assert cls.orientation is Orientation.PLUS
    cls = classify(parabolic_fixing_one(-1j))
    assert cls.orientation is Orientation.MINUS


def test_orientation_convention_rederived():
    # The chart C_1(z) = i(z + 1)/(1 - z) maps the disc to the upper half
    # plane; the parabolic with c = i becomes an exact translation by +2
    # there, and the package calls that orientation "plus".
    phi = phi_parabolic_plus()
    w = 1.0 + 0.0j
    for zeta in (0.3 + 1.1j, -0.8 + 0.4j, 2.0 + 2.0j):
        z = (zeta - 1j) / (zeta + 1j)  # chart inverse for w = 1
        img = upper_half_plane_chart(w, eval_auto(phi, z))
        assert abs(img - (zeta + 2.0)) < 1e-12
    assert classify(phi).orientation is Orientation.PLUS


def test_parabolic_parameter_family():
    for t in (0.3, 1.2, 2.8, -0.3, -2.2):
        c = cmath.exp(1j * t)
        phi = parabolic_fixing_one(c)
        cls = classify(phi)
        assert cls.kind is Kind.PARABOLIC
        assert abs(cls.fixed_points[0] - 1.0) < 1e-9
        want = Orientation.PLUS if c.imag > 0 else Orientation.MINUS
        assert cls.orientation is want
    with pytest.raises(DomainError):
        parabolic_fixing_one(1.0)
    with pytest.raises(DomainError):
        parabolic_fixing_one(0.5j)


def test_ambiguous_rotation_raises():
    with pytest.raises(AmbiguousClassification):
        classify(rotation(cmath.exp(1e-6j)))
    with pytest.raises(DomainError):
        classify(rotation(1.0j), tol=1.0)  # tolerance outside the legal range


def test_elliptic_with_a_subnormal_zero():
    # the outer fixed point has finite parts past the float range of abs();
    # classify used to raise OverflowError on the conjugate
    phi = DiscAutomorphism(cmath.exp(1j), -1.61464907171845e-309 + 1.394558120785125e-309j)
    eta = DiscAutomorphism(cmath.exp(2.5j), -4.69036222796557e-310 - 2.175076710720077e-309j)
    psi = compose(eta, compose(phi, inverse(eta)))
    assert classify(psi).kind is Kind.ELLIPTIC
    found = find_conjugator(phi, psi)
    assert pointwise_distance(compose(psi, found), compose(found, phi)) <= 1e-10
    # outer roots of inf parts, which abs() does take
    for a in (-5e-324 - 5e-324j, 1.02286132202884e-309 - 1.87233509098836e-309j):
        assert classify(DiscAutomorphism(cmath.exp(1j), a)).kind is Kind.ELLIPTIC


# ---------------------------------------------------------------------------
# canonical forms and conjugacy


def test_model_chart_action_gives_the_canonical_form(rng):
    # the canonical form: the rotation by the multiplier, (z - r)/(1 - r z)
    # with r = (1 - s)/(1 + s) for the attracting multiplier s, or the
    # standard parabolic fixing 1 of the same orientation
    for kind in KINDS:
        for _ in range(50):
            phi = random_by_kind(rng, kind)
            s = model_chart(phi).action
            if kind == "Elliptic":
                kappa = rotation(s)
            elif kind == "Hyperbolic":
                kappa = standard_hyperbolic((1.0 - s) / (1.0 + s))
                assert 0.0 < kappa.a.real < 1.0
                assert abs(classify(kappa).fixed_points[0] + 1.0) < 1e-9
            else:
                kappa = parabolic_fixing_one(1j if s > 0 else -1j)
            eta = find_conjugator(kappa, phi)
            assert eta is not None
            rebuilt = compose(eta, compose(kappa, inverse(eta)))
            assert pointwise_distance(rebuilt, phi) < 1e-8


def test_find_conjugator_on_conjugate_pairs(rng):
    for kind in KINDS:
        for _ in range(30):
            phi = random_by_kind(rng, kind)
            eta_true = random_conjugator(rng)
            psi = compose(eta_true, compose(phi, inverse(eta_true)))
            eta = find_conjugator(phi, psi)
            assert eta is not None
            rebuilt = compose(eta, compose(phi, inverse(eta)))
            assert pointwise_distance(rebuilt, psi) < 1e-7


def test_conjugacy_negative_cases(rng):
    assert find_conjugator(random_elliptic(rng), random_hyperbolic(rng)) is None
    assert find_conjugator(standard_hyperbolic(0.3), standard_hyperbolic(0.5)) is None
    assert find_conjugator(parabolic_fixing_one(1j), parabolic_fixing_one(-1j)) is None
    with pytest.raises(IdentityError):
        find_conjugator(identity(), random_elliptic(rng))


def test_conjugate_multiplier_is_not_conjugate():
    # only a reflection carries a rotation to its conjugate rotation
    lam = cmath.exp(0.8j)
    f, g = rotation(lam), rotation(lam.conjugate())
    assert find_conjugator(f, g) is None
    assert find_conjugator(g, f) is None


def test_two_parabolic_classes_cover_all_parabolics(rng):
    plus, minus = parabolic_fixing_one(1j), parabolic_fixing_one(-1j)
    for _ in range(200):
        phi = random_parabolic(rng)
        hits = sum(find_conjugator(phi, model) is not None for model in (plus, minus))
        assert hits == 1


def test_denjoy_wolff_orbits_converge_monotonically(rng):
    for kind in ("Parabolic", "Hyperbolic"):
        for _ in range(20):
            phi = random_by_kind(rng, kind)
            cls = classify(phi)
            w = cls.fixed_points[0]
            c = interior_point(rng, 0.6)
            dist = []
            z = c
            for _ in range(800):
                z = eval_auto(phi, z)
                dist.append(abs(z - w))
            assert dist[-1] < 0.1  # parabolic orbits approach like 1/n
            assert dist[-1] < max(dist[20] / 3.0, 1e-12)
            tail = dist[500:]
            assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


def test_semicircle_parameter_formula():
    phi = phi_parabolic_plus()
    for r in [k / 50.0 - 0.99 for k in range(100)]:
        if r == 0.0:
            continue
        psi = standard_hyperbolic(r)
        conj = compose(psi, compose(phi, inverse(psi)))
        c = 2.0 * conj.a - 1.0
        ref = (-2.0 * r + 1j * (1.0 - r * r)) / (1.0 + r * r)
        assert abs(c - ref) <= 1e-12
        assert abs(abs(c) - 1.0) < 1e-12 and c.imag > 0


# ---------------------------------------------------------------------------
# commutants


def test_commutant_homomorphism_and_membership(rng):
    for kind in KINDS:
        for _ in range(20):
            phi = random_by_kind(rng, kind)
            s, t = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            g_s, g_t = commutant_element(phi, s), commutant_element(phi, t)
            g_st = commutant_element(phi, s + t)
            assert pointwise_distance(compose(g_s, g_t), g_st) <= 1e-10
            assert commutes(phi, g_t)
            assert commutant_element(phi, 0.0).is_identity()
    with pytest.raises(IdentityError):
        commutant_element(identity(), 0.5)


@pytest.mark.parametrize(
    "phi, near, far",
    [
        (standard_hyperbolic(0.5), 15.0, (20.0, 200.0, 360.0, 1e300)),
        (compose(disc_translation(0.3 + 0.4j),
                 compose(standard_hyperbolic(0.5), disc_translation(-0.3 - 0.4j))), 14.0, (20.0, 200.0)),
        (phi_parabolic_plus(), 1e3, (1e8, 1e300)),
    ],
    ids=["hyperbolic", "conjugated hyperbolic", "parabolic"],
)
def test_commutant_far_out_is_not_representable(phi, near, far):
    # far out on the commutant the element's zero reaches the unit circle,
    # whichever way the chart product fails there (overflow, a zero
    # determinant, a broken structure check); up to that point the element
    # is returned: the conjugated one at t = 14 is 6e-13 from the circle
    for t in (near, -near):
        assert commutes(phi, commutant_element(phi, t))
    for t in far:
        for signed in (t, -t):
            with pytest.raises(DomainError, match="not representable"):
                commutant_element(phi, signed)


def test_commutant_recovers_the_map_at_its_own_parameter():
    r = 0.45
    s = (1.0 - r) / (1.0 + r)
    t = -0.5 * math.log(s)
    assert pointwise_distance(commutant_element(standard_hyperbolic(r), t),
                              standard_hyperbolic(r)) < 1e-10

    phi = phi_parabolic_plus()  # translation by +2 in its chart
    assert pointwise_distance(commutant_element(phi, 2.0), phi) < 1e-10

    lam = cmath.exp(1.1j)
    rho = rotation(lam)
    assert pointwise_distance(commutant_element(rho, 1.1), rho) < 1e-12


def test_commutant_shares_fixed_points(rng):
    for kind in KINDS:
        phi = random_by_kind(rng, kind)
        cls = classify(phi)
        g = commutant_element(phi, 0.7)
        for w in cls.fixed_points:
            assert abs(eval_auto(g, w) - w) < 1e-6


def test_flip_normalizes_but_does_not_commute():
    psi = standard_hyperbolic(0.5)
    flip = rotation(-1.0)  # z -> -z swaps the fixed points +-1
    assert not commutes(psi, flip)
    conj = compose(flip, compose(psi, inverse(flip)))
    assert pointwise_distance(conj, inverse(psi)) < 1e-12


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5, 1e6, -1e6])
def test_commutes_near_the_circle(t):
    # the element at t = 1e6 has its zero 2e-12 from the circle, and the two
    # compositions agree only to 1.1e-10 at the sample points; a fixed 1e-10
    # called that a failure to commute
    phi = parabolic_fixing_one(1j)
    g = commutant_element(phi, t)
    assert commutes(phi, g) and commutes(g, phi)
    # a map with its zero just as close to the circle that shares no fixed
    # point with phi still fails
    outsider = compose(rotation(cmath.exp(0.3j)), g)
    assert not commutes(phi, outsider) and not commutes(outsider, phi)


@pytest.mark.parametrize(
    "zero, m1, m2",
    [
        (0.99999 * cmath.exp(1j), standard_hyperbolic(1e-8), standard_hyperbolic(1e-5)),
        (0.99999 * cmath.exp(4j), standard_hyperbolic(1e-8), standard_hyperbolic(1e-5)),
        (0.999999 * cmath.exp(2j), standard_hyperbolic(1e-6), standard_hyperbolic(-1e-4)),
        (0.999999 * cmath.exp(1j), rotation(cmath.exp(1e-8j)), rotation(cmath.exp(0.5j))),
    ],
)
def test_commutes_through_ill_conditioned_conjugators(zero, m1, m2):
    # conjugating maps with multipliers near 1 by a zero this close to the
    # circle leaves their entries with far more than 2^12 u of error: the
    # compositions differ by 1.5 to 6.6 times the per-point rounding bound,
    # though by less than 1e-10
    eta = disc_translation(zero)
    phi, sigma = (compose(eta, compose(m, inverse(eta))) for m in (m1, m2))
    assert commutes(phi, sigma) and commutes(sigma, phi)


def test_commutes_iff_in_the_family(rng):
    for kind in KINDS:
        for _ in range(10):
            phi = random_by_kind(rng, kind)
            for t in (-0.8, 0.3, 1.7):
                assert commutes(phi, commutant_element(phi, t))
            other = random_automorphism(rng, 0.6)
            if not commutes(phi, other):
                # a generic automorphism shares no fixed point with phi
                cls = classify(phi)
                moved = max(abs(eval_auto(other, w) - w) for w in cls.fixed_points)
                assert moved > 1e-9


# ---------------------------------------------------------------------------
# hypothesis property fuzz

disc_points = st.complex_numbers(max_magnitude=0.85, allow_infinity=False, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


@st.composite
def automorphisms(draw):
    theta = draw(phases)
    a = draw(disc_points)
    return DiscAutomorphism(cmath.exp(1j * theta), a)


@settings(max_examples=150, deadline=None)
@given(automorphisms(), automorphisms(), automorphisms())
def test_fuzz_associativity(f, g, h):
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert pointwise_distance(left, right, circle_points(0.5, 6)) <= 1e-11


@settings(max_examples=150, deadline=None)
@given(automorphisms())
def test_fuzz_inverse(phi):
    both = compose(phi, inverse(phi))
    assert abs(both.lam - 1.0) <= 1e-12 and abs(both.a) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(automorphisms(), st.complex_numbers(max_magnitude=1.0, allow_infinity=False, allow_nan=False))
def test_fuzz_disc_preserved(phi, z):
    if abs(z) > 1.0:
        z = z / abs(z)
    assert abs(eval_auto(phi, z)) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(automorphisms(), st.integers(min_value=-64, max_value=64), st.integers(min_value=-64, max_value=64))
def test_fuzz_iterate_additivity(phi, m, n):
    try:
        parts = [iterate(phi, m), iterate(phi, n)]
        left = iterate(phi, m + n)
        right = compose(parts[0], parts[1])
    except DomainError:
        return
    gap = min(1.0 - abs(g.a) for g in (left, *parts))
    tol = 1e-10 if gap > 1e-4 else 2000.0 * 2.3e-16 / gap
    assert pointwise_distance(left, right, circle_points(0.4, 5)) <= tol


@settings(max_examples=100, deadline=None)
@given(automorphisms(), automorphisms())
def test_fuzz_conjugation_preserves_kind(phi, eta):
    try:
        c1 = classify(phi)
    except AmbiguousClassification:
        return
    conj = compose(eta, compose(phi, inverse(eta)))
    try:
        c2 = classify(conj)
    except AmbiguousClassification:
        return
    if c1.kind is Kind.PARABOLIC or c2.kind is Kind.PARABOLIC:
        return  # straddling the band is legitimate within tolerance
    assert c1.kind is c2.kind


def test_translation_moves_origin(rng):
    c = interior_point(rng, 0.8)
    tau = disc_translation(c)
    assert abs(eval_auto(tau, 0.0) - c) < 1e-15
    assert abs(unimodular(rng)) == pytest.approx(1.0)
