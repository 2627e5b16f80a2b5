"""Boundary norms, analytic weights, and weighted composition isometries.

Strong oracles used here:
  * Parseval at p = 2 and, via |f|^4 = |f^2|^2, at p = 4 — both quadratures
    are exact for trigonometric polynomials below the grid's Nyquist degree.
  * |W(z)|^p must equal |phi'(z)| pointwise (the boundary Jacobian).
  * the weight cocycle W_phi(z) W_psi(phi(z)) = rho W_{psi o phi}(z) with a
    unimodular constant rho, equal to 1 exactly for an inverse pair.
"""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpiso import (
    BoundaryFunction,
    BranchError,
    CompositionConstant,
    DegreeError,
    DiscAutomorphism,
    DomainError,
    GridMismatch,
    HpContext,
    IsometrySpec,
    apply_isometry,
    compose,
    composition_constant,
    eval_auto,
    hp_norm,
    identity,
    inner_product_values,
    inverse,
    normalized_factor,
    random_polynomial,
    rho_closed_form,
    rotation,
    verify_isometry,
    weight_function,
)

from hpiso.hardy import _SUM_CHUNK, _circle, _exact_sum
from hpiso.moebius import MAX_ZERO_MODULUS

from conftest import interior_point, random_automorphism, unimodular

P_VALUES = (1.0, 1.5, 3.0, 4.0)
UNIT_ROUNDOFF = 2.0**-53


def make_ctx(p: float, n: int = 512) -> HpContext:
    return HpContext(p, n)


def random_f(rng, degree: int, n: int = 512) -> BoundaryFunction:
    return BoundaryFunction(random_polynomial(rng, degree), n)


# ---------------------------------------------------------------------------
# contexts and boundary functions


def test_context_validation():
    with pytest.raises(DomainError):
        HpContext(0.5)
    with pytest.raises(DomainError):
        HpContext(float("inf"))
    with pytest.raises(DomainError):
        HpContext(3.0, 100)
    with pytest.raises(DomainError):
        HpContext(3.0, 32)
    ctx = HpContext(3.0, 128)
    grid = ctx.grid
    assert grid.shape == (128,)
    assert np.allclose(np.abs(grid), 1.0)
    assert grid[0] == 1.0 + 0.0j


def test_p_equal_two_warns():
    with pytest.warns(UserWarning, match="Hilbert space"):
        HpContext(2.0, 64)


def test_boundary_function_samples_and_call(rng):
    coeffs = random_polynomial(rng, 12)
    f = BoundaryFunction(coeffs, 128)
    grid = np.exp(2j * np.pi * np.arange(128) / 128)
    direct = np.array([sum(c * z**j for j, c in enumerate(coeffs)) for z in grid])
    assert np.max(np.abs(f.samples - direct)) < 1e-12
    z = 0.3 - 0.4j
    assert abs(f(z) - sum(c * z**j for j, c in enumerate(coeffs))) < 1e-13
    assert f.degree == 12 and f.grid_size == 128


def test_circle_is_the_one_grid_formula():
    for n in (16, 100, 128, 4096):
        direct = np.exp(2j * np.pi * np.arange(n) / n)
        assert np.array_equal(_circle(n), direct)
        assert np.array_equal(_circle(n, 0.5), 0.5 * direct)
    assert np.array_equal(HpContext(3.0, 256).grid, _circle(256))


def test_boundary_function_call_has_polyval_bits(rng):
    coeffs = random_polynomial(rng, 24)
    f = BoundaryFunction(coeffs, 128)
    for z in (_circle(128, 0.9), rng.uniform(-1.0, 1.0, 37), np.array([[0.1, 0.2j]])):
        got = f(z)
        assert got.shape == z.shape
        assert np.array_equal(got, np.polyval(coeffs[::-1], z))


def test_boundary_function_degree_cap():
    with pytest.raises(DegreeError):
        BoundaryFunction(np.ones(33), 128)  # degree 32 >= 128/4
    BoundaryFunction(np.ones(32), 128)  # degree 31 is the last legal one
    with pytest.raises(DomainError):
        BoundaryFunction([], 128)
    with pytest.raises(DomainError):
        BoundaryFunction([1.0], 100)


# ---------------------------------------------------------------------------
# norms


def test_norm_of_monomials_and_constants():
    for p in P_VALUES:
        ctx = make_ctx(p, 128)
        for k in (0, 1, 7, 31):
            f = BoundaryFunction([0.0] * k + [1.0], 128)
            assert hp_norm(f, ctx) == pytest.approx(1.0, abs=1e-13)
        g = BoundaryFunction([3.0 - 4.0j], 128)
        assert hp_norm(g, ctx) == pytest.approx(5.0, rel=1e-13)


def test_norm_homogeneity(rng):
    f_coeffs = random_polynomial(rng, 10)
    for p in P_VALUES:
        ctx = make_ctx(p, 128)
        base = hp_norm(BoundaryFunction(f_coeffs, 128), ctx)
        scaled = hp_norm(BoundaryFunction(2.5j * f_coeffs, 128), ctx)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_parseval_p2(rng):
    coeffs = random_polynomial(rng, 20)
    with pytest.warns(UserWarning):
        ctx = HpContext(2.0, 256)
    f = BoundaryFunction(coeffs, 256)
    assert hp_norm(f, ctx) ** 2 == pytest.approx(
        math.fsum(abs(c) ** 2 for c in coeffs), rel=1e-12
    )


def test_p4_norm_via_squared_function(rng):
    # |f|^4 = |f^2|^2, and Parseval applies to f^2 since deg f^2 < N
    coeffs = random_polynomial(rng, 20)
    ctx = make_ctx(4.0, 256)
    f = BoundaryFunction(coeffs, 256)
    sq = np.convolve(coeffs, coeffs)
    assert hp_norm(f, ctx) ** 4 == pytest.approx(
        math.fsum(abs(c) ** 2 for c in sq), rel=1e-12
    )


def test_norm_grid_convergence_for_odd_p(rng):
    # roots stay outside |z| = 1.3, so |f|^p is analytic in the angle and the
    # trapezoid sums converge spectrally: doubling the grid changes nothing
    coeffs = random_polynomial(rng, 8)
    for p in (1.0, 1.5, 3.0):
        coarse = hp_norm(BoundaryFunction(coeffs, 256), make_ctx(p, 256))
        fine = hp_norm(BoundaryFunction(coeffs, 2048), make_ctx(p, 2048))
        assert coarse == pytest.approx(fine, rel=1e-10)


def test_norm_triangle_inequality(rng):
    for p in P_VALUES:
        ctx = make_ctx(p, 128)
        a = random_polynomial(rng, 9)
        b = random_polynomial(rng, 9)
        fa = hp_norm(BoundaryFunction(a, 128), ctx)
        fb = hp_norm(BoundaryFunction(b, 128), ctx)
        fab = hp_norm(BoundaryFunction(a + b, 128), ctx)
        assert fab <= fa + fb + 1e-12


def test_norm_accepts_raw_samples(rng):
    ctx = make_ctx(3.0, 128)
    f = random_f(rng, 6, 128)
    assert hp_norm(f.samples, ctx) == hp_norm(f, ctx)
    with pytest.raises(GridMismatch):
        hp_norm(f.samples[:64], ctx)
    with pytest.raises(GridMismatch):
        hp_norm(random_f(rng, 6, 256), ctx)


def _nonneg_terms(rng, size: int, kind: str) -> np.ndarray:
    """``size`` nonnegative doubles: |f|^p-like, subnormal, or spread over 2^-1074..2^1000."""
    if kind == "powers":
        return np.abs(rng.standard_normal(size)) ** rng.choice(P_VALUES)
    if kind == "subnormal":
        return rng.integers(0, 2**52, size).astype(float) * 2.0**-1074
    mantissa = rng.uniform(0.5, 1.0, size)
    return np.ldexp(mantissa, rng.integers(-1074, 1000, size))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 2.0**1000), max_size=40))
def test_exact_sum_equals_fsum_on_lists(terms):
    assert _exact_sum(np.array(terms, dtype=float)).hex() == math.fsum(terms).hex()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((0, 1, 2, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 3 * _SUM_CHUNK + 5)),
    st.sampled_from(("powers", "subnormal", "wide")),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_equals_fsum_on_arrays(size, kind, seed):
    x = _nonneg_terms(np.random.default_rng(seed), size, kind)
    assert _exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_ties_and_long_input(rng):
    # exact halfway sums round to even, as fsum's do
    u = 2.0**-53
    for terms in ([1.0, u], [1.0 + 2 * u, u], [1.0] + [u / 4] * 2, [5e-324] * 7 + [2.0**-1022]):
        assert _exact_sum(np.array(terms)).hex() == math.fsum(terms).hex()
    for kind in ("powers", "wide"):
        x = _nonneg_terms(rng, 2**20, kind)
        assert _exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_defers_to_fsum_off_its_domain():
    inf, nan = math.inf, math.nan
    assert _exact_sum(np.array([1.0, inf, 2.0])) == math.fsum([1.0, inf, 2.0]) == inf
    assert math.isnan(_exact_sum(np.array([1.0, nan]))) and math.isnan(math.fsum([1.0, nan]))
    signed = [-1.0, 1e100, 1.0, -1e100, 0.5]
    assert _exact_sum(np.array(signed)).hex() == math.fsum(signed).hex()
    assert _exact_sum(np.array([-0.0, -0.0])).hex() == math.fsum([-0.0, -0.0]).hex()
    with pytest.raises(ValueError):
        _exact_sum(np.array([inf, -inf]))
    with pytest.raises(OverflowError):  # fsum's "intermediate overflow"
        _exact_sum(np.array([1.7e308, 1.7e308]))


# ---------------------------------------------------------------------------
# the weight


def test_weight_modulus_is_boundary_jacobian(rng):
    for _ in range(20):
        phi = random_automorphism(rng)
        p = float(rng.choice(P_VALUES))
        for z in (cmath.exp(0.7j), cmath.exp(-2.1j), 0.4 + 0.3j, 0.0):
            w = weight_function(phi, p, z)
            jac = (1.0 - abs(phi.a) ** 2) / abs(1.0 - phi.a.conjugate() * z) ** 2
            assert abs(w) ** p == pytest.approx(jac, rel=1e-11)


def test_weight_is_analytic_p_th_root(rng):
    for _ in range(20):
        phi = random_automorphism(rng)
        p = float(rng.choice(P_VALUES))
        z = interior_point(rng, 1.0)
        w = weight_function(phi, p, z)
        radicand = (1.0 - abs(phi.a) ** 2) / (1.0 - phi.a.conjugate() * z) ** 2
        assert w**p == pytest.approx(radicand, rel=1e-10)
    phi = random_automorphism(rng)
    w0 = weight_function(phi, 3.0, 0.0)
    assert w0.imag == pytest.approx(0.0, abs=1e-15) and w0.real > 0.0


def test_weight_array_matches_scalars(rng):
    phi = random_automorphism(rng)
    zs = np.array([0.1 + 0.2j, -0.5j, 0.9])
    arr = weight_function(phi, 1.5, zs)
    for z, w in zip(zs, arr):
        assert w == weight_function(phi, 1.5, complex(z))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(P_VALUES),
    st.sampled_from(("uniform", "cap", "near_circle")),
    st.sampled_from((1.0, 0.999, 0.5, 0.0)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_weight_matches_50_digit_root(p, zero_kind, radius, aimed, seed):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(seed)
    r = {
        "uniform": rng.uniform(0.0, MAX_ZERO_MODULUS),
        "cap": MAX_ZERO_MODULUS,
        "near_circle": 1.0 - 10.0 ** rng.uniform(-13.9, -2),
    }[zero_kind]
    alpha = 2.0 * math.pi * rng.uniform()
    a = r * cmath.exp(1j * alpha)
    if abs(a) > MAX_ZERO_MODULUS:  # the rotation rounded past the cap
        a = r * cmath.exp(1j * alpha) * (MAX_ZERO_MODULUS / abs(a))
    phi = DiscAutomorphism(unimodular(rng), a)
    a = phi.a
    theta = alpha if aimed else 2.0 * math.pi * rng.uniform()
    zs = radius * np.exp(1j * np.array([theta, 2.0 * math.pi * rng.uniform()]))
    got = weight_function(phi, p, zs)
    for zk, gk in zip(zs.tolist(), got.tolist()):
        den = 1 - mp.conj(mp.mpc(a)) * mp.mpc(zk)
        ref = (1 - abs(mp.mpc(a)) ** 2) ** (mp.mpf(1) / p) * mp.exp(-(mp.mpf(2) / p) * mp.log(den))
        # 1 - |a|^2 is exactly rounded, so only the rounding of the exponent
        # 1/p is amplified, by |log(1 - |a|^2)|; the cancellation in
        # 1 - conj(a) z by |a z|/|den|, to the power 2/p; the rest is a few
        # roundings (measured: below 5u)
        log_radicand = float(abs(mp.log(1 - abs(mp.mpc(a)) ** 2)))
        cond = log_radicand / p + 2.0 * abs(a * zk) / abs(complex(den)) / p
        assert abs(gk - ref) <= 8 * UNIT_ROUNDOFF * (1.0 + cond) * abs(ref)
        assert weight_function(phi, p, zk) == gk  # scalar z, same code path


def test_weight_branch_error_outside_disc():
    phi = DiscAutomorphism(1.0, 0.5)
    with pytest.raises(BranchError):
        weight_function(phi, 3.0, 3.0)
    weight_function(phi, 3.0, 1.0)  # boundary itself is fine
    with pytest.raises(DomainError):
        weight_function(phi, 0.5, 0.0)


# ---------------------------------------------------------------------------
# the blocked Blaschke-product kernel


def kernel_zeros(rng, count: int, near_cap: float) -> list:
    """``count`` zeros: a share ``near_cap`` within 1e-14..1e-2 of the circle or
    at ``MAX_ZERO_MODULUS``, some at 0, the rest uniform in modulus."""
    out = []
    for _ in range(count):
        u = rng.uniform()
        if u < near_cap:
            r = MAX_ZERO_MODULUS if u < near_cap / 4 else 1.0 - 10.0 ** rng.uniform(-14, -2)
        elif u < near_cap + 0.05:
            r = 0.0
        else:
            r = rng.uniform(0.0, MAX_ZERO_MODULUS)
        out.append(r * cmath.exp(2j * math.pi * rng.uniform()))
    return out


def kernel_points(rng, zeros, radius: float, count: int = 4) -> np.ndarray:
    """Points on the circle of ``radius``, half of them aimed at zeros' arguments."""
    theta = list(2.0 * math.pi * rng.uniform(size=count))
    for k, a in enumerate(zeros[: count // 2]):
        if a != 0:
            theta[k] = cmath.phase(a)
    return radius * np.exp(1j * np.asarray(theta))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((1, 16, 17, 1024)),
    st.sampled_from((1.0, 0.5)),
    st.sampled_from((0.0, 0.3, 1.0)),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(0, 2**32 - 1),
)
def test_inner_product_values_match_50_digit_products(count, radius, near_cap, angle, seed):
    rng = np.random.default_rng(seed)
    zeros = kernel_zeros(rng, count, near_cap)
    assert_kernel_matches_products(zeros, kernel_points(rng, zeros, radius), cmath.exp(1j * angle))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((1.0, 0.5)), st.floats(0.0, 2.0 * math.pi), st.integers(0, 2**32 - 1))
def test_inner_product_values_across_the_reflection_threshold(radius, angle, seed):
    # |a| just below, at and just above 1/2, where the kernel switches from
    # 1 - conj(a) z to -conj(a) (z - 1/conj(a)), mixed inside each block
    rng = np.random.default_rng(seed)
    half_below, half_above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    moduli = [half_below, 0.5, half_above, 0.5 - 1e-9, 0.5 + 1e-9]
    axes = (1.0, 1j, -1.0, -1j)  # on an axis the modulus is exact
    zeros = [complex(m * axes[k % 4]) for k, m in enumerate(moduli * 2)]
    zeros += [m * cmath.exp(2j * math.pi * rng.uniform()) for m in moduli * 3]
    rng.shuffle(zeros)
    assert sum(abs(a) >= 0.5 for a in zeros[:16]) and sum(abs(a) < 0.5 for a in zeros[:16])
    assert_kernel_matches_products(zeros, kernel_points(rng, zeros, radius), cmath.exp(1j * angle))


def assert_kernel_matches_products(zeros, z, phase):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    got = inner_product_values(zeros, z, phase)
    assert got.shape == z.shape and np.all(np.isfinite(got))
    exact = [(mp.mpc(a), mp.mpc(a.conjugate())) for a in zeros]
    for zk, gk in zip(z.tolist(), got.tolist()):
        ref = mp.mpc(phase) * mp.fprod((zk - a) / (1 - ca * zk) for a, ca in exact)
        cond = sum(abs(a * zk) / abs(1.0 - a.conjugate() * zk) for a in zeros)
        # first-order rounding: about 7u per factor (two subtractions, two or
        # three complex products, a share of a division and of the block
        # scalar), plus the cancellation in 1 - conj(a) z, amplified by
        # |a z| / |1 - conj(a) z|
        tol = 8 * UNIT_ROUNDOFF * (len(zeros) + cond) * abs(ref)
        assert abs(gk - ref) <= tol
        assert abs(inner_product_values(zeros, zk, phase) - ref) <= tol  # scalar z


def test_inner_product_values_edge_cases():
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    ones = inner_product_values([], z)
    assert ones.shape == (64,) and np.all(ones == 1.0)
    assert np.all(inner_product_values([], z, 1j) == 1j)
    assert inner_product_values([], 0.3j) == 1.0 and isinstance(inner_product_values([], 0.3j), complex)
    assert np.array_equal(inner_product_values([0j], z), z)  # a = 0 is the identity factor
    assert inner_product_values([0.5, 0j], 0.5) == 0.0
    # 16, 17 and 32 zeros at the modulus cap, evaluated at their argument on
    # the circle: each block's numerator and denominator are ~1e-224
    for count in (16, 17, 32):
        zeros = [MAX_ZERO_MODULUS] * count
        vals = inner_product_values(zeros, np.array([1.0 + 0j, -1.0 + 0j, 1j]))
        assert np.all(np.isfinite(vals))
        assert np.allclose(np.abs(vals), 1.0, rtol=0.0, atol=1e-12 * count)


# ---------------------------------------------------------------------------
# specs and application


def test_spec_validation(rng):
    phi = random_automorphism(rng)
    spec = IsometrySpec(3.0, 2.0j, (), phi)
    assert spec.phase == pytest.approx(1.0j)
    with pytest.raises(DomainError):
        IsometrySpec(3.0, 0.0, (), phi)
    with pytest.raises(DomainError):
        IsometrySpec(0.0, 1.0, (), phi)
    with pytest.raises(DomainError):
        IsometrySpec(3.0, 1.0, (0.3 + 0.1j,), phi)  # raw zeros are not factors
    with pytest.raises(DomainError):
        IsometrySpec(3.0, 1.0, (), "not an automorphism")


def test_inner_values_are_factor_products(rng):
    factors = tuple(normalized_factor(interior_point(rng, 0.8)) for _ in range(3))
    spec = IsometrySpec(3.0, 1.0, factors, identity())
    z = 0.2 - 0.6j
    direct = 1.0
    for fac in factors:
        direct *= eval_auto(fac, z)
    assert complex(spec.inner_values(z)) == pytest.approx(direct, rel=1e-13)


def test_apply_isometry_rotation_case(rng):
    # for phi a rotation the weight is identically 1, so the operator is just
    # phase * Psi * (f o rotation): checkable with independent arithmetic
    lam = unimodular(rng)
    phi = rotation(lam)
    fac = normalized_factor(0.3 + 0.2j)
    spec = IsometrySpec(3.0, -1.0, (fac,), phi)
    ctx = make_ctx(3.0, 128)
    f = random_f(rng, 5, 128)
    out = apply_isometry(spec, f, ctx)
    for j in (0, 17, 90):
        zeta = cmath.exp(2j * math.pi * j / 128)
        expect = -1.0 * eval_auto(fac, zeta) * f(lam * zeta)
        assert abs(out[j] - expect) < 1e-12


def test_apply_isometry_guards(rng):
    phi = random_automorphism(rng)
    spec = IsometrySpec(3.0, 1.0, (), phi)
    ctx = make_ctx(3.0, 128)
    with pytest.raises(DomainError):
        apply_isometry(IsometrySpec(1.5, 1.0, (), phi), random_f(rng, 4, 128), ctx)
    with pytest.raises(GridMismatch):
        apply_isometry(spec, random_f(rng, 4, 256), ctx)
    bad = IsometrySpec(3.0, 1.0, (), phi, infinite=object())
    with pytest.raises(DomainError, match="truncate_spec"):
        apply_isometry(bad, random_f(rng, 4, 128), ctx)


def test_isometry_preserves_norm(rng):
    for p in P_VALUES:
        ctx = make_ctx(p, 2048)
        for _ in range(4):
            phi = random_automorphism(rng)
            factors = tuple(
                normalized_factor(interior_point(rng, 0.7))
                for _ in range(int(rng.integers(0, 3)))
            )
            spec = IsometrySpec(p, unimodular(rng), factors, phi)
            f = random_f(rng, 16, 2048)
            report = verify_isometry(spec, ctx, f=f)
            assert report["rel_defect"] <= 1e-6


def test_finite_blaschke_multiplication_preserves_norm(rng):
    # phi = identity, weight = 1: the operator is multiplication by Psi
    for p in (1.0, 3.0):
        ctx = make_ctx(p, 1024)
        factors = tuple(normalized_factor(interior_point(rng, 0.8)) for _ in range(4))
        spec = IsometrySpec(p, 1.0, factors, identity())
        f = random_f(rng, 12, 1024)
        out = apply_isometry(spec, f, ctx)
        assert hp_norm(out, ctx) == pytest.approx(hp_norm(f, ctx), rel=1e-6)


# ---------------------------------------------------------------------------
# the composition constant


def test_inverse_pair_cocycle_is_trivial(rng):
    for _ in range(20):
        phi = random_automorphism(rng)
        p = float(rng.choice(P_VALUES))
        assert rho_closed_form(phi, inverse(phi), p) == 1.0 + 0.0j
        z = interior_point(rng, 0.95)
        prod = weight_function(phi, p, z) * weight_function(
            inverse(phi), p, eval_auto(phi, z)
        )
        assert prod == pytest.approx(1.0, rel=1e-12)


def test_cocycle_constant_closed_form(rng):
    for _ in range(20):
        phi = random_automorphism(rng)
        psi = random_automorphism(rng)
        p = float(rng.choice(P_VALUES))
        cc = composition_constant(phi, psi, p)
        assert isinstance(cc, CompositionConstant)
        assert abs(cc.rho_numeric) == pytest.approx(1.0, abs=1e-12)
        assert cc.spread <= 1e-9
        assert abs(cc.rho_closed - cc.rho_numeric) <= 1e-8


def test_cocycle_pointwise(rng):
    # W_phi(z) W_psi(phi(z)) = rho W_{psi o phi}(z) at arbitrary interior z
    for _ in range(10):
        phi = random_automorphism(rng)
        psi = random_automorphism(rng)
        p = float(rng.choice(P_VALUES))
        rho = rho_closed_form(phi, psi, p)
        z = interior_point(rng, 0.9)
        lhs = weight_function(phi, p, z) * weight_function(psi, p, eval_auto(phi, z))
        rhs = rho * weight_function(compose(psi, phi), p, z)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_composition_constant_grid_guard(rng):
    with pytest.raises(DomainError):
        composition_constant(random_automorphism(rng), random_automorphism(rng), 3.0, 8)


# ---------------------------------------------------------------------------
# helpers


def test_random_polynomial_roots_stay_outside(rng):
    for _ in range(10):
        deg = int(rng.integers(1, 20))
        coeffs = random_polynomial(rng, deg)
        assert coeffs.size == deg + 1
        roots = np.roots(coeffs[::-1])
        assert np.min(np.abs(roots)) >= 1.3 - 1e-9
    assert random_polynomial(rng, 0).size == 1
    with pytest.raises(DomainError):
        random_polynomial(rng, -1)
    with pytest.raises(DomainError):
        random_polynomial(rng, 3, min_root_modulus=0.9)


def test_verify_isometry_reproducible(rng):
    phi = random_automorphism(rng)
    spec = IsometrySpec(3.0, 1.0, (), phi)
    ctx = make_ctx(3.0, 512)
    r1 = verify_isometry(spec, ctx, seed=11)
    r2 = verify_isometry(spec, ctx, seed=11)
    assert r1 == r2
    assert r1["N"] == 512
    assert r1["rel_defect"] <= 1e-6
    with pytest.raises(DomainError):
        verify_isometry(spec, ctx, f=BoundaryFunction([0.0], 512))


@pytest.mark.parametrize("count", (0, 1, 3, 17))
def test_verify_isometry_peak_memory(count):
    # at most seven grid-sized complex arrays live at once: the test
    # function's samples, the grid, the output and the kernel's scratch
    n = 2**16
    phi = DiscAutomorphism(cmath.exp(0.4j), 0.3 - 0.5j)
    factors = tuple(normalized_factor((0.2 + 0.04 * k) * cmath.exp(1.3j * k)) for k in range(count))
    spec = IsometrySpec(3.0, 1j, factors, phi)
    ctx = make_ctx(3.0, n)
    verify_isometry(spec, ctx, seed=5)  # first call: one-time allocations
    tracemalloc.start()
    try:
        report = verify_isometry(spec, ctx, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["rel_defect"] <= 1e-12
    assert peak <= 7 * 16 * n
