"""Closed-form ``iterate`` and ``compose`` against 80-digit mpmath oracles.

The oracles never use the closed forms: ``iterate`` is checked against the
binary power of the SU(1,1) matrix of the stored ``(lam, a)``, and
``compose`` against the product of the two matrices.

Error bound of ``iterate`` (``u = 2^-53``, first order).  The closed form
builds ``A = T_n + i U_{n-1} Im alpha`` and ``B = U_{n-1} beta`` from
``(alpha, beta)`` with a fixed number of operations, so every rounding
enters once.  ``|A|^2 - |B|^2 = 1``, so ``|A| >= 1``.

* ``d = tau^2 - 1 = (|beta| - |Im alpha|)(|beta| + |Im alpha|)``.  The
  entries ``|beta|`` and ``|Im alpha|`` are within ``7u`` and ``3u``
  (relative) of their exact values, apart from the common factor ``c =
  sqrt(1 - |a|^2)``: ``1 - |a|`` carries the rounding of ``|a|``, so ``c``
  is within ``eps_c = (|alpha|^2 + 3) u``.  Two more roundings form ``d``,
  which is therefore off by at most ``delta_d = 10u (|beta| + |Im alpha|)^2
  + 2 (eps_c + u) |d|``.  The iterate depends on ``d`` through the angle
  ``n theta``, at most 3/2 times as strongly as the exact power depends on
  ``tau^2 - 1`` (the two ``d theta/dd`` differ by that factor at most, for
  ``tau > 1``).  That sensitivity ``K = |d (a_n, lam_n)/dd|`` is the
  iterate's condition number; it grows like ``|n|``, and the oracle
  measures it by a central difference at 80 digits.
* The angle ``x = n theta`` is otherwise off by at most ``6u x``: the
  rounding of ``atan2`` or ``log1p`` (``2u``), of the product (``u``) and
  ``tau``'s ``3u`` (``|d theta/d tau| = s <= theta`` for ``tau < 1``).
  ``T_n`` and ``U_{n-1}`` share the angle, so this is an exact power at a
  moved angle; per unit of ``x`` the zero moves at most ``|beta|/s`` and
  the phase ``2 |Im alpha|/s`` (``s = |sin theta|`` or ``sinh theta``),
  and ``x/s <= (pi/2) |n|``: at most ``19 |n| u |alpha|``.  The common
  factor ``c`` cancels from ``theta`` (for ``tau <= 1``), ``U_{n-1} Im
  alpha`` and ``U_{n-1} beta`` up to ``2 eps_c``, and the roundings that
  form ``A``, ``B``, ``-B/A`` and ``A/conj(A)`` add at most ``16u``.

So ``|error| <= (3/2) delta_d K + 20 (|n| + 1) u (|alpha|^2 + 3)``.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpiso import (
    DiscAutomorphism,
    DomainError,
    compose,
    disc_translation,
    inverse,
    iterate,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)

U = 2.0**-53
DPS = 80


def mpc(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def su11(phi: DiscAutomorphism):
    """The exact SU(1,1) entries of the stored ``(lam, a)``."""
    lam, a = mpc(phi.lam), mpc(phi.a)
    half = mp.sqrt(lam / abs(lam))
    c = mp.sqrt(1 - abs(a) ** 2)
    return half / c, -a * half / c


def power(alpha, beta, n: int):
    """``(A, B)`` of ``M^n`` by binary powering (the inverse for ``n < 0``)."""
    if n < 0:
        alpha, beta, n = mp.conj(alpha), -beta, -n
    A, B = mp.mpc(1), mp.mpc(0)
    while n:
        if n & 1:
            A, B = A * alpha + B * mp.conj(beta), A * beta + B * mp.conj(alpha)
        alpha, beta = alpha * alpha + beta * mp.conj(beta), alpha * beta + beta * mp.conj(alpha)
        n >>= 1
    return A, B


def zero_and_phase(A, B):
    return -B / A, A / mp.conj(A)


def with_d_moved(alpha, beta, h):
    """The SU(1,1) entries with ``tau^2 - 1`` moved by ``h`` and the
    determinant kept at 1 by ``|beta|`` or ``|Im alpha|``, whichever is larger."""
    tau = mp.sqrt(mp.re(alpha) ** 2 + h)
    if abs(beta) >= abs(mp.im(alpha)):
        return mp.mpc(tau, mp.im(alpha)), beta * mp.sqrt(1 + h / abs(beta) ** 2)
    return mp.mpc(tau, mp.sign(mp.im(alpha)) * mp.sqrt(mp.im(alpha) ** 2 - h)), beta


def oracle(phi: DiscAutomorphism, n: int):
    """The exact ``(a_n, lam_n)``, its distance to the circle and the bound."""
    with mp.workdps(DPS):
        alpha, beta = su11(phi)
        a_n, lam_n = zero_and_phase(*power(alpha, beta, n))
        b, i = abs(beta), abs(mp.im(alpha))
        d = (b - i) * (b + i)
        h = mp.mpf(10) ** -30 * (1 + (b + i) ** 2)
        up = zero_and_phase(*power(*with_d_moved(alpha, beta, h), n))
        down = zero_and_phase(*power(*with_d_moved(alpha, beta, -h), n))
        K = max(abs(up[0] - down[0]), abs(up[1] - down[1])) / (2 * h)
        eps_c = (abs(alpha) ** 2 + 3) * U
        delta_d = 10 * U * (b + i) ** 2 + 2 * (eps_c + U) * abs(d)
        bound = 1.5 * delta_d * K + 20 * (abs(n) + 1) * U * (abs(alpha) ** 2 + 3)
        return a_n, lam_n, float(1 - abs(a_n)), float(bound)


def error(result: DiscAutomorphism, a_n, lam_n) -> float:
    with mp.workdps(DPS):
        return float(max(abs(mpc(result.a) - a_n), abs(mpc(result.lam) - lam_n)))


def conjugated(kappa: DiscAutomorphism, centre: complex) -> DiscAutomorphism:
    eta = disc_translation(centre)
    return compose(eta, compose(kappa, inverse(eta)))


def check_iterate(phi: DiscAutomorphism, n: int, must_return: bool = False) -> None:
    """``iterate(phi, n)`` within the bound of the exact power; a refusal only
    at the circle: within 1e-13 of it, or within the bound of the 1e-14 cap
    (``must_return`` drops that second case)."""
    a_n, lam_n, gap, bound = oracle(phi, n)
    try:
        result = iterate(phi, n)
    except DomainError:
        limit = 1e-13 if must_return else max(1e-13, 1e-14 + bound)
        assert gap < limit, f"refused an iterate {gap:.3e} from the circle (bound {bound:.3e})"
        return
    err = error(result, a_n, lam_n)
    assert err <= bound, f"error {err:.3e} above the bound {bound:.3e} (gap {gap:.3e})"


# ---------------------------------------------------------------------------
# symbols of every class

centres = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2.0 * math.pi),
)
signs = st.sampled_from((1.0, -1.0))
counts = st.builds(
    lambda e, s: s * max(1, round(10.0**e)),
    st.floats(0.0, 6.0),
    st.sampled_from((1, -1)),
)


@st.composite
def symbols(draw):
    kind = draw(st.sampled_from(("elliptic", "parabolic", "hyperbolic", "band rotation")))
    if kind == "band rotation":
        # a rotation whose trace lies inside the parabolic band of classify
        return rotation(cmath.exp(1j * draw(signs) * 10.0 ** draw(st.floats(-12.0, -8.0))))
    if kind == "elliptic":
        kappa = rotation(cmath.exp(1j * draw(signs) * 10.0 ** draw(st.floats(-8.0, math.log10(math.pi)))))
    elif kind == "parabolic":
        # 1 - |a| of the chart map is about t^2/8: down to 1e-10 at t = 3e-5
        kappa = parabolic_fixing_one(cmath.exp(1j * draw(signs) * 10.0 ** draw(st.floats(-4.5, 0.49))))
    else:
        kappa = standard_hyperbolic(draw(signs) * 10.0 ** draw(st.floats(-8.0, -0.01)))
    return conjugated(kappa, draw(centres))


@settings(max_examples=400, deadline=None)
@given(symbols(), counts)
def test_iterate_matches_the_exact_power(phi, n):
    check_iterate(phi, n)


@pytest.mark.parametrize("n", [1, 2, 10, 10**4, 10**6, -(10**6)])
@pytest.mark.parametrize("centre", [0.0, 0.3 - 0.2j, -0.45j, 0.5 + 0.1j])
@pytest.mark.parametrize("c", [1j, -1j])
def test_parabolic_iterates_up_to_a_million(c, centre, n):
    # the exact iterates at n = 10^6 lie 5e-14 to 5e-13 from the circle, so
    # they must be returned, not refused
    check_iterate(conjugated(parabolic_fixing_one(c), centre), n, must_return=True)


@pytest.mark.parametrize("t", [1e-4, 3e-5])
@pytest.mark.parametrize("n", [1, 3, 10, -10])
def test_parabolic_zeros_near_the_circle(t, n):
    # 1 - |a| is about 1e-9 and 1e-10 here
    for sign in (1.0, -1.0):
        phi = conjugated(parabolic_fixing_one(cmath.exp(1j * sign * t)), 0.2 + 0.1j)
        assert 1.0 - abs(phi.a) < 2e-9
        check_iterate(phi, n, must_return=True)


def test_deep_hyperbolic_iterates_raise_domain_error():
    phi = conjugated(standard_hyperbolic(0.5), 0.3 + 0.4j)
    for n in (40, 10**3, 10**6, 10**9, -(10**6)):
        # 10^3 stops at the 1e-14 cap, 10^6 and 10^9 also overflow sinh
        with pytest.raises(DomainError, match="not representable"):
            iterate(phi, n)
    assert iterate(phi, 10).a != 0


# ---------------------------------------------------------------------------
# compose


automorphisms = st.builds(
    lambda t, g, s: DiscAutomorphism(cmath.exp(1j * t), (1.0 - 10.0**g) * cmath.exp(1j * s)),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-12.0, 0.0),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=400, deadline=None)
@given(automorphisms, automorphisms)
def test_compose_matches_the_matrix_product(outer, inner):
    """``compose`` against the product of the exact SU(1,1) matrices.

    With ``w = lam_in + a_out conj(a_in)``, the closed form rounds ``w`` and
    the numerator ``a_out + lam_in a_in`` by at most ``6u`` each (a complex
    product and a sum of terms below 1 in modulus), so the zero is within
    ``12u/|w| + 4u`` and the phase ``lam_out w/(lam_in conj(w))`` within
    ``12u/|w| + 8u``: both below ``20u/|w|``, as ``|w| <= 2``.  ``1/|w|``
    is the conditioning of the composite zero on the inputs.
    """
    with mp.workdps(DPS):
        a1, b1 = su11(outer)
        a2, b2 = su11(inner)
        A = a1 * a2 + b1 * mp.conj(b2)
        B = a1 * b2 + b1 * mp.conj(a2)
        a, lam = zero_and_phase(A, B)
        w = abs(mpc(inner.lam) + mpc(outer.a) * mp.conj(mpc(inner.a)))
        bound = float(20 * U / w)
        gap = float(1 - abs(a))
    try:
        result = compose(outer, inner)
    except DomainError:
        # only a composite zero at the 1e-14 cap may be refused
        assert gap < 1e-14 + bound
        return
    assert error(result, a, lam) <= bound
