"""Holomorphic automorphisms of the open unit disc.

Every holomorphic automorphism of ``D = {z : |z| < 1}`` can be written

    phi(z) = lam * (z - a) / (1 - conj(a) * z),    |lam| = 1, |a| < 1,

and the pair ``(lam, a)`` is unique.  This module implements the group
structure (closed forms for composition, inverse and iteration), the
trace-based classification into identity / elliptic / parabolic /
hyperbolic, model charts with explicit conjugators, and the one-parameter
commutant groups.

``classify`` and ``iterate`` read the SU(1,1) representative ``[[alpha,
beta], [conj(beta), conj(alpha)]]`` of ``phi = (alpha z + beta)/(conj(beta)
z + conj(alpha))``, unique up to sign.  Model charts use general matrices,
4-tuples ``(m0, m1, m2, m3)`` acting as ``z -> (m0 z + m1)/(m2 z + m3)``.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from ._record import Record
from .errors import (
    AmbiguousClassification,
    DomainError,
    IdentityError,
    PoleError,
)

__all__ = [
    "DiscAutomorphism",
    "Kind",
    "Orientation",
    "Classification",
    "Chart",
    "identity",
    "rotation",
    "standard_hyperbolic",
    "parabolic_fixing_one",
    "disc_translation",
    "eval_auto",
    "compose",
    "inverse",
    "iterate",
    "classify",
    "model_chart",
    "find_conjugator",
    "commutant_element",
    "boundary_points",
    "circle_points",
    "pointwise_distance",
]

#: evaluation is allowed on the closed disc plus this tolerance shell
EVAL_SLACK = 1e-12
#: zeros this close to the unit circle are rejected at construction
MAX_ZERO_MODULUS = 1.0 - 1e-14
#: default tolerance of the parabolic trace band |t - 2| <= tol
CLASSIFY_TOL = 1e-9
#: identity detection threshold on |lam - 1| and |a|
IDENTITY_TOL = 1e-14
#: largest |n| accepted by iterate()
MAX_ITERATE = 10**9


def _as_complex(z) -> complex:
    try:
        return complex(z)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not interpretable as a complex number: {z!r}") from exc


class DiscAutomorphism(Record):
    """Automorphism ``z -> lam (z - a) / (1 - conj(a) z)`` of the unit disc.

    ``lam`` is scaled to unit modulus on construction; ``a`` (the
    point sent to 0) must satisfy ``|a| <= 1 - 1e-14``.
    """

    __slots__ = ("lam", "a")

    def __init__(self, lam: complex, a: complex):
        lam = _as_complex(lam)
        a = _as_complex(a)
        mod = abs(lam)
        if not math.isfinite(mod) or mod == 0.0:
            raise DomainError("phase lam must be a finite nonzero complex number")
        lam = lam / mod
        if not abs(a) <= MAX_ZERO_MODULUS:
            raise DomainError(
                f"zero must lie strictly inside the disc: |a| = {abs(a)!r}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)

    def __call__(self, z: complex) -> complex:
        return eval_auto(self, z)

    def is_identity(self) -> bool:
        return abs(self.lam - 1.0) <= IDENTITY_TOL and abs(self.a) <= IDENTITY_TOL


class Kind(Enum):
    IDENTITY = "Identity"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


class Orientation(Enum):
    PLUS = "plus"
    MINUS = "minus"
    NOT_APPLICABLE = None


class Classification(Record):
    """Conjugacy-class data of a disc automorphism.

    ``fixed_points`` is empty for the identity, ``(z0,)`` with ``|z0| < 1``
    for elliptic maps, ``(w,)`` with ``|w| = 1`` for parabolic maps, and
    ``(attracting, repelling)`` on the circle for hyperbolic maps.
    ``multiplier`` is the derivative at the first listed fixed point
    (unimodular for elliptic, 1 for parabolic, in (0,1) for hyperbolic).
    ``orientation`` distinguishes the two parabolic half-turn directions and
    is NOT_APPLICABLE otherwise.
    """

    __slots__ = ("kind", "fixed_points", "multiplier", "orientation")

    def __init__(
        self, kind: Kind, fixed_points: tuple, multiplier: complex,
        orientation: Orientation = Orientation.NOT_APPLICABLE,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fixed_points", fixed_points)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "orientation", orientation)


# ---------------------------------------------------------------------------
# constructors


def identity() -> DiscAutomorphism:
    """The identity automorphism ``e``."""
    return DiscAutomorphism(1.0, 0.0)


def rotation(lam: complex) -> DiscAutomorphism:
    """Rotation ``z -> lam z`` about the origin (``|lam| = 1``)."""
    return DiscAutomorphism(lam, 0.0)


def standard_hyperbolic(r: float) -> DiscAutomorphism:
    """The self-map ``z -> (z - r)/(1 - r z)`` of the disc, ``-1 < r < 1``.

    For ``r != 0`` it is hyperbolic with fixed points ±1; for ``r > 0``
    the attracting one is -1 with multiplier ``(1 - r)/(1 + r)``.
    """
    r = float(r)
    if not abs(r) < 1.0:
        raise DomainError("standard hyperbolic parameter must satisfy |r| < 1")
    return DiscAutomorphism(1.0, r)


def parabolic_fixing_one(c: complex) -> DiscAutomorphism:
    """Parabolic automorphism ``z -> (1 + c - 2z)/(2c - (1 + c) z)``.

    ``c`` ranges over the unit circle minus ±1; the fixed point is 1 for
    every ``c``.  In zero/phase form this is ``lam = -1/c, a = (1 + c)/2``.
    The two orientations are reached by ``Im c > 0`` and ``Im c < 0``.
    """
    c = _as_complex(c)
    if abs(abs(c) - 1.0) > 1e-9 or abs(c - 1.0) < 1e-9 or abs(c + 1.0) < 1e-9:
        raise DomainError("parameter must lie on the unit circle, away from ±1")
    c = c / abs(c)
    return DiscAutomorphism(-1.0 / c, (1.0 + c) / 2.0)


def disc_translation(c: complex) -> DiscAutomorphism:
    """The automorphism ``z -> (z + c)/(1 + conj(c) z)`` taking 0 to ``c``."""
    return DiscAutomorphism(1.0, -_as_complex(c))


# ---------------------------------------------------------------------------
# group operations


def eval_auto(phi: DiscAutomorphism, z: complex) -> complex:
    """Evaluate ``phi`` at ``z`` (closed disc plus a 1e-12 shell)."""
    z = _as_complex(z)
    if not abs(z) <= 1.0 + EVAL_SLACK:
        raise DomainError(f"evaluation point must satisfy |z| <= 1 + 1e-12, got |z| = {abs(z)}")
    den = 1.0 - phi.a.conjugate() * z
    if den == 0:
        raise PoleError("evaluation at the pole of the automorphism")
    return phi.lam * (z - phi.a) / den


def compose(outer: DiscAutomorphism, inner: DiscAutomorphism) -> DiscAutomorphism:
    """The composition ``outer o inner`` (apply ``inner`` first).

    With ``w = lam_in + a_out conj(a_in)`` (nonzero, as ``|a_out conj(a_in)|
    < 1``) the zero is ``inner^{-1}(a_out) = (a_out + lam_in a_in)/w`` and
    the phase is ``lam_out w/(lam_in conj(w))``, read off at ``z = 0``.
    """
    w = inner.lam + outer.a * inner.a.conjugate()
    lam = outer.lam * w / (inner.lam * w.conjugate())
    return DiscAutomorphism(lam, (outer.a + inner.lam * inner.a) / w)


def inverse(phi: DiscAutomorphism) -> DiscAutomorphism:
    """Group inverse: ``(lam, a) -> (conj(lam), -lam a)``."""
    return DiscAutomorphism(phi.lam.conjugate(), -phi.lam * phi.a)


def _su11(phi: DiscAutomorphism):
    """The SU(1,1) entries ``(alpha, beta)`` of ``phi``: ``alpha = sqrt(lam)/c``
    and ``beta = -a sqrt(lam)/c`` with ``c = sqrt(1 - |a|^2)``.  The principal
    square root gives ``Re alpha >= 0``."""
    half = cmath.sqrt(phi.lam)  # principal square root, unit modulus
    c = math.sqrt((1.0 - abs(phi.a)) * (1.0 + abs(phi.a)))
    return half / c, -phi.a * half / c


def iterate(phi: DiscAutomorphism, n: int) -> DiscAutomorphism:
    """The n-fold composition of ``phi`` (negative ``n`` iterates the inverse).

    Closed form, by Cayley-Hamilton: the SU(1,1) matrix ``M`` of ``phi`` has
    determinant 1 and trace ``2 tau``, ``tau = Re alpha >= 0``, so ``M^n =
    U_{n-1}(tau) M - U_{n-2}(tau) I`` with the Chebyshev polynomials ``T``,
    ``U`` (Mason & Handscomb, *Chebyshev Polynomials*, 2003).  By ``U_{n-2}
    = tau U_{n-1} - T_n`` its top row is ``A = T_n + i U_{n-1} Im alpha`` and
    ``U_{n-1} beta``, so ``lam_n = A/conj(A)`` and ``a_n = -U_{n-1} beta/A``.
    With ``tau^2 - 1 = (|beta| - |Im alpha|)(|beta| + |Im alpha|)`` (no
    cancellation): ``T_n = cos(n theta)``, ``U_{n-1} = sin(n theta)/sin
    theta``, ``theta = atan2(sqrt(1 - tau^2), tau)`` for ``tau < 1``;
    ``cosh``/``sinh`` with ``theta = log1p((tau^2 - 1)/(tau + 1) +
    sqrt(tau^2 - 1))`` for ``tau > 1``; ``T_n = 1``, ``U_{n-1} = n`` for
    ``tau = 1``.  This is the exact power of the stored map (no class, no
    band), ``A`` needs no subtraction, and ``T_n``, ``U_{n-1}`` share one
    angle, so a rounded angle still gives an exact power.  Once the zero is
    within 1e-14 of the circle, or ``cosh`` overflows, the iterate is not
    representable and ``DomainError`` says so.
    """
    n = int(n)
    if abs(n) > MAX_ITERATE:
        raise DomainError(f"iteration count limited to |n| <= {MAX_ITERATE}")
    if n == 0:
        return identity()
    alpha, beta = _su11(phi)
    if n < 0:  # the inverse's matrix
        alpha, beta = alpha.conjugate(), -beta
    k = abs(n)
    d = (abs(beta) - abs(alpha.imag)) * (abs(beta) + abs(alpha.imag))  # tau^2 - 1
    try:
        if d < 0.0:
            s = math.sqrt(-d)
            x = k * math.atan2(s, alpha.real)
            t, u = math.cos(x), math.sin(x) / s
        elif d > 0.0:
            s = math.sqrt(d)
            x = k * math.log1p(d / (alpha.real + 1.0) + s)
            t, u = math.cosh(x), math.sinh(x) / s
        else:
            t, u = 1.0, float(k)
        A = complex(t, u * alpha.imag)
        return DiscAutomorphism(A / A.conjugate(), -u * beta / A)
    except (DomainError, OverflowError):
        raise DomainError(
            f"the zero of the {n}-th iterate lies within 1e-14 of the unit circle "
            "in floating point; the iterate is not representable"
        ) from None


# ---------------------------------------------------------------------------
# classification

#: cross-check slack: how far a computed boundary fixed point may sit from
#: the unit circle before the trace verdict is declared inconsistent
_HYPERBOLIC_CIRCLE_SLACK = 1e-6
_PARABOLIC_ROOT_SLACK = 1e-4


def _derivative(phi: DiscAutomorphism, z: complex) -> complex:
    den = 1.0 - phi.a.conjugate() * z
    return phi.lam * (1.0 - abs(phi.a) ** 2) / (den * den)


def _fixed_point_roots(phi: DiscAutomorphism):
    """Roots of ``conj(a) z^2 + (lam - 1) z - lam a = 0`` (requires a != 0)."""
    A = phi.a.conjugate()
    B = phi.lam - 1.0
    C = -phi.lam * phi.a
    disc = B * B - 4.0 * A * C
    sq = cmath.sqrt(disc)
    # pick the sign that avoids cancellation
    if abs(B + sq) >= abs(B - sq):
        q = -(B + sq) / 2.0
    else:
        q = -(B - sq) / 2.0
    return q / A, C / q


def _cayley_at(w: complex):
    """Matrix of ``C_w(z) = i (conj(w) z + 1)/(1 - conj(w) z)``: disc -> upper half plane, w -> inf."""
    wb = w.conjugate()
    return (1j * wb, 1j, -wb, 1.0)


def _mat_mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _mat_inv(m):
    return (m[3], -m[1], -m[2], m[0])


def _mat_apply(m, z):
    den = m[2] * z + m[3]
    if den == 0:
        raise PoleError("general Moebius matrix evaluated at its pole")
    return (m[0] * z + m[1]) / den


def _disc_from_matrix(m) -> DiscAutomorphism:
    """Extract a disc automorphism from a general matrix that preserves D.

    A GL(2,C) matrix preserving the disc is ``c [[alpha, beta], [conj(beta),
    conj(alpha)]]`` with an SU(1,1) matrix and a scalar ``c``, so ``lam =
    alpha/conj(alpha) = m0/m3`` and ``a = -beta/alpha = -m1/m0``.  These
    ratios need no ``sqrt(det)``, whose cancellation near the circle would
    cost ``u/|det|`` of relative precision; the conjugation structure is
    checked in the same form: ``|m3| = |m0|`` and ``m2 conj(m0) = m3
    conj(m1)``.
    """
    if m[0] * m[3] - m[1] * m[2] == 0:
        raise DomainError("singular matrix")
    scale = abs(m[0]) * abs(m[3])
    if not 0.0 < scale < math.inf:
        raise DomainError("degenerate Moebius matrix")
    if (
        not abs(abs(m[3]) - abs(m[0])) <= 1e-8 * abs(m[0])
        or not abs(m[2] * m[0].conjugate() - m[3] * m[1].conjugate()) <= 1e-8 * scale
    ):
        raise DomainError("matrix does not preserve the unit disc")
    return DiscAutomorphism(m[0] / m[3], -m[1] / m[0])


def _parabolic_translation_length(phi: DiscAutomorphism, w: complex) -> float:
    """Translation length of ``phi`` in the half-plane chart at its fixed point ``w``.

    ``C_w o phi o C_w^{-1}`` is ``zeta -> zeta + s`` with real ``s``; returns ``s``.
    """
    img = eval_auto(phi, -w)  # C_w^{-1}(0) = -w
    s = _mat_apply(_cayley_at(w), img)
    return s.real


def classify(phi: DiscAutomorphism, tol: float = CLASSIFY_TOL) -> Classification:
    """Classify ``phi`` by the SU(1,1) trace test, cross-checked on fixed points.

    With ``t = |alpha + conj(alpha)|``: elliptic if ``t < 2 - tol``, parabolic
    if ``|t - 2| <= tol``, hyperbolic if ``t > 2 + tol``.  The quantity
    ``t^2 - 4`` is computed in the cancellation-free product form
    ``4 (|beta| - |Im alpha|)(|beta| + |Im alpha|)``.  The verdict is checked
    against the fixed-point geometry (interior point vs. unit-circle points);
    genuine straddling inputs raise ``AmbiguousClassification``.
    """
    tol = float(tol)
    if not 1e-14 <= tol <= 1e-4:
        raise DomainError("classification tolerance must lie in [1e-14, 1e-4]")
    if phi.is_identity():
        return Classification(Kind.IDENTITY, (), 1.0 + 0.0j, Orientation.NOT_APPLICABLE)

    alpha, beta = _su11(phi)
    t = 2.0 * alpha.real
    disc = 4.0 * (abs(beta) - abs(alpha.imag)) * (abs(beta) + abs(alpha.imag))
    band = tol * (t + 2.0)

    if abs(disc) <= band:
        kind = Kind.PARABOLIC
    elif disc < 0.0:
        kind = Kind.ELLIPTIC
    else:
        kind = Kind.HYPERBOLIC

    if phi.a == 0:
        # rotation about the origin: elliptic with fixed point 0
        if kind is not Kind.ELLIPTIC:
            raise AmbiguousClassification(
                "rotation within the parabolic trace band; increase resolution or lower tol"
            )
        mult = phi.lam
        return Classification(Kind.ELLIPTIC, (0.0 + 0.0j,), mult, Orientation.NOT_APPLICABLE)

    r1, r2 = _fixed_point_roots(phi)

    if kind is Kind.ELLIPTIC:
        # abs() raises OverflowError on the outer root of a subnormal ``a``
        inner = min((r1, r2), key=lambda r: math.hypot(r.real, r.imag))
        if not abs(inner) < 1.0:
            raise AmbiguousClassification(
                "trace test says elliptic but no fixed point lies inside the disc"
            )
        mult = _derivative(phi, inner)
        mult = mult / abs(mult)  # unimodular by invariance; renormalize
        return Classification(Kind.ELLIPTIC, (inner,), mult, Orientation.NOT_APPLICABLE)

    if kind is Kind.PARABOLIC:
        gap = abs(r1 - r2)
        w = -(phi.lam - 1.0) / (2.0 * phi.a.conjugate())  # double root
        if gap > _PARABOLIC_ROOT_SLACK or abs(abs(w) - 1.0) > _PARABOLIC_ROOT_SLACK:
            raise AmbiguousClassification(
                "trace test says parabolic but the fixed points are not a double point on the circle"
            )
        w = w / abs(w)
        mult = _derivative(phi, w)
        s = _parabolic_translation_length(phi, w)
        # C_w conjugates parabolic_fixing_one(1j) to zeta -> zeta + 2: "plus"
        orient = Orientation.PLUS if s > 0 else Orientation.MINUS
        return Classification(Kind.PARABOLIC, (w,), mult, orient)

    # hyperbolic
    if max(abs(abs(r1) - 1.0), abs(abs(r2) - 1.0)) > _HYPERBOLIC_CIRCLE_SLACK:
        raise AmbiguousClassification(
            "trace test says hyperbolic but the fixed points do not sit on the circle"
        )
    w1, w2 = r1 / abs(r1), r2 / abs(r2)
    m1 = _derivative(phi, w1)
    m2 = _derivative(phi, w2)
    # boundary derivatives of a hyperbolic automorphism are real and positive
    if abs(m1) > abs(m2):
        w1, w2 = w2, w1
        m1, m2 = m2, m1
    mult = abs(m1)
    if not mult < 1.0:
        raise AmbiguousClassification("hyperbolic multiplier check failed")
    return Classification(Kind.HYPERBOLIC, (w1, w2), mult, Orientation.NOT_APPLICABLE)


# ---------------------------------------------------------------------------
# model charts and conjugacy


def _boundary_pair_to_halfplane(w1: complex, w2: complex):
    """Matrix of a Moebius map D -> upper half plane with ``w1 -> 0, w2 -> inf``.

    The map is ``z -> tau (z - w1)/(z - w2)`` where the unimodular ``tau``
    rotates the image line of the unit circle onto the real axis, with the
    sign fixed so the disc lands in the upper half plane.
    """
    tau = cmath.sqrt(w1.conjugate() * w2)
    img = tau * w1 / w2  # image of 0 with the trial sign
    if img.imag <= 0:
        tau = -tau
    return (tau, -tau * w1, 1.0, -w2)


class Chart(NamedTuple):
    """The model chart of a disc automorphism ``phi`` (see ``model_chart``).

    The matrix ``m`` (``z -> (m0 z + m1)/(m2 z + m3)``) sends the disc onto
    the model domain, where ``phi`` is the rotation ``zeta -> action zeta``
    of the disc (elliptic, fixed point at 0), the dilation ``zeta -> action
    zeta`` of the upper half plane (hyperbolic, attracting fixed point at 0,
    repelling at infinity) or its translation ``zeta -> zeta + action``
    (parabolic, fixed point at infinity).  ``action`` is the class
    invariant: the multiplier, the attracting multiplier, or the signed
    translation length whose sign is the orientation.  The commutant of
    ``phi`` acts in the chart as the model maps ``zeta -> e^{it} zeta``,
    ``zeta -> e^{-2t} zeta`` or ``zeta -> zeta + t``.  The identity's chart
    is ``(Kind.IDENTITY, None, None)``.
    """

    kind: Kind
    m: Optional[tuple]
    action: object

    @classmethod
    def centred(cls, z0: complex, action: complex = 1.0 + 0.0j) -> "Chart":
        """The disc chart ``z -> (z - z0)/(1 - conj(z0) z)`` of the rotation
        by ``action`` about ``z0`` (by default the identity, whose commutant
        contains the rotations about every point)."""
        return cls(Kind.ELLIPTIC, (1.0, -z0, -z0.conjugate(), 1.0), action)

    def apply(self, z: complex) -> complex:
        """The chart image of ``z``."""
        return _mat_apply(self.m, z)

    def inverse(self) -> "Chart":
        """The chart of ``phi^{-1}``, with no second classification: the inverse
        rotation or translation on the same ``m``, or for hyperbolic maps the
        same multiplier on ``m`` followed by ``zeta -> -1/zeta`` (``m2 = 1``)."""
        kind, m, action = self
        if kind is Kind.HYPERBOLIC:
            return self._replace(m=(-m[2] / m[0], -m[3] / m[0], 1.0, m[1] / m[0]))
        if kind is Kind.IDENTITY:
            return self
        return self._replace(action=action.conjugate() if kind is Kind.ELLIPTIC else -action)

    def commutant(self, t: float) -> DiscAutomorphism:
        """The commutant element at parameter ``t``: the model map at ``t``
        conjugated back by ``m`` (``t = 0`` gives the identity exactly)."""
        t = float(t)
        if not math.isfinite(t):
            raise DomainError(f"commutant parameter t must be finite, got {t!r}")
        if self.kind is Kind.IDENTITY:
            raise IdentityError("the commutant of the identity is the whole group")
        if t == 0.0:
            return identity()
        try:
            return self.conjugator(self, t=t)
        except (DomainError, OverflowError):  # the chart product degenerates
            raise DomainError(
                f"the commutant element at t = {t!r} is not representable: its zero "
                "lies within 1e-14 of the unit circle in floating point"
            ) from None

    def parameter(self, u: complex, v: complex) -> Optional[float]:
        """The ``t`` whose model map carries the chart point ``v`` to ``u``.

        Exact when ``u`` lies on the model orbit of ``v``; otherwise the
        hyperbolic ``t`` matches the moduli and the parabolic one the real
        parts.  None when an elliptic point sits within 1e-12 of the centre,
        where the angle is undefined.
        """
        if self.kind is Kind.ELLIPTIC:
            if abs(u) < 1e-12 or abs(v) < 1e-12:
                return None
            return cmath.phase(u / v)
        if self.kind is Kind.HYPERBOLIC:
            return 0.5 * math.log(abs(v) / abs(u))
        if self.kind is Kind.PARABOLIC:
            return (u - v).real
        raise IdentityError("the commutant of the identity is the whole group")

    def conjugator(
        self, other: "Chart", tol: float = CLASSIFY_TOL, t: float = 0.0
    ) -> Optional[DiscAutomorphism]:
        """The conjugator at parameter ``t`` from this chart's map ``phi`` to
        the map ``psi`` of ``other``, or None if their classes differ.

        Every ``eta`` with ``psi = eta o phi o eta^{-1}`` is ``eta_0 o
        gamma_t`` for one commutant element ``gamma_t`` of ``phi``, and
        ``eta_0 o gamma_t = m_psi^{-1} D g_t m_phi`` is built in one matrix
        product: ``g_t`` is the model map at ``t`` and ``D`` the dilation
        ``s_psi/s_phi`` matching the translation lengths of parabolic maps
        (the identity for the other kinds).
        """
        if self.kind is Kind.IDENTITY or other.kind is Kind.IDENTITY:
            raise IdentityError("conjugators of the identity are not meaningful here")
        if not _same_class(self, other, tol):
            return None
        if self.kind is Kind.ELLIPTIC:
            model = (cmath.exp(1j * t), 0j, 0j, 1 + 0j)
        elif self.kind is Kind.HYPERBOLIC:
            model = (complex(math.exp(-2.0 * t)), 0j, 0j, 1 + 0j)
        else:
            k = other.action / self.action
            model = (complex(k), complex(k * t), 0j, 1 + 0j)
        return _disc_from_matrix(_mat_mul(_mat_inv(other.m), _mat_mul(model, self.m)))


def model_chart(phi: DiscAutomorphism, tol: float = CLASSIFY_TOL) -> Chart:
    """The ``Chart`` of ``phi``; it unpacks as ``kind, m, action``.

    Elliptic maps are charted by the disc translation sending the fixed
    point to 0 (``m`` is ``Chart.centred`` at it), hyperbolic maps by the
    half-plane map sending the attracting and repelling fixed points to 0
    and infinity, parabolic maps by the Cayley map sending the fixed point
    to infinity.  Chart matrices are built here and in ``Chart.centred``
    only; ``Chart`` reads everything else off them.
    """
    cls = classify(phi, tol)
    if cls.kind is Kind.IDENTITY:
        return Chart(cls.kind, None, None)
    if cls.kind is Kind.ELLIPTIC:
        return Chart.centred(cls.fixed_points[0], cls.multiplier)
    if cls.kind is Kind.HYPERBOLIC:
        return Chart(cls.kind, _boundary_pair_to_halfplane(*cls.fixed_points), float(cls.multiplier.real))
    w = cls.fixed_points[0]
    return Chart(cls.kind, _cayley_at(w), _parabolic_translation_length(phi, w))


def _same_class(c1: Chart, c2: Chart, tol: float) -> bool:
    """Equal kinds and class invariants of two non-identity charts:
    multipliers within ``tol`` (elliptic, hyperbolic) or equal orientations
    (parabolic)."""
    if c1.kind is not c2.kind:
        return False
    if c1.kind is Kind.PARABOLIC:
        return (c1.action > 0) is (c2.action > 0)
    return abs(c1.action - c2.action) <= tol


def find_conjugator(
    phi: DiscAutomorphism, psi: DiscAutomorphism, tol: float = CLASSIFY_TOL
) -> Optional[DiscAutomorphism]:
    """An ``eta`` with ``psi = eta o phi o eta^{-1}``, or None if none exists.

    Conjugacy requires equal kinds and equal class invariants within ``tol``:
    the multiplier for elliptic (as a complex number: only a reflection,
    which is not in the group, carries a rotation to its conjugate
    rotation), the attracting multiplier for hyperbolic, and the
    orientation for parabolic.  The witness is ``Chart.conjugator`` between
    the two model charts, so the residual is bounded by ~10x the invariant
    mismatch.  Identity inputs raise ``IdentityError``.
    """
    return model_chart(phi, tol).conjugator(model_chart(psi, tol), tol)


# ---------------------------------------------------------------------------
# commutants


def commutant_element(phi: DiscAutomorphism, t: float, tol: float = CLASSIFY_TOL) -> DiscAutomorphism:
    """The element at parameter ``t`` of the one-parameter commutant of ``phi``.

    The commutant of a non-identity automorphism is the one-parameter group
    of all automorphisms sharing its fixed-point set: conjugated rotations
    (elliptic, ``t`` = rotation angle), conjugated horocycle translations
    (parabolic, ``t`` = translation length), or conjugated axis translations
    (hyperbolic, ``t`` = hyperbolic displacement, i.e. the canonical
    parameter is ``tanh t``).  ``commutant_element(phi, t + t')`` equals the
    composition of the elements at ``t`` and ``t'``; ``t = 0`` gives the
    identity.  Raises ``IdentityError`` for the identity, whose commutant is
    the whole group.  See ``Chart.commutant``.
    """
    return model_chart(phi, tol).commutant(t)


def boundary_points(n: int) -> list:
    """``n`` equally spaced points on the unit circle."""
    return [cmath.exp(2j * math.pi * k / n) for k in range(n)]


def circle_points(radius: float, n: int) -> list:
    """``n`` equally spaced points on the circle of the given radius."""
    return [radius * z for z in boundary_points(n)]


#: ``pointwise_distance``'s default sample set
_SAMPLE_POINTS: Sequence[complex] = tuple(circle_points(0.5, 12) + boundary_points(12))


def pointwise_distance(
    f: DiscAutomorphism, g: DiscAutomorphism, points: Sequence[complex] = _SAMPLE_POINTS
) -> float:
    """``max |f(z) - g(z)|`` over the given evaluation points."""
    return max(abs(eval_auto(f, z) - eval_auto(g, z)) for z in points)
