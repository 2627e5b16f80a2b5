"""Blaschke products with zeros along automorphism orbits.

A sequence ``(a_k)`` in the disc is a *Blaschke sequence* when
``sum (1 - |a_k|) < oo``; then the normalized product

    B(z) = prod_k lam_k (z - a_k) / (1 - conj(a_k) z),
    lam_k = -conj(a_k)/|a_k|  (lam_k = 1 when a_k = 0),

converges locally uniformly (each normalized factor is positive at 0).
This module builds zero sequences explicitly or along orbits of a disc
automorphism, decides the Blaschke condition for orbits with *certified*
tail or divergence bounds (finitely many explicit terms certify neither), and
evaluates partial products with a rigorous truncation error.

All tail certificates bound list-indexed tails: ``tail(m)`` dominates
``sum_{k >= m} (1 - |a_k|)`` where ``a_k = seq.term(k)``.  Orbit terms come
in closed form from the step map's model chart (``orbit_terms``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, GeneratorExhausted, NotCertified
from .moebius import (
    DiscAutomorphism,
    Kind,
    eval_auto,
    inverse,
    iterate,
    model_chart,
)

__all__ = [
    "ZeroSequence",
    "TailCertificate",
    "DivergenceCertificate",
    "MergedTailCertificate",
    "ConvergenceVerdict",
    "normalized_factor",
    "orbit_terms",
    "convergence_certificate",
    "classify_blaschke",
    "eval_blaschke",
    "write_orbit_csv",
    "write_csv_rows",
]

#: smallest n_max accepted by classify_blaschke
MIN_CLASSIFY_TERMS = 64
#: hyperbolic chart points below this height are replaced by the fixed point
#: ``zeta = 0``: deeper powers of the multiplier would be slow subnormal floats
UNDERFLOW_HEIGHT = 1e-290
CSV_CHUNK = 4096  # rows formatted per write


def normalized_factor(a: complex) -> DiscAutomorphism:
    """The Blaschke factor with zero ``a``, normalized to be positive at 0."""
    a = complex(a)
    if a == 0:
        return DiscAutomorphism(1.0, 0.0)
    return DiscAutomorphism(-a.conjugate() / abs(a), a)


@dataclass(frozen=True)
class ZeroSequence:
    """A finite or orbit-generated sequence of prospective Blaschke zeros.

    Three kinds:

    * ``Explicit`` - a finite list of points of the disc.
    * ``Orbit`` - ``term(k) = phi_{-k}(alpha)``, the backward orbit under
      ``phi`` of the zero ``alpha`` of a seed factor ``psi``; ``term(0)`` is
      ``alpha`` itself.
    * ``ForwardOrbit`` - ``term(k) = phi_{k+1}(0)``, the forward orbit of the
      origin; the mathematical index is ``n = k + 1``.
    """

    kind: str
    zeros: tuple = ()
    psi: Optional[DiscAutomorphism] = None
    phi: Optional[DiscAutomorphism] = None

    def __post_init__(self):
        if self.kind not in ("Explicit", "Orbit", "ForwardOrbit"):
            raise DomainError(f"unknown zero sequence kind: {self.kind!r}")
        if self.kind == "Explicit":
            pts = tuple(complex(a) for a in self.zeros)
            for a in pts:
                if not abs(a) < 1.0:
                    raise DomainError("explicit zeros must lie strictly inside the disc")
            object.__setattr__(self, "zeros", pts)
        elif self.kind == "Orbit":
            if self.psi is None or self.phi is None:
                raise DomainError("orbit sequences need both psi and phi")
        else:
            if self.phi is None:
                raise DomainError("forward orbit sequences need phi")

    # -- constructors -------------------------------------------------

    @classmethod
    def explicit(cls, zeros: Sequence[complex]) -> "ZeroSequence":
        return cls("Explicit", zeros=tuple(zeros))

    @classmethod
    def orbit(cls, psi: DiscAutomorphism, phi: DiscAutomorphism) -> "ZeroSequence":
        return cls("Orbit", psi=psi, phi=phi)

    @classmethod
    def forward_orbit(cls, phi: DiscAutomorphism) -> "ZeroSequence":
        return cls("ForwardOrbit", phi=phi)

    # -- basic queries ------------------------------------------------

    @property
    def is_explicit(self) -> bool:
        return self.kind == "Explicit"

    @property
    def index_offset(self) -> int:
        """Mathematical index of ``term(0)`` (1 for forward orbits, else 0)."""
        return 1 if self.kind == "ForwardOrbit" else 0

    def start_and_step(self):
        """Start point ``beta`` and step map ``sigma`` with ``term(k) = sigma_k(beta)``."""
        if self.kind == "Orbit":
            return self.psi.a, inverse(self.phi)
        if self.kind == "ForwardOrbit":
            return eval_auto(self.phi, 0.0), self.phi
        raise DomainError("explicit sequences have no orbit structure")

    def term(self, k: int) -> complex:
        k = int(k)
        if k < 0:
            raise DomainError("term index must be nonnegative")
        if self.is_explicit:
            if k >= len(self.zeros):
                raise GeneratorExhausted(
                    f"explicit sequence has {len(self.zeros)} terms, asked for index {k}"
                )
            return self.zeros[k]
        beta, step = self.start_and_step()
        return eval_auto(iterate(step, k), beta)

    def terms_up_to(self, n: int) -> list:
        """The first ``n`` terms (orbits in closed form, see ``orbit_terms``)."""
        n = int(n)
        if n < 0:
            raise DomainError("term count must be nonnegative")
        if self.is_explicit:
            if n > len(self.zeros):
                raise GeneratorExhausted(
                    f"explicit sequence has {len(self.zeros)} terms, asked for {n}"
                )
            return list(self.zeros[:n])
        return orbit_terms(self, n)[0].tolist()


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class TailCertificate:
    """Certified bound ``sum_{k >= m} (1 - |a_k|) <= tail(m)``.

    ``kind = 'geometric'``:       ``term_bound(k) = constant * ratio^k``.
    ``kind = 'inverse-square'``:  ``term_bound(k) = constant /
    ((offset + step k)^2 + height^2)``, the exact decay shape of a parabolic
    orbit read off in its half-plane chart (``offset + i (height - 1)`` is
    the chart image of the starting point, ``step`` the translation length).
    """

    kind: str
    constant: float
    ratio: float = 0.0
    offset: float = 0.0
    step: float = 0.0
    height: float = 1.0

    def __post_init__(self):
        if self.kind not in ("geometric", "inverse-square"):
            raise DomainError(f"unknown tail certificate kind: {self.kind!r}")
        if self.kind == "geometric" and not 0.0 <= self.ratio < 1.0:
            raise DomainError("geometric ratio must lie in [0, 1)")
        if self.kind == "inverse-square" and (self.height < 1.0 or self.step == 0.0):
            raise DomainError("inverse-square certificate needs height >= 1 and step != 0")

    def term_bound(self, k: int) -> float:
        if self.kind == "geometric":
            return self.constant * self.ratio**k
        u = self.offset + self.step * k
        return self.constant / (u * u + self.height * self.height)

    def tail(self, m: int) -> float:
        m = int(m)
        if m < 0:
            raise DomainError("tail index must be nonnegative")
        if self.kind == "geometric":
            return self.constant * self.ratio**m / (1.0 - self.ratio)
        # integral bound for a unimodal term sequence; the peak correction is
        # only needed while the peak still lies inside the tail
        c = self.height
        v = math.copysign(1.0, self.step) * (self.offset + self.step * (m - 1)) / c
        # atan2(1, v) = pi/2 - atan(v) for every real v, without the
        # cancellation of that difference for large v
        integral = math.atan2(1.0, v) / (abs(self.step) * c)
        peak = -self.offset / self.step
        extra = 2.0 / (c * c) if peak > m - 1 else 0.0
        return self.constant * (integral + extra)

    def first_index_below(self, target: float) -> int:
        """Smallest ``m >= 0`` with ``tail(m) < target``.

        ``tail`` does not increase with ``m``, so the index is unique.  The
        closed-form inverse of ``tail`` (a log for geometric tails, ``tan``
        for inverse-square ones) lands on it up to rounding, and unit steps
        of the same ``tail(m) < target`` test settle the last place.
        """
        target = float(target)
        if not target > 0.0:
            raise DomainError("target must be positive")
        if self.tail(0) < target:
            return 0
        y = target / self.constant
        if self.kind == "geometric":
            q = self.ratio
            m = 0 if q == 0.0 else math.floor(math.log(y * (1.0 - q)) / math.log(q)) + 1
        else:
            # tail(m) / constant = atan2(1, v_m) / (|step| c) with
            # v_m = (sign(step) offset + |step| (m - 1)) / c, plus 2/c^2 while
            # m - 1 < peak = -offset/step
            c, t = self.height, abs(self.step)
            x = math.copysign(1.0, self.step) * self.offset

            def first(y):  # smallest m whose atan2 part is below y; v = cot(theta)
                theta = y * t * c
                if theta <= 0.0:
                    return math.inf
                if theta >= math.pi:
                    return 0
                return math.floor((c / math.tan(theta) - x) / t) + 2

            past_peak = max(0, math.ceil(1.0 - self.offset / self.step))
            before_peak = first(y - 2.0 / (c * c))
            if before_peak < past_peak:
                m = max(0, before_peak)
            else:
                m = max(first(y), past_peak)
        # unit steps are resolvable in floats only below 2^53
        while 0 < m <= 2**53 and self.tail(m - 1) < target:
            m -= 1
        while m <= 2**53 and self.tail(m) >= target:
            m += 1
        return m


@dataclass(frozen=True)
class DivergenceCertificate:
    """Certified per-term bound ``1 - |a_k| >= delta > 0`` for every ``k``.

    Forces ``sum (1 - |a_k|) >= n delta -> oo``: the sequence is not a
    Blaschke sequence and the product diverges to 0.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise DomainError("divergence certificate needs delta in (0, 1]")


@dataclass(frozen=True)
class MergedTailCertificate:
    """Tail bound for ``d`` certified sequences interleaved factor-major.

    The merged sequence is ``seq_j.term(k)`` at merged index ``k d + j``;
    a merged index ``>= m`` forces every inner index ``>= floor(m/d)``, so
    ``tail(m) = sum_j parts[j].tail(m // d)`` is a valid bound.
    """

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise DomainError("merged certificate needs at least one part")

    def tail(self, m: int) -> float:
        m = int(m)
        if m < 0:
            raise DomainError("tail index must be nonnegative")
        d = len(self.parts)
        return math.fsum(part.tail(m // d) for part in self.parts)


def _phases(a: np.ndarray) -> np.ndarray:
    """The normalizing phases ``lam_k`` of a zero array (1 where ``a_k = 0``)."""
    mod = np.abs(a)
    return np.divide(-np.conj(a), mod, out=np.ones_like(a), where=mod > 0.0)


def orbit_terms(seq: ZeroSequence, n):
    """Terms ``a_k`` and gaps ``1 - |a_k|`` for ``k < n`` (or for the indices
    in the array ``n``) as numpy arrays; explicit sequences give their zeros.

    Orbit terms are closed-form points ``zeta_0 lam^k``, ``zeta_0 s^k`` or
    ``zeta_0 + k t`` of the step map's ``model_chart``, mapped back in one
    array-wide Moebius evaluation (``a_0`` is the start point itself).  The
    gaps come from the exact chart density, free of cancellation near the
    circle: ``1 - |a|^2 = h(zeta) |det m| / |m_0 - m_2 zeta|^2`` with
    ``h = 2 Im zeta`` on the half plane, ``1 - |zeta|^2`` on the disc.
    """
    if seq.is_explicit:
        a = np.array(seq.terms_up_to(n), dtype=complex)
        return a, np.maximum(0.0, 1.0 - np.abs(a))
    k = np.arange(int(n)) if np.ndim(n) == 0 else np.asarray(n, dtype=np.int64)
    if (np.ndim(n) == 0 and int(n) < 0) or (k < 0).any():
        raise DomainError("term count and indices must be nonnegative")
    beta, step = seq.start_and_step()
    chart = model_chart(step)
    kind, m, action = chart
    if kind is Kind.IDENTITY:
        return np.full(k.shape, beta, dtype=complex), np.full(k.shape, 1.0 - abs(beta))
    zeta0 = chart.apply(beta)
    if kind is Kind.ELLIPTIC:
        theta = cmath.phase(action)
        hi = float(np.float32(theta))  # 24 bits: k * hi is exact for k < 2^29
        zeta = zeta0 * np.exp(1j * (hi * k)) * np.exp(1j * ((theta - hi) * k))
        height = (1.0 - abs(zeta0)) * (1.0 + abs(zeta0))
    elif kind is Kind.HYPERBOLIC:
        live = k < math.log(UNDERFLOW_HEIGHT / abs(zeta0)) / math.log(action)
        zeta = np.zeros(k.shape, dtype=complex)
        zeta[live] = zeta0 * action ** k[live].astype(float)
        height = 2.0 * zeta.imag
    else:
        zeta = zeta0 + action * k
        height = 2.0 * zeta0.imag
    den = m[0] - m[2] * zeta
    a = (m[3] * zeta - m[1]) / den
    a[k == 0] = beta
    density = height * abs(m[0] * m[3] - m[1] * m[2]) / (den.real**2 + den.imag**2)
    return a, density / (1.0 + np.abs(a))


def convergence_certificate(seq: ZeroSequence):
    """A tail or divergence certificate for an orbit-generated sequence.

    The orbit ``a_k = sigma_k(beta)`` is controlled in a half-plane chart of
    the step map ``sigma``, where the exact boundary density
    ``1 - |z|^2 = 4 |Im tau| Im zeta / |zeta - tau|^2`` (``zeta`` the chart
    image of ``z``) turns the orbit into a closed-form walk:

    * elliptic or identity step: the orbit stays on a compact invariant
      curve, giving a per-term lower bound (``DivergenceCertificate``);
    * hyperbolic step: the chart sends the fixed points to ``0`` and
      ``infinity`` and ``sigma`` to ``zeta -> s zeta``, so
      ``1 - |a_k| <= (4 Im zeta_0 / |Im tau|) s^k`` with the attracting
      multiplier ``s``;
    * parabolic step: the chart at the fixed point sends ``sigma`` to
      ``zeta -> zeta + t`` and ``1 - |a_k|^2`` equals
      ``4 y / ((x + t k)^2 + (y + 1)^2)`` exactly, ``zeta_0 = x + i y``.
    """
    if seq.is_explicit:
        raise DomainError("certificates exist only for orbit-generated sequences")
    beta, step = seq.start_and_step()
    chart = model_chart(step)
    kind, m, action = chart
    if kind is Kind.IDENTITY:
        return DivergenceCertificate(max(1.0 - abs(beta), 1e-300))
    zeta0 = chart.apply(beta)

    if kind is Kind.ELLIPTIC:
        rho, c = abs(zeta0), abs(m[1])
        delta = (1.0 - rho) * (1.0 - c) / (1.0 + rho * c)
        return DivergenceCertificate(max(delta, 1e-300))

    if kind is Kind.HYPERBOLIC:
        K = 4.0 * zeta0.imag / abs(m[0].imag)
        return TailCertificate("geometric", K, ratio=action)

    # parabolic: the orbit is the horizontal walk zeta_0 + t k in the chart
    # at the fixed point, where the term shape is exact
    return TailCertificate(
        "inverse-square",
        4.0 * zeta0.imag,
        offset=zeta0.real,
        step=action,
        height=zeta0.imag + 1.0,
    )


# ---------------------------------------------------------------------------
# convergence classification


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of ``classify_blaschke``.

    ``verdict`` is ``Blaschke`` / ``NotBlaschke`` / ``Undetermined``;
    ``growth`` labels the partial-sum behaviour (``Bounded`` or ``Linear``
    when certified, ``Other`` otherwise).  ``Blaschke`` and ``NotBlaschke``
    always carry their certificate; ``Undetermined`` carries none.
    """

    verdict: str
    growth: str
    reason: str
    n_terms: int
    partial_sum: float
    certificate: object = None


def classify_blaschke(seq: ZeroSequence, n_max: int = 256) -> ConvergenceVerdict:
    """Decide the Blaschke condition for a zero sequence.

    Orbit-generated sequences get a certified verdict from
    ``convergence_certificate``.  Explicit sequences are ``Undetermined``:
    finitely many terms certify neither convergence nor divergence of any
    extension, so only their partial sum is reported.  ``partial_sum`` is
    the exactly rounded sum of the first ``n_terms`` gaps of ``orbit_terms``
    (``math.fsum``); an empty explicit sequence raises ``DomainError``.
    """
    n_max = int(n_max)
    if n_max < MIN_CLASSIFY_TERMS:
        raise DomainError(f"n_max must be at least {MIN_CLASSIFY_TERMS}")
    n = min(n_max, len(seq.zeros)) if seq.is_explicit else n_max
    if n < 1:
        raise DomainError("N must be at least 1")
    partial = math.fsum(orbit_terms(seq, n)[1].tolist())

    if seq.is_explicit:
        return ConvergenceVerdict(
            "Undetermined",
            "Other",
            f"{n} terms of an explicit sequence cannot certify the Blaschke condition; "
            "only orbit sequences carry certificates",
            n,
            partial,
        )
    cert = convergence_certificate(seq)
    if isinstance(cert, DivergenceCertificate):
        return ConvergenceVerdict(
            "NotBlaschke",
            "Linear",
            "certified divergence: the orbit stays in a compact part of the disc, "
            f"1 - |a_k| >= {cert.delta:.6g} for every k",
            n,
            partial,
            cert,
        )
    return ConvergenceVerdict(
        "Blaschke",
        "Bounded",
        f"certified summable tail ({cert.kind}); "
        f"sum over all k is at most {partial + cert.tail(n):.6g}",
        n,
        partial,
        cert,
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_blaschke(seq: ZeroSequence, z: complex, n_terms: int = 128):
    """Evaluate the normalized partial product and certify the truncation.

    Returns ``(value, tail_bound)`` with ``value = prod_{k < N} lam_k b_k(z)``
    and ``|B(z) - value| <= tail_bound``, using the factor estimate
    ``|1 - lam_k b_k(z)| <= 2 (1 - |a_k|) / (1 - |z|)`` and the certified
    (or, for explicit sequences, exactly summed) tail of ``sum (1 - |a_k|)``;
    factors that this estimate puts within ``2^-54`` of 1 are taken as 1.
    Requires a ``ZeroSequence`` and ``|z| < 1``; divergent orbit sequences
    raise ``NotCertified``.
    """
    if not isinstance(seq, ZeroSequence):
        raise DomainError("expected a ZeroSequence")
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("evaluation requires |z| < 1 for a certified tail")
    n_terms = int(n_terms)
    if n_terms < 0:
        raise DomainError("n_terms must be nonnegative")

    if seq.is_explicit:
        n = min(n_terms, len(seq.zeros))
        remaining = math.fsum(orbit_terms(seq, len(seq.zeros))[1][n:].tolist())
    else:
        cert = convergence_certificate(seq)
        if isinstance(cert, DivergenceCertificate):
            raise NotCertified(
                "the zero sequence fails the Blaschke condition; the product diverges to 0"
            )
        n = n_terms
        remaining = cert.tail(n)

    a, gap = orbit_terms(seq, n)
    factors = _phases(a) * (z - a) / (1.0 - np.conj(a) * z)
    factors[2.0 * gap <= 2.0**-54 * (1.0 - abs(z))] = 1.0  # 1 to working precision
    value = complex(np.prod(factors))
    tail_bound = abs(value) * 2.0 * remaining / (1.0 - abs(z))
    return value, tail_bound


# ---------------------------------------------------------------------------
# reporting


def write_orbit_csv(file, seq: ZeroSequence, n: int) -> float:
    """Write the first ``n`` terms as CSV: n, re_b, im_b, one_minus_abs, partial_sum.

    The ``n`` column uses the mathematical index (``k + seq.index_offset``);
    see ``write_csv_rows``.  Returns the final partial sum.
    """
    a, gap = orbit_terms(seq, n)
    return write_csv_rows(file, a, gap, seq.index_offset)


def write_csv_rows(file, zeros, gaps, first: int = 0) -> float:
    """Write orbit CSV rows to a path or open text file; returns the last partial sum.

    Columns: n (counting from ``first``), re_b, im_b, one_minus_abs (the
    ``gaps``), partial_sum (their running sum); floats as ``repr``, LF line
    ends, formatted ``CSV_CHUNK`` rows at a time.  The running sum is
    ``np.cumsum``, recursive summation: for nonnegative gaps its ``k``-th
    entry satisfies ``|S~_k - S_k| <= (k - 1) u S_k`` to first order, ``S_k``
    the exact prefix sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2).  Its last entry is ``decide_crownover``'s
    ``partial_sum``; ``classify_blaschke`` totals are exactly rounded.
    """
    partial = np.cumsum(gaps)
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    handle = open(file, "w", encoding="utf-8", newline="") if own else file
    try:
        handle.write("n,re_b,im_b,one_minus_abs,partial_sum\n")
        for lo in range(0, len(zeros), CSV_CHUNK):
            cut = slice(lo, lo + CSV_CHUNK)
            cols = (zeros.real[cut], zeros.imag[cut], gaps[cut], partial[cut])
            rows = enumerate(zip(*(col.tolist() for col in cols)), first + lo)
            handle.write("".join(f"{k},{x!r},{y!r},{g!r},{p!r}\n" for k, (x, y, g, p) in rows))
    finally:
        if own:
            handle.close()
    return float(partial[-1]) if len(partial) else 0.0
