"""Structure theory of the weighted composition isometries of H^p.

Classifies isometry specs by codimension, decides whether the nested ranges
``U^n H^p`` intersect in the zero subspace (the Crownover dichotomy), builds
the two infinite Blaschke-product constructions that realize either outcome
on purpose, certifies invariance of the subspace ``B H^p`` for the orbit
product ``B``, and conjugates specs (``conjugated_spec``); equivalence is
decided in ``hpiso.equivalence``.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from ._record import Record
from .errors import DomainError, NotCertified, WrongClass, ZeroCodimension
from .blaschke import (
    ConvergenceVerdict,
    DivergenceCertificate,
    MergedTailCertificate,
    TailCertificate,
    ZeroSequence,
    _phases,
    convergence_certificate,
    normalized_factor,
    orbit_terms,
    write_csv_rows,
)
from .hardy import _circle, inner_product_values, weight_function
from .moebius import (
    MAX_ZERO_MODULUS,
    DiscAutomorphism,
    compose,
    eval_auto,
    identity,
    inverse,
)
from .spec import IsometrySpec

__all__ = [
    "InfiniteConstruction",
    "CrownoverVerdict",
    "InvariantSubspaceReport",
    "codimension",
    "decide_crownover",
    "evidence_rows",
    "construct_zero_intersection",
    "construct_nonzero_intersection",
    "truncate_spec",
    "conjugated_spec",
    "invariant_subspace_check",
]

def _thinned_indices(phi: DiscAutomorphism, count: int, budget: Optional[float] = None):
    """Indices, budget and zeros of the greedy thinning rule, up to ``count`` zeros.

    The base orbit is ``a_n = phi_{-n}(0)``; index ``n_k`` is the smallest
    admissible index whose certified tail ``sum_{n >= n_k} (1 - |a_n|)``
    falls below ``budget / 2^k``.  The rule stops before its first zero past
    the cap ``MAX_ZERO_MODULUS``: once the target is below the cap's gap,
    ``1 - |a_{n_k}| <= tail(n_k - 1)`` puts every later zero past it.
    Deterministic given ``(phi, budget)``, so a stored prefix extends.
    """
    base = ZeroSequence.orbit(normalized_factor(eval_auto(inverse(phi), 0.0)), phi)
    cert = convergence_certificate(base)
    if not isinstance(cert, TailCertificate):
        raise WrongClass("the thinned construction needs a hyperbolic or parabolic symbol")
    if budget is None:
        budget = math.fsum(orbit_terms(base, 64)[1].tolist()) + cert.tail(64)
    indices, n = [], 2
    for k in range(1, count + 1):
        target = math.ldexp(budget, -k)  # 2.0**k overflows once k >= 1024
        if target < 1.0 - MAX_ZERO_MODULUS:
            break
        if cert.tail(n - 1) >= target:
            # the next index is the first n with tail(n - 1) < target
            n = cert.first_index_below(target) + 1
        indices.append(n)
        n += 1
    zeros = orbit_terms(_zero_orbit("ThinnedForwardProduct", phi), indices)[0].tolist()
    kept = next((i for i, a in enumerate(zeros) if not abs(a) <= MAX_ZERO_MODULUS), len(zeros))
    return tuple(indices[:kept]), float(budget), zeros[:kept]


def _zero_orbit(kind: str, phi: DiscAutomorphism) -> ZeroSequence:
    """The orbit of the zeros of a construction's ``Psi``: ``phi_n(0)``, or ``phi_{-n}(0)``."""
    if kind == "BackwardOrbitProduct":
        return ZeroSequence.forward_orbit(phi)
    return ZeroSequence.orbit(normalized_factor(0.0), phi)


class InfiniteConstruction(Record):
    """An infinite Blaschke inner factor given by orbit data, not by a list.

    ``BackwardOrbitProduct``: the zeros of ``Psi`` are the full forward
    orbit ``phi_n(0)``, ``n >= 1``.  Composing with ``phi`` shifts the zero
    set onto ``{0} union {phi_n(0)}``, so every operator power re-creates a
    zero at ``phi(0)``: the ranges of the powers share no nonzero function.

    ``ThinnedForwardProduct``: the zeros of ``Psi`` are the sparse backward
    orbit points ``a_{n_k} = phi_{-n_k}(0)``.  The stored ``indices`` are a
    finite prefix of the infinite greedy rule (extendable deterministically
    from ``budget``); successive operator powers fill in each orbit tail
    beyond ``n_k``, and the thinning keeps the accumulated zero multiset
    summable below ``budget``.

    Both kinds require a tail certificate for the orbit their zeros walk,
    i.e. a hyperbolic or parabolic ``phi`` (``WrongClass``).
    """

    __slots__ = ("kind", "phi", "indices", "budget")

    def __init__(self, kind: str, phi: DiscAutomorphism, indices: tuple = (), budget: float = 0.0):
        if kind not in ("BackwardOrbitProduct", "ThinnedForwardProduct"):
            raise DomainError(f"unknown infinite construction kind: {kind!r}")
        if not isinstance(convergence_certificate(_zero_orbit(kind, phi)), TailCertificate):
            raise WrongClass("infinite orbit products need a hyperbolic or parabolic symbol")
        indices = tuple(int(n) for n in indices)
        if kind == "ThinnedForwardProduct":
            if not indices:
                raise DomainError("thinned construction needs at least one stored index")
            if indices[0] < 2 or any(b <= a for a, b in zip(indices, indices[1:])):
                raise DomainError("indices must be strictly increasing and >= 2")
            if not 0.0 < budget < math.inf:
                raise DomainError("thinned construction needs a positive finite budget")
        elif indices:
            raise DomainError("backward orbit products carry no index data")
        elif budget != 0.0:
            raise DomainError("backward orbit products carry no budget")
        Record.__init__(self, kind, phi, indices, float(budget))

    def own_zeros(self, m: int) -> list:
        """The first ``m`` zeros of ``Psi`` itself; a thinned product stops at the cap."""
        m = int(m)
        if m < 0:
            raise DomainError("zero count must be nonnegative")
        if self.kind == "BackwardOrbitProduct":
            return _zero_orbit(self.kind, self.phi).terms_up_to(m)
        if m > len(self.indices):
            return _thinned_indices(self.phi, m, self.budget)[2]
        return orbit_terms(_zero_orbit(self.kind, self.phi), self.indices[:m])[0].tolist()

    def accumulated_sequences(self) -> tuple:
        """Orbit sequences generating the zero multiset over all powers.

        For the backward orbit product this is the single recurring zero
        ``phi(0)`` (constant sequence - each power contributes a fresh
        copy); for the thinned product, one backward-orbit tail per stored
        index.
        """
        if self.kind == "BackwardOrbitProduct":
            recurring = normalized_factor(eval_auto(self.phi, 0.0))
            return (ZeroSequence.orbit(recurring, identity()),)
        zeros = self.own_zeros(len(self.indices))
        return tuple(ZeroSequence.orbit(normalized_factor(a), self.phi) for a in zeros)


class CrownoverVerdict(Record):
    """Outcome of the range-intersection dichotomy for an isometry spec.

    ``evidence`` is a ``ConvergenceVerdict`` for the accumulated zero
    multiset over all operator powers: the verdict is ``Crownover`` exactly
    when that multiset is certified non-Blaschke, else ``NotCrownover``.
    """

    __slots__ = ("verdict", "reason", "codim", "evidence")

    def __init__(self, verdict: str, reason: str, codim: float, evidence: ConvergenceVerdict):
        Record.__init__(self, verdict, reason, codim, evidence)


def codimension(spec: IsometrySpec):
    """Codimension of the range: number of inner zeros, or ``math.inf``."""
    if spec.infinite is not None:
        return math.inf
    return len(spec.psi_zeros)


def _accumulated_sequences(spec: IsometrySpec) -> tuple:
    """The construction's sequences, if any, then the backward orbits of the
    finite factors."""
    seqs = tuple(ZeroSequence.orbit(fac, spec.phi) for fac in spec.psi_zeros)
    if spec.infinite is not None:
        seqs = spec.infinite.accumulated_sequences() + seqs
    if not seqs:
        raise ZeroCodimension(
            "the isometry is surjective; the range chain is constant and the "
            "dichotomy does not apply"
        )
    return seqs


def _interleaved(seqs: tuple, n: int):
    """The first ``n`` zeros of the multiset of ``seqs`` with their gaps
    ``1 - |zero|``, interleaved factor-major."""
    if n < 1:
        raise DomainError("need at least one evidence row")
    depth = -(-n // len(seqs))
    cols = [orbit_terms(s, depth) for s in seqs]
    zeros = np.stack([c[0] for c in cols], axis=1).ravel()[:n]
    gaps = np.stack([c[1] for c in cols], axis=1).ravel()[:n]
    return zeros, gaps


def _settled_depth(seqs: tuple, certs: list):
    """An inner index ``K`` from which no gap moves the evidence sum.

    Every running sum after the first term is at least the first gap ``L``
    and never decreases, and a recursive sum is unchanged by an addend below
    half its ulp (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §2.1).  Each gap at an index ``>= K`` is at most ``tail(K) < ulp(L)/8``;
    the factor 4 to spare covers the rounding of the computed gaps and of the
    float ``tail``.  Without tail certificates there is no such index.
    """
    if not all(isinstance(c, TailCertificate) for c in certs):
        return math.inf
    target = math.ulp(float(orbit_terms(seqs[0], 1)[1][0])) / 8.0
    return max(c.first_index_below(target) for c in certs)


def evidence_rows(spec: IsometrySpec, n: int) -> list:
    """First ``n`` rows ``(zero, 1 - |zero|, partial_sum)`` of the
    accumulated zero multiset, sequences interleaved factor-major;
    ``partial_sum`` is the ``write_csv_rows`` column, with ``|S~_k - S_k| <=
    (k - 1) u S_k`` (Higham §4.2), and its last entry ``decide_crownover``'s
    ``partial_sum`` (``classify_blaschke`` totals are exactly rounded)."""
    zeros, gaps = _interleaved(_accumulated_sequences(spec), int(n))
    return list(zip(zeros.tolist(), gaps.tolist(), np.cumsum(gaps).tolist()))


def decide_crownover(
    spec: IsometrySpec, n_evidence: int = 256, evidence_csv=None
) -> CrownoverVerdict:
    """Decide whether the ranges of the powers of ``U`` intersect in ``{0}``.

    The range of ``U^n`` is ``Psi_n H^p`` with
    ``Psi_n = prod_{j<n} Psi o phi_j``, so the intersection is ``{0}``
    exactly when the accumulated zero multiset ``union_j phi_{-j}(Z(Psi))``
    fails the Blaschke condition.  Its sequences share one step map, so the
    first ``convergence_certificate`` decides: elliptic and identity symbols
    recycle their zeros along compact orbits (``DivergenceCertificate``:
    ``Crownover``), hyperbolic and parabolic symbols sweep them to the
    boundary summably (tail certificate: ``NotCrownover``).  The reason names
    the certificate: a construction, or the class of ``classify(phi)``.
    The evidence reports ``n_evidence`` terms of that multiset, also written
    to ``evidence_csv`` (a path or text file) as ``write_csv_rows`` from 1.
    Without a CSV the walk stops after ``d K`` terms (``_settled_depth``:
    ``d`` sequences, no later gap can move the ``np.cumsum`` total), so
    tail-certified specs cost ``O(min(n_evidence, d K))`` with the bits of
    the full walk; ``K`` is logarithmic for geometric (hyperbolic) tails.
    Codimension 0 raises ``ZeroCodimension`` - the chain is constant there.
    """
    codim, con = codimension(spec), spec.infinite
    n_evidence = int(n_evidence)
    seqs = _accumulated_sequences(spec)
    certs = [convergence_certificate(s) for s in seqs]
    if evidence_csv is None:
        zeros, gaps = _interleaved(seqs, min(n_evidence, len(seqs) * _settled_depth(seqs, certs)))
        partial = float(np.cumsum(gaps)[-1])
    else:
        zeros, gaps = _interleaved(seqs, n_evidence)
        partial = write_csv_rows(evidence_csv, zeros, gaps, 1)

    if isinstance(certs[0], DivergenceCertificate):
        delta = min(c.delta for c in certs if isinstance(c, DivergenceCertificate))
        if con is None:
            reason = "EllipticOrIdentitySymbol"
            text = (
                "the inner zeros recycle along compact orbits; every accumulated "
                f"term satisfies 1 - |a| >= {delta:.6g}"
            )
        else:
            reason = "ConstructedDivergent"
            text = (
                "each operator power contributes a fresh zero at phi(0), "
                f"|phi(0)| = {1.0 - delta:.6g}; the accumulated multiset "
                f"gains at least {delta:.6g} per power"
            )
        evidence = ConvergenceVerdict(
            "NotBlaschke", "Linear", text, n_evidence, partial, DivergenceCertificate(delta)
        )
        return CrownoverVerdict("Crownover", reason, codim, evidence)

    merged = MergedTailCertificate(tuple(certs))
    if con is None:
        reason = "HyperbolicSymbol" if certs[0].kind == "geometric" else "ParabolicSymbol"
        text = (
            f"all {codim} backward orbits are certified Blaschke; accumulated "
            f"sum over every power is at most {merged.tail(0):.6g}"
        )
    else:
        reason = "ConstructedConvergent"
        k_stored = len(con.indices)
        rest = math.ldexp(con.budget, -k_stored)  # 2.0**k overflows once k >= 1024
        own = MergedTailCertificate(tuple(certs[:k_stored])).tail(0) + rest
        part = f", of which the construction's {own:.6g}" if spec.psi_zeros else ""
        text = (
            f"certified double sum over all powers: {merged.tail(0) + rest:.6g}{part} < budget "
            f"{con.budget:.6g} (stored prefix of {k_stored} indices plus the "
            f"geometric bound budget/2^{k_stored} for the rest of the rule)"
        )
    evidence = ConvergenceVerdict("Blaschke", "Bounded", text, n_evidence, partial, merged)
    return CrownoverVerdict("NotCrownover", reason, codim, evidence)


# ---------------------------------------------------------------------------
# the two intersection constructions


def construct_zero_intersection(phi: DiscAutomorphism) -> InfiniteConstruction:
    """Infinite-codimension inner factor whose range chain intersects in ``{0}``.

    The zeros are the forward orbit ``phi_n(0)``, ``n >= 1`` (a certified
    Blaschke sequence for hyperbolic and parabolic ``phi``; other classes
    raise ``WrongClass``).  Truncations satisfy the exact shift identity
    ``|Psi_N(phi(z))| = |z| |Psi_{N-1}(z)|``, which is what pushes a fresh
    zero at ``phi(0)`` into every power of the range.
    """
    return InfiniteConstruction("BackwardOrbitProduct", phi)


def construct_nonzero_intersection(phi: DiscAutomorphism, count: int) -> InfiniteConstruction:
    """Infinite-codimension inner factor whose range chain keeps a common element.

    Zeros are thinned from the backward orbit ``a_n = phi_{-n}(0)`` (the
    zeros of the forward iterates ``phi_n``).  The greedy rule makes the
    ``k``-th certified orbit tail smaller than ``R / 2^k`` where ``R``
    bounds the full orbit sum, so the zero multiset accumulated over all
    operator powers is certified summable below ``R`` and the limit product
    is a nonzero common element of all ranges.  ``NotCertified`` names the
    first zero past the cap ``1 - 1e-14`` when it comes before zero ``count``.
    """
    count = int(count)
    if count < 1:
        raise DomainError("count must be at least 1")
    indices, budget, _ = _thinned_indices(phi, count)
    if len(indices) < count:
        raise NotCertified(
            f"thinned zero {len(indices) + 1} has |a| > 1 - 1e-14, past the cap; "
            f"request at most {len(indices)}"
        )
    return InfiniteConstruction("ThinnedForwardProduct", phi, indices, budget)


def truncate_spec(spec: IsometrySpec, n_terms: int) -> IsometrySpec:
    """Replace an infinite construction by its first ``n_terms`` zero factors.

    The factors are the normalized Blaschke factors of the construction's
    own zeros, appended to any finite factors already present.  Finite specs
    are returned unchanged.  Orbit zeros converge to the boundary, and once
    ``|a|`` passes the constructor cap (``1 - 1e-14``) the factor equals the
    constant 1 to working precision (``|b_a(z) - 1| <= 2e-14/(1 - |z|)``);
    such saturated zeros are dropped rather than refused, so a deep
    truncation of a fast orbit returns every factor that is numerically
    distinguishable from 1.
    """
    if spec.infinite is None:
        return spec
    zeros = spec.infinite.own_zeros(int(n_terms))
    new_factors = tuple(
        normalized_factor(a) for a in zeros if abs(a) <= MAX_ZERO_MODULUS
    )
    return IsometrySpec(spec.p, spec.phase, spec.psi_zeros + new_factors, spec.phi, None)


def conjugated_spec(spec: IsometrySpec, eta: DiscAutomorphism, rho: complex) -> IsometrySpec:
    """The spec obtained by conjugating through ``eta`` with free factor ``rho``.

    Returns the isometry with phase ``rho * phase``, inner factors
    ``f o eta``, and symbol ``eta^{-1} o phi o eta``; by construction it is
    equivalent to ``spec`` with witness ``(eta, rho)``.
    """
    if spec.infinite is not None:
        raise DomainError("conjugation of infinite constructions is not supported; truncate first")
    rho = complex(rho)
    if rho == 0 or not math.isfinite(abs(rho)):
        raise DomainError("rho must be a finite nonzero complex number")
    rho = rho / abs(rho)
    factors = tuple(compose(fac, eta) for fac in spec.psi_zeros)
    symbol = compose(inverse(eta), compose(spec.phi, eta))
    return IsometrySpec(spec.p, rho * spec.phase, factors, symbol, None)


# ---------------------------------------------------------------------------
# invariant subspace certification


class InvariantSubspaceReport(Record):
    """Certified truncation report for invariance of ``B H^p``.

    ``defect`` is the residual of the exact truncated identity
    ``S(B_N g) = rho_N c_N B_N (W g o phi)`` (pure rounding);
    ``defect_uncorrected`` drops the next-factor correction ``c_N`` and so
    also measures ``|c_N - 1|`` on the test circle; ``tail_bound`` bounds
    the effect of swapping ``B_N`` for the full product ``B``.
    """

    __slots__ = ("defect", "defect_uncorrected", "tail_bound", "rho", "n_terms", "radius")

    def __init__(
        self, defect: float, defect_uncorrected: float, tail_bound: float, rho: complex,
        n_terms: int, radius: float,
    ):
        Record.__init__(self, defect, defect_uncorrected, tail_bound, rho, n_terms, radius)


def invariant_subspace_check(
    spec: IsometrySpec, g, ctx, n_trunc: int = 512, radius: float = 0.5
) -> InvariantSubspaceReport:
    """Certify that ``B H^p`` is invariant under the codimension-1 isometry.

    ``B`` is the Blaschke product over the backward orbit of the inner zero
    (zeros ``alpha_k = phi_{-k}(alpha_0)``).  The inner factors satisfy the
    exact relations ``psi = mu c_0`` and ``c_k o phi = nu_k c_{k+1}`` with
    unimodular constants, which compose to the exact truncated identity
    reported here.  Requires exactly one inner factor and a symbol whose
    backward orbit converges (identity is allowed - the tail is then zero;
    elliptic symbols raise ``NotCertified``).
    """
    if spec.infinite is not None or len(spec.psi_zeros) != 1:
        raise DomainError("the check needs a finite spec with exactly one inner factor")
    n_trunc = int(n_trunc)
    if n_trunc < 1:
        raise DomainError("n_trunc must be at least 1")
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise DomainError("radius must lie in (0, 1)")
    phi = spec.phi
    psi_fac = spec.psi_zeros[0]
    seq = ZeroSequence.orbit(psi_fac, phi)
    cert = convergence_certificate(seq)
    if isinstance(cert, DivergenceCertificate) and not phi.is_identity():
        raise NotCertified(
            "the backward orbit of an elliptic symbol stays in a compact set; "
            "the orbit product is not a Blaschke product"
        )

    orbit = orbit_terms(seq, n_trunc + 1)[0]
    zeros, lams = orbit.tolist(), _phases(orbit)

    # a test point on the circle that stays away from every zero used
    zeta_star = None
    for attempt in range(64):
        cand = radius * cmath.exp(1j * (0.377 + 0.1 * attempt))
        if min(abs(cand - a) for a in zeros) > 1e-6:
            zeta_star = cand
            break
    if zeta_star is None:
        raise DomainError("could not place a test point away from the orbit zeros")

    w_star = eval_auto(phi, zeta_star)
    m = int(ctx.grid_size)
    z = _circle(m, radius)
    w = inner_product_values([phi.a], z, phi.lam)
    lam_n = np.prod(lams[:n_trunc])
    b_n = inner_product_values(zeros[:n_trunc], np.concatenate([z, w, [zeta_star, w_star]]), lam_n)
    b_n_z, b_n_w = b_n[:m], b_n[m : 2 * m]
    c_n = inner_product_values([zeros[n_trunc]], np.append(z, zeta_star), lams[n_trunc])
    # psi = mu c_0 and c_k o phi = nu_k c_{k+1} telescope to
    # rho = mu prod_{k<N} nu_k = phase psi(z*) B_N(w*) / (B_N(z*) c_N(z*))
    rho = complex(spec.phase * eval_auto(psi_fac, zeta_star) * b_n[-1] / (b_n[-2] * c_n[-1]))
    weight = weight_function(phi, spec.p, z)
    psi_vals = inner_product_values([psi_fac.a], z, psi_fac.lam)
    g_w = g(w)

    lhs = spec.phase * psi_vals * weight * b_n_w * g_w
    core = rho * b_n_z * weight * g_w
    rhs = core * c_n[:m]
    defect = float(np.max(np.abs(lhs - rhs)))
    defect_unc = float(np.max(np.abs(lhs - core)))

    if phi.is_identity():
        tail = 0.0
    else:
        r_max = max(radius, float(np.max(np.abs(w))))
        scale = float(np.max(np.abs(weight * g_w * b_n_z)))
        tail = scale * 2.0 * cert.tail(n_trunc) * (1.0 / (1.0 - r_max) + 1.0 / (1.0 - radius))
    return InvariantSubspaceReport(defect, defect_unc, tail, rho, n_trunc, radius)
