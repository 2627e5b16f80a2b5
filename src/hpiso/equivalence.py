"""Isometric equivalence of finite-codimension isometries of H^p (pure Python).

Two specs ``U_1, U_2`` (same ``p``, finite codimension) are declared
equivalent when there are a disc automorphism ``eta`` and a unimodular
``rho`` with

    phi_2 = eta^{-1} o phi_1 o eta,
    phase_2 Psi_2(z) = rho * phase_1 Psi_1(eta(z))     for all z.

This is conjugation by the surjective isometry built on ``eta``, with a free
unimodular factor absorbing the composition constants of the weights: the
projective version of operator equivalence, which is the invariant notion
(phases of the defining data are not individually observable).
"""

from __future__ import annotations

import math
from typing import Optional

from ._record import Record
from .errors import DomainError, IdentityAmbiguity
from .moebius import (
    Chart, DiscAutomorphism, circle_points, compose, eval_auto, identity, inverse,
    model_chart, pointwise_distance,
)
from .spec import IsometrySpec

__all__ = ["EquivWitness", "decide_equivalent"]


class EquivWitness(Record):
    """Witness of equivalence: ``phi_2 = eta^{-1} phi_1 eta`` and
    ``phase_2 Psi_2 = rho phase_1 (Psi_1 o eta)``; ``residual`` is the
    largest numerical defect among symbol conjugation, zero multiset match,
    and constancy of the inner ratio."""

    __slots__ = ("eta", "rho", "residual")

    def __init__(self, eta: DiscAutomorphism, rho: complex, residual: float):
        Record.__init__(self, eta, rho, residual)


_RATIO_POINTS = tuple(circle_points(0.7, 16) + circle_points(0.31, 7))


def _augment(i, level, dist, owner, seen) -> bool:
    """Augmenting path from left point ``i`` over pairs with ``dist <= level``
    (Kuhn's algorithm); ``owner[j]`` is the left point matched to ``j``."""
    for j, e in enumerate(dist[i]):
        if e <= level and not seen[j]:
            seen[j] = True
            if owner[j] < 0 or _augment(owner[j], level, dist, owner, seen):
                owner[j] = i
                return True
    return False


def _multiset_match(left, right, cap: float, dist=None):
    """Bottleneck distance of two equal-length point multisets, or None.

    Returns ``min over bijections of max pair distance`` when that is at
    most ``cap``, else None.  The optimum is one of the pair distances
    ``dist[i][j]`` (default ``abs(left[i] - right[j])``), so the distinct
    distances up to ``cap`` are binary-searched for the smallest one whose
    threshold graph has a perfect matching, tested by augmenting paths
    (bottleneck assignment; Burkard et al., *Assignment Problems*, 2009).
    The result is that float distance itself, exact for every size.
    """
    n = len(left)
    if n == 0:
        return 0.0
    dist = dist if dist is not None else [[abs(x - y) for y in right] for x in left]
    levels = sorted({e for row in dist for e in row if e <= cap})
    lo, hi = 0, len(levels)  # first feasible index in [lo, hi]; len(levels): none
    while lo < hi:
        mid = (lo + hi) // 2
        owner = [-1] * n
        if all(_augment(i, levels[mid], dist, owner, [False] * n) for i in range(n)):
            hi = mid
        else:
            lo = mid + 1
    return levels[lo] if lo < len(levels) else None


def _witness_from_eta(s1: IsometrySpec, s2: IsometrySpec, eta, tol: float):
    """Validate a candidate conjugator and extract (rho, residual).

    Three checks, each within ``10 tol``: the zeros of ``Psi_1`` moved by
    ``eta^{-1}`` match those of ``Psi_2`` as multisets, ``eta^{-1} phi_1
    eta`` equals ``phi_2``, and ``Psi_2 / (Psi_1 o eta)`` is a unimodular
    constant ``rho``.  The zero match runs first because it is the cheapest
    and rejects almost every wrong candidate; the verdict and the residual,
    the largest of the three defects, do not depend on the order.
    """
    eta_inv = inverse(eta)
    moved = [eval_auto(eta_inv, fac.a) for fac in s1.psi_zeros]
    z2 = [fac.a for fac in s2.psi_zeros]
    zero_res = _multiset_match(moved, z2, 10.0 * tol)
    if zero_res is None:
        return None
    sym = compose(eta_inv, compose(s1.phi, eta))
    sym_res = pointwise_distance(sym, s2.phi)
    if sym_res > 10.0 * tol:
        return None
    ratios = []
    for z in _RATIO_POINTS:
        w = eval_auto(eta, z)
        denom = math.prod((eval_auto(f, w) for f in s1.psi_zeros), start=s1.phase)
        if abs(denom) < 1e-8:
            continue
        ratios.append(math.prod((eval_auto(f, z) for f in s2.psi_zeros), start=s2.phase) / denom)
    if not ratios:
        return None
    mean = sum(ratios) / len(ratios)
    if mean == 0:
        return None
    rho = mean / abs(mean)
    spread = max(abs(r - rho) for r in ratios)
    if spread > 10.0 * tol:
        return None
    return EquivWitness(eta, rho, max(sym_res, zero_res, spread))


def _pair_distances(zs) -> list:
    """The sorted pseudo-hyperbolic distances ``|z - w|/|1 - conj(w) z|``
    between the points of ``zs``, one per unordered pair."""
    return sorted(abs(z - w) / abs(1.0 - w.conjugate() * z) for i, z in enumerate(zs) for w in zs[:i])


def _invariant_gap(s1: IsometrySpec, s2: IsometrySpec, tol: float):
    """``(gap, band)``: the largest entrywise gap between the sorted pair
    distances of ``Z(Psi_1)`` and ``Z(Psi_2)``, and a band that contains it
    whenever a candidate can pass the zero match of ``_witness_from_eta``;
    ``gap > band`` certifies that no witness exists.

    A passing ``eta`` puts each moved zero ``fl(eta^{-1}(a_i))`` within
    ``eps = 10 tol`` (``(1 + 4u)`` for the rounding of the distance) of its
    partner ``b_i``.  With its phase made exactly unimodular, ``eta^{-1}``
    is a disc automorphism ``g``, so ``rho(g a_i, g a_j) = rho(a_i, a_j)``
    exactly (Schwarz-Pick), and ``|fl(eta^{-1}(a_i)) - g a_i| <= e =
    32u/(1 - max|a|)``: ``eval_auto`` and the phase renormalization cost a
    few ``u`` each, and the rounding of the denominator ``1 - conj(c) a_i``
    (``c`` the zero of ``eta^{-1}``) is amplified by at most ``1/(1 -
    |a_i|)`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §3.1, §3.6).  ``rho`` is a metric with ``rho(x, x') <= |x - x'|/(1 -
    |x||x'|)``, and ``g a_i`` and ``b_i`` have moduli at most ``R = max|b|
    + eps + e``, so each pair distance moves by at most ``2 (eps + e)/(1 -
    R^2)``, and sorting both lists does not raise the largest entrywise
    gap.  Each computed ``rho`` with both points of modulus at most ``r`` is
    within ``16u/(1 - r^2)`` of the exact one; both sides' terms are added.
    Moduli are rounded up by ``(1 + 4u)`` and the band is inflated by
    ``(1 + 64u)`` to round it outward.  For ``R >= 1`` it is infinite.
    """
    u = 2.0**-53
    a = [f.a for f in s1.psi_zeros]
    b = [f.a for f in s2.psi_zeros]
    gap = max(abs(x - y) for x, y in zip(_pair_distances(a), _pair_distances(b)))
    ra, rb = (max(map(abs, zs)) * (1.0 + 4 * u) for zs in (a, b))
    delta = 10.0 * tol * (1.0 + 4 * u) + 32 * u / (1.0 - ra)
    r = (rb + delta) * (1.0 + 4 * u)
    if r >= 1.0:
        return gap, math.inf
    band = 2 * delta / ((1.0 - r) * (1.0 + r)) + sum(16 * u / ((1.0 - s) * (1.0 + s)) for s in (ra, rb))
    return gap, band * (1.0 + 64 * u)


def _commutant_search(s1: IsometrySpec, s2: IsometrySpec, c1: Chart, c2: Chart, tol: float):
    """The first witness among the conjugators ``eta_0 o gamma_t`` from the
    map of chart ``c2`` to that of ``c1`` (``Chart.conjugator``), or None.

    A witness carries each zero of ``Psi_2`` onto a zero of ``Psi_1``, so
    matching one pair in ``c2`` pins ``t``: ``gamma_t`` must carry the chart
    image of a zero of ``Psi_2`` to that of a zero of ``Psi_1`` moved by
    ``eta_0^{-1}``.  ``t = 0`` comes first, then the pairs in order,
    skipping parameters within 1e-12 of an earlier one.  A candidate past the
    cap (``eta_0`` too) is no witness; its ``DomainError`` is raised only if
    none turns up and its matrix (``Chart.moves``) carries each zero pair
    within ``10 tol`` one way or the other (its rounding grows at either end).
    """
    z1, z2 = ([fac.a for fac in s.psi_zeros] for s in (s1, s2))
    try:
        eta0 = c2.conjugator(c1, tol)
        if eta0 is None:
            return None
        eta0_inv = inverse(eta0)
        u = [c2.apply(eval_auto(eta0_inv, a)) for a in z1]
    except DomainError:
        u = [c2.apply(w) for w in c2.moves(c1, 0.0, z1, ())[0]]
    v = [c2.apply(b) for b in z2]
    ts = [0.0]
    for ui in u:
        for vj in v:
            t = c2.parameter(ui, vj)
            if t is not None and all(abs(t - s) > 1e-12 for s in ts):
                ts.append(t)
    unheld = None
    for t in ts:
        try:
            eta = c2.conjugator(c1, tol, t)
        except DomainError as exc:
            back, forth = c2.moves(c1, t, z1, z2)
            dist = [[min(abs(x - b), abs(a - y)) for b, y in zip(z2, forth)] for a, x in zip(z1, back)]
            if unheld is None and _multiset_match(z1, z2, 10.0 * tol, dist) is not None:
                unheld = exc
            continue
        w = _witness_from_eta(s1, s2, eta, tol)
        if w is not None:
            return w
    if unheld is not None:
        raise unheld
    return None


def decide_equivalent(
    s1: IsometrySpec, s2: IsometrySpec, tol: float = 1e-9
) -> Optional[EquivWitness]:
    """Decide isometric equivalence of two finite specs, with witness.

    Returns an ``EquivWitness`` or ``None`` (not equivalent).  A ``tol``
    outside ``[1e-14, 1e-4]`` (the range ``classify`` accepts), specs on
    different ``H^p`` spaces and specs with infinite constructions raise
    ``DomainError`` (truncate the latter first).  For identity symbols of
    codimension at least 1, a failed anchored search raises
    ``IdentityAmbiguity`` rather than asserting inequality, because the
    search is only exhaustive up to the matching tolerance.

    Non-identity symbols reduce to finitely many candidates: any witness lies
    in ``eta_0 Com(phi_2)`` for the conjugator ``eta_0`` between the two
    model charts (each built once), and the commutant parameter is pinned by
    matching a single zero pair in the chart of ``phi_2``.  Before any
    candidate is built (and after both charts, so ``AmbiguousClassification``
    still surfaces), pairs with ``d >= 2`` zeros are screened by an
    invariant: the sorted pairwise pseudo-hyperbolic distances of the zeros,
    which every disc automorphism preserves.  A gap beyond the band of
    ``_invariant_gap``, which covers every pair a candidate could match
    within ``10 tol`` with rounding included, answers None; inside the band
    the search decides, so the screen never changes a verdict or a witness.
    Identity symbols are not screened: their failed searches raise
    ``IdentityAmbiguity``, and answering None there would change that
    documented outcome.  For identity symbols a witness sends some zero of
    ``Psi_2`` to the first zero of ``Psi_1``; each such anchor leaves the
    rotations about it, the commutant of the chart ``Chart.centred`` there.
    """
    tol = float(tol)
    if not 1e-14 <= tol <= 1e-4:
        raise DomainError("classification tolerance must lie in [1e-14, 1e-4]")
    if s1.infinite is not None or s2.infinite is not None:
        raise DomainError("equivalence needs finite specs; use truncate_spec first")
    if float(s1.p) != float(s2.p):
        raise DomainError(f"specs live on different spaces: p = {s1.p} vs p = {s2.p}")
    d = len(s1.psi_zeros)
    if len(s2.psi_zeros) != d or s1.phi.is_identity() != s2.phi.is_identity():
        return None

    if not s1.phi.is_identity():
        c1, c2 = model_chart(s1.phi, tol), model_chart(s2.phi, tol)
        if d >= 2:
            gap, band = _invariant_gap(s1, s2, tol)
            if gap > band:
                return None
        return _commutant_search(s1, s2, c1, c2, tol)
    if d == 0:
        return EquivWitness(identity(), s2.phase / s1.phase, 0.0)
    c1 = Chart.centred(s1.psi_zeros[0].a)
    for fac in s2.psi_zeros:
        w = _commutant_search(s1, s2, c1, Chart.centred(fac.a), tol)
        if w is not None:
            return w
    if d == 1:
        raise IdentityAmbiguity("single-zero identity-symbol match failed its own verification")
    raise IdentityAmbiguity(
        "identity symbol: the anchored search over zero pairings found no "
        "witness within tolerance; equivalence is undecided at this precision"
    )
