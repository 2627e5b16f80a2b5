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
    Chart, DiscAutomorphism, circle_points, compose, eval_auto, identity, inverse, model_chart,
    pointwise_distance,
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
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "residual", residual)


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


def _multiset_match(left, right, cap: float):
    """Bottleneck distance of two equal-length point multisets, or None.

    Returns ``min over bijections of max pair distance`` when that is at
    most ``cap``, else None.  The optimum is one of the pair distances
    ``abs(left[i] - right[j])``, so the distinct distances up to ``cap``
    are binary-searched for the smallest one whose threshold graph has a
    perfect matching, tested by augmenting paths (bottleneck assignment;
    Burkard, Dell'Amico & Martello, *Assignment Problems*, 2009).  The
    result is that float distance itself, exact for every size.
    """
    n = len(left)
    if n == 0:
        return 0.0
    dist = [[abs(x - y) for y in right] for x in left]
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


def _commutant_search(s1: IsometrySpec, s2: IsometrySpec, c1: Chart, c2: Chart, tol: float):
    """The first witness among the conjugators ``eta_0 o gamma_t`` from the
    map of chart ``c2`` to that of ``c1`` (``Chart.conjugator``), or None.

    A witness carries each zero of ``Psi_2`` onto a zero of ``Psi_1``, so
    matching one pair in ``c2`` pins ``t``: ``gamma_t`` must carry the chart
    image of a zero of ``Psi_2`` to that of a zero of ``Psi_1`` moved by
    ``eta_0^{-1}``.  ``t = 0`` comes first, then the pairs in order,
    skipping parameters within 1e-12 of an earlier one.
    """
    eta0 = c2.conjugator(c1, tol)
    if eta0 is None:
        return None
    eta0_inv = inverse(eta0)
    u = [c2.apply(eval_auto(eta0_inv, fac.a)) for fac in s1.psi_zeros]
    v = [c2.apply(fac.a) for fac in s2.psi_zeros]
    ts = [0.0]
    for ui in u:
        for vj in v:
            t = c2.parameter(ui, vj)
            if t is not None and all(abs(t - s) > 1e-12 for s in ts):
                ts.append(t)
    for t in ts:
        w = _witness_from_eta(s1, s2, c2.conjugator(c1, tol, t), tol)
        if w is not None:
            return w
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
    matching a single zero pair in the chart of ``phi_2``.  For identity
    symbols a witness sends some zero of ``Psi_2`` to the first zero of
    ``Psi_1``; each such anchor leaves the rotations about it, the
    commutant of the chart ``Chart.centred`` there.
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
        return _commutant_search(s1, s2, model_chart(s1.phi, tol), model_chart(s2.phi, tol), tol)
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
