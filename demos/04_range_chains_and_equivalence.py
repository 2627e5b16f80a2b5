"""Range chains of H^p isometries: the Crownover dichotomy and equivalence.

A non-surjective isometry U of H^p has a decreasing chain of ranges
U H^p, U^2 H^p, ...  Two behaviours are possible:

  * the intersection of the chain is {0}  (U is then a pure shift), or
  * the intersection contains a nonzero function.

For the weighted composition isometries the answer is decided by the inner
factor Psi and the symbol phi.  This script walks both decision procedures:

  1. ``decide_crownover`` - which side of the dichotomy a given isometry
     falls on, with certificates or divergence evidence attached;
  2. explicit infinite constructions realizing BOTH sides with
     infinite-codimension inner factors (backward orbit product vs. a
     greedily thinned product with a certified summability budget);
  3. ``invariant_subspace_check`` - certified numerical verification that
     Psi * H^p is invariant under the associated composition isometry;
  4. ``decide_equivalent`` - whether two isometries are unitarily
     equivalent via a disc automorphism, with an explicit witness.

Run with:  python3 demos/04_range_chains_and_equivalence.py
"""

from __future__ import annotations

import cmath

import numpy as np

from hpiso import (
    HpContext,
    IsometrySpec,
    circle_points,
    codimension,
    compose,
    construct_nonzero_intersection,
    construct_zero_intersection,
    decide_crownover,
    decide_equivalent,
    disc_translation,
    eval_auto,
    evidence_rows,
    inner_product_values,
    invariant_subspace_check,
    inverse,
    iterate,
    normalized_factor,
    parabolic_fixing_one,
    pointwise_distance,
    rotation,
    standard_hyperbolic,
    truncate_spec,
    verify_isometry,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


P = 3.0
PHI_I = parabolic_fixing_one(1j)
PSI_HALF = standard_hyperbolic(0.5)


def finite_spec(phi, codim):
    zeros = tuple(normalized_factor(0.2 + 0.15j * k) for k in range(codim))
    return IsometrySpec(p=P, phase=1.0, psi_zeros=zeros, phi=phi)


# ---------------------------------------------------------------------------
section("decide_crownover across the symbol classes (codim 1)")

symbols = [
    ("identity", rotation(1.0)),
    ("elliptic", compose(compose(disc_translation(0.3), rotation(cmath.exp(0.9j))),
                         inverse(disc_translation(0.3)))),
    ("hyperbolic", PSI_HALF),
    ("parabolic", PHI_I),
]
for name, phi in symbols:
    verdict = decide_crownover(finite_spec(phi, 1))
    print(f"{name:10s} -> {verdict.verdict:22s} ({verdict.reason})")

# Identity/elliptic symbols recycle the same compact zero set forever, so the
# accumulated zero sequence diverges and the chain shrinks to {0}.  Hyperbolic
# and parabolic symbols sweep the zeros out to the boundary fast enough that
# the total accumulated zero mass is finite: something nonzero survives.

# ---------------------------------------------------------------------------
section("The evidence behind a verdict")

verdict = decide_crownover(finite_spec(PSI_HALF, 1), n_evidence=64)
ev = verdict.evidence
print(f"evidence verdict : {ev.verdict} / growth {ev.growth}")
print(f"certified bound  : accumulated sum <= {ev.certificate.tail(0):.6f}")
print(f"observed partial : {ev.partial_sum:.6f} over {ev.n_terms} accumulated zeros")

rows = evidence_rows(finite_spec(PSI_HALF, 1), 5)
print("first accumulated zeros (zero, 1-|zero|, running sum):")
for zero, gap, running in rows:
    print(f"  {zero:+.6f}   {gap:.6f}   {running:.6f}")

# ---------------------------------------------------------------------------
section("Infinite codimension, intersection {0}: the backward orbit product")

con = construct_zero_intersection(PSI_HALF)
print(f"construction kind : {con.kind}")
print(f"codimension       : {codimension(IsometrySpec(P, 1.0, (), PSI_HALF, con))}")

# Its zeros are the forward orbit phi^n(0); each application of the isometry
# pushes a fresh zero into the range, which is the shift mechanism:
#   |Psi_n(phi(z))| = |z| * |Psi_{n-1}(z)|        (exact identity)
# Both sides vanish on the same zero sets, so the residual at interior sample
# points is pure rounding.
z = np.array(circle_points(0.6, 17) + circle_points(0.25, 9))
w = inner_product_values([PSI_HALF.a], z, PSI_HALF.lam)  # phi(z)
for n in (4, 32, 128):
    zeros = con.own_zeros(n)
    lhs = np.abs(inner_product_values(zeros, w))
    rhs = np.abs(z) * np.abs(inner_product_values(zeros[: n - 1], z))
    print(f"shift identity residual at n = {n:3d}: {np.max(np.abs(lhs - rhs)):.2e}")

zeros = con.own_zeros(3)
print(f"own zeros are the orbit: {zeros[0]:.6f}, {zeros[1]:.6f}, {zeros[2]:.6f}")
print(f"phi^2(0) = {eval_auto(iterate(PSI_HALF, 2), 0.0):.6f}")

spec = IsometrySpec(P, 1.0, (), PSI_HALF, con)
v = decide_crownover(spec)
print(f"verdict  : {v.verdict} ({v.reason})")

# ---------------------------------------------------------------------------
section("Infinite codimension, nonzero intersection: the thinned product")

con = construct_nonzero_intersection(PHI_I, 6)
print(f"construction kind : {con.kind}")
print(f"thinning indices  : {con.indices}")
print(f"summability budget: {con.budget:.6f}")

spec = IsometrySpec(P, 1.0, (), PHI_I, con)
v = decide_crownover(spec)
print(f"verdict  : {v.verdict} ({v.reason})")
print(f"certified accumulated mass {v.evidence.certificate.tail(0):.6f} "
      f"stays below the budget {con.budget:.6f}")

# Each power of the isometry re-adds the tail of the thinned sequence; the
# greedy choice of indices halves the certified tail each time, so the total
# over ALL powers is a convergent geometric series and the limit Blaschke
# product is a nonzero function contained in every range.

# ---------------------------------------------------------------------------
section("Truncating an infinite construction into a usable spec")

ctx = HpContext(p=P, grid_size=1024)
finite = truncate_spec(spec, 6)     # the six stored thinning indices
print(f"truncated to {len(finite.psi_zeros)} explicit factors")
report = verify_isometry(finite, ctx, seed=3, degree=16)
print(f"still an isometry after truncation: rel defect = {report['rel_defect']:.2e}")

# ---------------------------------------------------------------------------
section("Certified invariant subspace check")

spec1 = finite_spec(PHI_I, 1)
rep = invariant_subspace_check(spec1, lambda w: w**2, ctx, n_trunc=512, radius=0.5)
print(f"defect (rho-corrected) : {rep.defect:.3e}")
print(f"certified tail bound   : {rep.tail_bound:.3e}")
print(f"cocycle constant rho   : {rep.rho:.12f}  (|rho| = {abs(rep.rho):.12f})")
print(f"certified invariant    : {rep.defect <= rep.tail_bound + 1e-8}")

# ---------------------------------------------------------------------------
section("Isometric equivalence with an explicit witness")

# Two codim-1 isometries whose data are related by a disc automorphism eta:
phi = PSI_HALF
eta = disc_translation(0.25 - 0.1j)
zero1 = 0.3 + 0.2j
s1 = IsometrySpec(P, cmath.exp(0.2j), (normalized_factor(zero1),), phi)
phi2 = compose(inverse(eta), compose(phi, eta))            # eta^-1 o phi o eta
zero2 = eval_auto(inverse(eta), zero1)
s2 = IsometrySpec(P, cmath.exp(1.3j), (normalized_factor(zero2),), phi2)

witness = decide_equivalent(s1, s2)
print(f"equivalent: {witness is not None}")
print(f"witness eta has a = {witness.eta.a:.6f}   (built it with a = {eta.a:.6f})")
print(f"conjugation residual  : "
      f"{pointwise_distance(compose(inverse(witness.eta), compose(s1.phi, witness.eta)), s2.phi):.2e}")
print(f"unimodular rho        : {witness.rho:.6f}  (|rho| = {abs(witness.rho):.9f})")
print(f"reported residual     : {witness.residual:.2e}")

# A zero OFF the conjugated position breaks equivalence:
s3 = IsometrySpec(P, 1.0, (normalized_factor(0.7j),), phi2)
print(f"mismatched zero -> {decide_equivalent(s1, s3)}")

# And mismatched symbol classes are rejected immediately:
s4 = IsometrySpec(P, 1.0, (normalized_factor(zero2),), PHI_I)
print(f"mismatched class -> {decide_equivalent(s1, s4)}")
