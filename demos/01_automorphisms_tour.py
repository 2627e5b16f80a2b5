"""Tour of the disc automorphism layer.

Every holomorphic automorphism of the unit disc is

    phi(z) = lam * (z - a) / (1 - conj(a) z),      |lam| = 1, |a| < 1,

and the pair (lam, a) is exactly what ``DiscAutomorphism`` stores.  This
script walks through construction, evaluation, the group operations, the
closed-form iterate, and the conjugacy classification (identity / elliptic /
hyperbolic / parabolic) with its invariants.

Run with:  python3 demos/01_automorphisms_tour.py
"""

from __future__ import annotations

import cmath

from hpiso import (
    DiscAutomorphism,
    classify,
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


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


# ---------------------------------------------------------------------------
section("Construction and evaluation")

phi = DiscAutomorphism(lam=1j, a=0.5)
print("phi = DiscAutomorphism(lam=1j, a=0.5)")
print(f"phi(0)    = {phi(0.0):.6f}        (equals -lam*a)")
print(f"phi(0.5)  = {phi(0.5):.6f}        (the stored a is the zero)")
print(f"phi(0.9j) = {phi(0.9j):.6f}")

# The four named constructors cover the standard one-parameter families.
rot = rotation(cmath.exp(0.3j))          # elliptic about 0, multiplier e^{0.3 i}
hyp = standard_hyperbolic(0.5)           # z -> (z - 1/2)/(1 - z/2)
par = parabolic_fixing_one(1j)           # parabolic fixing 1, "plus" direction
tra = disc_translation(0.3 + 0.2j)       # z -> (z + c)/(1 + conj(c) z)
print(f"\nrotation(e^0.3i)(1) = {rot(1.0):.6f}")
print(f"standard_hyperbolic(0.5)(0) = {hyp(0.0):.6f}")
print(f"parabolic_fixing_one(1j)(1) = {par(1.0):.6f}   (fixes 1)")
print(f"disc_translation(0.3+0.2j)(0) = {tra(0.0):.6f}")

# ---------------------------------------------------------------------------
section("Group structure: compose, inverse, identity")

g = compose(hyp, par)                    # first apply par, then hyp
print(f"(hyp o par)(0.2) = {g(0.2):.12f}")
print(f" hyp(par(0.2))   = {hyp(par(0.2)):.12f}")

gi = inverse(g)
round_trip = compose(gi, g)
print(f"max |g^-1(g(z)) - z| on sample points = "
      f"{pointwise_distance(round_trip, identity()):.2e}")

# ---------------------------------------------------------------------------
section("Iteration: closed form vs. repeated composition")

# iterate(phi, n) is the Chebyshev closed form of the SU(1,1) matrix power,
# so large n costs the same as small n and the error grows only like n u.
phi_i = parabolic_fixing_one(1j)
p3 = iterate(phi_i, 3)
print(f"phi_i^3(0) = {p3(0.0):.12f}   (closed form gives 3/(3+1j) = 0.9-0.3j)")

brute = identity()
for _ in range(3):
    brute = compose(phi_i, brute)
print(f"composed 3x      = {brute(0.0):.12f}")

big = iterate(phi_i, 10**6)
print(f"phi_i^1e6(0)     = {big(0.0):.12f}   (n/(n+1j) -> 1)")

neg = iterate(phi_i, -4)
check = compose(neg, iterate(phi_i, 4))
print(f"phi^-4 o phi^4 == id:  defect {pointwise_distance(check, identity()):.2e}")

# ---------------------------------------------------------------------------
section("Classification: kind, fixed points, multiplier")

for name, f in [("identity", identity()),
                ("rotation", rot),
                ("hyperbolic", hyp),
                ("parabolic", par),
                ("translation", tra)]:
    c = classify(f)
    fps = ", ".join(f"{w:.4f}" for w in c.fixed_points) or "(none)"
    print(f"{name:12s} -> {c.kind.value:10s} fixed: {fps:28s} "
          f"multiplier: {c.multiplier:.4f}  orientation: {c.orientation.value}")

# The multiplier is the derivative at the (first) fixed point: it is the
# complete conjugacy invariant for elliptic and hyperbolic maps, while
# parabolic maps are split only by the orientation of the boundary rotation.

# ---------------------------------------------------------------------------
section("Conjugacy: canonical forms and explicit conjugators")

# The model chart's action is the class invariant.  For a hyperbolic map it
# is the attracting multiplier s, and the canonical form is kappa(z) =
# (z - r)/(1 - r z) with r = (1 - s)/(1 + s), attracting fixed point -1.
chart = model_chart(tra)
kappa = standard_hyperbolic((1.0 - chart.action) / (1.0 + chart.action))
eta = find_conjugator(kappa, tra)
print(f"translation kind          = {chart.kind.value}")
print(f"canonical representative  = kappa with a = {kappa.a:.6f}")
reassembled = compose(eta, compose(kappa, inverse(eta)))
print(f"|eta o kappa o eta^-1 - phi| = {pointwise_distance(reassembled, tra):.2e}")

# Two hyperbolic maps are conjugate iff their multipliers agree; the witness
# eta satisfies psi = eta o phi o eta^-1.
psi = compose(compose(rot, hyp), inverse(rot))
eta = find_conjugator(hyp, psi)
conj = compose(eta, compose(hyp, inverse(eta)))
print(f"find_conjugator residual     = {pointwise_distance(conj, psi):.2e}")

other = standard_hyperbolic(0.7)
print(f"different multiplier -> conjugator is {find_conjugator(hyp, other)}")
