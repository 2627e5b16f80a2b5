"""Blaschke products over automorphism orbits, with certified tails.

A sequence (a_n) inside the disc is a Blaschke sequence when
sum (1 - |a_n|) < infinity; then the normalized factors

    b_n(z) = lam_n (z - a_n) / (1 - conj(a_n) z),   lam_n = |a_n|/a_n (or 1 at 0),

multiply to a bounded analytic function with exactly those zeros.  When the
zeros are the orbit a_n = phi^n(z0) of a disc automorphism, convergence is
decided by the conjugacy class of phi:

  hyperbolic  ->  1 - |a_n| decays geometrically      (convergent)
  parabolic   ->  1 - |a_n| decays like 1/n^2         (convergent)
  elliptic    ->  |a_n| stays on a compact orbit      (divergent)

This script certifies each behaviour with explicit tail bounds, compares
them against brute-force sums, and uses the bound to control the truncation
error of the product itself.

Run with:  python3 demos/02_blaschke_certificates.py
"""

from __future__ import annotations

import io
import math

from hpiso import (
    ZeroSequence,
    compose,
    disc_translation,
    inverse,
    classify_blaschke,
    convergence_certificate,
    eval_blaschke,
    orbit_terms,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
    write_orbit_csv,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def brute_sum(seq: ZeroSequence, n: int, m: int = 0) -> float:
    """The exactly rounded sum of the gaps ``1 - |a_k|`` for ``m <= k < n``."""
    return math.fsum(orbit_terms(seq, n)[1][m:].tolist())


# ---------------------------------------------------------------------------
section("Forward orbits of the three non-trivial classes")

hyp = standard_hyperbolic(0.5)     # multiplier 1/3
par = parabolic_fixing_one(1j)     # the map (i z + 1 - i)/((1 + i) - i z) ... fixing 1
mv = disc_translation(0.4)
ell = compose(compose(mv, rotation(0.6 + 0.8j)), inverse(mv))  # elliptic fixing 0.4

for name, phi in [("hyperbolic", hyp), ("parabolic", par), ("elliptic", ell)]:
    seq = ZeroSequence.forward_orbit(phi)
    terms = seq.terms_up_to(6)
    gaps = ", ".join(f"{1.0 - abs(a):.3e}" for a in terms)
    print(f"{name:10s} 1-|a_n| for n=1..6:  {gaps}")

# The parabolic gaps follow the exact law 1 - |a_n|^2 = 1/(n^2 + 1) for this
# particular map, which is the cleanest possible convergence story.

# ---------------------------------------------------------------------------
section("Certified tail bounds (hyperbolic: geometric envelope)")

seq = ZeroSequence.forward_orbit(hyp)
cert = convergence_certificate(seq)
print(f"certificate kind  : {cert.kind}")
print(f"envelope          : 1 - |a_k| <= {cert.constant:.6f} * {cert.ratio:.6f}^k")
print(f"certified total   : sum (1-|a_n|) <= tail(0) = {cert.tail(0):.6f}")
print(f"brute-force total : {brute_sum(seq, 200):.6f}   (200 terms; rest underflows)")
for m in (10, 20, 40):
    actual = brute_sum(seq, 200, m)
    print(f"tail from n={m:3d}   : certified {cert.tail(m):.3e}   actual {actual:.3e}")

# ---------------------------------------------------------------------------
section("Certified tail bounds (parabolic: inverse-square envelope)")

seq = ZeroSequence.forward_orbit(par)
cert = convergence_certificate(seq)
print(f"certificate kind  : {cert.kind}")
print(f"envelope          : 1 - |a_k| <= {cert.constant:.4f} / "
      f"(({cert.offset:.4f} + {cert.step:.4f} k)^2 + {cert.height:.4f}^2)")
print(f"certified total   : {cert.tail(0):.6f}")
print(f"brute 5000 terms  : {brute_sum(seq, 5000):.6f}")
m = 100
actual = brute_sum(seq, 5000, m)
print(f"tail from n={m}   : certified {cert.tail(m):.3e}   actual {actual:.3e}")

# ---------------------------------------------------------------------------
section("Divergence certificates (elliptic orbits are never Blaschke)")

seq = ZeroSequence.forward_orbit(ell)
cert = convergence_certificate(seq)
print(f"certificate type  : {type(cert).__name__}")
print(f"per-term bound    : 1 - |a_n| >= {cert.delta:.6f} for every n")
print(f"implied partial   : sum over 256 terms >= {256 * cert.delta:.2f}"
      f"   (actual {brute_sum(seq, 256):.2f})")

# ---------------------------------------------------------------------------
section("classify_blaschke: one verdict object per sequence")

for name, phi in [("hyperbolic", hyp), ("parabolic", par), ("elliptic", ell)]:
    v = classify_blaschke(ZeroSequence.forward_orbit(phi))
    print(f"{name:10s} -> verdict={v.verdict:12s} growth={v.growth:12s} "
          f"certificate={type(v.certificate).__name__}")

# Explicit sequences have no orbit theory behind them, so no certificate:
# finitely many terms leave the verdict Undetermined, even for a harmonic
# decay whose full series (sum 1/n) diverges.
harmonic = ZeroSequence.explicit([1.0 - 1.0 / (k + 2.0) for k in range(400)])
v = classify_blaschke(harmonic)
print(f"{'harmonic':10s} -> verdict={v.verdict:12s} growth={v.growth:12s} "
      f"({v.n_terms} terms, no certificate)")

# ---------------------------------------------------------------------------
section("Evaluating the product with a certified truncation error")

seq = ZeroSequence.forward_orbit(par)
z = 0.3 + 0.2j
val64, bound64 = eval_blaschke(seq, z, n_terms=64)
val2048, bound2048 = eval_blaschke(seq, z, n_terms=2048)
print(f"B_64(z)   = {val64:.12f}   certified |B - B_64|   <= {bound64:.3e}")
print(f"B_2048(z) = {val2048:.12f}   certified |B - B_2048| <= {bound2048:.3e}")
print(f"actual |B_2048 - B_64| = {abs(val2048 - val64):.3e}   (within the bound)")
assert abs(val2048 - val64) <= bound64

# ---------------------------------------------------------------------------
section("CSV export of orbit diagnostics")

buf = io.StringIO()
total = write_orbit_csv(buf, ZeroSequence.forward_orbit(hyp), 8)
lines = buf.getvalue().strip().splitlines()
print(f"columns : {lines[0]}")
print(f"first   : {lines[1]}")
print(f"last    : {lines[-1]}")
print(f"running total returned: {total:.9f}")
print(f"fsum of gaps          : {math.fsum(1 - abs(a) for a in ZeroSequence.forward_orbit(hyp).terms_up_to(8)):.9f}")
