"""Output checks that do not trust the code they check.

Maps are re-evaluated here from their ``(lam, a)`` data with plain complex
arithmetic; every check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import cmath
import csv
import json
import math

SAMPLE_POINTS = tuple(
    r * cmath.exp(2j * math.pi * (k + 0.25) / 7) for r in (0.0, 0.3, 0.6, 0.9) for k in range(7)
)


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def moebius(phi, z):
    """``lam (z - a)/(1 - conj(a) z)`` for anything with ``lam`` and ``a``."""
    return phi.lam * (z - phi.a) / (1.0 - phi.a.conjugate() * z)


class Map:
    """A disc automorphism given by its data, independent of hpiso."""

    def __init__(self, lam, a):
        self.lam, self.a = complex(lam), complex(a)

    @classmethod
    def of(cls, obj):
        if isinstance(obj, dict):  # automorphism JSON
            return cls(complex(obj["lambda"]["re"], obj["lambda"]["im"]),
                       complex(obj["a"]["re"], obj["a"]["im"]))
        return cls(obj.lam, obj.a)

    def __call__(self, z):
        return moebius(self, z)


def max_gap(f, g, points=SAMPLE_POINTS):
    return max(abs(f(z) - g(z)) for z in points)


class MatrixMap:
    """``z -> (A z + B)/(conj(B) z + conj(A))``, an SU(1,1) matrix acting on the disc."""

    def __init__(self, A, B):
        self.A, self.B = complex(A), complex(B)

    def __call__(self, z):
        return (self.A * z + self.B) / (self.B.conjugate() * z + self.A.conjugate())


def parabolic_power(phi, n):
    """The ``n``-th iterate of a parabolic ``phi`` in closed form.

    ``phi``'s SU(1,1) matrix with trace +2 is ``I + N`` with ``N^2 = 0``, so
    its ``n``-th power is ``I + n N``.
    """
    s = cmath.sqrt(phi.lam) / math.sqrt(1.0 - abs(phi.a) ** 2)
    alpha, beta = s, -s * phi.a
    if alpha.real < 0:
        alpha, beta = -alpha, -beta
    return MatrixMap(1.0 + n * (alpha - 1.0), n * beta)


def circle_distance(m):
    """``1 - |a|`` for the zero ``a`` of a determinant-one ``MatrixMap``: ``1 - |a|^2 = 1/|A|^2``."""
    return 1.0 / (abs(m.A) ** 2 * (1.0 + abs(m.B / m.A)))


def composed(outer, inner):
    outer, inner = Map.of(outer), Map.of(inner)
    return lambda z: outer(inner(z))


def check_composition(result, outer, inner, tol=1e-10):
    gap = max_gap(Map.of(result), composed(outer, inner))
    require(gap <= tol, f"compose: result differs from outer(inner(z)) by {gap:.3e}")


def check_conjugator(phi, psi, eta, tol=1e-7):
    """``psi = eta o phi o eta^{-1}``, i.e. ``psi(eta(z)) = eta(phi(z))``."""
    require(eta is not None, "find_conjugator: no conjugator for a conjugate pair")
    gap = max_gap(composed(psi, eta), composed(eta, phi))
    require(gap <= tol, f"find_conjugator: psi o eta - eta o phi = {gap:.3e}")


def check_commutes(phi, sigma, tol=1e-9):
    gap = max_gap(composed(phi, sigma), composed(sigma, phi))
    require(gap <= tol, f"commutant_element: does not commute ({gap:.3e})")


def check_kind(kind, expected, what):
    require(kind == expected, f"{what}: kind {kind!r}, expected {expected!r}")


def check_fixed_points(phi, points, tol=1e-8):
    f = Map.of(phi)
    for w in points:
        require(abs(f(w) - w) <= tol, f"classify: {w} is not a fixed point")


def inner_value(spec, z):
    out = complex(spec.phase)
    for fac in spec.psi_zeros:
        out *= moebius(fac, z)
    return out


def check_witness(s1, s2, witness, tol=1e-7):
    """Re-verify ``phi_2 = eta^{-1} phi_1 eta`` and ``phase_2 Psi_2 = rho phase_1 Psi_1 o eta``."""
    require(witness is not None, "decide_equivalent: no witness for an equivalent pair")
    eta = Map.of(witness.eta)
    gap = max_gap(composed(eta, s2.phi), composed(s1.phi, eta))
    require(gap <= tol, f"decide_equivalent: witness symbol residual {gap:.3e}")
    for z in SAMPLE_POINTS:
        lhs = inner_value(s2, z)
        rhs = witness.rho * inner_value(s1, eta(z))
        require(abs(lhs - rhs) <= tol, f"decide_equivalent: inner ratio off by {abs(lhs - rhs):.3e}")


def pseudo_distances(zeros):
    """Sorted pairwise pseudo-hyperbolic distances: an automorphism invariant."""
    out = []
    for i, a in enumerate(zeros):
        for b in zeros[i + 1:]:
            out.append(abs(a - b) / abs(1.0 - a.conjugate() * b))
    return sorted(out)


def check_crownover(verdict, expected, n_terms):
    """Verdict matches the symbol class; evidence stays inside its certificate."""
    require(verdict.verdict == expected, f"decide_crownover: {verdict.verdict}, expected {expected}")
    ev = verdict.evidence
    require(ev.n_terms == n_terms, f"decide_crownover: {ev.n_terms} evidence terms, asked {n_terms}")
    if expected == "NotCrownover":
        bound = ev.certificate.tail(0)
        require(ev.partial_sum <= bound, f"decide_crownover: partial sum {ev.partial_sum!r} > tail(0) {bound!r}")
    else:
        low = ev.certificate.delta * n_terms
        require(ev.partial_sum >= low * (1 - 1e-12),
                f"decide_crownover: partial sum {ev.partial_sum!r} < n delta {low!r}")


def check_product_value(value, bound, first_zeros, z):
    """``|B(z)|`` is at most any single factor's modulus, up to the certified bound."""
    require(math.isfinite(bound) and bound >= 0.0, f"eval_blaschke: bad tail bound {bound!r}")
    cap = min(abs((z - a) / (1.0 - a.conjugate() * z)) for a in first_zeros)
    require(abs(value) <= cap + bound + 1e-12, f"eval_blaschke: |B(z)| = {abs(value):.6g} > {cap:.6g}")


def _lines(text):
    """The lines of ``text``, one at a time, without a second copy of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def check_orbit_csv(text, n, start, certificate):
    """Header, row count, first zero and the certificate; returns the last partial sum.

    Rows are streamed and only the first and last kept, so the check holds
    far less memory than the 65,536-row text it reads.
    """
    rows = csv.reader(_lines(text))
    require(next(rows, None) == ["n", "re_b", "im_b", "one_minus_abs", "partial_sum"], "orbit csv: bad header")
    first = next(rows, None)
    require(first is not None, "orbit csv: no rows")
    count, last = 1, first
    for last in rows:
        count += 1
    require(count == n, f"orbit csv: {count} rows, expected {n}")
    b0 = complex(float(first[1]), float(first[2]))
    require(abs(b0 - start) <= 1e-12, f"orbit csv: first zero {b0}, expected {start}")
    partial = float(last[4])
    check_partial_sum(partial, n, certificate, "orbit csv")
    return partial


def check_partial_sum(partial, n, certificate, what):
    if hasattr(certificate, "tail"):
        bound = certificate.tail(0)
        require(partial <= bound, f"{what}: partial sum {partial!r} > tail(0) {bound!r}")
    else:
        low = certificate.delta * n
        require(partial >= low * (1 - 1e-12), f"{what}: partial sum {partial!r} < n delta {low!r}")


def check_thinned(con, count):
    idx = con.indices
    require(con.kind == "ThinnedForwardProduct", f"construct: kind {con.kind}")
    require(len(idx) == count, f"construct: {len(idx)} indices, asked {count}")
    require(idx[0] >= 2 and all(b > a for a, b in zip(idx, idx[1:])), "construct: indices not increasing")
    require(con.budget > 0.0, "construct: budget not positive")


def check_report(report, grid, limit=1e-6):
    require(report["N"] == grid, f"verify_isometry: grid {report['N']}, asked {grid}")
    require(report["norm_in"] > 0.0, "verify_isometry: zero test function")
    require(report["rel_defect"] < limit, f"verify_isometry: rel_defect {report['rel_defect']:.3e} >= {limit:.0e}")


def check_invariance(report, n_trunc):
    require(report.n_terms == n_trunc, f"invariant_subspace_check: {report.n_terms} terms")
    require(math.isfinite(report.tail_bound), "invariant_subspace_check: tail bound not finite")
    require(abs(abs(report.rho) - 1.0) <= 1e-9, "invariant_subspace_check: rho not unimodular")
    require(report.defect <= report.tail_bound + 1e-8,
            f"invariant_subspace_check: defect {report.defect:.3e} > tail + 1e-8")


def check_rho(closed, numeric, spread, tol=1e-9):
    require(abs(closed - numeric) <= tol, f"composition_constant: |closed - numeric| = {abs(closed - numeric):.3e}")
    require(spread <= tol, f"composition_constant: spread {spread:.3e}")


def check_spec_round_trip(text_before, text_after):
    require(text_before == text_after, "spec JSON round trip changed the spec")


def check_cli(result, expect, validators, first_stdout):
    """Exit code, schema-valid output, byte-identical repeats and the request's semantics."""
    code, out, err = result
    require(code == expect.code, f"cli {expect.sub}: exit {code}, expected {expect.code}: {err[-200:]!r}")
    if first_stdout is not None:
        require(out == first_stdout, f"cli {expect.sub}: stdout differs from the first identical request")
    if expect.schema:
        payload = json.loads(out)
        errors = list(validators[expect.schema].iter_errors(payload))
        require(not errors, f"cli {expect.sub}: stdout violates {expect.schema}: {errors[:1]}")
    else:
        payload = out.decode()
    if expect.semantic is not None:
        expect.semantic(payload)
    if expect.error is None:
        require(err == b"", f"cli {expect.sub}: unexpected stderr {err[-200:]!r}")
        return
    lines = err.decode().splitlines()
    require(len(lines) == 1, f"cli {expect.sub}: stderr has {len(lines)} lines")
    payload = json.loads(lines[0])
    require(not list(validators["error"].iter_errors(payload)), f"cli {expect.sub}: stderr violates the error schema")
    require(payload["error"] == expect.error, f"cli {expect.sub}: error {payload['error']}, expected {expect.error}")
