"""Closed-form orbit terms, their chart density, the tail inverse (and the
thinned construction built on it) and the CSV rows.

``orbit_terms`` generates orbits in the step map's model chart instead of
stepping them; the oracle test re-evaluates the same model orbit at 50
digits, and the regression test pins the worked parabolic ``a_n = n/(n - i)``,
whose stepped gaps drift by 8e-4 (relative) by ``n = 10^5``.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpiso import (
    AmbiguousClassification,
    DomainError,
    GeneratorExhausted,
    IsometrySpec,
    Kind,
    TailCertificate,
    ZeroSequence,
    NotCertified,
    classify,
    compose,
    construct_nonzero_intersection,
    convergence_certificate,
    decide_crownover,
    disc_translation,
    eval_auto,
    eval_blaschke,
    evidence_rows,
    identity,
    inverse,
    iterate,
    model_chart,
    normalized_factor,
    orbit_terms,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)
from hpiso.blaschke import CSV_CHUNK, write_csv_rows
from hpiso.isometries import MAX_THINNING_INDEX

from conftest import exactly_rounded_sum, interior_point, random_by_kind

UNIT_ROUNDOFF = 2.0**-53


def test_parabolic_orbit_exact_regression():
    # a_n = n/(n - i): 1 - |a_n|^2 = 1/(n^2 + 1) exactly, and the certificate's
    # inverse-square term bound is that same value
    seq = ZeroSequence.orbit(normalized_factor(0.0), parabolic_fixing_one(1j))
    a, gap = orbit_terms(seq, 100_001)
    n = np.arange(a.size, dtype=float)
    one_minus_sq = gap * (1.0 + np.abs(a))
    assert np.max(np.abs(one_minus_sq * (n * n + 1.0) - 1.0)) <= 1e-14
    assert np.max(np.abs(a - n / (n - 1j))) <= 1e-14
    cert = convergence_certificate(seq)
    u = cert.offset + cert.step * n
    bound = cert.constant / (u * u + cert.height * cert.height)
    assert np.all(one_minus_sq <= bound * (1.0 + 8.0 * UNIT_ROUNDOFF))


def test_orbit_terms_agree_with_iterates(rng):
    seqs = [ZeroSequence.orbit(normalized_factor(0.4 - 0.2j), identity())]
    for kind in ("Elliptic", "Hyperbolic", "Parabolic"):
        phi = random_by_kind(rng, kind)
        seqs.append(ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.8)), phi))
        seqs.append(ZeroSequence.forward_orbit(phi))
    for seq in seqs:
        a, gap = orbit_terms(seq, 40)
        beta, chart = seq.start_and_chart()
        assert chart.kind is model_chart(seq.phi).kind
        step = seq.phi if seq.kind == "ForwardOrbit" else inverse(seq.phi)
        assert a[0] == beta  # the start point, bit for bit
        assert seq.terms_up_to(40) == a.tolist()
        for k in (1, 5, 12):  # shallow only: iterate() saturates deeper
            assert abs(a[k] - eval_auto(iterate(step, k), beta)) < 1e-13
        far = np.abs(a) < 0.99
        assert np.allclose(gap[far], 1.0 - np.abs(a[far]), rtol=0.0, atol=1e-15)
        picked = [3, 0, 39, 17]
        at, gap_at = orbit_terms(seq, picked)
        assert np.array_equal(at, a[picked]) and np.array_equal(gap_at, gap[picked])


def test_eval_blaschke_matches_factor_loop(rng):
    # the array product against the factor-by-factor loop over the same zeros;
    # only the multiplication order differs (parabolic: no factor is 1 to
    # working precision, so none is replaced)
    phi = random_by_kind(rng, "Parabolic")
    seq = ZeroSequence.orbit(normalized_factor(interior_point(rng, 0.7)), phi)
    z, n = 0.3 - 0.2j, 2048
    value, _ = eval_blaschke(seq, z, n)
    ref = 1.0 + 0.0j
    for a in seq.terms_up_to(n):
        ref *= (-a.conjugate() / abs(a)) * (z - a) / (1.0 - a.conjugate() * z)
    assert abs(value - ref) <= 8 * n * UNIT_ROUNDOFF * abs(ref)


def test_orbit_terms_hyperbolic_saturation():
    # the chart heights s^k pass 1e-290 near k = 245; the rest is the fixed point
    phi = standard_hyperbolic(0.9)
    seq = ZeroSequence.orbit(normalized_factor(0.3j), phi)
    a, gap = orbit_terms(seq, 4000)
    fixed = classify(inverse(phi)).fixed_points[0]  # attracting
    assert np.all(gap >= 0.0) and gap[-1] == 0.0
    assert np.all((gap == 0.0) | (gap >= np.finfo(float).tiny))  # nothing subnormal
    assert np.all(np.abs(a[300:] - fixed) < 1e-15)
    assert np.all(np.diff(gap[10:]) <= 0.0)


def test_orbit_terms_guards():
    seq = ZeroSequence.orbit(normalized_factor(0.3), standard_hyperbolic(0.5))
    with pytest.raises(DomainError):
        orbit_terms(seq, -1)
    with pytest.raises(DomainError):
        orbit_terms(seq, [2, -1])
    a, gap = orbit_terms(seq, 0)
    assert a.size == gap.size == 0
    explicit = ZeroSequence.explicit([0.5, -0.25j])
    a, gap = orbit_terms(explicit, 2)
    assert a.tolist() == [0.5, -0.25j] and gap.tolist() == [0.5, 0.75]
    with pytest.raises(GeneratorExhausted):
        orbit_terms(explicit, 3)


# ---------------------------------------------------------------------------
# closed-form inverse of the certified tail

geometric = st.builds(
    lambda c, q: TailCertificate("geometric", c, ratio=q),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 0.999),
)
inverse_square = st.builds(
    lambda c, off, step, h: TailCertificate("inverse-square", c, offset=off, step=step, height=h),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(0.05, 10.0).flatmap(lambda t: st.sampled_from((t, -t))),
    st.floats(1.0, 50.0),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(geometric, inverse_square), st.floats(1e-5, 1.0))
def test_first_index_below_is_the_first_index(cert, share):
    # tail does not increase, so tail(m) < target <= tail(m - 1) pins m; the
    # targets keep m below ~1e8, where the float tail still resolves unit steps
    target = share * cert.tail(0) * 1.5
    m = cert.first_index_below(target)
    assert cert.tail(m) < target
    assert m == 0 or cert.tail(m - 1) >= target


def test_first_index_below_guards():
    cert = TailCertificate("geometric", 1.0, ratio=0.5)
    with pytest.raises(DomainError):
        cert.first_index_below(0.0)
    assert cert.first_index_below(3.0) == 0
    assert TailCertificate("geometric", 1.0, ratio=0.0).first_index_below(0.5) == 1


def test_inverse_square_tail_resolves_deep_unit_steps(monkeypatch):
    # pi/2 - atan(v) cancelled for large v: the float tail stalled for runs of
    # unit steps past ~1e8 terms, was off by ~1e-6 relative near 1e11, and the
    # second certificate's first_index_below took ~9e5 unit steps
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    parabolic = ZeroSequence.orbit(normalized_factor(0.3), parabolic_fixing_one(cmath.exp(0.7j)))
    certs = (
        convergence_certificate(parabolic),
        TailCertificate("inverse-square", 100.0, offset=700.0, step=2.5, height=25.0),
    )
    for cert in certs:
        tails = [cert.tail(m) for m in range(10**9, 10**9 + 1000)]
        assert all(b < a for a, b in zip(tails, tails[1:]))

        c, step = mp.mpf(cert.height), mp.mpf(cert.step)
        for m in (0, 1, 10**6, 10**9, 10**12, 10**15):
            v = mp.sign(step) * (mp.mpf(cert.offset) + step * (m - 1)) / c
            extra = 2 / c**2 if -cert.offset / cert.step > m - 1 else 0
            ref = mp.mpf(cert.constant) * (mp.atan2(1, v) / (abs(step) * c) + extra)
            assert abs(cert.tail(m) - ref) <= 4 * 2.0**-52 * ref

        calls = []
        tail = TailCertificate.tail
        monkeypatch.setattr(TailCertificate, "tail", lambda self, m: calls.append(m) or tail(self, m))
        target = 1e-9 * cert.tail(0)
        m = cert.first_index_below(target)
        monkeypatch.undo()
        assert len(calls) <= 8
        assert cert.tail(m) < target <= cert.tail(m - 1)


def scanned_indices(cert, budget: float, count: int) -> tuple:
    """The greedy thinning rule as a linear scan over the certified tails."""
    indices, n = [], 2
    for k in range(1, count + 1):
        while cert.tail(n - 1) >= budget / 2.0**k:
            n += 1
            if n > MAX_THINNING_INDEX:
                raise NotCertified("scan passed the thinning cap")
        indices.append(n)
        n += 1
    return tuple(indices)


@settings(max_examples=24, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("Hyperbolic", "Parabolic")), st.integers(1, 16))
def test_thinned_indices_match_linear_scan(seed, kind, count):
    phi = random_by_kind(np.random.default_rng(seed), kind)
    base = ZeroSequence.orbit(normalized_factor(eval_auto(inverse(phi), 0.0)), phi)
    cert = convergence_certificate(base)
    budget = exactly_rounded_sum(orbit_terms(base, 64)[1]) + cert.tail(64)
    try:
        con = construct_nonzero_intersection(phi, count)
    except NotCertified:
        with pytest.raises(NotCertified):
            scanned_indices(cert, budget, count)
        return
    assert con.budget == budget  # bit for bit: the exact sum of 64 gaps, rounded, plus the tail
    assert con.indices == scanned_indices(cert, con.budget, count)


# ---------------------------------------------------------------------------
# CSV rows


def test_write_csv_rows_matches_csv_module(rng):
    n = CSV_CHUNK + 123
    zeros = np.exp(2j * np.pi * rng.uniform(size=n)) * (1.0 - rng.uniform(size=n) ** 8)
    zeros[5] = 0.0
    gaps = 1.0 - np.abs(zeros)
    buf = io.StringIO()
    total = write_csv_rows(buf, zeros, gaps, first=1)

    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["n", "re_b", "im_b", "one_minus_abs", "partial_sum"])
    running = 0.0
    for k, (b, g) in enumerate(zip(zeros.tolist(), gaps.tolist())):
        running += g
        writer.writerow([k + 1, repr(b.real), repr(b.imag), repr(g), repr(running)])
    assert buf.getvalue() == ref.getvalue()
    assert total == running


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("Elliptic", "Hyperbolic", "Parabolic")),
    st.integers(1, 3),
    st.integers(1, 700),
)
def test_evidence_prefix_column_within_recursive_summation_bound(seed, kind, d, n):
    # the np.cumsum column: |S~_k - S_k| <= gamma_{k-1} S_k for nonnegative gaps
    rng = np.random.default_rng(seed)
    zeros = tuple(normalized_factor(interior_point(rng, 0.9)) for _ in range(d))
    rows = evidence_rows(IsometrySpec(3.0, 1.0, zeros, random_by_kind(rng, kind)), n)
    u, exact = Fraction(UNIT_ROUNDOFF), Fraction(0)
    for k, (_, gap, total) in enumerate(rows, start=1):
        exact += Fraction(gap)
        assert abs(Fraction(total) - exact) <= (k - 1) * u / (1 - (k - 1) * u) * exact


def test_decide_crownover_writes_its_evidence(tmp_path):
    phi = compose(disc_translation(0.2 - 0.1j), compose(parabolic_fixing_one(-1j), disc_translation(-0.2 + 0.1j)))
    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3), normalized_factor(-0.5j)), phi)
    path = tmp_path / "evidence.csv"
    verdict = decide_crownover(spec, 9, evidence_csv=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,re_b,im_b,one_minus_abs,partial_sum" and len(lines) == 10
    for k, (line, (a, gap, total)) in enumerate(zip(lines[1:], evidence_rows(spec, 9)), start=1):
        assert line == f"{k},{a.real!r},{a.imag!r},{gap!r},{total!r}"
    assert verdict.evidence.partial_sum == total


# ---------------------------------------------------------------------------
# high-precision oracle

SAMPLED_K = np.array([0, 1, 2, 7, 100, 1000, 4095, 20_000, 65_535])


def model_symbol(kind: str, x: float):
    """A canonical symbol; the near-parabolic ones have ``|t - 2|`` of about 1e-6."""
    if kind == "elliptic":
        return rotation(cmath.exp(1j * (0.2 + 5.8 * x)))
    if kind == "hyperbolic":
        return standard_hyperbolic(0.05 + 0.85 * x)
    if kind == "parabolic":
        return parabolic_fixing_one(cmath.exp(1j * (0.15 + (math.pi - 0.3) * x)))
    if kind == "near-elliptic":
        return rotation(cmath.exp(2e-3j * (0.5 + x)))
    return standard_hyperbolic(1e-3 * (0.5 + x))


def model_orbit_50_digits(mp, seq: ZeroSequence, ks):
    """``a_k`` and ``1 - |a_k|^2`` of the exact model orbit in the generator's
    chart, and the conditioning ``|zeta_0| / h(zeta_0)`` of its start.

    The chart matrix, the model action and the start point are the float
    values the generator reads; everything after that runs at 50 digits.
    """
    beta, chart = seq.start_and_chart()
    kind, m, action = chart
    m = [mp.mpc(x) for x in m]
    b = mp.mpc(beta)
    zeta0 = (m[0] * b + m[1]) / (m[2] * b + m[3])

    def height(zeta):  # the model density: 2 Im zeta, or 1 - |zeta|^2 on the disc
        return 1 - abs(zeta) ** 2 if kind is Kind.ELLIPTIC else 2 * zeta.imag

    out = []
    for k in ks.tolist():
        if kind is Kind.ELLIPTIC:
            zeta = zeta0 * mp.expj(mp.mpf(cmath.phase(action)) * k)
        elif kind is Kind.HYPERBOLIC:
            zeta = zeta0 * mp.mpf(action) ** k
        else:
            zeta = zeta0 + mp.mpf(action) * k
        a = b if k == 0 else (m[3] * zeta - m[1]) / (m[0] - m[2] * zeta)
        density = height(zeta) * abs(m[0] * m[3] - m[1] * m[2]) / abs(m[0] - m[2] * zeta) ** 2
        direct = 1 - abs(a) ** 2
        if direct > 1e-6:  # where the float chart's own rounding is negligible
            assert abs(density - direct) <= 1e-9 * direct
        out.append((a, density))
    return out, float(abs(zeta0) / height(zeta0))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("elliptic", "hyperbolic", "parabolic", "near-elliptic", "near-hyperbolic")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.7),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2.0 * math.pi),
    st.booleans(),
)
def test_orbit_terms_match_50_digit_model_orbit(kind, x, eta_r, eta_arg, start_r, start_arg, backward):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    eta = disc_translation(eta_r * cmath.exp(1j * eta_arg))
    phi = compose(eta, compose(model_symbol(kind, x), inverse(eta)))
    start = normalized_factor(start_r * cmath.exp(1j * start_arg))
    seq = ZeroSequence.orbit(start, phi) if backward else ZeroSequence.forward_orbit(phi)
    try:
        a, gap = orbit_terms(seq, SAMPLED_K)
    except AmbiguousClassification:
        assume(False)  # no chart to compare in
    ref, cond = model_orbit_50_digits(mp, seq, SAMPLED_K)
    # the float chart image of the start point is off by a few u |zeta_0|,
    # which moves the density by that much relative to the height h(zeta_0)
    rel_tol = 512 * UNIT_ROUNDOFF * (1.0 + cond)
    for ak, gk, (ref_a, ref_sq) in zip(a, gap, ref):
        assert abs(mp.mpc(ak) - ref_a) <= 1e-14
        one_minus_sq = gk * (1.0 + abs(ak))
        if ref_sq >= 1e-280:
            assert abs(one_minus_sq - ref_sq) <= rel_tol * ref_sq
        else:  # past the hyperbolic underflow cut the gap is 0
            assert one_minus_sq <= 1e-280
