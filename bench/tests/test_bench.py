"""Tests of the benchmark's own code: generators, percentiles, spans and checks.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import cmath
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpiso as hp
import hpiso.serialize as ser

import checks as ck
import run
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def fingerprint(ops):
    """Kinds plus the repr of every value the operations closed over."""
    out = []
    for op in ops:
        cells = op.run.__closure__ or ()
        values = [repr(c.cell_contents) for c in cells]
        out.append((op.kind, sorted(v for v in values if " at 0x" not in v)))
    return out


def build(name, seed):
    rng = random.Random(seed)
    if name == "cli_session":
        return wl.cli_session(rng, wl.Cli(ROOT, {}, ROOT / ".bench_build" / "bench"))
    return wl.BUILDERS[name](rng)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = fingerprint(build(name, 7))
    assert first == fingerprint(build(name, 7))
    other = fingerprint(build(name, 8))
    assert [k for k, _ in other] == [k for k, _ in first]  # same shape ...
    assert other != first  # ... different values


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.quantile(values, 0.5) == pytest.approx(50.5)
    p90 = run.quantile(values, 0.9)
    assert p90 == pytest.approx(90.1)
    assert run.beyond(values, p90) == 10  # 100 samples give p90 ten samples beyond it
    rng = np.random.default_rng(3)
    sample = rng.lognormal(size=257).tolist()
    for q in (0.5, 0.9):
        assert run.quantile(sample, q) == pytest.approx(np.percentile(sample, 100 * q))
    assert run.quantile([4.0], 0.9) == 4.0
    assert run.quantile([], 0.5) == 0.0


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert spans.under(parent, [False, True, False, False]).tolist() == [False, False, True, False]


def test_tracer_records_nested_library_calls_and_uninstalls():
    original = hp.compose
    outer, inner = hp.rotation(1j), hp.disc_translation(0.3)
    tracer = spans.Tracer().install()
    try:
        assert hp.compose is not original
        hp.compose(outer, inner)
        tracer.end_op(0)
        hp.classify(hp.rotation(1j))  # outside any operation: not counted
        tracer.end_op(-1)
    finally:
        tracer.uninstall()
    tracer.flush()
    assert hp.compose is original
    st = tracer.stats
    assert st.calls["moebius.compose"] == 1
    assert st.calls["moebius.DiscAutomorphism.matrix"] == 2
    assert "moebius.classify" not in st.calls
    assert len(st.durations["moebius.compose"]) == 1
    total = st.durations["moebius.compose"][0] / 1e6
    assert 0 < st.self_s["moebius.compose"] < st.layer_self_s("moebius") <= total


def test_serialize_counters_count_nested_validates():
    spec = hp.IsometrySpec(3.0, 1.0, tuple(hp.normalized_factor(a) for a in (0.1, 0.2j)), hp.identity())
    obj = ser.spec_to_json(spec)
    tracer = spans.Tracer().install()
    try:
        ser.spec_from_json(obj)
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    tracer.flush()
    assert tracer.stats.parses == 1
    assert tracer.stats.nested_validates == 4  # spec + three automorphisms


# ---------------------------------------------------------------------------
# each check accepts a real result and rejects a corrupted one


def rejects(fn, *args):
    with pytest.raises(ck.CheckFailed):
        fn(*args)


PHI = wl.conjugate_by(hp.disc_translation(0.2 + 0.1j), hp.standard_hyperbolic(0.4))
PSI = hp.compose(hp.rotation(1j), hp.disc_translation(-0.3j))


def shifted(phi, da=1e-3):
    return ck.Map(phi.lam, phi.a + da)


def test_group_checks():
    comp = hp.compose(PHI, PSI)
    ck.check_composition(comp, PHI, PSI)
    rejects(ck.check_composition, shifted(comp), PHI, PSI)
    conj = wl.conjugate_by(PSI, PHI)
    eta = hp.find_conjugator(PHI, conj)
    ck.check_conjugator(PHI, conj, eta)
    rejects(ck.check_conjugator, PHI, conj, shifted(eta))
    rejects(ck.check_conjugator, PHI, conj, None)
    sigma = hp.commutant_element(PHI, 0.7)
    ck.check_commutes(PHI, sigma)
    rejects(ck.check_commutes, PHI, shifted(sigma))
    cls = hp.classify(PHI)
    ck.check_kind(cls.kind.value, "Hyperbolic", "classify")
    rejects(ck.check_kind, cls.kind.value, "Parabolic", "classify")
    ck.check_fixed_points(PHI, cls.fixed_points)
    rejects(ck.check_fixed_points, PHI, [w * cmath.exp(0.01j) for w in cls.fixed_points])


def test_witness_check():
    s1 = wl.spec_of([0.3, -0.2 + 0.4j, 0.5j], PHI)
    s2 = hp.conjugated_spec(s1, PSI, cmath.exp(0.4j))
    w = hp.decide_equivalent(s1, s2)
    ck.check_witness(s1, s2, w)
    rejects(ck.check_witness, s1, s2, None)
    rejects(ck.check_witness, s1, s2, wl._Witness(w.eta, w.rho * cmath.exp(1e-3j)))
    rejects(ck.check_witness, s1, s2, wl._Witness(shifted(w.eta), w.rho))


def test_orbit_checks():
    spec = wl.spec_of([0.3, 0.1j], PHI)
    v = hp.decide_crownover(spec, 512)
    ck.check_crownover(v, "NotCrownover", 512)
    rejects(ck.check_crownover, v, "Crownover", 512)
    cert = v.evidence.certificate
    inflated = dataclasses.replace(v.evidence, partial_sum=cert.tail(0) * 1.01)
    rejects(ck.check_crownover, dataclasses.replace(v, evidence=inflated), "NotCrownover", 512)

    seq = hp.ZeroSequence.orbit(spec.psi_zeros[0], PHI)
    seq_cert = hp.convergence_certificate(seq)
    buf = io.StringIO()
    partial = hp.write_orbit_csv(buf, seq, 300)
    assert ck.check_orbit_csv(buf.getvalue(), 300, seq.psi.a, seq_cert) == partial
    lines = buf.getvalue().splitlines(keepends=True)
    rejects(ck.check_orbit_csv, "".join(lines[:-1]), 300, seq.psi.a, seq_cert)
    rejects(ck.check_orbit_csv, buf.getvalue(), 300, seq.psi.a + 1e-6, seq_cert)
    ck.check_partial_sum(partial, 300, seq_cert, "csv")
    rejects(ck.check_partial_sum, seq_cert.tail(0) * 1.01, 300, seq_cert, "csv")

    z = 0.2 + 0.1j
    value, bound = hp.eval_blaschke(seq, z, 1000)
    first = seq.terms_up_to(8)
    ck.check_product_value(value, bound, first, z)
    rejects(ck.check_product_value, value * 1.5 / abs(value), bound, first, z)

    par = wl.symbol(random.Random(4), "Parabolic").phi
    closed = ck.parabolic_power(par, 5)
    stepped = ck.Map.of(par)
    assert ck.max_gap(closed, lambda z: stepped(stepped(stepped(stepped(stepped(z)))))) < 1e-12
    assert ck.max_gap(ck.parabolic_power(par, 6), closed) > 1e-3

    con = hp.construct_nonzero_intersection(PHI, 5)
    ck.check_thinned(con, 5)
    rejects(ck.check_thinned, con, 6)


def test_grid_checks():
    spec = wl.spec_of([0.3], PHI)
    rep = hp.verify_isometry(spec, hp.HpContext(3.0, 1024), seed=2)
    ck.check_report(rep, 1024)
    rejects(ck.check_report, {**rep, "rel_defect": 1e-3}, 1024)
    rejects(ck.check_report, rep, 2048)
    ctx = hp.HpContext(3.0, 1024)
    g = hp.BoundaryFunction(hp.random_polynomial(np.random.default_rng(1), 8), 1024)
    inv = hp.invariant_subspace_check(spec, g, ctx, n_trunc=64)
    ck.check_invariance(inv, 64)
    rejects(ck.check_invariance, dataclasses.replace(inv, defect=inv.tail_bound + 1e-6), 64)
    cc = hp.composition_constant(PHI, PSI, 3.0, 512)
    ck.check_rho(cc.rho_closed, cc.rho_numeric, cc.spread)
    rejects(ck.check_rho, cc.rho_closed, cc.rho_numeric * cmath.exp(1e-6j), cc.spread)
    ck.check_spec_round_trip("{}", "{}")
    rejects(ck.check_spec_round_trip, '{"p":3.0}', '{"p":3.5}')


def test_cli_check():
    cli = wl.Cli(ROOT, {}, ROOT / ".bench_build" / "bench")
    out = (ser.dumps(ser.automorphism_to_json(hp.compose(PHI, PSI))) + "\n").encode()
    expect = wl.Expect("compose", 0, "automorphism", semantic=lambda p: ck.check_composition(p, PHI, PSI))
    ck.check_cli((0, out, b""), expect, cli.validators, None)
    ck.check_cli((0, out, b""), expect, cli.validators, out)
    rejects(ck.check_cli, (4, out, b""), expect, cli.validators, None)
    rejects(ck.check_cli, (0, out, b""), expect, cli.validators, out.replace(b"1", b"2"))
    rejects(ck.check_cli, (0, b'{"lambda":{"re":1}}\n', b""), expect, cli.validators, None)
    wrong = (ser.dumps(ser.automorphism_to_json(hp.compose(PSI, PHI))) + "\n").encode()
    rejects(ck.check_cli, (0, wrong, b""), expect, cli.validators, None)
    err = (json.dumps({"error": "WrongClass", "message": "m"}) + "\n").encode()
    expect = wl.Expect("construct", 4, error="WrongClass")
    ck.check_cli((4, b"", err), expect, cli.validators, None)
    rejects(ck.check_cli, (4, b"", err.replace(b"WrongClass", b"DomainError")), expect, cli.validators, None)
    rejects(ck.check_cli, (4, b"", err + err), expect, cli.validators, None)


def test_cli_runner_reads_each_request_s_own_peak_memory():
    cli = wl.Cli(ROOT, run.child_env(), ROOT / ".bench_build" / "bench")
    (ROOT / ".bench_build" / "bench").mkdir(parents=True, exist_ok=True)
    code, out, err = cli.run("classify", ["--phi", wl._auto_json(PHI)])
    assert code == 0 and err == b"" and json.loads(out)["kind"] == "Hyperbolic"
    assert cli.peak_rss_kb > 10_000  # the hpiso CLI, with numpy and jsonschema loaded


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "orbit_depth", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert res.returncode != 0
    assert b"correct" not in res.stdout
