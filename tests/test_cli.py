"""End-to-end CLI tests: every subcommand, every exit code, determinism.

The CLI is exercised in-process through ``hpiso.cli.main`` (stdout/stderr
captured), plus one subprocess test for the installed console script.  The
contract under test: JSON results on stdout validated against the shipped
schemas, single-line JSON errors on stderr, exit 0 = decided, 2 = parse or
schema error, 3 = undetermined, 4 = invalid input, and byte-identical output
for identical invocations.
"""

from __future__ import annotations

import cmath
import io
import json
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hpiso.cli as cli
from hpiso import (
    IsometrySpec,
    ZeroSequence,
    compose,
    construct_nonzero_intersection,
    construct_zero_intersection,
    disc_translation,
    identity,
    inverse,
    normalized_factor,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)
from hpiso import serialize as ser

from conftest import NEAR_BAND_PINNED, phi_parabolic_plus

PHI_I = '{"lambda":{"re":0,"im":1},"a":{"re":0.5,"im":0.5}}'
PSI_HALF = '{"lambda":{"re":1,"im":0},"a":{"re":0.5,"im":0}}'
CLASSIFY_PHI_I = (
    '{"fixed_points":[{"im":0.0,"re":1.0}],"kind":"Parabolic",'
    '"multiplier":{"im":0.0,"re":0.9999999999999998},"orientation":"plus"}'
)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def spec_json(spec: IsometrySpec) -> str:
    return ser.dumps(ser.spec_to_json(spec))


def assert_error_line(err: str, name: str):
    lines = err.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["error"] == name and isinstance(obj["message"], str)


# ---------------------------------------------------------------------------
# happy paths


def test_classify_worked_example():
    code, out, err = run_cli("classify", "--phi", PHI_I)
    assert code == 0 and err == ""
    assert out == CLASSIFY_PHI_I + "\n"


def test_classify_at_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(PHI_I)
    code, out, _ = run_cli("classify", "--phi", f"@{path}")
    assert code == 0 and out == CLASSIFY_PHI_I + "\n"


def test_compose_matches_library():
    code, out, _ = run_cli("compose", "--outer", PHI_I, "--inner", PSI_HALF)
    assert code == 0
    got = ser.automorphism_from_json(json.loads(out))
    ref = compose(
        ser.automorphism_from_json(json.loads(PHI_I)),
        ser.automorphism_from_json(json.loads(PSI_HALF)),
    )
    assert got.lam == pytest.approx(ref.lam) and got.a == pytest.approx(ref.a)


def test_iterate_value():
    code, out, _ = run_cli("iterate", "--phi", PHI_I, "--n", "3", "--at", '{"re":0,"im":0}')
    assert code == 0
    payload = json.loads(out)
    # the third forward iterate sends 0 to 3/(3+i) = 0.9 - 0.3i
    assert payload["value"]["re"] == pytest.approx(0.9, abs=1e-12)
    assert payload["value"]["im"] == pytest.approx(-0.3, abs=1e-12)
    code, out, _ = run_cli("iterate", "--phi", PHI_I, "--n", "5")
    assert code == 0 and json.loads(out)["value"] is None


def test_orbit_stdout_and_csv(tmp_path):
    code, out, _ = run_cli("orbit", "--phi", PHI_I, "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re_b,im_b,one_minus_abs,partial_sum"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "1"  # forward orbit is 1-indexed

    path = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        "orbit", "--phi", PHI_I, "--psi", PSI_HALF, "--n", "4", "--csv", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 4 and payload["csv"] == str(path)
    rows = path.read_text().splitlines()
    assert len(rows) == 5 and rows[1].split(",")[0] == "0"
    assert float(rows[-1].split(",")[4]) == pytest.approx(payload["partial_sum"])


def test_orbit_explicit_sequence():
    seq = ZeroSequence.explicit([0.5, -0.25j])
    code, out, _ = run_cli("orbit", "--seq", ser.dumps(ser.sequence_to_json(seq)), "--n", "2")
    assert code == 0 and len(out.splitlines()) == 3


def test_orbit_argument_conflicts():
    code, _, err = run_cli("orbit", "--seq", "{}", "--phi", PHI_I)
    assert code == 4
    assert_error_line(err, "ValueError")
    code, _, err = run_cli("orbit", "--n", "5")
    assert code == 4
    assert_error_line(err, "ValueError")


def test_crownover_with_evidence_csv(tmp_path):
    spec = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.3),), phi_parabolic_plus()
    )
    path = tmp_path / "evidence.csv"
    code, out, _ = run_cli(
        "crownover", "--spec", spec_json(spec), "--evidence", "16", "--out", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NotCrownover"
    assert payload["reason"] == "ParabolicSymbol"
    assert payload["evidence_csv"] == str(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "n,re_b,im_b,one_minus_abs,partial_sum"
    assert len(rows) == 17 and rows[1].split(",")[0] == "1"


def crownover_specs():
    move = disc_translation(0.3 + 0.2j)
    zeros = (normalized_factor(0.4 - 0.3j), normalized_factor(0.999 + 0.01j))
    specs = {}
    for name, kappa in (("hyperbolic", standard_hyperbolic(0.4)),
                        ("parabolic", parabolic_fixing_one(1j)),
                        ("elliptic", rotation(cmath.exp(0.7j)))):
        phi = compose(move, compose(kappa, inverse(move)))
        specs[name] = IsometrySpec(3.0, 1.0, zeros, phi)
        if name != "elliptic":
            con = construct_nonzero_intersection(phi, 5)
            specs[f"thinned {name}"] = IsometrySpec(3.0, 1.0, (), phi, infinite=con)
    return specs


@pytest.mark.parametrize("name", list(crownover_specs()))
def test_crownover_prints_the_same_with_and_without_out(tmp_path, name):
    # only --out walks every evidence term; without it hyperbolic walks stop
    # where the sum is settled, which must not move a printed byte
    spec = spec_json(crownover_specs()[name])
    for n in (1, 255, 4097, 2**17):
        path = tmp_path / f"evidence_{n}.csv"
        bare = run_cli("crownover", "--spec", spec, "--evidence", str(n))
        written = run_cli("crownover", "--spec", spec, "--evidence", str(n), "--out", str(path))
        assert bare[0] == written[0] == 0 and bare[2] == written[2] == ""
        assert written[1].replace(json.dumps(str(path)), "null") == bare[1]
        last = path.read_text().splitlines()[-1].split(",")
        assert last[0] == str(n)
        assert float(last[-1]) == json.loads(bare[1])["evidence"]["partial_sum"]


def test_crownover_surjective_spec_fails():
    spec = IsometrySpec(3.0, 1.0, (), standard_hyperbolic(0.5))
    code, _, err = run_cli("crownover", "--spec", spec_json(spec))
    assert code == 4
    assert_error_line(err, "ZeroCodimension")


def test_equiv_positive_negative_and_undetermined():
    base = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), standard_hyperbolic(0.5))
    code, out, _ = run_cli("equiv", "--s1", spec_json(base), "--s2", spec_json(base))
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["witness"]["residual"] <= 1e-9

    other = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.3), normalized_factor(0.1)), standard_hyperbolic(0.5)
    )
    code, out, _ = run_cli("equiv", "--s1", spec_json(base), "--s2", spec_json(other))
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is False and payload["witness"] is None

    amb1 = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.1), normalized_factor(-0.1)), identity()
    )
    amb2 = IsometrySpec(
        3.0, 1.0, (normalized_factor(0.8), normalized_factor(-0.8)), identity()
    )
    code, out, err = run_cli("equiv", "--s1", spec_json(amb1), "--s2", spec_json(amb2))
    assert code == 3 and err == ""
    payload = json.loads(out)
    assert payload["equivalent"] is None and payload["witness"] is None
    assert "undecided" in payload["undetermined"]


def test_commutant():
    code, out, _ = run_cli("commutant", "--phi", PSI_HALF, "--t", "0.5")
    assert code == 0
    gamma = ser.automorphism_from_json(json.loads(out))
    assert abs(gamma.a.imag) < 1e-12  # stays on the real axis family
    code, _, err = run_cli(
        "commutant", "--phi", '{"lambda":{"re":1,"im":0},"a":{"re":0,"im":0}}', "--t", "1.0"
    )
    assert code == 4
    assert_error_line(err, "IdentityError")


def test_commutant_far_out_is_a_domain_error():
    # an overflowing chart product is a DomainError, not an OverflowError
    code, out, err = run_cli("commutant", "--phi", PSI_HALF, "--t=-360")
    assert code == 4 and out == ""
    assert_error_line(err, "DomainError")
    assert "not representable" in json.loads(err)["message"]


def test_verify_finite_and_truncated(tmp_path):
    spec = IsometrySpec(1.5, 1.0, (normalized_factor(0.2),), standard_hyperbolic(0.4))
    code, out, _ = run_cli("verify", "--spec", spec_json(spec), "--grid", "256")
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 256 and report["rel_defect"] <= 1e-6

    phi = standard_hyperbolic(0.4)
    inf_spec = IsometrySpec(3.0, 1.0, (), phi, infinite=construct_zero_intersection(phi))
    code, out, _ = run_cli("verify", "--spec", spec_json(inf_spec), "--grid", "256")
    assert code == 0
    assert json.loads(out)["rel_defect"] <= 1e-6


def test_verify_thinned_truncation_limits():
    phi_obj = json.loads(PHI_I)
    code, out, _ = run_cli("construct", "--phi", PHI_I, "--kind", "nonzero", "--count", "3")
    assert code == 0
    con_obj = json.loads(out)
    spec_obj = {
        "p": 3.0,
        "phase": {"re": 1.0, "im": 0.0},
        "psi_zeros": [],
        "phi": phi_obj,
        "infinite": con_obj,
    }
    text = json.dumps(spec_obj)
    code, out, _ = run_cli("verify", "--spec", text, "--grid", "256", "--truncate", "3")
    assert code == 0 and json.loads(out)["rel_defect"] <= 1e-6
    # a deep truncation keeps the 22 zeros inside the cap (the indices grow
    # geometrically, and zero 23 lies past it)
    code, out, _ = run_cli("verify", "--spec", text, "--grid", "256", "--truncate", "64")
    assert code == 0 and json.loads(out)["rel_defect"] <= 1e-6


def test_constructions_that_build_answer_crownover_and_verify():
    con27 = (
        '{"budget":0.8081265345617236,"indices":[3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,'
        '19,20,21,22,23,24,25,26,27,28,29],"kind":"ThinnedForwardProduct",'
        '"phi":{"a":{"im":0.0,"re":0.5},"lambda":{"im":0.0,"re":1.0}}}'
    )
    code, out, _ = run_cli("construct", "--phi", PSI_HALF, "--kind", "nonzero", "--count", "27")
    assert code == 0 and out == con27 + "\n"
    code, out, err = run_cli("construct", "--phi", PSI_HALF, "--kind", "nonzero", "--count", "28")
    assert code == 4 and out == ""
    assert_error_line(err, "NotCertified")
    assert "thinned zero 28 " in json.loads(err)["message"]
    for phi, con in ((PSI_HALF, con27), (PHI_I, None)):
        if con is None:  # its zeros stay inside the cap up to zero 22
            code, con, _ = run_cli("construct", "--phi", phi, "--kind", "nonzero")
            assert code == 0
        spec = json.dumps({"p": 3.0, "phase": {"re": 1.0, "im": 0.0}, "psi_zeros": [],
                           "phi": json.loads(phi), "infinite": json.loads(con)})
        code, out, _ = run_cli("crownover", "--spec", spec)
        assert code == 0 and json.loads(out)["reason"] == "ConstructedConvergent"
        code, out, _ = run_cli("verify", "--spec", spec)
        assert code == 0 and json.loads(out)["N"] == 512


def test_stored_thinned_prefix_must_be_the_rules():
    # indices [2, 3] under budget 0.5 are not what the greedy rule gives, and
    # crownover used to certify "1.37405 < budget 0.5" on them
    con = construct_nonzero_intersection(parabolic_fixing_one(1j), 2)
    obj = json.loads(spec_json(IsometrySpec(3.0, 1.0, (), con.phi, infinite=con)))
    obj["infinite"].update(indices=[2, 3], budget=0.5)
    code, out, err = run_cli("crownover", "--spec", json.dumps(obj))
    assert code == 4 and out == ""
    assert_error_line(err, "DomainError")
    assert "stored thinned index 1 is 2" in json.loads(err)["message"]


def test_crownover_rejects_a_non_finite_budget():
    # Python's json reads Infinity and NaN, and the schema's minimum lets them
    # through; an infinite budget used to certify "inf < budget inf"
    con = construct_nonzero_intersection(parabolic_fixing_one(1j), 2)
    text = spec_json(IsometrySpec(3.0, 1.0, (), con.phi, infinite=con))
    budget = f'"budget":{con.budget!r}'
    assert text.count(budget) == 1
    for bad in ("Infinity", "NaN"):
        code, out, err = run_cli("crownover", "--spec", text.replace(budget, f'"budget":{bad}'))
        assert code == 4 and out == ""
        assert_error_line(err, "DomainError")


def test_construct_kinds():
    code, out, _ = run_cli("construct", "--phi", PHI_I, "--kind", "zero")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "BackwardOrbitProduct" and obj["indices"] == []

    code, out, _ = run_cli("construct", "--phi", PSI_HALF, "--kind", "nonzero", "--count", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "ThinnedForwardProduct" and len(obj["indices"]) == 2

    elliptic = '{"lambda":{"re":0,"im":1},"a":{"re":0,"im":0}}'
    code, _, err = run_cli("construct", "--phi", elliptic, "--kind", "zero")
    assert code == 4
    assert_error_line(err, "WrongClass")


def test_rho():
    code, out, _ = run_cli("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p", "3")
    assert code == 0
    payload = json.loads(out)
    closed = complex(payload["rho_closed"]["re"], payload["rho_closed"]["im"])
    numeric = complex(payload["rho_numeric"]["re"], payload["rho_numeric"]["im"])
    assert abs(closed - numeric) <= 1e-8
    assert payload["spread"] <= 1e-9


# ---------------------------------------------------------------------------
# exit codes and error shape


def test_exit_2_parse_and_schema():
    code, out, err = run_cli("classify", "--phi", "{not json")
    assert code == 2 and out == ""
    assert_error_line(err, "JSONDecodeError")
    code, _, err = run_cli("classify", "--phi", '{"lambda":{"re":0,"im":1}}')
    assert code == 2
    assert_error_line(err, "ValidationError")


def test_exit_3_ambiguous_classification():
    almost_id = '{"lambda":{"re":0.9999999999995,"im":1e-6},"a":{"re":0,"im":0}}'
    code, out, err = run_cli("classify", "--phi", almost_id)
    assert code == 3 and out == ""
    assert_error_line(err, "AmbiguousClassification")
    # inside the trace band but certified: crownover answers from the orbit
    # certificate (it used to exit 1 with a traceback), whose class is the
    # one classify prints
    band = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), NEAR_BAND_PINNED[0])
    code, out, err = run_cli("classify", "--phi", ser.dumps(ser.automorphism_to_json(band.phi)))
    assert code == 0 and json.loads(out)["kind"] == "Elliptic"
    code, out, err = run_cli("crownover", "--spec", spec_json(band))
    assert code == 0 and err == ""
    payload = json.loads(out)
    ser.validate("crownover_verdict", payload)
    assert (payload["verdict"], payload["reason"]) == ("Crownover", "EllipticOrIdentitySymbol")


def test_exit_4_domain_error():
    outside = '{"lambda":{"re":1,"im":0},"a":{"re":2,"im":0}}'
    code, out, err = run_cli("classify", "--phi", outside)
    assert code == 4 and out == ""
    assert_error_line(err, "DomainError")
    code, _, err = run_cli("classify", "--phi", "@/no/such/file.json")
    assert code == 4
    assert_error_line(err, "FileNotFoundError")


def test_exit_4_messages_on_a_parabolic():
    # both used to surface as "degenerate Moebius matrix"
    phi = ser.dumps(ser.automorphism_to_json(parabolic_fixing_one(cmath.exp(0.7j))))
    for t in ("nan", "inf", "-inf"):
        code, out, err = run_cli("commutant", "--phi", phi, f"--t={t}")
        assert code == 4 and out == ""
        assert_error_line(err, "DomainError")
        assert "t must be finite" in json.loads(err)["message"]
    for n in ("1000000000", "-1000000000"):
        code, out, err = run_cli("iterate", "--phi", phi, "--n", n)
        assert code == 4 and out == ""
        assert_error_line(err, "DomainError")
        message = json.loads(err)["message"]
        assert "within 1e-14 of the unit circle" in message and "degenerate" not in message


def test_argparse_rejects_unknown():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism and --out


def test_determinism_bytes(tmp_path):
    one = run_cli("classify", "--phi", PHI_I)
    two = run_cli("classify", "--phi", PHI_I)
    assert one == two

    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), phi_parabolic_plus())
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = run_cli("crownover", "--spec", spec_json(spec), "--out", str(a_csv))
    rb = run_cli("crownover", "--spec", spec_json(spec), "--out", str(b_csv))
    assert ra[0] == rb[0] == 0
    assert ra[1].replace(str(a_csv), "X") == rb[1].replace(str(b_csv), "X")
    assert a_csv.read_bytes() == b_csv.read_bytes()

    v1 = run_cli("verify", "--spec", spec_json(spec), "--grid", "256", "--seed", "7")
    v2 = run_cli("verify", "--spec", spec_json(spec), "--grid", "256", "--seed", "7")
    assert v1 == v2


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "result.json"
    code, out, _ = run_cli("classify", "--phi", PHI_I, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == CLASSIFY_PHI_I + "\n"


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_matches_in_process():
    exe = shutil.which("hpiso")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "classify", "--phi", PHI_I], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == CLASSIFY_PHI_I + "\n"


# ---------------------------------------------------------------------------
# argparse: negative numbers in exponent form, usage errors as JSON lines


def run_usage_error(*args):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
    return exc.value.code, err.getvalue()


def test_negative_values_in_exponent_form():
    for t in ("-1e-3", "-1E-3", "-1.5e+0", "-.5e1"):
        spaced = run_cli("commutant", "--phi", PSI_HALF, "--t", t)
        joined = run_cli("commutant", "--phi", PSI_HALF, f"--t={t}")
        assert spaced == joined and spaced[0] == 0
    code, out, err = run_cli("commutant", "--phi", PSI_HALF, "--t", "-inf")
    assert code == 4 and "t must be finite" in json.loads(err)["message"]
    # a negative --p reaches the library, which rejects it (exit 4, not a usage error)
    code, _, err = run_cli("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p", "-3e0")
    assert code == 4
    assert_error_line(err, "DomainError")


def test_usage_errors_are_single_json_lines():
    for argv in (
        ["frobnicate"],
        ["commutant", "--phi", PSI_HALF, "--t"],
        ["commutant", "--phi", PSI_HALF, "--t", "abc"],
        ["classify"],
        ["classify", "--phi", PHI_I, "--bogus", "1"],
    ):
        code, err = run_usage_error(*argv)
        assert code == 2
        assert_error_line(err, "ArgumentError")


def test_help_is_unchanged():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(["commutant", "--help"])
    assert exc.value.code == 0 and err.getvalue() == ""
    assert out.getvalue().startswith("usage: hpiso commutant [-h] --phi PHI --t T")


# ---------------------------------------------------------------------------
# caps on orbit --n and crownover --evidence (checked before any work)


def test_orbit_and_evidence_caps():
    spec = spec_json(IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), phi_parabolic_plus()))
    cases = [
        (("orbit", "--phi", PHI_I, "--n"), cli.MAX_ORBIT_ROWS),
        (("crownover", "--spec", spec, "--evidence"), cli.MAX_EVIDENCE_TERMS),
    ]
    for argv, cap in cases:
        for value in (cap + 1, 0, -1):
            code, out, err = run_cli(*argv, str(value))
            assert code == 4 and out == ""
            assert_error_line(err, "DomainError")
            assert str(cap) in json.loads(err)["message"]


def test_caps_admit_the_limit(monkeypatch):
    import hpiso.blaschke
    import hpiso.isometries

    seen = {}

    def fake_orbit_csv(target, seq, n):
        seen["orbit"] = n
        return 0.0

    real_crownover = hpiso.isometries.decide_crownover

    def fake_crownover(spec, n, evidence_csv=None):
        seen["crownover"] = n
        return real_crownover(spec, 4)

    monkeypatch.setattr(hpiso.blaschke, "write_orbit_csv", fake_orbit_csv)
    monkeypatch.setattr(hpiso.isometries, "decide_crownover", fake_crownover)
    spec = spec_json(IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), phi_parabolic_plus()))
    assert run_cli("orbit", "--phi", PHI_I, "--n", str(cli.MAX_ORBIT_ROWS))[0] == 0
    assert run_cli("crownover", "--spec", spec, "--evidence", str(cli.MAX_EVIDENCE_TERMS))[0] == 0
    assert seen == {"orbit": cli.MAX_ORBIT_ROWS, "crownover": cli.MAX_EVIDENCE_TERMS}


# ---------------------------------------------------------------------------
# caps on the grid sizes and the truncation level (checked before any work)

FINITE_SPEC = spec_json(IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), standard_hyperbolic(0.5)))
OVER_CAP = str(2 * cli.MAX_GRID)


def test_grid_and_truncation_caps():
    # refused before any grid is allocated, and whether or not the spec has
    # an infinite construction to truncate
    for argv in (
        ("verify", "--spec", FINITE_SPEC, "--grid", OVER_CAP),
        ("verify", "--spec", FINITE_SPEC, "--truncate", OVER_CAP),
        ("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p", "3", "--grid", OVER_CAP),
    ):
        code, out, err = run_cli(*argv)
        assert code == 4 and out == ""
        assert_error_line(err, "DomainError")
        assert str(cli.MAX_GRID) in json.loads(err)["message"]


def test_grid_caps_admit_the_limit(monkeypatch):
    import hpiso.hardy
    import hpiso.isometries

    seen = {}

    def fake_verify(spec, ctx, seed=0, degree=None):
        seen["verify"] = ctx.grid_size
        return {"norm_in": 1.0, "norm_out": 1.0, "rel_defect": 0.0, "N": ctx.grid_size}

    def fake_truncate(spec, n_terms):
        seen["truncate"] = n_terms
        return IsometrySpec(spec.p, spec.phase, (), spec.phi)

    def fake_rho(phi, psi, p, grid_size):
        seen["rho"] = grid_size
        return hpiso.hardy.CompositionConstant(1.0, 1.0, 0.0)

    monkeypatch.setattr(hpiso.hardy, "verify_isometry", fake_verify)
    monkeypatch.setattr(hpiso.isometries, "truncate_spec", fake_truncate)
    monkeypatch.setattr(hpiso.hardy, "composition_constant", fake_rho)
    phi = standard_hyperbolic(0.4)
    inf_spec = spec_json(IsometrySpec(3.0, 1.0, (), phi, infinite=construct_zero_intersection(phi)))
    cap = str(cli.MAX_GRID)
    assert run_cli("verify", "--spec", inf_spec, "--grid", cap, "--truncate", cap)[0] == 0
    assert run_cli("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p", "3", "--grid", cap)[0] == 0
    assert seen == {"verify": cli.MAX_GRID, "truncate": cli.MAX_GRID, "rho": cli.MAX_GRID}


# ---------------------------------------------------------------------------
# hostile numeric input: every subcommand fails with one JSON line

NAN_PHI = '{"lambda":{"re":NaN,"im":0},"a":{"re":0.5,"im":0}}'
INF_PHI = '{"lambda":{"re":1,"im":0},"a":{"re":Infinity,"im":0}}'
HYP_HALF = ser.dumps(ser.automorphism_to_json(standard_hyperbolic(0.5)))
IDENT_NEAR = spec_json(
    IsometrySpec(3.0, 1.0, (normalized_factor(0.1), normalized_factor(-0.1)), identity())
)
IDENT_FAR = spec_json(
    IsometrySpec(3.0, 1.0, (normalized_factor(0.8), normalized_factor(-0.8)), identity())
)
IDENT_BAD_TOLS = ("nan", "inf", "-1", "0", "1e-3", "1e300")
HOSTILE = [
    # (argv without the value, values); each value must fail with exit 2, 3 or 4
    (("classify", "--phi", PHI_I, "--tol"), ("nan", "inf", "-1", "0", "1")),
    (("classify", "--phi"), (NAN_PHI, INF_PHI)),
    (("compose", "--inner", PSI_HALF, "--outer"), (NAN_PHI, INF_PHI)),
    (("iterate", "--phi", PHI_I, "--n"), ("nan", "1e3", "1000000000")),
    (("iterate", "--phi", PHI_I, "--n", "3", "--at"),
     ('{"re":NaN,"im":0}', '{"re":Infinity,"im":0}', '{"re":-2,"im":0}')),
    (("orbit", "--phi", PHI_I, "--n"), ("nan", "-1", "0", OVER_CAP)),
    (("crownover", "--spec", FINITE_SPEC, "--evidence"), ("nan", "-1", "0", OVER_CAP)),
    (("equiv", "--s1", FINITE_SPEC, "--s2", FINITE_SPEC, "--tol"), ("nan", "inf", "-1", "0")),
    (("equiv", "--s1", IDENT_NEAR, "--s2", IDENT_NEAR, "--tol"), IDENT_BAD_TOLS),
    (("equiv", "--s1", IDENT_NEAR, "--s2", IDENT_FAR, "--tol"), IDENT_BAD_TOLS),
    (("commutant", "--phi", PSI_HALF, "--t"), ("nan", "inf", "-inf")),
    (("verify", "--spec", FINITE_SPEC, "--grid"), ("nan", "-1", "0", "100", OVER_CAP)),
    (("verify", "--spec", FINITE_SPEC, "--truncate"), ("nan", "-1", "0", OVER_CAP)),
    (("verify", "--spec", FINITE_SPEC, "--seed"), ("nan", "-1")),
    (("verify", "--spec", FINITE_SPEC, "--grid", "256", "--degree"), ("nan", "-1", "64")),
    (("construct", "--phi", HYP_HALF, "--kind", "nonzero", "--count"), ("nan", "-1", "0", "2000")),
    (("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p"), ("nan", "inf", "-inf", "-1", "0")),
    (("rho", "--phi", PHI_I, "--psi", PSI_HALF, "--p", "3", "--grid"), ("nan", "-1", "0", OVER_CAP)),
]


def run_any(*args):
    """``run_cli`` that also returns the exit code of a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_hostile_numeric_options():
    assert {argv[0] for argv, _ in HOSTILE} == {
        "classify", "compose", "iterate", "orbit", "crownover",
        "equiv", "commutant", "verify", "construct", "rho",
    }
    for argv, values in HOSTILE:
        for value in values:
            code, out, err = run_any(*argv, value)
            assert code in (2, 3, 4), (argv[0], argv[-1], value, code)
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1, (argv[0], argv[-1], value, err)
            obj = json.loads(lines[0])
            assert set(obj) == {"error", "message"} and isinstance(obj["message"], str)


def test_equiv_tol_range_holds_for_identity_symbols():
    # the identity branch used to skip the check: 1e300 certified a false
    # witness for the {0.1, -0.1} / {0.8, -0.8} pair, nan and 0 left two
    # identical specs undetermined
    for s2 in (IDENT_NEAR, IDENT_FAR):
        for tol in IDENT_BAD_TOLS:
            code, out, err = run_any("equiv", "--s1", IDENT_NEAR, "--s2", s2, "--tol", tol)
            assert code == 4 and out == "", (tol, code, out)
            assert_error_line(err, "DomainError")
            assert json.loads(err)["message"] == "classification tolerance must lie in [1e-14, 1e-4]"


def test_verify_degree_is_checked_before_the_test_polynomial(monkeypatch):
    import hpiso.hardy

    def refuse(rng, degree, min_root_modulus=1.3):
        raise AssertionError("random_polynomial ran before the degree check")

    monkeypatch.setattr(hpiso.hardy, "random_polynomial", refuse)
    code, out, err = run_cli("verify", "--spec", FINITE_SPEC, "--degree", "2000")
    assert code == 4 and out == ""
    assert_error_line(err, "DegreeError")
    assert json.loads(err)["message"] == "degree 2000 too high for grid 512; need degree < N/4"
    monkeypatch.undo()
    assert run_cli("verify", "--spec", FINITE_SPEC, "--degree", "127")[0] == 0  # 512/4 - 1
