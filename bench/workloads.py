"""The four workloads: seeded inputs, the timed operations and their checks.

Each builder takes a ``random.Random`` and returns the list of ``Op`` the
benchmark repeats in rounds.  The seed changes every drawn value (symbols,
zeros, conjugators, points) but never the list's shape, so runs with
different seeds do the same amount of work.  Library calls go through the
``hp``/``ser`` module attributes at call time, so a traced run sees them.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import jsonschema
import numpy as np

import hpiso as hp
import hpiso.serialize as ser

import checks as ck

KINDS = ("Hyperbolic", "Parabolic", "Elliptic")
N_ORBIT = 65_536  # orbit_depth: evidence terms, product terms, CSV rows
THINNED_COUNT = 16
ITERATE_N = 10**6
CLOSE = 5e-9  # two zeros this close sit inside decide_equivalent's match cap (10 * 1e-9)
MAX_D = 8  # decide_batch: inner zeros up to this count
GRIDS = (8192, 16384, 32768, 65536)  # boundary_grid: verify_isometry on finite specs
TRUNCATIONS = (128, 256, 512, 1024)  # ... on constructions truncated to this many factors,
TRUNC_GRID = 8192  # at this grid
INV_GRIDS = (2048, 4096, 8192)  # invariant_subspace_check
RHO_GRID = 4096  # composition_constant


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Optional[Callable[[Any], None]] = None
    expect: Optional[type] = None  # exception the call must raise instead of returning
    found: Optional[Callable[[Any], bool]] = None  # set for pairs equivalent by construction
    note: str = ""  # what distinguishes this instance, for reports


def noted(ops, note):
    for op in ops:
        op.note = note
    return ops


def judge(op: Op, out, err) -> Optional[str]:
    """None when the operation met its expected outcome, else the reason."""
    if op.expect is not None:
        if isinstance(err, op.expect):
            return None
        return f"{op.kind}: expected {op.expect.__name__}, got {err!r}" if err else \
            f"{op.kind}: expected {op.expect.__name__}, got a result"
    if err is not None:
        return f"{op.kind}: raised {type(err).__name__}: {err}"
    try:
        if op.check is not None:
            op.check(out)
    except ck.CheckFailed as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# seeded inputs


def point(rng, rmax):
    return rmax * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def unit(rng):
    return cmath.exp(2j * math.pi * rng.random())


def conjugate_by(eta, kappa):
    """``eta o kappa o eta^{-1}``."""
    return hp.compose(eta, hp.compose(kappa, hp.inverse(eta)))


def automorphism(rng, rmax=0.5):
    return hp.compose(hp.rotation(unit(rng)), hp.disc_translation(point(rng, rmax)))


@dataclass
class Symbol:
    kind: str
    phi: Any
    centre: complex  # phi = T o kappa o T^{-1} with T the translation taking 0 here
    kappa: Any


def symbol(rng, kind, kappa=None):
    if kappa is None:
        if kind == "Hyperbolic":
            kappa = hp.standard_hyperbolic(rng.uniform(0.2, 0.6))
        elif kind == "Parabolic":
            kappa = hp.parabolic_fixing_one(rng.choice((1j, -1j)))
        else:
            kappa = hp.rotation(cmath.exp(1j * rng.choice((-1, 1)) * rng.uniform(0.3, 2.5)))
    centre = point(rng, 0.5)
    return Symbol(kind, conjugate_by(hp.disc_translation(centre), kappa), centre, kappa)


def other_multiplier(rng, sym):
    """A symbol of the same kind with a different conjugacy invariant."""
    if sym.kind == "Hyperbolic":
        r = sym.kappa.a.real
        kappa = hp.standard_hyperbolic(r + 0.1 if r < 0.5 else r - 0.1)
    elif sym.kind == "Parabolic":
        kappa = hp.parabolic_fixing_one(1j if hp.classify(sym.phi).orientation.value == "minus" else -1j)
    else:
        kappa = hp.rotation(sym.kappa.lam * cmath.exp(0.4j))
    return symbol(rng, sym.kind, kappa)


def zeros_for(rng, d, close=False):
    zs = [point(rng, 0.8) for _ in range(d)]
    if close and d >= 2:
        zs[1] = zs[0] + CLOSE * unit(rng)
    return zs


def spec_of(zeros, phi, p=3.0, phase=1.0):
    return hp.IsometrySpec(p, phase, tuple(hp.normalized_factor(a) for a in zeros), phi)


def moved_zeros(rng, zeros):
    """Same count, one zero moved so the pseudo-hyperbolic distance multiset changes."""
    before = ck.pseudo_distances(zeros)
    while True:
        out = list(zeros[:-1]) + [point(rng, 0.8)]
        after = ck.pseudo_distances(out)
        if max(abs(x - y) for x, y in zip(before, after)) > 1e-3:
            return out


# ---------------------------------------------------------------------------
# orbit_depth: long scalar orbit walks


def orbit_symbols():
    """Fixed symbols for orbit_depth; the seed draws the zeros and points.

    Once a hyperbolic orbit reaches the circle, the remaining CSV rows repeat
    one float, and its repr length sets the cost of some 65,000 rows.  Drawn
    symbols moved that cost by a third from seed to seed.
    """
    kappas = (hp.standard_hyperbolic(0.4), hp.parabolic_fixing_one(1j), hp.rotation(cmath.exp(0.7j)))
    centres = (0.3 + 0.2j, 0.1 - 0.3j, 0.2j)
    return [Symbol(kind, conjugate_by(hp.disc_translation(c), kappa), c, kappa)
            for kind, kappa, c in zip(KINDS, kappas, centres)]


def orbit_depth(rng):
    ops = []
    for sym in orbit_symbols():
        d = rng.randint(1, 3)
        ops += noted(_orbit_ops(rng, sym, d), f"{sym.kind.lower()}, {d} zeros")
    return ops


def _orbit_ops(rng, sym, d):
    spec = spec_of(zeros_for(rng, d), sym.phi)
    seq = hp.ZeroSequence.orbit(spec.psi_zeros[0], sym.phi)
    cert = hp.convergence_certificate(seq)
    z = point(rng, 0.5)
    elliptic = sym.kind == "Elliptic"
    first = seq.terms_up_to(8)

    def write_csv():
        buf = io.StringIO()
        partial = hp.write_orbit_csv(buf, seq, N_ORBIT)
        return buf.getvalue(), partial

    def check_csv(out):
        text, partial = out
        last = ck.check_orbit_csv(text, N_ORBIT, seq.psi.a, cert)
        ck.require(last == partial, f"orbit csv: last partial sum {last!r} != returned {partial!r}")

    def check_blaschke(v):
        want = "NotBlaschke" if elliptic else "Blaschke"
        ck.require(v.verdict == want, f"classify_blaschke: {v.verdict}, expected {want}")
        ck.check_partial_sum(v.partial_sum, v.n_terms, cert, "classify_blaschke")

    ops = [
        Op("decide_crownover", lambda: hp.decide_crownover(spec, N_ORBIT),
           lambda v: ck.check_crownover(v, "Crownover" if elliptic else "NotCrownover", N_ORBIT)),
        Op("write_orbit_csv", write_csv, check_csv),
        Op("classify_blaschke", lambda: hp.classify_blaschke(seq), check_blaschke),
    ]
    if elliptic:
        ops += [
            Op("eval_blaschke", lambda: hp.eval_blaschke(seq, z, N_ORBIT), expect=hp.NotCertified),
            Op("construct_nonzero_intersection",
               lambda: hp.construct_nonzero_intersection(sym.phi, THINNED_COUNT), expect=hp.WrongClass),
        ]
    else:
        ops += [
            Op("eval_blaschke", lambda: hp.eval_blaschke(seq, z, N_ORBIT),
               lambda out: ck.check_product_value(out[0], out[1], first, z)),
            Op("construct_nonzero_intersection",
               lambda: hp.construct_nonzero_intersection(sym.phi, THINNED_COUNT),
               lambda con: ck.check_thinned(con, THINNED_COUNT)),
        ]
    return ops


# ---------------------------------------------------------------------------
# decide_batch: many small decisions


def decide_batch(rng):
    syms = [symbol(rng, kind) for kind in KINDS]
    ops = []
    for sym in syms:
        ops += noted(_group_ops(rng, sym), sym.kind.lower())
    ops += _iterate_ops(syms[0], syms[2])
    for d in range(1, MAX_D + 1):
        ops.append(_json_op(spec_of(zeros_for(rng, d, close=d % 4 == 0), syms[d % 3].phi,
                                    p=rng.choice((1.0, 1.5, 3.0, 4.0)), phase=unit(rng))))
    for d in range(1, MAX_D + 1):
        ops += _equiv_ops(rng, syms[d % 3], d)
    identity = hp.identity()
    for d in range(1, MAX_D + 1):
        ops += _identity_ops(rng, identity, d)
    return ops


def _group_ops(rng, sym):
    phi = sym.phi
    eta = automorphism(rng)
    psi = conjugate_by(eta, phi)
    other = symbol(rng, rng.choice(KINDS)).phi
    t = rng.uniform(0.2, 1.5)

    def check_class(cls):
        ck.check_kind(cls.kind.value, sym.kind, "classify")
        ck.check_fixed_points(phi, cls.fixed_points)

    return [
        Op("classify", lambda: hp.classify(phi), check_class),
        Op("compose", lambda: hp.compose(phi, other), lambda r: ck.check_composition(r, phi, other)),
        Op("find_conjugator", lambda: hp.find_conjugator(phi, psi),
           lambda e: ck.check_conjugator(phi, psi, e)),
        Op("commutant_element", lambda: hp.commutant_element(phi, t),
           lambda s: ck.check_commutes(phi, s)),
    ]


def _iterate_ops(hyp, ell):
    """``iterate(phi, 10^6)`` on a hyperbolic and an elliptic symbol.

    The hyperbolic iterate lies within 1e-17 of the circle, below the 1e-14
    at which ``iterate`` is documented to raise ``DomainError``.  The
    elliptic one is checked against its closed form.  Parabolic symbols are
    in ``parabolic_iterates``.
    """
    theta = cmath.phase(ell.kappa.lam) * ITERATE_N
    c = ell.centre

    def reference(z):
        u = (z - c) / (1.0 - c.conjugate() * z)
        u *= cmath.exp(1j * math.remainder(theta, 2 * math.pi))
        return (u + c) / (1.0 + c.conjugate() * u)

    def check(result):
        gap = ck.max_gap(ck.Map.of(result), reference)
        ck.require(gap <= 1e-7, f"iterate: differs from the closed form by {gap:.3e}")

    return [
        Op("iterate", lambda: hp.iterate(hyp.phi, ITERATE_N), expect=hp.DomainError, note="hyperbolic, n=10^6"),
        Op("iterate", lambda: hp.iterate(ell.phi, ITERATE_N), check, note="elliptic, n=10^6"),
    ]


#: parabolic symbols in each ``parabolic_iterates`` probe
N_PARABOLIC = 8


def parabolic_iterates(rng):
    """``iterate(phi, 10^6)`` on parabolic symbols, against the closed form ``I + n N``.

    Returns one line per symbol.  The exact iterates lie 6e-14 to 3e-12 from
    the circle, inside the range the docstring says is representable, yet
    ``iterate`` raises ``DomainError`` on some of them.  This known defect
    is reported here, outside the timed loop and the failure count, because
    every operation of a workload must meet its expected outcome.
    """
    lines = []
    for _ in range(N_PARABOLIC):
        phi = symbol(rng, "Parabolic").phi
        closed = ck.parabolic_power(phi, ITERATE_N)
        try:
            hp.iterate(phi, ITERATE_N)
            outcome = "returned"
        except hp.DomainError as exc:
            outcome = f"raised DomainError ({exc})"
        lines.append(f"closed form {ck.circle_distance(closed):.1e} from the circle: {outcome}")
    return lines


def _json_op(spec):
    """``spec_to_json(spec_from_json(obj))`` must give ``obj`` back byte for byte.

    Constructors may renormalize a last ulp of the phases once, so ``obj`` is
    the re-emission of one parse: the fixed point the library promises.
    """
    text = json.dumps(ser.spec_to_json(ser.spec_from_json(ser.spec_to_json(spec))),
                      sort_keys=True, separators=(",", ":"))
    obj = json.loads(text)
    return Op("spec_json_round_trip", lambda: ser.spec_to_json(ser.spec_from_json(obj)),
              lambda out: ck.check_spec_round_trip(
                  text, json.dumps(out, sort_keys=True, separators=(",", ":"))),
              note=f"d={len(spec.psi_zeros)}")


def _equiv_ops(rng, sym, d):
    zeros = zeros_for(rng, d, close=d % 4 == 0)
    s1 = spec_of(zeros, sym.phi, phase=unit(rng))
    s2 = hp.conjugated_spec(s1, automorphism(rng), unit(rng))
    if d == 1:  # one zero: the pair differs in the symbol's multiplier
        s3 = hp.conjugated_spec(spec_of(zeros, other_multiplier(rng, sym).phi), automorphism(rng), unit(rng))
    else:  # the pair differs in the pseudo-hyperbolic distances of the zeros
        s3 = hp.conjugated_spec(spec_of(moved_zeros(rng, zeros), sym.phi), automorphism(rng), unit(rng))
    note = f"{sym.kind.lower()}, d={d}"
    return [
        Op("decide_equivalent", lambda: hp.decide_equivalent(s1, s2),
           lambda w: ck.check_witness(s1, s2, w), found=lambda w: w is not None, note=note + ", equivalent"),
        Op("decide_equivalent", lambda: hp.decide_equivalent(s1, s3),
           lambda w: ck.require(w is None, "decide_equivalent: witness for an inequivalent pair"),
           note=note + ", inequivalent"),
    ]


#: identity-symbol inequivalent pairs are left out at d = 7: the anchored
#: search then runs 7 * 37 candidates of 7! permutations each (about 4 s)
IDENTITY_INEQUIVALENT_D = (2, 3, 4, 5, 6, 8)


def _identity_ops(rng, identity, d):
    zeros = zeros_for(rng, d, close=d % 4 == 0)
    s1 = spec_of(zeros, identity, phase=unit(rng))
    s2 = hp.conjugated_spec(s1, automorphism(rng), unit(rng))
    assert s2.phi.is_identity(), "conjugated identity symbol lost its identity"
    ops = [Op("decide_equivalent", lambda: hp.decide_equivalent(s1, s2),
              lambda w: ck.check_witness(s1, s2, w), found=lambda w: w is not None,
              note=f"identity, d={d}, equivalent")]
    if d in IDENTITY_INEQUIVALENT_D:
        s3 = hp.conjugated_spec(spec_of(moved_zeros(rng, zeros), identity), automorphism(rng), unit(rng))
        ops.append(Op("decide_equivalent", lambda: hp.decide_equivalent(s1, s3),
                      expect=hp.IdentityAmbiguity, note=f"identity, d={d}, inequivalent"))
    return ops


# ---------------------------------------------------------------------------
# boundary_grid: vectorised grid work


def boundary_grid(rng):
    ops = []
    for i, n in enumerate(GRIDS):
        sym = symbol(rng, KINDS[i % 3])
        spec = spec_of(zeros_for(rng, 1 + i % 3), sym.phi, p=rng.choice((1.0, 1.5, 3.0, 4.0)), phase=unit(rng))
        ops.append(_verify_op(rng, spec, n))
    for m in TRUNCATIONS:
        sym = symbol(rng, "Parabolic")
        con = hp.construct_zero_intersection(sym.phi)
        spec = hp.IsometrySpec(rng.choice((1.0, 3.0, 4.0)), unit(rng), (), sym.phi, con)
        ops.append(_verify_op(rng, spec, TRUNC_GRID, truncate=m))
    for i, n in enumerate(INV_GRIDS):
        ops.append(_invariant_op(rng, ("Hyperbolic", "Parabolic")[i % 2], n))
    for kind in ("Hyperbolic", "Elliptic"):
        ops.append(_rho_op(rng, kind, RHO_GRID))
    return ops


def _invariant_op(rng, kind, n):
    spec = spec_of([point(rng, 0.6)], symbol(rng, kind).phi)
    g = hp.BoundaryFunction(hp.random_polynomial(np.random.default_rng(rng.randrange(2**32)), 8), n)
    ctx = hp.HpContext(spec.p, n)
    return Op("invariant_subspace_check", lambda: hp.invariant_subspace_check(spec, g, ctx, n_trunc=512),
              lambda rep: ck.check_invariance(rep, 512), note=f"N={n}, {kind.lower()}")


def _rho_op(rng, kind, n):
    phi, psi = symbol(rng, kind).phi, symbol(rng, rng.choice(KINDS)).phi
    p = rng.choice((1.0, 1.5, 3.0, 4.0))
    return Op("composition_constant", lambda: hp.composition_constant(phi, psi, p, n),
              lambda cc: ck.check_rho(cc.rho_closed, cc.rho_numeric, cc.spread),
              note=f"N={n}, {kind.lower()} phi")


def _verify_op(rng, spec, n, truncate=None):
    ctx = hp.HpContext(spec.p, n)
    seed = rng.randrange(2**31)
    if truncate is None:
        return Op("verify_isometry", lambda: hp.verify_isometry(spec, ctx, seed=seed),
                  lambda rep: ck.check_report(rep, n), note=f"N={n}, {len(spec.psi_zeros)} zeros")
    return Op("verify_truncated",
              lambda: hp.verify_isometry(hp.truncate_spec(spec, truncate), ctx, seed=seed),
              lambda rep: ck.check_report(rep, n), note=f"{truncate} factors, N={n}")


# ---------------------------------------------------------------------------
# cli_session: one fresh `python -m hpiso.cli` per request


@dataclass
class Expect:
    sub: str
    code: int
    schema: Optional[str] = None  # schema of stdout JSON
    error: Optional[str] = None  # error name on stderr
    semantic: Optional[Callable[[Any], None]] = None


class Cli:
    """Runs requests as child processes; ``traced`` switches to the traced child."""

    def __init__(self, root: Path, env: dict, out_dir: Path):
        self.root, self.env, self.out_dir = root, env, out_dir
        self.traced = False
        self.child = []  # per traced request: its timings and span statistics
        self.peak_rss_kb = 0  # largest peak resident memory of an untraced request
        schemas = root / "src" / "hpiso" / "schemas"
        self.validators = {
            p.stem: jsonschema.Draft7Validator(json.loads(p.read_text())) for p in schemas.glob("*.json")
        }

    def run(self, sub, argv):
        stats_path = self.out_dir / "cli_child.json"
        if self.traced:
            cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(stats_path),
                   repr(time.monotonic()), sub, *argv]
        else:
            cmd = [sys.executable, "-m", "hpiso.cli", sub, *argv]
        with tempfile.TemporaryFile(dir=self.out_dir) as out, tempfile.TemporaryFile(dir=self.out_dir) as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and reads its own rusage
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = proc.returncode, out.read(), err.read()
        if self.traced:
            self.child.append(json.loads(stats_path.read_text()))
        else:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return result


def _auto_json(phi):
    return json.dumps(ser.automorphism_to_json(phi))


def _spec_json(spec):
    return json.dumps(ser.spec_to_json(spec))


def cli_session(rng, cli: Cli):
    hyp, par, ell = (symbol(rng, kind) for kind in KINDS)
    psi_fac = hp.normalized_factor(point(rng, 0.7))
    other = symbol(rng, rng.choice(KINDS)).phi
    at = point(rng, 0.9)
    t = rng.uniform(0.2, 1.5)
    s1 = spec_of(zeros_for(rng, 3), hyp.phi, phase=unit(rng))
    s2 = hp.conjugated_spec(s1, automorphism(rng), unit(rng))
    crown = spec_of(zeros_for(rng, 2), par.phi)
    verify_spec = spec_of(zeros_for(rng, 2), ell.phi, p=rng.choice((1.0, 1.5, 3.0, 4.0)))
    ident = hp.identity()
    i1 = spec_of(zeros_for(rng, 2), ident)
    i2 = hp.conjugated_spec(spec_of(moved_zeros(rng, [f.a for f in i1.psi_zeros]), ident),
                            automorphism(rng), unit(rng))
    tiny = hp.rotation(cmath.exp(1e-5j))  # trace inside the parabolic band

    def iterate_value(payload):
        value = complex(payload["value"]["re"], payload["value"]["im"])
        want = ck.Map.of(ell.phi)
        z = at
        for _ in range(1000):
            z = want(z)
        ck.require(abs(value - z) <= 1e-8, f"cli iterate: value off by {abs(value - z):.3e}")

    def orbit_csv(text):
        cert = hp.convergence_certificate(hp.ZeroSequence.orbit(psi_fac, hyp.phi))
        ck.check_orbit_csv(text, 256, psi_fac.a, cert)

    def crownover(payload):
        ck.require(payload["verdict"] == "NotCrownover", f"cli crownover: {payload['verdict']}")
        ev = payload["evidence"]
        bound = sum(_tail0(part) for part in ev["certificate"]["parts"])
        ck.require(ev["partial_sum"] <= bound, f"cli crownover: partial sum above tail(0) {bound!r}")

    def equiv(payload):
        ck.require(payload["equivalent"] is True, "cli equiv: pair built by conjugation not equivalent")
        w = payload["witness"]
        witness = _Witness(ck.Map.of(w["eta"]), complex(w["rho"]["re"], w["rho"]["im"]))
        ck.check_witness(s1, s2, witness)

    def construct(payload):
        idx = payload["indices"]
        ck.require(payload["kind"] == "ThinnedForwardProduct" and len(idx) == 4 and idx[0] >= 2
                   and all(b > a for a, b in zip(idx, idx[1:])), "cli construct: bad indices")

    def rho(payload):
        c = lambda v: complex(v["re"], v["im"])
        ck.check_rho(c(payload["rho_closed"]), c(payload["rho_numeric"]), payload["spread"])

    def undetermined(payload):
        ck.require(payload["equivalent"] is None and payload["undetermined"], "cli equiv: not undetermined")

    malformed = _auto_json(hyp.phi)[:-7]
    no_im = json.dumps({"lambda": {"re": 1.0}, "a": {"re": 0.1, "im": 0.0}})
    reqs = [
        (["--phi", _auto_json(hyp.phi)],
         Expect("classify", 0, "classification", semantic=lambda p: ck.check_kind(p["kind"], "Hyperbolic", "cli classify"))),
        (["--outer", _auto_json(par.phi), "--inner", _auto_json(other)],
         Expect("compose", 0, "automorphism", semantic=lambda p: ck.check_composition(p, par.phi, other))),
        (["--phi", _auto_json(ell.phi), "--n", "1000", "--at", json.dumps(ser.complex_to_json(at))],
         Expect("iterate", 0, "iterate_result", semantic=iterate_value)),
        (["--phi", _auto_json(hyp.phi), "--psi", _auto_json(psi_fac)],
         Expect("orbit", 0, semantic=orbit_csv)),
        (["--spec", _spec_json(crown)], Expect("crownover", 0, "crownover_verdict", semantic=crownover)),
        (["--s1", _spec_json(s1), "--s2", _spec_json(s2)], Expect("equiv", 0, "equiv_result", semantic=equiv)),
        (["--phi", _auto_json(par.phi), "--t", repr(t)],
         Expect("commutant", 0, "automorphism", semantic=lambda p: ck.check_commutes(par.phi, p))),
        (["--spec", _spec_json(verify_spec)],
         Expect("verify", 0, "verify_report", semantic=lambda p: ck.check_report(p, 512))),
        (["--phi", _auto_json(hyp.phi), "--kind", "nonzero"],
         Expect("construct", 0, "construction", semantic=construct)),
        (["--phi", _auto_json(hyp.phi), "--psi", _auto_json(ell.phi), "--p", "3"],
         Expect("rho", 0, "rho_result", semantic=rho)),
        (["--phi", malformed], Expect("classify", 2, error="JSONDecodeError")),
        (["--outer", no_im, "--inner", _auto_json(hyp.phi)], Expect("compose", 2, error="ValidationError")),
        (["--phi", _auto_json(ell.phi), "--kind", "nonzero"], Expect("construct", 4, error="WrongClass")),
        (["--phi", _auto_json(tiny)], Expect("classify", 3, error="AmbiguousClassification")),
        (["--s1", _spec_json(i1), "--s2", _spec_json(i2)],
         Expect("equiv", 3, "equiv_result", semantic=undetermined)),
    ]
    return [_cli_op(cli, argv, expect) for argv, expect in reqs]


@dataclass
class _Witness:
    eta: Any
    rho: complex


def _tail0(cert):
    fields = {k: v for k, v in cert.items() if k != "kind"}
    return hp.TailCertificate(cert["kind"], **fields).tail(0)


def _cli_op(cli, argv, expect):
    sub = expect.sub
    first = []

    def check(result):
        ck.check_cli(result, expect, cli.validators, first[0] if first else None)
        if not first:
            first.append(result[1])

    found = (lambda r: r[0] == 0 and b'"equivalent":true' in r[1]) if sub == "equiv" and expect.code == 0 else None
    note = f"exit {expect.code}" + (f", {expect.error}" if expect.error else "")
    return Op(f"cli.{sub}", lambda: cli.run(sub, argv), check, found=found, note=note)


BUILDERS = {"orbit_depth": orbit_depth, "decide_batch": decide_batch, "boundary_grid": boundary_grid}
