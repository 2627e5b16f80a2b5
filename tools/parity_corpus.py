"""Seeded parity corpus: one SHA-256 per bucket of library and CLI outputs.

A bucket is one function (or CLI subcommand) on one symbol class.  Its digest
is taken over the ``repr`` of every result, or the error's type and message,
and for the CLI over each request's stdout, stderr and exit code, so two
checkouts that print the same digests for a bucket gave the same bytes there.

    PYTHONPATH=src python3 tools/parity_corpus.py

The inputs are drawn from ``numpy.random.default_rng(SEED)`` and do not
depend on the package, so the same command run in two checkouts (say, a
change and its parent) compares them bucket by bucket.  Orbit terms of
hyperbolic symbols go through numpy's ``power``, whose last bits depend on
the CPU, so digests are comparable only between runs on one machine.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import hpiso as hp
from hpiso import cli
from hpiso import serialize as ser

#: seed of the drawn inputs
SEED = 0
CLASSES = ("Hyperbolic", "Parabolic", "Elliptic", "Identity")
#: both constructions gate on the class; they answer only for these two
ORBIT_CLASSES = ("Hyperbolic", "Parabolic")


def point(rng, rmax: float) -> complex:
    return rmax * np.sqrt(rng.uniform()) * cmath.exp(2j * np.pi * rng.uniform())


def near_circle(rng) -> complex:
    """A point between 1e-12 and 1e-9 from the unit circle."""
    return (1.0 - 10.0 ** -rng.uniform(9.0, 12.0)) * cmath.exp(2j * np.pi * rng.uniform())


def symbol(rng, kind: str) -> hp.DiscAutomorphism:
    """A map of the class ``kind``: a model map conjugated by a disc translation."""
    if kind == "Identity":
        return hp.identity()
    if kind == "Hyperbolic":
        model = hp.standard_hyperbolic(rng.uniform(0.05, 0.95))
    elif kind == "Parabolic":
        model = hp.parabolic_fixing_one(cmath.exp(1j * rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))))
    else:
        model = hp.rotation(cmath.exp(1j * rng.uniform(0.1, 3.0)))
    eta = hp.disc_translation(point(rng, 0.9))
    return hp.compose(eta, hp.compose(model, hp.inverse(eta)))


def spec(zeros, phi, infinite=None, phase=1.0) -> hp.IsometrySpec:
    return hp.IsometrySpec(3.0, phase, tuple(hp.normalized_factor(a) for a in zeros), phi, infinite)


def record(add, name: str, call):
    """Add the ``repr`` of ``call()`` to bucket ``name``, or the error's type
    and message; return the result, or None."""
    try:
        value = call()
    except hp.HpisoError as exc:
        add(name, f"{type(exc).__name__}: {exc}")
        return None
    add(name, repr(value))
    return value


def run_cli(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return repr((code, out.getvalue(), err.getvalue()))


def spec_arg(s: hp.IsometrySpec) -> str:
    return ser.dumps(ser.spec_to_json(s))


def library(rng, kind: str, add) -> None:
    """``construct_*``, ``own_zeros``, ``truncate_spec`` and ``decide_crownover``."""
    for _ in range(30):
        phi = symbol(rng, kind)
        zero = record(add, "construct_zero_intersection", lambda: hp.construct_zero_intersection(phi))
        name = "construct_nonzero_intersection"
        thinned = [record(add, name, lambda: hp.construct_nonzero_intersection(phi, n)) for n in range(1, 33)]
        cons = [c for c in (thinned[0], thinned[3], thinned[15], thinned[26], zero) if c is not None]
        for con in cons:
            for m in (0, 1, 8, 32, 64, 128):
                record(add, "own_zeros", lambda: con.own_zeros(m))
                record(add, "truncate_spec", lambda: hp.truncate_spec(spec((), phi, con), m))
        finite = [spec([point(rng, 0.9) for _ in range(d)], phi) for d in (1, 2, 3)]
        extra = point(rng, 0.9)
        for s in finite + [spec(z, phi, con) for con in cons for z in ((), [extra])]:
            record(add, "decide_crownover", lambda: hp.decide_crownover(s, 64))


def equivalence(rng, kind: str, add) -> None:
    """``decide_equivalent`` on conjugate, displaced and unrelated pairs,
    with zeros anywhere in the disc or within 1e-9 of the circle."""
    for i in range(40):
        phi = symbol(rng, kind)
        d = 1 + i % 4
        draw = (lambda: point(rng, 0.95)) if i % 2 else (lambda: near_circle(rng))
        zeros = [draw() for _ in range(d)]
        s1 = spec(zeros, phi, phase=cmath.exp(1j * rng.uniform(0.0, 6.0)))
        eta, rho = hp.disc_translation(point(rng, 0.7)), cmath.exp(1j * rng.uniform(0.0, 6.0))
        moved = zeros[:-1] + [zeros[-1] * (1.0 - 1e-7)]
        other = [draw() for _ in range(d)]
        for build in (
            lambda: hp.conjugated_spec(s1, eta, rho),
            lambda: hp.conjugated_spec(spec(moved, phi), eta, rho),
            lambda: spec(other, phi),
        ):
            s2 = record(add, "decide_equivalent", build)  # conjugation may pass the cap
            if s2 is not None:
                record(add, "decide_equivalent", lambda: hp.decide_equivalent(s1, s2))
                record(add, "decide_equivalent", lambda: hp.decide_equivalent(s2, s1))
    if kind == "Parabolic":  # zeros 1e-9 from the circle whose candidates pass the cap
        r = 1.0 - 1e-9
        phi = hp.parabolic_fixing_one(1j)
        s1 = spec([r * cmath.exp(1e-7j), r * cmath.exp(1j)], phi)
        s2 = spec([r * cmath.exp(0.5j), r * cmath.exp(2j)], phi)
        record(add, "decide_equivalent", lambda: hp.decide_equivalent(s1, s2))
        for c in (1j, -1j):
            zeros = [0.0, 0.0, 1.0 - 1e-9, 1.0 - 1e-9]
            s1 = spec(zeros, hp.parabolic_fixing_one(c))
            s2 = spec(zeros[:-1] + [zeros[-1] + 1e-7j], hp.parabolic_fixing_one(c))
            record(add, "decide_equivalent", lambda: hp.decide_equivalent(s1, s2))


def requests(rng, kind: str, add) -> None:
    """``construct``, ``crownover``, ``verify`` and ``equiv`` requests."""
    for _ in range(6):
        phi = symbol(rng, kind)
        phi_arg = ser.dumps(ser.automorphism_to_json(phi))
        add("cli construct", run_cli("construct", "--phi", phi_arg, "--kind", "zero"))
        built = [hp.construct_zero_intersection(phi)] if kind in ORBIT_CLASSES else []
        for count in (1, 4, 16, 27, 28, 32):
            argv = ("construct", "--phi", phi_arg, "--kind", "nonzero", "--count", str(count))
            add("cli construct", run_cli(*argv))
            try:
                built.append(hp.construct_nonzero_intersection(phi, count))
            except hp.NotCertified:
                pass
            except hp.WrongClass:
                break
        finite = spec([point(rng, 0.9) for _ in range(2)], phi)
        extra = point(rng, 0.9)
        for s in [finite] + [spec(z, phi, con) for con in built for z in ((), [extra])]:
            add("cli crownover", run_cli("crownover", "--spec", spec_arg(s), "--evidence", "64"))
            add("cli verify", run_cli("verify", "--spec", spec_arg(s), "--grid", "256"))
        near = spec([near_circle(rng) for _ in range(2)], phi)
        for s2 in (hp.conjugated_spec(finite, hp.disc_translation(0.3j), 1j), near):
            add("cli equiv", run_cli("equiv", "--s1", spec_arg(finite), "--s2", spec_arg(s2)))
            add("cli equiv", run_cli("equiv", "--s1", spec_arg(near), "--s2", spec_arg(s2)))


def main() -> int:
    rng = np.random.default_rng(SEED)
    buckets = {}
    for part in (library, equivalence, requests):
        for kind in CLASSES:
            part(rng, kind, lambda name, text: buckets.setdefault(f"{name} | {kind}", []).append(text))
    for name in sorted(buckets):
        digest = hashlib.sha256("\n".join(buckets[name]).encode()).hexdigest()
        print(f"{digest}  {len(buckets[name]):5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
