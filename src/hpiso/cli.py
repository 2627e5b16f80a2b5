"""Command-line front end: every decision procedure and construction of the
package behind one ``hpiso`` entry point with JSON/CSV input and output.

Conventions
-----------
* JSON arguments accept inline text or ``@path`` to read a file.
* Primary JSON output goes to stdout (or ``--out`` where that flag means a
  JSON path); ``orbit`` and ``crownover`` use their file flag for the CSV
  artifact and keep the JSON summary on stdout.
* Output is deterministic: sorted keys, fixed separators, ``repr`` floats in
  CSV; identical arguments (and seed) give byte-identical artifacts.
* Exit codes: 0 decided/success, 2 parse, schema or usage error, 3
  undetermined, 4 invalid input.  Errors are single-line JSON objects on
  stderr.
* Numeric options take negative values in exponent form too
  (``--t -1e-3``).
* Each subcommand imports the modules it needs: ``classify``, ``compose``,
  ``iterate``, ``commutant`` and ``equiv`` (on finite specs) load neither
  numpy nor jsonschema.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import serialize as ser
from .errors import AmbiguousClassification, DomainError, HpisoError, IdentityAmbiguity
from .moebius import classify, commutant_element, compose, eval_auto, iterate

__all__ = ["main"]

#: largest ``orbit --n``: rows of the orbit CSV
MAX_ORBIT_ROWS = 1 << 20
#: largest ``crownover --evidence``: terms of the evidence partial sum
MAX_EVIDENCE_TERMS = 1 << 20
#: largest ``verify --grid``, ``rho --grid`` and ``verify --truncate``: boundary
#: samples, and factors evaluated on every one of them
MAX_GRID = 1 << 20

#: argument strings read as negative numbers, not options; argparse's own
#: pattern misses exponent forms such as ``-1e-3``
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE
)


def _load_json(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _auto(text: str):
    return ser.automorphism_from_json(_load_json(text))


def _count(value: int, limit: int, option: str) -> int:
    if not 1 <= value <= limit:
        raise DomainError(f"{option} must be between 1 and {limit}, got {value}")
    return value


def _emit(payload: dict, schema: str, out_path) -> None:
    ser.validate(schema, payload)  # every emitted object re-parses under its schema
    text = ser.dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    phi = _auto(args.phi)
    cls = classify(phi) if args.tol is None else classify(phi, args.tol)
    _emit(ser.classification_to_json(cls), "classification", args.out)
    return 0


def _cmd_compose(args) -> int:
    result = compose(_auto(args.outer), _auto(args.inner))
    _emit(ser.automorphism_to_json(result), "automorphism", args.out)
    return 0


def _cmd_iterate(args) -> int:
    phi_n = iterate(_auto(args.phi), args.n)
    value = None
    if args.at is not None:
        z = ser.complex_from_json(_load_json(args.at))
        value = ser.complex_to_json(eval_auto(phi_n, z))
    payload = {"automorphism": ser.automorphism_to_json(phi_n), "value": value}
    _emit(payload, "iterate_result", args.out)
    return 0


def _orbit_sequence(args):
    from .blaschke import ZeroSequence

    if args.seq is not None:
        if args.phi is not None or args.psi is not None:
            raise ValueError("give either --seq or --phi/--psi, not both")
        return ser.sequence_from_json(_load_json(args.seq))
    if args.phi is None:
        raise ValueError("need --seq or --phi")
    phi = _auto(args.phi)
    if args.psi is not None:
        return ZeroSequence.orbit(_auto(args.psi), phi)
    return ZeroSequence.forward_orbit(phi)


def _cmd_orbit(args) -> int:
    from .blaschke import write_orbit_csv

    n = _count(args.n, MAX_ORBIT_ROWS, "orbit --n")
    seq = _orbit_sequence(args)
    if args.csv:
        partial = write_orbit_csv(args.csv, seq, n)
        payload = {"rows": n, "csv": args.csv, "partial_sum": partial}
        _emit(payload, "orbit_summary", None)
    else:
        write_orbit_csv(sys.stdout, seq, n)
    return 0


def _cmd_crownover(args) -> int:
    from .isometries import decide_crownover

    n = _count(args.evidence, MAX_EVIDENCE_TERMS, "crownover --evidence")
    spec = ser.spec_from_json(_load_json(args.spec))
    csv_path = args.out or None
    verdict = decide_crownover(spec, n, csv_path)
    _emit(ser.crownover_verdict_to_json(verdict, csv_path), "crownover_verdict", None)
    return 0


def _cmd_equiv(args) -> int:
    from .equivalence import decide_equivalent

    s1 = ser.spec_from_json(_load_json(args.s1))
    s2 = ser.spec_from_json(_load_json(args.s2))
    try:
        witness = decide_equivalent(s1, s2, args.tol)
    except IdentityAmbiguity as exc:
        payload = {"equivalent": None, "witness": None, "undetermined": str(exc)}
        _emit(payload, "equiv_result", args.out)
        return 3
    payload = {
        "equivalent": witness is not None,
        "witness": None if witness is None else ser.witness_to_json(witness),
    }
    _emit(payload, "equiv_result", args.out)
    return 0


def _cmd_commutant(args) -> int:
    result = commutant_element(_auto(args.phi), args.t)
    _emit(ser.automorphism_to_json(result), "automorphism", args.out)
    return 0


def _cmd_verify(args) -> int:
    from .hardy import HpContext, verify_isometry

    grid = _count(args.grid, MAX_GRID, "verify --grid")
    truncate = _count(args.truncate, MAX_GRID, "verify --truncate")
    spec = ser.spec_from_json(_load_json(args.spec))
    if spec.infinite is not None:
        # a finite spec needs neither isometries nor the blaschke it loads
        from .isometries import truncate_spec

        spec = truncate_spec(spec, truncate)
    ctx = HpContext(spec.p, grid)
    report = verify_isometry(spec, ctx, seed=args.seed, degree=args.degree)
    _emit(report, "verify_report", args.out)
    return 0


def _cmd_construct(args) -> int:
    from .isometries import construct_nonzero_intersection, construct_zero_intersection

    phi = _auto(args.phi)
    if args.kind == "zero":
        con = construct_zero_intersection(phi)
    else:
        con = construct_nonzero_intersection(phi, args.count)
    _emit(ser.construction_to_json(con), "construction", args.out)
    return 0


def _cmd_rho(args) -> int:
    from .hardy import composition_constant

    grid = _count(args.grid, MAX_GRID, "rho --grid")
    cc = composition_constant(_auto(args.phi), _auto(args.psi), args.p, grid)
    payload = {
        "rho_closed": ser.complex_to_json(cc.rho_closed),
        "rho_numeric": ser.complex_to_json(cc.rho_numeric),
        "spread": cc.spread,
    }
    _emit(payload, "rho_result", args.out)
    return 0


def _json_out(sub) -> None:
    sub.add_argument("--out", default=None, help="write the JSON result to this path")


class _Parser(argparse.ArgumentParser):
    """argparse with exponent-form negative values and JSON usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        _fail(argparse.ArgumentError(None, message), 2)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpiso",
        description="disc automorphisms, Blaschke products and the isometries of H^p",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("classify", help="conjugacy class of an automorphism")
    sub.add_argument("--phi", required=True, help="automorphism JSON or @file")
    sub.add_argument("--tol", type=float, default=None, help="classification tolerance")
    _json_out(sub)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("compose", help="composition outer o inner")
    sub.add_argument("--outer", required=True)
    sub.add_argument("--inner", required=True)
    _json_out(sub)
    sub.set_defaults(func=_cmd_compose)

    sub = subs.add_parser("iterate", help="n-th iterate, optionally evaluated at a point")
    sub.add_argument("--phi", required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--at", default=None, help="complex JSON point to evaluate at")
    _json_out(sub)
    sub.set_defaults(func=_cmd_iterate)

    sub = subs.add_parser("orbit", help="orbit zero sequence as CSV")
    sub.add_argument("--seq", default=None, help="zero-sequence JSON or @file")
    sub.add_argument("--phi", default=None, help="step automorphism (with --psi: backward "
                     "orbit of its zero; alone: forward orbit of 0)")
    sub.add_argument("--psi", default=None, help="inner factor whose zero starts the orbit")
    sub.add_argument("--n", type=int, default=256, help="number of rows")
    sub.add_argument("--csv", default=None, help="CSV path (default: CSV on stdout)")
    sub.set_defaults(func=_cmd_orbit)

    sub = subs.add_parser("crownover", help="range-intersection dichotomy for a spec")
    sub.add_argument("--spec", required=True, help="isometry spec JSON or @file")
    sub.add_argument("--evidence", type=int, default=256, help="evidence terms")
    sub.add_argument("--out", default=None, help="write the evidence rows to this CSV path")
    sub.set_defaults(func=_cmd_crownover)

    sub = subs.add_parser("equiv", help="isometric equivalence of two specs")
    sub.add_argument("--s1", required=True)
    sub.add_argument("--s2", required=True)
    sub.add_argument("--tol", type=float, default=1e-9)
    _json_out(sub)
    sub.set_defaults(func=_cmd_equiv)

    sub = subs.add_parser("commutant", help="one-parameter commutant element of phi")
    sub.add_argument("--phi", required=True)
    sub.add_argument("--t", type=float, required=True, help="group parameter")
    _json_out(sub)
    sub.set_defaults(func=_cmd_commutant)

    sub = subs.add_parser("verify", help="isometry defect report on a boundary grid")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--grid", type=int, default=512, help="boundary grid size (power of two)")
    sub.add_argument("--seed", type=int, default=0, help="seed for the random test polynomial")
    sub.add_argument("--degree", type=int, default=None, help="test polynomial degree")
    sub.add_argument("--truncate", type=int, default=128,
                     help="zero factors kept of an infinite construction; zeros past the "
                     "1 - 1e-14 cap are left out")
    _json_out(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("construct", help="infinite-codimension intersection constructions")
    sub.add_argument("--phi", required=True)
    sub.add_argument("--kind", choices=("zero", "nonzero"), required=True,
                     help="zero: trivial range intersection; nonzero: thinned product")
    sub.add_argument("--count", type=int, default=4, help="thinned zeros to store; exit 4 "
                     "names the first zero past the 1 - 1e-14 cap if it comes sooner")
    _json_out(sub)
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("rho", help="composition constant of U_phi U_psi = rho U_{psi o phi}")
    sub.add_argument("--phi", required=True)
    sub.add_argument("--psi", required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--grid", type=int, default=256)
    _json_out(sub)
    sub.set_defaults(func=_cmd_rho)

    return parser


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(ser.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def _parse_errors() -> tuple:
    """``JSONDecodeError``, plus jsonschema's ``ValidationError`` once
    ``serialize.validate`` has imported it to report a schema violation."""
    jsonschema = sys.modules.get("jsonschema")
    return (json.JSONDecodeError,) + (() if jsonschema is None else (jsonschema.ValidationError,))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _parse_errors() as exc:
        return _fail(exc, 2)
    except (AmbiguousClassification, IdentityAmbiguity) as exc:
        return _fail(exc, 3)
    except (HpisoError, ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        return _fail(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
