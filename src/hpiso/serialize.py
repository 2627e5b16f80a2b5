"""JSON serialization for every object the package exchanges with disk.

Complex numbers are ``{"re": float, "im": float}`` objects, never strings;
automorphisms are ``{"lambda": complex, "a": complex}``.  Each ``*_from_json``
validates its input against the shipped JSON Schema first, so malformed
structure surfaces as ``jsonschema.ValidationError`` (the CLI's parse-error
exit) while value-level violations keep raising ``DomainError`` from the
constructors (the CLI's invalid-input exit).  The whole object is validated
once, at that entry point; its nested automorphisms and constructions are
then built unchecked (``_automorphism``, ``_construction``).  That is sound
because the ``definitions`` of spec.json, construction.json and
sequence.json equal the bodies of automorphism.json, complex.json and
construction.json (a test checks this).

Validation runs a predicate compiled once per shipped schema from the
draft-07 keywords those schemas use (``_compile``; any other keyword is
refused at compile time).  jsonschema stays the authority: it is imported
only when the predicate rejects an object, and ``jsonschema.validate`` then
raises the error.  The blaschke, hardy and isometries modules (and with them
numpy) are imported by the functions that need them, so automorphism,
classification and finite spec round trips load neither numpy nor jsonschema.
"""

from __future__ import annotations

import json
import math
import numbers
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

from .moebius import Classification, DiscAutomorphism

if TYPE_CHECKING:
    from .blaschke import ConvergenceVerdict, ZeroSequence
    from .equivalence import EquivWitness
    from .isometries import CrownoverVerdict, InfiniteConstruction
    from .spec import IsometrySpec

__all__ = [
    "validate",
    "dumps",
    "complex_to_json",
    "complex_from_json",
    "automorphism_to_json",
    "automorphism_from_json",
    "classification_to_json",
    "sequence_to_json",
    "sequence_from_json",
    "construction_to_json",
    "construction_from_json",
    "spec_to_json",
    "spec_from_json",
    "witness_to_json",
    "certificate_to_json",
    "convergence_verdict_to_json",
    "crownover_verdict_to_json",
]

DRAFT_07 = "http://json-schema.org/draft-07/schema#"


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = resources.files("hpiso.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


def _is_integer(x) -> bool:
    # draft 6 and later: a float with an integral value is an integer
    return not isinstance(x, bool) and (
        isinstance(x, int) or (isinstance(x, float) and x.is_integer())
    )


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": _is_integer,
}


def _member_check(values: tuple):
    """``x in values`` for ``enum``/``const`` values that are all strings or
    null, where JSON equality is Python's (elsewhere ``true`` is not ``1``)."""
    if not all(v is None or isinstance(v, str) for v in values):
        raise NotImplementedError(f"enum/const values {values!r}: only strings and null are supported")
    return lambda x: x in values


#: keywords ``_compile`` accepts below the root (which may add ``$schema``
#: and ``definitions``)
_KEYWORDS = frozenset(
    {"$ref", "type", "properties", "required", "additionalProperties",
     "enum", "const", "minimum", "oneOf", "items", "maxItems"}
)


def _all(checks):
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for one in checks:
            if not one(x):
                return False
        return True

    return check


def _compile(schema: dict):
    """Validity predicate of a draft-07 ``schema``, equal to
    ``jsonschema.Draft7Validator(schema).is_valid`` on JSON values.

    Covers exactly the keywords of the shipped schemas: ``$schema``,
    ``$ref`` into ``definitions``, ``type``, ``properties``, ``required``,
    ``additionalProperties: false``, ``enum`` and ``const`` (of strings and
    null), ``minimum``, ``oneOf``, ``items`` and ``maxItems``.  Any other
    keyword (or form) raises ``NotImplementedError``, so a schema edit cannot
    silently weaken the check.
    """
    definitions = schema.get("definitions", {})
    compiled = {}

    def ref(pointer):
        name = pointer.removeprefix("#/definitions/")
        if name == pointer or name not in definitions:
            raise NotImplementedError(f"$ref {pointer!r}: only #/definitions/<name> refs resolve")
        if name not in compiled:
            compiled[name] = node(definitions[name])
        return compiled[name]

    def node(sub, root=False):
        if not isinstance(sub, dict):
            raise NotImplementedError(f"schema {sub!r}: boolean schemas are not supported")
        unknown = sorted(set(sub) - _KEYWORDS - ({"$schema", "definitions"} if root else set()))
        if unknown:
            raise NotImplementedError(f"schema keyword(s) {unknown} not supported")
        if "$ref" in sub:
            if len(sub) > 1:
                raise NotImplementedError("$ref with sibling keywords (draft 7 ignores them)")
            return ref(sub["$ref"])
        checks = []
        if "type" in sub:
            names = [sub["type"]] if isinstance(sub["type"], str) else sub["type"]
            unknown = sorted(set(names) - set(_TYPES))
            if unknown:
                raise NotImplementedError(f"type(s) {unknown} not supported")
            tests = tuple(_TYPES[t] for t in names)
            if len(tests) == 1:
                checks.append(tests[0])
            else:
                checks.append(lambda x: any(test(x) for test in tests))
        if "enum" in sub:
            checks.append(_member_check(tuple(sub["enum"])))
        if "const" in sub:
            checks.append(_member_check((sub["const"],)))
        if "minimum" in sub:
            low = sub["minimum"]
            checks.append(lambda x: not _is_number(x) or not x < low)
        if "oneOf" in sub:
            branches = tuple(node(s) for s in sub["oneOf"])
            checks.append(lambda x: sum(1 for b in branches if b(x)) == 1)
        if {"properties", "required", "additionalProperties"} & set(sub):
            checks.append(_object_check(sub, node))
        if {"items", "maxItems"} & set(sub):
            checks.append(_array_check(sub, node))
        return _all(checks) if checks else (lambda x: True)

    if schema.get("$schema") != DRAFT_07:
        raise NotImplementedError(f"$schema {schema.get('$schema')!r}: only draft-07 is supported")
    for name in definitions:
        ref(f"#/definitions/{name}")  # every definition is checked, used or not
    return node(schema, root=True)


def _object_check(sub, node):
    props = tuple((key, node(s)) for key, s in sub.get("properties", {}).items())
    known = frozenset(key for key, _ in props)
    required = tuple(sub.get("required", ()))
    if sub.get("additionalProperties", False) is not False:
        raise NotImplementedError("additionalProperties other than false is not supported")
    closed = "additionalProperties" in sub

    def check(x):
        if not isinstance(x, dict):
            return True
        if closed and not x.keys() <= known:
            return False
        for key in required:
            if key not in x:
                return False
        for key, test in props:
            if key in x and not test(x[key]):
                return False
        return True

    return check


def _array_check(sub, node):
    item = node(sub["items"]) if "items" in sub else (lambda x: True)
    longest = sub.get("maxItems", math.inf)

    def check(x):
        return not isinstance(x, list) or (len(x) <= longest and all(map(item, x)))

    return check


@lru_cache(maxsize=None)
def _predicate(name: str):
    return _compile(_schema(name))


def validate(name: str, obj) -> None:
    """Validate ``obj`` against the shipped schema ``name`` (raises
    ``jsonschema.ValidationError``, importing jsonschema only then)."""
    if not _predicate(name)(obj):
        import jsonschema

        jsonschema.validate(obj, _schema(name))


def dumps(obj) -> str:
    """Deterministic single-line JSON (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    validate("complex", obj)
    return complex(obj["re"], obj["im"])


def automorphism_to_json(phi: DiscAutomorphism) -> dict:
    return {"lambda": complex_to_json(phi.lam), "a": complex_to_json(phi.a)}


def automorphism_from_json(obj) -> DiscAutomorphism:
    validate("automorphism", obj)
    return _automorphism(obj)


def _automorphism(obj) -> DiscAutomorphism:
    # unchecked: callers have validated ``obj`` against a schema whose
    # ``automorphism`` definition is the body of automorphism.json
    return DiscAutomorphism(
        complex(obj["lambda"]["re"], obj["lambda"]["im"]),
        complex(obj["a"]["re"], obj["a"]["im"]),
    )


def classification_to_json(cls: Classification) -> dict:
    return {
        "kind": cls.kind.value,
        "fixed_points": [complex_to_json(w) for w in cls.fixed_points],
        "multiplier": None if cls.multiplier is None else complex_to_json(cls.multiplier),
        "orientation": cls.orientation.value,
    }


def sequence_to_json(seq: ZeroSequence) -> dict:
    if seq.kind == "Explicit":
        return {"kind": "Explicit", "zeros": [complex_to_json(a) for a in seq.zeros]}
    if seq.kind == "Orbit":
        return {
            "kind": "Orbit",
            "psi": automorphism_to_json(seq.psi),
            "phi": automorphism_to_json(seq.phi),
        }
    return {"kind": "ForwardOrbit", "phi": automorphism_to_json(seq.phi)}


def sequence_from_json(obj) -> ZeroSequence:
    from .blaschke import ZeroSequence

    validate("sequence", obj)
    if obj["kind"] == "Explicit":
        return ZeroSequence.explicit(
            tuple(complex(c["re"], c["im"]) for c in obj["zeros"])
        )
    if obj["kind"] == "Orbit":
        return ZeroSequence.orbit(_automorphism(obj["psi"]), _automorphism(obj["phi"]))
    return ZeroSequence.forward_orbit(_automorphism(obj["phi"]))


def construction_to_json(con: InfiniteConstruction) -> dict:
    return {
        "kind": con.kind,
        "phi": automorphism_to_json(con.phi),
        "indices": list(con.indices),
        "budget": con.budget,
    }


def construction_from_json(obj) -> InfiniteConstruction:
    validate("construction", obj)
    return _construction(obj)


def _construction(obj) -> InfiniteConstruction:
    # unchecked, like ``_automorphism``: spec.json's ``construction``
    # definition is the body of construction.json
    from .isometries import InfiniteConstruction

    return InfiniteConstruction(
        obj["kind"],
        _automorphism(obj["phi"]),
        tuple(obj["indices"]),
        float(obj["budget"]),
    )


def spec_to_json(spec: IsometrySpec) -> dict:
    return {
        "p": float(spec.p),
        "phase": complex_to_json(spec.phase),
        "psi_zeros": [automorphism_to_json(fac) for fac in spec.psi_zeros],
        "phi": automorphism_to_json(spec.phi),
        "infinite": None if spec.infinite is None else construction_to_json(spec.infinite),
    }


def spec_from_json(obj) -> IsometrySpec:
    from .spec import IsometrySpec

    validate("spec", obj)
    infinite = obj.get("infinite")
    return IsometrySpec(
        float(obj["p"]),
        complex(obj["phase"]["re"], obj["phase"]["im"]),
        tuple(_automorphism(f) for f in obj["psi_zeros"]),
        _automorphism(obj["phi"]),
        None if infinite is None else _construction(infinite),
    )


def witness_to_json(w: EquivWitness) -> dict:
    return {
        "eta": automorphism_to_json(w.eta),
        "rho": complex_to_json(w.rho),
        "residual": w.residual,
    }


def certificate_to_json(cert) -> dict:
    """One-way serialization of tail/divergence certificates for reports."""
    from .blaschke import DivergenceCertificate, MergedTailCertificate, TailCertificate

    if cert is None:
        return None
    if isinstance(cert, DivergenceCertificate):
        return {"kind": "divergence", "delta": cert.delta}
    if isinstance(cert, MergedTailCertificate):
        return {"kind": "merged", "parts": [certificate_to_json(p) for p in cert.parts]}
    if isinstance(cert, TailCertificate):
        out = {"kind": cert.kind, "constant": cert.constant}
        if cert.kind == "geometric":
            out["ratio"] = cert.ratio
        else:
            out.update(offset=cert.offset, step=cert.step, height=cert.height)
        return out
    raise TypeError(f"not a certificate: {cert!r}")


def convergence_verdict_to_json(v: ConvergenceVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "growth": v.growth,
        "reason": v.reason,
        "n_terms": int(v.n_terms),
        "partial_sum": float(v.partial_sum),
        "certificate": certificate_to_json(v.certificate),
    }


def crownover_verdict_to_json(v: CrownoverVerdict, evidence_csv=None) -> dict:
    return {
        "verdict": v.verdict,
        "reason": v.reason,
        "codim": "Infinite" if math.isinf(v.codim) else int(v.codim),
        "evidence": convergence_verdict_to_json(v.evidence),
        "evidence_csv": evidence_csv,
    }
