"""Round-trip and schema tests for the JSON layer.

Every ``*_from_json`` validates against the shipped schema before touching a
constructor, so structural garbage must raise ``jsonschema.ValidationError``
while value-level garbage (legal shape, illegal mathematics) must keep
raising ``DomainError``.  Emission is canonical: sorted keys, no spaces, no
NaN — byte-identical across calls.
"""

from __future__ import annotations

import cmath
import copy
import io
import json
import math
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hpiso.cli as cli
from hpiso import (
    AmbiguousClassification,
    DiscAutomorphism,
    DomainError,
    EquivWitness,
    IsometrySpec,
    NotCertified,
    ZeroSequence,
    classify,
    construct_nonzero_intersection,
    construct_zero_intersection,
    decide_crownover,
    decide_equivalent,
    identity,
    normalized_factor,
    parabolic_fixing_one,
    standard_hyperbolic,
)
from hpiso import serialize as ser

from conftest import (
    interior_point,
    phi_parabolic_plus,
    random_automorphism,
    random_by_kind,
    unimodular,
)


def test_complex_round_trip(rng):
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        obj = ser.complex_to_json(z)
        assert set(obj) == {"re", "im"}
        assert ser.complex_from_json(obj) == z
    with pytest.raises(jsonschema.ValidationError):
        ser.complex_from_json({"re": 1.0})
    with pytest.raises(jsonschema.ValidationError):
        ser.complex_from_json({"re": 1.0, "im": 0.0, "abs": 1.0})
    with pytest.raises(jsonschema.ValidationError):
        ser.complex_from_json({"re": "1.0", "im": 0.0})


def test_automorphism_round_trip(rng):
    for _ in range(50):
        phi = random_automorphism(rng)
        obj = ser.automorphism_to_json(phi)
        ser.validate("automorphism", obj)
        back = ser.automorphism_from_json(obj)
        assert back.lam == phi.lam and back.a == phi.a
    with pytest.raises(DomainError):
        ser.automorphism_from_json(
            {"lambda": {"re": 1.0, "im": 0.0}, "a": {"re": 2.0, "im": 0.0}}
        )


def test_classification_shape(rng):
    for kind in ("Hyperbolic", "Parabolic", "Elliptic"):
        obj = ser.classification_to_json(classify(random_by_kind(rng, kind)))
        ser.validate("classification", obj)
        assert obj["kind"] == kind
    obj = ser.classification_to_json(classify(identity()))
    ser.validate("classification", obj)
    assert obj["kind"] == "Identity" and obj["fixed_points"] == []
    assert obj["orientation"] is None


def test_sequence_round_trips(rng):
    explicit = ZeroSequence.explicit([interior_point(rng, 0.8) for _ in range(5)])
    orbit = ZeroSequence.orbit(
        normalized_factor(interior_point(rng, 0.5)), random_automorphism(rng)
    )
    forward = ZeroSequence.forward_orbit(phi_parabolic_plus())
    for seq in (explicit, orbit, forward):
        obj = ser.sequence_to_json(seq)
        ser.validate("sequence", obj)
        back = ser.sequence_from_json(obj)
        assert back.kind == seq.kind
        depth = 2 if seq.is_explicit else 4
        assert back.terms_up_to(depth) == seq.terms_up_to(depth)
    with pytest.raises(jsonschema.ValidationError):
        ser.sequence_from_json({"kind": "Orbit"})


def test_construction_round_trip():
    back_con = construct_zero_intersection(standard_hyperbolic(0.5))
    thin_con = construct_nonzero_intersection(phi_parabolic_plus(), 3)
    for con in (back_con, thin_con):
        obj = ser.construction_to_json(con)
        ser.validate("construction", obj)
        got = ser.construction_from_json(obj)
        assert got.kind == con.kind
        assert got.indices == con.indices
        assert got.budget == pytest.approx(con.budget)
    with pytest.raises(jsonschema.ValidationError):
        ser.construction_from_json({"kind": "SomethingElse", "phi": ser.automorphism_to_json(identity())})


def test_thinned_prefix_reads_back_only_as_the_rule_gives_it(rng):
    # library constructions read back equal; a prefix the greedy rule does not
    # give, or that reaches past the cap, is refused at the first difference
    for kind in ("Hyperbolic", "Parabolic") * 10:
        phi = random_by_kind(rng, kind)
        for count in (1, 4, 16):
            try:
                con = construct_nonzero_intersection(phi, count)
            except NotCertified:
                continue
            got = ser.construction_from_json(ser.construction_to_json(con))
            assert (got.indices, got.budget) == (con.indices, con.budget)  # lam may move an ulp
    obj = ser.construction_to_json(construct_nonzero_intersection(standard_hyperbolic(0.5), 27))
    obj["indices"] += [30, 31, 32]
    with pytest.raises(DomainError, match="index 28 is 30; the rule gives no index: its zero lies past"):
        ser.construction_from_json(obj)
    obj["indices"] = [3, 5]
    with pytest.raises(DomainError, match="stored thinned index 2 is 5; the rule gives 4$"):
        ser.construction_from_json(obj)


def test_spec_round_trip_fuzz(rng):
    # 1000 random specs: every emitted object re-parses under the same schema
    # and the parse is faithful (constructors may renormalize a last ulp)
    for k in range(1000):
        phi = random_automorphism(rng)
        codim = int(rng.integers(0, 4))
        factors = tuple(
            normalized_factor(interior_point(rng, 0.85)) for _ in range(codim)
        )
        p = float(rng.choice([1.0, 1.5, 3.0, 4.0]))
        spec = IsometrySpec(p, unimodular(rng), factors, phi)
        obj = ser.spec_to_json(spec)
        ser.validate("spec", obj)
        text = ser.dumps(obj)
        back = ser.spec_from_json(json.loads(text))
        assert back.p == spec.p
        assert back.phase == pytest.approx(spec.phase, abs=1e-15)
        assert back.phi.a == spec.phi.a
        assert back.phi.lam == pytest.approx(spec.phi.lam, abs=1e-15)
        for f1, f2 in zip(spec.psi_zeros, back.psi_zeros):
            assert f1.a == f2.a and f2.lam == pytest.approx(f1.lam, abs=1e-15)
        # re-emission of the parse is stable from the first generation on
        text2 = ser.dumps(ser.spec_to_json(back))
        ser.validate("spec", json.loads(text2))
        assert ser.dumps(ser.spec_to_json(ser.spec_from_json(json.loads(text2)))) == text2


def test_infinite_spec_round_trip():
    phi = standard_hyperbolic(0.5)
    spec = IsometrySpec(3.0, 1.0, (), phi, infinite=construct_zero_intersection(phi))
    obj = ser.spec_to_json(spec)
    ser.validate("spec", obj)
    back = ser.spec_from_json(obj)
    assert back.infinite is not None
    assert back.infinite.kind == "BackwardOrbitProduct"
    assert ser.dumps(ser.spec_to_json(back)) == ser.dumps(obj)


def test_spec_schema_rejections(rng):
    phi_obj = ser.automorphism_to_json(random_automorphism(rng))
    good = {
        "p": 3.0,
        "phase": {"re": 1.0, "im": 0.0},
        "psi_zeros": [],
        "phi": phi_obj,
        "infinite": None,
    }
    ser.spec_from_json(good)
    for mutation in (
        {"p": "three"},
        {"psi_zeros": [{"re": 0.1, "im": 0.0}]},  # raw zero, not a factor
        {"extra": 1},
        {"infinite": {"kind": "BackwardOrbitProduct"}},  # missing phi
    ):
        bad = {**good, **mutation}
        with pytest.raises(jsonschema.ValidationError):
            ser.spec_from_json(bad)
    with pytest.raises(jsonschema.ValidationError):
        ser.spec_from_json({k: v for k, v in good.items() if k != "phi"})


def test_witness_and_verdict_shapes(rng):
    phi = random_by_kind(rng, "Hyperbolic")
    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), phi)
    w = decide_equivalent(spec, spec)
    obj = ser.witness_to_json(w)
    ser.validate("witness", obj)
    assert obj["residual"] >= 0.0

    v = decide_crownover(spec)
    obj = ser.crownover_verdict_to_json(v)
    ser.validate("crownover_verdict", obj)
    assert obj["verdict"] == "NotCrownover"
    assert obj["evidence"]["certificate"]["kind"] == "merged"
    with_csv = ser.crownover_verdict_to_json(v, evidence_csv="out.csv")
    assert with_csv["evidence_csv"] == "out.csv"

    div = decide_crownover(IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), identity()))
    obj = ser.crownover_verdict_to_json(div)
    ser.validate("crownover_verdict", obj)
    assert obj["evidence"]["certificate"]["kind"] == "divergence"
    assert obj["codim"] == 1


def test_dumps_canonical():
    assert ser.dumps({"b": 1, "a": [1.5, {"z": None}]}) == '{"a":[1.5,{"z":null}],"b":1}'
    with pytest.raises(ValueError):
        ser.dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        ser.dumps({"x": math.inf})


def test_validate_unknown_schema():
    with pytest.raises(OSError):
        ser.validate("no_such_schema", {})


# ---------------------------------------------------------------------------
# the compiled validity predicate against jsonschema

SCHEMAS = {
    path.name[: -len(".json")]: json.loads(path.read_text())
    for path in resources.files("hpiso.schemas").iterdir()
    if path.name.endswith(".json")
}
VALIDATORS = {name: jsonschema.Draft7Validator(schema) for name, schema in SCHEMAS.items()}


def _words(schema, keys, strings):
    """Property names and enum/const strings anywhere in ``schema``."""
    if isinstance(schema, dict):
        keys.update(schema.get("properties", {}))
        for value in [*schema.get("enum", []), schema.get("const")]:
            if isinstance(value, str):
                strings.add(value)
        for value in schema.values():
            _words(value, keys, strings)
    elif isinstance(schema, list):
        for value in schema:
            _words(value, keys, strings)
    return keys, strings


KEYS, STRINGS = set(), set()
for _schema in SCHEMAS.values():
    _words(_schema, KEYS, STRINGS)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(sorted(STRINGS))
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(KEYS)) | st.text(max_size=2), inner, max_size=6),
    max_leaves=16,
)


def agree(name, instance):
    ours = ser._predicate(name)(instance)
    assert ours == VALIDATORS[name].is_valid(instance), (name, instance, ours)


def test_shipped_schemas_compile():
    assert len(SCHEMAS) == 15
    for name in SCHEMAS:
        assert callable(ser._predicate(name))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SCHEMAS)), instance=JSON)
def test_predicate_agrees_on_random_json(name, instance):
    agree(name, instance)


# valid instances, built by the *_to_json functions from drawn objects

_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.8), st.floats(-math.pi, math.pi)
)
_unimodular = st.builds(lambda t: cmath.exp(1j * t), st.floats(-math.pi, math.pi))
_autos = st.builds(DiscAutomorphism, _unimodular, _points)
_floats = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def fixed():
    hyp, par = standard_hyperbolic(0.5), parabolic_fixing_one(1j)
    zero, thin = construct_zero_intersection(hyp), construct_nonzero_intersection(par, 3)
    crown = IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), par)
    verdicts = [
        decide_crownover(crown, 16),
        decide_crownover(IsometrySpec(3.0, 1.0, (normalized_factor(0.3),), identity()), 16),
        decide_crownover(IsometrySpec(3.0, 1.0, (), hyp, infinite=zero), 16),
    ]
    return {"constructions": [zero, thin], "verdicts": verdicts}


def _valid_instance(name, draw, fixed):
    auto = lambda: ser.automorphism_to_json(draw(_autos))
    cplx = lambda: ser.complex_to_json(draw(_points))
    point_list = lambda: [draw(_points) for _ in range(draw(st.integers(0, 3)))]
    witness = lambda: ser.witness_to_json(
        EquivWitness(draw(_autos), draw(_unimodular), draw(st.floats(0, 1)))
    )

    def classification():
        try:
            return ser.classification_to_json(classify(draw(_autos)))
        except AmbiguousClassification:
            return ser.classification_to_json(classify(identity()))

    def sequence():
        phi = draw(_autos)
        return ser.sequence_to_json(
            draw(
                st.sampled_from(
                    [
                        ZeroSequence.explicit(point_list()),
                        ZeroSequence.orbit(normalized_factor(draw(_points)), phi),
                        ZeroSequence.forward_orbit(phi),
                    ]
                )
            )
        )

    def spec():
        factors = tuple(normalized_factor(a) for a in point_list())
        infinite = draw(st.sampled_from([None, *fixed["constructions"]]))
        p = draw(st.sampled_from([1.0, 1.5, 3.0, 4.0]))
        return ser.spec_to_json(IsometrySpec(p, draw(_unimodular), factors, draw(_autos), infinite))

    builders = {
        "complex": cplx,
        "automorphism": auto,
        "classification": classification,
        "sequence": sequence,
        "construction": lambda: ser.construction_to_json(draw(st.sampled_from(fixed["constructions"]))),
        "spec": spec,
        "witness": witness,
        "convergence_verdict": lambda: ser.convergence_verdict_to_json(
            draw(st.sampled_from(fixed["verdicts"])).evidence
        ),
        "crownover_verdict": lambda: ser.crownover_verdict_to_json(
            draw(st.sampled_from(fixed["verdicts"])), draw(st.sampled_from([None, "evidence.csv"]))
        ),
        "iterate_result": lambda: {"automorphism": auto(), "value": draw(st.sampled_from([None, cplx()]))},
        "orbit_summary": lambda: {
            "rows": draw(st.integers(1, 10**6)),
            "csv": draw(st.sampled_from([None, "orbit.csv"])),
            "partial_sum": draw(_floats),
        },
        "rho_result": lambda: {"rho_closed": cplx(), "rho_numeric": cplx(), "spread": draw(st.floats(0, 1))},
        "verify_report": lambda: {
            "N": draw(st.integers(1, 2**16)),
            "norm_in": draw(_floats),
            "norm_out": draw(_floats),
            "rel_defect": draw(_floats),
        },
        "equiv_result": lambda: draw(
            st.sampled_from(
                [
                    {"equivalent": True, "witness": witness()},
                    {"equivalent": False, "witness": None},
                    {"equivalent": None, "witness": None, "undetermined": "identity symbol"},
                ]
            )
        ),
        "error": lambda: {"error": "DomainError", "message": draw(st.text(max_size=8))},
    }
    return builders[name]()


def _paths(value, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return out


def _mutations(node):
    """Replacements for one position of a JSON value: a key dropped or added,
    an integer made a float, ``true`` for ``1``, and odd scalars."""
    if isinstance(node, dict):
        yield from ({k: v for k, v in node.items() if k != key} for key in node)
        yield {**node, "extra": 1}
    if isinstance(node, int) and not isinstance(node, bool):
        yield float(node)
    yield from (True, 1.0, 1.5, math.nan, math.inf, -math.inf, -0.0, None, "x", [])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SCHEMAS)), data=st.data())
def test_predicate_agrees_on_valid_instances_and_mutations(name, data, fixed):
    instance = _valid_instance(name, data.draw, fixed)
    assert ser._predicate(name)(instance)
    agree(name, instance)
    paths = list(_paths(instance))
    for _ in range(8):
        path = data.draw(st.sampled_from(paths))
        node = instance
        for key in path:
            node = node[key]
        agree(name, _replaced(instance, path, data.draw(st.sampled_from(list(_mutations(node))))))


def test_predicate_agrees_on_edge_values():
    # string/null enum and const against booleans, numbers and containers,
    # integer-valued floats, signed zero and non-finite numbers against
    # minimum, null in oneOf
    schema = {
        "$schema": ser.DRAFT_07,
        "type": "object",
        "properties": {
            "e": {"enum": ["a", None, "b"]},
            "c": {"const": "a"},
            "z": {"const": None},
            "i": {"type": "integer", "minimum": 0},
            "n": {"type": "number", "minimum": 0},
            "o": {"oneOf": [{"type": "null"}, {"type": "number"}, {"type": "integer"}]},
            "a": {"type": "array", "items": {"type": "string"}, "maxItems": 1},
        },
    }
    predicate = ser._compile(schema)
    validator = jsonschema.Draft7Validator(schema)
    values = [True, False, 1, 1.0, 0, 0.0, -0.0, 1.5, -1, math.nan, math.inf, -math.inf,
              None, "a", "b", "", [1, 2], [True, 2], [1.0, 2], {"k": True}, {"k": 1.0}, [], ["s"],
              ["s", "t"], ["a"], [None]]
    for key in schema["properties"]:
        for value in values:
            assert predicate({key: value}) == validator.is_valid({key: value}), (key, value)


class _Level(IntEnum):
    LOW = -1
    ZERO = 0
    HIGH = 2


class _Dict(dict):
    pass


class _List(list):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


def test_predicate_agrees_on_non_json_values():
    # values whose exact type is not the JSON one they stand for (or that an
    # exact-type test could wrongly take for one): bool, IntEnum, numpy and
    # exact-arithmetic scalars, float/str/dict/list subclasses and tuples
    schema = {
        "$schema": ser.DRAFT_07,
        "type": "object",
        "definitions": {"pt": {"type": "object", "properties": {"k": {"type": "number"}},
                               "required": ["k"], "additionalProperties": False}},
        "properties": {
            "n": {"type": "number"},
            "i": {"type": "integer"},
            "m": {"minimum": 0},
            "nm": {"type": "number", "minimum": 0},
            "im": {"type": "integer", "minimum": 1},
            "o": {"$ref": "#/definitions/pt"},
            "on": {"type": ["object", "null"], "properties": {"k": {"type": "integer"}}},
            "a": {"type": "array", "items": {"type": "number"}, "maxItems": 2},
            "e": {"enum": ["a", None]},
            "x": {"oneOf": [{"type": "number"}, {"type": "integer"}]},
            "xn": {"oneOf": [{"$ref": "#/definitions/pt"}, {"type": "null"}]},
            "t0": {"type": []},  # a type list naming no type: nothing is valid
        },
    }
    predicate = ser._compile(schema)
    validator = jsonschema.Draft7Validator(schema)
    values = [
        True, False, _Level.LOW, _Level.ZERO, _Level.HIGH,
        np.float64(2.0), np.float64(-0.5), np.int64(3), np.int64(-3), np.bool_(True),
        Decimal("1.5"), Decimal("-1"), Decimal("2"), Fraction(1, 2), Fraction(-1, 2), Fraction(4, 2),
        _Float(2.0), _Float(-1.5), _Str("a"), _Str("b"),
        _Dict(k=1.0), _Dict(k="s"), _Dict(k=1.0, j=2), _Dict(), OrderedDict(k=2), OrderedDict(k=True),
        {"k": np.float64(1.5)}, {"k": np.int64(2)}, {"k": Decimal("3")},
        1.5, -2.0, _List([1.0, 2]), _List([1.0, 2, 3]), _List([True]), (1.0, 2), (),
        [np.float64(1.0)], [Fraction(1, 3)], None, "a", 3, {"k": 1},
    ]
    for key in schema["properties"]:
        for value in values:
            assert predicate({key: value}) == validator.is_valid({key: value}), (key, value)
    for root in (_Dict(n=1.0), _Dict(n="s"), OrderedDict(i=2), OrderedDict(q=1), (("n", 1),), []):
        assert predicate(root) == validator.is_valid(root), root


def test_unknown_schema_keyword_does_not_compile():
    base = {"$schema": ser.DRAFT_07, "type": "object"}
    for bad in (
        {**base, "patternProperties": {"^x": {}}},
        {**base, "properties": {"x": {"type": "string", "pattern": "^a"}}},
        {**base, "definitions": {"unused": {"maximum": 3}}},
        {**base, "additionalProperties": {"type": "string"}},
        {**base, "properties": {"x": {"$ref": "#/definitions/y"}}},
        {**base, "definitions": {"y": {}}, "properties": {"x": {"$ref": "#/definitions/y", "type": "object"}}},
        {**base, "properties": {"x": {"type": "decimal"}}},
        {**base, "items": True},
        # numbers, booleans and containers in enum/const: JSON equality there
        # is not Python's (true is not 1, 1.0 is 1)
        {**base, "properties": {"e": {"enum": [1, "a", None, [1, 2], {"k": 1}]}}},
        {**base, "properties": {"e": {"enum": ["a", 1.5]}}},
        {**base, "properties": {"c": {"const": 1}}},
        {**base, "properties": {"f": {"const": False}}},
        {**base, "definitions": {"unused": {"const": ["a"]}}},
        {"type": "object"},  # no $schema: jsonschema would pick the latest draft
        # one kind of keyword per node, beside a type it applies to
        {**base, "properties": {"x": {"type": "string", "enum": ["a"]}}},
        {**base, "properties": {"x": {"type": "string", "minimum": 0}}},
        {**base, "properties": {"x": {"minimum": 0, "maxItems": 1}}},
        {**base, "properties": {"x": {"enum": ["a"], "const": "a"}}},
        {**base, "minimum": 0},
    ):
        with pytest.raises(NotImplementedError):
            ser._compile(bad)


def test_schema_violation_stderr_matches_jsonschema():
    bad = {"lambda": {"re": 1.0}, "a": {"re": 0.1, "im": 0.0}}
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(bad, SCHEMAS["automorphism"])
    want = ser.dumps({"error": "ValidationError", "message": str(exc.value)}) + "\n"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["classify", "--phi", json.dumps(bad)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == want


def _body(schema):
    return {k: v for k, v in schema.items() if k not in ("$schema", "definitions")}


def test_nested_definitions_equal_the_schema_files():
    # spec_from_json, construction_from_json and sequence_from_json validate
    # the whole object once and build its parts unchecked; that is sound only
    # while each nested definition is the body of the schema of that name
    for outer in ("spec", "construction", "sequence"):
        definitions = SCHEMAS[outer]["definitions"]
        for name, sub in definitions.items():
            assert sub == _body(SCHEMAS[name]), (outer, name)
            for inner, inner_sub in SCHEMAS[name].get("definitions", {}).items():
                assert definitions[inner] == inner_sub, (outer, name, inner)


def test_from_json_validates_once(rng, monkeypatch):
    phi = random_by_kind(rng, "Hyperbolic")
    spec = IsometrySpec(3.0, 1.0, (normalized_factor(0.3), normalized_factor(-0.2j)), phi,
                        infinite=construct_zero_intersection(phi))
    objs = {
        "spec": ser.spec_to_json(spec),
        "construction": ser.construction_to_json(construct_nonzero_intersection(phi, 3)),
        "sequence": ser.sequence_to_json(ZeroSequence.orbit(normalized_factor(0.3), phi)),
        "automorphism": ser.automorphism_to_json(phi),
    }
    calls = []
    real = ser.validate
    monkeypatch.setattr(ser, "validate", lambda name, obj: (calls.append(name), real(name, obj)))
    for name, obj in objs.items():
        calls.clear()
        getattr(ser, f"{name}_from_json")(obj)
        assert calls == [name]


def test_nested_violation_stderr_names_the_entry_schema():
    bad_factor = {"lambda": {"re": 1.0, "im": 0.0}, "a": {"re": 0.1}}
    spec = {
        "p": 3.0,
        "phase": {"re": 1.0, "im": 0.0},
        "psi_zeros": [bad_factor],
        "phi": {"lambda": {"re": 1.0, "im": 0.0}, "a": {"re": 0.5, "im": 0.0}},
        "infinite": None,
    }
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(spec, SCHEMAS["spec"])
    want = ser.dumps({"error": "ValidationError", "message": str(exc.value)}) + "\n"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", "--spec", json.dumps(spec)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == want
