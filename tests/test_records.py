"""The value records keep the contract of a frozen dataclass.

``DiscAutomorphism``, ``Classification``, ``IsometrySpec`` and
``EquivWitness`` are compared with a frozen dataclass of the same name
and fields built here: the same ``repr`` and hash, ``==`` only within one
class, no assignment or deletion.  Copies and pickles must hold the very
floats of the original: normalizing ``lam / |lam|`` again moves the last bit
of many unit phases.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import math
import pickle
import random

import pytest

from hpiso import (
    Classification,
    DiscAutomorphism,
    EquivWitness,
    IsometrySpec,
    Kind,
    Orientation,
    classify,
    disc_translation,
    parabolic_fixing_one,
    rotation,
)

#: field names of each record, in order
FIELDS = {
    DiscAutomorphism: ("lam", "a"),
    Classification: ("kind", "fixed_points", "multiplier", "orientation"),
    IsometrySpec: ("p", "phase", "psi_zeros", "phi", "infinite"),
    EquivWitness: ("eta", "rho", "residual"),
}


def samples() -> list:
    """Two records of each class, built through the public API."""
    phi = DiscAutomorphism(0.6 + 0.8j, 0.3 + 0.1j)
    par = parabolic_fixing_one(1j)
    facs = (disc_translation(0.2 - 0.4j), rotation(-1j))
    return [
        phi,
        par,
        classify(phi),
        Classification(Kind.PARABOLIC, (1.0 + 0j,), 1.0 + 0j, Orientation.PLUS),
        IsometrySpec(3.0, 2.0 - 1j, facs, phi),
        IsometrySpec(1.5, 1j, (), par, infinite="construction"),
        EquivWitness(phi, cmath.exp(0.3j), 2.5e-15),
        EquivWitness(par, -1.0 + 0j, 0.0),
    ]


def twin(record):
    """A frozen dataclass of the record's name, fields and values."""
    names = FIELDS[type(record)]
    cls = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return cls(*(getattr(record, name) for name in names))


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_every_record_is_sampled():
    assert {type(r) for r in samples()} == set(FIELDS)


def test_repr_is_the_dataclass_repr():
    assert repr(DiscAutomorphism(0.6 + 0.8j, 0.3 + 0.1j)) == "DiscAutomorphism(lam=(0.6+0.8j), a=(0.3+0.1j))"
    for record in samples():
        assert repr(record) == repr(twin(record))


def test_equality_holds_within_one_class_only():
    records = samples()
    for i, r in enumerate(records):
        for j, s in enumerate(records):
            assert (r == s) is (i == j)
            assert (r != s) is (i != j)
        assert r.__eq__(values(r)) is NotImplemented
        assert r != values(r) and r != twin(r) and twin(r) != r


def test_equal_records_hash_equally():
    for record, again in zip(samples(), samples()):
        assert record is not again and record == again
        assert hash(record) == hash(again) == hash(values(record)) == hash(twin(record))
    assert len(set(samples()) | set(samples())) == len(samples())


def test_fields_can_be_neither_assigned_nor_deleted():
    for record in samples():
        for name in FIELDS[type(record)]:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle{k}": (lambda r, k=k: pickle.loads(pickle.dumps(r, k)))
        for k in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_round_trips_give_equal_records(trip):
    for record in samples():
        back = ROUND_TRIPS[trip](record)
        assert type(back) is type(record) and back == record and repr(back) == repr(record)


@pytest.mark.parametrize("trip", ["copy", "deepcopy", f"pickle{pickle.DEFAULT_PROTOCOL}"])
def test_round_trips_keep_every_bit_of_normalized_fields(trip):
    # lam and phase are stored divided by their modulus; a round trip that
    # ran the constructor again would divide once more, which moves the last
    # bits of about a fifth of them
    rng = random.Random(10)
    hexes = lambda z: (z.real.hex(), z.imag.hex())  # noqa: E731
    moved = 0
    for _ in range(1000):
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        a = rng.uniform(0.0, 0.99) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        phi = DiscAutomorphism(lam, a)
        spec = IsometrySpec(2.5, lam, (phi,), phi)
        moved += hexes(DiscAutomorphism(phi.lam, phi.a).lam) != hexes(phi.lam)
        back_phi, back_spec = ROUND_TRIPS[trip](phi), ROUND_TRIPS[trip](spec)
        assert back_phi == phi and back_spec == spec
        for got in (back_phi, back_spec.phi, back_spec.psi_zeros[0]):
            assert hexes(got.lam) == hexes(phi.lam) and hexes(got.a) == hexes(phi.a)
        assert hexes(back_spec.phase) == hexes(spec.phase)
    assert moved > 100  # the check is not vacuous
