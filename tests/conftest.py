"""Shared fixtures and random generators for the test suite.

Random objects are drawn from a fixed-seed generator so every run exercises
the same instances; hypothesis adds shrinkable fuzzing on top.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hpiso import (
    DiscAutomorphism,
    compose,
    disc_translation,
    inverse,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)

SEED = 20260814


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def interior_point(rng: np.random.Generator, r_max: float = 0.9) -> complex:
    """Uniform-ish point with |z| <= r_max."""
    r = r_max * math.sqrt(rng.uniform())
    return r * cmath.exp(2j * math.pi * rng.uniform())


def unimodular(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * math.pi * rng.uniform())


def random_automorphism(rng: np.random.Generator, r_max: float = 0.8) -> DiscAutomorphism:
    """A generic automorphism; its conjugacy class is whatever it is."""
    return DiscAutomorphism(unimodular(rng), interior_point(rng, r_max))


def random_elliptic(rng: np.random.Generator) -> DiscAutomorphism:
    """Conjugate of a rotation by an angle bounded away from 0 and 2 pi."""
    theta = rng.uniform(0.2, 2.0 * math.pi - 0.2)
    eta = random_automorphism(rng, 0.7)
    return compose(eta, compose(rotation(cmath.exp(1j * theta)), inverse(eta)))


def random_hyperbolic(rng: np.random.Generator) -> DiscAutomorphism:
    """Conjugate of a standard hyperbolic with translation bounded away from 0."""
    r = rng.uniform(0.1, 0.85) * (1.0 if rng.uniform() < 0.5 else -1.0)
    eta = random_automorphism(rng, 0.7)
    return compose(eta, compose(standard_hyperbolic(r), inverse(eta)))


def random_parabolic(rng: np.random.Generator) -> DiscAutomorphism:
    """Conjugate of a parabolic fixing 1, either orientation."""
    t = rng.uniform(0.15, math.pi - 0.15) * (1.0 if rng.uniform() < 0.5 else -1.0)
    c = cmath.exp(1j * t)
    eta = random_automorphism(rng, 0.7)
    return compose(eta, compose(parabolic_fixing_one(c), inverse(eta)))


def random_by_kind(rng: np.random.Generator, kind: str) -> DiscAutomorphism:
    return {
        "Elliptic": random_elliptic,
        "Parabolic": random_parabolic,
        "Hyperbolic": random_hyperbolic,
    }[kind](rng)


def exactly_rounded_sum(gaps) -> float:
    """The float nearest the exact rational sum of ``gaps``."""
    return float(sum(map(Fraction, gaps.tolist()), Fraction(0)))


def phi_parabolic_plus() -> DiscAutomorphism:
    """The standard positively oriented parabolic fixing 1 (lam = i, a = (1+i)/2)."""
    return parabolic_fixing_one(1j)


def random_conjugator(rng: np.random.Generator) -> DiscAutomorphism:
    return random_automorphism(rng, 0.7)


def random_disc_translation(rng: np.random.Generator, r_max: float = 0.6) -> DiscAutomorphism:
    return disc_translation(interior_point(rng, r_max))
