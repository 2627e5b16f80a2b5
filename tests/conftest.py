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
    boundary_points,
    circle_points,
    compose,
    disc_translation,
    eval_auto,
    inverse,
    parabolic_fixing_one,
    rotation,
    standard_hyperbolic,
)

SEED = 20260814


#: maps in the parabolic trace band that ``classify`` reads as one class and
#: their inverses as another: elliptic then parabolic, and parabolic then
#: elliptic.  Orbit certificates chart the inverse through ``classify(phi)``,
#: so they follow the first class.
NEAR_BAND_PINNED = (
    DiscAutomorphism(-0.9999999999967364 - 2.554833659191588e-06j, -0.21716731414965437 + 0.9761343952875513j),
    DiscAutomorphism(-0.9999999999988511 - 1.515832220698568e-06j, 0.31940929405164203 + 0.9476168544685437j),
)


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


# ---------------------------------------------------------------------------
# the commutant tests' oracle

_COMMUTE_POINTS = tuple(circle_points(0.5, 12) + boundary_points(12))


def _moved(outer: DiscAutomorphism, inner: DiscAutomorphism, z: complex) -> float:
    """First-order bound on how far ``outer(inner(z))`` moves per unit
    relative change of the entries of both maps.  A map with zero ``a`` moves
    by at most ``1 + 2/|1 - conj(a) z|`` at ``z`` and has derivative ``(1 -
    |a|^2)/|1 - conj(a) w|^2`` at ``w``, which carries the move of ``inner``."""
    w = eval_auto(inner, z)
    bo, bi = abs(1.0 - outer.a.conjugate() * w), abs(1.0 - inner.a.conjugate() * z)
    stretch = (1.0 - abs(outer.a)) * (1.0 + abs(outer.a)) / (bo * bo)
    return 1.0 + 2.0 / bo + stretch * (1.0 + 2.0 / bi)


def commutes(phi: DiscAutomorphism, sigma: DiscAutomorphism) -> bool:
    """Whether ``phi o sigma = sigma o phi`` pointwise within rounding.

    Each sample point gets its own tolerance: what moving every entry of
    both maps by ``2^12 u`` (relative) can do to the two compositions there
    (``_moved``), and never less than ``1e-10``.  The per-point part covers
    the rounding of ``compose`` and ``eval_auto`` near the circle, where
    commutant elements far out agree only to ``1e-10`` or worse.  The floor
    covers maps built through ill-conditioned charts, whose entries carry
    more than ``2^12 u``: commuting pairs conjugated by a zero ``1e-5`` or
    ``1e-6`` from the circle, with multipliers near 1, differ by up to 64
    times the per-point part.  Non-commuting pairs in a seeded sweep stayed above
    ``6e10 u`` times it.
    """
    f, g = compose(phi, sigma), compose(sigma, phi)
    return all(
        abs(eval_auto(f, z) - eval_auto(g, z))
        <= max(1e-10, 2.0**-41 * (_moved(phi, sigma, z) + _moved(sigma, phi, z)))
        for z in _COMMUTE_POINTS
    )
