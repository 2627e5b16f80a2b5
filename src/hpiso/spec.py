"""The data of a weighted composition isometry of H^p, without numpy.

``IsometrySpec`` and the one check of the exponent ``p`` live here, so the
equivalence procedure and the CLI build and compare specs without loading
the boundary-grid numerics of ``hardy``; only ``inner_values`` needs them.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError
from .moebius import DiscAutomorphism

__all__ = ["IsometrySpec"]


def _exponent(p) -> float:
    """``p`` as a float, checked to be a finite real number ``>= 1``."""
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError("p must be a finite real number with p >= 1")
    return p


class IsometrySpec(Record):
    """Data of a weighted composition isometry of H^p.

    ``phase`` is scaled to unit modulus.  ``psi_zeros`` holds the
    finite Blaschke factors of ``Psi`` as disc automorphisms - each factor's
    own phase is part of the factor.  ``infinite`` optionally names an
    infinite-product construction (see ``hpiso.isometries``); such specs
    must be truncated before they can be applied to functions.
    """

    __slots__ = ("p", "phase", "psi_zeros", "phi", "infinite")

    def __init__(
        self, p: float, phase: complex, psi_zeros: tuple, phi: DiscAutomorphism, infinite: object = None
    ):
        p = _exponent(p)
        phase = complex(phase)
        if phase == 0 or not math.isfinite(abs(phase)):
            raise DomainError("phase must be a finite nonzero complex number")
        factors = tuple(psi_zeros)
        for fac in factors:
            if not isinstance(fac, DiscAutomorphism):
                raise DomainError("psi_zeros must contain DiscAutomorphism factors")
        if not isinstance(phi, DiscAutomorphism):
            raise DomainError("phi must be a DiscAutomorphism")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phase", phase / abs(phase))
        object.__setattr__(self, "psi_zeros", factors)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "infinite", infinite)

    def inner_values(self, z):
        """Values of the finite part of ``Psi`` at ``z`` (scalar or array)."""
        from .hardy import inner_product_values

        lam = math.prod(fac.lam for fac in self.psi_zeros)
        return inner_product_values([fac.a for fac in self.psi_zeros], z, lam)
