"""hpiso: holomorphic automorphisms of the unit disc, Blaschke products over
their orbits, and the surjective isometries of the Hardy spaces H^p (p != 2)
built from them — with decision procedures for classification, isometric
equivalence, the Crownover range-intersection dichotomy, and certified
convergence bounds throughout.
"""

from __future__ import annotations

from . import blaschke, errors, hardy, isometries, moebius
from .blaschke import *  # noqa: F401,F403 - each module's __all__ is its public API
from .errors import *  # noqa: F401,F403
from .hardy import *  # noqa: F401,F403
from .isometries import *  # noqa: F401,F403
from .moebius import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *moebius.__all__,
    *blaschke.__all__,
    *hardy.__all__,
    *isometries.__all__,
    *errors.__all__,
]
