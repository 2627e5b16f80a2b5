"""hpiso: holomorphic automorphisms of the unit disc, Blaschke products over
their orbits, and the surjective isometries of the Hardy spaces H^p (p != 2)
built from them — with decision procedures for classification, isometric
equivalence, the Crownover range-intersection dichotomy, and certified
convergence bounds throughout.

``errors`` and ``moebius`` (pure Python) load with the package.  The other
modules load on first access to one of their names (PEP 562): the pure-Python
``spec`` and ``equivalence``, and the numpy modules ``blaschke``, ``hardy``
and ``isometries``.  So ``from hpiso import classify``, ``decide_equivalent``
and the CLI's automorphism and ``equiv`` subcommands never import numpy.
Nor do they import ``dataclasses``: the records of the pure-Python modules
are immutable slot classes on the private base ``_record.Record``.
"""

from __future__ import annotations

import importlib

from . import errors, moebius
from .errors import *  # noqa: F401,F403 - each module's __all__ is its public API
from .moebius import *  # noqa: F401,F403

__version__ = "0.1.0"

#: public names of the lazily loaded modules, by module; each list is that
#: module's ``__all__`` (tests/test_imports.py keeps them equal)
_LAZY = {
    "blaschke": (
        "ZeroSequence", "TailCertificate", "DivergenceCertificate",
        "MergedTailCertificate", "ConvergenceVerdict", "normalized_factor",
        "orbit_terms", "convergence_certificate", "classify_blaschke",
        "eval_blaschke", "write_orbit_csv", "write_csv_rows",
    ),
    "spec": ("IsometrySpec",),
    "hardy": (
        "HpContext", "BoundaryFunction", "CompositionConstant",
        "inner_product_values", "hp_norm", "weight_function", "apply_isometry",
        "composition_constant", "rho_closed_form", "random_polynomial",
        "verify_isometry",
    ),
    "isometries": (
        "InfiniteConstruction", "CrownoverVerdict", "InvariantSubspaceReport",
        "codimension", "decide_crownover", "evidence_rows",
        "construct_zero_intersection", "construct_nonzero_intersection",
        "zero_intersection_shift_defect", "truncate_spec", "conjugated_spec",
        "invariant_subspace_check",
    ),
    "equivalence": ("EquivWitness", "decide_equivalent"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *moebius.__all__,
    *_HOME,  # the names of _LAZY, module by module
    *errors.__all__,
]


def __getattr__(name: str):
    if name in _LAZY:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        # ``from . import serialize`` asks here first: answer without importing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
