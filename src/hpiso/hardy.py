"""Hardy space boundary numerics and weighted composition isometries.

For ``p >= 1`` and a disc automorphism ``phi = (lam, a)`` the operator

    (U f)(z) = phase * Psi(z) * (conj(lam) phi'(z))^(1/p) * f(phi(z)),

with ``Psi`` a finite (or truncated infinite) Blaschke product, is an
isometry of H^p: ``|Psi| = 1`` on the circle, ``|phi'|`` is the boundary
Jacobian of ``phi``, and the change of variables absorbs it.  For ``p != 2``
every isometry of H^p has this form, which is what makes the data class
``IsometrySpec`` (``hpiso.spec``) a complete description.

The branch: ``conj(lam) phi'(z) = (1 - |a|^2)/(1 - conj(a) z)^2`` has
argument ``-2 Arg(1 - conj(a) z)``, and ``Re(1 - conj(a) z) >= 1 - |a| > 0``
on the closed disc, so the argument stays in ``(-pi, pi)`` and the principal
power IS the analytic ``p``-th root.  ``BranchError`` can therefore only
trigger on points outside the closed disc.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BranchError, DegreeError, DomainError, GridMismatch
from .moebius import DiscAutomorphism
from .spec import IsometrySpec, _exponent

__all__ = [
    "HpContext",
    "BoundaryFunction",
    "CompositionConstant",
    "inner_product_values",
    "hp_norm",
    "weight_function",
    "apply_isometry",
    "composition_constant",
    "rho_closed_form",
    "random_polynomial",
    "verify_isometry",
]

#: default number of boundary samples
DEFAULT_GRID = 512
#: factors multiplied per division in ``inner_product_values``.  For
#: ``|z| <= 1`` each numerator factor has ``|z - a| <= 2`` and each
#: denominator factor ``|1 - conj(a) z| >= 1 - |a| >= 1e-14`` (zeros obey
#: ``|a| <= MAX_ZERO_MODULUS``), so a block's numerator stays below ``2^16``
#: and its denominator above ``1e-224``: neither leaves the normal range.
#: (The first denominator also carries ``1/phase``, of modulus 1.)
_BLOCK = 16


def _grid_size(n) -> int:
    """``n`` as an int, checked to be a power of two, at least 64."""
    n = int(n)
    if n < 64 or n & (n - 1) != 0:
        raise DomainError("grid_size must be a power of two, at least 64")
    return n


@dataclass(frozen=True)
class HpContext:
    """Exponent ``p`` and boundary grid resolution for H^p computations.

    ``grid_size`` must be a power of two, at least 64.  ``p = 2`` is allowed
    for norm computations but emits a warning: the rigidity theory implemented
    by this package (isometries are exactly the weighted composition maps)
    holds only for ``p != 2``.
    """

    p: float
    grid_size: int = DEFAULT_GRID

    def __post_init__(self):
        p = _exponent(self.p)
        n = _grid_size(self.grid_size)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "grid_size", n)
        if p == 2.0:
            warnings.warn(
                "p = 2 is the Hilbert space case: H^2 has many more isometries "
                "than the weighted composition operators modeled here",
                UserWarning,
                stacklevel=2,
            )

    @property
    def grid(self) -> np.ndarray:
        """The ``grid_size`` boundary points ``exp(2 pi i k / N)``."""
        n = self.grid_size
        return np.exp(2j * np.pi * np.arange(n) / n)


class BoundaryFunction:
    """An analytic polynomial together with its boundary samples.

    ``coeffs[j]`` multiplies ``z^j``.  The degree is capped at
    ``grid_size/4`` so that moderate powers of ``|f|`` remain resolved by the
    grid; violating the cap raises ``DegreeError``.  Samples are computed by
    zero-padded inverse FFT, and ``__call__`` evaluates the polynomial
    anywhere on the closed disc (Horner).
    """

    def __init__(self, coeffs, grid_size: int = DEFAULT_GRID):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d sequence")
        n = _grid_size(grid_size)
        if coeffs.size - 1 >= n // 4:
            raise DegreeError(
                f"degree {coeffs.size - 1} too high for grid {n}; need degree < N/4"
            )
        self._coeffs = coeffs.copy()
        self._grid_size = n
        padded = np.zeros(n, dtype=complex)
        padded[: coeffs.size] = coeffs
        self._samples = np.fft.ifft(padded) * n

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs.copy()

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    @property
    def grid_size(self) -> int:
        return self._grid_size

    @property
    def samples(self) -> np.ndarray:
        return self._samples.copy()

    def __call__(self, z):
        return np.polyval(self._coeffs[::-1], z)


def inner_product_values(zeros, z, phase: complex = 1.0):
    """``phase * prod_k (z - a_k)/(1 - conj(a_k) z)`` over ``zeros`` at ``z``.

    ``zeros`` is a sequence of complex numbers and ``z`` a scalar or an
    array; a scalar ``z`` gives a ``complex`` and an empty ``zeros`` gives
    ``phase``.  Numerators and denominators are multiplied into two buffers
    and divided once per block of ``_BLOCK`` factors, which cannot under- or
    overflow for ``|z| <= 1`` and a unimodular ``phase``.  The phase enters
    the first denominator as ``1/phase``, so it costs no pass of its own.
    """
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    if scalar:  # ufuncs return no 0-d arrays to write into
        zz = zz.reshape(1)
    c = 1.0 / complex(phase)
    out = num = den = tmp = None
    for start in range(0, len(zeros), _BLOCK):
        # a buffer of None makes the ufunc allocate: the first block's
        # numerator becomes the output and later blocks reuse one numerator
        # buffer, so at most three grid-sized scratch arrays (num, den, tmp)
        a = zeros[start]
        num = np.subtract(zz, a, num)
        den = np.multiply(zz, -c * a.conjugate(), den)
        den += c  # c (1 - conj(a) z)
        c = 1.0
        for a in zeros[start + 1 : start + _BLOCK]:
            tmp = np.subtract(zz, a, tmp)
            num *= tmp
            np.multiply(zz, -a.conjugate(), tmp)
            tmp += 1.0
            den *= tmp
        num /= den
        if out is None:
            out, num = num, None
        else:
            out *= num
    if out is None:
        out = np.full_like(zz, phase)
    return complex(out[0]) if scalar else out


def hp_norm(f, ctx: HpContext) -> float:
    """The H^p boundary norm ``(mean |f|^p)^(1/p)`` on the context grid.

    Accepts a ``BoundaryFunction`` (grid sizes must agree) or a raw sample
    array of length ``grid_size``.  The mean is an exactly rounded ``fsum``,
    so the result is independent of summation order and platform reductions.
    """
    if isinstance(f, BoundaryFunction):
        if f.grid_size != ctx.grid_size:
            raise GridMismatch(
                f"function grid {f.grid_size} differs from context grid {ctx.grid_size}"
            )
        samples = f.samples
    else:
        samples = np.asarray(f, dtype=complex)
        if samples.ndim != 1 or samples.size != ctx.grid_size:
            raise GridMismatch(
                f"sample array of length {samples.size} does not match grid {ctx.grid_size}"
            )
    powers = np.abs(samples) ** ctx.p
    return float((math.fsum(powers) / ctx.grid_size) ** (1.0 / ctx.p))


def weight_function(phi: DiscAutomorphism, p: float, z):
    """The isometry weight ``(conj(lam) phi'(z))^(1/p)``, analytic branch.

    Works on scalars and arrays.  The radicand is
    ``(1 - |a|^2)/(1 - conj(a) z)^2``; its argument is twice the argument of
    ``1 - conj(a) z``, whose real part is positive on the closed disc, so the
    principal power below is the analytic branch that is positive at 0.
    """
    p = _exponent(p)
    scalar = np.isscalar(z) or isinstance(z, complex)
    zz = np.asarray(z, dtype=complex)
    den = 1.0 - np.conj(phi.a) * zz
    if np.any(den.real <= 0.0):
        raise BranchError(
            "1 - conj(a) z has nonpositive real part; the evaluation point "
            "lies outside the closed disc where the root branch is defined"
        )
    radicand = (1.0 - abs(phi.a) ** 2) / (den * den)
    out = radicand ** (1.0 / p)
    return complex(out[()]) if scalar else out


def apply_isometry(spec: IsometrySpec, f: BoundaryFunction, ctx: HpContext) -> np.ndarray:
    """Boundary samples of ``U f`` on the context grid.

    ``U f = phase * Psi * (conj(lam) phi')^(1/p) * (f o phi)``; requires a
    finite spec (truncate infinite constructions first) and matching ``p``
    and grid sizes.
    """
    if spec.infinite is not None:
        raise DomainError(
            "spec carries an infinite construction; truncate_spec(...) it first"
        )
    if float(spec.p) != float(ctx.p):
        raise DomainError(f"spec has p = {spec.p}, context has p = {ctx.p}")
    if f.grid_size != ctx.grid_size:
        raise GridMismatch(
            f"function grid {f.grid_size} differs from context grid {ctx.grid_size}"
        )
    zeta = ctx.grid
    phi = spec.phi
    w = inner_product_values([phi.a], zeta, phi.lam)
    return spec.phase * spec.inner_values(zeta) * weight_function(phi, spec.p, zeta) * f(w)


def rho_closed_form(phi: DiscAutomorphism, psi: DiscAutomorphism, p: float) -> complex:
    """The constant ``rho`` in ``U_phi U_psi = rho U_{psi o phi}``, closed form.

    The radicands compose by the chain rule up to the unimodular factor
    ``conj(lam_phi lam_psi) lam_{psi o phi}``; comparing principal roots at
    ``z = 0``, where two of the three weights are positive, leaves

        rho = exp(i (2/p) Arg(1 + conj(lam_phi a_phi) a_psi)).
    """
    p = _exponent(p)
    inner = 1.0 + (phi.lam * phi.a).conjugate() * psi.a
    return cmath.exp(1j * (2.0 / p) * cmath.phase(inner))


@dataclass(frozen=True)
class CompositionConstant:
    """Closed-form and grid-sampled values of the composition constant."""

    rho_closed: complex
    rho_numeric: complex
    spread: float


def composition_constant(
    phi: DiscAutomorphism, psi: DiscAutomorphism, p: float, grid_size: int = 256
) -> CompositionConstant:
    """Compare ``rho_closed_form`` against the sampled weight ratio.

    The ratio ``W_phi(z) W_psi(phi(z)) / W_{psi o phi}(z)`` is a unimodular
    constant; ``rho_numeric`` is its renormalized grid mean and ``spread``
    the maximal deviation of the samples from that mean.
    """
    from .moebius import compose  # local import: moebius must not import hardy

    n = int(grid_size)
    if n < 16:
        raise DomainError("grid_size must be at least 16")
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    w = inner_product_values([phi.a], zeta, phi.lam)
    comp = compose(psi, phi)
    ratio = (
        weight_function(phi, p, zeta)
        * weight_function(psi, p, w)
        / weight_function(comp, p, zeta)
    )
    mean = complex(ratio.mean())
    if mean == 0:
        raise DomainError("degenerate weight ratio")
    rho_num = mean / abs(mean)
    spread = float(np.max(np.abs(ratio - rho_num)))
    return CompositionConstant(rho_closed_form(phi, psi, p), rho_num, spread)


def random_polynomial(
    rng: np.random.Generator, degree: int, min_root_modulus: float = 1.3
) -> np.ndarray:
    """Random test polynomial with every zero outside ``|z| >= min_root_modulus``.

    With the zeros bounded away from the circle, ``|f|^p`` extends to a
    real-analytic function of the angle for every ``p >= 1`` (including odd
    and fractional exponents), so boundary trapezoid quadratures converge
    geometrically.  Coefficients are returned in ascending order, scaled so
    ``|f(0)|`` is of order one.
    """
    degree = int(degree)
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if min_root_modulus <= 1.0:
        raise DomainError("roots must stay outside the closed unit disc")
    if degree == 0:
        return np.array([1.0 + 0.0j]) * cmath.exp(2j * math.pi * rng.uniform())
    radii = min_root_modulus + rng.uniform(0.0, 0.7, size=degree)
    roots = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=degree))
    coeffs = np.poly(roots)[::-1].astype(complex)
    coeffs *= cmath.exp(2j * math.pi * rng.uniform()) * (0.5 + rng.uniform()) / abs(coeffs[0])
    return coeffs


def verify_isometry(
    spec: IsometrySpec,
    ctx: HpContext,
    f: Optional[BoundaryFunction] = None,
    seed: int = 0,
    degree: Optional[int] = None,
) -> dict:
    """Norm-preservation report: ``{"norm_in", "norm_out", "rel_defect", "N"}``.

    When ``f`` is omitted a seeded random polynomial is used, so the report
    is reproducible.  ``rel_defect`` is the relative norm discrepancy; for a
    correct isometry it reflects only quadrature error, which decays
    spectrally in ``N`` for functions analytic past the boundary.
    """
    if f is None:
        if degree is None:
            degree = min(24, ctx.grid_size // 4 - 1)
        elif degree >= ctx.grid_size // 4:  # BoundaryFunction's cap, before the O(degree^2) build
            raise DegreeError(f"degree {degree} too high for grid {ctx.grid_size}; need degree < N/4")
        rng = np.random.default_rng(seed)
        f = BoundaryFunction(random_polynomial(rng, degree), ctx.grid_size)
    out = apply_isometry(spec, f, ctx)
    norm_in = hp_norm(f, ctx)
    norm_out = hp_norm(out, ctx)
    if norm_in == 0.0:
        raise DomainError("test function is identically zero")
    return {
        "norm_in": norm_in,
        "norm_out": norm_out,
        "rel_defect": abs(norm_out - norm_in) / norm_in,
        "N": ctx.grid_size,
    }
