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
from .moebius import DiscAutomorphism, compose
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
#: ``|z| <= 1`` each numerator factor has ``|z - a| <= 2``.  A denominator
#: factor is ``1 - conj(a) z`` for ``|a| < 1/2``, between 1/2 and 3/2, and
#: ``z - 1/conj(a)`` for ``|a| >= 1/2``, between ``(1 - |a|)/|a| >= 1e-14``
#: (zeros obey ``|a| <= MAX_ZERO_MODULUS``) and 3.  So a block's numerator
#: stays below ``2^16`` and its denominator between ``1e-224`` and ``3^16``;
#: the block scalar (``1/phase`` times the ``-conj(a)`` of the reflected
#: factors) has modulus between ``2^-16`` and 1: nothing leaves the normal
#: range.
_BLOCK = 16
#: terms per pass of ``_exact_sum``; its scratch is a few arrays of this
#: length and two exponent-bucket accumulators, about 0.3 MB in all
_SUM_CHUNK = 8192
#: grid points per block of ``U f`` in ``apply_isometry`` and
#: ``verify_isometry``: a block's scratch is a few complex arrays of this
#: length, about 1 MB in all, whatever the grid size
_GRID_BLOCK = 8192
#: ``_exact_sum`` sums its 26/27-bit halves in float64, exactly below 2^53
_SUM_MAX_TERMS = 2**26
#: ``np.frexp`` exponents of finite doubles lie in [-1073, 1024]
_SUM_BUCKETS = 1074 + 1024 + 1


def _circle(n: int, radius: float = 1.0, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """The points ``radius * exp(2 pi i k / n)`` for ``k`` in ``start..stop-1``
    (``stop`` defaults to ``n``).  Each point is computed on its own, so a
    slice of the grid has the bits of the whole grid's points."""
    z = 2j * np.pi * np.arange(start, n if stop is None else stop)
    z /= n
    np.exp(z, out=z)
    if radius != 1.0:
        z *= radius
    return z


def _exact_sum(chunks) -> float:
    """``math.fsum`` bit for bit, for a float array or for a zero-argument
    callable that returns an iterable of nonempty 1-d float arrays (their
    terms in order, one array per pass): a small superaccumulator.

    Each term ``m 2^e`` (``np.frexp``) splits into a 27-bit integer high half
    and a 26-bit low half of its 53-bit significand; ``np.bincount`` sums each
    half per exponent, exactly, because fewer than ``2^26`` terms keep every
    bucket below ``2^53``.  The buckets meet in one Python int, and the int
    true division rounds that exact sum once, to nearest even, as ``fsum``
    does.  Input with a negative, infinite or nan term, with ``2^26`` terms
    or more, or that sums to zero (whose sign ``fsum`` decides) goes to
    ``fsum`` itself, as does a sum that overflows; the callable is then
    called again, so no chunk needs to outlive its pass.  (Neal, "Fast exact
    summation using small and large superaccumulators", arXiv:1505.05571.)
    """
    if not callable(chunks):
        x = np.asarray(chunks, dtype=float).ravel()
        return _exact_sum(lambda: _slices(x))
    high = np.zeros(_SUM_BUCKETS)
    low = np.zeros(_SUM_BUCKETS)
    count = 0
    for chunk in chunks():
        count += chunk.size
        if not (count < _SUM_MAX_TERMS and chunk.min() >= 0.0 and chunk.max() < math.inf):
            return _fsum(chunks)
        m, e = np.frexp(chunk)
        m *= 2.0**27  # from [1/2, 1) to [2^26, 2^27): the integer part is the high half
        top = np.floor(m)
        m -= top  # exact: the low half, as a multiple of 2^-26
        e += 1074  # bucket index; subnormals have e >= -1073
        high += np.bincount(e, top, _SUM_BUCKETS)
        low += np.bincount(e, m, _SUM_BUCKETS)
    low *= 2.0**26
    total = 0
    for k in np.flatnonzero(high + low).tolist():
        total += ((int(high[k]) << 26) + int(low[k])) << k
    if total == 0:
        return _fsum(chunks)
    try:  # the term m 2^e sits in bucket e + 1074 with m scaled by 2^53
        return total / (1 << (1074 + 53))
    except OverflowError:
        return _fsum(chunks)


def _slices(x):
    """``x`` in consecutive slices of ``_SUM_CHUNK`` entries."""
    return (x[k : k + _SUM_CHUNK] for k in range(0, x.size, _SUM_CHUNK))


def _fsum(chunks) -> float:
    """``math.fsum`` over the terms of the arrays ``chunks()`` yields, in order."""
    return math.fsum(t for chunk in chunks() for t in chunk.tolist())


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
        return _circle(self.grid_size)


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
        self._samples = np.fft.ifft(padded)
        self._samples *= n

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
        # Horner in one buffer; on arrays the operations and bits of np.polyval
        x = np.asarray(z)
        c = self._coeffs
        y = np.full(x.shape, c[-1])
        for ck in c[-2::-1]:
            y *= x
            y += ck
        return y if y.ndim else y[()]


def inner_product_values(zeros, z, phase: complex = 1.0):
    """``phase * prod_k (z - a_k)/(1 - conj(a_k) z)`` over ``zeros`` at ``z``.

    ``zeros`` is a sequence of complex numbers and ``z`` a scalar or an
    array; a scalar ``z`` gives a ``complex`` and an empty ``zeros`` gives
    ``phase``.  Numerators and denominators are multiplied into two buffers
    and divided once per block of ``_BLOCK`` factors, which cannot under- or
    overflow for ``|z| <= 1`` and a unimodular ``phase``.  A zero with
    ``|a| >= 1/2`` uses ``1 - conj(a) z = -conj(a) (z - 1/conj(a))``: the
    grid sees two subtractions and two products for the factor (four passes
    instead of five), and the scalars ``-conj(a)`` are multiplied once per
    block into its first denominator, together with ``1/phase``.  The
    reflected difference satisfies ``(1 - |a|)/|a| <= |z - 1/conj(a)| <= 3``,
    so a block's denominator stays between ``1e-224`` and ``3^16``.
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
        block = zeros[start : start + _BLOCK]
        for a in block:
            if abs(a) >= 0.5:
                c *= -a.conjugate()
        num = np.subtract(zz, block[0], num)
        den = _denominator(zz, block[0], c, den)
        c = 1.0
        for a in block[1:]:
            tmp = np.subtract(zz, a, tmp)
            num *= tmp
            den *= _denominator(zz, a, 1.0, tmp)
        num /= den
        if out is None:
            out, num = num, None
        else:
            out *= num
    if out is None:
        out = np.full_like(zz, phase)
    return complex(out[0]) if scalar else out


def _denominator(zz, a, scale, buf):
    """``scale (1 - conj(a) z)``, divided by ``-conj(a)`` when ``|a| >= 1/2``, into ``buf``."""
    if abs(a) >= 0.5:
        buf = np.subtract(zz, 1.0 / a.conjugate(), buf)
        if scale != 1.0:
            buf *= scale
    else:
        buf = np.multiply(zz, -scale * a.conjugate(), buf)
        buf += scale
    return buf


def hp_norm(f, ctx: HpContext) -> float:
    """The H^p boundary norm ``(mean |f|^p)^(1/p)`` on the context grid.

    Accepts a ``BoundaryFunction`` (grid sizes must agree) or a raw sample
    array of length ``grid_size``.  The sum of ``|f|^p`` is exactly rounded
    (``_exact_sum``, equal to ``math.fsum`` bit for bit, without a Python
    loop over the samples), so the result is independent of summation order
    and platform reductions.
    """
    if isinstance(f, BoundaryFunction):
        if f.grid_size != ctx.grid_size:
            raise GridMismatch(
                f"function grid {f.grid_size} differs from context grid {ctx.grid_size}"
            )
        samples = f._samples
    else:
        samples = np.asarray(f, dtype=complex)
        if samples.ndim != 1 or samples.size != ctx.grid_size:
            raise GridMismatch(
                f"sample array of length {samples.size} does not match grid {ctx.grid_size}"
            )
    return _norm(lambda: _slices(samples), ctx)


def _norm(pieces, ctx: HpContext) -> float:
    """``(mean |x|^p)^(1/p)`` over the ``grid_size`` samples ``x`` of the
    complex arrays that ``pieces()`` yields; one piece's powers live at a
    time."""
    p = ctx.p

    def powers():
        for piece in pieces():
            x = np.abs(piece)
            x **= p
            yield x

    return float((_exact_sum(powers) / ctx.grid_size) ** (1.0 / p))


def _one_minus_abs2(a: complex) -> float:
    """``1 - |a|^2`` exactly rounded: over the common denominator of the
    binary fractions ``a.real`` and ``a.imag``, and ``int`` true division
    rounds correctly."""
    nx, dx = a.real.as_integer_ratio()
    ny, dy = a.imag.as_integer_ratio()
    den = (dx * dy) ** 2
    return (den - (nx * dy) ** 2 - (ny * dx) ** 2) / den


def weight_function(phi: DiscAutomorphism, p: float, z):
    """The isometry weight ``(conj(lam) phi'(z))^(1/p)``, analytic branch.

    Works on scalars and arrays, by one code path.  The radicand is
    ``(1 - |a|^2)/(1 - conj(a) z)^2``; with ``den = 1 - conj(a) z``, whose
    real part is positive on the closed disc, its analytic root that is
    positive at 0 is modulus times phase:

        (1 - |a|^2)^(1/p) * |den|^(-2/p) * exp(-(2i/p) arg den),

    where ``arg den`` lies in ``(-pi/2, pi/2)`` and ``1 - |a|^2`` is exactly
    rounded (``_one_minus_abs2``).  The result is written over
    ``den``, with two real scratch arrays.
    """
    p = _exponent(p)
    scalar = np.isscalar(z) or isinstance(z, complex)
    zz = np.asarray(z, dtype=complex)
    shape = zz.shape
    a = complex(phi.a)
    den = np.multiply(zz.reshape(-1), -a.conjugate())
    den += 1.0
    if np.any(den.real <= 0.0):
        raise BranchError(
            "1 - conj(a) z has nonpositive real part; the evaluation point "
            "lies outside the closed disc where the root branch is defined"
        )
    modulus = np.abs(den)
    modulus **= -2.0 / p
    modulus *= _one_minus_abs2(a) ** (1.0 / p)
    angle = np.angle(den)
    angle *= -2.0 / p
    np.cos(angle, out=den.real)
    np.sin(angle, out=den.imag)
    den *= modulus
    return complex(den[0]) if scalar else den.reshape(shape)


def apply_isometry(spec: IsometrySpec, f: BoundaryFunction, ctx: HpContext) -> np.ndarray:
    """Boundary samples of ``U f`` on the context grid.

    ``U f = phase * Psi * (conj(lam) phi')^(1/p) * (f o phi)``; requires a
    finite spec (truncate infinite constructions first) and matching ``p``
    and grid sizes.  The grid is computed in blocks of ``_GRID_BLOCK``
    points, each block's last product written into its slice of the output,
    so the working set is the output plus one block's scratch.
    """
    _check_applicable(spec, f, ctx)
    out = np.empty(ctx.grid_size, dtype=complex)
    for _ in _isometry_blocks(spec, f, ctx.grid_size, out):
        pass
    return out


def _check_applicable(spec: IsometrySpec, f: BoundaryFunction, ctx: HpContext) -> None:
    """Raise unless ``spec`` is finite and agrees with ``ctx`` and ``f``."""
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


def _isometry_blocks(spec: IsometrySpec, f: BoundaryFunction, n: int, out=None):
    """Yield ``U f`` on consecutive slices of at most ``_GRID_BLOCK`` points
    of the ``n``-point grid; with ``out``, each block is written into (and
    yielded as) its slice of ``out``.

    Every operation is elementwise, so a block has the bits of the same
    points of a whole-grid evaluation.
    """
    phi = spec.phi
    for start in range(0, n, _GRID_BLOCK):
        stop = min(n, start + _GRID_BLOCK)
        zeta = _circle(n, start=start, stop=stop)
        # every factor is multiplied into the kernel's output, and zeta is
        # freed before f(w): at most seven block-sized arrays live at once
        u = spec.inner_values(zeta)
        u *= spec.phase
        w = inner_product_values([phi.a], zeta, phi.lam)
        u *= weight_function(phi, spec.p, zeta)
        del zeta
        yield np.multiply(u, f(w), out=None if out is None else out[start:stop])


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
    constant; ``rho_numeric`` is the phase of its grid mean and ``spread``
    the maximal deviation of the samples from that mean.
    """
    n = int(grid_size)
    if n < 16:
        raise DomainError("grid_size must be at least 16")
    zeta = _circle(n)
    w = inner_product_values([phi.a], zeta, phi.lam)
    ratio = weight_function(phi, p, zeta)
    ratio *= weight_function(psi, p, w)
    ratio /= weight_function(compose(psi, phi), p, zeta)
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
    _check_applicable(spec, f, ctx)
    norm_in = hp_norm(f, ctx)
    if norm_in == 0.0:
        raise DomainError("test function is identically zero")
    norm_out = _norm(lambda: _isometry_blocks(spec, f, ctx.grid_size), ctx)
    return {
        "norm_in": norm_in,
        "norm_out": norm_out,
        "rel_defect": abs(norm_out - norm_in) / norm_in,
        "N": ctx.grid_size,
    }
