"""Sampled functions on a periodic grid, discrete Fourier analysis, interval
geometry, corona masks, norms and the Hardy-Littlewood maximal function.

Conventions fixed here and used by every other module:

* A :class:`SampledFunction` lives on the uniform grid
  ``x_j = origin + j*h``, ``j = 0..n-1`` with ``n`` a power of two, and is
  treated as periodic with period ``n*h``.
* The forward transform is calibrated to the continuum transform
  ``F(xi) = integral f(x) exp(-2*pi*i*x*xi) dx`` via the Riemann sum, so the
  discrete L2 norms of a function and its spectrum coincide exactly
  (Parseval), and the inverse is the matching Riemann sum with
  ``exp(+2*pi*i*x*xi)``.
* Frequencies are cyclic (cycles per unit length) and stored in increasing
  order ``xi_k = (k - n/2) / (n*h)``.
* Distances from a point to an interval are measured to the interval's
  center; interval masks are open (strict inequality at the endpoints).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bumps import smooth_bump

__all__ = [
    "Interval",
    "SampledFunction",
    "Spectrum",
    "CoronaMask",
    "dft_forward",
    "dft_inverse",
    "lp_norm",
    "corona",
    "corona_masks",
    "corona_count",
    "hardy_littlewood_max",
    "spectral_derivative",
    "make_bump",
    "make_band_limited_bump",
    "bump_bandwidth",
    "EmptyRegionWarning",
]


class EmptyRegionWarning(UserWarning):
    """Raised (as a warning) when a norm is requested over an empty region."""


@dataclass(frozen=True)
class Interval:
    """An interval given by center and positive length."""

    center: float
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"interval length must be positive, got {self.length}")

    @classmethod
    def from_endpoints(cls, left: float, right: float) -> "Interval":
        return cls(0.5 * (left + right), right - left)

    @property
    def left(self) -> float:
        return self.center - 0.5 * self.length

    @property
    def right(self) -> float:
        return self.center + 0.5 * self.length

    def dilate(self, factor: float) -> "Interval":
        """Same center, length scaled by `factor`."""
        return Interval(self.center, self.length * factor)

    def contains(self, other: "Interval") -> bool:
        """Closed-inclusion test on endpoints (tolerates roundoff)."""
        eps = 1e-12 * max(1.0, self.length)
        return other.left >= self.left - eps and other.right <= self.right + eps

    def strictly_contains(self, other: "Interval") -> bool:
        eps = 1e-12 * max(1.0, self.length)
        return self.contains(other) and other.length < self.length - eps

    def intersects(self, other: "Interval") -> bool:
        return other.left < self.right and self.left < other.right

    def mask(self, grid: "SampledFunction | np.ndarray") -> np.ndarray:
        """Open mask {x : |x - c| < length/2} on the grid points."""
        x = grid.x if isinstance(grid, SampledFunction) else np.asarray(grid)
        return np.abs(x - self.center) < 0.5 * self.length


def _check_power_of_two(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count must be a power of two, got {n}")


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued function sampled on a uniform periodic grid."""

    origin: float
    spacing: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        v = np.ascontiguousarray(np.asarray(self.values, dtype=complex))
        _check_power_of_two(v.size)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def period(self) -> float:
        return self.n * self.spacing

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n)

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.origin, self.spacing, values)

    def same_grid(self, other: "SampledFunction") -> bool:
        return (
            self.n == other.n
            and abs(self.origin - other.origin) <= 1e-12 * max(1.0, abs(self.origin))
            and abs(self.spacing - other.spacing) <= 1e-12 * self.spacing
        )

    @classmethod
    def zeros(cls, origin: float, spacing: float, n: int) -> "SampledFunction":
        _check_power_of_two(n)
        return cls(origin, spacing, np.zeros(n, dtype=complex))


class Spectrum(SampledFunction):
    """A sampled function indexed by frequency bins xi_k (increasing)."""

    @property
    def xi(self) -> np.ndarray:
        return self.x


@dataclass(frozen=True)
class CoronaMask:
    """Boolean mask of the k-th scaled corona around an interval."""

    interval: Interval
    index: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("corona index must be nonnegative")


def _frequencies(f: SampledFunction) -> np.ndarray:
    n = f.n
    dxi = 1.0 / (n * f.spacing)
    return (np.arange(n) - n // 2) * dxi


def dft_forward(f: SampledFunction) -> Spectrum:
    """Riemann-sum discrete Fourier transform, continuum-calibrated.

    Returns the spectrum F with ``F(xi_k) = h * sum_j f(x_j) e^{-2 pi i x_j xi_k}``
    on the shifted frequency grid ``xi_k = (k - n/2)/(n h)``.  The discrete L2
    norm is preserved exactly: ``lp_norm(f, 2) == lp_norm(dft_forward(f), 2)``
    up to roundoff.
    """
    n = f.n
    xi = _frequencies(f)
    # (-1)^j factor realizes the half-band shift; origin phase restores x_0.
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spec = np.fft.fft(f.values * signs)
    spec *= f.spacing * np.exp(-2j * np.pi * f.origin * xi)
    return Spectrum(xi[0], xi[1] - xi[0], spec)


def dft_inverse(spec: Spectrum, origin: float | None = None) -> SampledFunction:
    """Inverse of :func:`dft_forward`.

    The spectrum does not record the spatial origin. If `origin` is omitted
    it defaults to ``-n*h/2``; passing ``f.origin`` inverts
    ``dft_forward(f)`` exactly, to machine precision.
    """
    n = spec.n
    dxi = spec.spacing
    h = 1.0 / (n * dxi)
    if origin is None:
        origin = -0.5 * n * h
    xi = spec.x
    vals = spec.values * np.exp(2j * np.pi * origin * xi) * dxi
    out = np.fft.ifft(vals) * n
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out *= signs
    return SampledFunction(origin, h, out)


def lp_norm(f: SampledFunction, p: float, region: np.ndarray | None = None) -> float:
    """Riemann-sum L^p norm over a mask-defined region; p = inf gives the max.

    Empty regions return 0 and emit :class:`EmptyRegionWarning`.
    """
    if p != np.inf and not p > 0:
        raise ValueError(f"p must lie in (0, inf], got {p}")
    vals = np.abs(f.values)
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != vals.shape:
            raise ValueError("region mask does not match the grid")
        vals = vals[region]
    if vals.size == 0:
        warnings.warn("norm over an empty region", EmptyRegionWarning)
        return 0.0
    if p == np.inf:
        return float(vals.max())
    return float((np.sum(vals**p) * f.spacing) ** (1.0 / p))


def corona(I: Interval, k: int, grid: SampledFunction | np.ndarray) -> CoronaMask:
    """Mask of the k-th corona: points with 2^k <= 1 + |x - c(I)|/|I| < 2^{k+1}.

    The k = 0 corona equals the open mask of the dilated interval 2I.
    """
    if k < 0:
        raise ValueError("corona index must be nonnegative")
    x = grid.x if isinstance(grid, SampledFunction) else np.asarray(grid)
    scaled = 1.0 + np.abs(x - I.center) / I.length
    mask = (scaled >= 2.0**k) & (scaled < 2.0 ** (k + 1))
    return CoronaMask(I, k, mask)


def corona_count(I: Interval, grid: SampledFunction | np.ndarray) -> int:
    """Smallest K such that coronas k = 0..K-1 cover every grid point."""
    x = grid.x if isinstance(grid, SampledFunction) else np.asarray(grid)
    scaled = 1.0 + np.abs(x - I.center) / I.length
    return int(np.floor(np.log2(scaled.max()))) + 1


def corona_masks(I: Interval, grid: SampledFunction | np.ndarray) -> list[CoronaMask]:
    """All coronas needed to cover the grid, in order k = 0, 1, ..."""
    return [corona(I, k, grid) for k in range(corona_count(I, grid))]


def hardy_littlewood_max(f: SampledFunction) -> SampledFunction:
    """Discrete Hardy-Littlewood maximal function.

    At each grid point, the supremum of the plain average of |f| over all
    contiguous (non-wrapping) index windows containing the point.  One sweep
    over window starts: O(n^2) time and O(n) memory.
    """
    a = np.abs(f.values).astype(float)
    n = a.size
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    best = np.zeros(n)
    for start in range(n):
        # means of the windows [start, stop] for every stop, then for each
        # point the best window that starts here and reaches past it
        means = (prefix[start + 1:] - prefix[start]) / np.arange(1, n - start + 1)
        reach = np.maximum.accumulate(means[::-1])[::-1]
        np.maximum(best[start:], reach, out=best[start:])
    return f.with_values(best.astype(complex))


def spectral_derivative(f: SampledFunction, order: int = 1) -> SampledFunction:
    """Derivative via multiplication by (2 pi i xi)^order in frequency.

    The caller is responsible for `f` being band-limited relative to the
    grid; energy at the unpaired Nyquist bin is handled like any other bin.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    spec = dft_forward(f)
    mult = (2j * np.pi * spec.x) ** order
    return dft_inverse(Spectrum(spec.origin, spec.spacing, spec.values * mult), f.origin)


def make_bump(center: float, width: float, grid: SampledFunction) -> SampledFunction:
    """Smooth bump supported on (center - width/2, center + width/2), sampled
    on the grid and normalized to unit L2 norm.

    Requires width >= 4h so the profile is resolved.
    """
    if width < 4 * grid.spacing:
        raise ValueError(
            f"bump width {width} under-resolved: need at least 4*spacing = {4 * grid.spacing}"
        )
    vals = smooth_bump((grid.x - center) / (0.5 * width)).astype(complex)
    out = grid.with_values(vals)
    nrm = lp_norm(out, 2)
    if nrm == 0.0:
        raise ValueError("bump does not intersect the grid window")
    return grid.with_values(vals / nrm)


def bump_bandwidth(width: float) -> float:
    """Measured one-sided bandwidth past which a width-`width` bump's spectral
    L2 tail falls below 1e-8 (on a grid that resolves it)."""
    return 96.0 / width


def make_band_limited_bump(
    center: float,
    bandwidth: float,
    grid: SampledFunction,
    freq_center: float = 0.0,
) -> SampledFunction:
    """Unit-norm bump whose spectrum vanishes outside
    [freq_center - bandwidth/2, freq_center + bandwidth/2] exactly on the grid.

    Built by inverse transform of a smooth frequency window; spatially
    concentrated around `center` with super-polynomial (not compact) decay.
    """
    n = grid.n
    dxi = 1.0 / (n * grid.spacing)
    xi = (np.arange(n) - n // 2) * dxi
    nyquist = 0.5 / grid.spacing
    if abs(freq_center) + 0.5 * bandwidth > nyquist:
        raise ValueError("requested band exceeds the grid's Nyquist range")
    if bandwidth < 4 * dxi:
        raise ValueError("band under-resolved: need bandwidth >= 4 frequency bins")
    window = smooth_bump(2.0 * (xi - freq_center) / bandwidth).astype(complex)
    window *= np.exp(-2j * np.pi * xi * center)
    f = dft_inverse(Spectrum(xi[0], dxi, window), grid.origin)
    nrm = lp_norm(f, 2)
    return grid.with_values(f.values / nrm)
