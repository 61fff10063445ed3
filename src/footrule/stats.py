"""Distribution functions, KS tests, Gaussian KDE, ECDF, and run summaries.

Self-contained numerical building blocks for the simulation studies: no
statistics backends, just the error function from the standard library
and numpy array arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .common import BadVarianceError, DegenerateSampleError, NonFiniteError, SampleSizeError

ONE_SAMPLE = "one-sample"
TWO_SAMPLE = "two-sample"

_ROOT2 = math.sqrt(2.0)
_SERIES_EPS = 1e-16
# Below this the alternating series needs millions of terms while the
# survival probability is 1 to far beyond double precision.
_KOLMOGOROV_SMALL = 0.05
# Samples per KDE chunk and grid rows per tile: two (32, 4096) float64
# scratch buffers of 1 MiB each.
_KDE_CHUNK = 4096
_KDE_TILE_ROWS = 32


@dataclass(frozen=True)
class KsOutcome:
    statistic: float
    p_value: float
    effective_n: float
    mode: str


@dataclass(frozen=True)
class SummaryStats:
    """Replication summary: mean, unbiased variance, bias and RMSE vs truth."""

    em: float
    ev: float
    bias: float
    rmse: float
    count: int


@dataclass(frozen=True)
class CurveGrid:
    """Function values (density or CDF heights) on an increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be equal-length 1-D arrays")
        if len(grid) > 1 and not (np.diff(grid) > 0).all():
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def normal_cdf(x: float | np.ndarray, mean: float = 0.0, variance: float = 1.0):
    """P(Z <= x) for Z ~ Normal(mean, variance), at a float or a 1-D array.

    erfc-based so the far tails keep full relative precision.
    """
    if not variance > 0.0:
        raise BadVarianceError(f"variance must be positive, got {variance}")
    return _each(_cdf, x, mean, math.sqrt(variance))


def normal_pdf(x: float | np.ndarray, mean: float = 0.0, variance: float = 1.0):
    """Density of Normal(mean, variance) at a float or a 1-D array."""
    if not variance > 0.0:
        raise BadVarianceError(f"variance must be positive, got {variance}")
    return _each(_pdf, x, mean, 2.0 * variance, math.sqrt(2.0 * math.pi * variance))


def _cdf(t: float, mean: float, sd: float) -> float:
    return 0.5 * math.erfc(-((t - mean) / sd) / _ROOT2)


def _pdf(t: float, mean: float, two_var: float, norm: float) -> float:
    try:
        return math.exp(-((t - mean) ** 2 / two_var)) / norm
    except OverflowError:  # a square past the float range: exp underflows for variance < 1e305
        return 0.0


def _each(f, x, *consts):
    """f(t, *consts) at a 0-d x, or per element of a 1-D x as a float array.

    `f` gets Python floats, so an element has the bits of the scalar call.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return f(float(xs), *consts)
    if xs.ndim != 1:
        raise ValueError(f"x must be a float or a 1-D array, got {xs.ndim} dimensions")
    return np.fromiter(map(f, xs.tolist(), *map(itertools.repeat, consts)), float, len(xs))


def kolmogorov_sf(lam: float) -> float:
    """Limiting KS survival function 2*sum_k (-1)^(k-1) exp(-2 k^2 lam^2).

    Terms below 1e-16 are dropped and the result is clamped to [0, 1];
    for lam below 0.05 the value is 1 to well past double precision.
    NaN is rejected: no term of the series would ever fall below 1e-16.
    """
    if not lam >= 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if lam < _KOLMOGOROV_SMALL:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        if term < _SERIES_EPS:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_one_sample(samples, reference_cdf) -> KsOutcome:
    """One-sample KS test of `samples` against a continuous reference CDF.

    The statistic is the sup over sorted sample points of
    max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n); the p-value uses the
    asymptotic Kolmogorov survival function at sqrt(n) * statistic.
    `reference_cdf` is called once, on the sorted sample as a 1-D float64
    array, and must return one value per sample.
    """
    xs = np.sort(_finite(samples))
    n = len(xs)
    if n < 2:
        raise SampleSizeError("one-sample KS needs at least 2 points")
    ref = np.asarray(reference_cdf(xs), dtype=float)
    if ref.shape != xs.shape:
        raise ValueError(f"reference_cdf must return {n} values, got shape {ref.shape}")
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - ref)
    d_minus = np.max(ref - (i - 1) / n)
    stat = float(max(d_plus, d_minus))
    return KsOutcome(
        statistic=stat,
        p_value=kolmogorov_sf(math.sqrt(n) * stat),
        effective_n=float(n),
        mode=ONE_SAMPLE,
    )


def ks_two_sample(a, b) -> KsOutcome:
    """Two-sample KS test: sup ECDF gap over the merged sample.

    effective_n is m*n/(m+n); the p-value is asymptotic as in the
    one-sample case.
    """
    xa = np.sort(_finite(a))
    xb = np.sort(_finite(b))
    m, n = len(xa), len(xb)
    if m < 2 or n < 2:
        raise SampleSizeError("two-sample KS needs at least 2 points per sample")
    merged = np.concatenate([xa, xb])
    merged.sort(kind="mergesort")
    cdf_a = np.searchsorted(xa, merged, side="right") / m
    cdf_b = np.searchsorted(xb, merged, side="right") / n
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    eff = m * n / (m + n)
    return KsOutcome(
        statistic=stat,
        p_value=kolmogorov_sf(math.sqrt(eff) * stat),
        effective_n=eff,
        mode=TWO_SAMPLE,
    )


def _finite(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteError("samples must be finite")
    return x


def bandwidth(samples) -> float:
    """Rule-of-thumb KDE bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Matches the default of the reference plotting environment: sd uses
    the n-1 divisor, quartiles use linear interpolation, and a zero IQR
    falls back to the standard deviation.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 2:
        raise SampleSizeError("bandwidth needs at least 2 points")
    if np.max(x) == np.min(x):
        raise DegenerateSampleError("sample has zero spread")
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    scale = min(sd, (q75 - q25) / 1.34)
    if scale <= 0.0:
        scale = sd
    return 0.9 * scale * n ** (-0.2)


def gaussian_kde(samples, grid_size: int = 512) -> CurveGrid:
    """Gaussian-kernel density estimate on an equispaced grid.

    The grid spans [min - 3b, max + 3b] with b the rule-of-thumb
    bandwidth, capturing over 99% of the smoothed mass.
    """
    x = _finite(samples)
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    b = bandwidth(x)
    lo = float(np.min(x)) - 3.0 * b
    hi = float(np.max(x)) + 3.0 * b
    grid = np.linspace(lo, hi, grid_size)
    dens = np.zeros(grid_size)
    # Tiles of grid rows x sample chunk, in two scratch buffers reused in
    # place. Each row adds its chunk sums in chunk order, so the tiling
    # does not change a bit. A tile's view is contiguous, as the full
    # (grid, chunk) matrix was, so exp and the row sums run the same loops.
    size = min(_KDE_TILE_ROWS, grid_size) * min(_KDE_CHUNK, len(x))
    z_buf, w_buf = np.empty(size), np.empty(size)
    for start in range(0, len(x), _KDE_CHUNK):
        chunk = x[start:start + _KDE_CHUNK]
        for row in range(0, grid_size, _KDE_TILE_ROWS):
            rows = grid[row:row + _KDE_TILE_ROWS, None]
            cells = len(rows) * len(chunk)
            z = z_buf[:cells].reshape(len(rows), len(chunk))
            w = w_buf[:cells].reshape(z.shape)
            np.subtract(rows, chunk, out=z)
            np.divide(z, b, out=z)
            np.multiply(z, -0.5, out=w)
            np.multiply(w, z, out=w)
            np.exp(w, out=w)
            dens[row:row + len(rows)] += w.sum(axis=1)
    dens /= len(x) * b * math.sqrt(2.0 * math.pi)
    return CurveGrid(grid=grid, values=dens)


def ecdf_curve(samples, grid) -> CurveGrid:
    """Empirical CDF heights (#{x_i <= g})/n at each grid point."""
    x = np.sort(_finite(samples))
    if len(x) < 1:
        raise SampleSizeError("ECDF needs at least 1 point")
    g = np.asarray(grid, dtype=float)
    values = np.searchsorted(x, g, side="right") / len(x)
    return CurveGrid(grid=g, values=values)


def summarize(estimates, true_value: float) -> SummaryStats:
    """Mean, unbiased variance, bias, and RMSE of estimates versus truth."""
    e = np.asarray(estimates, dtype=float)
    m = len(e)
    if m < 2:
        raise SampleSizeError("summary needs at least 2 estimates")
    em = float(np.mean(e))
    dev = e - em
    ev = float(np.sum(dev * dev)) / (m - 1)
    err = e - true_value
    rmse = math.sqrt(float(np.sum(err * err)) / m)
    return SummaryStats(em=em, ev=ev, bias=em - true_value, rmse=rmse, count=m)
