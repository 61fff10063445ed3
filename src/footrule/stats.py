"""Distribution functions, KS tests, Gaussian KDE, ECDF, and run summaries.

Self-contained numerical building blocks for the simulation studies: no
statistics backends, just the error function from the standard library
and numpy array arithmetic.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .common import BadVarianceError, DegenerateSampleError, NonFiniteError, SampleSizeError

_ROOT2 = math.sqrt(2.0)
_SERIES_EPS = 1e-16
# Below this the alternating series needs millions of terms while the
# survival probability is 1 to far beyond double precision.
_KOLMOGOROV_SMALL = 0.05
# Samples per KDE chunk and grid rows per tile: each tile is one (32, 4096)
# float64 array of 1 MiB.
_KDE_CHUNK = 4096
_KDE_TILE_ROWS = 32


@dataclass(frozen=True)
class KsOutcome:
    statistic: float
    p_value: float


@dataclass(frozen=True)
class SummaryStats:
    """Replication summary: mean, unbiased variance, bias and RMSE vs truth."""

    em: float
    ev: float
    bias: float
    rmse: float


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
    array, and must return one value in [0, 1] per sample.
    """
    xs = np.sort(_finite(samples))
    n = len(xs)
    if n < 2:
        raise SampleSizeError("one-sample KS needs at least 2 points")
    ref = np.asarray(reference_cdf(xs), dtype=float)
    if ref.shape != xs.shape:
        raise ValueError(f"reference_cdf must return {n} values, got shape {ref.shape}")
    if not ((ref >= 0.0) & (ref <= 1.0)).all():
        raise ValueError("reference_cdf must return values in [0, 1]")
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - ref)
    d_minus = np.max(ref - (i - 1) / n)
    stat = float(max(d_plus, d_minus))
    return KsOutcome(statistic=stat, p_value=kolmogorov_sf(math.sqrt(n) * stat))


def ks_two_sample(a, b) -> KsOutcome:
    """Two-sample KS test: sup ECDF gap over the pooled points.

    The p-value is asymptotic as in the one-sample case, with effective
    size m*n/(m+n). The gap is a max over points, so the pooled points
    need no sorting.
    """
    xa = np.sort(_finite(a))
    xb = np.sort(_finite(b))
    m, n = len(xa), len(xb)
    if m < 2 or n < 2:
        raise SampleSizeError("two-sample KS needs at least 2 points per sample")
    merged = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, merged, side="right") / m
    cdf_b = np.searchsorted(xb, merged, side="right") / n
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    return KsOutcome(statistic=stat, p_value=kolmogorov_sf(math.sqrt(m * n / (m + n)) * stat))


def _one_dimensional(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"samples must be a 1-D array, got {x.ndim} dimensions")
    return x


def _finite(samples) -> np.ndarray:
    x = _one_dimensional(samples)
    if not np.isfinite(x).all():
        raise NonFiniteError("samples must be finite")
    return x


def bandwidth(samples) -> float:
    """Rule-of-thumb KDE bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Matches the default of the reference plotting environment: sd uses
    the n-1 divisor, quartiles use linear interpolation, and a zero IQR
    falls back to the standard deviation. A finite sample whose mean,
    squared deviations or quartile gap overflow float64 raises
    NonFiniteError.
    """
    x = _finite(samples)
    n = len(x)
    if n < 2:
        raise SampleSizeError("bandwidth needs at least 2 points")
    if np.max(x) == np.min(x):
        raise DegenerateSampleError("sample has zero spread")
    # The same arithmetic, made to raise where it would overflow to inf.
    try:
        with np.errstate(over="raise", invalid="raise"):
            sd = float(np.std(x, ddof=1))
            q75, q25 = np.percentile(x, [75.0, 25.0])
            iqr = q75 - q25
    except FloatingPointError:
        raise NonFiniteError(f"sample spread overflows float64 in the bandwidth (values "
                             f"{np.min(x):.3g} to {np.max(x):.3g})") from None
    scale = min(sd, iqr / 1.34)
    if scale <= 0.0:
        scale = sd
    return 0.9 * scale * n ** (-0.2)


def gaussian_kde(samples, grid_size: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density estimate on an equispaced grid, as (grid, density).

    The grid spans [min - 3b, max + 3b] with b the rule-of-thumb
    bandwidth, capturing over 99% of the smoothed mass. A sample whose
    spread is too small for that many distinct grid points raises
    DegenerateSampleError, as zero spread does; one whose bandwidth,
    grid span or density normalisation overflows float64 raises
    NonFiniteError.
    """
    x = _finite(samples)
    if not isinstance(grid_size, numbers.Integral) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    b = bandwidth(x)
    low, high = float(np.min(x)), float(np.max(x))
    start, stop = low - 3.0 * b, high + 3.0 * b
    # A finite span keeps the range, both ends and np.linspace's steps finite.
    # bandwidth's overflow check implies it with numpy's std; this keeps an
    # inf span from np.linspace whatever b is.
    if not math.isfinite(stop - start):
        raise NonFiniteError(f"KDE grid [{start:.3g}, {stop:.3g}] overflows float64 (sample "
                             f"values {low:.3g} to {high:.3g})")
    grid = np.linspace(start, stop, grid_size)
    if not (np.diff(grid) > 0).all():
        raise DegenerateSampleError(f"sample spread {high - low:.3g} gives no strictly "
                                    f"increasing grid of {grid_size} points")
    dens = np.zeros(grid_size)
    # Tiles of grid rows x sample chunk, each one array worked in place.
    # Each row adds its chunk sums in chunk order, so the tiling does not
    # change a bit. A tile is contiguous, as an untiled (grid, chunk) matrix
    # is, so exp and the row sums run the same loops. (z * z) * -0.5 has
    # the bits of the untiled (-0.5 * z) * z: scaling by -1/2 is exact for
    # normal numbers, an underflowing square gives exp = 1.0 either way and
    # an overflowing one gives 0 either way.
    # A z or z^2 past the float range is a kernel term of exactly 0, which
    # exp(-inf) gives, so that overflow is silent; a density past it raises.
    with np.errstate(over="ignore"):
        for start in range(0, len(x), _KDE_CHUNK):
            chunk = x[start:start + _KDE_CHUNK]
            for row in range(0, grid_size, _KDE_TILE_ROWS):
                z = grid[row:row + _KDE_TILE_ROWS, None] - chunk
                z /= b
                z *= z
                z *= -0.5
                dens[row:row + _KDE_TILE_ROWS] += np.exp(z, out=z).sum(axis=1)
        dens /= len(x) * b * math.sqrt(2.0 * math.pi)
    if not np.isfinite(dens).all():
        raise NonFiniteError(f"KDE density overflows float64 (bandwidth {b:.3g})")
    return grid, dens


def ecdf_curve(samples, grid) -> np.ndarray:
    """Empirical CDF heights (#{x_i <= g})/n on a 1-D, NaN-free, strictly increasing grid."""
    x = np.sort(_finite(samples))
    if len(x) < 1:
        raise SampleSizeError("ECDF needs at least 1 point")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or np.isnan(g).any() or not (np.diff(g) > 0).all():
        raise ValueError("grid must be a 1-D strictly increasing array without NaN")
    return np.searchsorted(x, g, side="right") / len(x)


def summarize(estimates, true_value: float) -> SummaryStats:
    """Mean, unbiased variance, bias, and RMSE of estimates versus truth."""
    e = _one_dimensional(estimates)
    m = len(e)
    if m < 2:
        raise SampleSizeError("summary needs at least 2 estimates")
    em = float(np.mean(e))
    dev = e - em
    ev = float(np.sum(dev * dev)) / (m - 1)
    err = e - true_value
    rmse = math.sqrt(float(np.sum(err * err)) / m)
    return SummaryStats(em=em, ev=ev, bias=em - true_value, rmse=rmse)
