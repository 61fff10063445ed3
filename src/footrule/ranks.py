"""Ranking, the footrule coefficient, and its exact permutation null law.

The coefficient for a paired sample is 1 - 3*D/(n^2 - 1) where D is the
total absolute displacement between the two rank vectors. Under
independence its null distribution depends only on D's distribution over
uniformly random permutations, which `enumerate_null_distribution`
counts exactly, for n up to EXACT_MAX_N, by a dynamic programme over
open pairs rather than by listing the n! permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .common import NonFiniteError, SampleSizeError, TiesError, _check_integer

EXACT_MAX_N = 100


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length sequences of real observations.

    The underlying theory assumes continuous marginals, so tie-free data;
    ranking enforces this.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be one-dimensional")
        if len(x) != len(y):
            raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
        if len(x) < 2:
            raise SampleSizeError("need at least 2 paired observations")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteError("sample contains NaN or infinite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FootruleResult:
    """The displacement sum D and the coefficient 1 - 3*D/(n^2 - 1).

    D is an even integer in [0, floor(n^2/2)]: the ranks are permutations.
    """

    n: int
    distance: int
    phi: float


def _first_repeat(vals: np.ndarray) -> TiesError:
    """TiesError for the first value, in input order, equal to an earlier one.

    Read off a stable sort: within a run of equal sorted values the
    positions ascend, so every run member but the first is a repeat, and
    the run's first member is the value's first occurrence.
    """
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    j = int(order[1:][sv[1:] == sv[:-1]].min())
    value = float(vals[j])
    i = int(order[np.searchsorted(sv, value)])
    return TiesError(
        f"tied value {value!r} at positions {i} and {j}; continuous data expected",
        value=value, positions=(i, j),
    )


def _rank_rows(values: np.ndarray):
    """Ranks 1..n of each row (last axis), and a per-row tie flag.

    One sort per row. Its order, plus each row's offset into the
    flattened batch (none for a single row), indexes the flat values
    once to read the sorted row for the tie scan, and once to scatter
    the ranks (the inverse permutation). Distinct values have one sort
    order, so numpy's default (unstable, SIMD) argsort gives the same
    ranks as a stable one; the ranks are the true ranks only where the
    tie flag is False.
    """
    order = np.argsort(values, axis=-1)
    n = order.shape[-1]
    if order.size != n:
        order += np.arange(0, order.size, n).reshape(order.shape[:-1] + (1,))
    sv = values.ravel()[order]
    tied = (sv[..., 1:] == sv[..., :-1]).any(axis=-1)
    ranks = np.empty(order.size, dtype=order.dtype)
    ranks[order] = np.arange(1, n + 1)
    return ranks.reshape(order.shape), tied


def _footrule_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """D, the coefficient and each margin's tie flag, per paired row (last axis).

    Ranks both margins and forms D = sum |r - s| and 1 - 3D/(n^2 - 1).
    Both `footrule_coefficient` (one row) and the simulation engine
    (batches) call it, without validation. A row whose x or y flag is
    set has meaningless D and coefficient: the caller raises or, in the
    simulation engine, draws that row again.
    """
    r, x_tied = _rank_rows(x)
    s, y_tied = _rank_rows(y)
    n = r.shape[-1]
    d = np.abs(r - s).sum(axis=-1)
    return d, 1.0 - 3.0 * d / (n * n - 1), x_tied, y_tied


def footrule_coefficient(sample: PairedSample) -> FootruleResult:
    """Rank both margins and evaluate the footrule coefficient.

    Raises TiesError on tied data, naming the first repeat of x if x is
    tied and else that of y. n = 2 is allowed but degenerate: the value
    is either 1 or -1, the latter below the large-sample floor of -1/2.
    The sample is validated on construction, so this is the one-row case
    of `_footrule_rows`.
    """
    d, phi, x_tied, y_tied = _footrule_rows(sample.x, sample.y)
    if x_tied:
        raise _first_repeat(sample.x)
    if y_tied:
        raise _first_repeat(sample.y)
    return FootruleResult(n=sample.n, distance=int(d), phi=float(phi))


def max_distance(n: int) -> int:
    """Largest achievable D over permutations of {1..n}, floor(n^2/2)."""
    return n * n // 2


@dataclass(frozen=True)
class ExactNullDistribution:
    """Counts of permutations by displacement D, for one sample size.

    `counts[d]` is the number of permutations pi of {1..n} with
    sum_i |i - pi(i)| = d. The totals define the exact null law of the
    coefficient because ranking makes the statistic distribution-free.
    """

    n: int
    counts: dict[int, int] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_integer("sample size", self.n))
        if self.n < 2:
            raise SampleSizeError(f"exact null law needs n >= 2, got {self.n}")
        total = sum(self.counts.values())
        if total != math.factorial(self.n):
            raise ValueError(f"counts sum to {total}, expected {self.n}!")
        cap = max_distance(self.n)
        for d in self.counts:
            if d % 2 != 0 or not 0 <= d <= cap:
                raise ValueError(f"impossible displacement {d}")
        mean_num = 3 * sum(d * c for d, c in self.counts.items())
        if mean_num != (self.n * self.n - 1) * total:
            raise ValueError("mean displacement violates (n^2-1)/3")

    @property
    def total(self) -> int:
        return math.factorial(self.n)

    def phi(self, distance: int) -> float:
        return 1.0 - 3.0 * distance / (self.n * self.n - 1)

    def sorted_items(self) -> Iterator[tuple[int, int]]:
        """(distance, count) pairs in ascending distance order."""
        return iter(sorted(self.counts.items()))

    def two_sided_p(self, distance: int) -> Fraction:
        """Exact P(|phi| >= |phi(distance)|) under the uniform null.

        Compared in integers: |phi(d)| >= |phi(d0)| iff
        |m - 3d| >= |m - 3d0| with m = n^2 - 1.
        """
        m = self.n * self.n - 1
        ref = abs(m - 3 * distance)
        hits = sum(c for d, c in self.counts.items() if abs(m - 3 * d) >= ref)
        return Fraction(hits, self.total)


def enumerate_null_distribution(n: int) -> ExactNullDistribution:
    """Count the permutations of {1..n} by displacement D, exactly.

    Transfer recursion over open pairs (Diaconis & Graham, JRSS-B 1977;
    Guay-Paquet & Petersen, arXiv:1404.4674). Positions and values are
    scanned together, t = 1..n. After step t, k positions <= t still wait
    for a value > t and k values <= t for a position > t; each of these
    2k pairs crosses the gap between t and t + 1, so D = sum_t 2*k_t.
    Step t places position t and value t:

    - k -> k, weight 2k + 1: t maps to t, or one of the two new items is
      matched with one of the k open items of the other kind and the
      other new item stays open;
    - k -> k + 1, weight 1: both new items stay open;
    - k -> k - 1, weight k^2: each new item closes an open one.

    A state with k > n - t cannot close by step n and is dropped.

    Each state is a polynomial in D/2 with integer coefficients, packed
    into one Python int with a slot of `width` bytes per power, so that
    shifting by k slots multiplies by (D/2)^k. Every coefficient counts
    distinct partial permutations, so none exceeds n! and slots never
    carry into each other. Exact integer arithmetic throughout, O(n^2)
    big-int operations; capped at n = EXACT_MAX_N.
    """
    n = _check_integer("sample size", n)
    if not 2 <= n <= EXACT_MAX_N:
        raise SampleSizeError(f"exact null law needs 2 <= n <= {EXACT_MAX_N}, got {n}")
    width = math.factorial(n).bit_length() // 8 + 1
    slot = 8 * width
    rows = [1]  # rows[k]: packed polynomial of the states with k open pairs
    for t in range(1, n + 1):
        grown = []
        for k in range(min(len(rows), n - t) + 1):
            acc = rows[k - 1] if k else 0
            if k < len(rows):
                acc += rows[k] * (2 * k + 1)
            if k + 1 < len(rows):
                acc += rows[k + 1] * ((k + 1) * (k + 1))
            grown.append(acc << (k * slot))
        rows = grown
    half_max = max_distance(n) // 2
    packed = rows[0].to_bytes(width * (half_max + 1), "little")
    counts = {}
    for j in range(half_max + 1):
        count = int.from_bytes(packed[j * width:(j + 1) * width], "little")
        if count:
            counts[2 * j] = count
    return ExactNullDistribution(n=n, counts=counts)
