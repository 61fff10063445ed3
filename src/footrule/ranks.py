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

from .common import NonFiniteError, SampleSizeError, TiesError

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


def compute_ranks(values) -> np.ndarray:
    """Rank a sequence of reals, smallest value getting rank 1.

    Args:
        values: sequence of at least two distinct finite reals. Equal
            values raise TiesError: the theory assumes continuous data.

    Returns:
        int64 array that is a permutation of 1..n.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if len(vals) < 2:
        raise SampleSizeError("need at least 2 values to rank")
    if not np.isfinite(vals).all():
        raise NonFiniteError("values contain NaN or infinite entries")

    order, sv, has_tie, ranks = _rank_rows(vals)
    if has_tie:
        raise _first_repeat(vals, order, sv)
    return ranks


def _first_repeat(vals: np.ndarray, order: np.ndarray, sv: np.ndarray) -> TiesError:
    """TiesError for the first value, in input order, equal to an earlier one.

    Read off the stable sort that ranking already did: within a run of
    equal sorted values the positions ascend, so every run member but
    the first is a repeat, and the run's first member is the value's
    first occurrence.
    """
    j = int(order[1:][sv[1:] == sv[:-1]].min())
    value = float(vals[j])
    i = int(order[np.searchsorted(sv, value)])
    return TiesError(
        f"tied value {value!r} at positions {i} and {j}; continuous data expected",
        value=value, positions=(i, j),
    )


def _rank_rows(values: np.ndarray):
    """Sort each row (last axis): stable order, sorted values, tie flag, ranks.

    One sort per row: ranks 1..n are scattered through the sort order
    (the inverse permutation), ties broken by position; they are the
    true ranks only where the tie flag is False.
    """
    order = np.argsort(values, axis=-1, kind="stable")
    sv = np.take_along_axis(values, order, axis=-1)
    tied = (sv[..., 1:] == sv[..., :-1]).any(axis=-1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return order, sv, tied, ranks


def _displacement(r: np.ndarray, s: np.ndarray):
    """D = sum |r - s| and the coefficient 1 - 3D/(n^2 - 1), per row."""
    n = r.shape[-1]
    d = np.abs(r - s).sum(axis=-1)
    return d, 1.0 - 3.0 * d / (n * n - 1)


def _footrule_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient of each paired row of x and y (last axis), and a tie flag.

    The batched form of `footrule_coefficient`, without validation. A
    flagged row's value is meaningless: the caller raises or, in the
    simulation engine, draws that row again.
    """
    _, _, x_tied, r = _rank_rows(x)
    _, _, y_tied, s = _rank_rows(y)
    return _displacement(r, s)[1], x_tied | y_tied


def footrule_coefficient(sample: PairedSample) -> FootruleResult:
    """Rank both margins and evaluate the footrule coefficient.

    Raises TiesError on tied data. n = 2 is allowed but degenerate: the
    value is either 1 or -1, the latter below the large-sample floor of
    -1/2.
    """
    d, phi = _displacement(compute_ranks(sample.x), compute_ranks(sample.y))
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
