"""Ranking, the footrule coefficient, and its exact permutation null law.

The coefficient for a paired sample is 1 - 3*D/(n^2 - 1) where D is the
total absolute displacement between the two rank vectors. Under
independence its null distribution depends only on D's distribution over
uniformly random permutations, which `enumerate_null_distribution`
counts exactly, once per n per process, for n up to EXACT_MAX_N, by a
dynamic programme over open pairs rather than by listing the n!
permutations.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping

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

    The law is immutable: `counts` is a read-only view of a copy of the
    mapping passed in, so `enumerate_null_distribution` can hand one law
    to every caller. Construction also stores the distances in ascending
    order with their running count sums, from which `two_sided_p` reads
    both tails by bisection. `phi` and `two_sided_p` accept only an
    attainable D, an even integer in [0, floor(n^2/2)], and raise
    ValueError for any other.
    """

    n: int
    counts: Mapping[int, int] = field(repr=False)
    _distances: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _below: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_integer("sample size", self.n))
        if self.n < 2:
            raise SampleSizeError(f"exact null law needs n >= 2, got {self.n}")
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        total = sum(self.counts.values())
        if total != math.factorial(self.n):
            raise ValueError(f"counts sum to {total}, expected {self.n}!")
        for d in self.counts:
            self._check_distance(d)
        mean_num = 3 * sum(d * c for d, c in self.counts.items())
        if mean_num != (self.n * self.n - 1) * total:
            raise ValueError("mean displacement violates (n^2-1)/3")
        distances = tuple(sorted(self.counts))
        object.__setattr__(self, "_distances", distances)
        # _below[i]: permutations with D below distances[i]; _below[-1] = n!.
        object.__setattr__(self, "_below", tuple(accumulate(
            (self.counts[d] for d in distances), initial=0)))

    def __reduce__(self):
        # A mappingproxy does not pickle, so a law pickles (and deep-copies) as its arguments.
        return type(self), (self.n, dict(self.counts))

    def _check_distance(self, distance: int) -> int:
        """`distance` as a Python int, if some permutation of {1..n} has that D.

        Every even integer in [0, floor(n^2/2)] is attained, and no other:
        for every n <= EXACT_MAX_N the DP's support is exactly that set.
        """
        if isinstance(distance, numbers.Integral):
            d = int(distance)
            if d % 2 == 0 and 0 <= d <= max_distance(self.n):
                return d
        raise ValueError(f"no permutation of n = {self.n} items has displacement {distance!r}")

    @property
    def total(self) -> int:
        """n!, the number of permutations the law counts."""
        return self._below[-1]

    def phi(self, distance: int) -> float:
        """The coefficient 1 - 3D/(n^2 - 1) at an attainable D."""
        return 1.0 - 3.0 * self._check_distance(distance) / (self.n * self.n - 1)

    def sorted_items(self) -> Iterator[tuple[int, int]]:
        """(distance, count) pairs in ascending distance order."""
        return ((d, self.counts[d]) for d in self._distances)

    def two_sided_p(self, distance: int) -> Fraction:
        """Exact P(|phi| >= |phi(distance)|) under the uniform null.

        Compared in integers: with m = n^2 - 1 and ref = |m - 3*distance|,
        |phi(d)| >= |phi(distance)| iff |m - 3d| >= ref, that is iff
        3d <= m - ref or 3d >= m + ref. Each tail is one bisection of the
        sorted distances into their running count sums, so no call loops
        over the support. At ref = 0 every d qualifies, and both tails
        would count d = m/3.
        """
        m = self.n * self.n - 1
        ref = abs(m - 3 * self._check_distance(distance))
        if ref == 0:
            return Fraction(1)
        total = self._below[-1]
        lower = self._below[bisect_right(self._distances, (m - ref) // 3)]
        upper = total - self._below[bisect_left(self._distances, -(-(m + ref) // 3))]
        return Fraction(lower + upper, total)


# One law per n, built on first request; the laws are immutable, so callers share them.
_NULL_LAWS: dict[int, ExactNullDistribution] = {}


def enumerate_null_distribution(n: int) -> ExactNullDistribution:
    """The exact null law at n: permutations of {1..n} counted by displacement D.

    Each n in 2..EXACT_MAX_N is counted once per process, on its first
    request, and every later request returns that same immutable law;
    a numpy integer n shares the entry of its Python int. Holding all 99
    laws takes about 18 MiB.
    """
    n = _check_integer("sample size", n)
    if not 2 <= n <= EXACT_MAX_N:
        raise SampleSizeError(f"exact null law needs 2 <= n <= {EXACT_MAX_N}, got {n}")
    law = _NULL_LAWS.get(n)
    if law is None:
        law = _NULL_LAWS[n] = _build_null_distribution(n)
    return law


def _build_null_distribution(n: int) -> ExactNullDistribution:
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
    big-int operations; `n` is a Python int in 2..EXACT_MAX_N.
    """
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
