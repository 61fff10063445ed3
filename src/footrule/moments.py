"""Closed-form null moments of the three statistics and their 2/5 limit.

Every variance here is assembled from integer numerator/denominator
pairs with a single float division at the end, so enumeration-based
checks can use near-machine tolerances.
"""

from __future__ import annotations

from fractions import Fraction

from .common import SampleSizeError, Statistic, _check_integer


def null_variance_exact(n: int, kind: Statistic) -> Fraction:
    """Exact null variance of the given statistic as a rational number.

    All three statistics have mean 0 under independence; the variances
    are 1/n-scale quantities with n * variance -> 2/5.
    """
    n = _check_integer("sample size", n)
    if kind is Statistic.FOOTRULE:
        if n < 2:
            raise SampleSizeError("footrule variance needs n >= 2")
        return Fraction(2 * n * n + 7, 5 * (n + 1) * (n - 1) ** 2)
    if kind is Statistic.DOUBLE_SUM:
        if n < 2:
            raise SampleSizeError("double-sum variance needs n >= 2")
        return Fraction(2 * n * n, 5 * (n + 1) ** 2 * (n - 1))
    if kind is Statistic.HAJEK:
        if n < 1:
            raise SampleSizeError("projected-form variance needs n >= 1")
        return Fraction(2 * n, 5 * (n + 1) ** 2)
    raise TypeError(f"unknown statistic kind: {kind!r}")


def limiting_variance() -> float:
    """Variance of the common normal limit of the sqrt(n)-scaled statistics."""
    return 0.4
