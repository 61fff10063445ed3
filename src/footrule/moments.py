"""Closed-form null moments and the exact uniform-integral constants.

Every variance here is assembled from integer numerator/denominator
pairs with a single float division at the end, so enumeration-based
checks can use near-machine tolerances.
"""

from __future__ import annotations

from fractions import Fraction

from .common import SampleSizeError, Statistic


# Moments of |U-V| and U(1-U) for independent U, V ~ Uniform(0,1).
# COV_ABS_DIFF_U_ONE_MINUS_U couples |U1-V1| with U1(1-U1);
# COV_ABS_DIFF_SHARED couples |U1-V1| with |U1-V2| (shared U1).
E_ABS_DIFF = Fraction(1, 3)
E_U_ONE_MINUS_U = Fraction(1, 6)
VAR_ABS_DIFF = Fraction(1, 18)
VAR_U_ONE_MINUS_U = Fraction(1, 180)
COV_ABS_DIFF_U_ONE_MINUS_U = Fraction(-1, 180)
COV_ABS_DIFF_SHARED = Fraction(1, 180)


def null_variance_exact(n: int, kind: Statistic) -> Fraction:
    """Exact null variance of the given statistic as a rational number.

    All three statistics have mean 0 under independence; the variances
    are 1/n-scale quantities with n * variance -> 2/5.
    """
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


def cond_exp_abs_diff(u: float) -> float:
    """E[|u - V|] for V ~ Uniform(0,1): 1/2 - u(1-u)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return 0.5 - u * (1.0 - u)


def limiting_variance() -> float:
    """Variance of the common normal limit of the sqrt(n)-scaled statistics."""
    return 0.4
