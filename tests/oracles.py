"""Scalar formulas behind the batched stand-in kernels: the tests' oracles.

`footrule.representations` evaluates the double-sum and projected forms
on whole rows at once. These are the per-pair pieces those forms are
built from, written out one value at a time so the tests can check the
kernels against them, the exact uniform integrals the closed-form
variances are built from, and the cross sum merged by one stable sort:
the reference the double-sum kernel must match bit for bit. The exact moments
of an exact null law check the closed-form variance and the simulated
draws, and a full sum over its support checks its bisected p-values.
"""

from fractions import Fraction

import numpy as np

# Moments of |U-V| and U(1-U) for independent U, V ~ Uniform(0,1).
# COV_ABS_DIFF_U_ONE_MINUS_U couples |U1-V1| with U1(1-U1);
# COV_ABS_DIFF_SHARED couples |U1-V1| with |U1-V2| (shared U1).
E_ABS_DIFF = Fraction(1, 3)
E_U_ONE_MINUS_U = Fraction(1, 6)
VAR_ABS_DIFF = Fraction(1, 18)
VAR_U_ONE_MINUS_U = Fraction(1, 180)
COV_ABS_DIFF_U_ONE_MINUS_U = Fraction(-1, 180)
COV_ABS_DIFF_SHARED = Fraction(1, 180)


def u_kernel(p1: tuple[float, float], p2: tuple[float, float]) -> float:
    """Symmetric two-pair kernel |u1 - v2| + |u2 - v1|.

    Its pairwise average over all pairs of observations is the
    U-statistic part of the double-sum form.
    """
    u1, v1 = p1
    u2, v2 = p2
    return abs(u1 - v2) + abs(u2 - v1)


def hajek_projection_term(u: float, v: float) -> float:
    """Centered conditional expectation of the kernel given one pair.

    Equals E[u_kernel((u,v), (U,V))] - 2/3 = 1/3 - u(1-u) - v(1-v);
    these are the independent summands the projection is built from.
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError("u and v must lie in [0, 1]")
    return 1.0 / 3.0 - u * (1.0 - u) - v * (1.0 - v)


def cond_exp_abs_diff(u: float) -> float:
    """E[|u - V|] for V ~ Uniform(0,1): 1/2 - u(1-u)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return 0.5 - u * (1.0 - u)


def phi_moments_exact(law) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the coefficient under an `ExactNullDistribution`."""
    m = law.n * law.n - 1
    mean_d = Fraction(sum(d * c for d, c in law.counts.items()), law.total)
    mean_d2 = Fraction(sum(d * d * c for d, c in law.counts.items()), law.total)
    mean = 1 - Fraction(3, m) * mean_d
    var = Fraction(9, m * m) * (mean_d2 - mean_d * mean_d)
    return mean, var


def two_sided_p_full_sum(law, distance) -> Fraction:
    """P(|phi| >= |phi(distance)|) by one pass over the whole support.

    The reference for `ExactNullDistribution.two_sided_p`, which reads the
    two tails by bisection instead.
    """
    m = law.n * law.n - 1
    ref = abs(m - 3 * distance)
    hits = sum(c for d, c in law.counts.items() if abs(m - 3 * d) >= ref)
    return Fraction(hits, law.total)


def abs_diff_double_sum_stable(u, v):
    """sum_i sum_j |u_i - v_j| per row, merged by one stable argsort.

    The reference for the double-sum kernel, which counts k_i = #{j :
    v_j <= u_i} with an integer sort of bit-pattern keys instead: here
    k_i is u_i's position in the stable sort of [sorted v, u] less the u
    values placed before it. The prefix sums and per-u terms are the
    kernel's, in its order.
    """
    n = v.shape[-1]
    sv = np.sort(v, axis=-1)
    prefix = np.zeros(v.shape[:-1] + (n + 1,))
    np.cumsum(sv, axis=-1, out=prefix[..., 1:])
    merged = np.argsort(np.concatenate((sv, u), axis=-1), axis=-1, kind="stable")
    v_before = np.arange(1, 2 * n + 1) - np.cumsum(merged >= n, axis=-1)
    k = np.take_along_axis(v_before, np.argsort(merged, axis=-1)[..., n:], axis=-1)
    prefix_k = np.take_along_axis(prefix, k, axis=-1)
    below = u * k - prefix_k
    above = (prefix[..., n:] - prefix_k) - u * (n - k)
    return (below + above).sum(axis=-1)
