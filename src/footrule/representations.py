"""Large-sample stand-ins for the footrule coefficient under independence.

Both forms are functions of n i.i.d. uniform pairs (U_i, V_i) rather than
ranks. The double-sum form mirrors the coefficient's rank algebra with
population distribution values substituted for empirical ones; projecting
its U-statistic part onto single-observation terms gives the second,
fully linearized form whose summands are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import SampleSizeError


@dataclass(frozen=True)
class UniformPairs:
    """Paired values in [0,1]; the samplers keep them strictly inside (0,1)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if u.ndim != 1 or v.ndim != 1 or len(u) != len(v):
            raise ValueError("u and v must be one-dimensional and equal length")
        if len(u) < 1:
            raise SampleSizeError("need at least one pair")
        for name, vec in (("u", u), ("v", v)):
            if not np.isfinite(vec).all() or (vec < 0).any() or (vec > 1).any():
                raise ValueError(f"{name} values must lie in [0, 1]")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.u)


def double_sum_representation(pairs: UniformPairs) -> float:
    """First form: (3n^2/(n^2-1)) * (mean_{ij}|U_i - V_j| - mean_i|U_i - V_i|).

    The cross term is evaluated in O(n log n): with V sorted and
    prefix-summed, sum_j |u - V_j| = u*k - S_k + (S_n - S_k) - u*(n-k)
    where k counts V values at or below u.
    """
    if pairs.n < 2:
        raise SampleSizeError("double-sum form needs n >= 2 (n^2 - 1 vanishes)")
    return float(_double_sum_rows(pairs.u, pairs.v))


def hajek_representation(pairs: UniformPairs) -> float:
    """Second form: (3/(n+1)) * sum_i (2/3 - |U_i-V_i| - U_i(1-U_i) - V_i(1-V_i))."""
    return float(_hajek_rows(pairs.u, pairs.v))


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


def _double_sum_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Double-sum form of each row of pairs (last axis), unvalidated."""
    n = u.shape[-1]
    cross = _abs_diff_double_sum(u, v)
    diag = np.abs(u - v).sum(axis=-1)
    return (3.0 * n * n / (n * n - 1)) * (cross / (n * n) - diag / n)


def _hajek_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projected form of each row of pairs (last axis), unvalidated."""
    n = u.shape[-1]
    terms = 2.0 / 3.0 - np.abs(u - v) - u * (1.0 - u) - v * (1.0 - v)
    return 3.0 / (n + 1) * terms.sum(axis=-1)


def _abs_diff_double_sum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i sum_j |u_i - v_j| per row, via sorting and prefix sums.

    k_i = #{j : v_j <= u_i} comes from one stable argsort of the row
    [sorted v, u]: every v not above u_i sorts before it, so k_i is u_i's
    merged position less the u values placed before it. This stays exact
    where offsetting rows into one flat searchsorted would round.
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
