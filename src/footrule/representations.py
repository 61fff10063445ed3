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


@dataclass(frozen=True, eq=False)
class UniformPairs:
    """Paired values in [0,1]; the samplers keep them strictly inside (0,1).

    Pairs compare and hash by identity: the generated `==` would compare
    the arrays as a tuple and raise.
    """

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

    k_i = #{j : v_j <= u_i} is counted by one integer sort per row of 2n
    keys: v's float64 bit patterns shifted left by one, and u's shifted
    with the low bit set. For floats in [0, 1] the bit patterns sort as
    the values do, the shift drops the sign bit that only -0.0 carries,
    and the low bit puts each u after every v equal to it. The i-th
    smallest u's k is then its key's position in the sorted row less i;
    equal keys are equal values, so no order among them can change k.
    The counts go back to u's input order, so the per-u terms are summed
    in that order.
    """
    n = v.shape[-1]
    sv = np.sort(v, axis=-1)
    prefix = np.zeros(v.shape[:-1] + (n + 1,))
    np.cumsum(sv, axis=-1, out=prefix[..., 1:])
    order = np.argsort(u, axis=-1)
    keys = np.empty(v.shape[:-1] + (2 * n,), dtype=np.uint64)
    np.left_shift(v.view(np.uint64), 1, out=keys[..., :n])
    np.left_shift(u.view(np.uint64), 1, out=keys[..., n:])
    keys[..., n:] |= 1
    keys.sort(axis=-1)
    # Row r's i-th smallest u has its key at flat position 2n*r + p, and
    # k = p - i. (numpy finds nonzero bools several times faster than ints.)
    at = np.flatnonzero((keys & 1).astype(bool)).reshape(v.shape)
    at -= np.arange(keys.size).reshape(keys.shape)[..., :n]
    k = np.empty_like(at)
    np.put_along_axis(k, order, at, axis=-1)
    prefix_k = np.take_along_axis(prefix, k, axis=-1)
    below = u * k - prefix_k
    above = (prefix[..., n:] - prefix_k) - u * (n - k)
    return (below + above).sum(axis=-1)
