"""Scalar formulas behind the batched stand-in kernels: the tests' oracles.

`footrule.representations` evaluates the double-sum and projected forms
on whole rows at once. These are the per-pair pieces those forms are
built from, written out one value at a time so the tests can check the
kernels and the uniform-integral constants against them.
"""


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
