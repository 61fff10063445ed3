import math

import numpy as np
import pytest

from footrule.common import SampleSizeError
from footrule.representations import (
    UniformPairs,
    _abs_diff_double_sum,
    double_sum_representation,
    hajek_representation,
)
from oracles import abs_diff_double_sum_stable, hajek_projection_term, u_kernel


def double_sum_by_loops(u, v):
    # O(n^2) oracle for the first form
    n = len(u)
    cross = sum(abs(ui - vj) for ui in u for vj in v)
    diag = sum(abs(ui - vi) for ui, vi in zip(u, v))
    return (3.0 * n * n / (n * n - 1)) * (cross / (n * n) - diag / n)


class TestDoubleSumForm:
    def test_constant_pairs_vanish(self):
        for c in (0.0, 0.3, 1.0):
            pairs = UniformPairs([c] * 5, [c] * 5)
            assert double_sum_representation(pairs) == 0.0

    def test_hand_value_up(self):
        out = double_sum_representation(UniformPairs([0.0, 1.0], [0.0, 1.0]))
        assert out == pytest.approx(2.0)
        assert type(out) is float

    def test_hand_value_down(self):
        out = double_sum_representation(UniformPairs([0.0, 1.0], [1.0, 0.0]))
        assert out == pytest.approx(-2.0)

    def test_n1_rejected(self):
        with pytest.raises(SampleSizeError):
            double_sum_representation(UniformPairs([0.5], [0.5]))

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 17, 100, 501):
            u, v = rng.random(n), rng.random(n)
            fast = double_sum_representation(UniformPairs(u, v))
            slow = double_sum_by_loops(u.tolist(), v.tolist())
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_equal_values_match_stable_merge(self, n):
        # k_i counts every v_j <= u_i, so a v_j equal to u_i must count
        # whichever side of it a sort leaves it; the kernel's bits must be
        # those of the stable merge, in a batch, in a tie-free batch and row
        # by row. The further inputs hold values off the engine's 2^-53
        # lattice with u one ulp above v, the ends 0.0 and 1.0 with -0.0
        # beside 0.0, u values repeated within a row, and a batch of more
        # rows than the engine draws at once at n = 2; each runs as a batch
        # and row by row. So do subnormals (5e-324 among them), rows of 1.0
        # and the float below it, rows in which every value is equal, and
        # strided inputs: reversed rows, and the u and v halves of one
        # statistic's slice of a (rows, 3, 2n) block, as the engine passes.
        rng = np.random.default_rng(n)
        rows = 300
        u, v = rng.random((rows, n)), rng.random((rows, n))
        tied = rng.random(rows) < 0.5
        for r in np.flatnonzero(tied):
            u[r, rng.integers(0, n, 2)] = v[r, rng.integers(0, n, 2)]
        assert (u[:, :, None] == v[:, None, :]).any(axis=(1, 2)).tolist() == tied.tolist()
        for a, b in ((u, v), (u[~tied], v[~tied]), *zip(u, v)):
            assert _abs_diff_double_sum(a, b).tobytes() == \
                abs_diff_double_sum_stable(a, b).tobytes()
        small = rng.random((rows, n)) ** 40
        big = rng.random((2, 3000, n))
        big[0, :, 0] = big[1, :, -1]
        tiny = rng.random((2, rows, n)) * 1e-310
        tiny[:, ::2, 0] = 5e-324
        tiny[1, 1::2, -1] = tiny[0, 1::2, 0]
        same = np.repeat(rng.random((rows, 1)), n, axis=1)
        block = rng.random((rows, 3, 2 * n))
        block[:, 1, 0] = block[:, 1, -1]
        engine = block[:, 1]
        for a, b in ((np.nextafter(small, 1), small),
                     tuple(rng.choice([-0.0, 0.0, 1.0], size=(2, rows, n))),
                     (np.take_along_axis(u, rng.integers(0, 2, (rows, n)), axis=1), v),
                     tuple(big),
                     tuple(tiny),
                     tuple(rng.choice([1.0, np.nextafter(1.0, 0)], size=(2, rows, n))),
                     (same, same),
                     (u[:, ::-1], v),
                     (engine[:, :n], engine[:, n:])):
            for x, y in ((a, b), *zip(a, b)):
                assert _abs_diff_double_sum(x, y).tobytes() == \
                    abs_diff_double_sum_stable(x, y).tobytes()


class TestHajekForm:
    def test_all_zero_pairs(self):
        for n in (1, 4, 9):
            out = hajek_representation(UniformPairs([0.0] * n, [0.0] * n))
            assert out == pytest.approx(2.0 * n / (n + 1))
            assert type(out) is float

    def test_single_centered_pair(self):
        out = hajek_representation(UniformPairs([0.5], [0.5]))
        assert out == pytest.approx(0.25)

    def test_opposite_corners(self):
        for n in (1, 3, 8):
            out = hajek_representation(UniformPairs([0.0] * n, [1.0] * n))
            assert out == pytest.approx(-n / (n + 1))

    def test_alternative_grouping_within_8_ulps(self):
        rng = np.random.default_rng(55)
        for n in (3, 10, 57, 200):
            u, v = rng.random(n), rng.random(n)
            value = hajek_representation(UniformPairs(u, v))
            grouped = (3.0 / (n + 1)) * (
                n * (2.0 / 3.0)
                - float(np.sum(np.abs(u - v)))
                - float(np.sum(u * (1 - u) + v * (1 - v)))
            )
            scale = 2.0 * n / (n + 1)
            assert abs(value - grouped) <= 8 * math.ulp(scale)


class TestKernel:
    def test_all_zero(self):
        assert u_kernel((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_opposite_pairs(self):
        assert u_kernel((0.0, 0.0), (1.0, 1.0)) == 2.0

    def test_crossed_pairs(self):
        assert u_kernel((0.0, 1.0), (1.0, 0.0)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p1 = tuple(rng.random(2))
            p2 = tuple(rng.random(2))
            assert u_kernel(p1, p2) == u_kernel(p2, p1)


class TestProjectionTerm:
    def test_boundary(self):
        assert hajek_projection_term(0.0, 0.0) == pytest.approx(1 / 3)

    def test_center(self):
        assert hajek_projection_term(0.5, 0.5) == pytest.approx(-1 / 6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hajek_projection_term(-0.1, 0.5)

    def test_zero_mean_under_uniforms(self):
        rng = np.random.default_rng(23)
        n = 200_000
        u, v = rng.random(n), rng.random(n)
        terms = 1 / 3 - u * (1 - u) - v * (1 - v)
        se = terms.std(ddof=1) / math.sqrt(n)
        assert abs(terms.mean()) <= 3 * se

    def test_consistent_with_kernel_average(self):
        # E[u_kernel((u,v),(U,V))] - 2/3 equals the projection term
        rng = np.random.default_rng(29)
        n = 400_000
        big_u, big_v = rng.random(n), rng.random(n)
        for u0, v0 in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1)]:
            sample = np.abs(u0 - big_v) + np.abs(big_u - v0)
            se = sample.std(ddof=1) / math.sqrt(n)
            expected = hajek_projection_term(u0, v0) + 2 / 3
            assert sample.mean() == pytest.approx(expected, abs=4 * se)


class TestUniformPairs:
    def test_rejects_out_of_unit_interval(self):
        with pytest.raises(ValueError):
            UniformPairs([0.5, 1.2], [0.1, 0.2])

    def test_rejects_empty(self):
        with pytest.raises(SampleSizeError):
            UniformPairs([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            UniformPairs([0.5], [0.1, 0.2])

    def test_pairs_compare_and_hash_by_identity(self):
        # a generated `==` would compare the arrays as a tuple and raise
        first = UniformPairs([0.1, 0.2], [0.3, 0.4])
        twin = UniformPairs([0.1, 0.2], [0.3, 0.4])
        assert first == first and first != twin
        assert len({first, twin, first}) == 2
