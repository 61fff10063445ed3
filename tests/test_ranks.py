import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from footrule.common import NonFiniteError, SampleSizeError, TiesError
from footrule.ranks import (
    EXACT_MAX_N,
    ExactNullDistribution,
    PairedSample,
    compute_ranks,
    enumerate_null_distribution,
    footrule_coefficient,
    max_distance,
)


def rank_by_counting(values):
    # independent O(n^2) oracle: rank = #{k : v_k <= v_i}
    return [sum(1 for w in values if w <= v) for v in values]


def permutation_table(n):
    """All permutations of {0..n-1} as an (n!, n) int8 array.

    Built level by level: the table for size k is formed by inserting
    the new largest element into every position of each size-(k-1) row.
    """
    perms = np.zeros((1, 1), dtype=np.int8)
    for k in range(2, n + 1):
        m = perms.shape[0]
        grown = np.empty((m * k, k), dtype=np.int8)
        for pos in range(k):
            block = grown[pos * m:(pos + 1) * m]
            block[:, pos] = k - 1
            block[:, :pos] = perms[:, :pos]
            block[:, pos + 1:] = perms[:, pos:]
        perms = grown
    return perms


def brute_force_counts(n):
    # independent oracle: tally D over every row of the permutation table,
    # 2^18 rows at a time so that n = 10 stays near the table's 36 MB
    table = permutation_table(n)
    tallies = np.zeros(max_distance(n) + 1, dtype=np.int64)
    identity = np.arange(n, dtype=np.int16)
    for start in range(0, len(table), 1 << 18):
        rows = table[start:start + (1 << 18)].astype(np.int16)
        tallies += np.bincount(np.abs(rows - identity).sum(axis=1),
                               minlength=len(tallies))
    return {int(d): int(c) for d, c in enumerate(tallies) if c}


class TestComputeRanks:
    def test_by_inspection(self):
        assert compute_ranks([2.5, 1.1, 7.0]).tolist() == [2, 1, 3]

    def test_sorted_input_identity(self):
        assert compute_ranks([1.0, 2.0, 3.0, 4.0]).tolist() == [1, 2, 3, 4]

    def test_ties_rejected(self):
        with pytest.raises(TiesError):
            compute_ranks([1.0, 1.0, 2.0])

    @pytest.mark.parametrize("values, value, positions", [
        ([1.0, 1.0, 2.0], 1.0, (0, 1)),
        # 3.0 sorts first, but 5.0 repeats first in input order
        ([5.0, 3.0, 5.0, 3.0, 5.0], 5.0, (0, 2)),
        ([9.0, 2.0, 7.0, 2.0, 9.0], 2.0, (1, 3)),
        ([0.0, 4.0, -0.0], -0.0, (0, 2)),
    ])
    def test_tie_names_first_repeat(self, values, value, positions):
        with pytest.raises(TiesError) as info:
            compute_ranks(values)
        assert repr(info.value.value) == repr(value)
        assert info.value.positions == positions

    def test_single_sort_ranks_match_double_argsort(self):
        rows = np.random.default_rng(3).random((50, 17))
        for row in rows:
            assert compute_ranks(row).tolist() == (np.argsort(np.argsort(row)) + 1).tolist()

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            compute_ranks([1.0, math.nan, 2.0])
        with pytest.raises(NonFiniteError):
            compute_ranks([1.0, math.inf])

    def test_too_short(self):
        with pytest.raises(SampleSizeError):
            compute_ranks([1.0])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2024)
        for n in (2, 3, 7, 25, 50):
            values = rng.normal(size=n)
            assert compute_ranks(values).tolist() == rank_by_counting(values)


class TestRankVectors:
    def test_from_sample(self):
        sample = PairedSample([2.5, 1.1, 7.0], [1.0, 2.0, 0.5])
        assert compute_ranks(sample.x).tolist() == [2, 1, 3]
        assert compute_ranks(sample.y).tolist() == [2, 3, 1]

    def test_double_sum_identity(self):
        # sum_ij |r_i - s_j| = n(n^2-1)/3 for every pair of permutations
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 17, 50):
            r = rng.permutation(n) + 1
            s = rng.permutation(n) + 1
            total = int(np.abs(r[:, None] - s[None, :]).sum())
            assert total == n * (n * n - 1) // 3


class TestFootruleDistance:
    def test_identical_ranks(self):
        assert footrule_coefficient(PairedSample([1, 2, 3], [1, 2, 3])).distance == 0

    def test_reversal(self):
        assert footrule_coefficient(PairedSample([1, 2, 3], [3, 2, 1])).distance == 4

    def test_hand_sum_n5(self):
        sample = PairedSample([1, 2, 3, 4, 5], [2, 1, 3, 5, 4])
        distance = footrule_coefficient(sample).distance
        assert distance == 4 and type(distance) is int


class TestFootruleCoefficient:
    def test_perfect_agreement(self):
        result = footrule_coefficient(PairedSample([3.2, 0.1, 9.0], [30.0, 1.0, 99.0]))
        assert result.phi == 1.0
        assert result.distance == 0

    def test_reversed_order_n3(self):
        result = footrule_coefficient(PairedSample([1.0, 2.0, 3.0], [9.0, 5.0, 2.0]))
        assert result.phi == -0.5

    def test_hand_value_n5(self):
        sample = PairedSample([1, 2, 3, 4, 5], [0.2, 0.1, 0.3, 0.5, 0.4])
        result = footrule_coefficient(sample)
        assert result.distance == 4
        assert result.phi == 0.5

    def test_symmetry_in_margins(self):
        rng = np.random.default_rng(11)
        for n in (2, 6, 40):
            x, y = rng.normal(size=n), rng.normal(size=n)
            a = footrule_coefficient(PairedSample(x, y))
            b = footrule_coefficient(PairedSample(y, x))
            assert a.phi == b.phi and a.distance == b.distance

    def test_monotone_invariance_bit_identical(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=30), rng.normal(size=30)
        base = footrule_coefficient(PairedSample(x, y))
        warped = footrule_coefficient(PairedSample(np.exp(x), np.arctan(y)))
        assert warped.phi == base.phi
        assert warped.distance == base.distance

    def test_ties_propagate(self):
        with pytest.raises(TiesError):
            footrule_coefficient(PairedSample([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]))

    def test_n2_degenerate_values(self):
        up = footrule_coefficient(PairedSample([0.0, 1.0], [0.0, 1.0]))
        down = footrule_coefficient(PairedSample([0.0, 1.0], [1.0, 0.0]))
        assert up.phi == 1.0
        assert down.phi == -1.0


class TestPairedSample:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PairedSample([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(SampleSizeError):
            PairedSample([1.0], [2.0])

    def test_nonfinite(self):
        with pytest.raises(NonFiniteError):
            PairedSample([1.0, math.nan], [1.0, 2.0])


class TestEnumeration:
    def test_n2(self):
        assert enumerate_null_distribution(2).counts == {0: 1, 2: 1}

    def test_n3(self):
        assert enumerate_null_distribution(3).counts == {0: 1, 2: 2, 4: 3}

    def test_n4_mean_distance(self):
        dist = enumerate_null_distribution(4)
        total = sum(d * c for d, c in dist.counts.items())
        assert total * 3 == (16 - 1) * dist.total  # mean D = 5 exactly

    def test_out_of_range(self):
        with pytest.raises(SampleSizeError, match=r"needs 2 <= n <= 100, got 1$"):
            enumerate_null_distribution(1)
        with pytest.raises(SampleSizeError, match=r"needs 2 <= n <= 100, got 101$"):
            enumerate_null_distribution(EXACT_MAX_N + 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_brute_force(self, n):
        assert enumerate_null_distribution(n).counts == brute_force_counts(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_structure(self, n):
        dist = enumerate_null_distribution(n)
        assert sum(dist.counts.values()) == math.factorial(n)
        assert all(d % 2 == 0 for d in dist.counts)
        assert min(dist.counts) == 0 and max(dist.counts) == max_distance(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_phi_range(self, n):
        dist = enumerate_null_distribution(n)
        phis = [dist.phi(d) for d in dist.counts]
        assert max(phis) == 1.0
        assert min(phis) == 1.0 - 3.0 * max_distance(n) / (n * n - 1)

    def test_validation_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ExactNullDistribution(n=3, counts={0: 1, 2: 2, 4: 2})
        with pytest.raises(ValueError):
            ExactNullDistribution(n=3, counts={0: 1, 3: 2, 4: 3})
        with pytest.raises(ValueError):
            ExactNullDistribution(n=3, counts={0: 3, 2: 2, 4: 1})

    def test_two_sided_p_n3(self):
        dist = enumerate_null_distribution(3)
        # |phi| >= 1 only at D = 0
        assert dist.two_sided_p(0) == pytest.approx(1 / 6)
        # |phi(2)| = 0.25: D in {0, 2, 4} all have |phi| >= 0.25... check
        # phi values: 1, 0.25, -0.5 -> |phi| >= 0.25 everywhere
        assert dist.two_sided_p(2) == 1
        # |phi(4)| = 0.5: qualifying D are 0 (1.0) and 4 (0.5)
        assert dist.two_sided_p(4) == pytest.approx(4 / 6)


distinct_reals = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def paired_samples(draw):
    n = draw(st.integers(2, 40))
    column = st.lists(distinct_reals, min_size=n, max_size=n, unique=True)
    return draw(column), draw(column)


def increasing_map(draw, values):
    """A random strictly increasing map, applied to the distinct `values`."""
    targets = sorted(draw(st.lists(distinct_reals, min_size=len(values),
                                   max_size=len(values), unique=True)))
    image = dict(zip(sorted(values), targets))
    return [image[v] for v in values]


class TestCoefficientProperties:
    @settings(max_examples=200, deadline=None)
    @given(paired_samples(), st.data())
    def test_invariant_under_increasing_maps(self, pair, data):
        x, y = pair
        base = footrule_coefficient(PairedSample(x, y))
        for warped in (PairedSample(increasing_map(data.draw, x), y),
                       PairedSample(x, increasing_map(data.draw, y))):
            result = footrule_coefficient(warped)
            assert result.phi == base.phi and result.distance == base.distance

    @settings(max_examples=200, deadline=None)
    @given(paired_samples())
    def test_self_agreement_is_one(self, pair):
        x, _ = pair
        assert footrule_coefficient(PairedSample(x, x)).phi == 1.0

    @settings(max_examples=200, deadline=None)
    @given(paired_samples())
    def test_symmetric(self, pair):
        x, y = pair
        a = footrule_coefficient(PairedSample(x, y))
        b = footrule_coefficient(PairedSample(y, x))
        assert a.phi == b.phi and a.distance == b.distance
