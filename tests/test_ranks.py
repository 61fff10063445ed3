import math

import numpy as np
import pytest

from footrule.common import NonFiniteError, SampleSizeError, TiesError
from footrule.ranks import (
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


class TestComputeRanks:
    def test_by_inspection(self):
        assert compute_ranks([2.5, 1.1, 7.0]).tolist() == [2, 1, 3]

    def test_sorted_input_identity(self):
        assert compute_ranks([1.0, 2.0, 3.0, 4.0]).tolist() == [1, 2, 3, 4]

    def test_ties_rejected(self):
        with pytest.raises(TiesError):
            compute_ranks([1.0, 1.0, 2.0])

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

    def test_midrank_mode(self):
        assert compute_ranks([1.0, 1.0, 2.0], ties="midrank").tolist() == [1.5, 1.5, 3.0]
        assert compute_ranks([5.0, 1.0, 5.0, 5.0], ties="midrank").tolist() == [3.0, 1.0, 3.0, 3.0]

    def test_midrank_tie_free_matches_default(self):
        values = [0.4, -2.0, 1.5, 0.0]
        assert compute_ranks(values, ties="midrank").tolist() == compute_ranks(values).tolist()

    def test_unknown_tie_mode(self):
        with pytest.raises(ValueError):
            compute_ranks([1.0, 2.0], ties="sport")


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
        assert footrule_coefficient(sample).distance == 4


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

    def test_midrank_optin(self):
        result = footrule_coefficient(
            PairedSample([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ties="midrank"
        )
        # mid-ranks (1.5, 1.5, 3) vs (1, 2, 3): D = 0.5 + 0.5 + 0 = 1
        assert result.distance == pytest.approx(1.0)
        assert result.phi == pytest.approx(1.0 - 3.0 * 1.0 / 8.0)

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
        with pytest.raises(SampleSizeError):
            enumerate_null_distribution(1)
        with pytest.raises(SampleSizeError):
            enumerate_null_distribution(11)

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
