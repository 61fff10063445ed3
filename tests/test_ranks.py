import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from footrule.common import NonFiniteError, SampleSizeError, TiesError
from footrule.ranks import (
    EXACT_MAX_N,
    ExactNullDistribution,
    PairedSample,
    _rank_rows,
    enumerate_null_distribution,
    footrule_coefficient,
    max_distance,
)
from oracles import two_sided_p_full_sum


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


def first_repeat_by_scan(values):
    # independent O(n^2) oracle: the first value equal to an earlier one,
    # and the positions of its first occurrence and of that repeat
    for j in range(len(values)):
        for i in range(j):
            if values[i] == values[j]:
                return values[j], (i, j)
    return None


def many_duplicates(n):
    """A (values, value, positions) case: n floats drawn from n // 4 + 2 values."""
    values = (np.random.default_rng(n).integers(0, n // 4 + 2, n) * 0.5 - 3.0).tolist()
    return pytest.param(values, *first_repeat_by_scan(values), id=f"duplicates-n{n}")


def ranks_of(values):
    """Ranks of one tie-free 1-D row through `_rank_rows`."""
    ranks, tied = _rank_rows(np.asarray(values, dtype=float))
    assert not tied
    return ranks.tolist()


def untied_like(values):
    return np.arange(len(values), dtype=float)


class TestComputeRanks:
    # Ranking cases: rank values through `_rank_rows`, ties through
    # `footrule_coefficient` on either margin, input checks through
    # `PairedSample`.
    def test_by_inspection(self):
        assert ranks_of([2.5, 1.1, 7.0]) == [2, 1, 3]

    def test_sorted_input_identity(self):
        assert ranks_of([1.0, 2.0, 3.0, 4.0]) == [1, 2, 3, 4]

    def test_ties_rejected(self):
        with pytest.raises(TiesError):
            footrule_coefficient(PairedSample([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("values, value, positions", [
        ([1.0, 1.0, 2.0], 1.0, (0, 1)),
        # 3.0 sorts first, but 5.0 repeats first in input order
        ([5.0, 3.0, 5.0, 3.0, 5.0], 5.0, (0, 2)),
        ([9.0, 2.0, 7.0, 2.0, 9.0], 2.0, (1, 3)),
        ([0.0, 4.0, -0.0], -0.0, (0, 2)),
        # numpy's default argsort may order each run of equal values any way
        many_duplicates(17),
        many_duplicates(100),
        many_duplicates(100_000),
    ])
    def test_tie_names_first_repeat(self, values, value, positions):
        assert (value, positions) == first_repeat_by_scan(values)
        other = untied_like(values)
        for sample in (PairedSample(values, other), PairedSample(other, values)):
            with pytest.raises(TiesError) as info:
                footrule_coefficient(sample)
            assert repr(info.value.value) == repr(value)
            assert info.value.positions == positions

    def test_single_sort_ranks_match_double_argsort(self):
        rows = np.random.default_rng(3).random((50, 17))
        for row in rows:
            assert ranks_of(row) == (np.argsort(np.argsort(row)) + 1).tolist()

    def test_rank_rows_match_double_argsort_per_row(self):
        # Batches with and without ties, a strided slice as the engine
        # passes, one row and a 1-D row: an untied row's ranks are its
        # stable double argsort plus one, and the flag marks each tied row.
        rng = np.random.default_rng(17)
        untied = rng.random((40, 13))
        tied = untied.copy()
        tied[::2, 3] = tied[::2, 9]
        tied[1::4, 0] = tied[1::4, 1]
        block = rng.random((40, 3, 26))
        block[::3, 1, 5] = block[::3, 1, 11]
        for values in (untied, tied, tied[:, ::-1], block[:, 1, :13], tied[:1], tied[0]):
            ranks, flags = _rank_rows(values)
            assert ranks.shape == values.shape
            rows, ranks = np.atleast_2d(values), np.atleast_2d(ranks)
            expected = [len(np.unique(row)) < len(row) for row in rows]
            assert np.atleast_1d(flags).tolist() == expected
            for row, r, flag in zip(rows, ranks, expected):
                if not flag:
                    stable = np.argsort(np.argsort(row, kind="stable"), kind="stable") + 1
                    assert r.tolist() == stable.tolist()

    def test_nonfinite_rejected(self):
        for bad in ([1.0, math.nan, 2.0], [1.0, math.inf, 2.0]):
            with pytest.raises(NonFiniteError):
                PairedSample(bad, [1.0, 2.0, 3.0])
            with pytest.raises(NonFiniteError):
                PairedSample([1.0, 2.0, 3.0], bad)

    def test_too_short(self):
        with pytest.raises(SampleSizeError):
            PairedSample([1.0], [2.0])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2024)
        for n in (2, 3, 7, 25, 50):
            values = rng.normal(size=n)
            assert ranks_of(values) == rank_by_counting(values)


class TestRankVectors:
    def test_from_sample(self):
        sample = PairedSample([2.5, 1.1, 7.0], [1.0, 2.0, 0.5])
        assert ranks_of(sample.x) == [2, 1, 3]
        assert ranks_of(sample.y) == [2, 3, 1]
        # |2 - 2| + |1 - 3| + |3 - 1|
        assert footrule_coefficient(sample).distance == 4

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

    def test_both_margins_tied_names_x(self):
        # y repeats first in input order, but x's repeat is the one raised
        with pytest.raises(TiesError) as info:
            footrule_coefficient(PairedSample([1.0, 2.0, 1.0, 3.0], [5.0, 5.0, 6.0, 7.0]))
        assert (info.value.value, info.value.positions) == (1.0, (0, 2))

    def test_only_y_tied_names_y(self):
        with pytest.raises(TiesError) as info:
            footrule_coefficient(PairedSample([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 5.0, 7.0]))
        assert (info.value.value, info.value.positions) == (5.0, (0, 2))

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

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            PairedSample(np.zeros((2, 2)), np.zeros((2, 2)))


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
        assert sorted(dist.counts) == list(range(0, max_distance(n) + 1, 2))

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
        # At n = 1, phi would divide by n^2 - 1 = 0.
        with pytest.raises(SampleSizeError, match=r"needs n >= 2, got 1$"):
            ExactNullDistribution(n=1, counts={0: 1})
        with pytest.raises(ValueError, match=r"^sample size must be an integer, got 2.0$"):
            ExactNullDistribution(n=2.0, counts={0: 1, 2: 1})

    # At n = 19 and 20 the mean check's (n^2 - 1) * n! passes int64; from n = 21, n! does.
    @pytest.mark.parametrize("n", [19, 20, 30, 100])
    @pytest.mark.parametrize("to_numpy", [np.int64, np.int32])
    def test_numpy_integer_n_gives_the_python_int_law(self, n, to_numpy):
        dist = enumerate_null_distribution(to_numpy(n))
        assert type(dist.n) is int
        assert dist.counts == enumerate_null_distribution(n).counts

    def test_two_sided_p_n3(self):
        dist = enumerate_null_distribution(3)
        # |phi| >= 1 only at D = 0
        assert dist.two_sided_p(0) == pytest.approx(1 / 6)
        # |phi(2)| = 0.25: D in {0, 2, 4} all have |phi| >= 0.25... check
        # phi values: 1, 0.25, -0.5 -> |phi| >= 0.25 everywhere
        assert dist.two_sided_p(2) == 1
        # |phi(4)| = 0.5: qualifying D are 0 (1.0) and 4 (0.5)
        assert dist.two_sided_p(4) == pytest.approx(4 / 6)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_two_sided_p_matches_full_sum(self, n):
        law = enumerate_null_distribution(n)
        for d in range(0, max_distance(n) + 1, 2):
            assert law.two_sided_p(d) == two_sided_p_full_sum(law, d), d

    @pytest.mark.parametrize("distance", [3, -2, 7, 2.0, 2.5, "2", None])
    def test_unattainable_distance_raises(self, distance):
        law = enumerate_null_distribution(3)
        message = f"^no permutation of n = 3 items has displacement {re.escape(repr(distance))}$"
        with pytest.raises(ValueError, match=message):
            law.phi(distance)
        with pytest.raises(ValueError, match=message):
            law.two_sided_p(distance)

    def test_numpy_integer_distance(self):
        law = enumerate_null_distribution(3)
        assert law.phi(np.int64(4)) == law.phi(4) == -0.5
        assert law.two_sided_p(np.int32(4)) == law.two_sided_p(4)


class TestSharedLaw:
    """One immutable law per n per process."""

    @pytest.mark.parametrize("to_numpy", [int, np.int64])
    def test_one_law_per_n(self, to_numpy):
        assert enumerate_null_distribution(to_numpy(19)) is enumerate_null_distribution(19)

    def test_counts_read_only(self):
        law = enumerate_null_distribution(3)
        with pytest.raises(TypeError):
            law.counts[0] = 5
        assert law.counts == {0: 1, 2: 2, 4: 3}

    def test_law_copies_its_callers_counts(self):
        counts = {0: 1, 2: 2, 4: 3}
        law = ExactNullDistribution(n=3, counts=counts)
        counts[0] = 5
        del counts[4]
        assert law.counts == {0: 1, 2: 2, 4: 3}
        assert law.two_sided_p(4) == Fraction(4, 6)

    def test_law_pickles_and_copies(self):
        law = enumerate_null_distribution(5)
        for twin in (pickle.loads(pickle.dumps(law)), copy.deepcopy(law)):
            assert twin == law and twin.two_sided_p(8) == law.two_sided_p(8)

    def test_user_built_law_equals_shared_law(self):
        shared = enumerate_null_distribution(4)
        built = ExactNullDistribution(n=4, counts=dict(shared.counts))
        assert built == shared and built is not shared
        assert list(built.sorted_items()) == list(shared.sorted_items())


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
