from fractions import Fraction

import numpy as np
import pytest

from footrule.common import SampleSizeError, Statistic
from footrule.moments import (
    limiting_variance,
    null_variance_exact,
)
from footrule.ranks import EXACT_MAX_N, enumerate_null_distribution
from oracles import (
    COV_ABS_DIFF_SHARED,
    COV_ABS_DIFF_U_ONE_MINUS_U,
    E_ABS_DIFF,
    E_U_ONE_MINUS_U,
    VAR_ABS_DIFF,
    VAR_U_ONE_MINUS_U,
    cond_exp_abs_diff,
    phi_moments_exact,
)


class TestNullMoments:
    def test_footrule_n10(self):
        out = null_variance_exact(10, Statistic.FOOTRULE)
        assert out == Fraction(207, 4455)
        assert float(out) == pytest.approx(0.0464646, abs=5e-8)

    def test_double_sum_n10(self):
        out = null_variance_exact(10, Statistic.DOUBLE_SUM)
        assert out == Fraction(200, 5445)
        assert float(out) == pytest.approx(0.0367309, abs=5e-8)

    def test_hajek_n10(self):
        assert null_variance_exact(10, Statistic.HAJEK) == Fraction(20, 605)

    def test_footrule_n2_is_one(self):
        assert null_variance_exact(2, Statistic.FOOTRULE) == 1

    def test_size_guards(self):
        with pytest.raises(SampleSizeError):
            null_variance_exact(1, Statistic.FOOTRULE)
        with pytest.raises(SampleSizeError):
            null_variance_exact(1, Statistic.DOUBLE_SUM)
        with pytest.raises(SampleSizeError):
            null_variance_exact(0, Statistic.HAJEK)
        assert float(null_variance_exact(1, Statistic.HAJEK)) == pytest.approx(0.1)

    def test_unknown_kind_raises_type_error(self):
        # The CSV label is not the enum member.
        with pytest.raises(TypeError, match="unknown statistic kind: 'phi'"):
            null_variance_exact(10, "phi")

    @pytest.mark.parametrize("n", [5.0, np.float64(10)], ids=["float", "numpy-float64"])
    def test_non_integer_n_raises_value_error(self, n):
        with pytest.raises(ValueError, match=r"^sample size must be an integer"):
            enumerate_null_distribution(n)
        for kind in Statistic:
            with pytest.raises(ValueError, match=r"^sample size must be an integer"):
                null_variance_exact(n, kind)

    # At n = 1000 the footrule and double-sum denominators pass int32.
    def test_numpy_integer_n_gives_the_python_int_variance(self):
        for kind in Statistic:
            assert null_variance_exact(np.int32(1000), kind) == null_variance_exact(1000, kind)

    @pytest.mark.parametrize("n", [*range(2, 41), EXACT_MAX_N])
    def test_enumeration_agrees_exactly(self, n):
        mean, var = phi_moments_exact(enumerate_null_distribution(n))
        assert mean == 0
        assert var == null_variance_exact(n, Statistic.FOOTRULE)

    def test_projection_reduces_variance(self):
        for n in range(3, 201):
            assert null_variance_exact(n, Statistic.HAJEK) < null_variance_exact(
                n, Statistic.DOUBLE_SUM
            )

    def test_scaled_variances_converge_to_limit(self):
        n = 10_000
        for kind in Statistic:
            assert n * float(null_variance_exact(n, kind)) == pytest.approx(0.4, abs=1e-3)


class TestLimitingVariance:
    def test_value(self):
        assert limiting_variance() == 0.4


class TestCondExpAbsDiff:
    def test_at_zero(self):
        assert cond_exp_abs_diff(0.0) == 0.5

    def test_at_half(self):
        assert cond_exp_abs_diff(0.5) == 0.25

    def test_domain(self):
        with pytest.raises(ValueError):
            cond_exp_abs_diff(1.5)

    def test_tower_property(self):
        # averaging over uniform u must reproduce E|U-V| = 1/3
        rng = np.random.default_rng(37)
        n = 500_000
        vals = np.array([cond_exp_abs_diff(u) for u in rng.random(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert vals.mean() == pytest.approx(1 / 3, abs=3 * se)


class TestUniformConstants:
    def test_exact_rationals(self):
        assert E_ABS_DIFF == Fraction(1, 3)
        assert E_U_ONE_MINUS_U == Fraction(1, 6)
        assert VAR_ABS_DIFF == Fraction(1, 18)
        assert VAR_U_ONE_MINUS_U == Fraction(1, 180)
        assert COV_ABS_DIFF_U_ONE_MINUS_U == Fraction(-1, 180)
        assert COV_ABS_DIFF_SHARED == Fraction(1, 180)

    def test_variance_formulas_rebuild_from_constants(self):
        # Var of one projected-form summand is 1/18 + 2/180 - 4/180 = 2/45,
        # which scaled by (3/(n+1))^2 * n reproduces the closed form.
        per_term = (
            VAR_ABS_DIFF
            + 2 * VAR_U_ONE_MINUS_U
            + 4 * COV_ABS_DIFF_U_ONE_MINUS_U
        )
        assert per_term == Fraction(2, 45)
        for n in (1, 5, 50):
            assert Fraction(9, (n + 1) ** 2) * n * per_term == null_variance_exact(
                n, Statistic.HAJEK
            )
