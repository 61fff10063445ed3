import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from footrule import stats
from footrule.common import (
    BadVarianceError,
    DegenerateSampleError,
    NonFiniteError,
    SampleSizeError,
)
from footrule.stats import (
    bandwidth,
    ecdf_curve,
    gaussian_kde,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
    normal_pdf,
    summarize,
)

trapezoid = getattr(np, "trapezoid", None) or np.trapz
SRC = str(Path(stats.__file__).resolve().parents[1])


def last_error_line(code):
    """Last stderr line of `code` in a new interpreter; it must fail within 30 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=30)
    assert run.returncode != 0, run.stdout
    return run.stderr.strip().splitlines()[-1]


def normal_cdf_oracle(x, mean=0.0, variance=1.0):
    # 50-digit series evaluation of the error function
    with mpmath.workdps(50):
        z = (mpmath.mpf(x) - mean) / mpmath.sqrt(variance)
        return float(0.5 * (1 + mpmath.erf(z / mpmath.sqrt(2))))


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0, 0.0, 0.4) == 0.5

    def test_975_quantile(self):
        assert normal_cdf(1.959964, 0.0, 1.0) == pytest.approx(0.975, abs=1e-6)

    def test_reflection_identity(self):
        for x in (0.1, 0.7, 1.3, 2.9, 5.5):
            assert normal_cdf(-x) + normal_cdf(x) == pytest.approx(1.0, abs=1e-15)

    def test_against_high_precision_oracle(self):
        for z in np.linspace(-8.0, 8.0, 257):
            assert abs(normal_cdf(float(z)) - normal_cdf_oracle(float(z))) < 1e-10

    def test_nondecreasing_on_grid(self):
        values = [normal_cdf(x, 0.0, 0.4) for x in np.linspace(-8.0, 8.0, 10_000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_location_scale(self):
        assert normal_cdf(3.0, 3.0, 7.0) == 0.5
        assert normal_cdf(1.0, 0.0, 4.0) == pytest.approx(normal_cdf(0.5), abs=1e-15)

    def test_bad_variance(self):
        with pytest.raises(BadVarianceError):
            normal_cdf(0.0, 0.0, 0.0)
        with pytest.raises(BadVarianceError):
            normal_pdf(0.0, 0.0, -1.0)


class TestNormalArrays:
    @pytest.mark.parametrize("fn", [normal_pdf, normal_cdf])
    def test_array_matches_scalar_bit_for_bit(self, fn):
        grid = np.linspace(-40.0, 40.0, 10_001)
        for mean, variance in ((0.0, 0.4), (0.3, 1.0), (-2.0, 7.5)):
            values = fn(grid, mean, variance)
            scalars = [fn(x, mean, variance) for x in grid]
            assert all(type(v) is float for v in scalars)
            assert values.dtype == np.float64 and values.shape == grid.shape
            assert np.array_equal(values.view(np.int64), np.array(scalars).view(np.int64))

    @pytest.mark.parametrize("fn", [normal_pdf, normal_cdf])
    def test_signed_zero_and_input_types(self, fn):
        points = [0.0, -0.0, 1.5, -3.25]
        scalars = [fn(x, 0.0, 0.4) for x in points]
        numpy_scalars = [fn(np.float64(x), 0.0, 0.4) for x in points]
        assert all(type(v) is float for v in scalars + numpy_scalars)
        for array in (fn(points, 0.0, 0.4), fn(np.array(points), 0.0, 0.4)):
            assert np.array_equal(array.view(np.int64), np.array(scalars).view(np.int64))
            assert np.array_equal(array.view(np.int64), np.array(numpy_scalars).view(np.int64))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            normal_cdf(np.zeros((2, 2)))

    @pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300])
    def test_far_tail_density_is_zero(self, x):
        # (x - mean) ** 2 passes the float range here; the density is 0.0, not an error.
        assert normal_pdf(x) == 0.0
        assert normal_pdf(np.float64(x), 0.0, 0.4) == 0.0
        assert normal_pdf(np.array([0.0, x]), 0.0, 0.4).tolist() == [normal_pdf(0.0, 0.0, 0.4), 0.0]
        assert normal_cdf(np.array([x])).tolist() == [float(x > 0)]


class TestKolmogorovSf:
    def test_at_zero_clamped(self):
        assert kolmogorov_sf(0.0) == 1.0

    def test_deep_tail_reports_zero(self):
        assert kolmogorov_sf(10.0) == 0.0

    def test_matches_direct_series(self):
        # fixed-k oracle: 2 sum_{k<=100} (-1)^(k-1) exp(-2 k^2 lam^2)
        for lam in (0.5, 1.0, 1.36, 2.0):
            oracle = 2.0 * sum(
                (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
                for k in range(1, 101)
            )
            assert kolmogorov_sf(lam) == pytest.approx(oracle, abs=1e-12)
        assert kolmogorov_sf(1.36) == pytest.approx(0.0495, abs=1e-3)

    def test_nonincreasing(self):
        grid = np.linspace(0.0, 3.0, 400)
        values = [kolmogorov_sf(float(x)) for x in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)

    def test_nan_rejected_without_hanging(self):
        line = last_error_line(
            "from footrule.stats import kolmogorov_sf; kolmogorov_sf(float('nan'))")
        assert line == "ValueError: lambda must be nonnegative, got nan"


class TestKsOneSample:
    def test_equally_spaced_quantiles(self):
        for n in (4, 10, 100):
            samples = [(i - 0.5) / n for i in range(1, n + 1)]
            out = ks_one_sample(samples, lambda t: t)
            assert out.statistic == pytest.approx(0.5 / n, abs=1e-15)
            assert out.p_value == kolmogorov_sf(math.sqrt(n) * out.statistic)

    def test_mass_displacement(self):
        samples = np.linspace(-30.0, -20.0, 50)
        out = ks_one_sample(samples, normal_cdf)
        assert out.statistic >= 0.99
        assert out.p_value < 1e-10

    def test_null_calibration(self):
        rng = np.random.default_rng(123)
        out = ks_one_sample(rng.random(1000), lambda t: np.clip(t, 0.0, 1.0))
        assert out.p_value > 0.001

    def test_too_few(self):
        with pytest.raises(SampleSizeError):
            ks_one_sample([0.5], lambda t: t)

    def test_reference_called_once_on_sorted_sample(self):
        calls = []

        def reference(xs):
            calls.append(xs.copy())
            return np.clip(xs, 0.0, 1.0)

        out = ks_one_sample([0.9, 0.1, 0.5, 0.3], reference)
        assert len(calls) == 1
        assert calls[0].dtype == np.float64 and calls[0].tolist() == [0.1, 0.3, 0.5, 0.9]
        assert out.statistic == ks_one_sample([0.1, 0.3, 0.5, 0.9], lambda t: t).statistic

    @pytest.mark.parametrize("reference", [
        lambda xs: 0.5,
        lambda xs: xs[:-1],
        lambda xs: np.append(xs, 1.0),
        lambda xs: xs[None, :],
    ], ids=["scalar", "short", "long", "two-dimensional"])
    def test_reference_must_return_one_value_per_sample(self, reference):
        with pytest.raises(ValueError, match="reference_cdf must return 3 values"):
            ks_one_sample([0.2, 0.4, 0.6], reference)

    @pytest.mark.parametrize("bad", [math.nan, 2.0, -0.1])
    def test_reference_values_must_lie_in_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"reference_cdf must return values in \[0, 1\]"):
            ks_one_sample([0.2, 0.4, 0.6], lambda xs: np.array([0.2, bad, 0.6]))

    def test_nan_sample_rejected_without_hanging(self):
        line = last_error_line(
            "from footrule.stats import ks_one_sample\n"
            "ks_one_sample([float('nan'), 0.1, 0.3], lambda t: t)")
        assert line == "footrule.common.NonFiniteError: samples must be finite"

    def test_infinite_sample_rejected(self):
        with pytest.raises(NonFiniteError):
            ks_one_sample([0.1, math.inf], lambda t: np.clip(t, 0.0, 1.0))


class TestKsTwoSample:
    def test_identical_multisets(self):
        out = ks_two_sample([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_disjoint_supports(self):
        out = ks_two_sample([0.0, 1.0, 2.0], [5.0, 6.0])
        assert out.statistic == 1.0

    def test_hand_traced_gap(self):
        out = ks_two_sample([1.0, 2.0], [1.5, 2.5])
        assert out.statistic == 0.5
        assert out.p_value == kolmogorov_sf(math.sqrt(2 * 2 / (2 + 2)) * out.statistic)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=40), rng.normal(size=25)
        left, right = ks_two_sample(a, b), ks_two_sample(b, a)
        assert left.statistic == right.statistic
        assert left.p_value == right.p_value
        assert left.p_value == kolmogorov_sf(math.sqrt(40 * 25 / (40 + 25)) * left.statistic)

    def test_invariant_under_common_monotone_map(self):
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=60), rng.normal(size=60) + 0.3
        raw = ks_two_sample(a, b)
        warped = ks_two_sample(np.exp(a), np.exp(b))
        assert warped.statistic == raw.statistic
        assert warped.p_value == raw.p_value

    def test_too_few(self):
        with pytest.raises(SampleSizeError):
            ks_two_sample([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("a, b", [
        ([math.nan, 0.1, 0.3], [0.2, 0.4]),
        ([0.1, 0.3], [0.2, -math.inf]),
    ])
    def test_non_finite_sample_rejected(self, a, b):
        with pytest.raises(NonFiniteError):
            ks_two_sample(a, b)


class TestNullPValueCalibration:
    def test_one_and_two_sample_reject_rates(self):
        # both samples from the same continuous law: p < 0.05 should occur
        # for roughly 5% of seeded runs
        rng = np.random.default_rng(777)
        runs = 500
        low_one = low_two = 0
        for _ in range(runs):
            a = rng.random(1000)
            if ks_one_sample(a, lambda t: np.clip(t, 0.0, 1.0)).p_value < 0.05:
                low_one += 1
            if ks_two_sample(a, rng.random(1000)).p_value < 0.05:
                low_two += 1
        assert 0.02 <= low_one / runs <= 0.09
        assert 0.02 <= low_two / runs <= 0.09


def untiled_kde(samples, grid_size):
    """The KDE before tiling: one (grid, 4096-sample chunk) matrix per chunk."""
    x = np.asarray(samples, dtype=float)
    b = bandwidth(x)
    grid = np.linspace(float(np.min(x)) - 3.0 * b, float(np.max(x)) + 3.0 * b, grid_size)
    dens = np.zeros(grid_size)
    for start in range(0, len(x), 4096):
        chunk = x[start:start + 4096]
        z = (grid[:, None] - chunk[None, :]) / b
        dens += np.exp(-0.5 * z * z).sum(axis=1)
    dens /= len(x) * b * math.sqrt(2.0 * math.pi)
    return grid, dens


class TestGaussianKde:
    def test_two_point_symmetry(self):
        _, dens = gaussian_kde([-1.0, 1.0], grid_size=256)
        assert np.allclose(dens, dens[::-1], rtol=1e-12, atol=0)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        grid, dens = gaussian_kde(rng.normal(size=400), grid_size=512)
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)

    def test_near_degenerate_pair(self):
        _, dens = gaussian_kde([0.0, 0.001], grid_size=64)
        assert np.isfinite(dens).all()
        assert (dens >= 0).all()
        b = bandwidth([0.0, 0.001])
        sd = np.std([0.0, 0.001], ddof=1)
        iqr = np.percentile([0.0, 0.001], 75) - np.percentile([0.0, 0.001], 25)
        assert b == pytest.approx(0.9 * min(sd, iqr / 1.34) * 2 ** (-0.2))
        assert b > 0

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateSampleError):
            gaussian_kde([2.0, 2.0, 2.0])

    def test_spread_too_small_for_the_grid_rejected(self):
        # A positive bandwidth, but 512 points over a few ulps cannot all differ.
        with pytest.raises(DegenerateSampleError, match=r"sample spread 2.22e-16 .* 512 points"):
            gaussian_kde([1.0, 1.0 + 2**-52, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(NonFiniteError, match="samples must be finite"):
            gaussian_kde([bad, 1.0, 2.0], 8)

    # Finite samples whose squared deviations overflow float64 raise one
    # NonFiniteError and no RuntimeWarning, which the test settings make an error.
    @pytest.mark.parametrize("sample", [[-1e308, 1e308, 0.0], [0.0, 1.7e308, 1.0]])
    def test_overflowing_spread_rejected(self, sample):
        with pytest.raises(NonFiniteError, match="sample spread overflows float64"):
            bandwidth(sample)
        with pytest.raises(NonFiniteError, match="sample spread overflows float64"):
            gaussian_kde(sample, 8)

    # A bandwidth of ~1e-200 puts z or z^2 past the float range for the far
    # point; that kernel term is 0, and the test settings make any warning an error.
    @pytest.mark.parametrize("far", [1e100, 1e120], ids=["square-overflows", "z-overflows"])
    def test_far_point_of_a_tiny_bandwidth_is_silent(self, far):
        grid, dens = gaussian_kde([0.0, 1e-200, 2e-200, 3e-200, far], 8)
        assert grid.dtype == dens.dtype == np.float64
        assert np.isfinite(dens).all() and (dens >= 0).all()

    # A subnormal bandwidth puts the normalised density past the float range.
    @pytest.mark.parametrize("sample", [[0.0, 1e-310, 2e-310, 3e-310, 1.0],
                                        [0.0, 5e-324, 1e-323, 1.5e-323, 1.0]],
                             ids=["subnormal", "smallest-subnormal"])
    def test_overflowing_density_rejected(self, sample):
        with pytest.raises(NonFiniteError, match="KDE density overflows float64"):
            gaussian_kde(sample, 8)

    def test_overflowing_grid_rejected(self, monkeypatch):
        # Both ends finite, but their distance is not.
        monkeypatch.setattr(stats, "bandwidth", lambda x: 5e307)
        with pytest.raises(NonFiniteError, match=r"KDE grid \[-1.5e\+308, 1.5e\+308\] overflows"):
            gaussian_kde([0.0, 1.0, 3.0], 8)

    # Partial last tiles (31, 33, 513 rows) and partial last chunks (4097, 9000).
    @pytest.mark.parametrize("grid_size", [2, 31, 33, 64, 513])
    @pytest.mark.parametrize("size", [2, 300, 4095, 4096, 4097, 9000])
    def test_tiles_match_untiled_bits(self, size, grid_size):
        x = np.random.default_rng(size).normal(size=size)
        tiled_grid, tiled_dens = gaussian_kde(x, grid_size=grid_size)
        grid, dens = untiled_kde(x, grid_size)
        assert tiled_grid.tobytes() == grid.tobytes()
        assert tiled_dens.tobytes() == dens.tobytes()

    def test_peak_memory_stays_within_tiles(self):
        # One untiled (512, 4096) chunk matrix alone would be 16 MiB.
        x = np.random.default_rng(3).normal(size=10_000)
        tracemalloc.start()
        try:
            gaussian_kde(x, grid_size=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("grid_size", [8.5, 8.0, 1])
    def test_grid_size_must_be_an_integer_of_at_least_two(self, grid_size):
        with pytest.raises(ValueError, match="grid_size must be an integer >= 2"):
            gaussian_kde([0.0, 1.0, 3.0], grid_size=grid_size)

    def test_bandwidth_rule_by_hand(self):
        x = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        sd = np.std(x, ddof=1)
        iqr = np.percentile(x, 75) - np.percentile(x, 25)
        assert bandwidth(x) == pytest.approx(0.9 * min(sd, iqr / 1.34) * 5 ** (-0.2))

    def test_bandwidth_needs_two_points(self):
        with pytest.raises(SampleSizeError):
            bandwidth([1.0])

    def test_bandwidth_zero_iqr_falls_back_to_sd(self):
        x = [0.0] * 10 + [1.0]
        assert bandwidth(x) == 0.9 * float(np.std(x, ddof=1)) * 11 ** (-0.2)
        assert bandwidth(x) == 0.16798388839026906

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bandwidth_rejects_non_finite_samples(self, bad):
        with pytest.raises(NonFiniteError, match="samples must be finite"):
            bandwidth([bad, 1.0, 2.0])

    def test_grid_spans_three_bandwidths(self):
        x = [0.0, 1.0, 3.0]
        b = bandwidth(x)
        grid, _ = gaussian_kde(x, grid_size=128)
        assert grid[0] == pytest.approx(0.0 - 3 * b)
        assert grid[-1] == pytest.approx(3.0 + 3 * b)
        assert len(grid) == 128


class TestEcdfCurve:
    def test_below_min(self):
        assert ecdf_curve([1.0, 2.0], [0.0])[0] == 0.0

    def test_at_and_above_max(self):
        out = ecdf_curve([1.0, 2.0], [2.0, 5.0])
        assert out.tolist() == [1.0, 1.0]

    def test_interior_count(self):
        out = ecdf_curve([1.0, 2.0, 3.0, 4.0], [2.5])
        assert out[0] == 0.5

    @pytest.mark.parametrize("grid", [[1.0, 0.0], [[0.0, 1.0]], [0.0, math.nan], [math.nan]],
                             ids=["decreasing", "two-dimensional", "nan", "lone-nan"])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            ecdf_curve([1.0, 2.0], grid)

    def test_empty_sample_rejected(self):
        with pytest.raises(SampleSizeError):
            ecdf_curve([], [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(NonFiniteError, match="samples must be finite"):
            ecdf_curve([bad, 1.0, 2.0], [0.0, 1.0])


SAMPLE_TAKERS = {
    "summarize": lambda s: summarize(s, 0.0),
    "bandwidth": bandwidth,
    "ks_one_sample": lambda s: ks_one_sample(s, lambda xs: np.full(len(xs), 0.5)),
    "ks_two_sample-a": lambda s: ks_two_sample(s, [0.1, 0.2, 0.3]),
    "ks_two_sample-b": lambda s: ks_two_sample([0.1, 0.2, 0.3], s),
    "ecdf_curve": lambda s: ecdf_curve(s, [0.0, 1.0]),
    "gaussian_kde": lambda s: gaussian_kde(s, 8),
}


@pytest.mark.parametrize("take", SAMPLE_TAKERS.values(), ids=SAMPLE_TAKERS.keys())
@pytest.mark.parametrize("sample", [np.arange(12.0).reshape(3, 4), 3.0],
                         ids=["two-dimensional", "zero-dimensional"])
def test_samples_must_be_one_dimensional(take, sample):
    with pytest.raises(ValueError, match="samples must be a 1-D array"):
        take(sample)


class TestSummarize:
    def test_constant_input(self):
        out = summarize([1.0, 1.0, 1.0], 0.0)
        assert (out.em, out.ev, out.bias, out.rmse) == (1.0, 0.0, 1.0, 1.0)

    def test_hand_computation(self):
        out = summarize([0.0, 2.0], 0.0)
        assert out.em == 1.0
        assert out.ev == 2.0
        assert out.bias == 1.0
        assert out.rmse == pytest.approx(math.sqrt(2.0))

    def test_symmetric_values(self):
        c = 0.375
        out = summarize([c, -c, c, -c], 0.0)
        assert abs(out.bias) <= 8 * math.ulp(c)
        assert out.rmse == pytest.approx(c, abs=8 * math.ulp(c))

    def test_rmse_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            vals = rng.normal(loc=0.2, scale=0.5, size=rng.integers(2, 500))
            out = summarize(vals, 0.1)
            m = len(vals)
            lhs = out.rmse**2
            rhs = out.bias**2 + out.ev * (m - 1) / m
            assert abs(lhs - rhs) <= 8 * math.ulp(max(lhs, rhs))

    def test_too_few(self):
        with pytest.raises(SampleSizeError):
            summarize([1.0], 0.0)
