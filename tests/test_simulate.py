import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from footrule import simulate
from footrule.cli import main
from footrule.common import SampleSizeError, Statistic, TiesError
from footrule.moments import null_variance_exact
from footrule.ranks import PairedSample, _footrule_rows, footrule_coefficient
from footrule.representations import (
    UniformPairs,
    _double_sum_rows,
    _hajek_rows,
    double_sum_representation,
    hajek_representation,
)
from footrule.simulate import (
    KS_COMBINATIONS,
    SimConfig,
    StreamKey,
    _block,
    _draw_many,
    _philox_words,
    _uniform_rows,
    draw_statistic,
    run_curve_study,
    run_ks_study,
    run_moment_study,
    uniform_open,
)
from footrule.stats import ks_one_sample, normal_cdf, normal_pdf, summarize

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class TestUniformOpen:
    def test_determinism(self):
        a = uniform_open(StreamKey(9, 4).generator(), size=64)
        b = uniform_open(StreamKey(9, 4).generator(), size=64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = uniform_open(StreamKey(9, 4).generator(), size=64)
        b = uniform_open(StreamKey(9, 5).generator(), size=64)
        c = uniform_open(StreamKey(8, 4).generator(), size=64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_blocks_partition_a_stream(self):
        key = StreamKey(17, 0)
        a = uniform_open(key.generator(block=1), size=64)
        b = uniform_open(key.generator(block=2), size=64)
        assert not np.array_equal(a, b)

    def test_open_interval_and_mean(self):
        draws = uniform_open(StreamKey(1, 0).generator(), size=1_000_000)
        assert draws.min() > 0.0
        assert draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.002

    def test_scalar_draw(self):
        value = uniform_open(StreamKey(2, 3).generator())
        assert isinstance(value, float)
        assert 0.0 < value < 1.0

    def test_full_width_seeds_do_not_alias(self):
        # the key must reach Philox as uint64: through float64, seeds near
        # 2^64 rounded onto each other (and a masked -1 onto 0)
        seeds = (0, 2**63 + 1, 2**63 + 2, 2**64 - 1)
        draws = set()
        for seed in seeds:
            gen = StreamKey(seed, 7).generator()
            assert gen.bit_generator.state["state"]["key"].tolist() == [seed, 7]
            draws.add(tuple(uniform_open(gen, size=8)))
        assert len(draws) == len(seeds)

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_key_rejected(self, seed, stream_id):
        with pytest.raises(ValueError):
            StreamKey(seed, stream_id)


class TestDrawStatistic:
    def test_reproducible(self):
        key = StreamKey(42, 12)
        assert draw_statistic(key, 20, Statistic.FOOTRULE) == draw_statistic(
            key, 20, Statistic.FOOTRULE
        )

    def test_rank_draw_lives_on_the_lattice(self):
        for rep in range(50):
            phi = draw_statistic(StreamKey(7, rep), 10, Statistic.FOOTRULE)
            assert 1 - 3 * 50 / 99 <= phi <= 1.0
            d = (1.0 - phi) * 99 / 3
            assert d == pytest.approx(round(d), abs=1e-9)
            assert round(d) % 2 == 0

    def test_scaling_applied_at_draw_time(self):
        key = StreamKey(5, 99)
        raw = draw_statistic(key, 30, Statistic.HAJEK)
        scaled = draw_statistic(key, 30, Statistic.HAJEK, scale_by_sqrt_n=True)
        assert scaled == raw * math.sqrt(30)

    def test_paper_marginals_bit_identical(self):
        # ranking is invariant under the strictly increasing inverse-normal
        # transform, so normal-x data give the uniform draw's value exactly
        # and --paper-marginals needs no code path of its own
        inverse_normal = statistics.NormalDist().inv_cdf
        for rep in range(20):
            key = StreamKey(3, rep)
            vec = uniform_open(key.generator(block=_block(Statistic.FOOTRULE, 50)), size=100)
            u, v = vec[:50], vec[50:]
            normal_x = [inverse_normal(t) for t in u]
            phi = footrule_coefficient(PairedSample(normal_x, v)).phi
            assert phi == footrule_coefficient(PairedSample(u, v)).phi
            assert phi == draw_statistic(key, 50, Statistic.FOOTRULE)

    def test_statistics_use_distinct_streams(self):
        key = StreamKey(21, 0)
        values = {stat: draw_statistic(key, 25, stat) for stat in Statistic}
        assert len(set(values.values())) == 3

    def test_size_guards(self):
        with pytest.raises(SampleSizeError):
            draw_statistic(StreamKey(0, 0), 1, Statistic.FOOTRULE)
        with pytest.raises(SampleSizeError):
            draw_statistic(StreamKey(0, 0), 0, Statistic.HAJEK)
        assert math.isfinite(draw_statistic(StreamKey(0, 0), 1, Statistic.HAJEK))

    def test_null_mean_footrule_n10(self):
        values = [
            draw_statistic(StreamKey(42, rep), 10, Statistic.FOOTRULE)
            for rep in range(10_000)
        ]
        assert abs(np.mean(values)) < 0.0065  # 3 sigma at Var = 0.04646

    def test_null_variance_double_sum_n10(self):
        values = [
            draw_statistic(StreamKey(42, rep), 10, Statistic.DOUBLE_SUM)
            for rep in range(10_000)
        ]
        assert np.var(values, ddof=1) == pytest.approx(0.0367, abs=0.0016)


class TestMomentStudy:
    def test_smoke_counts(self):
        config = SimConfig(
            seed=1, replications=3, sample_sizes=(5, 9), statistic=Statistic.HAJEK
        )
        rows = run_moment_study(config)
        assert [row.n for row in rows] == [5, 9]
        assert all(row.summary.count == 3 for row in rows)
        assert all(row.redraws == 0 for row in rows)

    @pytest.mark.parametrize("stat", list(Statistic), ids=lambda s: s.value)
    def test_matches_manual_replication_loop(self, stat):
        config = SimConfig(
            seed=11, replications=100, sample_sizes=(12,), statistic=stat
        )
        row = run_moment_study(config)[0]
        values = [
            draw_statistic(StreamKey(11, rep), 12, stat)
            for rep in range(100)
        ]
        expected = summarize(values, 0.0)
        assert row.summary == expected

    def test_thread_count_never_changes_results(self):
        base = dict(seed=2, replications=500, sample_sizes=(10, 20))
        for stat in Statistic:
            one = run_moment_study(SimConfig(statistic=stat, threads=1, **base))
            four = run_moment_study(SimConfig(statistic=stat, threads=4, **base))
            assert one == four

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=0, replications=0, sample_sizes=(5,), statistic=Statistic.HAJEK)
        with pytest.raises(ValueError):
            SimConfig(seed=0, replications=5, sample_sizes=(1,), statistic=Statistic.HAJEK)

    def test_variance_tracks_formula_at_n50(self):
        config = SimConfig(
            seed=6, replications=4000, sample_sizes=(50,), statistic=Statistic.HAJEK
        )
        row = run_moment_study(config)[0]
        target = float(null_variance_exact(50, Statistic.HAJEK))
        se = target * math.sqrt(2.0 / (4000 - 1))
        assert row.summary.ev == pytest.approx(target, abs=4 * se)

    def test_footrule_rmse_window_at_n100(self):
        config = SimConfig(
            seed=42, replications=10_000, sample_sizes=(100,),
            statistic=Statistic.FOOTRULE,
        )
        row = run_moment_study(config)[0]
        assert 0.058 <= row.summary.rmse <= 0.068


class TestKsStudy:
    def test_row_layout(self):
        rows = run_ks_study(seed=3, sample_sizes=(10, 20), replications=80)
        assert len(rows) == 12
        labels = [row.combination for row in rows[:6]]
        assert labels == [f"{a}-vs-{b}" for a, b in KS_COMBINATIONS]
        for row in rows:
            assert 0.0 <= row.outcome.statistic <= 1.0
            assert 0.0 <= row.outcome.p_value <= 1.0
            expected_mode = (
                "one-sample" if row.combination.endswith("-vs-normal") else "two-sample"
            )
            assert row.outcome.mode == expected_mode

    def test_pools_reused_across_combinations(self):
        # phi-vs-phiprime and phi-vs-phidprime must see the same phi pool:
        # statistics at n are a pure function of (seed, rep, statistic, n),
        # so rerunning with the same seed reproduces every row exactly
        first = run_ks_study(seed=9, sample_sizes=(15,), replications=60)
        second = run_ks_study(seed=9, sample_sizes=(15,), replications=60)
        assert first == second

    def test_footrule_repetition_at_n10(self):
        values = [
            draw_statistic(StreamKey(4, rep), 10, Statistic.FOOTRULE, scale_by_sqrt_n=True)
            for rep in range(1000)
        ]
        assert len(set(values)) < 60  # the scaled statistic has few atoms

    def test_double_sum_close_to_normal_even_at_n10(self):
        rows = run_ks_study(seed=42, sample_sizes=(10,), replications=1000)
        by_label = {row.combination: row.outcome.p_value for row in rows}
        assert by_label["phiprime-vs-normal"] > 0.01

    def test_hajek_scaled_convergence_across_sizes(self):
        # one-sample KS of the scaled projected form against Normal(0, 0.4)
        # stays comfortably non-rejecting at every n for most seeds
        for n in range(20, 101, 10):
            hits = 0
            for i in range(10):
                values = [
                    draw_statistic(
                        StreamKey(500 + i, rep), n, Statistic.HAJEK, scale_by_sqrt_n=True
                    )
                    for rep in range(1000)
                ]
                outcome = ks_one_sample(values, lambda t: normal_cdf(t, 0.0, 0.4))
                hits += outcome.p_value > 0.01
            assert hits >= 8, f"n={n}: only {hits}/10 seeds above 0.01"


class TestCurveStudy:
    def test_smoke_grids(self):
        rows = run_curve_study(
            seed=8, sample_sizes=(30,), replications=100, grid_size=64
        )
        assert len(rows) == 3
        for row in rows:
            assert len(row.density.grid) == 64
            assert (row.density.values >= 0).all()
            mass = trapezoid(row.density.values, row.density.grid)
            assert mass == pytest.approx(1.0, abs=0.05)
            assert (np.diff(row.cdf.values) >= 0).all()
            assert row.cdf.values.min() >= 0.0 and row.cdf.values.max() <= 1.0
            assert np.array_equal(row.cdf.grid, row.density.grid)
            ref_d = [normal_pdf(g, 0.0, 0.4) for g in row.density.grid]
            ref_c = [normal_cdf(g, 0.0, 0.4) for g in row.density.grid]
            assert np.allclose(row.ref_density, ref_d)
            assert np.allclose(row.ref_cdf, ref_c)


def reference_footrule(x, y):
    """phi from ranks counted as #{j : x_j <= x_i}, for tie-free rows."""
    n = len(x)
    r = (x[:, None] >= x[None, :]).sum(axis=1)
    s = (y[:, None] >= y[None, :]).sum(axis=1)
    return 1.0 - 3.0 * int(np.abs(r - s).sum()) / (n * n - 1)


def reference_double_sum(u, v):
    """The double-sum form as first written: searchsorted on one pair set."""
    n = len(u)
    sv = np.sort(v)
    prefix = np.concatenate(([0.0], np.cumsum(sv)))
    k = np.searchsorted(sv, u, side="right")
    below = u * k - prefix[k]
    above = (prefix[n] - prefix[k]) - u * (n - k)
    cross = float(np.sum(below + above))
    diag = float(np.sum(np.abs(u - v)))
    return (3.0 * n * n / (n * n - 1)) * (cross / (n * n) - diag / n)


def reference_hajek(u, v):
    n = len(u)
    terms = 2.0 / 3.0 - np.abs(u - v) - u * (1.0 - u) - v * (1.0 - v)
    return 3.0 / (n + 1) * float(np.sum(terms))


class TestBatchedEngine:
    def test_streams_match_numpy_philox(self):
        # 4 seeds x 3 statistics x 3 lengths x 30 replications = 1080 streams
        reps = np.arange(30, dtype=np.uint64) * 977
        for seed in (0, 2**63, 2**64 - 1, 42):
            for stat in Statistic:
                for n in (3, 10, 7):
                    block = _block(stat, n)
                    count = 2 * n + (n == 7)  # 6, 20 and 15 words
                    words = _philox_words(seed, reps, block, count)
                    uniforms, rejected = _uniform_rows(seed, reps, block, count)
                    assert not rejected.any()
                    for i, rep in enumerate(reps.tolist()):
                        key = np.array([seed, rep], dtype=np.uint64)
                        bitgen = np.random.Philox(key=key, counter=[0, 0, 0, block])
                        assert np.array_equal(words[i], bitgen.random_raw(count))
                        bitgen = np.random.Philox(key=key, counter=[0, 0, 0, block])
                        ints = np.random.Generator(bitgen).integers(1, 2**53, size=count)
                        assert np.array_equal(uniforms[i], ints / 2**53)

    @staticmethod
    def _spy(monkeypatch, edit):
        """Edit the generated words in place; record scalar-path keys."""
        real_words, real_value = simulate._philox_words, simulate._draw_value
        scalar_keys = []

        def words(*args):
            out = real_words(*args).copy()
            edit(out)
            return out

        def draw_value(key, *args):
            scalar_keys.append(key)
            return real_value(key, *args)

        monkeypatch.setattr(simulate, "_philox_words", words)
        monkeypatch.setattr(simulate, "_draw_value", draw_value)
        return scalar_keys

    @pytest.mark.parametrize("stat", list(Statistic), ids=lambda s: s.value)
    def test_lemire_rejection_goes_to_scalar_path(self, monkeypatch, stat):
        def edit(words):
            words[3, 0] = 0  # 0 * (2^53 - 1) leaves low word 0 < 2048

        scalar_keys = self._spy(monkeypatch, edit)
        values, redraws = _draw_many(5, 9, stat, 8, False, 1)
        assert scalar_keys == [StreamKey(5, 3)]
        assert redraws == 0
        expected = [draw_statistic(StreamKey(5, rep), 9, stat) for rep in range(8)]
        assert values.tolist() == expected

    def test_tied_row_goes_to_scalar_path(self, monkeypatch):
        def edit(words):
            words[5, 1] = words[5, 0]  # u_0 == u_1 in replication 5

        scalar_keys = self._spy(monkeypatch, edit)
        values, _ = _draw_many(5, 9, Statistic.FOOTRULE, 8, False, 1)
        assert scalar_keys == [StreamKey(5, 5)]
        expected = [draw_statistic(StreamKey(5, rep), 9, Statistic.FOOTRULE)
                    for rep in range(8)]
        assert values.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 200),
        rows=st.integers(1, 6),
        data_seed=st.integers(0, 2**32 - 1),
        tie_row=st.none() | st.integers(0, 5),
    )
    def test_batched_kernels_equal_scalar_functions(self, n, rows, data_seed, tie_row):
        rng = np.random.default_rng(data_seed)
        u, v = rng.random((rows, n)), rng.random((rows, n))
        if tie_row is not None and tie_row < rows:
            v[tie_row, -1] = v[tie_row, 0]
        phi, tied = _footrule_rows(u, v)
        double_sum, hajek = _double_sum_rows(u, v), _hajek_rows(u, v)
        for i in range(rows):
            if tied[i]:
                assert i == tie_row
                with pytest.raises(TiesError):
                    footrule_coefficient(PairedSample(u[i], v[i]))
            else:
                assert phi[i] == footrule_coefficient(PairedSample(u[i], v[i])).phi
                assert phi[i] == reference_footrule(u[i], v[i])
            pairs = UniformPairs(u[i], v[i])
            assert double_sum[i] == double_sum_representation(pairs).value
            assert double_sum[i] == reference_double_sum(u[i], v[i])
            assert hajek[i] == hajek_representation(pairs).value
            assert hajek[i] == reference_hajek(u[i], v[i])

    def test_threads_bytes_identical_over_several_chunks(self, tmp_path):
        n, reps = 200, 700
        assert reps > simulate._CHUNK_WORDS // (2 * n)  # more than one chunk
        base = ["simulate", "moments", "--n-list", str(n), "--reps", str(reps),
                "--seed", "13", "--full-precision"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(base + ["--threads", "1", "--out", str(one)]) == 0
        assert main(base + ["--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
