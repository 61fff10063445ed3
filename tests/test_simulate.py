import errno
import io
import itertools
import math
import os
import statistics
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from footrule import simulate
from footrule.cli import main
from footrule.common import DegenerateSampleError, NonFiniteError, Statistic, TiesError
from footrule.moments import null_variance_exact
from footrule.ranks import (
    PairedSample,
    _footrule_rows,
    enumerate_null_distribution,
    footrule_coefficient,
    max_distance,
)
from footrule.representations import (
    UniformPairs,
    _double_sum_rows,
    _hajek_rows,
    double_sum_representation,
    hajek_representation,
)
from footrule.simulate import (
    KS_COMBINATIONS,
    _LEMIRE_THRESHOLD,
    StreamKey,
    _block,
    _draw_statistics,
    _philox_words,
    _stream_uniforms,
    _uniform_rows,
    run_curve_study,
    run_ks_study,
    run_moment_study,
)
from footrule.stats import ks_one_sample, ks_two_sample, normal_cdf, normal_pdf, summarize
from numpy_oracle import draw_value, lemire_uniforms, redraw_loop, uniform_open
from oracles import phi_moments_exact

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class TestUniformOpen:
    """`_stream_uniforms`, the in-repo uniform source, against numpy's sampler."""

    def test_determinism(self):
        a = _stream_uniforms(9, 4, 0, 64)
        assert np.array_equal(a, _stream_uniforms(9, 4, 0, 64))
        assert np.array_equal(a, uniform_open(StreamKey(9, 4).generator(), size=64))

    def test_streams_differ(self):
        a = _stream_uniforms(9, 4, 0, 64)
        b = _stream_uniforms(9, 5, 0, 64)
        c = _stream_uniforms(8, 4, 0, 64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_blocks_partition_a_stream(self):
        a = _stream_uniforms(17, 0, 1, 64)
        b = _stream_uniforms(17, 0, 2, 64)
        assert not np.array_equal(a, b)
        assert np.array_equal(b, uniform_open(StreamKey(17, 0).generator(block=2), size=64))

    def test_open_interval_and_mean(self):
        draws = _stream_uniforms(1, 0, 0, 1_000_000)
        assert np.array_equal(draws, uniform_open(StreamKey(1, 0).generator(), size=1_000_000))
        assert draws.min() > 0.0
        assert draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.002

    def test_scalar_draw(self):
        value = uniform_open(StreamKey(2, 3).generator())
        assert isinstance(value, float)
        assert 0.0 < value < 1.0
        assert value == _stream_uniforms(2, 3, 0, 1)[0]

    def test_full_width_seeds_do_not_alias(self):
        # the key must reach Philox as uint64: through float64, seeds near
        # 2^64 rounded onto each other (and a masked -1 onto 0)
        seeds = (0, 2**63 + 1, 2**63 + 2, 2**64 - 1)
        draws = set()
        for seed in seeds:
            gen = StreamKey(seed, 7).generator()
            assert gen.bit_generator.state["state"]["key"].tolist() == [seed, 7]
            ours = _stream_uniforms(seed, 7, 0, 8)
            assert np.array_equal(ours, uniform_open(gen, size=8))
            draws.add(tuple(ours))
        assert len(draws) == len(seeds)

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_key_rejected(self, seed, stream_id):
        with pytest.raises(ValueError):
            StreamKey(seed, stream_id)


class TestDrawStatistic:
    def test_reproducible(self):
        first, _ = _draw_statistics(42, 20, 13)[Statistic.FOOTRULE]
        simulate._POOLS.clear()
        again, _ = _draw_statistics(42, 20, 13)[Statistic.FOOTRULE]
        assert first[12] == again[12]

    def test_rank_draw_lives_on_the_lattice(self):
        values, _ = _draw_statistics(7, 10, 50)[Statistic.FOOTRULE]
        for phi in values.tolist():
            assert 1 - 3 * 50 / 99 <= phi <= 1.0
            d = (1.0 - phi) * 99 / 3
            assert d == pytest.approx(round(d), abs=1e-9)
            assert round(d) % 2 == 0

    def test_paper_marginals_bit_identical(self):
        # ranking is invariant under the strictly increasing inverse-normal
        # transform, so the paper's normal-x, uniform-y data give the
        # uniform draw's value exactly
        inverse_normal = statistics.NormalDist().inv_cdf
        drawn, _ = _draw_statistics(3, 50, 20)[Statistic.FOOTRULE]
        for rep in range(20):
            vec = _stream_uniforms(3, rep, _block(Statistic.FOOTRULE, 50), 100)
            u, v = vec[:50], vec[50:]
            normal_x = [inverse_normal(t) for t in u]
            phi = footrule_coefficient(PairedSample(normal_x, v)).phi
            assert phi == footrule_coefficient(PairedSample(u, v)).phi
            assert phi == drawn[rep]

    def test_statistics_use_distinct_streams(self):
        drawn = _draw_statistics(21, 25, 1)
        assert len({values[0] for values, _ in drawn.values()}) == 3

    def test_null_mean_footrule_n10(self):
        values, _ = _draw_statistics(42, 10, 10_000)[Statistic.FOOTRULE]
        assert abs(np.mean(values)) < 0.0065  # 3 sigma at Var = 0.04646

    def test_null_variance_double_sum_n10(self):
        values, _ = _draw_statistics(42, 10, 10_000)[Statistic.DOUBLE_SUM]
        assert np.var(values, ddof=1) == pytest.approx(0.0367, abs=0.0016)


class TestMomentStudy:
    def test_smoke_counts(self):
        rows = run_moment_study(seed=1, sample_sizes=(5, 9), replications=3)
        assert [(row.statistic, row.n) for row in rows] == [
            (stat, n) for stat in Statistic for n in (5, 9)
        ]
        for row in rows:
            values, _ = _draw_statistics(1, row.n, 3)[row.statistic]
            assert row.summary == summarize(values, 0.0)
        assert all(row.redraws == 0 for row in rows)

    @pytest.mark.parametrize("stat", list(Statistic), ids=lambda s: s.value)
    def test_matches_manual_replication_loop(self, stat):
        rows = run_moment_study(seed=11, sample_sizes=(12,), replications=100)
        [row] = [row for row in rows if row.statistic is stat]
        # against numpy's Generator, one replication at a time
        values = [draw_value(StreamKey(11, rep), 12, stat)[0] for rep in range(100)]
        expected = summarize(values, 0.0)
        assert row.summary == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_moment_study(seed=0, sample_sizes=(5,), replications=0)
        with pytest.raises(ValueError):
            run_moment_study(seed=0, sample_sizes=(1,), replications=5)

    def test_variance_tracks_formula_at_n50(self):
        rows = run_moment_study(seed=6, sample_sizes=(50,), replications=4000)
        [row] = [row for row in rows if row.statistic is Statistic.HAJEK]
        target = float(null_variance_exact(50, Statistic.HAJEK))
        se = target * math.sqrt(2.0 / (4000 - 1))
        assert row.summary.ev == pytest.approx(target, abs=4 * se)

    def test_footrule_rmse_window_at_n100(self):
        rows = run_moment_study(seed=42, sample_sizes=(100,), replications=10_000)
        [row] = [row for row in rows if row.statistic is Statistic.FOOTRULE]
        assert 0.058 <= row.summary.rmse <= 0.068


class TestKsStudy:
    def test_row_layout(self):
        rows = run_ks_study(seed=3, sample_sizes=(10, 20), replications=80)
        assert len(rows) == 12
        labels = [row.combination for row in rows[:6]]
        assert labels == [f"{a}-vs-{b}" for a, b in KS_COMBINATIONS]
        pools = {
            (stat.value, n): values * math.sqrt(n)
            for n in (10, 20) for stat, (values, _) in _draw_statistics(3, n, 80).items()
        }
        for row in rows:
            assert 0.0 <= row.outcome.statistic <= 1.0
            assert 0.0 <= row.outcome.p_value <= 1.0
            left, right = row.combination.split("-vs-")
            if right == "normal":
                expected = ks_one_sample(pools[left, row.n],
                                         lambda xs: normal_cdf(xs, 0.0, 0.4))
            else:
                expected = ks_two_sample(pools[left, row.n], pools[right, row.n])
            assert row.outcome == expected

    def test_pools_reused_across_combinations(self):
        # phi-vs-phiprime and phi-vs-phidprime must see the same phi pool:
        # statistics at n are a pure function of (seed, rep, statistic, n),
        # so rerunning with the same seed reproduces every row exactly
        first = run_ks_study(seed=9, sample_sizes=(15,), replications=60)
        simulate._POOLS.clear()
        second = run_ks_study(seed=9, sample_sizes=(15,), replications=60)
        assert first == second

    def test_footrule_repetition_at_n10(self):
        values, _ = _draw_statistics(4, 10, 1000)[Statistic.FOOTRULE]
        values = values * math.sqrt(10)
        assert len(set(values.tolist())) < 60  # the scaled statistic has few atoms

    def test_one_normal_cdf_call_per_one_sample_test(self, monkeypatch):
        calls = []

        def spy(x, mean=0.0, variance=1.0):
            calls.append(x)
            return normal_cdf(x, mean, variance)

        monkeypatch.setattr(simulate, "normal_cdf", spy)
        run_ks_study(seed=1, sample_sizes=(10, 30), replications=50)
        assert len(calls) == 6
        for x in calls:
            assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (50,)

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
                values, _ = _draw_statistics(500 + i, n, 1000)[Statistic.HAJEK]
                values = values * math.sqrt(n)
                outcome = ks_one_sample(values, lambda t: normal_cdf(t, 0.0, 0.4))
                hits += outcome.p_value > 0.01
            assert hits >= 8, f"n={n}: only {hits}/10 seeds above 0.01"


_BAD_SETTINGS = {
    "n-below-2": dict(sample_sizes=(10, 1)),
    "n-too-large": dict(sample_sizes=(10, 2**32)),
    "reps-below-2": dict(replications=1),
    "seed-negative": dict(seed=-1),
    "seed-too-large": dict(seed=2**64),
    # A float would be truncated into the key or fail only after drawing.
    "seed-fractional": dict(seed=1.5),
    "reps-fractional": dict(replications=2.5),
    "n-fractional": dict(sample_sizes=(10.0,)),
}


@pytest.mark.parametrize("study, bad", [
    *((study, bad) for study in (run_moment_study, run_ks_study, run_curve_study)
      for bad in _BAD_SETTINGS.values()),
    (run_curve_study, dict(grid_size=1)),
    (run_curve_study, dict(grid_size=4.5)),
], ids=[*(f"{study}-{name}" for study in ("moments", "kstest", "curves")
          for name in _BAD_SETTINGS), "curves-grid-size", "curves-grid-size-fractional"])
def test_invalid_study_settings_rejected_before_drawing(monkeypatch, study, bad):
    def no_draws(*args):
        raise AssertionError("drew before validating the settings")

    monkeypatch.setattr(simulate, "_draw_statistics", no_draws)
    with pytest.raises(ValueError):
        study(**{"seed": 1, "sample_sizes": (10,), "replications": 50, **bad})


def test_numpy_integer_settings_draw_as_python_ints():
    as_numpy = run_moment_study(np.uint64(1), (np.int64(10),), np.int32(50))
    assert as_numpy == run_moment_study(1, (10,), 50)


def test_sample_sizes_may_be_a_numpy_array():
    assert run_moment_study(42, np.array([10, 20]), 100) == run_moment_study(42, (10, 20), 100)


class TestCurveStudy:
    def test_smoke_grids(self):
        rows = run_curve_study(
            seed=8, sample_sizes=(30,), replications=100, grid_size=64
        )
        assert len(rows) == 3
        for row in rows:
            assert len(row.grid) == 64
            assert (row.density >= 0).all()
            mass = trapezoid(row.density, row.grid)
            assert mass == pytest.approx(1.0, abs=0.05)
            assert (np.diff(row.cdf) >= 0).all()
            assert row.cdf.min() >= 0.0 and row.cdf.max() <= 1.0
            ref_d = [normal_pdf(g, 0.0, 0.4) for g in row.grid]
            ref_c = [normal_cdf(g, 0.0, 0.4) for g in row.grid]
            assert np.array_equal(row.ref_density, ref_d)
            assert np.array_equal(row.ref_cdf, ref_c)

    def test_rows_compare_by_value(self):
        first = run_curve_study(1, (10,), 20, 8)
        assert first == run_curve_study(1, (10,), 20, 8)
        assert first != run_curve_study(2, (10,), 20, 8)
        assert (first[0] == "phi") is False
        assert first[0] != first[1]

    @pytest.mark.parametrize("error", [DegenerateSampleError, NonFiniteError])
    def test_refused_pool_names_its_statistic_and_n(self, monkeypatch, error):
        def refuse(values, grid_size):
            raise error("the KDE's message")

        monkeypatch.setattr(simulate, "gaussian_kde", refuse)
        with pytest.raises(error, match=r"^phi at n=10: the KDE's message$"):
            run_curve_study(1, (10,), 20, 8)


# One Philox pass per n serves all three statistics of both studies.
@pytest.mark.parametrize("study", [run_ks_study, run_curve_study], ids=["kstest", "curves"])
def test_one_draw_per_sample_size(monkeypatch, study):
    calls = []

    def spy(seed, n, replications):
        calls.append(n)
        return _draw_statistics(seed, n, replications)

    monkeypatch.setattr(simulate, "_draw_statistics", spy)
    study(seed=1, sample_sizes=(10, 30), replications=50)
    assert calls == [10, 30]


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


# m * (2^53 - 1) = low (mod 2^64) for m = low * INVERSE: the words whose low
# word is `low`; numpy rejects those with low < _LEMIRE_THRESHOLD.
INVERSE = pow(2**53 - 1, -1, 2**64)


def rejected_word(low):
    return low * INVERSE % 2**64


class TestBatchedEngine:
    def test_streams_match_numpy_philox(self):
        # 5 seeds x 4 lengths x 3 statistics x 32 replications = 1920 streams,
        # the three statistics' blocks of one n drawn in one call. At the key's
        # edges the folded rounds wrap: rep + W1 and rep ^ (column term) at
        # reps 2^63 and 2^64 - 1, seed + W0 at seeds 2^63, 2^64 - W0 (to 0)
        # and 2^64 - 1; n = 2^32 - 1 fills the block's low word.
        reps = np.append(np.arange(30, dtype=np.uint64) * 977,
                         np.array([2**63, 2**64 - 1], dtype=np.uint64))
        for seed in (0, 2**63, 2**64 - 1, 42, 2**64 - 0x9E3779B97F4A7C15):
            for n, count in ((3, 6), (10, 20), (7, 15), (2**32 - 1, 10)):
                blocks = tuple(_block(stat, n) for stat in Statistic)
                words = _philox_words(seed, reps, blocks, count)
                uniforms, rejected = _uniform_rows(seed, reps, blocks, count)
                assert words.shape == uniforms.shape == (len(reps), 3, count)
                assert not rejected.any()
                for b, block in enumerate(blocks):
                    for i, rep in enumerate(reps.tolist()):
                        key = np.array([seed, rep], dtype=np.uint64)
                        bitgen = np.random.Philox(key=key, counter=[0, 0, 0, block])
                        assert np.array_equal(words[i, b], bitgen.random_raw(count))
                        bitgen = np.random.Philox(key=key, counter=[0, 0, 0, block])
                        ints = np.random.Generator(bitgen).integers(1, 2**53, size=count)
                        assert np.array_equal(uniforms[i, b], ints / 2**53)

    @staticmethod
    def _force(monkeypatch, rep, block, edits):
        """Put `edits` ({word index: word}) into counter block `block` of stream
        `rep` wherever the engine reads it, make numpy's Philox and Generator
        unusable, and record the replications the engine redraws one at a time.
        Until the patches are undone the engine draws into pools of its own,
        so no pool drawn before serves a forced draw, and no forced value
        outlives the patches."""
        real_words, real_redraw = simulate._philox_words, simulate._redraw_row
        redrawn = []

        def words(seed, reps, blocks, count):
            out = real_words(seed, reps, blocks, count).copy()
            if block in blocks:
                for k, word in edits.items():
                    if k < count:
                        out[reps == rep, blocks.index(block), k] = word
            return out

        def redraw_row(seed, row_rep, *args):
            redrawn.append(row_rep)
            return real_redraw(seed, row_rep, *args)

        def unusable(*args, **kwargs):
            raise AssertionError("the engine called numpy's random module")

        monkeypatch.setattr(simulate, "_philox_words", words)
        monkeypatch.setattr(simulate, "_redraw_row", redraw_row)
        monkeypatch.setattr(simulate, "_POOLS", {})
        monkeypatch.setattr(np.random, "Philox", unusable)
        monkeypatch.setattr(np.random, "Generator", unusable)
        return redrawn

    @staticmethod
    def _head(seed, rep, block):
        return _philox_words(seed, np.array([rep], dtype=np.uint64), (block,), 4)[0, 0].copy()

    @pytest.mark.parametrize("stat", list(Statistic), ids=lambda s: s.value)
    def test_lemire_rejection_goes_to_scalar_path(self, monkeypatch, stat):
        # word 0 of replication 3 is one numpy rejects: 0 * (2^53 - 1) leaves
        # low word 0 < 2048, so the row's uniforms start at word 1
        head = self._head(5, 3, _block(stat, 9))
        head[0] = 0
        expected = [draw_value(StreamKey(5, rep), 9, stat, head if rep == 3 else None)[0]
                    for rep in range(8)]
        redrawn = self._force(monkeypatch, 3, _block(stat, 9), {0: 0})
        values, redraws = _draw_statistics(5, 9, 8)[stat]
        assert redrawn == [3]
        assert redraws == 0
        assert values.tolist() == expected

    def test_tied_row_goes_to_scalar_path(self, monkeypatch):
        # u_0 == u_1 in replication 5: its value comes from uniforms 18..35
        head = self._head(5, 5, _block(Statistic.FOOTRULE, 9))
        head[1] = head[0]
        expected = [draw_value(StreamKey(5, rep), 9, Statistic.FOOTRULE,
                               head if rep == 5 else None) for rep in range(8)]
        assert [redraws for _, redraws in expected] == [0] * 5 + [1] + [0] * 2
        redrawn = self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, 9), {1: head[0]})
        values, redraws = _draw_statistics(5, 9, 8)[Statistic.FOOTRULE]
        assert redrawn == [5]
        assert redraws == 1
        assert values.tolist() == [value for value, _ in expected]

    def test_tied_v_row_goes_to_scalar_path(self, monkeypatch):
        # v_0 == v_1 in replication 5 at n = 2: only the V margin ties
        head = self._head(5, 5, _block(Statistic.FOOTRULE, 2))
        head[3] = head[2]
        expected = [draw_value(StreamKey(5, rep), 2, Statistic.FOOTRULE,
                               head if rep == 5 else None) for rep in range(8)]
        assert [redraws for _, redraws in expected] == [0] * 5 + [1] + [0] * 2
        redrawn = self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, 2), {3: head[2]})
        values, redraws = _draw_statistics(5, 2, 8)[Statistic.FOOTRULE]
        assert redrawn == [5]
        assert redraws == 1
        assert values.tolist() == [value for value, _ in expected]

    def test_cli_notes_tie_redraws(self, monkeypatch, capsys, tmp_path):
        head = self._head(5, 5, _block(Statistic.FOOTRULE, 9))
        self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, 9), {1: head[0]})
        out = tmp_path / "moments.csv"
        assert main(["simulate", "moments", "--seed", "5", "--n-list", "9",
                     "--reps", "8", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "note: 1 tie redraws at n=9 for phi\n")

    @pytest.mark.parametrize("max_redraws, code", [(1, 0), (0, 3)])
    def test_cli_status_holds_when_stderr_fails(self, monkeypatch, tmp_path, max_redraws,
                                                code):
        # A note or error that cannot be written to stderr changes neither the
        # exit status nor the CSV.
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        head = self._head(5, 5, _block(Statistic.FOOTRULE, 9))
        self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, 9), {1: head[0]})
        monkeypatch.setattr(simulate, "_MAX_REDRAWS", max_redraws)
        monkeypatch.setattr(sys, "stderr", Unwritable())
        out = tmp_path / "moments.csv"
        assert main(["simulate", "moments", "--seed", "5", "--n-list", "9",
                     "--reps", "8", "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_cli_exits_3_when_redraws_run_out(self, monkeypatch, capsys):
        # with no redraws left, the tied replication 5 raises TiesError
        head = self._head(5, 5, _block(Statistic.FOOTRULE, 9))
        self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, 9), {1: head[0]})
        monkeypatch.setattr(simulate, "_MAX_REDRAWS", 0)
        code = main(["simulate", "moments", "--seed", "5", "--n-list", "9", "--reps", "8"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "footrule: stream (5, 5) tied on 1 draws in a row\n"

    @settings(max_examples=80, deadline=None)
    @given(
        stat=st.sampled_from(list(Statistic)),
        n=st.integers(2, 12),
        seed=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 3),
        lows=st.lists(st.integers(0, _LEMIRE_THRESHOLD - 1), min_size=1, max_size=3),
        tie=st.booleans(),
        data=st.data(),
    )
    @example(stat=Statistic.FOOTRULE, n=5, seed=0, rep=2, lows=[0], tie=True, data=None)
    @example(stat=Statistic.FOOTRULE, n=3, seed=1, rep=0, lows=[5, 2047, 0], tie=True,
             data=None)
    def test_rejection_runs_match_lemire_reference(self, stat, n, seed, rep, lows, tie,
                                                   data):
        # 1-3 consecutive words numpy rejects, from word `start` of one row,
        # then optionally the next two accepted words equal (a tie when both
        # fall in U or both in V)
        start = data.draw(st.integers(0, 2 * n - 1)) if data else 0
        block = _block(stat, n)
        words = _philox_words(seed, np.array([rep], dtype=np.uint64), (block,), 6 * n + 8)[0, 0]
        edits = {start + j: rejected_word(low) for j, low in enumerate(lows)}
        if tie:
            edits[start + len(lows) + 1] = int(words[start + len(lows)])
        words = words.tolist()
        for k, word in edits.items():
            words[k] = word
        uniforms = lemire_uniforms(words)
        expected, expected_redraws = redraw_loop(
            lambda size: np.array(list(itertools.islice(uniforms, size))), n, stat)
        clean, _ = _draw_statistics(seed, n, 4)[stat]
        with pytest.MonkeyPatch.context() as monkeypatch:
            redrawn = self._force(monkeypatch, rep, block, edits)
            values, redraws = _draw_statistics(seed, n, 4)[stat]
        assert redrawn == [rep]
        assert values[rep] == expected
        assert redraws == expected_redraws
        assert np.delete(values, rep).tolist() == np.delete(clean, rep).tolist()

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
        d, phi, x_tied, y_tied = _footrule_rows(u, v)
        double_sum, hajek = _double_sum_rows(u, v), _hajek_rows(u, v)
        assert not x_tied.any()
        assert y_tied.tolist() == [i == tie_row for i in range(rows)]
        for i in range(rows):
            if y_tied[i]:
                with pytest.raises(TiesError):
                    footrule_coefficient(PairedSample(u[i], v[i]))
            else:
                result = footrule_coefficient(PairedSample(u[i], v[i]))
                assert (d[i], phi[i]) == (result.distance, result.phi)
                assert phi[i] == reference_footrule(u[i], v[i])
            pairs = UniformPairs(u[i], v[i])
            assert double_sum[i] == double_sum_representation(pairs)
            assert double_sum[i] == reference_double_sum(u[i], v[i])
            assert hajek[i] == hajek_representation(pairs)
            assert hajek[i] == reference_hajek(u[i], v[i])

    def test_threads_bytes_identical_over_several_chunks(self, tmp_path):
        n, reps = 200, 700
        assert round(reps * 6 * n / simulate._CHUNK_WORDS) > 1  # more than one batch
        base = ["simulate", "moments", "--n-list", str(n), "--reps", str(reps),
                "--seed", "13", "--full-precision"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(base + ["--threads", "1", "--out", str(one)]) == 0
        simulate._POOLS.clear()
        assert main(base + ["--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("study", [["moments"], ["kstest"], ["curves", "--grid-size", "64"]],
                             ids=["moments", "kstest", "curves"])
    def test_no_study_starts_a_thread(self, tmp_path, monkeypatch, study):
        n, reps = 100, 1400
        assert round(reps * 6 * n / simulate._CHUNK_WORDS) == 26  # batches
        base = ["simulate", *study, "--n-list", str(n), "--reps", str(reps), "--seed", "8",
                "--full-precision"]

        def outputs(label, threads):
            simulate._POOLS.clear()  # draw again, not from the first run's pool
            assert main(base + ["--threads", threads, "--out", str(tmp_path / label)]) == 0
            return {p.name.removeprefix(label): p.read_bytes() for p in tmp_path.glob(f"{label}*")}

        def start(thread):
            raise AssertionError(f"a study started thread {thread.name}")

        single = outputs("one", "1")
        assert len(single) == (2 if study[0] == "curves" else 1)
        monkeypatch.setattr(threading.Thread, "start", start)
        assert outputs("two", "2") == single

    def test_small_chunks_keep_every_byte(self, tmp_path, monkeypatch):
        # at 600 words 37 replications split into round(3.7) = 4 batches of
        # 9-10 at n = 10 and round(9.25) = 9 batches of 4-5 at n = 25
        n_list, reps = (10, 25), 37
        base = ["--n-list", ",".join(map(str, n_list)), "--reps", str(reps), "--seed", "4",
                "--full-precision"]
        runs = {"moments": ["moments"], "kstest": ["kstest"],
                "curves": ["curves", "--grid-size", "16"]}

        def outputs(label, *threads):
            for name, args in runs.items():
                simulate._POOLS.clear()  # each study draws its own replications
                out = tmp_path / (f"{label}-{name}" + ("" if name == "curves" else ".csv"))
                assert main(["simulate", *args, *base, *threads, "--out", str(out)]) == 0
            return {path.name.removeprefix(label): path.read_bytes()
                    for path in tmp_path.glob(f"{label}-*")}

        default = outputs("default")
        assert len(default) == 4
        monkeypatch.setattr(simulate, "_CHUNK_WORDS", 600)
        for n, batches in zip(n_list, (4, 9)):
            assert round(reps * 6 * n / simulate._CHUNK_WORDS) == batches
        assert outputs("one", "--threads", "1") == default
        assert outputs("two", "--threads", "2") == default

    # At n = 10 a replication is 60 words: 30 and 60 leave 37 one-row batches
    # (never an empty one), 100 leaves 22 of one or two rows, 600 4 of 9-10,
    # and 10^6 one batch larger than the whole study.
    @pytest.mark.parametrize("chunk_words", [30, 60, 100, 600, 1 << 15, 10**6])
    def test_batch_boundaries_move_no_value(self, monkeypatch, chunk_words):
        n, reps = 10, 37
        head = self._head(5, 5, _block(Statistic.FOOTRULE, n))
        self._force(monkeypatch, 5, _block(Statistic.FOOTRULE, n), {1: head[0]})
        expected = _draw_statistics(5, n, reps)
        assert expected[Statistic.FOOTRULE][1] == 1  # the forced tie
        real_chunk, batches = simulate._draw_chunk, []

        def chunk(seed, n, lo, hi, values):
            batches.append((lo, hi))
            return real_chunk(seed, n, lo, hi, values)

        monkeypatch.setattr(simulate, "_draw_chunk", chunk)
        monkeypatch.setattr(simulate, "_CHUNK_WORDS", chunk_words)
        simulate._POOLS.clear()
        drawn = _draw_statistics(5, n, reps)
        for stat in Statistic:
            assert drawn[stat][0].tobytes() == expected[stat][0].tobytes()
            assert drawn[stat][1] == expected[stat][1]
        bounds = sorted(batches)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == reps
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) * 6 * n <= 1.5 * chunk_words + 6 * n
        assert len(bounds) == {30: 37, 60: 37, 100: 22, 600: 4}.get(chunk_words, 1)


class TestPools:
    """One seed's draws are kept, one pool per n, and serve every later request."""

    N = 9
    BLOCK = _block(Statistic.FOOTRULE, 9)

    def _force_ties(self, monkeypatch, reps):
        """A tie in each of replications `reps` of phi at n = 9, seed 5."""
        for rep in reps:
            head = TestBatchedEngine._head(5, rep, self.BLOCK)
            TestBatchedEngine._force(monkeypatch, rep, self.BLOCK, {1: head[0]})

    @staticmethod
    def _assert_same(drawn, expected):
        for stat in Statistic:
            assert drawn[stat][0].tobytes() == expected[stat][0].tobytes()
            assert drawn[stat][1] == expected[stat][1]

    def test_larger_request_draws_again_from_replication_0(self, monkeypatch):
        # one forced tie inside the 50-replication prefix, one beyond it; small
        # batches, so each draw takes several
        self._force_ties(monkeypatch, (30, 90))
        monkeypatch.setattr(simulate, "_CHUNK_WORDS", 1 << 10)
        real_chunk, batches = simulate._draw_chunk, []

        def chunk(seed, n, lo, hi, values):
            batches.append((lo, hi))
            return real_chunk(seed, n, lo, hi, values)

        monkeypatch.setattr(simulate, "_draw_chunk", chunk)
        cold, cold_batches = {}, {}
        for reps in (50, 120):
            simulate._POOLS.clear()
            batches.clear()
            cold[reps] = _draw_statistics(5, self.N, reps)
            cold_batches[reps] = batches.copy()
        assert [cold[reps][Statistic.FOOTRULE][1] for reps in (50, 120)] == [1, 2]
        assert len(cold_batches[120]) > 1 and cold_batches[120][0][0] == 0
        simulate._POOLS.clear()
        self._assert_same(_draw_statistics(5, self.N, 50), cold[50])
        batches.clear()
        self._assert_same(_draw_statistics(5, self.N, 120), cold[120])
        assert batches == cold_batches[120]  # not [(50, 120)]: the cold draw's batches
        self._assert_same(_draw_statistics(5, self.N, 50), cold[50])  # a prefix of 120

    def test_repeat_request_makes_no_philox_pass(self, monkeypatch):
        first = _draw_statistics(3, 10, 40)

        def no_pass(*args):
            raise AssertionError("a pooled request drew words")

        monkeypatch.setattr(simulate, "_philox_words", no_pass)
        self._assert_same(_draw_statistics(3, 10, 40), first)
        prefix = _draw_statistics(3, 10, 25)
        for stat in Statistic:
            assert prefix[stat][0].tobytes() == first[stat][0][:25].tobytes()

    def test_new_seed_drops_old_pools(self):
        for n in (10, 20):
            _draw_statistics(1, n, 30)
        assert set(simulate._POOLS) == {(1, 10), (1, 20)}
        _draw_statistics(2, 10, 30)
        assert set(simulate._POOLS) == {(2, 10)}

    def test_failed_larger_draw_keeps_the_pool(self, monkeypatch):
        self._force_ties(monkeypatch, (90,))
        monkeypatch.setattr(simulate, "_MAX_REDRAWS", 0)
        before = _draw_statistics(5, self.N, 50)
        with pytest.raises(TiesError):
            _draw_statistics(5, self.N, 120)
        assert simulate._POOLS[5, self.N].values.shape == (3, 50)
        self._assert_same(_draw_statistics(5, self.N, 50), before)

    @staticmethod
    def _cold(seed, n, reps):
        """A draw with no pool, which leaves the pools as they were."""
        kept, simulate._POOLS = simulate._POOLS, {}
        try:
            return _draw_statistics(seed, n, reps)
        finally:
            simulate._POOLS = kept

    @settings(max_examples=40, deadline=None)
    @given(requests=st.lists(st.tuples(st.sampled_from((5, 6)), st.sampled_from((5, 9)),
                                       st.integers(2, 60)), min_size=1, max_size=12))
    # a hit, a prefix, a larger request, a seed switch and a return to the seed
    @example(requests=[(5, 9, 30), (5, 9, 30), (5, 9, 10), (5, 9, 50), (5, 5, 20),
                       (6, 9, 20), (5, 9, 60)])
    def test_any_request_order_equals_cold_draws(self, requests):
        with pytest.MonkeyPatch.context() as monkeypatch:
            # forced phi ties in replications 7 and 40 of seed 5 at both n
            for n in (5, 9):
                block = _block(Statistic.FOOTRULE, n)
                for rep in (7, 40):
                    head = TestBatchedEngine._head(5, rep, block)
                    TestBatchedEngine._force(monkeypatch, rep, block, {1: head[0]})
            for seed, n, reps in requests:
                cold = self._cold(seed, n, reps)
                if seed == 5:
                    assert cold[Statistic.FOOTRULE][1] == (reps > 7) + (reps > 40)
                self._assert_same(_draw_statistics(seed, n, reps), cold)

    def test_pools_are_read_only_and_curves_leave_them_unchanged(self):
        drawn = _draw_statistics(4, 10, 60)
        kept = {stat: values.copy() for stat, (values, _) in drawn.items()}
        for values, _ in drawn.values():
            with pytest.raises(ValueError):
                values[0] = 0.0
            with pytest.raises(ValueError):
                values.flags.writeable = True
        pool = simulate._POOLS[4, 10]
        for array in (pool.values, pool.redraws):
            with pytest.raises(ValueError):
                array[0, 0] = 0
        run_curve_study(4, (10,), 60, 16)
        for stat, (values, _) in _draw_statistics(4, 10, 60).items():
            assert values.tobytes() == kept[stat].tobytes()

    @pytest.mark.parametrize("reps", [2, 37, 1000])
    def test_pools_hold_27_bytes_per_replication(self, reps):
        # 3 statistics x (8-byte value + 1-byte redraw count), as the README says
        _draw_statistics(4, 10, reps)
        pool = simulate._POOLS[4, 10]
        assert pool.values.shape == pool.redraws.shape == (3, reps)
        assert pool.values.nbytes + pool.redraws.nbytes == 27 * reps


class TestExactLawOracle:
    """The engine's phi draws against the exact permutation law of D."""

    REPS = 50_000

    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_displacement_matches_exact_law(self, n):
        phi, _ = _draw_statistics(42, n, self.REPS)[Statistic.FOOTRULE]
        d = (1.0 - phi) * (n * n - 1) / 3.0
        assert np.abs(d - np.rint(d)).max() < 1e-6
        d = np.rint(d).astype(int)
        law = enumerate_null_distribution(n)
        assert set(d.tolist()) <= set(law.counts)
        drawn = np.bincount(d, minlength=max_distance(n) + 1)

        # G-test: adjacent D values merged, in ascending order, until each
        # bin expects at least 5 draws; a short last bin joins the one before
        bins = []
        observed = expected = 0.0
        for distance, count in law.counts.items():
            observed += drawn[distance]
            expected += self.REPS * count / law.total
            if expected >= 5.0:
                bins.append([observed, expected])
                observed = expected = 0.0
        if expected:
            bins[-1][0] += observed
            bins[-1][1] += expected
        o, e = np.array(bins).T
        g = 2.0 * float(np.sum(o[o > 0] * np.log(o[o > 0] / e[o > 0])))
        df = len(bins) - 1
        p = float(mpmath.gammainc(df / 2, g / 2, mpmath.inf, regularized=True))
        assert p > 1e-3, f"n={n}: G = {g:.1f} on {df} df, p = {p:.2e}"

        _, variance = phi_moments_exact(law)
        se = float(variance) * math.sqrt(2.0 / (self.REPS - 1))
        assert np.var(phi, ddof=1) == pytest.approx(float(variance), abs=4 * se)
