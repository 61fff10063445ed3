"""Seeded Monte Carlo engine for the three statistics.

Streams are counter-based: each replication owns a Philox stream keyed by
(seed, replication index), and each (statistic, sample size) combination
draws from a disjoint block of that stream's counter space. Values
therefore depend only on (seed, replication, statistic, n), never on
execution order or worker count.

The engine computes those streams itself: Philox4x64-10 (Salmon et al.,
SC'11) over uint64 arrays of replications, then the 64-bit multiply step
of Lemire's bounded-integer method, giving the values numpy's
``Generator.integers(1, 2**53)`` gives on the same key and counter. The
statistics are then evaluated on whole (replications, n) batches. A row
where numpy would have rejected a word and drawn again, or where the
rank statistic meets a tie, is read again alone from the same words:
rejected words are skipped and a tie moves on to the next 2n uniforms.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .common import Statistic, TiesError
from .moments import limiting_variance
# footrule_coefficient is unused here but stays bound: bench/test_bench.py
# checks on this name that its tracer rebinds functions imported by name.
from .ranks import _footrule_rows, footrule_coefficient  # noqa: F401
from .representations import _double_sum_rows, _hajek_rows
from .stats import (
    CurveGrid,
    KsOutcome,
    SummaryStats,
    ecdf_curve,
    gaussian_kde,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
    normal_pdf,
    summarize,
)

log = logging.getLogger(__name__)

_UNIT = 1 << 53
_MAX_REDRAWS = 100

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF
# integers(1, 2**53) maps a word m to the high word of m * (2^53 - 1), and
# draws again when the low word is below (2^64 - 2^53 + 1) mod (2^53 - 1).
_LEMIRE_THRESHOLD = 2048
# Words generated per batch; bounds peak memory whatever the study size.
_CHUNK_WORDS = 1 << 17

# The six distribution comparisons of the KS study, in report order.
KS_COMBINATIONS: tuple[tuple[str, str], ...] = (
    ("phi", "normal"),
    ("phiprime", "normal"),
    ("phidprime", "normal"),
    ("phi", "phiprime"),
    ("phi", "phidprime"),
    ("phiprime", "phidprime"),
)

_STAT_INDEX = {
    Statistic.FOOTRULE: 0,
    Statistic.DOUBLE_SUM: 1,
    Statistic.HAJEK: 2,
}


@dataclass(frozen=True)
class StreamKey:
    """Identifies one independent random stream: (seed, replication index)."""

    seed: int
    stream_id: int

    def __post_init__(self) -> None:
        _check_word("seed", self.seed)
        _check_word("stream id", self.stream_id)

    def generator(self, block: int = 0) -> np.random.Generator:
        """Generator for one counter block of this stream.

        Distinct keys give independent streams; distinct blocks give
        non-overlapping counter ranges within a stream, so draws for
        different (statistic, n) combinations never collide.
        """
        bitgen = np.random.Philox(
            key=np.array([self.seed, self.stream_id], dtype=np.uint64),
            counter=np.array([0, 0, 0, block], dtype=np.uint64),
        )
        return np.random.Generator(bitgen)


def _check_word(name: str, value: int) -> None:
    """Keys are two 64-bit words; reject what would wrap or round."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")


def _block(statistic: Statistic, n: int) -> int:
    return ((_STAT_INDEX[statistic] + 1) << 32) | n


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit halves.

    Updates in place where it can: on a full chunk's arrays that saves
    about a fifth of the time fresh temporaries take.
    """
    a_lo, a_hi = np.uint64(a & _LOW32), np.uint64(a >> 32)
    b_lo, hi = b & _LOW32, b >> 32
    mid = hi * a_lo
    mid += (b_lo * a_lo) >> 32
    b_lo *= a_hi
    b_lo += mid & _LOW32
    hi *= a_hi
    hi += mid >> 32
    hi += b_lo >> 32
    return hi, b * np.uint64(a)


def _philox_words(seed: int, reps: np.ndarray, block: int, count: int) -> np.ndarray:
    """The first `count` words of each stream (seed, rep) in one counter block.

    Row i equals ``np.random.Philox(key=[seed, reps[i]], counter=[0, 0, 0,
    block]).random_raw(count)``: the counter is incremented before each
    group of four words, so word k is lane k % 4 of Philox4x64-10 applied
    to counter [k // 4 + 1, 0, 0, block] under key [seed, rep].
    """
    m0, m1 = _PHILOX_M
    w0, w1 = (np.uint64(w) for w in _PHILOX_W)
    c0 = np.arange(1, -(-count // 4) + 1, dtype=np.uint64)
    c1 = c2 = np.zeros(1, dtype=np.uint64)
    c3 = np.full(1, block, dtype=np.uint64)
    k0 = np.full(1, seed, dtype=np.uint64)
    k1 = np.asarray(reps, dtype=np.uint64)[:, np.newaxis]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + w0, k1 + w1
        hi0, lo0 = _mulhilo(m0, c0)
        hi1, lo1 = _mulhilo(m1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(len(reps), -1)
    return words[:, :count]


def _uniform_rows(
    seed: int, reps: np.ndarray, block: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms from the first `count` words of each stream, and which numpy rejects.

    m * (2^53 - 1) = m * 2^53 - m, so the bounded integer is m >> 11 less
    a borrow, plus the offset 1, and the low word is (m << 53) - m. numpy
    skips a word whose low word is below the threshold (probability
    about 2^-53) and reads the next one.
    """
    m = _philox_words(seed, reps, block, count)
    shifted = m << 53
    borrow = shifted < m
    rejected = shifted - m < _LEMIRE_THRESHOLD
    return ((m >> 11) + 1 - borrow) / float(_UNIT), rejected


def _stream_uniforms(seed: int, rep: int, block: int, count: int) -> np.ndarray:
    """The first `count` uniforms of stream (seed, rep) in one counter block.

    Equal to ``Generator(Philox(key=[seed, rep], counter=[0, 0, 0,
    block])).integers(1, 2**53, size=count) / 2**53``: rejected words are
    skipped, and the run of words read grows by each shortfall.
    """
    words = count
    while True:
        vec, rejected = _uniform_rows(seed, np.array([rep], dtype=np.uint64), block, words)
        accepted = vec[~rejected]
        if len(accepted) >= count:
            return accepted[:count]
        words += count - len(accepted)


def _statistic_rows(vec: np.ndarray, n: int,
                    statistic: Statistic) -> tuple[np.ndarray, np.ndarray]:
    """The statistic of each row of 2n uniforms (U, then V), and a tie flag."""
    u, v = vec[..., :n], vec[..., n:]
    if statistic is Statistic.FOOTRULE:
        return _footrule_rows(u, v)
    if statistic is Statistic.DOUBLE_SUM:
        out = _double_sum_rows(u, v)
    else:
        out = _hajek_rows(u, v)
    return out, np.zeros(out.shape, dtype=bool)


def _redraw_row(seed: int, rep: int, n: int, statistic: Statistic) -> tuple[float, int]:
    """Value and tie redraws of a row the batched pass flagged.

    The row takes the first 2n uniforms of its stream and, while the
    rank statistic meets a tie, the next 2n, at most _MAX_REDRAWS times.
    """
    block = _block(statistic, n)
    for redraws in range(_MAX_REDRAWS + 1):
        vec = _stream_uniforms(seed, rep, block, 2 * n * (redraws + 1))[-2 * n:]
        value, tied = _statistic_rows(vec, n, statistic)
        if not tied:
            return float(value), redraws
    raise TiesError(f"stream ({seed}, {rep}) tied on {_MAX_REDRAWS + 1} draws in a row")


def _draw_chunk(seed: int, n: int, statistic: Statistic,
                lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Values of replications lo..hi-1, and their tie redraws."""
    vec, rejected = _uniform_rows(
        seed, np.arange(lo, hi, dtype=np.uint64), _block(statistic, n), 2 * n
    )
    values, redo = _statistic_rows(vec, n, statistic)
    redo |= rejected.any(axis=-1)
    redraws = 0
    for row in np.flatnonzero(redo):
        values[row], extra = _redraw_row(seed, lo + int(row), n, statistic)
        redraws += extra
    return values, redraws


def _draw_many(
    seed: int,
    n: int,
    statistic: Statistic,
    replications: int,
    threads: int,
) -> tuple[np.ndarray, int]:
    """All replication values, stream_id = replication index.

    Replications are drawn in chunks of about _CHUNK_WORDS words. With
    several chunks and threads, chunks run on a pool of at most
    os.cpu_count() threads (numpy releases the GIL on large arrays; more
    threads only add start-up cost); each value is written to its own
    slot, so output is identical for any thread count.
    """
    values = np.empty(replications, dtype=float)
    step = max(1, _CHUNK_WORDS // (2 * n))
    starts = range(0, replications, step)

    def fill(lo: int) -> int:
        hi = min(lo + step, replications)
        values[lo:hi], redraws = _draw_chunk(seed, n, statistic, lo, hi)
        return redraws

    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        return values, sum(map(fill, starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return values, sum(pool.map(fill, starts))


@dataclass(frozen=True)
class MomentRow:
    statistic: Statistic
    n: int
    summary: SummaryStats
    redraws: int


@dataclass(frozen=True)
class KsRow:
    n: int
    combination: str
    outcome: KsOutcome


@dataclass(frozen=True)
class CurveRow:
    """KDE and ECDF of the scaled draws plus the limiting normal curves."""

    statistic: Statistic
    n: int
    density: CurveGrid
    cdf: CurveGrid
    ref_density: np.ndarray = field(repr=False)
    ref_cdf: np.ndarray = field(repr=False)


def _check_study(seed: int, sample_sizes: tuple[int, ...], replications: int,
                 threads: int) -> None:
    """Reject study settings before anything is drawn."""
    _check_word("seed", seed)
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # n is the low word of a counter block, so n >= 2^32 would share a block.
    if not sample_sizes or not 2 <= min(sample_sizes) <= max(sample_sizes) < 1 << 32:
        raise ValueError(f"sample sizes must all be in [2, 2^32), got {list(sample_sizes)}")


def run_moment_study(
    seed: int,
    sample_sizes: tuple[int, ...],
    replications: int = 10_000,
    threads: int = 1,
) -> list[MomentRow]:
    """Summaries of each statistic against the true null value 0.

    Rows run statistic by statistic, and by n within a statistic.
    """
    _check_study(seed, sample_sizes, replications, threads)
    rows = []
    for stat in Statistic:
        for n in sample_sizes:
            values, redraws = _draw_many(seed, n, stat, replications, threads)
            rows.append(MomentRow(stat, n, summarize(values, 0.0), redraws))
    return rows


def _statistic_pools(
    seed: int,
    n: int,
    replications: int,
    threads: int,
) -> dict[str, np.ndarray]:
    """sqrt(n)-scaled draws of each statistic at n, by CSV label."""
    pools: dict[str, np.ndarray] = {}
    for stat in Statistic:
        values, redraws = _draw_many(seed, n, stat, replications, threads)
        if redraws:
            log.info("n=%d %s: %d tie redraws", n, stat.value, redraws)
        values *= math.sqrt(n)
        pools[stat.value] = values
    return pools


def run_ks_study(
    seed: int,
    sample_sizes: tuple[int, ...],
    replications: int = 1000,
    threads: int = 1,
) -> list[KsRow]:
    """KS outcomes for the six distribution comparisons at each n.

    Per n, each statistic gets one pool of sqrt(n)-scaled draws from its
    own streams; the pool is reused across the combinations it enters.
    Pairs against "normal" are one-sample tests against the limiting
    Normal(0, 2/5) CDF; statistic pairs are two-sample tests.
    """
    _check_study(seed, sample_sizes, replications, threads)
    var = limiting_variance()
    rows = []
    for n in sample_sizes:
        pools = _statistic_pools(seed, n, replications, threads)
        for left, right in KS_COMBINATIONS:
            if right == "normal":
                outcome = ks_one_sample(pools[left], lambda t: normal_cdf(t, 0.0, var))
            else:
                outcome = ks_two_sample(pools[left], pools[right])
            rows.append(KsRow(n=n, combination=f"{left}-vs-{right}", outcome=outcome))
    return rows


def run_curve_study(
    seed: int,
    sample_sizes: tuple[int, ...],
    replications: int = 100_000,
    grid_size: int = 512,
    threads: int = 1,
) -> list[CurveRow]:
    """Density and CDF curves of the sqrt(n)-scaled statistics, per n.

    The ECDF and the reference Normal(0, 2/5) curves are evaluated on
    the KDE's grid so each (statistic, n) shares a single axis.
    """
    _check_study(seed, sample_sizes, replications, threads)
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    var = limiting_variance()
    rows = []
    for n in sample_sizes:
        pools = _statistic_pools(seed, n, replications, threads)
        for stat in Statistic:
            values = pools[stat.value]
            density = gaussian_kde(values, grid_size=grid_size)
            cdf = ecdf_curve(values, density.grid)
            rows.append(
                CurveRow(
                    statistic=stat,
                    n=n,
                    density=density,
                    cdf=cdf,
                    ref_density=normal_pdf(density.grid, 0.0, var),
                    ref_cdf=normal_cdf(density.grid, 0.0, var),
                )
            )
    return rows
