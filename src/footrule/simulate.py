"""Seeded Monte Carlo engine for the three statistics.

Streams are counter-based: each replication owns a Philox stream keyed by
(seed, replication index), and each (statistic, sample size) combination
draws from a disjoint block of that stream's counter space. Values
therefore depend only on (seed, replication, statistic, n), never on
execution order or worker count.

The engine computes those streams itself: Philox4x64-10 (Salmon et al.,
SC'11) over uint64 arrays of replications, then the 64-bit multiply step
of Lemire's bounded-integer method, giving the values numpy's
``Generator.integers(1, 2**53)`` gives on the same key and counter. One
pass draws the blocks of all three statistics at one n, and each
statistic is then evaluated on its (replications, 2n) slice. A row
where numpy would have rejected a word and drawn again, or where the
rank statistic meets a tie, is read again alone from the same words:
rejected words are skipped and a tie moves on to the next 2n uniforms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .common import Statistic, TiesError, _check_integer
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

_UNIT = 1 << 53
_MAX_REDRAWS = 100

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox,
# shaped to broadcast over the two stacked lanes of a (2, rows, columns) array.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> 32
# integers(1, 2**53) maps a word m to the high word of m * (2^53 - 1), and
# draws again when the low word is below (2^64 - 2^53 + 1) mod (2^53 - 1).
_LEMIRE_THRESHOLD = 2048
# Words generated per batch, over all three statistics; bounds peak memory
# whatever the study size.
_CHUNK_WORDS = 1 << 15

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
    """Keys are two 64-bit words; reject what would wrap, round or truncate."""
    _check_integer(name, value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")


def _block(statistic: Statistic, n: int) -> int:
    return ((_STAT_INDEX[statistic] + 1) << 32) | n


def _philox_words(seed: int, reps: np.ndarray, blocks: tuple[int, ...],
                  count: int) -> np.ndarray:
    """The first `count` words of each stream (seed, rep) in each counter block.

    Entry [i, b] equals ``np.random.Philox(key=[seed, reps[i]], counter=[0,
    0, 0, blocks[b]]).random_raw(count)``: the counter is incremented before
    each group of four words, so word k is lane k % 4 of Philox4x64-10
    applied to counter [k // 4 + 1, 0, 0, block] under key [seed, rep].

    All blocks run in one pass. Lanes c0 and c2 sit stacked in one
    (2, rows, columns) array and c1 and c3 in another, so each round is
    one multiply over both lanes, written into buffers allocated once.
    """
    groups = -(-count // 4)
    shape = (2, len(reps), len(blocks) * groups)
    even = np.zeros(shape, dtype=np.uint64)  # lanes c0, c2
    odd = np.zeros(shape, dtype=np.uint64)   # lanes c1, c3
    even[0] = np.tile(np.arange(1, groups + 1, dtype=np.uint64), len(blocks))
    odd[1] = np.repeat(np.array(blocks, dtype=np.uint64), groups)
    hi, b_lo, mid, tmp = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    # An array, not scalars: uint64 arrays wrap silently, scalars warn.
    key = np.empty((2, len(reps), 1), dtype=np.uint64)
    key[0] = seed
    key[1, :, 0] = reps
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        # hi = the high words of the 128-bit products _PHILOX_M * even, from
        # 32-bit halves; the low words overwrite even.
        np.bitwise_and(even, _LOW32, out=b_lo)
        np.right_shift(even, 32, out=hi)
        np.multiply(hi, _PHILOX_M_LO, out=mid)
        np.multiply(b_lo, _PHILOX_M_LO, out=tmp)
        tmp >>= 32
        mid += tmp
        b_lo *= _PHILOX_M_HI
        np.bitwise_and(mid, _LOW32, out=tmp)
        b_lo += tmp
        hi *= _PHILOX_M_HI
        mid >>= 32
        hi += mid
        b_lo >>= 32
        hi += b_lo
        even *= _PHILOX_M
        # c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        odd ^= hi[::-1]
        odd ^= key
        even, odd = odd, even[::-1]
    # Freed before the output exists: a worker thread's peak stays resident
    # in its allocator arena.
    del hi, b_lo, mid, tmp
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return words.reshape(len(reps), len(blocks), 4 * groups)[..., :count]


def _uniform_rows(
    seed: int, reps: np.ndarray, blocks: tuple[int, ...], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms from the first `count` words of each stream and block, and which numpy rejects.

    m * (2^53 - 1) = m * 2^53 - m, so the bounded integer is m >> 11 less
    a borrow, plus the offset 1, and the low word is (m << 53) - m. numpy
    skips a word whose low word is below the threshold (probability
    about 2^-53) and reads the next one.
    """
    m = _philox_words(seed, reps, blocks, count)
    # m is this call's own array: the bounded integer is formed in place.
    low = m << 53
    borrow = low < m
    low -= m
    rejected = low < _LEMIRE_THRESHOLD
    del low
    m >>= 11
    m += 1
    m -= borrow
    return m / float(_UNIT), rejected


def _stream_uniforms(seed: int, rep: int, block: int, count: int) -> np.ndarray:
    """The first `count` uniforms of stream (seed, rep) in one counter block.

    Equal to ``Generator(Philox(key=[seed, rep], counter=[0, 0, 0,
    block])).integers(1, 2**53, size=count) / 2**53``: rejected words are
    skipped, and the run of words read grows by each shortfall.
    """
    words = count
    while True:
        vec, rejected = _uniform_rows(seed, np.array([rep], dtype=np.uint64), (block,), words)
        accepted = vec[0, 0][~rejected[0, 0]]
        if len(accepted) >= count:
            return accepted[:count]
        words += count - len(accepted)


def _statistic_rows(vec: np.ndarray, n: int,
                    statistic: Statistic) -> tuple[np.ndarray, np.ndarray | bool]:
    """The statistic of each row of 2n uniforms (U, then V), and a tie flag.

    Only the rank statistic can tie; the other two flag nothing.
    """
    u, v = vec[..., :n], vec[..., n:]
    if statistic is Statistic.FOOTRULE:
        _, phi, x_tied, y_tied = _footrule_rows(u, v)
        return phi, x_tied | y_tied
    if statistic is Statistic.DOUBLE_SUM:
        return _double_sum_rows(u, v), False
    return _hajek_rows(u, v), False


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


def _draw_chunk(seed: int, n: int, lo: int, hi: int, values: np.ndarray) -> list[int]:
    """Write replications lo..hi-1 of each statistic into its row of
    `values`, from one Philox pass; return each statistic's tie redraws."""
    vec, rejected = _uniform_rows(seed, np.arange(lo, hi, dtype=np.uint64),
                                  tuple(_block(stat, n) for stat in Statistic), 2 * n)
    rejected = rejected.any(axis=-1)
    redraws = [0] * len(Statistic)
    for i, stat in enumerate(Statistic):
        values[i, lo:hi], tied = _statistic_rows(vec[:, i], n, stat)
        for row in np.flatnonzero(tied | rejected[:, i]):
            values[i, lo + row], extra = _redraw_row(seed, lo + int(row), n, stat)
            redraws[i] += extra
    return redraws


def _draw_statistics(
    seed: int,
    n: int,
    replications: int,
    threads: int,
) -> dict[Statistic, tuple[np.ndarray, int]]:
    """Each statistic's replication values at n, and its tie redraws.

    stream_id = replication index. Replications are drawn in chunks of
    about _CHUNK_WORDS words, counting the 2n words of all three
    statistics, so one Philox pass serves every statistic of a chunk.
    With several chunks and threads, chunks run on one pool of at most
    os.cpu_count() threads (numpy releases the GIL on large arrays; more
    threads only add start-up cost); each value is written to its own
    slot, so output is identical for any thread count.
    """
    values = np.empty((len(Statistic), replications), dtype=float)
    step = max(1, _CHUNK_WORDS // (2 * n * len(Statistic)))
    starts = range(0, replications, step)

    def fill(lo: int) -> list[int]:
        return _draw_chunk(seed, n, lo, min(lo + step, replications), values)

    # The CPU count is read only where a pool could start.
    workers = 1
    if threads > 1 and len(starts) > 1:
        workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers == 1:
        totals = list(map(fill, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(fill, starts))
    redraws = [sum(counts) for counts in zip(*totals)]
    return {stat: (values[i], redraws[i]) for i, stat in enumerate(Statistic)}


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
    _check_integer("replications", replications)
    _check_integer("threads", threads)
    for n in sample_sizes:
        _check_integer("sample size", n)
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

    Draws run n by n, all three statistics at once; rows run statistic by
    statistic, and by n within a statistic.
    """
    _check_study(seed, sample_sizes, replications, threads)
    rows = {}
    for n in sample_sizes:
        for stat, (values, redraws) in _draw_statistics(seed, n, replications, threads).items():
            rows[stat, n] = MomentRow(stat, n, summarize(values, 0.0), redraws)
    return [rows[stat, n] for stat in Statistic for n in sample_sizes]


def _statistic_pools(
    seed: int,
    n: int,
    replications: int,
    threads: int,
) -> dict[str, np.ndarray]:
    """sqrt(n)-scaled draws of each statistic at n, by CSV label."""
    pools: dict[str, np.ndarray] = {}
    for stat, (values, _) in _draw_statistics(seed, n, replications, threads).items():
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
                outcome = ks_one_sample(pools[left], lambda xs: normal_cdf(xs, 0.0, var))
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
    _check_integer("grid size", grid_size)
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
