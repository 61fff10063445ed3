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
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .common import Statistic, TiesError, _check_integer
from .moments import limiting_variance
# footrule_coefficient is unused here but stays bound: bench/test_bench.py
# checks on this name that its tracer rebinds functions imported by name.
from .ranks import _footrule_rows, footrule_coefficient  # noqa: F401
from .representations import _double_sum_rows, _hajek_rows
from .stats import (
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

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF
_WORD = (1 << 64) - 1
# The multipliers and their 32-bit halves as uint64, shaped to broadcast over
# the two stacked lanes of a (2, words) array; uint64 arrays wrap silently
# where Python ints grow and uint64 scalars warn.
_M = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
_M_LO, _M_HI = _M & _LOW32, _M >> 32
_W1 = np.uint64(_PHILOX_W[1])
# integers(1, 2**53) maps a word m to the high word of m * (2^53 - 1), and
# draws again when the low word is below (2^64 - 2^53 + 1) mod (2^53 - 1).
_LEMIRE_THRESHOLD = 2048
# Target words per batch, over all three statistics. The replications of one
# n split evenly into max(1, round(reps * 6n / _CHUNK_WORDS)) batches, so no
# batch holds more than 1.5 * _CHUNK_WORDS words plus one replication's 6n:
# peak memory is bounded whatever the study size.
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


def _check_word(name: str, value: int) -> int:
    """Keys are two 64-bit words; reject what would wrap, round or truncate."""
    value = _check_integer(name, value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")
    return value


def _block(statistic: Statistic, n: int) -> int:
    return ((_STAT_INDEX[statistic] + 1) << 32) | n


def _mulhilo(even: np.ndarray, lanes: slice, scratch: tuple[np.ndarray, ...]) -> np.ndarray:
    """Overwrite lanes `lanes` of `even` with the low words of their 128-bit
    products by _M[lanes] and return the high words, formed from 32-bit
    halves in the same lanes of four scratch arrays."""
    x = even[lanes]
    hi, b_lo, mid, tmp = (buf[lanes] for buf in scratch)
    m_lo, m_hi = _M_LO[lanes], _M_HI[lanes]
    np.bitwise_and(x, _LOW32, out=b_lo)
    np.right_shift(x, 32, out=hi)
    np.multiply(hi, m_lo, out=mid)
    np.multiply(b_lo, m_lo, out=tmp)
    tmp >>= 32
    mid += tmp
    b_lo *= m_hi
    np.bitwise_and(mid, _LOW32, out=tmp)
    b_lo += tmp
    hi *= m_hi
    mid >>= 32
    hi += mid
    b_lo >>= 32
    hi += b_lo
    x *= _M[lanes]
    return hi


def _philox_words(seed: int, reps: np.ndarray, blocks: tuple[int, ...],
                  count: int) -> np.ndarray:
    """The first `count` words of each stream (seed, rep) in each counter block.

    Entry [i, b] equals ``np.random.Philox(key=[seed, reps[i]], counter=[0,
    0, 0, blocks[b]]).random_raw(count)``: the counter is incremented before
    each group of four words, so word k is lane k % 4 of Philox4x64-10
    applied to counter [g + 1, 0, 0, block], g = k // 4, under key
    [seed, rep].

    Round 1 has a closed form. Lanes c1 and c2 of the counter are 0, so
    with M0 * (g + 1) = hi * 2^64 + lo it gives (seed, 0, hi ^ block ^ rep,
    lo): one pass over the columns and one XOR with rep. In round 2 lane
    c0 is seed on every row, so its product is one Python-int multiply
    and only lane c2 is multiplied over the array. Rounds 3 to 10 run on
    lanes c0 and c2 stacked in one (2, rows * columns) array and c1 and c3
    in another, so each is one multiply over both lanes, written into
    buffers allocated once. The seed half of the key is XORed in as a
    scalar; the rep half is one full-length array that gains W1 in place
    each round.
    """
    rows, groups = len(reps), -(-count // 4)
    cols = len(blocks) * groups
    size = rows * cols
    # M0 * (g + 1) by columns. g + 1 < 2^32 for any count below 2^34, so hi
    # needs two 32-bit products whose sum cannot wrap.
    g = np.arange(1, groups + 1, dtype=np.uint64)
    g_hi = (g * _M_HI[0] + (g * _M_LO[0] >> 32)) >> 32
    c2_cols = np.tile(g_hi, len(blocks)) ^ np.repeat(np.array(blocks, dtype=np.uint64), groups)
    c3_cols = np.tile(g * _M[0], len(blocks))
    even = np.empty((2, size), dtype=np.uint64)  # lanes c0, c2
    odd = np.empty((2, size), dtype=np.uint64)   # lanes c1, c3
    scratch = tuple(np.empty((2, size), dtype=np.uint64) for _ in range(4))
    # After round 1 only lane c2 varies by row.
    np.bitwise_xor(reps[:, None], c2_cols, out=even[1].reshape(rows, cols))
    rep_key = np.repeat(reps, cols)
    rep_key += _W1
    # Round 2: c0, c1, c2, c3 = hi1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0, with
    # (hi0, lo0) the product M0 * seed.
    hi1 = _mulhilo(even, slice(1, 2), scratch)[0]
    hi0, lo0 = divmod(_PHILOX_M[0] * seed, 1 << 64)
    np.bitwise_xor(hi1, np.uint64((seed + _PHILOX_W[0]) & _WORD), out=odd[0])
    np.bitwise_xor(rep_key.reshape(rows, cols), np.uint64(hi0) ^ c3_cols,
                   out=odd[1].reshape(rows, cols))
    even[0] = lo0
    even, odd = odd, even[::-1]
    for r in range(2, _PHILOX_ROUNDS):
        rep_key += _W1
        hi = _mulhilo(even, slice(None), scratch)
        # c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        odd ^= hi[::-1]
        odd[0] ^= np.uint64((seed + r * _PHILOX_W[0]) & _WORD)
        odd[1] ^= rep_key
        even, odd = odd, even[::-1]
    # Freed before the output exists: a worker thread's peak stays resident
    # in its allocator arena.
    del scratch, hi, hi1, rep_key
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return words.reshape(rows, len(blocks), 4 * groups)[..., :count]


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

    stream_id = replication index. Replications are drawn in batches of
    about _CHUNK_WORDS words, counting the 2n words of all three
    statistics, so one Philox pass serves every statistic of a batch.
    The batch count is max(1, round(replications * 6n / _CHUNK_WORDS)),
    at most one per replication, and the replications split evenly:
    batch sizes differ by at most one row, so no short tail batch pays
    a pass's fixed cost for a few rows. With several batches and
    threads, batches run on one pool of at most os.cpu_count() threads
    (numpy releases the GIL on large arrays; more threads only add
    start-up cost); each value is written to its own slot, so output is
    identical for any thread count.
    """
    values = np.empty((len(Statistic), replications), dtype=float)
    row_words = 2 * n * len(Statistic)
    batches = min(replications, max(1, round(replications * row_words / _CHUNK_WORDS)))
    bounds = [i * replications // batches for i in range(batches + 1)]

    def fill(i: int) -> list[int]:
        return _draw_chunk(seed, n, bounds[i], bounds[i + 1], values)

    # The CPU count is read only where a pool could start.
    workers = 1
    if threads > 1 and batches > 1:
        workers = min(threads, batches, os.cpu_count() or 1)
    if workers == 1:
        totals = list(map(fill, range(batches)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(fill, range(batches)))
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


@dataclass(frozen=True, eq=False)
class CurveRow:
    """KDE and ECDF of the scaled draws plus the limiting normal curves, on one grid.

    Rows compare by value, every field through np.array_equal: the
    dataclass `==` would compare the arrays as a tuple and raise.
    """

    statistic: Statistic
    n: int
    grid: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    cdf: np.ndarray = field(repr=False)
    ref_density: np.ndarray = field(repr=False)
    ref_cdf: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveRow):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _check_study(seed: int, sample_sizes: Iterable[int], replications: int,
                 threads: int) -> tuple[int, tuple[int, ...], int, int]:
    """The study settings as Python ints, checked before anything is drawn."""
    seed = _check_word("seed", seed)
    replications = _check_integer("replications", replications)
    threads = _check_integer("threads", threads)
    sample_sizes = tuple(_check_integer("sample size", n) for n in sample_sizes)
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # n is the low word of a counter block, so n >= 2^32 would share a block.
    if not sample_sizes or not 2 <= min(sample_sizes) <= max(sample_sizes) < 1 << 32:
        raise ValueError(f"sample sizes must all be in [2, 2^32), got {list(sample_sizes)}")
    return seed, sample_sizes, replications, threads


def run_moment_study(
    seed: int,
    sample_sizes: Iterable[int],
    replications: int = 10_000,
    threads: int = 1,
) -> list[MomentRow]:
    """Summaries of each statistic against the true null value 0.

    Draws run n by n, all three statistics at once; rows run statistic by
    statistic, and by n within a statistic.
    """
    seed, sample_sizes, replications, threads = _check_study(
        seed, sample_sizes, replications, threads)
    rows = {}
    for n in sample_sizes:
        for stat, (values, redraws) in _draw_statistics(seed, n, replications, threads).items():
            rows[stat, n] = MomentRow(stat, n, summarize(values, 0.0), redraws)
    return [rows[stat, n] for stat in Statistic for n in sample_sizes]


def run_ks_study(
    seed: int,
    sample_sizes: Iterable[int],
    replications: int = 1000,
    threads: int = 1,
) -> list[KsRow]:
    """KS outcomes for the six distribution comparisons at each n.

    Per n, each statistic gets one pool of sqrt(n)-scaled draws from its
    own streams; the pool is reused across the combinations it enters.
    Pairs against "normal" are one-sample tests against the limiting
    Normal(0, 2/5) CDF; statistic pairs are two-sample tests.
    """
    seed, sample_sizes, replications, threads = _check_study(
        seed, sample_sizes, replications, threads)
    var = limiting_variance()
    rows = []
    for n in sample_sizes:
        pools = {stat.value: values * math.sqrt(n) for stat, (values, _)
                 in _draw_statistics(seed, n, replications, threads).items()}
        for left, right in KS_COMBINATIONS:
            if right == "normal":
                outcome = ks_one_sample(pools[left], lambda xs: normal_cdf(xs, 0.0, var))
            else:
                outcome = ks_two_sample(pools[left], pools[right])
            rows.append(KsRow(n=n, combination=f"{left}-vs-{right}", outcome=outcome))
    return rows


def run_curve_study(
    seed: int,
    sample_sizes: Iterable[int],
    replications: int = 100_000,
    grid_size: int = 512,
    threads: int = 1,
) -> list[CurveRow]:
    """Density and CDF curves of the sqrt(n)-scaled statistics, per n.

    The ECDF and the reference Normal(0, 2/5) curves are evaluated on
    the KDE's grid so each (statistic, n) shares a single axis.
    """
    seed, sample_sizes, replications, threads = _check_study(
        seed, sample_sizes, replications, threads)
    grid_size = _check_integer("grid size", grid_size)
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    var = limiting_variance()
    rows = []
    for n in sample_sizes:
        for stat, (values, _) in _draw_statistics(seed, n, replications, threads).items():
            values *= math.sqrt(n)
            grid, density = gaussian_kde(values, grid_size=grid_size)
            rows.append(CurveRow(stat, n, grid, density, ecdf_curve(values, grid),
                                 normal_pdf(grid, 0.0, var), normal_cdf(grid, 0.0, var)))
    return rows
