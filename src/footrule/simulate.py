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
rank statistic meets a tie, is redone on the scalar ``Generator`` path.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .common import SampleSizeError, Statistic, TiesError
from .moments import limiting_variance
from .ranks import PairedSample, _footrule_rows, footrule_coefficient
from .representations import (
    UniformPairs,
    _double_sum_rows,
    _hajek_rows,
    double_sum_representation,
    hajek_representation,
)
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


def uniform_open(gen: np.random.Generator, size: int | None = None):
    """Uniform draws strictly inside (0, 1).

    Integers from 1 to 2^53 - 1 divided by 2^53, so both endpoints are
    unreachable and the mean is exactly 1/2.
    """
    ints = gen.integers(1, _UNIT, size=size)
    return ints / float(_UNIT)


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
    """`uniform_open` draws of `count` values per stream, and rows to redo.

    m * (2^53 - 1) = m * 2^53 - m, so the bounded integer is m >> 11 less
    a borrow, plus the offset 1, and the low word is (m << 53) - m. A row
    is flagged where any low word falls below the rejection threshold,
    which happens with probability about 2^-53 per word.
    """
    m = _philox_words(seed, reps, block, count)
    shifted = m << 53
    borrow = shifted < m
    rejected = (shifted - m < _LEMIRE_THRESHOLD).any(axis=-1)
    return ((m >> 11) + 1 - borrow) / float(_UNIT), rejected


def _draw_value(
    key: StreamKey,
    n: int,
    statistic: Statistic,
    scale_by_sqrt_n: bool,
) -> tuple[float, int]:
    """One statistic value plus the number of tie-forced redraws.

    The scalar path: the batched engine's reference and its fallback.
    """
    gen = key.generator(block=_block(statistic, n))
    redraws = 0
    while True:
        vec = uniform_open(gen, size=2 * n)
        u, v = vec[:n], vec[n:]
        try:
            if statistic is Statistic.FOOTRULE:
                value = footrule_coefficient(PairedSample(u, v)).phi
            elif statistic is Statistic.DOUBLE_SUM:
                value = double_sum_representation(UniformPairs(u, v)).value
            else:
                value = hajek_representation(UniformPairs(u, v)).value
        except TiesError:
            # Machine-equal uniforms; essentially never, but stay exact.
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise
            continue
        if scale_by_sqrt_n:
            value *= math.sqrt(n)
        return value, redraws


def draw_statistic(
    key: StreamKey,
    n: int,
    statistic: Statistic,
    scale_by_sqrt_n: bool = False,
) -> float:
    """Draw one value of the statistic at sample size n under independence.

    The rank statistic is simulated on uniform marginals, which is valid
    because ranking makes it distribution-free: any strictly increasing
    transform of a margin, such as the inverse-normal one, gives the same
    ranks and so the same value.
    """
    if n < 2 and statistic is not Statistic.HAJEK:
        raise SampleSizeError(f"{statistic.value} needs n >= 2")
    if n < 1:
        raise SampleSizeError("n must be positive")
    value, _ = _draw_value(key, n, statistic, scale_by_sqrt_n)
    return value


def _draw_chunk(
    values: np.ndarray,
    seed: int,
    n: int,
    statistic: Statistic,
    scale_by_sqrt_n: bool,
    lo: int,
    hi: int,
) -> int:
    """Fill values[lo:hi] for replications lo..hi-1; returns tie redraws."""
    vec, redo = _uniform_rows(
        seed, np.arange(lo, hi, dtype=np.uint64), _block(statistic, n), 2 * n
    )
    u, v = vec[:, :n], vec[:, n:]
    if statistic is Statistic.FOOTRULE:
        out, tied = _footrule_rows(u, v)
        redo |= tied
    elif statistic is Statistic.DOUBLE_SUM:
        out = _double_sum_rows(u, v)
    else:
        out = _hajek_rows(u, v)
    if scale_by_sqrt_n:
        out *= math.sqrt(n)
    values[lo:hi] = out
    redraws = 0
    # Rows numpy would have drawn again, and tied rank rows, go the scalar way.
    for row in np.flatnonzero(redo):
        rep = lo + int(row)
        values[rep], extra = _draw_value(
            StreamKey(seed, rep), n, statistic, scale_by_sqrt_n
        )
        redraws += extra
    return redraws


def _draw_many(
    seed: int,
    n: int,
    statistic: Statistic,
    replications: int,
    scale_by_sqrt_n: bool,
    threads: int,
) -> tuple[np.ndarray, int]:
    """All replication values, stream_id = replication index.

    Replications are drawn in chunks of about _CHUNK_WORDS words. With
    several chunks and threads, chunks run on a thread pool (numpy
    releases the GIL on large arrays); each value is written to its own
    slot, so output is identical for any thread count.
    """
    values = np.empty(replications, dtype=float)
    step = max(1, _CHUNK_WORDS // (2 * n))
    starts = range(0, replications, step)

    def fill(lo: int) -> int:
        hi = min(lo + step, replications)
        return _draw_chunk(values, seed, n, statistic, scale_by_sqrt_n, lo, hi)

    if threads <= 1 or len(starts) == 1:
        return values, sum(map(fill, starts))
    with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as pool:
        return values, sum(pool.map(fill, starts))


@dataclass(frozen=True)
class SimConfig:
    """Settings for a replication study of a single statistic."""

    seed: int
    replications: int
    sample_sizes: tuple[int, ...]
    statistic: Statistic
    scale_by_sqrt_n: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        _check_word("seed", self.seed)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.sample_sizes or min(self.sample_sizes) < 2:
            raise ValueError("sample sizes must all be >= 2")


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


def run_moment_study(config: SimConfig) -> list[MomentRow]:
    """Summaries of the statistic against the true null value 0, per n."""
    rows = []
    for n in config.sample_sizes:
        values, redraws = _draw_many(
            config.seed,
            n,
            config.statistic,
            config.replications,
            config.scale_by_sqrt_n,
            config.threads,
        )
        rows.append(
            MomentRow(
                statistic=config.statistic,
                n=n,
                summary=summarize(values, 0.0),
                redraws=redraws,
            )
        )
    return rows


def _statistic_pools(
    seed: int,
    n: int,
    replications: int,
    threads: int,
) -> dict[str, np.ndarray]:
    pools: dict[str, np.ndarray] = {}
    for stat in Statistic:
        values, redraws = _draw_many(seed, n, stat, replications, True, threads)
        if redraws:
            log.info("n=%d %s: %d tie redraws", n, stat.value, redraws)
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
    _check_word("seed", seed)

    def reference(t: float) -> float:
        return normal_cdf(t, 0.0, limiting_variance())

    rows = []
    for n in sample_sizes:
        pools = _statistic_pools(seed, n, replications, threads)
        for left, right in KS_COMBINATIONS:
            if right == "normal":
                outcome = ks_one_sample(pools[left], reference)
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
    _check_word("seed", seed)
    var = limiting_variance()
    rows = []
    for n in sample_sizes:
        pools = _statistic_pools(seed, n, replications, threads)
        for stat in Statistic:
            values = pools[stat.value]
            density = gaussian_kde(values, grid_size=grid_size)
            cdf = ecdf_curve(values, density.grid)
            ref_density = np.array([normal_pdf(g, 0.0, var) for g in density.grid])
            ref_cdf = np.array([normal_cdf(g, 0.0, var) for g in density.grid])
            rows.append(
                CurveRow(
                    statistic=stat,
                    n=n,
                    density=density,
                    cdf=cdf,
                    ref_density=ref_density,
                    ref_cdf=ref_cdf,
                )
            )
    return rows
