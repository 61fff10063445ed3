"""numpy's own sampler for the simulation streams: the tests' oracle.

`footrule.simulate` computes Philox4x64-10 and the Lemire step itself,
on whole batches, and redraws rare rows from the same words. These
helpers draw the same streams one replication at a time through numpy's
`Philox` bit generator and `Generator.integers`, and evaluate each row
with the validating public functions, which is how the package drew
them before it owned the stream contract. `lemire_uniforms` is the same
bounded-integer loop over given words, in Python integers.
"""

import numpy as np

from footrule.common import Statistic, TiesError
from footrule.ranks import PairedSample, footrule_coefficient
from footrule.representations import (
    UniformPairs,
    double_sum_representation,
    hajek_representation,
)
from footrule.simulate import _MAX_REDRAWS, _block

UNIT = 2**53
# integers(1, 2**53): Lemire's method over the 2^53 - 1 values 1 .. 2^53 - 1.
RANGE = UNIT - 1
THRESHOLD = (2**64 - RANGE) % RANGE
MASK = 2**64 - 1


def uniform_open(gen, size=None):
    """Uniform draws strictly inside (0, 1).

    Integers from 1 to 2^53 - 1 divided by 2^53, so both endpoints are
    unreachable and the mean is exactly 1/2.
    """
    return gen.integers(1, UNIT, size=size) / float(UNIT)


def generator(key, block, head=None):
    """numpy Generator on stream `key` in `block`; `head` replaces its first 4 words.

    Philox increments its counter before it fills its four-word buffer,
    so a state at counter [1, 0, 0, block] with `head` in the buffer
    reads `head` and then the stream's own words from word 4 on.
    """
    gen = key.generator(block=block)
    if head is not None:
        state = gen.bit_generator.state
        state["state"]["counter"][0] = 1
        state["buffer"] = np.asarray(head, dtype=np.uint64)
        state["buffer_pos"] = 0
        gen.bit_generator.state = state
    return gen


def row_value(u, v, statistic):
    """The statistic of one row through the validating public functions."""
    if statistic is Statistic.FOOTRULE:
        return footrule_coefficient(PairedSample(u, v)).phi
    if statistic is Statistic.DOUBLE_SUM:
        return double_sum_representation(UniformPairs(u, v))
    return hajek_representation(UniformPairs(u, v))


def redraw_loop(next_uniforms, n, statistic):
    """Value and tie redraws: rows of 2n uniforms until the ranks have no tie."""
    redraws = 0
    while True:
        vec = next_uniforms(2 * n)
        try:
            return row_value(vec[:n], vec[n:], statistic), redraws
        except TiesError:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise


def draw_value(key, n, statistic, head=None):
    """One statistic value plus its tie redraws, drawn through numpy's Generator."""
    gen = generator(key, _block(statistic, n), head)
    return redraw_loop(lambda size: uniform_open(gen, size), n, statistic)


def lemire_uniforms(words):
    """numpy's `integers(1, 2**53)` loop over a word sequence, as uniforms.

    numpy's bounded_lemire_uint64: the integer is the high word of
    m * RANGE, drawn again while the low word is below THRESHOLD.
    """
    words = iter(words)
    while True:
        m = next(words) * RANGE
        if m & MASK < RANGE:
            while m & MASK < THRESHOLD:
                m = next(words) * RANGE
        yield ((m >> 64) + 1) / UNIT
