"""Shared enums, exception types and the integer check."""

from __future__ import annotations

import enum
import numbers


class Statistic(enum.Enum):
    """The three statistics the package computes and simulates.

    FOOTRULE is the rank-based coefficient itself; DOUBLE_SUM is its
    approximation built from a double sum over independent uniforms;
    HAJEK is the projection of that approximation onto a sum of
    independent per-observation terms.

    The ``value`` strings are the labels used in CSV output.
    """

    FOOTRULE = "phi"
    DOUBLE_SUM = "phiprime"
    HAJEK = "phidprime"


class TiesError(ValueError):
    """Two equal values in a margin; ranking assumes continuous data.

    `value` is the first value, in input order, that repeats an earlier
    one, and `positions` the 0-based indices of its first occurrence and
    of that repeat, when the raiser knows them.
    """

    def __init__(self, message: str, value: float | None = None,
                 positions: tuple[int, int] | None = None):
        super().__init__(message)
        self.value = value
        self.positions = positions


class NonFiniteError(ValueError):
    """NaN or infinity in the input, or finite input whose float64 arithmetic overflows."""


class SampleSizeError(ValueError):
    """Sample size outside the operation's supported range."""


class DegenerateSampleError(ValueError):
    """Sample has zero spread; no bandwidth can be formed."""


class BadVarianceError(ValueError):
    """Variance parameter is not strictly positive."""


def _check_integer(name: str, value: int) -> int:
    """`value` as a Python int; Python and numpy integers pass, a float or any
    other non-integer raises. Python ints neither wrap nor warn in arithmetic."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
