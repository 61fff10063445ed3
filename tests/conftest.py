"""Fixtures shared by every test module."""

import pytest

from footrule import simulate


@pytest.fixture(autouse=True)
def _empty_pools():
    """Start each test with no pooled draws, so no test reads values, or
    forced words, that another test left in `simulate._POOLS`."""
    simulate._POOLS.clear()
