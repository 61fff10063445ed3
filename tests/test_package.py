"""The package's public surface: `__all__`, the names bound beside it, and the README."""

import inspect
import re
import warnings
from pathlib import Path

import pytest

import footrule
from footrule import ExactNullDistribution, moments, representations

README = Path(__file__).resolve().parents[1] / "README.md"

ORACLE_NAMES = (
    "u_kernel", "hajek_projection_term", "cond_exp_abs_diff",
    "E_ABS_DIFF", "E_U_ONE_MINUS_U", "VAR_ABS_DIFF", "VAR_U_ONE_MINUS_U",
    "COV_ABS_DIFF_U_ONE_MINUS_U", "COV_ABS_DIFF_SHARED",
)


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(footrule).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(footrule.__all__) == len(set(footrule.__all__))
    assert set(footrule.__all__) == bound


@pytest.mark.parametrize("module", [footrule, representations, moments])
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracles_are_not_exported(module, name):
    assert not hasattr(module, name)


def test_exact_moments_are_a_test_oracle():
    assert not hasattr(ExactNullDistribution, "phi_moments_exact")


def test_readme_examples_run():
    # A moved or renamed public name fails here, not in the quick start; so does a
    # warning from any example.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {i}", "exec"), {})
