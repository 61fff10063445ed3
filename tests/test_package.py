"""The package's public surface: `__all__` and the names bound beside it."""

import inspect

import pytest

import footrule
from footrule import ExactNullDistribution, moments, representations

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
