"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.nn.tensor import Tensor

# CI runs with HYPOTHESIS_PROFILE=ci: a failing property or state
# machine then prints the blob that reproduces it with
# ``@reproduce_failure``.  The profile only adds output; every other
# setting is hypothesis's default or the test's own.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def numeric_gradient(tensor: Tensor, scalar_fn, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``scalar_fn()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    iterator = np.nditer(tensor.data, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = tensor.data[index]
        tensor.data[index] = original + eps
        upper = scalar_fn()
        tensor.data[index] = original - eps
        lower = scalar_fn()
        tensor.data[index] = original
        grad[index] = (upper - lower) / (2 * eps)
        iterator.iternext()
    return grad


def assert_grad_matches(tensor: Tensor, scalar_fn, atol: float = 1e-4) -> None:
    """Assert the taped gradient matches the numeric one."""
    assert tensor.grad is not None, "no gradient was accumulated"
    numeric = numeric_gradient(tensor, scalar_fn)
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)
