import numpy as np
import pytest

from sgloc import tensor as T


@pytest.fixture
def f64():
    """Run a test at verification precision, restoring the previous mode."""
    with T.precision("f64"):
        yield


@pytest.fixture
def f32():
    with T.precision("f32"):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
