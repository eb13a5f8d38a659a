import multiprocessing

import numpy as np
import pytest

from sgloc import tensor as T


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process (a training worker) still
    runs; the process is stopped first so that later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(timeout=10)
    if left:
        pytest.fail(f"processes left running after the test: {left}")


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
