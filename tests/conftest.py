"""Shared fixtures: the production grid and a few reference ground states.

The solves are session-scoped because several test modules reuse them and
each costs a fraction of a second to a few seconds.
"""

import multiprocessing

import numpy as np
import pytest

import trinls as t


@pytest.fixture(scope="session")
def grid40():
    return t.make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def grid64():
    """Wide box: sech-family truncation floor ~1e-12, adequate for
    closed-form residual checks at their stated tolerances."""
    return t.make_grid(2048, 64.0)


@pytest.fixture(scope="session")
def model_ones():
    return t.CouplingModel(np.ones((3, 3)), p=2.0)


@pytest.fixture(scope="session")
def gs_single4(grid40, model_ones):
    """Reference minimizer at masses (4, 0, 0): lambda = -4/3, omega1 = 1."""
    return t.minimize(model_ones, t.MassTriple(4.0, 0.0, 0.0), grid40)


@pytest.fixture(scope="session")
def gs_equal(grid40, model_ones):
    """Equal-coupling minimizer at masses (4/3, 4/3, 4/3): lambda = -4/3."""
    return t.minimize(model_ones, t.MassTriple(4 / 3, 4 / 3, 4 / 3), grid40)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test after which a child process is still running (and stop
    it, so the next test starts clean)."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"child processes still running: {left}"
