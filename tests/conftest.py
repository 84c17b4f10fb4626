import importlib

import pytest

# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")


@pytest.fixture(autouse=True)
def cold_solves():
    """Every test starts with an empty memo of solves, weak-laser limits
    included, so a test that spies on or patches the solver sees a cold
    solve whatever ran before it."""
    optimize_module._solve.cache_clear()
