import pytest
from hypothesis import settings

from crm import distortion as D

# Every run draws the same examples, and no failure is replayed from a local
# example database: whether tier-1 passes depends on the code alone. Each test
# keeps its own max_examples.
settings.register_profile("crm", derandomize=True, database=None)
settings.load_profile("crm")


@pytest.fixture(scope="session")
def measure_zoo():
    """One representative of every supported measure family."""
    return {
        "tail": D.tail(0.35),
        "beta": D.beta(6, 2),
        "alpha": D.alpha(5),
        "mixture": D.mixture([(0.25, 0.4), (0.6, 0.35), (1.0, 0.25)]),
    }
