import pytest

from crm import distortion as D


@pytest.fixture(scope="session")
def measure_zoo():
    """One representative of every supported measure family."""
    return {
        "tail": D.tail(0.35),
        "beta": D.beta(6, 2),
        "alpha": D.alpha(5),
        "mixture": D.mixture([(0.25, 0.4), (0.6, 0.35), (1.0, 0.25)]),
    }
