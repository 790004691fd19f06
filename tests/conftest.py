import math

import pytest
from hypothesis import settings

from qsegre import make_state

# Hypothesis draws the same examples on every run, seeded from each test, so a
# failure reproduces and tier-1 and CI test alike.  No example database either:
# replaying a failure saved by an earlier run would change what a run tests.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


@pytest.fixture
def bell():
    """(|00> + |11>)/sqrt(2), float backend."""
    return make_state([2, 2], [SQ2, 0, 0, SQ2])


@pytest.fixture
def bell_exact():
    """Unnormalized exact Bell direction (1, 0, 0, 1)."""
    return make_state([2, 2], [1, 0, 0, 1])


@pytest.fixture
def ghz3():
    return make_state([2, 2, 2], [SQ2, 0, 0, 0, 0, 0, 0, SQ2])


@pytest.fixture
def ghz3_exact():
    return make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1])


@pytest.fixture
def w3():
    return make_state([2, 2, 2], [0, SQ3, SQ3, 0, SQ3, 0, 0, 0])


@pytest.fixture
def w3_exact():
    return make_state([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0])
