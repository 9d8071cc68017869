import pytest
from hypothesis import settings

# the same examples on every run, and nothing written to a local database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

from wsteenrod import MilnorAlgebra, algebra


@pytest.fixture(scope="session")
def alg16() -> MilnorAlgebra:
    return algebra(16)


@pytest.fixture(scope="session")
def alg24() -> MilnorAlgebra:
    return algebra(24)


@pytest.fixture(scope="session")
def alg30() -> MilnorAlgebra:
    return algebra(30)
