import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, whatever the example database holds
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

import oracles
from alglen import examples
from alglen.field import PrimeField


@pytest.fixture(scope="session")
def aflex():
    return examples.make_a_flex()


@pytest.fixture(scope="session")
def aalt():
    return examples.make_a_alt()


@pytest.fixture(scope="session")
def aflex_gf2():
    return examples.make_a_flex(PrimeField(2))


@pytest.fixture(scope="session")
def aalt_gf2():
    return examples.make_a_alt(PrimeField(2))


@pytest.fixture(scope="session")
def z2n2():
    return examples.make_group_algebra_z2n(2)


@pytest.fixture(scope="session")
def z2n3():
    return examples.make_group_algebra_z2n(3)


@pytest.fixture(scope="session")
def small_registry():
    """Example algebras of dimension at most 6, for sweep-style tests."""
    return {name: alg for name, alg in oracles.example_algebras().items() if alg.dim <= 6}
