import random

import pytest

from superbracket.core import Alphabet
from superbracket.engine import GENP, JB, FreeAlgebra, GpAlgebra


@pytest.fixture(scope="session")
def genp():
    """Free generalized Poisson algebra over three even and one odd generator."""
    return FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), GENP)


@pytest.fixture(scope="session")
def jb():
    """Free Jordan-bracket algebra over three even and one odd generator."""
    return FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), JB)


@pytest.fixture(scope="session")
def gp():
    """Free generic Poisson algebra over three even and one odd generator."""
    return GpAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]))


@pytest.fixture()
def rng():
    return random.Random(20240817)
