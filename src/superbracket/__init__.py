"""Exact symbolic computation in free generalized Poisson superalgebras,
free superalgebras of Jordan brackets, and free generic Poisson
superalgebras, with the Kantor double and the reduction of polynomial
identities to customary form."""

from .core import (
    GENP,
    GP,
    JB,
    AlgebraError,
    Alphabet,
    Bracket,
    DegreeGuardError,
    Gen,
    Generator,
    Prod,
    Sum,
    Var,
)
from .elements import Element


def __getattr__(name):
    """Load the free engine, the structure-algebra and the Farkas modules on
    first use (PEP 562), so that each CLI command compiles only its own."""
    module = {"FreeAlgebra": "engine", "GpAlgebra": "engine", "dim_multilinear": "engine",
              "StructureAlgebra": "concrete", "CustomaryPolynomial": "farkas",
              "PoissonPolynomial": "farkas"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "Alphabet",
    "Bracket",
    "CustomaryPolynomial",
    "DegreeGuardError",
    "Element",
    "FreeAlgebra",
    "GENP",
    "GP",
    "Gen",
    "Generator",
    "GpAlgebra",
    "JB",
    "PoissonPolynomial",
    "Prod",
    "StructureAlgebra",
    "Sum",
    "Var",
    "dim_multilinear",
]
