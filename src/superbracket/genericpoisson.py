"""Free generic Poisson superalgebra: Leibniz and anticommutativity only.

With no Jacobi relation available, a bracket of two normal-form atoms cannot
be rewritten, only oriented; the atoms of the normal form are therefore
arbitrary oriented binary bracket trees (even squares vanish, odd squares
are kept, possibly nested).  Brackets against products expand by the plain
Leibniz rule; brackets with the unit vanish, as forced by Leibniz in the
unital algebra.  The engine is :class:`~superbracket.engine.FreeAlgebra`
with the ``gp`` theory; this module adds the Kantor-double criteria.
"""

from __future__ import annotations

from .core import AlgebraError, Alphabet
from .elements import Element
from .engine import GP, FreeAlgebra
from .identities import (ElementOps, double_criterion_residual, jacobi_defect_residual,
                         jordan_gp_residual)


class GpAlgebra(FreeAlgebra):
    """The free unital generic Poisson superalgebra over an alphabet."""

    def __init__(self, alphabet: Alphabet, max_degree=None):
        super().__init__(alphabet, GP, max_degree)


def gp_normal_form(algebra: GpAlgebra, term) -> Element:
    """Normal form of a raw term in the free generic Poisson superalgebra."""
    return algebra.normal_form(term)


def jacobi_defect(algebra: GpAlgebra, a, b, c) -> Element:
    """{{a,b},c} - (-1)^{|b||c|}{{a,c},b} - {a,{b,c}} in normal form.

    This is the parenthesized factor of the Jordan-ness criterion for the
    Kantor double of a generic Poisson superalgebra.
    """
    args = [_as_element(algebra, x) for x in (a, b, c)]
    return jacobi_defect_residual(ElementOps(algebra), *args)


def criterion_residual(algebra: GpAlgebra, which: int, f, h, g, w) -> Element:
    """Left-minus-right of one of the three Kantor-double Jordan criteria."""
    args = [_as_element(algebra, x) for x in (f, h, g, w)]
    return double_criterion_residual(ElementOps(algebra), which, *args)


def jordan_criterion_product(algebra: GpAlgebra, a, b, c, d) -> Element:
    """The full criterion polynomial: jacobi_defect(a,b,c) times d."""
    args = [_as_element(algebra, x) for x in (a, b, c, d)]
    return jordan_gp_residual(ElementOps(algebra), *args)


def _as_element(algebra: GpAlgebra, x) -> Element:
    if isinstance(x, Element):
        if x.algebra is not algebra:
            raise AlgebraError("element from a different algebra")
        return x
    return algebra.normal_form(x)
