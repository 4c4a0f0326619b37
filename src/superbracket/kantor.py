"""The Kantor double and Jordan-superalgebra verification.

The double of a supercommutative algebra A with a super-anticommutative
bracket is K(A) = A + Ax with

    a * b = ab,   a * bx = (ab)x,   ax * b = (-1)^{|b|} (ab)x,
    ax * bx = (-1)^{|b|} {a, b},

graded by K(A)_0 = A_0 + A_1 x and K(A)_1 = A_1 + A_0 x.  :func:`double_of`
builds it as a structure algebra from these four rules.  Jordan-ness of the
double is checked two independent ways: through the three bracket criteria
evaluated on A itself, and through the linearized super-Jordan identity
evaluated on the double; the two verdicts must agree.

Each residual is a signed sum of at most three trilinear kernels K(p, g, c),
linear in p, where p is a product or bracket of two basis vectors, written
once as a table of term shapes in :mod:`~superbracket.identities`
(``CRITERION_SHAPES`` and ``JORDAN_SHAPES``, whose comments give the
formulas).  A check builds one :class:`~superbracket.concrete.SparseOps`,
the one evaluator of the tables, and
:func:`~superbracket.concrete.kernel_sums` walks each shape's table rows
and the nonzero kernel values they reach once, adding every term exactly
over Q into the basis 4-tuple it belongs to.  Every other tuple's residual
is literally zero.  :func:`~superbracket.concrete.report_entry` takes the
first tuple in product order whose sum is not zero as the witness, so the
verdict and the witness are those of the sweep over all basis 4-tuples,
with no symmetry argument.  The super-Jordan check's supercommutativity
guard is summed from the table rows at the pairs that have one
(:func:`~superbracket.concrete.pair_sums`), and the evaluator renders the
witness, so both checks take structure algebras only.
"""

from __future__ import annotations

from .core import AlgebraError
from .concrete import (Report, SparseOps, StructureAlgebra, first_nonzero, kernel_sums,
                       pair_sums, report_entry, vzero)
from .identities import CRITERION_SHAPES, JORDAN_SHAPES

CRITERIA = (1, 2, 3)


def double_of(algebra: StructureAlgebra) -> StructureAlgebra:
    """The double as a structure algebra: indices i (plain) and dim+i (shifted)."""
    d, par = algebra.dim, algebra.parities
    product = {}
    for (i, j), row in algebra.product.items():
        s = -1 if par[j] else 1
        product[(i, j)] = row
        product[(i, d + j)] = [(k + d, c) for k, c in row]
        product[(d + i, j)] = [(k + d, s * c) for k, c in row]
    for (i, j), row in algebra.bracket_table.items():
        s = -1 if par[j] else 1
        product[(d + i, d + j)] = [(k, s * c) for k, c in row]
    parities = par + tuple(p ^ 1 for p in par)
    unit = None
    if algebra.unit is not None:
        unit = tuple(algebra.unit) + vzero(d)
    return StructureAlgebra(2 * d, parities, product, {}, unit, "none")


def criteria_check(algebra: StructureAlgebra) -> Report:
    """Evaluate the three double-Jordan bracket criteria on the algebra.

    The check is complete over basis 4-tuples (the criteria are
    multilinear); each criterion is summed, in one pass, at the tuples
    where one of its terms is nonzero
    (:func:`~superbracket.concrete.kernel_sums`), with the full sweep's
    verdict and witness.
    """
    ops = SparseOps(algebra)
    return Report([report_entry(ops, f"jorskob{which}", kernel_sums(ops, CRITERION_SHAPES[which]))
                   for which in CRITERIA])


def super_jordan_check(double: StructureAlgebra) -> Report:
    """Linearized super-Jordan identity, exhaustively over basis 4-tuples.

    The input must be supercommutative (checked first, on every basis pair
    with a row; an error with a witness otherwise).  This checks the double
    directly and is the cross-validation partner of :func:`criteria_check`.
    The residual is summed, in one pass, at the tuples where one of its
    three terms is nonzero (:func:`~superbracket.concrete.kernel_sums`),
    with the full sweep's verdict and witness.
    """
    ops = SparseOps(double)
    failure = first_nonzero(pair_sums(ops, "mul"))
    if failure is not None:
        (i, j), res = failure
        raise AlgebraError(f"input is not supercommutative at ({i},{j}): {ops.render(res)}")
    return Report([report_entry(ops, "super-jordan-linearized", kernel_sums(ops, JORDAN_SHAPES))])


def double_is_jordan(algebra: StructureAlgebra):
    """Both verdicts plus their agreement flag: (criteria, direct, agree).

    The direct check runs first, so a double that is not supercommutative
    is refused before the criteria sweep.
    """
    direct = super_jordan_check(double_of(algebra))
    by_criteria = criteria_check(algebra)
    return by_criteria, direct, by_criteria.ok == direct.ok
