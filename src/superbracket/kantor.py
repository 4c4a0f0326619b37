"""The Kantor double and Jordan-superalgebra verification.

The double of a supercommutative algebra A with a super-anticommutative
bracket is K(A) = A + Ax with

    a * b = ab,   a * bx = (ab)x,   ax * b = (-1)^{|b|} (ab)x,
    ax * bx = (-1)^{|b|} {a, b},

graded by K(A)_0 = A_0 + A_1 x and K(A)_1 = A_1 + A_0 x.  :func:`double_of`
builds it as a structure algebra from these four rules.  Jordan-ness of the
double is checked two independent ways: through the three bracket criteria
evaluated on A itself, and through the linearized super-Jordan identity
evaluated on the double; the two verdicts must agree.  Both run on the
exhaustive sweep :func:`~superbracket.concrete.first_failure`, over the
sparse vectors and per-check product memo of
:class:`~superbracket.concrete.SparseOps`, so both take structure algebras
only.  The test suite runs the criteria on the generators of a free engine
by building that report itself, from ``first_failure``, ``check_entry`` and
:class:`~superbracket.identities.ElementOps`.
"""

from __future__ import annotations

from .core import AlgebraError
from .concrete import Report, SparseOps, StructureAlgebra, check_entry, first_failure, vzero
from .identities import (
    double_criterion_residual,
    linear_jordan_residual,
    supercommutativity_residual,
)

CRITERIA = (1, 2, 3)


def double_of(algebra: StructureAlgebra) -> StructureAlgebra:
    """The double as a structure algebra: indices i (plain) and dim+i (shifted)."""
    d = algebra.dim
    ops = SparseOps(algebra)
    product = {}

    def put(i, j, vec, shifted):
        if vec:
            product[(i, j)] = [(k + (d if shifted else 0), c) for k, c in vec]

    for i, a in enumerate(ops.basis):
        for j, b in enumerate(ops.basis):
            ab = ops.mul(a, b)
            sj = -1 if algebra.parities[j] else 1
            put(i, j, ab, False)
            put(i, d + j, ab, True)
            put(d + i, j, ops.combine([(sj, ab)]), True)
            put(d + i, d + j, ops.combine([(sj, ops.bracket(a, b))]), False)
    parities = tuple(algebra.parities) + tuple(p ^ 1 for p in algebra.parities)
    unit = None
    if algebra.unit is not None:
        unit = tuple(algebra.unit) + vzero(d)
    return StructureAlgebra(2 * d, parities, product, {}, unit, "none")


def criteria_check(algebra: StructureAlgebra) -> Report:
    """Evaluate the three double-Jordan bracket criteria on the algebra.

    The check runs over all basis 4-tuples, which is complete (the criteria
    are multilinear).
    """
    ops = SparseOps(algebra)
    checks = []
    for which in CRITERIA:
        failure = first_failure(4, ops.basis,
                                lambda *args: double_criterion_residual(ops, which, *args), ops.is_zero)
        checks.append(check_entry(f"jorskob{which}", failure, ops.parity, ops.render))
    return Report(checks)


def super_jordan_check(double: StructureAlgebra) -> Report:
    """Linearized super-Jordan identity, exhaustively over basis 4-tuples.

    The input must be supercommutative (checked first, on every basis pair;
    an error with a witness otherwise).  This checks the double directly
    and is the cross-validation partner of :func:`criteria_check`.

    Once the product is supercommutative, the residual at (x, y, z, t) is
    the full polarization in x of ``(x^2 y)x - x^2(yx)``, so permuting x, z
    and t multiplies it by a Koszul sign.  The sweep therefore visits only
    the tuples with x <= z <= t; the first failing tuple in product order is
    sorted (see :func:`~superbracket.concrete.first_failure`), so the
    verdict and the witness are those of the sweep over all 4-tuples.
    """
    ops = SparseOps(double)
    failure = first_failure(
        2, ops.basis, lambda a, b: supercommutativity_residual(ops, a, b), ops.is_zero)
    if failure is not None:
        (i, j), _, res = failure
        raise AlgebraError(f"input is not supercommutative at ({i},{j}): {ops.render(res)}")
    failure = first_failure(
        4, ops.basis, lambda x, y, z, t: linear_jordan_residual(ops, x, y, z, t), ops.is_zero,
        symmetric=(0, 2, 3))
    return Report([check_entry("super-jordan-linearized", failure, ops.parity, ops.render)])


def double_is_jordan(algebra: StructureAlgebra):
    """Both verdicts plus their agreement flag: (criteria, direct, agree).

    The direct check runs first, so a double that is not supercommutative
    is refused before the criteria sweep.
    """
    direct = super_jordan_check(double_of(algebra))
    by_criteria = criteria_check(algebra)
    return by_criteria, direct, by_criteria.ok == direct.ok
