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
linear in p, where p is a product or bracket of two basis vectors (see
:func:`~superbracket.identities.double_criterion_residual` and
:func:`~superbracket.identities.linear_jordan_residual`).  So a check builds
one :class:`~superbracket.concrete.SparseOps`, the one evaluator of the
tables, and a tuple's residual sums at most three of its kernel values per
nonzero coordinate of p, exactly over Q: the same vector as the unfactored
sum of products, so every zero test and every report is unchanged.  Both
checks write their entries with :func:`~superbracket.concrete.report_entry`,
which sweeps basis indices on :func:`~superbracket.concrete.first_failure`,
one tuple per orbit of the permutations that only change the residual's
sign, whose first failure in product order is that of the full sweep.  The
pair checks that come first read the same evaluator's table rows
(:meth:`~superbracket.concrete.SparseOps.pair_residual`), and it renders
the witness, so both checks take structure algebras only.  A super-Jordan
tuple whose three products xz, xt and zt are all zero is zero without a
contraction.
"""

from __future__ import annotations

from functools import partial

from .core import AlgebraError
from .concrete import Report, SparseOps, StructureAlgebra, first_failure, report_entry, vzero
from .identities import double_criterion_residual, linear_jordan_residual

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
    multilinear), and each criterion sweeps only one tuple per symmetry
    orbit.  Criterion 1 only changes sign when f, h and w (positions 0, 1
    and 3) are permuted, if the bracket is super-anticommutative; criteria 2
    and 3 only change sign when f and h are swapped, if the product is
    supercommutative.  Where its condition holds on every basis pair, a
    criterion sweeps the tuples whose indices at those positions are sorted,
    whose first failure in product order is the full sweep's (see
    :func:`~superbracket.concrete.first_failure`); elsewhere it sweeps every
    tuple.  Each residual is a kernel contraction of the check's
    :class:`~superbracket.concrete.SparseOps`.
    """
    ops = SparseOps(algebra)
    anti, comm = (first_failure(2, algebra.dim, partial(ops.pair_residual, op), ops.is_zero) is None
                  for op in ("bracket", "mul"))
    orbits = {1: (0, 1, 3) if anti else ()}
    orbits[2] = orbits[3] = (0, 1) if comm else ()
    return Report([
        report_entry(ops, f"jorskob{which}", 4,
                     lambda f, h, g, w: double_criterion_residual(ops, which, f, h, g, w),
                     orbits[which])
        for which in CRITERIA])


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
    verdict and the witness are those of the sweep over all 4-tuples.  Each
    residual is a kernel contraction of the check's
    :class:`~superbracket.concrete.SparseOps`.
    """
    ops = SparseOps(double)
    failure = first_failure(2, double.dim, partial(ops.pair_residual, "mul"), ops.is_zero)
    if failure is not None:
        (i, j), res = failure
        raise AlgebraError(f"input is not supercommutative at ({i},{j}): {ops.render(res)}")
    return Report([report_entry(ops, "super-jordan-linearized", 4,
                                lambda x, y, z, t: linear_jordan_residual(ops, x, y, z, t),
                                symmetric=(0, 2, 3))])


def double_is_jordan(algebra: StructureAlgebra):
    """Both verdicts plus their agreement flag: (criteria, direct, agree).

    The direct check runs first, so a double that is not supercommutative
    is refused before the criteria sweep.
    """
    direct = super_jordan_check(double_of(algebra))
    by_criteria = criteria_check(algebra)
    return by_criteria, direct, by_criteria.ok == direct.ok
