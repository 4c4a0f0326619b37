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
one :class:`BasisTables`, the basis-pair rows and the kernel values at basis
index triples, and a tuple's residual sums at most three kernel values per
nonzero coordinate of p, exactly over Q: the same vector as the unfactored
sum of products, so every zero test and every report is unchanged.  Both
checks sweep basis indices on :func:`~superbracket.concrete.first_failure`,
one tuple per orbit of the permutations that only change the residual's
sign, whose first failure in product order is that of the full sweep.
:class:`~superbracket.concrete.SparseOps` runs the pair checks that come
first and renders the witness, so both checks take structure algebras only.
"""

from __future__ import annotations

from .core import AlgebraError
from .concrete import Report, SparseOps, StructureAlgebra, check_entry, first_failure, vzero
from .elements import add_terms
from .identities import (
    KERNELS,
    anticommutativity_residual,
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


class BasisTables:
    """The tables one Kantor check contracts, for a structure algebra.

    ``products`` and ``brackets`` hold the product and the bracket of the
    basis vectors i and j at ``i * dim + j``: the algebra's table rows,
    sparse vectors of ``(index, coefficient)`` pairs.  :meth:`contract`
    sums kernel values; the value of the kernel ``KERNELS[K]`` at basis
    indices (k, g, c) is (e_k o1 e_g) o2 e_c - e_k o3 (e_g o4 e_c), summed
    from the rows when first asked for and kept under one int key.
    """

    def __init__(self, algebra: StructureAlgebra):
        d = self.dim = algebra.dim
        self.parities = algebra.parities
        pairs = [(i, j) for i in range(d) for j in range(d)]
        rows = {"mul": [algebra.product.get(ij, ()) for ij in pairs],
                "bracket": [algebra.bracket_table.get(ij, ()) for ij in pairs]}
        self.products, self.brackets = rows["mul"], rows["bracket"]
        self._kernels = [tuple(rows[o] for o in ops) for ops in KERNELS]
        self._values, self._span = {}, len(KERNELS) * d * d

    def contract(self, terms):
        """The sum of s K(p, g, c) over the terms ``(s, p, K, g, c)``, where p
        is a sparse vector, K indexes a kernel and g, c are basis indices:
        the kernel values at (k, g, c) summed with the coefficients s p_k."""
        d, span, values = self.dim, self._span, self._values
        acc = {}
        for s, p, kernel, g, c in terms:
            base = (kernel * d + g) * d + c
            for k, pk in p:
                key = k * span + base
                value = values.get(key)
                if value is None:
                    value = values[key] = self._kernel(kernel, k, g, c)
                if value:
                    add_terms(acc, value, s * pk)
        return tuple(sorted(acc.items())) if acc else ()

    def _kernel(self, kernel, k, g, c):
        o1, o2, o3, o4 = self._kernels[kernel]
        d, acc = self.dim, {}
        for m, a in o1[k * d + g]:
            add_terms(acc, o2[m * d + c], a)
        for m, a in o4[g * d + c]:
            add_terms(acc, o3[k * d + m], -a)
        return tuple(sorted(acc.items()))


def _commutes(ops, residual):
    """Whether the two-argument residual vanishes on every basis pair."""
    return first_failure(2, ops.basis, lambda a, b: residual(ops, a, b), ops.is_zero) is None


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
    tuple.  Each residual is a contraction of :class:`BasisTables`.
    """
    ops = SparseOps(algebra)
    tables = BasisTables(algebra)
    orbits = {1: (0, 1, 3) if _commutes(ops, anticommutativity_residual) else ()}
    orbits[2] = orbits[3] = (0, 1) if _commutes(ops, supercommutativity_residual) else ()
    checks = []
    for which in CRITERIA:
        failure = first_failure(
            4, algebra.dim, lambda f, h, g, w: double_criterion_residual(tables, which, f, h, g, w),
            ops.is_zero, symmetric=orbits[which])
        checks.append(check_entry(f"jorskob{which}", failure, tables.parities.__getitem__,
                                  ops.render))
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
    verdict and the witness are those of the sweep over all 4-tuples.  Each
    residual is a contraction of :class:`BasisTables`.
    """
    ops = SparseOps(double)
    failure = first_failure(
        2, ops.basis, lambda a, b: supercommutativity_residual(ops, a, b), ops.is_zero)
    if failure is not None:
        (i, j), _, res = failure
        raise AlgebraError(f"input is not supercommutative at ({i},{j}): {ops.render(res)}")
    tables = BasisTables(double)
    failure = first_failure(
        4, double.dim, lambda x, y, z, t: linear_jordan_residual(tables, x, y, z, t),
        ops.is_zero, symmetric=(0, 2, 3))
    return Report([check_entry("super-jordan-linearized", failure, tables.parities.__getitem__,
                               ops.render)])


def double_is_jordan(algebra: StructureAlgebra):
    """Both verdicts plus their agreement flag: (criteria, direct, agree).

    The direct check runs first, so a double that is not supercommutative
    is refused before the criteria sweep.
    """
    direct = super_jordan_check(double_of(algebra))
    by_criteria = criteria_check(algebra)
    return by_criteria, direct, by_criteria.ok == direct.ok
