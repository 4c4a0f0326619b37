"""Residual builders for the identities the package checks.

These are the identities that a structure algebra's validation, its
untwisting and the Kantor checks evaluate, but for the pair checks, which
are read from the table rows.
Their builders, the residuals of the generic Poisson characterization and
the unfactored Kantor residuals are test oracles in ``tests/paper_forms.py``.

Each function evaluates left-minus-right of one defining identity over an
``ops`` adapter as one flat signed sum, term for term as in its docstring,
so the sign conventions live in exactly one place.  Associativity, the
four claim axioms and the two Kantor residuals (the double-Jordan criteria
and the linearized super-Jordan identity) are also written as tables of
term shapes, signed values of the trilinear :data:`KERNELS` (some of them
one-sided) at a table row, a D row among them, and two basis indices
(:data:`ASSOCIATIVITY`, :data:`LEIBNIZ`, :data:`JACOBI`, their deformed
forms, :data:`CRITERION_SHAPES`, :data:`JORDAN_SHAPES`; the comments give
the formulas), which :func:`~superbracket.concrete.kernel_sums` sums over
a structure algebra's tables at every basis tuple they reach.  The adapter
provides five methods::

    mul(a, b)       supercommutative associative product
    bracket(a, b)   super-anticommutative bracket (where required)
    deriv(a)        the distinguished derivation {a, 1} (where required)
    parity(a)       0 or 1 for a homogeneous element
    combine(pairs)  the linear combination c1 x1 + c2 x2 + ... of the
                    (coefficient, element) pairs

All inputs must be parity-homogeneous; residuals are exact elements of the
adapter's carrier, zero iff the identity holds on those arguments.

:func:`evaluate` is the one fold of a raw term tree over an adapter: the free
engine's normal form and substitution and a structure algebra's term
evaluation differ only in how they read a leaf.  :class:`Twisted` is the one
derivation twist, itself an adapter over any other.
"""

from __future__ import annotations

from .core import Prod, Sum, fold, scalar
from .elements import combine


def evaluate(ops, term, leaf):
    """A term tree's value over the adapter: ``leaf(g)`` at each Gen and Var
    leaf, ``combine`` at a Sum (its coefficients through :func:`scalar`),
    ``mul`` at a Prod and ``bracket`` at a Bracket."""

    def node(t, values):
        if isinstance(t, Sum):
            return ops.combine([(scalar(c), v) for (c, _), v in zip(t.terms, values)])
        return (ops.mul if isinstance(t, Prod) else ops.bracket)(*values)

    return fold(term, leaf, node)


def _sgn(bit) -> int:
    return -1 if (bit & 1) else 1


def unit_residual(ops, unit, a):
    """1.a - a"""
    return ops.combine([(1, ops.mul(unit, a)), (-1, a)])


def _leibniz_terms(ops, a, b, c):
    s = _sgn(ops.parity(a) & ops.parity(b))
    mul, brk = ops.mul, ops.bracket
    return [(1, brk(a, mul(b, c))), (-1, mul(brk(a, b), c)), (-s, mul(b, brk(a, c)))]


def leibniz_residual(ops, a, b, c):
    """Plain Leibniz: {a,bc} - {a,b}c - (-1)^{|a||b|} b{a,c}"""
    return ops.combine(_leibniz_terms(ops, a, b, c))


def deformed_leibniz_residual(ops, a, b, c):
    """{a,bc} - {a,b}c - (-1)^{|a||b|} b{a,c} + D(a)bc"""
    mul = ops.mul
    return ops.combine(_leibniz_terms(ops, a, b, c) + [(1, mul(mul(ops.deriv(a), b), c))])


def derivation_residual(ops, a, b):
    """D(ab) - D(a)b - aD(b), for the even derivation D"""
    mul, D = ops.mul, ops.deriv
    return ops.combine([(1, D(mul(a, b))), (-1, mul(D(a), b)), (-1, mul(a, D(b)))])


def _jacobi_terms(ops, a, b, c):
    s = _sgn(ops.parity(a) & ops.parity(b))
    brk = ops.bracket
    return [(1, brk(a, brk(b, c))), (-1, brk(brk(a, b), c)), (-s, brk(b, brk(a, c)))]


def jacobi_residual(ops, a, b, c):
    """{a,{b,c}} - {{a,b},c} - (-1)^{|a||b|} {b,{a,c}}"""
    return ops.combine(_jacobi_terms(ops, a, b, c))


def deformed_jacobi_residual(ops, a, b, c):
    """Jacobi deformed by the three derivation terms.

    {a,{b,c}} - {{a,b},c} - (-1)^{|a||b|}{b,{a,c}}
      - D(a){b,c} - (-1)^{|a|(|b|+|c|)} D(b){c,a} - (-1)^{|c|(|a|+|b|)} D(c){a,b}
    """
    pa, pb, pc = ops.parity(a), ops.parity(b), ops.parity(c)
    mul, brk, D = ops.mul, ops.bracket, ops.deriv
    return ops.combine(_jacobi_terms(ops, a, b, c) + [
        (-1, mul(D(a), brk(b, c))),
        (-_sgn(pa & (pb + pc)), mul(D(b), brk(c, a))),
        (-_sgn(pc & (pa + pb)), mul(D(c), brk(a, b))),
    ])


# The kernels of the kernel-form residuals: trilinear maps
# K(p, g, c) = (p o1 g) o2 c - p o3 (g o4 c), each o the product "mul" or the
# "bracket", given as (o1, o2, o3, o4) and joined by concrete.SparseOps; a
# kernel with o1, o2 (or o3, o4) None is its other side alone.
KERNELS = (
    ("mul", "mul", "mul", "mul"),                  # assoc(p,g,c) = (pg)c - p(gc)
    ("mul", "bracket", "mul", "bracket"),          # K1(p,g,w) = {pg,w} - p{g,w}
    ("bracket", "mul", "mul", "bracket"),          # K2(p,g,c) = {p,g}c - p{g,c}
    ("bracket", "mul", "bracket", "mul"),          # K3(p,g,c) = {p,g}c - {p,gc}
    ("bracket", "bracket", "bracket", "bracket"),  # jac(p,g,c) = {{p,g},c} - {p,{g,c}}
    ("mul", "mul", None, None),                    # left(p,g,c) = (pg)c
    (None, None, "mul", "bracket"),                # mb(p,g,c) = -p{g,c}
    (None, None, "bracket", "bracket"),            # bb(p,g,c) = -{p,{g,c}}
)
ASSOC, K1, K2, K3, JAC, LEFT, MB, BB = range(len(KERNELS))


# The kernel-form residuals, each written once as a table of term shapes
# (sign, table, pair, kernel, g, c).  At a tuple idx of basis indices a
# shape is the term s K(p, e_idx[g], e_idx[c]), where p is the row of
# ``table`` at the indices idx[pair]: "mul" or "bracket", or one of the
# 1-ary tables "basis", the basis vector itself, and "deriv", the row
# D(e_a) = {e_a, 1} of an algebra with a unit.  The sign rule (s0, swaps)
# gives s = s0, negated once for each position pair (a, b) in swaps whose
# basis vectors are both odd.  concrete.kernel_sums adds the terms of every
# tuple that a nonzero row and kernel value reach, each kernel linear in its
# first argument.

# assoc(a,b,c) = (ab)c - a(bc) at the basis indices (a, b, c)
ASSOCIATIVITY = (((1, ()), "basis", (0,), ASSOC, 1, 2),)
# The claim axioms at (a, b, c), term for term as in their builders' docstrings:
#   Leibniz           -K3(a,b,c) + (-1)^{|a||b|} mb(b,a,c)
#   deformed Leibniz  Leibniz + left(D(a),b,c)
#   Jacobi            -jac(a,b,c) + (-1)^{|a||b|} bb(b,a,c)
#   deformed Jacobi   Jacobi + mb(D(a),b,c) + (-1)^{|a|(|b|+|c|)} mb(D(b),c,a)
#                       + (-1)^{|c|(|a|+|b|)} mb(D(c),a,b)
LEIBNIZ = (((-1, ()), "basis", (0,), K3, 1, 2), ((1, ((0, 1),)), "basis", (1,), MB, 0, 2))
DEFORMED_LEIBNIZ = LEIBNIZ + (((1, ()), "deriv", (0,), LEFT, 1, 2),)
JACOBI = (((-1, ()), "basis", (0,), JAC, 1, 2), ((1, ((0, 1),)), "basis", (1,), BB, 0, 2))
DEFORMED_JACOBI = JACOBI + (((1, ()), "deriv", (0,), MB, 1, 2),
                            ((1, ((0, 1), (0, 2))), "deriv", (1,), MB, 2, 0),
                            ((1, ((2, 0), (2, 1))), "deriv", (2,), MB, 0, 1))

# The three bracket identities equivalent to the Kantor double being
# Jordan, at (f, h, g, w) with parities (i, k, j, l) and the prefactors
# A = (-1)^{(i+j)l}, B = (-1)^{(k+j)i}, C = (-1)^{(l+j)k}, exactly as quoted
# from the source characterization:
#   1. A{{f,h}g,w} + B{{h,w}g,f} + C{{w,f}g,h}
#        - A{f,h}{g,w} - B{h,w}{g,f} - C{w,f}{g,h}
#   2. B({hw,g}f - (hw){g,f}) - C({wf,g}h - (wf){g,h})
#   3. A({(fh)g,w} - (fh){g,w}) - B({hw,g}f - {hw,gf}) - C({wf,g}h - {wf,gh})
# Term for term they are
#   1. A K1({f,h},g,w) + B K1({h,w},g,f) + C K1({w,f},g,h)
#   2. B K2(hw,g,f) - C K2(wf,g,h)
#   3. A K1(fh,g,w) - B K3(hw,g,f) - C K3(wf,g,h)
_A, _B, _C = ((0, 3), (2, 3)), ((1, 0), (2, 0)), ((3, 1), (2, 1))
CRITERION_SHAPES = {
    1: (((1, _A), "bracket", (0, 1), K1, 2, 3), ((1, _B), "bracket", (1, 3), K1, 2, 0),
        ((1, _C), "bracket", (3, 0), K1, 2, 1)),
    2: (((1, _B), "mul", (1, 3), K2, 2, 0), ((-1, _C), "mul", (3, 0), K2, 2, 1)),
    3: (((1, _A), "mul", (0, 1), K1, 2, 3), ((-1, _B), "mul", (1, 3), K3, 2, 0),
        ((-1, _C), "mul", (3, 0), K3, 2, 1)),
}
# The linearized Jordan identity, superized by the Koszul rule, at (x, y, z, t):
#   ((xz)y)t + ((xt)y)z + ((zt)y)x - (xz)(yt) - (xt)(yz) - (zt)(yx),
# each term signed by the parity of the shuffle taking (x,y,z,t) to its
# letter sequence, counting odd-odd inversions.  Term for term it is
# s1 assoc(xz,y,t) + s2 assoc(xt,y,z) + s3 assoc(zt,y,x) with the signs
# (-1)^{|y||z|}, (-1)^{|t|(|y|+|z|)} and (-1)^{|x|(|y|+|z|+|t|) + |y|(|z|+|t|)}.
JORDAN_SHAPES = (((1, ((1, 2),)), "mul", (0, 2), ASSOC, 1, 3),
                 ((1, ((3, 1), (3, 2))), "mul", (0, 3), ASSOC, 1, 2),
                 ((1, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))), "mul", (2, 3), ASSOC, 1, 0))


class ElementOps:
    """Adapter over a free algebra's elements."""

    def __init__(self, algebra):
        self.algebra = algebra

    def mul(self, a, b):
        return self.algebra.mul(a, b)

    def bracket(self, a, b):
        return self.algebra.bracket(a, b)

    def deriv(self, a):
        return self.algebra.deriv(a)

    def parity(self, a):
        return a.parity()

    def combine(self, pairs):
        return combine(self.algebra, pairs)


class Twisted:
    """The derivation twist of an adapter by a scalar c: the same product,
    the bracket ``{a,b} + c(aD(b) - D(a)b)`` and the derivation ``(1 - c)D``
    (the twisted bracket with the unit).

    c = -1 turns a Jordan bracket into a generalized Poisson one and c = 1/2
    turns it back (Kantor); c = 1 gives the angle bracket of a generalized
    Poisson algebra, a derivation in each slot.
    """

    def __init__(self, ops, c):
        self.ops, self.c = ops, scalar(c)
        self.mul, self.parity, self.combine = ops.mul, ops.parity, ops.combine

    def bracket(self, a, b):
        ops, c = self.ops, self.c
        return ops.combine([(1, ops.bracket(a, b)), (-c, ops.mul(ops.deriv(a), b)),
                            (c, ops.mul(a, ops.deriv(b)))])

    def deriv(self, a):
        return self.ops.combine([(1 - self.c, self.ops.deriv(a))])
