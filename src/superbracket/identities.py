"""The identities the package checks, each written once, and their evaluators.

Associativity, the four claim axioms and the two Kantor residuals (the
double-Jordan criteria and the linearized super-Jordan identity) are tables
of term shapes: signed values of the trilinear :data:`KERNELS` (some of
them one-sided) at a table row, a D row among them, and two basis indices
(:data:`ASSOCIATIVITY`, :data:`LEIBNIZ`, :data:`JACOBI`, their deformed
forms, :data:`CRITERION_SHAPES`, :data:`JORDAN_SHAPES`; the comments give
the formulas).  Two evaluators read a table, and both take a term's sign
from :func:`signs`: :func:`~superbracket.concrete.kernel_sums` sums it over
a structure algebra's tables at every basis tuple they reach, one first
index at a time, and
:func:`residual` evaluates it at given elements over any ``ops`` adapter:
a :class:`~superbracket.engine.FreeAlgebra` itself, a :class:`Twisted`
adapter or the structure tables' ``SparseOps``.  The unit and derivation
residuals have one and two arguments, so no trilinear shape:
:func:`unit_residual` and :func:`derivation_residual` write them as flat
signed sums.  The adapter provides five methods::

    mul(a, b)       supercommutative associative product
    bracket(a, b)   super-anticommutative bracket (where required)
    deriv(a)        the distinguished derivation {a, 1} (where required)
    parity(a)       0 or 1 for a homogeneous element
    combine(pairs)  the linear combination c1 x1 + c2 x2 + ... of the
                    (coefficient, element) pairs

All inputs must be parity-homogeneous; residuals are exact elements of the
adapter's carrier, zero iff the identity holds on those arguments.

:func:`superbracket.core.evaluate`, beside the term trees, is the one fold
of a raw term tree over an adapter.  :class:`Twisted` is the one derivation
twist, itself an adapter over any other.
"""

from __future__ import annotations

from functools import cache, partial

from .core import scalar


def unit_residual(ops, unit, a):
    """1.a - a"""
    return ops.combine([(1, ops.mul(unit, a)), (-1, a)])


def derivation_residual(ops, a, b):
    """D(ab) - D(a)b - aD(b), for the even derivation D"""
    mul, D = ops.mul, ops.deriv
    return ops.combine([(1, D(mul(a, b))), (-1, mul(D(a), b)), (-1, mul(a, D(b)))])


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
# basis vectors are both odd (signs).  concrete.kernel_sums adds the terms of
# every tuple that a nonzero row and kernel value reach, each kernel linear in
# its first argument, in slices by the tuple's first index; residual
# evaluates the terms at given elements, with p
# their product or bracket, the derivation of one, or the element itself.

# assoc(a,b,c) = (ab)c - a(bc) at the basis indices (a, b, c)
ASSOCIATIVITY = (((1, ()), "basis", (0,), ASSOC, 1, 2),)
# The claim axioms at (a, b, c):
#   Leibniz           {a,bc} - {a,b}c - (-1)^{|a||b|} b{a,c}
#   deformed Leibniz  Leibniz + D(a)bc
#   Jacobi            {a,{b,c}} - {{a,b},c} - (-1)^{|a||b|} {b,{a,c}}
#   deformed Jacobi   Jacobi - D(a){b,c} - (-1)^{|a|(|b|+|c|)} D(b){c,a}
#                       - (-1)^{|c|(|a|+|b|)} D(c){a,b}
# Term for term they are
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


@cache
def signs(rule, arity):
    """The sign of a shape's sign rule (s, swaps) at each parity mask of a
    placed tuple, bit q for the argument at position q."""
    s, swaps = rule
    return tuple(-s if sum(m >> a & m >> b & 1 for a, b in swaps) & 1 else s
                 for m in range(1 << arity))


def residual(shapes, ops, *args):
    """The residual of a table of term shapes at the elements ``args`` over
    the adapter: per shape, p from its table at the args of its pair (the
    arg itself for "basis", its ``deriv`` for "deriv", else their product
    or bracket), then s((p o1 g) o2 c) - s(p o3 (g o4 c)) with g and c the
    args at the shape's positions, a one-sided kernel's absent side left
    out, all the terms summed in one ``combine``."""
    mask = sum(ops.parity(x) << q for q, x in enumerate(args))
    terms = []
    for rule, table, pair, kernel, g, c in shapes:
        s = signs(rule, len(args))[mask]
        a = args[pair[0]]
        p = (a if table == "basis" else ops.deriv(a) if table == "deriv"
             else getattr(ops, table)(a, args[pair[1]]))
        o1, o2, o3, o4 = KERNELS[kernel]
        g, c = args[g], args[c]
        if o1:
            terms.append((s, getattr(ops, o2)(getattr(ops, o1)(p, g), c)))
        if o3:
            terms.append((-s, getattr(ops, o3)(p, getattr(ops, o4)(g, c))))
    return ops.combine(terms)


# the claim axioms' residuals under the names that perfbench's rules import
leibniz_residual = partial(residual, LEIBNIZ)
deformed_leibniz_residual = partial(residual, DEFORMED_LEIBNIZ)
jacobi_residual = partial(residual, JACOBI)
deformed_jacobi_residual = partial(residual, DEFORMED_JACOBI)


# a free algebra is its own adapter, under the name perfbench's free-identities workload calls
def ElementOps(algebra):
    return algebra


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
