"""The paper's closed forms, kept as test oracles.

None of these is used by the package: the engine computes the same elements
by straightening and Leibniz expansion.  The acceptance suite (criteria 6
and 7) and ``tests/test_farkas.py`` compare the engine with them:

- :func:`left_normed` and :func:`leftnormed_product_expansion`, the expansion
  of a left-normed bracket whose head is a product;
- :func:`bracket_product_form` with its two macros, the embedding of a
  customary identity into brackets of products;
- :func:`leibniz_residual`, :func:`deformed_leibniz_residual`,
  :func:`jacobi_residual` and :func:`deformed_jacobi_residual`, the claim
  axioms as flat signed sums over an ``ops`` adapter (the five methods of
  :mod:`superbracket.identities`).  The package writes each of them once,
  as a table of kernel terms that ``identities.residual`` and
  ``concrete.kernel_sums`` evaluate; these builders are the independent
  oracles that the tests compare the tables with, and ``full_validate_sweep``
  sweeps them in full;
- :func:`jacobi_defect_residual` and :func:`jordan_gp_residual`, the residuals
  of the generic Poisson characterization, over the same adapters;
- :func:`supercommutativity_residual`, :func:`associativity_residual` and
  :func:`anticommutativity_residual`, the structural identities over an
  ``ops`` adapter.  The package reads them from a structure algebra's table
  rows and its associativity kernel; the tests sweep these builders in full
  and evaluate them on the free engines;
- :func:`double_criterion_residual` and :func:`linear_jordan_residual`, the
  Kantor residuals as flat signed sums of products over an ``ops`` adapter.
  The package evaluates them factored into kernels over basis tables; these
  unfactored forms are the oracles that the tests compare it with, and they
  evaluate the criteria on the generators of the free engines.
"""

from __future__ import annotations

from itertools import combinations

from superbracket.core import AlgebraError
from superbracket.elements import Element
from superbracket.engine import FreeAlgebra
from superbracket.farkas import CustomaryPolynomial


# -- left-normed brackets of a product --------------------------------------------------

def left_normed(algebra: FreeAlgebra, xs) -> Element:
    """{{...{x1,x2},...},xn}; a single element comes back unchanged."""
    xs = list(xs)
    if not xs:
        raise AlgebraError("left-normed bracket of nothing")
    out = xs[0]
    for x in xs[1:]:
        out = algebra.bracket(out, x)
    return out


def leftnormed_product_expansion(algebra: FreeAlgebra, y: Element, z: Element, ws) -> Element:
    """Expansion of {yz, w1, ..., wn} into products of left-normed blocks.

    The sum runs over a block for y, a block for z, and a set partition of
    the remaining indices into unit-headed blocks; block contents stay in
    increasing index order.  A configuration with l unit blocks carries the
    coefficient (-1)^l l!: the j-th unit block is created by the derivation
    term of the Leibniz rule, whose multiplicity is the number of blocks
    already present.  This reproduces the engine normal form of
    ``left_normed([y*z] + ws)`` exactly.
    """
    from math import factorial

    ws = list(ws)
    n = len(ws)
    one = algebra.one()
    pieces = []
    indices = tuple(range(n))
    for sy in _subsets(indices):
        rest1 = tuple(i for i in indices if i not in sy)
        for sz in _subsets(rest1):
            rest2 = tuple(i for i in rest1 if i not in sz)
            for blocks in _set_partitions(rest2):
                term = algebra.mul(
                    left_normed(algebra, [y] + [ws[i] for i in sy]),
                    left_normed(algebra, [z] + [ws[i] for i in sz]),
                )
                for block in blocks:
                    term = algebra.mul(term, left_normed(algebra, [one] + [ws[i] for i in block]))
                coeff = factorial(len(blocks))
                pieces.append((-coeff if len(blocks) % 2 else coeff, term))
    return algebra.combine(pieces)


def _subsets(indices):
    for r in range(len(indices) + 1):
        yield from combinations(indices, r)


def _set_partitions(indices):
    """All partitions of an index tuple into unordered nonempty blocks."""
    if not indices:
        yield []
        return
    head, rest = indices[0], indices[1:]
    for sub in _subsets(rest):
        block = (head,) + sub
        remaining = tuple(i for i in rest if i not in sub)
        for parts in _set_partitions(remaining):
            yield [block] + parts


# -- the product-embedded identity form ------------------------------------------------

def bracket_product_form(c: CustomaryPolynomial, algebra: FreeAlgebra, z_names) -> Element:
    """The identity rewritten with brackets of products and 2m extra letters.

    Each angle-bracket pair consumes two of the z letters through the
    four-slot macro, each D factor consumes two through the three-slot
    macro, and the 2i left-over letters trail as bare factors.  The result
    equals ``customary_to_element(c) * prod(z)`` exactly.
    """
    zs = [algebra.gen(n) for n in z_names]
    if len(zs) != 2 * c.m:
        raise AlgebraError(f"need exactly {2 * c.m} extra letters, got {len(zs)}")
    pieces = []
    for (pairs, singles), coeff in c.terms.items():
        used = 0
        term = algebra.one()
        for p, q in pairs:
            term = algebra.mul(
                term,
                _pair_macro(
                    algebra,
                    algebra.gen(c.letters[p - 1]),
                    algebra.gen(c.letters[q - 1]),
                    zs[used],
                    zs[used + 1],
                ),
            )
            used += 2
        for s in singles:
            term = algebra.mul(
                term,
                _deriv_macro(algebra, algebra.gen(c.letters[s - 1]), zs[used], zs[used + 1]),
            )
            used += 2
        for z in zs[used:]:
            term = algebra.mul(term, z)
        pieces.append((coeff, term))
    return algebra.combine(pieces)


def _pair_macro(algebra: FreeAlgebra, u1, u2, w1, w2) -> Element:
    """w1 w2 <u1,u2> written with brackets of products.

    {u1,u2}w1w2 + {u1,w1w2}u2 + u1{w1w2,u2}
      - sum_{w order} {u1,w}u2 w' + sum_{w order} {u2,w}u1 w'.
    """
    mul, brk = algebra.mul, algebra.bracket
    w12 = mul(w1, w2)
    pieces = [(1, mul(brk(u1, u2), w12)), (1, mul(brk(u1, w12), u2)), (1, mul(u1, brk(w12, u2)))]
    for wa, wb in ((w1, w2), (w2, w1)):
        pieces += [(-1, mul(mul(brk(u1, wa), u2), wb)), (1, mul(mul(brk(u2, wa), u1), wb))]
    return algebra.combine(pieces)


def _deriv_macro(algebra: FreeAlgebra, t1, t2, t3) -> Element:
    """t2 t3 D(t1) = {t2 t3, t1} - {t2,t1} t3 - {t3,t1} t2."""
    mul, brk = algebra.mul, algebra.bracket
    return algebra.combine([(1, brk(mul(t2, t3), t1)), (-1, mul(brk(t2, t1), t3)),
                            (-1, mul(brk(t3, t1), t2))])


def _sgn(bit) -> int:
    return -1 if (bit & 1) else 1


# -- the claim axioms ----------------------------------------------------------------------

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


# -- the structural identities -------------------------------------------------------------

def supercommutativity_residual(ops, a, b):
    """a.b - (-1)^{|a||b|} b.a"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    return ops.combine([(1, ops.mul(a, b)), (-s, ops.mul(b, a))])


def associativity_residual(ops, a, b, c):
    """(a.b).c - a.(b.c)"""
    mul = ops.mul
    return ops.combine([(1, mul(mul(a, b), c)), (-1, mul(a, mul(b, c)))])


def anticommutativity_residual(ops, a, b):
    """{a,b} + (-1)^{|a||b|} {b,a}"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    return ops.combine([(1, ops.bracket(a, b)), (s, ops.bracket(b, a))])


# -- the generic Poisson residuals ---------------------------------------------------------

def jacobi_defect_residual(ops, a, b, c):
    """{{a,b},c} - (-1)^{|b||c|}{{a,c},b} - {a,{b,c}}"""
    s = _sgn(ops.parity(b) & ops.parity(c))
    brk = ops.bracket
    return ops.combine([(1, brk(brk(a, b), c)), (-s, brk(brk(a, c), b)), (-1, brk(a, brk(b, c)))])


def jordan_gp_residual(ops, a, b, c, d):
    """({{a,b},c} - (-1)^{|b||c|}{{a,c},b} - {a,{b,c}}) . d"""
    return ops.mul(jacobi_defect_residual(ops, a, b, c), d)


# -- the Kantor residuals, unfactored ------------------------------------------------------

def double_criterion_residual(ops, which, f, h, g, w):
    """The three bracket identities equivalent to the Kantor double being Jordan.

    ``which`` selects 1, 2 or 3.  With the parities (i, k, j, l) of
    (f, h, g, w) and the prefactors A = (-1)^{(i+j)l}, B = (-1)^{(k+j)i},
    C = (-1)^{(l+j)k}, exactly as quoted from the source characterization,
    the residuals are

    1. A{{f,h}g,w} + B{{h,w}g,f} + C{{w,f}g,h}
         - A{f,h}{g,w} - B{h,w}{g,f} - C{w,f}{g,h}
    2. B({hw,g}f - (hw){g,f}) - C({wf,g}h - (wf){g,h})
    3. A({(fh)g,w} - (fh){g,w}) - B({hw,g}f - {hw,gf}) - C({wf,g}h - {wf,gh})
    """
    i, k, j, l = ops.parity(f), ops.parity(h), ops.parity(g), ops.parity(w)
    A, B, C = _sgn((i + j) & l), _sgn((k + j) & i), _sgn((l + j) & k)
    mul, brk = ops.mul, ops.bracket
    if which == 1:
        terms = [
            (A, brk(mul(brk(f, h), g), w)), (B, brk(mul(brk(h, w), g), f)),
            (C, brk(mul(brk(w, f), g), h)),
            (-A, mul(brk(f, h), brk(g, w))), (-B, mul(brk(h, w), brk(g, f))),
            (-C, mul(brk(w, f), brk(g, h))),
        ]
    elif which == 2:
        terms = [
            (B, mul(brk(mul(h, w), g), f)), (-B, mul(mul(h, w), brk(g, f))),
            (-C, mul(brk(mul(w, f), g), h)), (C, mul(mul(w, f), brk(g, h))),
        ]
    elif which == 3:
        terms = [
            (A, brk(mul(mul(f, h), g), w)), (-A, mul(mul(f, h), brk(g, w))),
            (-B, mul(brk(mul(h, w), g), f)), (B, brk(mul(h, w), mul(g, f))),
            (-C, mul(brk(mul(w, f), g), h)), (C, brk(mul(w, f), mul(g, h))),
        ]
    else:
        raise ValueError(f"criterion index must be 1, 2 or 3, got {which}")
    return ops.combine(terms)


def linear_jordan_residual(ops, x, y, z, t):
    """Linearized Jordan identity, superized by the Koszul rule.

    ((xz)y)t + ((xt)y)z + ((zt)y)x - (xz)(yt) - (xt)(yz) - (zt)(yx), each
    term signed by the parity of the shuffle taking (x,y,z,t) to the term's
    letter sequence, counting odd-odd inversions.  Uses the product only.
    """
    px, py, pz, pt = ops.parity(x), ops.parity(y), ops.parity(z), ops.parity(t)
    s1 = _sgn(py & pz)
    s2 = _sgn(pt & (py + pz))
    s3 = _sgn((px & (py + pz + pt)) ^ (py & (pz + pt)))
    mul = ops.mul
    return ops.combine([
        (s1, mul(mul(mul(x, z), y), t)), (s2, mul(mul(mul(x, t), y), z)),
        (s3, mul(mul(mul(z, t), y), x)),
        (-s1, mul(mul(x, z), mul(y, t))), (-s2, mul(mul(x, t), mul(y, z))),
        (-s3, mul(mul(z, t), mul(y, x))),
    ])
