"""Residual builders for every identity the package checks.

Each function evaluates left-minus-right of one defining identity over an
``ops`` adapter, so the sign conventions live in exactly one place.  The
adapter must provide::

    mul(a, b)       supercommutative associative product
    bracket(a, b)   super-anticommutative bracket (where required)
    deriv(a)        the distinguished derivation {a, 1} (where required)
    parity(a)       0 or 1 for a homogeneous element
    scale(c, a)     scalar multiple
    add(a, b), sub(a, b)

All inputs must be parity-homogeneous; residuals are exact elements of the
adapter's carrier, zero iff the identity holds on those arguments.
"""

from __future__ import annotations


def _sgn(bit) -> int:
    return -1 if (bit & 1) else 1


def supercommutativity_residual(ops, a, b):
    """a.b - (-1)^{|a||b|} b.a"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    return ops.sub(ops.mul(a, b), ops.scale(s, ops.mul(b, a)))


def associativity_residual(ops, a, b, c):
    """(a.b).c - a.(b.c)"""
    return ops.sub(ops.mul(ops.mul(a, b), c), ops.mul(a, ops.mul(b, c)))


def unit_residual(ops, unit, a):
    """1.a - a"""
    return ops.sub(ops.mul(unit, a), a)


def anticommutativity_residual(ops, a, b):
    """{a,b} + (-1)^{|a||b|} {b,a}"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    return ops.add(ops.bracket(a, b), ops.scale(s, ops.bracket(b, a)))


def leibniz_residual(ops, a, b, c):
    """Plain Leibniz: {a,bc} - {a,b}c - (-1)^{|a||b|} b{a,c}"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    out = ops.sub(ops.bracket(a, ops.mul(b, c)), ops.mul(ops.bracket(a, b), c))
    return ops.sub(out, ops.scale(s, ops.mul(b, ops.bracket(a, c))))


def deformed_leibniz_residual(ops, a, b, c):
    """{a,bc} - {a,b}c - (-1)^{|a||b|} b{a,c} + D(a)bc"""
    return ops.add(
        leibniz_residual(ops, a, b, c),
        ops.mul(ops.mul(ops.deriv(a), b), c),
    )


def jacobi_residual(ops, a, b, c):
    """{a,{b,c}} - {{a,b},c} - (-1)^{|a||b|} {b,{a,c}}"""
    s = _sgn(ops.parity(a) & ops.parity(b))
    out = ops.sub(ops.bracket(a, ops.bracket(b, c)), ops.bracket(ops.bracket(a, b), c))
    return ops.sub(out, ops.scale(s, ops.bracket(b, ops.bracket(a, c))))


def deformed_jacobi_residual(ops, a, b, c):
    """Jacobi deformed by the three derivation terms.

    {a,{b,c}} - {{a,b},c} - (-1)^{|a||b|}{b,{a,c}}
      - D(a){b,c} - (-1)^{|a|(|b|+|c|)} D(b){c,a} - (-1)^{|c|(|a|+|b|)} D(c){a,b}
    """
    pa, pb, pc = ops.parity(a), ops.parity(b), ops.parity(c)
    out = jacobi_residual(ops, a, b, c)
    out = ops.sub(out, ops.mul(ops.deriv(a), ops.bracket(b, c)))
    out = ops.sub(out, ops.scale(_sgn(pa & (pb + pc)), ops.mul(ops.deriv(b), ops.bracket(c, a))))
    out = ops.sub(out, ops.scale(_sgn(pc & (pa + pb)), ops.mul(ops.deriv(c), ops.bracket(a, b))))
    return out


def jacobi_defect_residual(ops, a, b, c):
    """{{a,b},c} - (-1)^{|b||c|}{{a,c},b} - {a,{b,c}}"""
    s = _sgn(ops.parity(b) & ops.parity(c))
    out = ops.sub(ops.bracket(ops.bracket(a, b), c), ops.scale(s, ops.bracket(ops.bracket(a, c), b)))
    return ops.sub(out, ops.bracket(a, ops.bracket(b, c)))


def jordan_gp_residual(ops, a, b, c, d):
    """({{a,b},c} - (-1)^{|b||c|}{{a,c},b} - {a,{b,c}}) . d"""
    return ops.mul(jacobi_defect_residual(ops, a, b, c), d)


def double_criterion_residual(ops, which, f, h, g, w):
    """The three bracket identities equivalent to the Kantor double being Jordan.

    ``which`` selects 1, 2 or 3.  Argument parities (i, k, j, l) enter the
    prefactor signs exactly as quoted from the source characterization.
    """
    i, k, j, l = ops.parity(f), ops.parity(h), ops.parity(g), ops.parity(w)
    s_ij_l = _sgn((i + j) & l)
    s_kj_i = _sgn((k + j) & i)
    s_lj_k = _sgn((l + j) & k)
    mul, brk = ops.mul, ops.bracket
    if which == 2:
        lhs = ops.scale(s_kj_i, ops.sub(mul(brk(mul(h, w), g), f), mul(mul(h, w), brk(g, f))))
        rhs = ops.scale(s_lj_k, ops.sub(mul(brk(mul(w, f), g), h), mul(mul(w, f), brk(g, h))))
        return ops.sub(lhs, rhs)
    if which == 3:
        lhs = ops.scale(s_ij_l, ops.sub(brk(mul(mul(f, h), g), w), mul(mul(f, h), brk(g, w))))
        rhs = ops.add(
            ops.scale(s_kj_i, ops.sub(mul(brk(mul(h, w), g), f), brk(mul(h, w), mul(g, f)))),
            ops.scale(s_lj_k, ops.sub(mul(brk(mul(w, f), g), h), brk(mul(w, f), mul(g, h)))),
        )
        return ops.sub(lhs, rhs)
    if which == 1:
        lhs = ops.add(
            ops.add(
                ops.scale(s_ij_l, brk(mul(brk(f, h), g), w)),
                ops.scale(s_kj_i, brk(mul(brk(h, w), g), f)),
            ),
            ops.scale(s_lj_k, brk(mul(brk(w, f), g), h)),
        )
        rhs = ops.add(
            ops.add(
                ops.scale(s_ij_l, mul(brk(f, h), brk(g, w))),
                ops.scale(s_kj_i, mul(brk(h, w), brk(g, f))),
            ),
            ops.scale(s_lj_k, mul(brk(w, f), brk(g, h))),
        )
        return ops.sub(lhs, rhs)
    raise ValueError(f"criterion index must be 1, 2 or 3, got {which}")


def linear_jordan_residual(ops, x, y, z, t):
    """Linearized Jordan identity, superized by the Koszul rule.

    ((xz)y)t + ((xt)y)z + ((zt)y)x = (xz)(yt) + (xt)(yz) + (zt)(yx), each
    term signed by the parity of the shuffle taking (x,y,z,t) to the term's
    letter sequence, counting odd-odd inversions.  Uses the product only.
    """
    px, py, pz, pt = ops.parity(x), ops.parity(y), ops.parity(z), ops.parity(t)
    s1 = _sgn(py & pz)
    s2 = _sgn(pt & (py + pz))
    s3 = _sgn((px & (py + pz + pt)) ^ (py & (pz + pt)))
    mul = ops.mul
    lhs = ops.add(
        ops.add(
            ops.scale(s1, mul(mul(mul(x, z), y), t)),
            ops.scale(s2, mul(mul(mul(x, t), y), z)),
        ),
        ops.scale(s3, mul(mul(mul(z, t), y), x)),
    )
    rhs = ops.add(
        ops.add(
            ops.scale(s1, mul(mul(x, z), mul(y, t))),
            ops.scale(s2, mul(mul(x, t), mul(y, z))),
        ),
        ops.scale(s3, mul(mul(z, t), mul(y, x))),
    )
    return ops.sub(lhs, rhs)


class ElementOps:
    """Adapter over any algebra whose elements support +, -, and scaling."""

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

    def scale(self, c, a):
        return a.scale(c)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b
