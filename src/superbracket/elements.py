"""Sparse elements: rational linear combinations of commutative monomials.

An element is stored as int numerators over one denominator: a dict ``num``
from monomial to a nonzero ``int`` and a positive ``int`` ``den``, in
canonical form, gcd(den, *num) = 1, and den = 1 for zero.  So the free
engine's product, bracket and sums work on ints alone, each operation
multiplying or taking the lcm of the denominators once, and exact ``==`` and
``hash`` compare ``(num, den)``.  :meth:`Element.terms` is the rational
view, each coefficient in the package invariant (see
:mod:`superbracket.core`), and :meth:`FreeAlgebra.element
<superbracket.engine.FreeAlgebra.element>` is the one constructor from
rational coefficients.  :func:`add_terms`, the one accumulator of
coefficient sums, stores no zero; ``FreeAlgebra._add_products``, the
product's merge loop, is its one inline twin.

A monomial is a key-sorted tuple of factors ``(key, parity, exp)`` where the
key is the int rank of an interned basis word of the owning algebra's word
space (see :mod:`superbracket.liebasis`), so int order is word order; the
empty tuple is the unit.  Odd factors never carry an exponent above 1.  A
basis word's own monomial, the word to the first power (the unit for the
bare unit letter), is made once when the word is interned and kept as
``BasisWord.monomial``, so every element and cache key of the word shares
that one tuple.  The same machinery backs all three theories of the free
engine (generalized Poisson, Jordan brackets, generic Poisson); they differ
only in what the owning algebra's one word rule rewrites when it brackets
two basis words.

Elements are immutable, so an element's numerator dict may be shared: a
bracket of two one-term elements may hold the owning algebra's cached one,
or a fresh one that the cache does not keep.
"""

from __future__ import annotations

from .core import AlgebraError, ratio, scalar

UNIT_MONOMIAL = ()


def monomial_parity(m) -> int:
    p = 0
    for _, par, exp in m:
        p ^= par & exp & 1
    return p


def monomial_factor_count(m) -> int:
    """Total exponent sum (the number of basis-word factors with multiplicity)."""
    return sum(exp for _, _, exp in m)


def add_terms(out: dict, pairs, k=1) -> dict:
    """Add ``k * c`` at ``key`` into ``out`` for each ``(key, c)`` of
    ``pairs``, and return ``out``.

    The accumulator of every sparse coefficient sum.  No zero is stored (k =
    0 or c = 0 adds nothing, and a key whose sum reaches zero is removed).
    The free engine sums int numerators over one denominator here, so it
    sees only ints; the structure tables and the customary polynomials sum
    scalars, and an integral Fraction sum or product is stored as an
    ``int``.  k = +-1 costs no multiplication.
    """
    if not k:
        return out
    neg = k == -1
    unit = neg or k == 1
    for key, c in pairs:
        if not unit:
            c = k * c
        elif neg:
            c = -c
        val = out.get(key)
        if val is not None:
            c += val
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if c:
            out[key] = c
        elif val is not None:
            del out[key]
    return out


def over(algebra, num: dict, den: int) -> "Element":
    """The element ``num / den`` in canonical form, for int numerators with
    no zero and a positive ``den``; ``num`` itself is left unchanged, so it
    may be shared.  A denominator of 1 costs one test."""
    if den != 1:
        # a denominator above 1 comes only from a Fraction, so fractions has
        # loaded math by now; a command with int coefficients never loads it
        from math import gcd

        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return Element(algebra, num, den)


class Element:
    """A finite rational combination of monomials of one algebra, as int
    numerators ``num`` over one denominator ``den`` in canonical form."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra, num: dict, den: int):
        self.algebra = algebra
        self.num = num
        self.den = den

    @property
    def terms(self) -> dict:
        """The rational view ``{monomial: coefficient}``, each coefficient in
        the package invariant; with den = 1 it is ``num`` itself."""
        den = self.den
        if den == 1:
            return self.num
        return {m: ratio(c, den) for m, c in self.num.items()}

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        algebra = self.algebra
        algebra._claim(self, other)
        return algebra.combine(((1, self), (1, other)))

    def __sub__(self, other):
        algebra = self.algebra
        algebra._claim(self, other)
        return algebra.combine(((1, self), (-1, other)))

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coeff) -> "Element":
        k = scalar(coeff)
        if k == 1:
            return self
        if k == -1:
            return -self
        if not k:
            return Element(self.algebra, {}, 1)
        p = k.numerator
        return over(self.algebra, {m: p * c for m, c in self.num.items()}, k.denominator * self.den)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- graded data --------------------------------------------------------

    def parity(self) -> int:
        """Common parity of all monomials; raises if mixed."""
        parities = {monomial_parity(m) for m in self.num}
        if len(parities) > 1:
            raise AlgebraError("element is not parity-homogeneous")
        return parities.pop() if parities else 0

    def monomials(self):
        """Canonically ordered (monomial, coefficient) pairs."""
        return sorted(self.terms.items(), key=lambda mc: _monomial_sort_key(mc[0]))

    def __repr__(self):
        return f"Element({self.algebra.theory}, {len(self.num)} terms)"


def _monomial_sort_key(m):
    return (monomial_factor_count(m), tuple((k, e) for k, _, e in m))
