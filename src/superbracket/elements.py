"""Sparse elements: rational linear combinations of commutative monomials.

Coefficients keep the package invariant (see :mod:`superbracket.core`): an
``int``, or a ``Fraction`` whose denominator is greater than 1, and never
zero.  :func:`~superbracket.core.scalar` sets it on input; :func:`add_terms`,
the one accumulator of coefficient sums, keeps it for every sum and scaled
copy but the negated or unscaled one, which sums nothing.
``FreeAlgebra._add_products``, the product's merge loop, is its one inline
twin.

A monomial is a key-sorted tuple of factors ``(key, parity, exp)`` where the
key is the int rank of an interned basis word of the owning algebra's word
space (see :mod:`superbracket.liebasis`), so int order is word order; the
empty tuple is the unit, and :func:`word_monomial` is a basis word's
monomial.  Odd factors never carry an exponent above 1.  The same machinery
backs all three theories of the free engine (generalized Poisson, Jordan
brackets, generic Poisson); they differ only in what the owning algebra's
one word rule rewrites when it brackets two basis words.

Elements are immutable, so an element's term dict may be shared: a bracket
of two one-term elements may hold the owning algebra's cached one.
"""

from __future__ import annotations

from .core import AlgebraError, scalar

UNIT_MONOMIAL = ()


def word_monomial(word):
    """The monomial of an interned basis word: the word to the first power,
    or the unit for the bare unit letter (key 0)."""
    return ((word.key, word.parity, 1),) if word.key else UNIT_MONOMIAL


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

    The accumulator of every sparse coefficient sum, keeping the invariant:
    no zero is stored (k = 0 or c = 0 adds nothing, and a key whose sum
    reaches zero is removed), and an integral Fraction sum or product is
    stored as an ``int``.  ``k`` and the ``c`` are scalars; k = +-1 costs no
    multiplication (a Fraction product costs a gcd).
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


class Element:
    """A finite rational combination of monomials of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return combine(self.algebra, ((1, self), (1, other)))

    def __sub__(self, other):
        self._check(other)
        return combine(self.algebra, ((1, self), (-1, other)))

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coeff) -> "Element":
        k = scalar(coeff)
        # k = +-1 sums nothing, so it needs no accumulator; an integral
        # Fraction, which only an element built past the invariant can hold,
        # still comes out an int
        if k == 1:
            return Element(self.algebra, {m: c if type(c) is int else scalar(c)
                                          for m, c in self.terms.items()})
        if k == -1:
            return Element(self.algebra, {m: -c if type(c) is int else scalar(-c)
                                          for m, c in self.terms.items()})
        return Element(self.algebra, add_terms({}, self.terms.items(), k))

    def bracket(self, other) -> "Element":
        self._check(other)
        return self.algebra.bracket(self, other)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- graded data --------------------------------------------------------

    def parity(self) -> int:
        """Common parity of all monomials; raises if mixed."""
        parities = {monomial_parity(m) for m in self.terms}
        if len(parities) > 1:
            raise AlgebraError("element is not parity-homogeneous")
        return parities.pop() if parities else 0

    def monomials(self):
        """Canonically ordered (monomial, coefficient) pairs."""
        return sorted(self.terms.items(), key=lambda mc: _monomial_sort_key(mc[0]))

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements belong to different algebras/theories")

    def __repr__(self):
        return f"Element({self.algebra.theory}, {len(self.terms)} terms)"


def _monomial_sort_key(m):
    return (monomial_factor_count(m), tuple((k, e) for k, _, e in m))


def combine(algebra, pieces) -> Element:
    """Sum of (coefficient, Element) pairs."""
    out = {}
    for coeff, el in pieces:
        add_terms(out, el.terms.items(), coeff if type(coeff) is int else scalar(coeff))
    return Element(algebra, out)
