"""Graded alphabet, exact scalars, and raw term trees with their fold.

The base field is fixed to the rationals, and every coefficient in the package
keeps one invariant: it is a plain ``int``, or a :class:`fractions.Fraction`
whose denominator is greater than 1.  :func:`scalar` sets it on input; the
one accumulator of coefficient sums, :func:`superbracket.elements.add_terms`,
keeps it (and stores no zero), and ``FreeAlgebra._add_products`` is that
accumulator's one inline twin.  Python's ints and Fractions mix exactly,
compare equal and hash equal (``Fraction(2, 1) == 2``), so the same code
serves both, the integer path skips the cost of building Fractions, and every
identity check stays an exact zero test.  All values here are immutable and
every function is pure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, attrgetter, xor

EVEN = 0
ODD = 1

UNIT_NAME = "1"


class AlgebraError(Exception):
    """Base class for user-facing errors raised by this package."""


class UndefinedParityError(AlgebraError):
    """A parity or multidegree was requested where it is not defined."""


Scalar = int | Fraction


def scalar(value) -> Scalar:
    """Coerce ints, strings like ``"3/2"``, and Fractions to an exact scalar.

    The result is an ``int`` when the value is integral and a ``Fraction``
    with denominator greater than 1 otherwise; ints come back unchanged.
    Booleans are refused rather than read as 0 or 1.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise AlgebraError(f"not an exact scalar: {value!r}") from None
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise AlgebraError(f"not an exact scalar: {value!r}")


def scalar_str(value: Scalar) -> str:
    """Render a scalar as ``p/q`` with the denominator always present."""
    return f"{value.numerator}/{value.denominator}"


class _Value:
    """An immutable value whose fields are its ``__slots__``, set by position;
    equality, hash, repr and copies go field by field, as for a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def __init_subclass__(cls):
        # what equality and hash compare: the tuple of the fields, or a lone field itself
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def _values(self):
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class Generator(_Value):
    """One symbol of the graded alphabet; index 0 is always the unit."""

    __slots__ = ("index", "name", "parity")

    @property
    def is_unit(self) -> bool:
        return self.index == 0


class Alphabet:
    """An ordered, finite, Z2-graded alphabet with a minimal even unit.

    Construct from ``[(name, parity), ...]`` for the non-unit generators in
    declaration order; the unit is inserted automatically below them.
    Parities may be given as 0/1 or the strings ``"even"``/``"odd"``.
    """

    def __init__(self, names_parities):
        gens = [Generator(0, UNIT_NAME, EVEN)]
        for name, parity in names_parities:
            gens.append(Generator(len(gens), str(name), _coerce_parity(parity)))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate generator names in {names}")
        self.generators = tuple(gens)
        self.by_name = {g.name: g for g in gens}
        self.parities = tuple(g.parity for g in gens)
        self.size = len(gens)

    @property
    def unit(self) -> Generator:
        return self.generators[0]

    def gen(self, name: str) -> Generator:
        try:
            return self.by_name[name]
        except KeyError:
            raise AlgebraError(f"undeclared generator {name!r}") from None

    def names(self):
        """Non-unit generator names, in order."""
        return tuple(g.name for g in self.generators[1:])

    def zero_degrees(self):
        return (0,) * self.size

    def degrees_of(self, counts: dict) -> tuple:
        """Multidegree tuple from a ``{name: count}`` mapping."""
        deg = [0] * self.size
        for name, c in counts.items():
            g = self.gen(str(name))
            if c < 0:
                raise AlgebraError("negative multidegree component")
            deg[g.index] = int(c)
        return tuple(deg)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": g.name, "parity": "odd" if g.parity else "even"}
                for g in self.generators[1:]
            ]
        }

    @classmethod
    def from_json(cls, data) -> "Alphabet":
        """The alphabet :meth:`to_json` writes; data of any other shape is an
        :class:`AlgebraError`."""
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except ValueError as exc:
                raise AlgebraError(f"alphabet is not valid JSON: {exc}") from None
        gens = data.get("generators") if isinstance(data, dict) else None
        if not (isinstance(gens, list) and all(
                isinstance(g, dict) and isinstance(g.get("name"), str) and "parity" in g
                for g in gens)):
            raise AlgebraError("alphabet JSON must be an object with a 'generators' list "
                               "of {'name': str, 'parity': ...} objects")
        return cls([(g["name"], g["parity"]) for g in gens])

    def __repr__(self):
        inner = ",".join(f"{g.name}:{g.parity}" for g in self.generators)
        return f"Alphabet({inner})"


def _coerce_parity(parity) -> int:
    if parity in (EVEN, ODD):
        return int(parity)
    if parity == "even":
        return EVEN
    if parity == "odd":
        return ODD
    raise AlgebraError(f"bad parity {parity!r}")


# ---------------------------------------------------------------------------
# Term trees: raw expressions over the two multiplications, before reduction.
# ---------------------------------------------------------------------------

class Gen(_Value):
    __slots__ = ("name",)


class Var(_Value):
    """Placeholder leaf for identity-checking contexts."""

    __slots__ = ("name",)


class Prod(_Value):
    __slots__ = ("left", "right")


class Bracket(_Value):
    __slots__ = ("left", "right")


class Sum(_Value):
    __slots__ = ("terms",)  # a tuple of (scalar, term)


def term_parts(t):
    """Children of a term-tree node in order, or None for a Gen or Var leaf."""
    if isinstance(t, (Prod, Bracket)):
        return (t.left, t.right)
    if isinstance(t, Sum):
        return tuple(sub for _, sub in t.terms)
    if isinstance(t, (Gen, Var)):
        return None
    raise AlgebraError(f"not a term: {t!r}")


def word_parts(word):
    """Children of a raw bracket word: None for a letter index, else the pair."""
    if isinstance(word, int):
        return None
    if isinstance(word, tuple) and len(word) == 2:
        return word
    raise AlgebraError(f"not a raw word: {word!r}")


def fold(tree, leaf, node, parts=term_parts):
    """Post-order fold of a term tree, or with ``parts=word_parts`` of a raw
    word, on an explicit stack: nesting depth costs no Python frames.

    ``parts(t)`` gives the children of ``t``, or None when ``t`` is a leaf.
    A leaf folds to ``leaf(t)`` and an inner node to ``node(t, values)``, its
    children's values in order.  Each subtree is finished before the next
    one starts, left to right, so leaves are met in reading order, as a
    recursive walk meets them.
    """
    values = []
    stack = [(tree, None)]
    while stack:
        t, kids = stack.pop()
        if kids is None:
            kids = parts(t)
            if kids is None:
                values.append(leaf(t))
                continue
            stack.append((t, kids))
            stack.extend((k, None) for k in reversed(kids))
            continue
        at = len(values) - len(kids)
        value = node(t, values[at:])
        del values[at:]
        values.append(value)
    return values[0]


def map_leaves(term, fn):
    """The term with each Gen and Var leaf replaced by ``fn(leaf)``; leaves
    are met in reading order."""

    def node(t, kids):
        if isinstance(t, Sum):
            return Sum(tuple((c, k) for (c, _), k in zip(t.terms, kids)))
        return type(t)(*kids)

    return fold(term, fn, node)


def var_names(term) -> set:
    """Names of the Var leaves of a term."""
    return fold(term, lambda t: {t.name} if isinstance(t, Var) else set(),
                lambda t, names: set().union(*names))


def _additive(alphabet: Alphabet, t, grade, plus, empty, what, plural):
    """Fold of a grading that both multiplications add: ``grade(generator)``
    at the leaves, ``plus`` at the nodes, and all branches of a Sum equal."""

    def leaf(g):
        if isinstance(g, Var):
            raise UndefinedParityError(f"{what} of variable leaf ?{g.name} is undefined")
        return grade(alphabet.gen(g.name))

    def node(s, values):
        if not isinstance(s, Sum):
            return plus(*values)
        kinds = set(values)
        if len(kinds) > 1:
            raise UndefinedParityError(f"sum of terms with different {plural}")
        return kinds.pop() if kinds else empty

    return fold(t, leaf, node)


def term_parity(alphabet: Alphabet, t) -> int:
    """Parity of a term: the mod-2 count of odd generator occurrences.

    Both multiplications are parity-additive, so the tree shape is
    irrelevant.  Sums must be parity-homogeneous.  Var leaves have no
    parity and raise.
    """
    return _additive(alphabet, t, lambda g: g.parity, xor, EVEN, "parity", "parities")


def multidegree(alphabet: Alphabet, t) -> tuple:
    """Occurrence count of every generator, the unit included."""
    zero = alphabet.zero_degrees()
    return _additive(alphabet, t, lambda g: zero[:g.index] + (1,) + zero[g.index + 1:],
                     lambda a, b: tuple(map(add, a, b)), zero, "multidegree", "multidegrees")
