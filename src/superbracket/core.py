"""Graded alphabet, exact scalars, and raw term trees with their fold and
their one evaluator.

The base field is fixed to the rationals, and every coefficient in the package
keeps one invariant: it is a plain ``int``, or a :class:`fractions.Fraction`
whose denominator is greater than 1.  :func:`scalar` sets it on input, and
the one accumulator of coefficient sums,
:func:`superbracket.elements.add_terms`, keeps it (and stores no zero).  A
free-engine element goes one step further: it stores int numerators over one
denominator (see :mod:`superbracket.elements`), so its product, bracket and
sums, with ``FreeAlgebra._add_products``, the accumulator's one inline twin,
see only ints, and its coefficients become invariant scalars only in its
rational view.  Python's ints and Fractions mix exactly, compare equal and
hash equal (``Fraction(2, 1) == 2``), so the same code serves both, the
integer path skips the cost of building Fractions, and every identity check
stays an exact zero test.  All values here are immutable and every function
is pure.

The package makes a Fraction in one place, :func:`ratio`, for a quotient p/q
that is not an integer, whether read from input or written in the code;
every other Fraction comes of arithmetic on one, or from the caller.  So
:mod:`fractions` is imported there, on the first such quotient, and a command
whose numbers are all integers never loads it (nor :mod:`decimal`, which it
imports).  :func:`scalar` tells a Fraction without the module, since none
can exist before it is loaded.  Likewise :mod:`json` is imported inside the
functions that read or write JSON.  Outside text is read by :func:`read_integer`
and :func:`read_json`, and a number past the interpreter's int/str digit limit
is refused there, as an input, and by :func:`scalar_str`, as a result.
"""

from __future__ import annotations

import sys
from operator import attrgetter

EVEN = 0
ODD = 1

UNIT_NAME = "1"

# the three theories of the free engine
GENP = "genp"
JB = "jb"
GP = "gp"


class AlgebraError(Exception):
    """Base class for user-facing errors raised by this package."""


class GuardError(AlgebraError):
    """A computation went past a bound the package keeps, not the input's fault."""


class DegreeGuardError(GuardError):
    """An intermediate monomial exceeded the configured degree bound."""


def ratio(p: int, q: int) -> int | Fraction:
    """The exact scalar p/q of two ints: an ``int`` when q divides p, else a
    Fraction.  It is where the package makes a Fraction, and so where it
    imports :mod:`fractions`; q = 0 raises ZeroDivisionError."""
    if p % q == 0:
        return p // q
    from fractions import Fraction

    return Fraction(p, q)


def scalar(value) -> int | Fraction:
    """Coerce ints, strings like ``"3/2"``, and Fractions to an exact scalar.

    The result is an ``int`` when the value is integral and a ``Fraction``
    with denominator greater than 1 otherwise; ints come back unchanged.
    Booleans are refused rather than read as 0 or 1.  A string must be an
    integer (see :func:`read_integer`), optionally followed by ``/`` and an
    unsigned integer other than zero: ``Fraction`` alone would also read
    other scripts' digits, ``_`` digit groups, padding spaces and decimals.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        p = read_integer(num)
        q = None if den.startswith("-") else read_integer(den) if slash else 1
        if p is None or not q:
            raise AlgebraError(f"not an exact scalar: {value!r}")
        return ratio(p, q)
    fractions = sys.modules.get("fractions")  # a Fraction exists only once it is loaded
    if fractions and isinstance(value, fractions.Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise AlgebraError(f"not an exact scalar: {value!r}")


def read_integer(text: str, what: str = "") -> int | None:
    """The int of an optional ``-`` and ASCII digits, the package's one integer
    syntax (``int()`` would also read other scripts' digits, ``_`` and spaces).
    Other text gives None, or an AlgebraError when ``what`` names the number.
    More digits than the interpreter converts (4,300 by default) always raise."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        if what:
            raise AlgebraError(f"{what} must be an integer, not {text!r}")
        return None
    try:
        return int(text)
    except ValueError:  # ASCII digits fail only past the limit
        raise AlgebraError(f"{what or 'a number'} is longer than the limit of "
                           f"{sys.get_int_max_str_digits()} digits") from None


def read_json(text: str, what: str):
    """The value of JSON text; bad or too deeply nested text, or a number past
    the interpreter's int/str digit limit, is an AlgebraError."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:  # valid text whose int is past the digit limit
        raise AlgebraError(f"{what} holds a number longer than the limit of "
                           f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise AlgebraError(f"{what} JSON is nested too deeply to read") from None


def scalar_str(value: int | Fraction) -> str:
    """Render a scalar as ``p/q`` with the denominator always present; a
    number past the interpreter's digit limit is a GuardError."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise GuardError(f"a number in the result is longer than the limit of "
                         f"{sys.get_int_max_str_digits()} digits") from None


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


class Alphabet:
    """An ordered, finite, Z2-graded alphabet with a minimal even unit.

    Construct from ``[(name, parity), ...]`` for the non-unit generators in
    declaration order; the unit is inserted automatically below them.
    Parities may be given as the ints 0/1 or the strings ``"even"``/``"odd"``.
    """

    def __init__(self, names_parities):
        gens = [Generator(0, UNIT_NAME, EVEN)]
        for name, parity in names_parities:
            p = {"even": EVEN, "odd": ODD}.get(parity, parity) if type(parity) is str else parity
            if type(p) is not int or p not in (EVEN, ODD):
                raise AlgebraError(f"bad parity {parity!r}")
            gens.append(Generator(len(gens), str(name), p))
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
            data = read_json(data, "alphabet")
        gens = data.get("generators") if isinstance(data, dict) else None
        if not (isinstance(gens, list) and all(
                isinstance(g, dict) and isinstance(g.get("name"), str)
                and type(g.get("parity")) in (int, str) for g in gens)):
            raise AlgebraError("alphabet JSON must be an object with a 'generators' list "
                               "of {'name': str, 'parity': ...} objects")
        return cls([(g["name"], g["parity"]) for g in gens])

    def __repr__(self):
        inner = ",".join(f"{g.name}:{g.parity}" for g in self.generators)
        return f"Alphabet({inner})"


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


def evaluate(ops, term, leaf):
    """A term tree's value over an adapter (see :mod:`~superbracket.identities`):
    ``leaf(g)`` at each Gen and Var leaf, ``combine`` at a Sum (its
    coefficients through :func:`scalar`), ``mul`` at a Prod and ``bracket``
    at a Bracket.  It is the one fold of a term tree over an adapter: the free
    engine's normal form and substitution and a structure algebra's term
    evaluation differ only in how they read a leaf."""

    def node(t, values):
        if isinstance(t, Sum):
            return ops.combine([(scalar(c), v) for (c, _), v in zip(t.terms, values)])
        return (ops.mul if isinstance(t, Prod) else ops.bracket)(*values)

    return fold(term, leaf, node)


def var_names(term) -> set:
    """Names of the Var leaves of a term."""
    return fold(term, lambda t: {t.name} if isinstance(t, Var) else set(),
                lambda t, names: set().union(*names))
