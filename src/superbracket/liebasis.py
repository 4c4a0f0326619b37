"""Good words and their total order: the word basis of the free engine.

Basis words are binary bracket words over the alphabet (the unit counts as an
ordinary letter here).  A word is *good* when, recursively, it is a single
letter, or it is ``{u,v}`` with u, v good, u > v, and - when u = {u1,u2} -
u2 <= v.  The basis of the free Lie superalgebra consists of the good words
together with the squares ``{v,v}`` of odd good words.

The order is length-first, then lexicographic on the (left, right) components;
letters compare by their declared order with the unit minimal.  Odd squares
``{v,v}`` order as the pair (v, v).

A word's ``key`` is its rank in that order among all binary bracket trees
over the ``n`` letters, an exact int, so keys compare and hash as cheaply as
ints while ordering exactly as the nested ``(length, left, right)`` tuples
would.  With ``T(l) = Catalan(l-1) n^l`` trees of length l, ``off(L) =
T(1) + ... + T(L-1)`` trees shorter than L and ``S(L, a) = sum_{l<a} T(l)
T(L-l)`` trees of length L whose left part is shorter than a, letter i has
key i and ``{u,v}`` with lengths ``a + b = L`` has key

    off(L) + S(L, a) + (u.key - off(a)) T(b) + (v.key - off(b)).

The generic Poisson theory has no Jacobi relation, so its basis words are
instead the *oriented* trees: arbitrary binary bracket trees over the
non-unit letters in which every node has left > right or equal odd halves.

Raw words are nested tuples: a leaf is a generator index, a node is a pair of
words.  Interned :class:`BasisWord` objects carry the derived data, among it
the word's one free-engine monomial, and the word space indexes them by key
alone.
:meth:`WordSpace.join` is the one basis-word test, in both kinds of space:
:meth:`WordSpace.basis_words` enumerates a multidegree by offering it every
pair of basis words over the splits of the degree.  Its one shortcut is the
Lie space's: a letter alone makes no basis word of degree above two.

A word space only interns, ranks, joins and enumerates basis words.  How two
basis words bracket is each theory's rule, and all three rules live in
:meth:`superbracket.engine.FreeAlgebra._bracket_words`.
"""

from __future__ import annotations

from itertools import product

from .core import Alphabet, AlgebraError, fold, word_parts


def _word_repr(word) -> str:
    """``repr(word)`` without the recursion that fails on deep words."""
    return fold(word, repr, lambda w, parts: "(%s, %s)" % tuple(parts), word_parts)


class BasisWord:
    """Interned basis word: a good word or the square of an odd good word
    (an oriented tree in an oriented space)."""

    __slots__ = ("word", "key", "parity", "degrees", "length", "left", "right", "square",
                 "monomial")

    def __init__(self, word, key, parity, degrees, length, left, right, square):
        self.word = word
        self.key = key
        self.parity = parity
        self.degrees = degrees
        self.length = length
        self.left = left  # the interned parts of {left,right}; None for a letter
        self.right = right
        self.square = square
        # the word to the first power as a free-engine monomial, made once so
        # that every term and cache key of the word shares it; the bare unit
        # letter (key 0) is the unit monomial
        self.monomial = ((key, parity, 1),) if key else ()

    # identity equality: words are interned per space; ``key`` orders them

    def __repr__(self):
        return f"<word {self.word}>"


class WordSpace:
    """Per-alphabet interning, ranking and enumeration of basis words.

    With ``oriented`` set, the interned words are the generic Poisson atoms
    (oriented trees without the unit letter) instead of the Lie basis.
    """

    def __init__(self, alphabet: Alphabet, oriented: bool = False):
        self.alphabet = alphabet
        self.oriented = oriented
        self.by_key = {}
        # the rank formula's tables, extended as longer words appear:
        # _trees[l] = T(l), _shorter[l] = off(l), and per length pair (a, b)
        # the constant part of the key of {u,v}
        self._trees = [0, alphabet.size]
        self._shorter = [0, 0]
        self._key_base = {}
        self._basis_cache = {}

    def leaf(self, name: str) -> BasisWord:
        return self._letter(self.alphabet.gen(name).index)

    @property
    def unit_word(self) -> BasisWord:
        return self._letter(0)

    def get(self, word) -> BasisWord:
        """Intern a raw word, checking basis membership.  The word is walked
        in full: looking up an equal deep copy would compare it recursively."""
        found = fold(word, self._letter,
                     lambda w, kids: None if None in kids else self.join(*kids), word_parts)
        if found is None:
            kind = "an oriented atom" if self.oriented else "a basis word"
            raise AlgebraError(f"not {kind}: {_word_repr(word)}")
        return found

    def _letter(self, index) -> BasisWord:
        if not 0 <= index < self.alphabet.size:
            raise AlgebraError(f"generator index {index} out of range")
        found = self.by_key.get(index)  # a letter's key is its index
        if found is not None:
            return found
        degrees = [0] * self.alphabet.size
        degrees[index] = 1
        found = self.by_key[index] = BasisWord(index, index, self.alphabet.parities[index],
                                               tuple(degrees), 1, None, None, False)
        return found

    def join(self, u: BasisWord, v: BasisWord):
        """The one basis-word test: the interned word ``{u,v}``, or None when
        it is no basis word (then neither is any word containing it).  The
        test runs before the key is computed, so a failed join costs nothing."""
        if self.oriented:
            # each node has left > right or equal odd halves; no unit letter
            square = False
            ok = not (u.degrees[0] or v.degrees[0]) and (u.key > v.key or u is v and u.parity)
        else:
            # the square of an odd good word, or good: u > v and, when
            # u = {u1,u2}, u2 <= v
            square = u is v and u.parity == 1 and not u.square
            ok = square or not (u.square or v.square) and u.key > v.key and (
                u.length == 1 or u.right.key <= v.key)
        if not ok:
            return None
        a, b = u.length, v.length
        base = self._key_base.get((a, b))
        if base is None:
            base = self._base(a, b)
        key = base + u.key * self._trees[b] + v.key
        found = self.by_key.get(key)
        if found is not None:
            return found
        degrees = tuple(x + y for x, y in zip(u.degrees, v.degrees))
        found = self.by_key[key] = BasisWord((u.word, v.word), key, (u.parity + v.parity) & 1,
                                             degrees, a + b, u, v, square)
        return found

    def _base(self, a, b) -> int:
        """The part of the key of ``{u,v}`` that depends only on the lengths:
        ``off(L) + S(L, a) - off(a) T(b) - off(b)`` for ``L = a + b``, with
        ``S(L, a)`` summed over the fewer of its two sides."""
        length = a + b
        trees, shorter = self._trees, self._shorter
        n = self.alphabet.size
        for l in range(len(trees), length + 1):
            # T(l) = T(l-1) n 2(2l-3) / l, an exact division
            trees.append(trees[l - 1] * n * 2 * (2 * l - 3) // l)
            shorter.append(shorter[l - 1] + trees[l - 1])
        if a <= b:
            split = sum(trees[l] * trees[length - l] for l in range(1, a))
        else:
            split = trees[length] - sum(trees[l] * trees[length - l] for l in range(a, length))
        base = self._key_base[(a, b)] = (
            shorter[length] + split - shorter[a] * trees[b] - shorter[b])
        return base

    # -- enumeration --------------------------------------------------------

    def basis_words(self, degrees: tuple) -> tuple:
        """All basis words of the exact multidegree, sorted ascending: the
        letter, or every pair of basis words over the splits of the degree
        that :meth:`join` accepts."""
        degrees = tuple(degrees)
        cached = self._basis_cache.get(degrees)
        if cached is not None:
            return cached
        total = sum(degrees)
        words = [self._letter(degrees.index(1))] if total == 1 else []
        # good {u,v} needs u > v, so one letter alone makes only {th,th}; in
        # an oriented space an odd letter alone makes atoms of every degree
        if total > 1 and (self.oriented or total == 2 or max(degrees) < total):
            for d1, d2 in _splits(degrees):
                for u in self.basis_words(d1):
                    for v in self.basis_words(d2):
                        w = self.join(u, v)
                        if w is not None:
                            words.append(w)
            words.sort(key=lambda w: w.key)
        result = self._basis_cache[degrees] = tuple(words)
        return result

    def render(self, word) -> str:
        gens = self.alphabet.generators
        return fold(word, lambda i: gens[i].name, lambda w, p: "{%s,%s}" % tuple(p), word_parts)


def _splits(degrees: tuple):
    """All componentwise splits d = d1 + d2 with both parts nonzero, walking
    only the letters the multidegree holds."""
    support = [i for i, d in enumerate(degrees) if d]
    total = sum(degrees)
    for part in product(*(range(degrees[i] + 1) for i in support)):
        if 0 < sum(part) < total:
            d1 = [0] * len(degrees)
            for i, x in zip(support, part):
                d1[i] = x
            yield tuple(d1), tuple(d - x for d, x in zip(degrees, d1))
