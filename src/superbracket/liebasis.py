"""Good words, their total order, and straightening in the free Lie superalgebra.

Basis words are binary bracket words over the alphabet (the unit counts as an
ordinary letter here).  A word is *good* when, recursively, it is a single
letter, or it is ``{u,v}`` with u, v good, u > v, and - when u = {u1,u2} -
u2 <= v.  The basis of the free Lie superalgebra consists of the good words
together with the squares ``{v,v}`` of odd good words.

The order is length-first, then lexicographic on the (left, right) components;
letters compare by their declared order with the unit minimal.  Odd squares
``{v,v}`` order as the pair (v, v).

The generic Poisson theory has no Jacobi relation, so its basis words are
instead the *oriented* trees: arbitrary binary bracket trees over the
non-unit letters in which every node has left > right or equal odd halves.

Raw words are nested tuples: a leaf is a generator index, a node is a pair of
words.  Interned :class:`BasisWord` objects carry the derived data.
"""

from __future__ import annotations

from .core import Alphabet, AlgebraError

_ONE = 1


def word_key(word) -> tuple:
    """Injective, order-defining key of a raw word.

    Keys compare first by word length, then recursively on components, which
    realizes the length-first lexicographic order on bracket words.
    """
    if isinstance(word, int):
        return (1, word)
    lk = word_key(word[0])
    rk = word_key(word[1])
    return (lk[0] + rk[0], lk, rk)


def word_length(word) -> int:
    if isinstance(word, int):
        return 1
    return word_length(word[0]) + word_length(word[1])


def word_parity(alphabet: Alphabet, word) -> int:
    if isinstance(word, int):
        return alphabet.parities[word]
    return (word_parity(alphabet, word[0]) + word_parity(alphabet, word[1])) & 1


def word_degrees(alphabet: Alphabet, word) -> tuple:
    deg = [0] * alphabet.size
    _count(word, deg)
    return tuple(deg)


def _count(word, deg):
    if isinstance(word, int):
        deg[word] += 1
    else:
        _count(word[0], deg)
        _count(word[1], deg)


def is_good(word) -> bool:
    """Whether a raw word is a good word."""
    if isinstance(word, int):
        return True
    u, v = word
    if not (is_good(u) and is_good(v)):
        return False
    if word_key(u) <= word_key(v):
        return False
    if not isinstance(u, int) and word_key(u[1]) > word_key(v):
        return False
    return True


def is_oriented(alphabet: Alphabet, word) -> bool:
    """Whether a raw tree is an oriented atom: each node has left > right,
    or equal odd subtrees."""
    if isinstance(word, int):
        return True
    u, v = word
    if not (is_oriented(alphabet, u) and is_oriented(alphabet, v)):
        return False
    ku, kv = word_key(u), word_key(v)
    if ku > kv:
        return True
    return ku == kv and word_parity(alphabet, u) == 1


class BasisWord:
    """Interned basis word: a good word or the square of an odd good word
    (an oriented tree in an oriented space)."""

    __slots__ = ("word", "key", "parity", "degrees", "length", "square")

    def __init__(self, word, key, parity, degrees, square):
        self.word = word
        self.key = key
        self.parity = parity
        self.degrees = degrees
        self.length = key[0]
        self.square = square

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    # identity equality: words are interned per space

    def __repr__(self):
        return f"<word {self.word}>"


class WordSpace:
    """Per-alphabet interning of basis words plus the straightening cache.

    With ``oriented`` set, the interned words are the generic Poisson atoms
    (oriented trees without the unit letter) instead of the Lie basis.
    """

    def __init__(self, alphabet: Alphabet, oriented: bool = False):
        self.alphabet = alphabet
        self.oriented = oriented
        self._words = {}
        self.by_key = {}
        self._bracket_cache = {}
        self._active = set()
        self._good_cache = {}
        self._basis_cache = {}

    def leaf(self, gen_or_name) -> BasisWord:
        if isinstance(gen_or_name, str):
            return self.get(self.alphabet.gen(gen_or_name).index)
        return self.get(gen_or_name.index)

    @property
    def unit_word(self) -> BasisWord:
        return self.get(0)

    def get(self, word) -> BasisWord:
        """Intern a raw word, checking basis membership."""
        found = self._words.get(word)
        if found is not None:
            return found
        square = False
        if isinstance(word, int):
            if not 0 <= word < self.alphabet.size:
                raise AlgebraError(f"generator index {word} out of range")
        elif self.oriented:
            if not is_oriented(self.alphabet, word) or word_degrees(self.alphabet, word)[0]:
                raise AlgebraError(f"not an oriented atom: {word}")
        elif not is_good(word):
            u, v = word
            square = (
                u == v
                and is_good(u)
                and word_parity(self.alphabet, u) == 1
            )
            if not square:
                raise AlgebraError(f"not a basis word: {word}")
        bw = BasisWord(
            word,
            word_key(word),
            word_parity(self.alphabet, word),
            word_degrees(self.alphabet, word),
            square,
        )
        self._words[word] = bw
        self.by_key[bw.key] = bw
        return bw

    def components(self, w: BasisWord):
        u, v = w.word
        return self.get(u), self.get(v)

    # -- straightening ------------------------------------------------------

    def bracket_words(self, u: BasisWord, v: BasisWord) -> dict:
        """Lie superbracket of two basis words, expanded in the basis.

        Returns a map BasisWord -> int: straightening only ever produces
        integer coefficients.  Re-orients with
        super-anticommutativity and rewrites the left-nested bad case with
        the super-Jacobi relation
        ``{{a,b},c} = {a,{b,c}} + (-1)^{|b||c|} {{a,c},b}``
        until only basis words remain; the descent of the left factor's
        degree makes the recursion finite.
        """
        pair = (u.word, v.word)
        cached = self._bracket_cache.get(pair)
        if cached is not None:
            return cached
        if pair in self._active:
            raise AlgebraError(f"straightening cycle at {pair}")
        self._active.add(pair)
        try:
            result = self._bracket_uncached(u, v)
            self._bracket_cache[pair] = result
            return result
        finally:
            self._active.discard(pair)

    def _bracket_uncached(self, u: BasisWord, v: BasisWord) -> dict:
        if u.key == v.key:
            if u.parity == 0:
                return {}
            return {self.get((u.word, v.word)): _ONE}
        if u.key < v.key:
            coeff = _ONE if (u.parity & v.parity) else -_ONE
            return _scaled(self.bracket_words(v, u), coeff)
        # u > v
        if isinstance(u.word, int):
            return {self.get((u.word, v.word)): _ONE}
        a, b = self.components(u)
        if not u.square and not v.square and b.key <= v.key:
            return {self.get((u.word, v.word)): _ONE}
        if u.square and a.key == v.key:
            # {{a,a},a} for odd a: Jacobi plus anticommutativity force
            # 3{{a,a},a} = 0, so it vanishes over the rationals.
            return {}
        out = {}
        for w, c in self.bracket_words(b, v).items():
            _accumulate(out, self.bracket_words(a, w), c)
        sgn = -_ONE if (b.parity & v.parity) else _ONE
        for w, c in self.bracket_words(a, v).items():
            _accumulate(out, self.bracket_words(w, b), sgn * c)
        return {w: c for w, c in out.items() if c}

    # -- enumeration --------------------------------------------------------

    def good_words(self, degrees: tuple) -> tuple:
        """All good words of the exact multidegree, unsorted tuple."""
        cached = self._good_cache.get(degrees)
        if cached is not None:
            return cached
        total = sum(degrees)
        if total == 0:
            result = ()
        elif total == 1:
            idx = degrees.index(1)
            result = (self.get(idx),)
        else:
            found = []
            for d1, d2 in _splits(degrees):
                for u in self.good_words(d1):
                    usecond = None if isinstance(u.word, int) else word_key(u.word[1])
                    for v in self.good_words(d2):
                        if u.key <= v.key:
                            continue
                        if usecond is not None and usecond > v.key:
                            continue
                        found.append(self.get((u.word, v.word)))
            result = tuple(found)
        self._good_cache[degrees] = result
        return result

    def basis_words(self, degrees: tuple) -> tuple:
        """All basis words of the exact multidegree, sorted ascending."""
        degrees = tuple(degrees)
        cached = self._basis_cache.get(degrees)
        if cached is not None:
            return cached
        words = list(self.good_words(degrees))
        if all(d % 2 == 0 for d in degrees) and sum(degrees) >= 2:
            half = tuple(d // 2 for d in degrees)
            for v in self.good_words(half):
                if v.parity:
                    words.append(self.get((v.word, v.word)))
        words.sort(key=lambda w: w.key)
        result = tuple(words)
        self._basis_cache[degrees] = result
        return result

    def render(self, word) -> str:
        if isinstance(word, int):
            return self.alphabet.generators[word].name
        return "{%s,%s}" % (self.render(word[0]), self.render(word[1]))


def _scaled(combo: dict, coeff: int) -> dict:
    if coeff == 1:
        return combo
    return {w: coeff * c for w, c in combo.items()}


def _accumulate(out: dict, combo: dict, coeff: int):
    for w, c in combo.items():
        val = out.get(w)
        out[w] = c * coeff if val is None else val + c * coeff


def _splits(degrees: tuple):
    """All componentwise splits d = d1 + d2 with both parts nonzero."""
    ranges = [range(d + 1) for d in degrees]
    total = sum(degrees)

    def rec(i, acc, acc_sum):
        if i == len(degrees):
            if 0 < acc_sum < total:
                d1 = tuple(acc)
                d2 = tuple(d - a for d, a in zip(degrees, acc))
                yield d1, d2
            return
        for x in ranges[i]:
            acc.append(x)
            yield from rec(i + 1, acc, acc_sum + x)
            acc.pop()

    yield from rec(0, [], 0)
