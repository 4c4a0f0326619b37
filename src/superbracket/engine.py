"""Free unital generalized Poisson, Jordan-bracket and generic Poisson superalgebras.

Elements live in a shared monomial basis: products of basis words with
exponents (odd words squarefree, no bare unit factor), plus the unit.  The
three theories share the product, the Leibniz expansion and one word rule,
:meth:`FreeAlgebra._bracket_words`; they differ only in how it rewrites what
is left once the shared start is done.  The start: an even square vanishes,
the pair is oriented by super-anticommutativity, and a pair that
:meth:`WordSpace.join` accepts is one basis word.  Then:

* generalized Poisson: plain super-Jacobi rewriting (stays in the Lie span);
* Jordan brackets: the same rewriting plus three derivation terms, so
  straightening produces genuine products;
* generic Poisson: no rewrite, since every oriented pair of atoms is an atom;
  only a bracket with the unit is left, and it vanishes.

The monomial-bracket cache maps a pair of monomials to a plain term dict
(only the public methods wrap results as elements, so nothing in it points
back at the algebra), and one guard there catches a straightening cycle in
either rewriting theory.  It keeps what is asked for again: every pair of
basis words and every product-on-the-left pair at once, and a Leibniz
expansion (a product on the right) from its second request on.  Few
Leibniz expansions are ever asked for twice, yet together they hold about
half the terms a full cache would, so keeping each on its first request
mostly holds memory.  Each basis word's monomial is one tuple, made when the word
is interned (``BasisWord.monomial``), shared by every term and key of it.

The distinguished derivation is ``D(a) = {a, 1}``.

In the generic Poisson theory, with no Jacobi relation available, a bracket
of two normal-form atoms cannot be rewritten, only oriented; the atoms of the
normal form are therefore arbitrary oriented binary bracket trees (even
squares vanish, odd squares are kept, possibly nested).  Brackets against
products expand by the plain Leibniz rule; brackets with the unit vanish, as
forced by Leibniz in the unital algebra.  :class:`GpAlgebra` names this
theory's algebra.
"""

from __future__ import annotations

import sys
from itertools import product

from .core import (
    GENP,
    GP,
    JB,
    AlgebraError,
    Alphabet,
    Bracket,
    DegreeGuardError,
    Gen,
    Prod,
    Sum,
    fold,
    scalar,
    scalar_str,
    word_parts,
)
from .elements import (
    Element,
    UNIT_MONOMIAL,
    add_terms,
    monomial_factor_count,
    monomial_parity,
)
from .identities import evaluate
from .liebasis import WordSpace
from .speedups import merge_factors

_ONE = 1


class FreeAlgebra:
    """The free unital algebra of one of the three bracket theories."""

    def __init__(self, alphabet: Alphabet, theory: str = GENP, max_degree=None):
        if theory not in (GENP, JB, GP):
            raise AlgebraError(f"unknown theory {theory!r}")
        self.space = WordSpace(alphabet, oriented=theory == GP)
        self.theory = theory
        self.max_degree = max_degree
        self._mono_bracket_cache = {}  # (m1, m2) -> {monomial: coefficient}
        self._leibniz_missed = set()  # Leibniz keys missed once, not yet kept
        self._active = set()  # word pairs being straightened

    @property
    def alphabet(self) -> Alphabet:
        return self.space.alphabet

    # -- constructors ---------------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {UNIT_MONOMIAL: _ONE})

    def gen(self, name: str) -> Element:
        return self.word_element(self.space.leaf(name))

    def word_element(self, w) -> Element:
        """The basis word as an element; the bare unit letter is the unit."""
        return Element(self, {w.monomial: _ONE})

    def element(self, pairs) -> Element:
        """Element from (coefficient, monomial) pairs."""
        return Element(self, add_terms({}, ((m, scalar(c)) for c, m in pairs)))

    # -- structure ---------------------------------------------------------

    def monomial_degrees(self, m) -> tuple:
        degs = [0] * self.alphabet.size
        for key, _, exp in m:
            for i, d in enumerate(self.space.by_key[key].degrees):
                degs[i] += exp * d
        return tuple(degs)

    def mul(self, a: Element, b: Element) -> Element:
        """Supercommutative associative product, bilinear monomial merge."""
        self._claim(a, b)
        out = {}
        self._add_products(out, a.terms, b.terms.items())
        return Element(self, out)

    def bracket(self, a: Element, b: Element) -> Element:
        """The superbracket, bilinear over monomials.  Straightening recurses
        per Jacobi step, so a word nested past the recursion limit is an
        :class:`AlgebraError`; the cache keeps only finished pairs."""
        self._claim(a, b)
        try:
            if len(a.terms) == 1 and len(b.terms) == 1:
                # one monomial pair: an element over _bracket_mono's term dict
                # (the cache's own or a fresh one; elements are immutable, so
                # sharing is safe) or its multiple
                (m1, c1), = a.terms.items()
                (m2, c2), = b.terms.items()
                k = c1 * c2
                cached = self._bracket_mono(m1, m2)
                return Element(self, cached if k == 1 else add_terms({}, cached.items(), scalar(k)))
            out = {}
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    k = c1 * c2
                    add_terms(out, self._bracket_mono(m1, m2).items(), k if type(k) is int else scalar(k))
            return Element(self, out)
        except RecursionError:
            raise AlgebraError(f"bracket nests too deep for the recursion limit "
                               f"({sys.getrecursionlimit()})") from None

    def _add_products(self, out: dict, left: dict, right):
        """Add every product of a ``left`` term and a ``right`` pair into
        ``out``: the product's one merge loop, with the degree guard.

        ``right`` is a sequence of (monomial, coefficient) pairs, so a caller
        scaling a single monomial passes the scale as its coefficient.  This
        is the one inline twin of :func:`~superbracket.elements.add_terms`,
        kept inline because a call per merged term would cost: it keeps the
        same invariant (no zero stored, an integral Fraction stored as an
        ``int``), and a coefficient of +-1 costs no multiplication.
        """
        guard = self.max_degree
        by_key = self.space.by_key
        for m1, c1 in left.items():
            for m2, c2 in right:
                sign, merged = merge_factors(m1, m2)
                if sign == 0:
                    continue
                if guard is not None and _word_degree(by_key, merged) > guard:
                    raise DegreeGuardError(
                        f"monomial degree exceeds guard ({guard}); "
                        "raise JB_MAX_DEGREE if intended"
                    )
                if c2 == 1 or c2 == -1:  # an int: the invariant has no Fraction +-1
                    c = c1 if c2 == sign else -c1
                else:
                    c = c1 * c2 if sign == 1 else -c1 * c2
                val = out.get(merged)
                if val is not None:
                    c += val
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if c:
                    out[merged] = c
                elif val is not None:
                    del out[merged]

    def _claim(self, a: Element, b: Element):
        if a.algebra is not self or b.algebra is not self:
            raise AlgebraError("elements belong to a different algebra/theory")

    def deriv(self, a: Element) -> Element:
        """The distinguished even derivation: bracketing with the unit."""
        return self.bracket(a, self.one())

    def parity(self, a: Element) -> int:
        return a.parity()

    def combine(self, pairs) -> Element:
        """The sum of the (coefficient, element) pairs."""
        out = {}
        for coeff, el in pairs:
            add_terms(out, el.terms.items(), coeff if type(coeff) is int else scalar(coeff))
        return Element(self, out)

    # -- monomial-level bracket ---------------------------------------------

    def _bracket_mono(self, m1, m2) -> dict:
        cached = self._mono_bracket_cache.get((m1, m2))
        if cached is None:
            cached = self._bracket_mono_uncached(m1, m2)
        return cached

    def _bracket_mono_uncached(self, m1, m2) -> dict:
        """A miss of the monomial-bracket cache.

        A pair of words is stored at once, by :meth:`_word_bracket`, since
        the word rule meets its pairs again and again; so is a product on the
        left, the sign-flipped twin of the swapped pair, which every
        ``deriv`` of a product asks for.  A product on the right, a Leibniz
        expansion, is stored only on its second miss: most of them are asked
        for once, and keeping them all would hold about half the cache's
        terms for a few percent of its hits.  The first miss only notes the
        key, and its fresh dict goes to the caller's element alone."""
        n2 = monomial_factor_count(m2)
        if n2 >= 2:
            out = self._leibniz_expand(m1, m2)
            key = (m1, m2)
            missed = self._leibniz_missed
            if key in missed:
                missed.discard(key)
                self._mono_bracket_cache[key] = out
            else:
                missed.add(key)
            return out
        n1 = monomial_factor_count(m1)
        if n1 >= 2:
            out = self._bracket_mono(m2, m1)
            if not monomial_parity(m1) & monomial_parity(m2):
                out = {m: -c for m, c in out.items()}
            self._mono_bracket_cache[(m1, m2)] = out
            return out
        space = self.space
        return self._word_bracket(space.by_key[m1[0][0]] if n1 else space.unit_word,
                                  space.by_key[m2[0][0]] if n2 else space.unit_word)

    def _word_bracket(self, u, v) -> dict:
        """``{u,v}`` of two basis words: the pair's entry of the
        monomial-bracket cache, filled by :meth:`_bracket_words` itself, so
        that a Jacobi step of the word rule costs two frames.  A pair met
        again while it is being computed is a straightening cycle."""
        key = (u.monomial, v.monomial)
        cached = self._mono_bracket_cache.get(key)
        if cached is not None:
            return cached
        active = self._active
        if key in active:
            raise AlgebraError(f"straightening cycle at {(u.key, v.key)}")
        active.add(key)
        try:
            out = self._mono_bracket_cache[key] = self._bracket_words(u, v)
            return out
        finally:
            active.discard(key)

    def _leibniz_expand(self, m1, m2) -> dict:
        """Bracket against a product monomial via the deformed Leibniz rule.

        Closed form of iterating ``{a,bc} = {a,b}c + (-1)^{|a||b|} b{a,c}
        - D(a)bc`` over the factors of m2: each factor block is pulled to the
        front with its Koszul sign, and a single derivation term with
        multiplicity (number of factors - 1) remains.  In gp, D vanishes, so
        the rule is the plain Leibniz rule.  The expansion is summed in one
        pass: each cached bracket with a factor (and D(a)) is merged with the
        rest of m2 term by term into one dictionary.
        """
        total = monomial_factor_count(m2)
        out = {}
        prefix = 0
        for idx, (key, par, exp) in enumerate(m2):
            q = par & exp & 1
            sign = -_ONE if (prefix & q) else _ONE
            br = self._bracket_mono(m1, ((key, par, 1),))
            self._add_products(out, br, ((_decrement(m2, idx), sign * exp),))
            prefix ^= q
        self._add_products(out, self._bracket_mono(m1, UNIT_MONOMIAL), ((m2, 1 - total),))
        return out

    def _bracket_words(self, u, v) -> dict:
        """The word rule of all three theories: ``{u,v}`` of two basis words.

        An even square vanishes, the pair is oriented by
        super-anticommutativity, and a pair that :meth:`WordSpace.join`
        accepts is one basis word.  In gp, only a bracket with the unit is
        left, which plain Leibniz with the unit law forces to vanish.  genp
        and jb rewrite a left-nested ``u = {a,b}`` by the Jacobi identity
        ``{{a,b},v} = {a,{b,v}} + (-1)^{|b||v|} {{a,v},b}``, which in jb
        acquires three derivation terms, so jb straightening produces
        products; the descent of the left factor's degree makes the
        recursion finite.
        """
        if u is v and u.parity == 0:
            return {}
        if u.key < v.key:
            # an odd pair shares its swapped pair's dict
            out = self._word_bracket(v, u)
            return out if u.parity & v.parity else {m: -c for m, c in out.items()}
        space = self.space
        w = space.join(u, v)
        if w is not None:
            return {w.monomial: _ONE}
        theory = self.theory
        if theory == GP:
            return {}
        a, b = u.left, u.right
        out = {}
        if u.square and a is v:
            # {{a,a},a} for odd a: Jacobi plus anticommutativity force
            # 3{{a,a},a} = 0 in genp, and 3{{a,a},a} = -3 D(a){a,a} in jb
            if theory == JB:
                self._add_products(out, self._word_bracket(a, space.unit_word),
                                   ((u.monomial, -_ONE),))
            return out
        # {a,{b,v}} + (-1)^{|b||v|} {{a,v},b}.  A bracket with a word goes
        # straight to _word_bracket, so a Jacobi step costs two frames; one
        # with a product (only jb straightening makes them) goes by Leibniz.
        by_key = space.by_key
        bv = self._word_bracket(b, v)
        for m, c in bv.items():
            if len(m) == 1 == m[0][2]:
                br = self._word_bracket(a, by_key[m[0][0]])
            else:
                br = self._bracket_mono(a.monomial, m)
            add_terms(out, br.items(), c)
        s2 = -_ONE if (b.parity & v.parity) else _ONE
        for m, c in self._word_bracket(a, v).items():
            if len(m) == 1 == m[0][2]:
                br = self._word_bracket(by_key[m[0][0]], b)
            else:
                br = self._bracket_mono(m, b.monomial)
            add_terms(out, br.items(), s2 * c)
        if theory == JB:
            # - D(a){b,v} - (-1)^{|a|(|b|+|v|)} D(b){v,a}
            # - (-1)^{|v|(|a|+|b|)} D(v){a,b}
            s4 = -_ONE if (a.parity & ((b.parity + v.parity) & 1)) else _ONE
            s5 = -_ONE if (v.parity & ((a.parity + b.parity) & 1)) else _ONE
            unit = space.unit_word
            for d, k, terms in ((a, -_ONE, bv), (b, -s4, self._word_bracket(v, a)),
                                (v, -s5, {u.monomial: _ONE})):
                self._add_products(out, self._word_bracket(d, unit),
                                   [(m, k * c) for m, c in terms.items()])
        return out

    # -- evaluation of term trees -------------------------------------------

    def normal_form(self, term) -> Element:
        """Evaluate a raw term tree into the monomial basis."""
        return self._eval(term, None)

    def substitute(self, term, bindings: dict) -> Element:
        """Evaluate a term tree whose Var leaves are bound to elements.

        Bound elements must belong to this algebra and be parity-homogeneous
        (identity templates carry parity-dependent signs fixed in advance).
        """
        checked = {}
        for name, el in bindings.items():
            if not isinstance(el, Element) or el.algebra is not self:
                raise AlgebraError(f"binding for ?{name} is not an element here")
            el.parity()  # raises when not homogeneous
            checked[str(name)] = el
        return self._eval(term, checked)

    def _eval(self, t, bindings) -> Element:
        def leaf(g):
            if isinstance(g, Gen):
                return self.gen(g.name)
            if bindings is None or g.name not in bindings:
                raise AlgebraError(f"unbound variable ?{g.name}")
            return bindings[g.name]

        return evaluate(self, t, leaf)

    def element_to_term(self, e: Element):
        """Rebuild a raw term tree that normalizes back to the element."""
        parts = []
        for m, c in e.monomials():
            factors = []
            for key, _, exp in m:
                wt = _word_term(self.alphabet, self.space.by_key[key].word)
                factors.extend([wt] * exp)
            if not factors:
                t = Gen(self.alphabet.unit.name)
            else:
                t = factors[0]
                for f in factors[1:]:
                    t = Prod(t, f)
            parts.append((c, t))
        return Sum(tuple(parts))

    # -- enumeration ----------------------------------------------------------

    def basis(self, degrees) -> tuple:
        """All basis monomials of the exact multidegree (unit occurrences count)."""
        if self.theory == GP:
            raise AlgebraError("basis enumeration applies to the genp/jb theories")
        degrees = tuple(degrees)
        if len(degrees) != self.alphabet.size:
            raise AlgebraError("multidegree length does not match the alphabet")
        out = []
        self._fill(degrees, None, [], out, {})
        # the total degree is fixed by the multidegree, so factor order decides
        out.sort()
        return tuple(out)

    def _fill(self, remaining, below, acc, out, memo):
        """Every multiset of basis words that covers ``remaining`` exactly.

        Each pick fits and covers the lowest letter left.  Picks covering one
        letter come in decreasing key order, below the word ``below``, each
        distinct word once with its exponent (odd words once), so every
        multiset comes out once, with one level of recursion per distinct
        factor.  Keys order by length first, so ``below`` caps the
        sub-degrees too.
        """
        low = next((i for i, r in enumerate(remaining) if r), None)
        if low is None:
            out.append(tuple(sorted(acc)))
            return
        cap = sum(remaining) if below is None else min(sum(remaining), below.length)
        picks = memo.get((remaining, cap))
        if picks is None:
            ranges = [range(min(r, cap) + 1) for r in remaining[low:]]
            ranges[0] = range(1, min(remaining[low], cap) + 1)
            unit = self.space.unit_word  # the bare unit is never a factor
            picks = memo[(remaining, cap)] = sorted(
                (w for sub in product(*ranges) if sum(sub) <= cap
                 for w in self.space.basis_words((0,) * low + sub) if w is not unit),
                key=lambda w: w.key, reverse=True)
        for w in picks:
            if below is not None and w.key >= below.key:
                continue
            room = min(r // d for r, d in zip(remaining, w.degrees) if d)
            rem = remaining
            for exp in range(1, 2 if w.parity else room + 1):
                rem = tuple(r - d for r, d in zip(rem, w.degrees))
                acc.append((w.key, w.parity, exp))
                self._fill(rem, w if rem[low] else None, acc, out, memo)
                acc.pop()

    # -- serialization ----------------------------------------------------------

    def element_to_json(self, e: Element):
        """A list of terms; gp wraps it as ``{"gp": true, "terms": [...]}``."""
        out = []
        for m, c in e.monomials():
            mono = [
                {"word": self.space.render(self.space.by_key[key].word), "exp": exp}
                for key, _, exp in m
            ]
            out.append({"coeff": scalar_str(c), "monomial": mono})
        return {"gp": True, "terms": out} if self.theory == GP else out

    def element_from_json(self, data) -> Element:
        """The element of a list of terms as :meth:`element_to_json` writes
        them (a gp algebra also reads its ``{"gp": true, "terms": [...]}``
        wrapper); data of any other shape is an :class:`AlgebraError`."""
        from .cli import parse_word  # deferred: the word grammar lives with the parser

        if (self.theory == GP and isinstance(data, dict) and data.keys() == {"gp", "terms"}
                and data["gp"] is True):
            data = data["terms"]
        if not isinstance(data, list):
            raise AlgebraError(f"element JSON must be a list of terms, not {type(data).__name__}")
        pairs = []
        for item in data:
            if not (isinstance(item, dict) and "coeff" in item
                    and isinstance(item.get("monomial"), list)):
                raise AlgebraError(f"element JSON term {item!r} needs 'coeff' and a 'monomial' list")
            m = UNIT_MONOMIAL
            for f in item["monomial"]:
                if not (isinstance(f, dict) and isinstance(f.get("word"), str)):
                    raise AlgebraError(f"monomial factor {f!r} needs a 'word' string")
                w = self.space.get(parse_word(self.alphabet, f["word"]))
                exp = f.get("exp", 1)
                if type(exp) is not int or exp < 1 or (w.parity and exp > 1):
                    raise AlgebraError(f"bad exponent {exp!r} for {f['word']!r}")
                if w is self.space.unit_word:
                    continue  # the bare unit letter is the unit, as in word_element
                if m and w.key <= m[-1][0]:
                    how = "repeats" if w.key == m[-1][0] else "is out of canonical order"
                    raise AlgebraError(f"monomial factor {f['word']!r} {how}")
                m += ((w.key, w.parity, exp),)
            pairs.append((scalar(item["coeff"]), m))
        return self.element(pairs)


class GpAlgebra(FreeAlgebra):
    """The free unital generic Poisson superalgebra over an alphabet."""

    def __init__(self, alphabet: Alphabet, max_degree=None):
        super().__init__(alphabet, GP, max_degree)


def dim_multilinear(n: int, theory: str = GENP) -> int:
    """Dimension of the component multilinear in the unit and n even letters."""
    if n < 1:
        raise AlgebraError("n must be at least 1")
    alg = FreeAlgebra(Alphabet([(f"x{i}", 0) for i in range(1, n + 1)]), theory)
    return len(alg.basis((1,) * (n + 1)))


def _decrement(m, idx):
    key, par, exp = m[idx]
    if exp == 1:
        return m[:idx] + m[idx + 1:]
    return m[:idx] + ((key, par, exp - 1),) + m[idx + 1:]


def _word_degree(by_key, m) -> int:
    return sum(by_key[key].length * exp for key, _, exp in m)


def _word_term(alphabet, word):
    gens = alphabet.generators
    return fold(word, lambda i: Gen(gens[i].name), lambda w, kids: Bracket(*kids), word_parts)
