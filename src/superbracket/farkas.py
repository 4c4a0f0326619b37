"""Reduction of polynomial identities of unital generalized Poisson algebras
to customary form.

Everything here is in the all-even setting.  A customary polynomial is a sum
of products of angle brackets <x,y> := {x,y} - (D(x)y - xD(y)) and derivation
factors D(x), the letter set partitioned by each term.  The reduction runs in
three stages: height lowering by derivation defects, repeated replacement of
non-derivation letters, and the final rewrite of brackets into angle and D
factors; stage 2 leaves no bare letter for that rewrite.  Every intermediate
polynomial is an identity of any unital generalized Poisson algebra the input
was an identity of; the test suite exercises this on concrete witnesses.
"""

from __future__ import annotations

from .core import AlgebraError, Alphabet, Gen, Var, map_leaves, scalar, scalar_str
from .elements import Element, add_terms
from .engine import GENP, FreeAlgebra
from .identities import Twisted

# stage 1 guard: the height multiset strictly decreases, so this is never
# reached by a correct reduction
MAX_DEFECT_ROUNDS = 64


class DegenerateReductionError(AlgebraError):
    """The reduction collapsed to the zero polynomial."""


class MeasureAbortError(AlgebraError):
    """The height measure failed to decrease; aborted instead of looping."""


class PoissonPolynomial:
    """A normal-form element with a designated set of identity letters
    (any iterable of generator names, kept as a tuple)."""

    def __init__(self, algebra: FreeAlgebra, element: Element, letters):
        letters = tuple(letters)
        if algebra.theory != GENP:
            raise AlgebraError("the reduction runs in the genp theory")
        if any(p for p in algebra.alphabet.parities):
            raise AlgebraError("identity reduction is defined for even generators only")
        for i, name in enumerate(letters):
            algebra.alphabet.gen(name)
            if name in letters[:i]:
                raise AlgebraError(f"letter {name!r} is designated twice")
        self.algebra, self.element, self.letters = algebra, element, letters

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def identity_term(self):
        """The element as a term tree with the letters turned into Vars."""
        return _gens_to_vars(self.algebra.element_to_term(self.element), set(self.letters))


# -- basic operations ------------------------------------------------------

def angle_bracket(algebra: FreeAlgebra, a: Element, b: Element) -> Element:
    """{a,b} - (D(a)b - aD(b)); anticommutative, a derivation in each slot."""
    if algebra.theory != GENP:
        raise AlgebraError("angle bracket lives in the generalized Poisson theory")
    return Twisted(algebra, 1).bracket(a, b)


# -- derivation defect ----------------------------------------------------------

def derivation_defect(poly: PoissonPolynomial, x: str) -> PoissonPolynomial:
    """f(yz, ...) - y f(z, ...) - z f(y, ...) with fresh even letters y, z.

    Zero exactly when f is a derivation of the associative product in x.
    The result lives in an extended algebra; x leaves the designated letter
    set and the fresh pair joins it.
    """
    if x not in poly.letters:
        raise AlgebraError(f"{x!r} is not a designated letter")
    y, z = _fresh_names(poly.algebra.alphabet, x)
    ext = FreeAlgebra(
        Alphabet([(n, 0) for n in poly.algebra.alphabet.names()] + [(y, 0), (z, 0)]),
        GENP,
        max_degree=poly.algebra.max_degree,
    )
    ye, ze = ext.gen(y), ext.gen(z)
    term = _gens_to_vars(poly.algebra.element_to_term(poly.element), {x})
    f_yz = ext.substitute(term, {x: ext.mul(ye, ze)})
    f_z = ext.substitute(term, {x: ze})
    f_y = ext.substitute(term, {x: ye})
    res = ext.combine([(1, f_yz), (-1, ext.mul(ye, f_z)), (-1, ext.mul(ze, f_y))])
    letters = tuple(n for n in poly.letters if n != x) + (y, z)
    return PoissonPolynomial(ext, res, letters)


def _fresh_names(alphabet: Alphabet, x: str):
    taken = set(alphabet.names())
    y = x + "'"
    while y in taken:
        y += "'"
    z = y + "'"
    while z in taken:
        z += "'"
    return y, z


def _gens_to_vars(term, names):
    return map_leaves(term, lambda g: Var(g.name) if isinstance(g, Gen) and g.name in names else g)


# -- heights and shape decomposition ---------------------------------------------

def letter_height(poly: PoissonPolynomial, x: str) -> int:
    """Longest bracket word containing x over the monomials of the normal form.

    1 when x only occurs as a bare factor, 0 when absent; D(x) = {x,1}
    counts as a word of length 2.
    """
    idx = poly.algebra.alphabet.gen(x).index
    space = poly.algebra.space
    best = 0
    for m in poly.element.num:
        for key, _, _ in m:
            w = space.by_key[key]
            if w.degrees[idx]:
                best = max(best, w.length)
    return best


def letter_decompose(poly: PoissonPolynomial, x: str):
    """Split f = x T + D(x) T0 + sum_i {x, x_i} T_i by the factor holding x.

    Requires x-height below 3 and multilinearity in x.  Returns
    (T, T0, {generator name: T_i}).
    """
    alg = poly.algebra
    alphabet = alg.alphabet
    idx = alphabet.gen(x).index
    space = alg.space
    T, T0, Ti = [], [], {}  # (coefficient, cofactor monomial) pairs
    for m, coeff in poly.element.terms.items():
        holders = [
            (pos, space.by_key[key])
            for pos, (key, _, exp) in enumerate(m)
            if space.by_key[key].degrees[idx]
        ]
        if not holders:
            raise AlgebraError(f"monomial without the letter {x!r}")
        if len(holders) > 1 or m[holders[0][0]][2] != 1 or holders[0][1].degrees[idx] != 1:
            raise AlgebraError(f"polynomial is not multilinear in {x!r}")
        pos, w = holders[0]
        cofactor = (coeff, m[:pos] + m[pos + 1:])
        word = w.word
        if isinstance(word, int):
            T.append(cofactor)
            continue
        if w.length != 2:
            raise AlgebraError(f"{x}-height is not below 3")
        u, v = word
        if v == 0 and u == idx:
            T0.append(cofactor)
        elif u == idx:
            Ti.setdefault(alphabet.generators[v].name, []).append(cofactor)
        else:  # v == idx: x occurs once in the word
            Ti.setdefault(alphabet.generators[u].name, []).append((-coeff, cofactor[1]))
    Ti = {k: alg.element(pairs) for k, pairs in Ti.items()}
    return alg.element(T), alg.element(T0), {k: v for k, v in Ti.items() if not v.is_zero()}


# -- the customary target ----------------------------------------------------------

class CustomaryPolynomial:
    """Sum of products of angle-bracket pairs and D factors over letter
    partitions.

    ``letters`` fixes the 1-based index order; each term is
    ((pairs), (singles)) with the pairs (p, q), p < q, partitioning
    {1..m} together with the singles.
    """

    def __init__(self, letters, terms):
        self.letters = tuple(letters)
        m = len(self.letters)

        def checked(pairs, singles):
            used = [i for p in pairs for i in p] + list(singles)
            if any(type(i) is not int for i in used) or sorted(used) != list(range(1, m + 1)):
                raise AlgebraError(f"term does not partition 1..{m}: {pairs}, {singles}")
            if any(p >= q for p, q in pairs):
                raise AlgebraError("pairs must be in (smaller, larger) form")
            return tuple(sorted(pairs)), tuple(sorted(singles))

        self.terms = add_terms({}, ((checked(*key), scalar(c)) for key, c in terms.items()))

    @property
    def m(self) -> int:
        return len(self.letters)

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "letters": list(self.letters),
            "terms": [
                {
                    "coeff": scalar_str(c),
                    "pairs": [list(p) for p in pairs],
                    "D": list(singles),
                }
                for (pairs, singles), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "CustomaryPolynomial":
        """The polynomial :meth:`to_json` writes (``letters`` may be left out
        for ``x1..xm``); data of any other shape is an :class:`AlgebraError`."""
        if not (isinstance(data, dict) and isinstance(data.get("terms"), list)):
            raise AlgebraError("customary JSON must be an object with a 'terms' list")
        m, letters = data.get("m"), data.get("letters")
        if letters:
            if not (isinstance(letters, list) and all(isinstance(n, str) for n in letters)):
                raise AlgebraError("customary JSON 'letters' must be a list of names")
            if m is not None and m != len(letters):
                raise AlgebraError(f"customary JSON has {len(letters)} letters but 'm' is {m!r}")
        elif type(m) is int and m >= 0:
            letters = [f"x{i}" for i in range(1, m + 1)]
        else:
            raise AlgebraError(f"customary JSON needs 'letters' or a letter count 'm', not {m!r}")
        pairs = []
        for t in data["terms"]:
            pq, ds = (t.get("pairs", []), t.get("D", [])) if isinstance(t, dict) else (None, None)
            if not (isinstance(pq, list) and isinstance(ds, list) and "coeff" in t
                    and all(isinstance(p, list) and len(p) == 2 for p in pq)):
                raise AlgebraError(f"customary JSON term {t!r} needs a 'coeff', "
                                   "'pairs' of [p, q] and a 'D' list")
            pairs.append(((tuple(map(tuple, pq)), tuple(ds)), scalar(t["coeff"])))
        return cls(letters, add_terms({}, pairs))

    def __eq__(self, other):
        return (
            isinstance(other, CustomaryPolynomial)
            and self.letters == other.letters
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"CustomaryPolynomial({self.letters}, {len(self.terms)} terms)"


def customary_to_element(c: CustomaryPolynomial, algebra: FreeAlgebra) -> Element:
    """Expand the angle brackets and D factors in the engine."""
    gens = [algebra.gen(name) for name in c.letters]
    pieces = []
    for (pairs, singles), coeff in c.terms.items():
        term = algebra.one()
        for p, q in pairs:
            term = algebra.mul(term, angle_bracket(algebra, gens[p - 1], gens[q - 1]))
        for s in singles:
            term = algebra.mul(term, algebra.deriv(gens[s - 1]))
        pieces.append((coeff, term))
    return algebra.combine(pieces)


# -- the reduction pipeline -----------------------------------------------------------

class ReductionResult:
    def __init__(self, customary: CustomaryPolynomial, trace: list, algebra: FreeAlgebra):
        self.customary = customary
        self.trace = trace  # of (stage label, PoissonPolynomial)
        self.algebra = algebra  # the (possibly letter-extended) final algebra


def reduce_to_customary(poly: PoissonPolynomial) -> ReductionResult:
    """Run the three-stage reduction; every trace entry is implied by the input.

    The input must be multilinear in its letters: a monomial that holds a
    designated letter twice is an :class:`AlgebraError`, while other
    generators may repeat.  Raises :class:`DegenerateReductionError` if the
    polynomial collapses to zero on the way, and aborts with a diagnostic if
    the height measure ever fails to decrease.
    """
    if poly.is_zero():
        raise DegenerateReductionError("input polynomial is zero")
    degrees = [poly.algebra.monomial_degrees(m) for m in poly.element.num]
    for x in poly.letters:
        idx = poly.algebra.alphabet.gen(x).index
        if any(d[idx] > 1 for d in degrees):
            raise AlgebraError(f"polynomial is not multilinear in {x!r}")
    trace = [("input", poly)]
    g = poly

    def measure(p):
        """Descending multiset of the letter heights above 2.

        One defect step removes the split letter's height and introduces two
        strictly smaller ones while no other height grows, so the multiset
        strictly decreases in the well-founded multiset order; descending
        tuples compare lexicographically the same way.
        """
        heights = [letter_height(p, x) for x in p.letters]
        return tuple(sorted((h for h in heights if h > 2), reverse=True))

    # Stage 1: lower all letter heights below 3.
    rounds = 0
    while True:
        high = [x for x in g.letters if letter_height(g, x) >= 3]
        if not high:
            break
        rounds += 1
        if rounds > MAX_DEFECT_ROUNDS:
            raise AlgebraError("height reduction did not converge")
        before = measure(g)
        g = derivation_defect(g, high[0])
        if g.is_zero():
            raise DegenerateReductionError(f"defect in {high[0]!r} vanished")
        if not measure(g) < before:
            raise MeasureAbortError(
                f"height multiset failed to decrease at letter {high[0]!r} "
                f"({before} -> {measure(g)})"
            )
        trace.append((f"defect:{high[0]}", g))

    # Stage 2: make the polynomial a derivation in every letter.  The loop
    # exits only after a full pass in which fstar = -T + sum_i D(x_i) T_i is
    # zero for every letter x.  That sum is exactly the bare-x part of the
    # stage-3 rewrite of x T + sum_i {x, x_i} T_i, so no bare letter reaches
    # stage 3.
    changed = True
    while changed:
        changed = False
        for x in list(g.letters):
            T, T0, Ti = letter_decompose(g, x)
            alg = g.algebra
            fstar = alg.combine([(-1, T)] + [(1, alg.mul(alg.deriv(alg.gen(name)), cof))
                                             for name, cof in Ti.items()])
            if fstar.is_zero():
                continue
            g = PoissonPolynomial(alg, fstar, tuple(n for n in g.letters if n != x))
            trace.append((f"drop-letter:{x}", g))
            changed = True
            break

    # Stage 3: rewrite the brackets into angle brackets and D factors.
    customary = _to_customary(g)
    if customary.is_zero():
        raise DegenerateReductionError("reduction ended at the zero polynomial")
    return ReductionResult(customary, trace, g.algebra)


def _to_customary(poly: PoissonPolynomial) -> CustomaryPolynomial:
    """Rewrite every factor into angle brackets, D factors and bare letters.

    The letters are numbered 1..m in generator order.  The two-letter
    bracket {x_u, x_v}, u > v, becomes
    -<x_v, x_u> + D(x_u) x_v - x_u D(x_v); the products are multiplied out
    and summed.  A bare letter left in the sum means the polynomial was not
    a derivation in that letter, which stage 2 rules out.
    """
    alphabet = poly.algebra.alphabet
    space = poly.algebra.space
    order = sorted(poly.letters, key=lambda n: alphabet.gen(n).index)
    position = {alphabet.gen(n).index: i for i, n in enumerate(order, 1)}

    def at(index):
        if index not in position:
            raise AlgebraError(f"{alphabet.generators[index].name!r} is not a designated letter")
        return position[index]

    out = {}
    for m, coeff in poly.element.terms.items():
        expanded = [(coeff, (), (), ())]  # (coefficient, pairs, D factors, bare letters)
        for key, _, exp in m:
            word = space.by_key[key].word
            if isinstance(word, int):
                alternatives = [(1, (), (), (at(word),))]
            elif not isinstance(word[0], int) or not isinstance(word[1], int):
                raise AlgebraError("letter height is not below 3")
            elif word[1] == 0:
                alternatives = [(1, (), (at(word[0]),), ())]
            else:
                u, v = at(word[0]), at(word[1])
                alternatives = [(-1, ((v, u),), (), ()), (1, (), (u,), (v,)), (-1, (), (v,), (u,))]
            # after the letter test, so a repeated non-letter is named as such
            if exp != 1:
                raise AlgebraError("polynomial is not multilinear")
            expanded = [(c0 * c1, p0 + p1, d0 + d1, b0 + b1)
                        for c0, p0, d0, b0 in expanded for c1, p1, d1, b1 in alternatives]
        add_terms(out, (((tuple(sorted(pairs)), tuple(sorted(ds)), tuple(sorted(bares))), c)
                        for c, pairs, ds, bares in expanded))
    if any(bares for _, _, bares in out):
        raise AlgebraError("bare letters survived stage 2")
    return CustomaryPolynomial(order, {(pairs, ds): c for (pairs, ds, _), c in out.items()})
