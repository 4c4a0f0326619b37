"""Reduction of polynomial identities of unital generalized Poisson algebras
to customary form.

Everything here is in the all-even setting.  A customary polynomial is a sum
of products of angle brackets <x,y> := {x,y} - (D(x)y - xD(y)) and derivation
factors D(x), the letter set partitioned by each term.  The reduction runs in
three stages: height lowering by derivation defects, repeated replacement of
non-derivation letters, and the final rewrite of brackets into angle/D/bare
factors with the bare parts discharged letter by letter.  Every intermediate
polynomial is an identity of any unital generalized Poisson algebra the input
was an identity of; the test suite exercises this on concrete witnesses.
"""

from __future__ import annotations

from itertools import combinations

from .core import AlgebraError, Alphabet, Gen, Var, map_leaves, scalar, scalar_str
from .elements import Element, add_terms, combine
from .engine import GENP, FreeAlgebra
from .identities import ElementOps, Twisted

_ONE = 1

# stage 1 guard: the height multiset strictly decreases, so this is never
# reached by a correct reduction
MAX_DEFECT_ROUNDS = 64


class DegenerateReductionError(AlgebraError):
    """The reduction collapsed to the zero polynomial."""


class MeasureAbortError(AlgebraError):
    """The height measure failed to decrease; aborted instead of looping."""


class PoissonPolynomial:
    """A normal-form element with a designated set of identity letters."""

    def __init__(self, algebra: FreeAlgebra, element: Element, letters: tuple):
        if any(p for p in algebra.alphabet.parities):
            raise AlgebraError("identity reduction is defined for even generators only")
        for name in letters:
            algebra.alphabet.gen(name)
        self.algebra, self.element, self.letters = algebra, element, letters

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def identity_term(self):
        """The element as a term tree with the letters turned into Vars."""
        return _gens_to_vars(self.algebra.element_to_term(self.element), set(self.letters))


def poisson_polynomial(algebra: FreeAlgebra, term_or_element, letters) -> PoissonPolynomial:
    if isinstance(term_or_element, Element):
        el = term_or_element
    else:
        el = algebra.normal_form(term_or_element)
    return PoissonPolynomial(algebra, el, tuple(letters))


# -- basic operations ------------------------------------------------------

def angle_bracket(algebra: FreeAlgebra, a: Element, b: Element) -> Element:
    """{a,b} - (D(a)b - aD(b)); anticommutative, a derivation in each slot."""
    if algebra.theory != GENP:
        raise AlgebraError("angle bracket lives in the generalized Poisson theory")
    return Twisted(ElementOps(algebra), 1).bracket(a, b)


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
    return combine(algebra, pieces)


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
    f_yz = _substitute_letter(ext, poly, x, ext.mul(ye, ze))
    f_z = _substitute_letter(ext, poly, x, ze)
    f_y = _substitute_letter(ext, poly, x, ye)
    res = combine(ext, [(1, f_yz), (-1, ext.mul(ye, f_z)), (-1, ext.mul(ze, f_y))])
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


def _substitute_letter(target: FreeAlgebra, poly: PoissonPolynomial, x: str, replacement: Element) -> Element:
    term = poly.algebra.element_to_term(poly.element)
    term = _gen_to_var(term, x, "@sub")
    return target.substitute(term, {"@sub": replacement})


def _gen_to_var(term, name, var_name):
    return map_leaves(term, lambda g: Var(var_name) if g == Gen(name) else g)


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
    for m in poly.element.terms:
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
        elif v == idx:
            Ti.setdefault(alphabet.generators[u].name, []).append((-coeff, cofactor[1]))
        else:
            raise AlgebraError("unexpected factor shape")
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
            pairs.append(((tuple(map(tuple, pq)), tuple(ds)), scalar(str(t["coeff"]))))
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

    def index(position):
        return algebra.alphabet.gen(c.letters[position - 1]).index

    formal = {
        (tuple((index(p), index(q)) for p, q in pairs), tuple(index(s) for s in singles), ()): coeff
        for (pairs, singles), coeff in c.terms.items()
    }
    return _formal_to_element(algebra, formal)


# -- the reduction pipeline -----------------------------------------------------------

class ReductionResult:
    def __init__(self, customary: CustomaryPolynomial, trace: list, algebra: FreeAlgebra):
        self.customary = customary
        self.trace = trace  # of (stage label, PoissonPolynomial)
        self.algebra = algebra  # the (possibly letter-extended) final algebra


def reduce_to_customary(poly: PoissonPolynomial) -> ReductionResult:
    """Run the three-stage reduction; every trace entry is implied by the input.

    Raises :class:`DegenerateReductionError` if the polynomial collapses to
    zero on the way, and aborts with a diagnostic if the height measure ever
    fails to decrease.
    """
    if poly.is_zero():
        raise DegenerateReductionError("input polynomial is zero")
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

    # Stage 2: make the polynomial a derivation in every letter.
    changed = True
    while changed:
        changed = False
        for x in list(g.letters):
            T, T0, Ti = letter_decompose(g, x)
            alg = g.algebra
            fstar = combine(alg, [(-1, T)] + [(1, alg.mul(alg.deriv(alg.gen(name)), cof))
                                              for name, cof in Ti.items()])
            if fstar.is_zero():
                continue
            g = PoissonPolynomial(alg, fstar, tuple(n for n in g.letters if n != x))
            if g.is_zero():
                raise DegenerateReductionError(f"replacement at {x!r} vanished")
            trace.append((f"drop-letter:{x}", g))
            changed = True
            break

    # Stage 3: angle-bracket rewrite, then discharge bare letters one by one.
    formal = _to_formal(g)
    for name in sorted(g.letters):
        idx = g.algebra.alphabet.gen(name).index
        kept = {k: v for k, v in formal.items() if idx not in k[2]}
        if kept != formal:
            formal = kept
            g = PoissonPolynomial(g.algebra, _formal_to_element(g.algebra, formal), g.letters)
            if g.is_zero():
                raise DegenerateReductionError(f"discharge of {name!r} vanished")
            trace.append((f"discharge:{name}", g))

    customary = _formal_to_customary(g.algebra, g.letters, formal)
    if customary.is_zero():
        raise DegenerateReductionError("reduction ended at the zero polynomial")
    return ReductionResult(customary, trace, g.algebra)


def _to_formal(poly: PoissonPolynomial) -> dict:
    """Element -> {(pairs, ds, bares): coeff} with indices = generator indices.

    Rewrites every two-letter bracket factor {x,y} as
    <x,y> + D(x)y - xD(y) and multiplies out.
    """
    alg = poly.algebra
    alphabet = alg.alphabet
    space = alg.space
    letter_idx = {alphabet.gen(n).index for n in poly.letters}
    out = {}
    for m, coeff in poly.element.terms.items():
        factors = []  # each: list of (coeff, pairs, ds, bares) alternatives
        for key, _, exp in m:
            w = space.by_key[key]
            if exp != 1:
                raise AlgebraError("polynomial is not multilinear")
            word = w.word
            if isinstance(word, int):
                if word not in letter_idx:
                    raise AlgebraError(f"bare non-letter factor {alphabet.generators[word].name}")
                factors.append([(_ONE, (), (), (word,))])
            else:
                u, v = word
                if not isinstance(u, int) or not isinstance(v, int):
                    raise AlgebraError("letter height is not below 3")
                if v == 0:
                    factors.append([(_ONE, (), (u,), ())])
                else:
                    # {x_u, x_v} with u > v rewrites to
                    # -<x_v, x_u> + D(x_u) x_v - x_u D(x_v)
                    factors.append([
                        (-_ONE, ((v, u),), (), ()),
                        (_ONE, (), (u,), (v,)),
                        (-_ONE, (), (v,), (u,)),
                    ])
        expanded = [(coeff, (), (), ())]
        for alternatives in factors:
            new = []
            for c0, p0, d0, b0 in expanded:
                for c1, p1, d1, b1 in alternatives:
                    new.append((c0 * c1, p0 + p1, d0 + d1, b0 + b1))
            expanded = new
        add_terms(out, (((tuple(sorted(pairs)), tuple(sorted(ds)), tuple(sorted(bares))), c)
                        for c, pairs, ds, bares in expanded))
    return out


def _formal_to_element(algebra: FreeAlgebra, formal: dict) -> Element:
    pieces = []
    names = algebra.alphabet.generators
    for (pairs, ds, bares), coeff in formal.items():
        term = algebra.one()
        for p, q in pairs:
            term = algebra.mul(
                term, angle_bracket(algebra, algebra.gen(names[p].name), algebra.gen(names[q].name))
            )
        for d in ds:
            term = algebra.mul(term, algebra.deriv(algebra.gen(names[d].name)))
        for b in bares:
            term = algebra.mul(term, algebra.gen(names[b].name))
        pieces.append((coeff, term))
    return combine(algebra, pieces)


def _formal_to_customary(algebra: FreeAlgebra, letters, formal: dict) -> CustomaryPolynomial:
    order = sorted(letters, key=lambda n: algebra.alphabet.gen(n).index)
    position = {algebra.alphabet.gen(n).index: i + 1 for i, n in enumerate(order)}
    if any(bares for _, _, bares in formal):
        raise AlgebraError("bare letters survived the discharge stage")
    terms = add_terms({}, (
        ((tuple(sorted((position[p], position[q]) for p, q in pairs)),
          tuple(sorted(position[d] for d in ds))), coeff)
        for (pairs, ds, _), coeff in formal.items()))
    return CustomaryPolynomial(order, terms)


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
    return combine(algebra, pieces)


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
    return combine(algebra, pieces)


def _deriv_macro(algebra: FreeAlgebra, t1, t2, t3) -> Element:
    """t2 t3 D(t1) = {t2 t3, t1} - {t2,t1} t3 - {t3,t1} t2."""
    mul, brk = algebra.mul, algebra.bracket
    return combine(algebra, [(1, brk(mul(t2, t3), t1)), (-1, mul(brk(t2, t1), t3)),
                             (-1, mul(brk(t3, t1), t2))])
