"""Shared test utilities: random element generators and independent oracles.

The oracles here deliberately avoid the package's straightening machinery:
signs come from brute-force bubble sorts, Lie brackets are evaluated in
(super) matrix algebras, and multilinear dimensions come from expanding raw
bracketings inside the free associative superalgebra.
"""

from fractions import Fraction
from itertools import permutations, product
from operator import add, xor

import linalg
from superbracket.core import (EVEN, AlgebraError, Alphabet, Sum, Var, fold, map_leaves,
                               scalar_str, var_names)
from superbracket.engine import GP, FreeAlgebra

PRIME = 2_147_483_647


class UndefinedParityError(AlgebraError):
    """A parity or multidegree was requested where it is not defined."""


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
    zero = (0,) * alphabet.size
    return _additive(alphabet, t, lambda g: zero[:g.index] + (1,) + zero[g.index + 1:],
                     lambda a, b: tuple(map(add, a, b)), zero, "multidegree", "multidegrees")


def sgn(bit):
    return -1 if (bit & 1) else 1


def max_word_degree(element):
    by_key = element.algebra.space.by_key
    return max(
        (sum(by_key[key].length * exp for key, _, exp in m) for m in element.terms),
        default=0,
    )


def word_bracket(algebra, u, v):
    """``{u,v}`` of two basis words in a genp algebra, read back as
    ``{BasisWord: coeff}``.  genp straightening stays in the Lie span, so
    every monomial must be one word to the first power."""
    got = algebra.bracket(algebra.word_element(u), algebra.word_element(v))
    out = {}
    for m, c in got.terms.items():
        assert len(m) == 1 and m[0][2] == 1, m
        out[algebra.space.by_key[m[0][0]]] = c
    return out


def offered_basis_words(space, top):
    """Every interned basis word (oriented atom in gp) of degree <= top, found
    by offering each raw bracket tree over the alphabet to ``space.get``."""
    raw = {1: list(range(space.alphabet.size))}
    for n in range(2, top + 1):
        raw[n] = [(u, v) for i in range(1, n) for u in raw[i] for v in raw[n - i]]
    words = []
    for n in range(1, top + 1):
        for word in raw[n]:
            try:
                words.append(space.get(word))
            except AlgebraError:
                pass
    return words


def tuple_key(word):
    """The nested ``(length, left key, right key)`` tuple of a raw word, a
    letter ``i`` being ``(1, i)``: the word order written out as tuples,
    which an int word key must reproduce."""
    if isinstance(word, int):
        return (1, word)
    left, right = tuple_key(word[0]), tuple_key(word[1])
    return (left[0] + right[0], left, right)


def tuple_key_monomials(algebra, monomials):
    """Monomials with each factor key replaced by its :func:`tuple_key`."""
    by_key = algebra.space.by_key
    return tuple(tuple((tuple_key(by_key[k].word), p, e) for k, p, e in m) for m in monomials)


def random_homogeneous(algebra, rng, max_degree=5, max_terms=3):
    """Random parity-homogeneous element of word degree <= max_degree."""
    alphabet = algebra.alphabet
    if algebra.theory == GP:
        return _random_tree_homogeneous(algebra, rng, max_degree, max_terms)
    for _ in range(100):
        degs = [0] * alphabet.size
        for _ in range(rng.randint(1, max_degree)):
            degs[rng.randrange(alphabet.size)] += 1
        monos = algebra.basis(tuple(degs))
        if not monos:
            continue
        picks = rng.sample(monos, min(len(monos), rng.randint(1, max_terms)))
        coeffs = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 1, 2])) for _ in picks]
        el = algebra.element(zip(coeffs, picks))
        if not el.is_zero():
            return el
    raise AssertionError("could not sample a random element")


def _random_tree_homogeneous(algebra, rng, max_degree, max_terms):
    """Sample by evaluating random trees over one leaf multiset, which keeps
    every term in a single multidegree (hence one parity)."""
    names = list(algebra.alphabet.names())

    def build(leaves):
        if len(leaves) == 1:
            return algebra.gen(leaves[0])
        cut = rng.randint(1, len(leaves) - 1)
        left, right = build(leaves[:cut]), build(leaves[cut:])
        return algebra.mul(left, right) if rng.random() < 0.5 else algebra.bracket(left, right)

    for _ in range(100):
        leaves = [rng.choice(names) for _ in range(rng.randint(1, max_degree))]
        total = algebra.zero()
        for _ in range(rng.randint(1, max_terms)):
            shuffled = leaves[:]
            rng.shuffle(shuffled)
            total = total + build(shuffled).scale(
                Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2]))
            )
        if not total.is_zero():
            return total
    raise AssertionError("could not sample a random element")


def random_term(alphabet, rng, depth=3, allow_unit=True):
    """Random raw term tree over the alphabet."""
    from superbracket.core import Bracket, Gen, Prod

    names = list(alphabet.names())
    if allow_unit:
        names.append(alphabet.unit.name)
    if depth == 0 or rng.random() < 0.35:
        return Gen(rng.choice(names))
    left = random_term(alphabet, rng, depth - 1, allow_unit)
    right = random_term(alphabet, rng, depth - 1, allow_unit)
    return Prod(left, right) if rng.random() < 0.5 else Bracket(left, right)


def random_sum_term(alphabet, rng, size=4, allow_unit=True):
    """Random raw term tree over ``size`` leaves, with Sum nodes and Var leaves.

    The branches of a Sum rearrange the same leaves, so every Sum is
    homogeneous in multidegree and parity.  A Var leaf carries the name of a
    non-unit generator and stands for it: substitute the generator to read
    the term as a plain one.
    """
    from superbracket.core import Bracket, Gen, Prod, Sum, Var

    unit = alphabet.unit.name
    names = list(alphabet.names()) + ([unit] if allow_unit else [])

    def build(leaves):
        if len(leaves) == 1:
            name = leaves[0]
            return Var(name) if name != unit and rng.random() < 0.3 else Gen(name)
        if rng.random() < 0.25:
            branches = []
            for _ in range(rng.randint(1, 3)):
                shuffled = leaves[:]
                rng.shuffle(shuffled)
                coeff = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
                branches.append((coeff, build(shuffled)))
            return Sum(tuple(branches))
        cut = rng.randint(1, len(leaves) - 1)
        node = Prod if rng.random() < 0.5 else Bracket
        return node(build(leaves[:cut]), build(leaves[cut:]))

    return build([rng.choice(names) for _ in range(size)])


# -- bubble-sort sign oracle ---------------------------------------------------

def bubble_shuffle_sign(parities, order):
    """Sign of sorting ``order`` ascending, one adjacent swap at a time,
    flipping the sign whenever both swapped entries are odd."""
    arr = list(order)
    par = {src: parities[src] for src in order}
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                if par[arr[i]] and par[arr[i + 1]]:
                    sign = -sign
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                changed = True
    return sign


# -- (super) matrix oracles ------------------------------------------------------

def random_matrix(rng, n, parity=None, block=None):
    """Random rational matrix; with block = (p, q) and a parity, the matrix
    is block-diagonal (even) or block-off-diagonal (odd) for gl(p|q)."""
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if block is not None:
                p, _ = block
                even_cell = (i < p) == (j < p)
                if parity == 0 and not even_cell:
                    continue
                if parity == 1 and even_cell:
                    continue
            mat[i][j] = Fraction(rng.randint(-3, 3))
    return mat


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def super_commutator(a, b, pa, pb):
    """ab - (-1)^{|a||b|} ba."""
    return mat_add(mat_mul(a, b), mat_scale(-sgn(pa & pb), mat_mul(b, a)))


def eval_word_in_matrices(alphabet, word, assignment):
    """Evaluate a raw bracket word with generators mapped to graded matrices.

    Returns (matrix, parity).  The assignment maps generator index to a
    matrix of the generator's parity.
    """
    if isinstance(word, int):
        return assignment[word], alphabet.parities[word]
    (ml, pl) = eval_word_in_matrices(alphabet, word[0], assignment)
    (mr, pr) = eval_word_in_matrices(alphabet, word[1], assignment)
    return super_commutator(ml, mr, pl, pr), (pl + pr) & 1


def eval_combination_in_matrices(alphabet, combo, assignment, n):
    out = mat_zero(n)
    for w, c in combo.items():
        out = mat_add(out, mat_scale(c, eval_word_in_matrices(alphabet, w.word, assignment)[0]))
    return out


# -- free-Lie multilinear dimension oracle ------------------------------------------

def all_binary_trees(labels):
    if len(labels) == 1:
        yield labels[0]
        return
    for i in range(1, len(labels)):
        for left in all_binary_trees(labels[:i]):
            for right in all_binary_trees(labels[i:]):
                yield (left, right)


def tensor_expand(tree, parities):
    """Expand a bracketing into the free associative superalgebra.

    Returns ({word tuple: coefficient}, parity) with [a,b] = ab - (-1)^{|a||b|} ba.
    """
    if not isinstance(tree, tuple):
        return {(tree,): 1}, parities[tree]
    left, pl = tensor_expand(tree[0], parities)
    right, pr = tensor_expand(tree[1], parities)
    out = {}
    s = sgn(pl & pr)
    for wl, cl in left.items():
        for wr, cr in right.items():
            out[wl + wr] = out.get(wl + wr, 0) + cl * cr
            out[wr + wl] = out.get(wr + wl, 0) - s * cl * cr
    return {w: c for w, c in out.items() if c}, (pl + pr) & 1


def rank_mod_p(rows, ncols, p):
    """Rank over GF(p) of the matrix given as an iterable of dense rows."""
    pivots = []  # list of (col, normalized row)
    rank = 0
    for row in rows:
        row = [x % p for x in row]
        for col, piv in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, piv)]
        lead = -1
        for c in range(ncols):
            if row[c]:
                lead = c
                break
        if lead < 0:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [(a * inv) % p for a in row]
        pivots.append((lead, row))
        rank += 1
    return rank


def multilinear_lie_dimension(n, parities=None):
    """Rank of the span of all multilinear bracketings of n letters inside
    the tensor algebra, computed modulo a large prime."""
    parities = parities or [0] * n
    letters = list(range(n))
    columns = {word: i for i, word in enumerate(permutations(letters))}
    rows = []
    for perm in permutations(letters):
        for tree in all_binary_trees(list(perm)):
            expansion, _ = tensor_expand(tree, parities)
            row = [0] * len(columns)
            for word, coeff in expansion.items():
                row[columns[word]] = coeff % PRIME
            rows.append(row)
    return rank_mod_p(rows, len(columns), PRIME)


def standard_algebra(theory, names=("x1", "x2", "x3"), odd=("th",), max_degree=None):
    gens = [(n, 0) for n in names] + [(n, 1) for n in odd]
    return FreeAlgebra(Alphabet(gens), theory, max_degree=max_degree)


def find_multilinear_identities(struct, letters, unit_counts=(0, 1, 2), max_results=12):
    """Multilinear identities of a structure algebra, by exact nullspace.

    Candidates are the free-engine basis monomials multilinear in the
    letters with the given unit multiplicities; rows of the system are the
    evaluations on all basis assignments.  Returns PoissonPolynomial values
    whose identity terms vanish on the algebra by construction.
    """
    from superbracket.farkas import PoissonPolynomial
    from superbracket.engine import GENP
    from superbracket.concrete import vbasis

    algebra = FreeAlgebra(Alphabet([(n, 0) for n in letters]), GENP)
    candidates = []
    for k in unit_counts:
        degs = [k] + [1] * len(letters)
        candidates.extend(algebra.basis(tuple(degs)))
    cols = len(candidates)
    rows = []
    from itertools import product as iproduct

    basis_vecs = [vbasis(struct.dim, i) for i in range(struct.dim)]
    for assignment in iproduct(range(struct.dim), repeat=len(letters)):
        bindings = {n: basis_vecs[i] for n, i in zip(letters, assignment)}
        evaluated = []
        for mono in candidates:
            term = algebra.element_to_term(algebra.element([(1, mono)]))
            evaluated.append(struct.evaluate(term, bindings))
        for coord in range(struct.dim):
            rows.append([vec[coord] for vec in evaluated])
    out = []
    for v in linalg.nullspace(rows, cols):
        el = algebra.element(zip(v, candidates))
        if not el.is_zero():
            out.append(PoissonPolynomial(algebra, el, tuple(letters)))
        if len(out) >= max_results:
            break
    return out


def _occurrences(term, name):
    """The copy number of each occurrence of ``?name`` in reading order, and
    the degree.  Occurrences are numbered left to right, except that every
    branch of a Sum numbers its own from the same start (the branches are
    alternatives), and numbering after the Sum continues from its last
    branch."""

    def leaf(t):
        return ([0], 1) if t == Var(name) else ([], 0)

    def node(t, kids):
        if isinstance(t, Sum):
            return [k for nums, _ in kids for k in nums], kids[-1][1] if kids else 0
        (left, nl), (right, nr) = kids
        return left + [k + nl for k in right], nl + nr

    return fold(term, leaf, node)


def polarized_is_identity(algebra, term):
    """``StructureAlgebra.is_identity`` of a term homogeneous in each Var,
    by writing out its polarization: a Var ?x of degree k > 1 becomes the
    sum, over the k! ways to give its occurrences the copies ?x#0, ...,
    ?x#(k-1), of the term with those copies, and the polarized term is
    evaluated at every tuple of basis vectors in product order."""
    for name in sorted(var_names(term)):
        numbers, degree = _occurrences(term, name)
        if degree > 1:
            pieces = []
            for perm in permutations(f"{name}#{c}" for c in range(degree)):
                copy = iter(perm[k] for k in numbers)
                pieces.append((1, map_leaves(term, lambda t: Var(next(copy)) if t == Var(name) else t)))
            term = Sum(tuple(pieces))
    names, dim = sorted(var_names(term)), algebra.dim
    for idx in product(range(dim), repeat=len(names)):
        basis = {n: tuple(int(j == i) for j in range(dim)) for n, i in zip(names, idx)}
        residual = algebra.evaluate(term, basis)
        if any(residual):
            return False, {"assignment": dict(zip(names, idx)),
                           "residual": [scalar_str(x) for x in residual]}
    return True, None
