"""The residual builders and shape tables against their formulas, sign for sign.

Each builder is compared, for every even/odd pattern of its arguments, with
its docstring formula parsed from ``?var`` text and evaluated by the
package's term evaluators.  Outside the Kantor criteria every ``(-1)^{...}``
of a docstring is the Koszul sign of its term: the parity of the odd-odd
pairs that the term's letter sequence puts out of argument order.  The
formulas below therefore carry only the signs in front of their terms, and
the test computes each Koszul sign itself from the letter sequence.  The
criteria carry the prefactors A, B, C as quoted in their docstring.

The two Kantor residuals are compared twice: in their unfactored forms
over an adapter (the oracles of ``tests/paper_forms.py``), and in the
package's forms, tables of kernel terms that
:func:`~superbracket.concrete.kernel_sums` sums over the structure tables
at every reached basis 4-tuple, one first index at a time; the test puts
all its slices together.  The four claim axioms that
``validate`` checks are compared in the same two ways: their builders (the
oracles of ``tests/paper_forms.py``) and the package's tables of kernel
terms, summed at every basis triple.

The checks run where the identities fail, so that no term is zero and a
wrong sign on any term, or on a pair of terms, changes the residual: a
structure algebra with random graded tables (no identity holds there, and
its product is neither commutative nor associative), genp for plain
Leibniz and deformed Jacobi, and gp for the Jacobi forms and the first
criterion.
"""

from __future__ import annotations

import inspect
import random
import re
from itertools import product

import pytest

from superbracket import identities
from superbracket.cli import parse
from superbracket.concrete import SparseOps, StructureAlgebra, to_dense, vbasis
from superbracket.core import Alphabet, Sum, evaluate
from superbracket.engine import GENP, GP, JB, FreeAlgebra
from helpers import random_homogeneous, slice_sums
import paper_forms

FORMULAS = {
    "supercommutativity": "?a ?b - ?b ?a",
    "associativity": "(?a ?b) ?c - ?a (?b ?c)",
    "unit": "1 ?a - ?a",
    "anticommutativity": "{?a,?b} + {?b,?a}",
    "leibniz": "{?a,?b ?c} - {?a,?b} ?c - ?b {?a,?c}",
    "deformed_leibniz": "{?a,?b ?c} - {?a,?b} ?c - ?b {?a,?c} + D(?a) ?b ?c",
    "jacobi": "{?a,{?b,?c}} - {{?a,?b},?c} - {?b,{?a,?c}}",
    "deformed_jacobi": "{?a,{?b,?c}} - {{?a,?b},?c} - {?b,{?a,?c}}"
                       " - D(?a) {?b,?c} - D(?b) {?c,?a} - D(?c) {?a,?b}",
    "jacobi_defect": "{{?a,?b},?c} - {{?a,?c},?b} - {?a,{?b,?c}}",
    "jordan_gp": "{{?a,?b},?c} ?d - {{?a,?c},?b} ?d - {?a,{?b,?c}} ?d",
    "linear_jordan": "((?x ?z) ?y) ?t + ((?x ?t) ?y) ?z + ((?z ?t) ?y) ?x"
                     " - (?x ?z)(?y ?t) - (?x ?t)(?y ?z) - (?z ?t)(?y ?x)",
}

# the criteria: each term leads with its prefactor, (-1) to the power of an
# exponent in the parities (i, k, j, l) of (f, h, g, w)
PREFACTORS = {
    "A": lambda i, k, j, l: (i + j) * l,
    "B": lambda i, k, j, l: (k + j) * i,
    "C": lambda i, k, j, l: (l + j) * k,
}
CRITERIA = {
    1: "A {{?f,?h} ?g,?w} + B {{?h,?w} ?g,?f} + C {{?w,?f} ?g,?h}"
       " - A {?f,?h} {?g,?w} - B {?h,?w} {?g,?f} - C {?w,?f} {?g,?h}",
    2: "B {?h ?w,?g} ?f - B (?h ?w) {?g,?f} - C {?w ?f,?g} ?h + C (?w ?f) {?g,?h}",
    3: "A {(?f ?h) ?g,?w} - A (?f ?h) {?g,?w} - B {?h ?w,?g} ?f + B {?h ?w,?g ?f}"
       " - C {?w ?f,?g} ?h + C {?w ?f,?g ?h}",
}


def signed_terms(formula):
    """``(sign, text)`` for each term of a formula whose terms are joined by
    `` + `` and `` - `` outside brackets."""
    out, depth, start, sign = [], 0, 0, 1
    for at, ch in enumerate(formula):
        depth += (ch in "({") - (ch in ")}")
        if depth == 0 and formula[at:at + 3] in (" + ", " - "):
            out.append((sign, formula[start:at]))
            sign, start = (1 if formula[at + 1] == "+" else -1), at + 3
    out.append((sign, formula[start:]))
    return out


def letters(text):
    return re.findall(r"\?(\w+)", text)


def koszul(sequence, order, parity):
    """(-1) to the number of odd-odd pairs of ``sequence`` out of ``order``."""
    rank = {name: n for n, name in enumerate(order)}
    swaps = sum(parity[u] & parity[v]
                for n, u in enumerate(sequence) for v in sequence[n + 1:] if rank[u] > rank[v])
    return -1 if swaps % 2 else 1


def koszul_formula(formula, alphabet, order, parity):
    """The formula as a Sum term, each term signed by its Koszul sign."""
    return Sum(tuple((sign * koszul(letters(text), order, parity),
                      parse(alphabet, text, allow_vars=True))
                     for sign, text in signed_terms(formula)))


def criterion_formula(which, alphabet, pattern):
    """Criterion ``which`` as a Sum term, each term signed by its prefactor."""
    terms = []
    for sign, text in signed_terms(CRITERIA[which]):
        name, body = text.split(" ", 1)
        sign *= -1 if PREFACTORS[name](*pattern) % 2 else 1
        terms.append((sign, parse(alphabet, body, allow_vars=True)))
    return Sum(tuple(terms))


def builder(name):
    """The builder over an ``ops`` adapter: the test oracle's, else the
    package's (the unit residual)."""
    return getattr(paper_forms, f"{name}_residual", None) or getattr(identities, f"{name}_residual")


def argument_names(fn):
    """The builder's element arguments, in order."""
    return [p for p in inspect.signature(fn).parameters if p not in ("ops", "unit", "which")]


# -- a structure algebra where nothing holds -------------------------------------------------

UNIT, EVEN, ODD = 0, (1, 2, 3, 4), (5, 6, 7, 8)
PARITIES = (0,) + (0,) * 4 + (1,) * 4


def random_table(rng):
    return {
        (i, j): [(k, rng.choice((-3, -2, -1, 1, 2, 3)))
                 for k in range(9) if PARITIES[k] == PARITIES[i] ^ PARITIES[j] and rng.random() < 0.5]
        for i in range(9) for j in range(9)
    }


@pytest.fixture(scope="module")
def generic():
    rng = random.Random(7)
    return StructureAlgebra(9, PARITIES, random_table(rng), random_table(rng), vbasis(9, UNIT))


def structure_case(algebra, order, pattern):
    """The builder's arguments and the evaluator's bindings for one pattern:
    argument n is the n-th even or odd basis vector of the table."""
    ops = SparseOps(algebra)
    indices = [(ODD if p else EVEN)[n] for n, p in enumerate(pattern)]
    return ops, [ops.basis[i] for i in indices], {v: vbasis(9, i) for v, i in zip(order, indices)}


PATTERN_CASES = [(name, pattern) for name in FORMULAS
                 for pattern in product((0, 1), repeat=len(argument_names(builder(name))))]


@pytest.mark.parametrize("name,pattern", PATTERN_CASES,
                         ids=[f"{n}-{''.join(map(str, p))}" for n, p in PATTERN_CASES])
def test_builder_matches_formula_on_a_random_table(generic, name, pattern):
    order = argument_names(builder(name))
    ops, args, bindings = structure_case(generic, order, pattern)
    parity = dict(zip(order, pattern))
    want = generic.evaluate(koszul_formula(FORMULAS[name], Alphabet([]), order, parity), bindings)
    if name == "unit":
        got = builder(name)(ops, ops.unit, *args)
    else:
        got = builder(name)(ops, *args)
    assert to_dense(got, 9) == want
    assert any(want)


@pytest.mark.parametrize("which", (1, 2, 3))
def test_criteria_match_their_formulas_on_a_random_table(generic, which):
    order = argument_names(paper_forms.double_criterion_residual)
    for pattern in product((0, 1), repeat=4):
        ops, args, bindings = structure_case(generic, order, pattern)
        want = generic.evaluate(criterion_formula(which, Alphabet([]), pattern), bindings)
        got = paper_forms.double_criterion_residual(ops, which, *args)
        assert to_dense(got, 9) == want and any(want), pattern


# -- the package's kernel forms, summed over the table evaluator -------------------------------

# the tables of kernel terms beside the FORMULAS entry and the arguments of each
KERNEL_FORMS = {
    "jordan": (identities.JORDAN_SHAPES, "linear_jordan", "xyzt"),
    "leibniz": (identities.LEIBNIZ, "leibniz", "abc"),
    "deformed_leibniz": (identities.DEFORMED_LEIBNIZ, "deformed_leibniz", "abc"),
    "jacobi": (identities.JACOBI, "jacobi", "abc"),
    "deformed_jacobi": (identities.DEFORMED_JACOBI, "deformed_jacobi", "abc"),
}


@pytest.mark.parametrize("which", (1, 2, 3, *KERNEL_FORMS))
def test_kernel_forms_match_their_formulas_on_a_random_table(generic, which):
    """The sums of the kernel terms, every slice put together, a tuple that
    they lack being the zero vector, are the formula term for term at every
    basis tuple, so a wrong sign on any kernel term changes a residual: the
    table has no symmetry that could make two terms cancel.  A D term reads the unit,
    through the rows D(e_a) that ``validate`` adds to the evaluator."""
    if which in KERNEL_FORMS:
        shapes, name, names = KERNEL_FORMS[which]
    else:
        shapes, name, names = identities.CRITERION_SHAPES[which], None, "fhgw"
    ops = SparseOps(generic)
    ops.tables["deriv"] = {(a,): row for a, e in enumerate(ops.basis) if (row := ops.deriv(e))}
    sums = slice_sums(ops, shapes)
    formulas, nonzero = {}, 0
    for idx in product(range(9), repeat=len(names)):
        pattern = tuple(PARITIES[i] for i in idx)
        if pattern not in formulas:
            formulas[pattern] = (
                koszul_formula(FORMULAS[name], Alphabet([]), names, dict(zip(names, pattern)))
                if name else criterion_formula(which, Alphabet([]), pattern))
        at = dict(zip(names, idx))
        want = evaluate(ops, formulas[pattern], lambda leaf: (
            ops.unit if leaf.name == "1" else ops.basis[at[leaf.name]]))
        assert sums.get(idx, ()) == want, idx
        nonzero += bool(want)
    assert nonzero > 9 ** len(names) // 2


# -- the free engines, where the identity fails ------------------------------------------------

def free_algebra(theory, n):
    gens = [(f"e{k}", 0) for k in range(n)] + [(f"o{k}", 1) for k in range(n)]
    return FreeAlgebra(Alphabet(gens), theory)


def free_case(alg, order, pattern):
    args = [alg.gen(f"{'o' if p else 'e'}{n}") for n, p in enumerate(pattern)]
    return args, dict(zip(order, args))


@pytest.mark.parametrize("theory,name", [
    (GENP, "leibniz"), (GENP, "deformed_jacobi"),
    (GP, "jacobi"), (GP, "jacobi_defect"), (GP, "jordan_gp"),
])
def test_builder_matches_formula_in_the_free_engine(theory, name):
    order = argument_names(builder(name))
    alg = free_algebra(theory, len(order))
    for pattern in product((0, 1), repeat=len(order)):
        args, bindings = free_case(alg, order, pattern)
        want = alg.substitute(koszul_formula(FORMULAS[name], alg.alphabet, order,
                                             dict(zip(order, pattern))), bindings)
        assert builder(name)(alg, *args) == want and not want.is_zero(), pattern


def test_first_criterion_matches_its_formula_in_gp():
    # criteria 2 and 3 vanish on the generators of free gp: the random table checks them
    order = argument_names(paper_forms.double_criterion_residual)
    alg = free_algebra(GP, 4)
    for pattern in product((0, 1), repeat=4):
        args, bindings = free_case(alg, order, pattern)
        want = alg.substitute(criterion_formula(1, alg.alphabet, pattern), bindings)
        got = paper_forms.double_criterion_residual(alg, 1, *args)
        assert got == want and not want.is_zero(), pattern


# -- the shape tables under identities.residual against the oracle builders ---------------------

CLAIM_TABLES = {
    "leibniz": identities.LEIBNIZ,
    "deformed_leibniz": identities.DEFORMED_LEIBNIZ,
    "jacobi": identities.JACOBI,
    "deformed_jacobi": identities.DEFORMED_JACOBI,
}


def claim_differential(theory, tables, count=60):
    """(cases, nonzero, mismatches) of each claim table (name -> shapes)
    under :func:`identities.residual` against the oracle builder of that
    name, on ``count`` seeded triples over (x1, x2, x3, th:odd) in the
    theory, so the tables of the other theories give nonzero residuals."""
    alg = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), theory)
    rng = random.Random(f"shape-differential-{theory}")
    cases = nonzero = mismatches = 0
    for _ in range(count):
        triple = [random_homogeneous(alg, rng, max_degree=3, max_terms=2) for _ in range(3)]
        for name, shapes in tables.items():
            want = getattr(paper_forms, f"{name}_residual")(alg, *triple)
            cases, nonzero = cases + 1, nonzero + (not want.is_zero())
            mismatches += identities.residual(shapes, alg, *triple) != want
    return cases, nonzero, mismatches


def test_claim_tables_match_their_oracles_in_every_theory():
    counts = [claim_differential(theory, CLAIM_TABLES) for theory in (GENP, JB, GP)]
    cases, nonzero, mismatches = map(sum, zip(*counts))
    assert (cases, mismatches) == (720, 0)
    # each theory's own axioms vanish there, the others' do not
    assert 200 < nonzero < cases


def test_a_flipped_sign_in_a_claim_table_fails_the_differential():
    (s, swaps), *rest = identities.DEFORMED_JACOBI[-1]
    mutant = identities.DEFORMED_JACOBI[:-1] + (((-s, swaps), *rest),)
    assert claim_differential(GENP, {"deformed_jacobi": mutant}, count=20)[2] > 0


@pytest.mark.parametrize("theory", [GENP, JB, GP])
def test_criterion_tables_match_their_oracle_on_free_generators(theory):
    order = argument_names(paper_forms.double_criterion_residual)
    alg = free_algebra(theory, 4)
    nonzero = 0
    for pattern in product((0, 1), repeat=4):
        args, _ = free_case(alg, order, pattern)
        for which in (1, 2, 3):
            got = identities.residual(identities.CRITERION_SHAPES[which], alg, *args)
            assert got == paper_forms.double_criterion_residual(alg, which, *args), (which, pattern)
            nonzero += not got.is_zero()
    # free jb passes every criterion; genp and gp fail 16 of the 48 cases
    assert nonzero == (0 if theory == JB else 16)


def test_koszul_sign_reads_the_docstring_factors():
    # (-1)^{|a|(|b|+|c|)} D(b){c,a} in the deformed Jacobi docstring
    for pa, pb, pc in product((0, 1), repeat=3):
        parity = {"a": pa, "b": pb, "c": pc}
        assert koszul(["b", "c", "a"], "abc", parity) == (-1) ** (pa * (pb + pc))
    assert signed_terms("{?a,?b} ?c - ?b {?a,?c} + D(?a)") == [
        (1, "{?a,?b} ?c"), (-1, "?b {?a,?c}"), (1, "D(?a)")]
