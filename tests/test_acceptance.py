"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (rational arithmetic, zero residuals).
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from pathlib import Path

from superbracket.core import Alphabet
from superbracket.elements import Element, monomial_factor_count
from superbracket.engine import GENP, GP, JB, FreeAlgebra, GpAlgebra, dim_multilinear
from superbracket.liebasis import WordSpace
from superbracket import identities
from superbracket.concrete import (
    CLAIM_RULES,
    adjoin_unit,
    euler_wronskian_algebra,
    nonlie_example_algebra,
    untwisted_algebra,
    wronskian_algebra,
    zero_bracket_poisson,
)
from superbracket.kantor import double_is_jordan
from superbracket.farkas import (
    CustomaryPolynomial,
    DegenerateReductionError,
    PoissonPolynomial,
    angle_bracket,
    customary_to_element,
    reduce_to_customary,
)
import linalg
from helpers import (
    find_multilinear_identities,
    multilinear_lie_dimension,
    random_homogeneous,
)
from paper_forms import (
    _deriv_macro,
    _pair_macro,
    bracket_product_form,
    double_criterion_residual,
    jacobi_defect_residual,
    left_normed,
    leftnormed_product_expansion,
)


def report(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_dimension_theorem():
    expected = {1: 1, 2: 4, 3: 18, 4: 96}
    timings = {}
    for n, want in expected.items():
        t0 = time.perf_counter()
        got_genp = dim_multilinear(n, GENP)
        got_jb = dim_multilinear(n, JB)
        timings[n] = time.perf_counter() - t0
        assert got_genp == got_jb == want == n * math.factorial(n)
        assert want == math.factorial(n + 1) - math.factorial(n)
    fast = all(timings[n] < 1.0 for n in (1, 2, 3))
    ok = fast and timings[4] < 60.0
    report(1, ok, f"dim = 1,4,18,96 for both theories; timings {timings}")


def test_criterion_2_free_lie_multilinear_counts():
    results = []
    for n in range(1, 6):
        alphabet = Alphabet([(f"x{i}", 0) for i in range(1, n + 1)])
        space = WordSpace(alphabet)
        count = len(space.basis_words((0,) + (1,) * n))
        oracle = multilinear_lie_dimension(n) if n >= 2 else 1
        assert count == math.factorial(n - 1) == oracle
        results.append(count)
    report(2, results == [1, 1, 2, 6, 24], f"multilinear Lie counts {results} match the bracketing oracle")


def _triple_suite(algebra, residual_fns, rng, count):
    failures = 0
    for _ in range(count):
        a = random_homogeneous(algebra, rng, max_degree=5, max_terms=2)
        b = random_homogeneous(algebra, rng, max_degree=5, max_terms=2)
        c = random_homogeneous(algebra, rng, max_degree=5, max_terms=2)
        for fn in residual_fns:
            if not fn(a, b, c).is_zero():
                failures += 1
    return failures


def test_criterion_3_defining_identity_suites(rng):
    alphabet = Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)])
    failures = 0
    for theory in (GENP, JB, GP):
        algebra = GpAlgebra(alphabet) if theory == GP else FreeAlgebra(alphabet, theory)
        rules = [partial(identities.residual, shapes, algebra) for _, shapes in CLAIM_RULES[theory]]
        failures += _triple_suite(algebra, rules, rng, 200)
    report(3, failures == 0, f"600 random triples across the three theories, {failures} residual failures")


def test_criterion_4_twist_theorem(rng):
    jb = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), JB)

    # {a,b} - (aD(b) - D(a)b) with derivation 2D, checked as a genp bracket
    twisted = identities.Twisted(jb, -1)

    def holds(a, b, c):
        return (identities.residual(identities.DEFORMED_LEIBNIZ, twisted, a, b, c).is_zero()
                and identities.residual(identities.JACOBI, twisted, a, b, c).is_zero())

    failures = 0
    gens = [jb.gen(n) for n in jb.alphabet.names()] + [jb.one()]
    for a, b, c in product(gens, repeat=3):
        if not holds(a, b, c):
            failures += 1
    for _ in range(100):
        a = random_homogeneous(jb, rng, max_degree=3, max_terms=2)
        b = random_homogeneous(jb, rng, max_degree=3, max_terms=2)
        c = random_homogeneous(jb, rng, max_degree=3, max_terms=2)
        if not holds(a, b, c):
            failures += 1
    report(4, failures == 0,
           f"twisted bracket satisfies the generalized Poisson identities exactly ({failures} failures)")


def test_criterion_5_kantor_cross_validation():
    corpus = [
        ("wronskian2", wronskian_algebra(2), False),
        ("wronskian3", wronskian_algebra(3), False),
        ("wronskian4", wronskian_algebra(4), False),
        ("zero-product example", nonlie_example_algebra(), True),
        ("zero-bracket poisson", zero_bracket_poisson(3), True),
        ("untwisted euler-wronskian", untwisted_algebra(euler_wronskian_algebra(3)), True),
        ("unital non-poisson gp", adjoin_unit(nonlie_example_algebra()), False),
    ]
    ok = len(corpus) >= 6
    lines = []
    for name, algebra, expected in corpus:
        crit, direct, agree = double_is_jordan(algebra)
        lines.append(f"{name}:{'pass' if crit.ok else 'fail'}")
        ok = ok and agree and crit.ok is expected and direct.ok is expected
    report(5, ok, "jorskob and direct super-Jordan verdicts agree on all 7 algebras: " + ", ".join(lines))


def test_criterion_6_generic_poisson_theorem():
    ok = True
    for bits in product((0, 1), repeat=4):
        names = list(zip(("f", "h", "g", "w"), bits))
        algebra = GpAlgebra(Alphabet(names))
        f, h, g, w = (algebra.gen(n) for n in ("f", "h", "g", "w"))
        if not double_criterion_residual(algebra, 2, f, h, g, w).is_zero():
            ok = False
        if not double_criterion_residual(algebra, 3, f, h, g, w).is_zero():
            ok = False
        residual = double_criterion_residual(algebra, 1, f, h, g, w)
        # match the residual against signed jacobi-defect times letter patterns
        elements = {"f": f, "h": h, "g": g, "w": w}
        patterns = []
        for p, q, r, s in permutations("fhgw"):
            defect = jacobi_defect_residual(algebra, elements[p], elements[q], elements[r])
            patterns.append(algebra.mul(defect, elements[s]))
        monomials = sorted(
            {m for e in patterns for m in e.terms} | set(residual.terms)
        )
        rows = [[e.terms.get(m, Fraction(0)) for e in patterns] for m in monomials]
        rhs = [residual.terms.get(m, Fraction(0)) for m in monomials]
        solution = linalg.solve(rows, rhs, len(patterns))
        if solution is None:
            ok = False
        if all(b == 0 for b in bits) and residual.is_zero():
            ok = False  # the even generator residual must be nonzero
    report(6, ok, "criteria 2,3 vanish and criterion 1 matches jacobi-defect patterns in all 16 parity cases")


def test_criterion_7_farkas_pipeline(rng):
    # (a) the two corollary macros, symbolically
    names = ("u1", "u2", "w1", "w2", "t1", "t2", "t3")
    alg = FreeAlgebra(Alphabet([(n, 0) for n in names]), GENP)
    u1, u2, w1, w2, t1, t2, t3 = (alg.gen(n) for n in names)
    macro_pair_ok = _pair_macro(alg, u1, u2, w1, w2) == alg.mul(
        alg.mul(w1, w2), angle_bracket(alg, u1, u2)
    )
    macro_deriv_ok = _deriv_macro(alg, t1, t2, t3) == alg.mul(
        alg.mul(t2, t3), alg.deriv(t1)
    )

    # (b) the combinatorial expansion against the engine for n <= 3
    lemma_ok = True
    for n in range(4):
        ws = [alg.gen(nm) for nm in ("w1", "w2", "t1")[:n]]
        lhs = leftnormed_product_expansion(alg, alg.gen("u1"), alg.gen("u2"), ws)
        rhs = left_normed(alg, [alg.mul(alg.gen("u1"), alg.gen("u2"))] + ws)
        lemma_ok = lemma_ok and lhs == rhs

    # and the embedded form equals customary times the extra letters
    zs = tuple(f"z{i}" for i in range(1, 5))
    zalg = FreeAlgebra(Alphabet([("a", 0), ("b", 0)] + [(z, 0) for z in zs]), GENP)
    c = CustomaryPolynomial(("a", "b"), {(((1, 2),), ()): Fraction(1)})
    embedded = bracket_product_form(c, zalg, zs)
    direct = customary_to_element(c, zalg)
    for z in zs:
        direct = zalg.mul(direct, zalg.gen(z))
    embed_ok = embedded == direct

    # (c) reduce a verified identity of the truncated Wronskian algebra
    struct = wronskian_algebra(3)
    pipeline_ok = False
    evaluations = 0
    for poly in find_multilinear_identities(struct, ("x", "y", "z")):
        holds, _ = struct.is_identity(poly.identity_term())
        if not holds:
            continue
        try:
            result = reduce_to_customary(poly)
        except DegenerateReductionError:
            continue
        stage_ok = all(
            struct.is_identity(p.identity_term())[0] for _, p in result.trace
        )
        final = customary_to_element(result.customary, result.algebra)
        fin = PoissonPolynomial(result.algebra, final, result.customary.letters)
        final_ok, _ = struct.is_identity(fin.identity_term())
        evaluations = struct.dim ** len(result.customary.letters)
        if stage_ok and final_ok:
            pipeline_ok = True
            break
    ok = macro_pair_ok and macro_deriv_ok and lemma_ok and embed_ok and pipeline_ok
    report(7, ok,
           "macros verified, expansion matches the engine for n<=3, and a Wronskian identity "
           f"reduces to a verified customary identity ({evaluations} evaluations at the final check)")


def test_criterion_8_confluence():
    def sgnbit(b):
        return -1 if b else 1

    discrepancies = 0
    compared = 0
    for theory in (GENP, JB):
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("th", 1)]), theory)
        monos = []
        for degs in product(range(5), repeat=4):
            if sum(degs) <= 4:
                monos.extend(algebra.basis(degs))
        splittable = [m for m in monos if monomial_factor_count(m) >= 2]
        for m1 in monos:
            a = Element(algebra, {m1: Fraction(1)})
            pa = a.parity()
            for m2 in splittable:
                route1 = algebra.bracket(a, Element(algebra, {m2: Fraction(1)}))
                for idx, (key, par, exp) in enumerate(m2):
                    if exp > 1:
                        rest = m2[:idx] + ((key, par, exp - 1),) + m2[idx + 1:]
                    else:
                        rest = m2[:idx] + m2[idx + 1:]
                    prefix = 0
                    for _, p2, e2 in m2[:idx]:
                        prefix ^= p2 & e2 & 1
                    pull_sign = sgnbit(prefix & par)
                    b = Element(algebra, {((key, par, 1),): Fraction(1)})
                    cc = Element(algebra, {rest: Fraction(1)})
                    route2 = (
                        algebra.mul(algebra.bracket(a, b), cc)
                        + algebra.mul(b, algebra.bracket(a, cc)).scale(sgnbit(pa & par))
                        - algebra.mul(algebra.mul(algebra.deriv(a), b), cc)
                    ).scale(pull_sign)
                    compared += 1
                    if route1 != route2:
                        discrepancies += 1
    report(8, discrepancies == 0,
           f"bracket-of-product expansion agrees across associations on {compared} splits, "
           f"{discrepancies} discrepancies")


def test_criterion_9_cli_round_trip(rng):
    from superbracket.cli import parse, print_element

    genp = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), GENP)
    failures = 0
    for _ in range(500):
        e = random_homogeneous(genp, rng, max_degree=4, max_terms=3)
        back = genp.normal_form(parse(genp.alphabet, print_element(genp, e)))
        if back != e:
            failures += 1
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "superbracket", "dim", "--theory", "jb", "3"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    cli_ok = proc.returncode == 0 and proc.stdout.strip() == "18"
    report(9, failures == 0 and cli_ok,
           f"parse-print fixpoint on 500 normal forms ({failures} failures); "
           f"dim --theory jb 3 printed {proc.stdout.strip()!r} with exit {proc.returncode}")
