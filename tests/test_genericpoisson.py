from fractions import Fraction
from itertools import product

import pytest

from superbracket.core import AlgebraError, Alphabet, Bracket, Gen, Prod
from superbracket.elements import monomial_factor_count, monomial_parity
from superbracket.engine import GP, DegreeGuardError, FreeAlgebra, GpAlgebra, dim_multilinear
from superbracket import identities
from helpers import max_word_degree, multidegree, random_term, term_parity
from paper_forms import (anticommutativity_residual, double_criterion_residual,
                         jacobi_defect_residual, jordan_gp_residual, supercommutativity_residual)


def normal_forms(algebra, *names):
    return [algebra.normal_form(Gen(n)) for n in names]


def parity_alphabets():
    """One GP algebra per parity pattern of four generators f, h, g, w."""
    for bits in product((0, 1), repeat=4):
        names = list(zip(("f", "h", "g", "w"), bits))
        yield bits, GpAlgebra(Alphabet(names))


class TestNormalForm:
    def test_leibniz_without_derivation_term(self, gp):
        t = Bracket(Gen("x1"), Prod(Gen("x2"), Gen("x3")))
        got = gp.normal_form(t)
        x2, x3 = gp.gen("x2"), gp.gen("x3")
        b12 = gp.bracket(gp.gen("x1"), x2)
        b13 = gp.bracket(gp.gen("x1"), x3)
        assert got == gp.mul(b12, x3) + gp.mul(x2, b13)
        # and only two monomials: no D-term appears
        assert len(got.terms) == 2

    def test_even_self_bracket_vanishes(self, gp):
        assert gp.normal_form(Bracket(Gen("x1"), Gen("x1"))).is_zero()

    def test_nested_bracket_is_single_oriented_atom(self, gp):
        t = Bracket(Bracket(Gen("x1"), Gen("x2")), Gen("x3"))
        e = gp.normal_form(t)
        ((m, c),) = e.terms.items()
        assert c == -1
        assert monomial_factor_count(m) == 1
        word = gp.space.by_key[m[0][0]].word
        assert word == ((2, 1), 3)  # {{x2,x1},x3}, no Jacobi reduction

    def test_bracket_with_unit_vanishes(self, gp):
        assert gp.bracket(gp.gen("x1"), gp.one()).is_zero()
        assert gp.normal_form(Bracket(Gen("x1"), Gen("1"))).is_zero()

    def test_odd_square_atoms_nest(self, gp):
        th = gp.gen("th")
        sq = gp.bracket(th, th)
        assert not sq.is_zero()
        outer = gp.bracket(sq, gp.gen("x1"))
        ((m, _),) = outer.terms.items()
        assert gp.space.by_key[m[0][0]].word == ((4, 4), 1)

    def test_idempotent_and_graded(self, gp, rng):
        for _ in range(25):
            t = random_term(gp.alphabet, rng, depth=3, allow_unit=False)
            e = gp.normal_form(t)
            # re-evaluating the normal form through mul/bracket is stable
            again = gp.zero()
            for m, c in e.terms.items():
                piece = gp.one()
                for key, par, exp in m:
                    atom = gp.space.by_key[key]
                    single = gp.element([(Fraction(1), ((key, par, 1),))])
                    for _k in range(exp):
                        piece = gp.mul(piece, single)
                again = again + piece.scale(c)
            assert again == e
            if e.is_zero():
                continue
            want = multidegree(gp.alphabet, t)
            parw = term_parity(gp.alphabet, t)
            for m in e.terms:
                assert gp.monomial_degrees(m) == want
                par = 0
                for _, p, exp in m:
                    par ^= p & exp & 1
                assert par == parw


class TestIdentities:
    def test_leibniz_and_anticommutativity_random(self, gp, rng):
        gens = [gp.gen(n) for n in gp.alphabet.names()]
        pool = list(gens)
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            e = rng.choice((gp.mul(a, b), gp.bracket(a, b)))
            if len({monomial_parity(m) for m in e.terms}) == 1:
                if max_word_degree(e) <= 4:
                    pool.append(e)
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert identities.residual(identities.LEIBNIZ, gp, a, b, c).is_zero()
            assert anticommutativity_residual(gp, a, b).is_zero()
            assert supercommutativity_residual(gp, a, b).is_zero()


class TestJacobiDefect:
    def test_nonzero_on_even_generators(self, gp):
        d = jacobi_defect_residual(gp, *normal_forms(gp, "x1", "x2", "x3"))
        assert not d.is_zero()
        assert len(d.terms) == 3
        for m in d.terms:
            assert monomial_factor_count(m) == 1

    def test_vanishes_in_lie_bracket_gp_algebra(self):
        # cross-product bracket with the zero product: honest Lie, so the
        # defect evaluates to zero on every basis triple
        from superbracket.concrete import zero_product_algebra
        from superbracket.core import Sum, Var

        one = Fraction(1)
        so3 = zero_product_algebra({
            (0, 1): [(2, one)], (1, 0): [(2, -one)],
            (1, 2): [(0, one)], (2, 1): [(0, -one)],
            (2, 0): [(1, one)], (0, 2): [(1, -one)],
        })
        defect = Sum((
            (Fraction(1), Bracket(Bracket(Var("a"), Var("b")), Var("c"))),
            (Fraction(-1), Bracket(Bracket(Var("a"), Var("c")), Var("b"))),
            (Fraction(-1), Bracket(Var("a"), Bracket(Var("b"), Var("c")))),
        ))
        holds, _ = so3.is_identity(defect)
        assert holds

    def test_repeated_even_argument_vanishes(self, gp):
        x1, x1_again, x3 = normal_forms(gp, "x1", "x1", "x3")
        assert jacobi_defect_residual(gp, x1, x1_again, x3).is_zero()


class TestCriteria:
    def test_criteria_two_and_three_vanish_all_parities(self):
        for bits, algebra in parity_alphabets():
            f, h, g, w = (algebra.gen(n) for n in ("f", "h", "g", "w"))
            assert double_criterion_residual(algebra, 2, f, h, g, w).is_zero(), bits
            assert double_criterion_residual(algebra, 3, f, h, g, w).is_zero(), bits

    def test_criterion_one_survives(self):
        algebra = GpAlgebra(Alphabet([("f", 0), ("h", 0), ("g", 0), ("w", 0)]))
        f, h, g, w = (algebra.gen(n) for n in ("f", "h", "g", "w"))
        assert not double_criterion_residual(algebra, 1, f, h, g, w).is_zero()

    def test_bad_criterion_index(self, gp):
        with pytest.raises(ValueError):
            double_criterion_residual(gp, 4, *normal_forms(gp, "x1", "x2", "x3", "th"))

    def test_jordan_criterion_product_builds(self, gp):
        e = jordan_gp_residual(gp, *normal_forms(gp, "x1", "x2", "x3", "th"))
        assert not e.is_zero()


class TestJson:
    def test_gp_marker(self, gp):
        data = gp.element_to_json(gp.bracket(gp.gen("x1"), gp.gen("x2")))
        assert data["gp"] is True
        assert data["terms"][0]["monomial"][0]["word"] == "{x2,x1}"


class TestEngine:
    def test_gp_algebra_is_the_gp_theory(self, gp):
        free = FreeAlgebra(gp.alphabet, GP)
        t = Bracket(Bracket(Gen("x1"), Prod(Gen("x2"), Gen("th"))), Gen("x3"))
        assert gp.theory == GP
        assert free.element_to_json(free.normal_form(t)) == gp.element_to_json(gp.normal_form(t))

    def test_no_basis_enumeration(self, gp):
        with pytest.raises(AlgebraError):
            gp.basis((0, 1, 0, 0, 0))
        with pytest.raises(AlgebraError):
            dim_multilinear(2, GP)

    def test_atoms_exclude_the_unit(self, gp):
        x1 = gp.alphabet.gen("x1").index
        with pytest.raises(AlgebraError):
            gp.space.get((x1, 0))  # {x1,1} vanishes, so it is no atom

    def test_degree_guard_trips(self):
        algebra = GpAlgebra(Alphabet([("x", 0), ("y", 0)]), max_degree=2)
        x, y = algebra.gen("x"), algebra.gen("y")
        with pytest.raises(DegreeGuardError):
            algebra.mul(algebra.mul(x, x), y)
