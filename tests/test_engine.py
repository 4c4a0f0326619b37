import gc
import hashlib
import math
import time
import weakref
from fractions import Fraction
from itertools import product

import pytest

from superbracket.core import AlgebraError, Alphabet, Bracket, Gen, Prod
from superbracket.elements import monomial_factor_count
from superbracket.engine import (
    GENP,
    GP,
    JB,
    DegreeGuardError,
    FreeAlgebra,
    dim_multilinear,
)
from superbracket import identities
from helpers import free_ops, random_homogeneous, random_term, tuple_key_monomials


# SHA-256 of the bases of every multidegree <= 6 of (1, x1, x2, th:odd), taken
# from the earlier search that tried every candidate word at every step, so
# the output-sensitive search must reproduce its output byte for byte (genp
# and jb agree: both share the Lie word basis)
GOLDEN_BASES = "41913a421389ddb2e53dfd0ee93754165098e94b18db98ca44bedd5613c9a6ab"

TWO_ODD = Alphabet([("x1", 0), ("x2", 0), ("th", 1), ("ph", 1)])


def _multidegrees(size, top):
    return [d for d in product(range(top + 1), repeat=size) if sum(d) <= top]


def _multinomial(degs):
    out = math.factorial(sum(degs))
    for d in degs:
        out //= math.factorial(d)
    return out


def words(algebra, *raw):
    return [algebra.word_element(algebra.space.get(w)) for w in raw]


class TestMul:
    def test_unit_law(self, genp, rng):
        for _ in range(10):
            m = random_homogeneous(genp, rng)
            assert genp.mul(genp.one(), m) == m
            assert genp.mul(m, genp.one()) == m

    def test_odd_square_vanishes(self, genp):
        th = genp.gen("th")
        assert genp.mul(th, th).is_zero()

    def test_even_factors_commute_plainly(self, genp):
        e1 = genp.gen("x1")
        e2 = genp.gen("x2")
        assert genp.mul(e2, e1) == genp.mul(e1, e2)

    def test_two_odd_factors_anticommute(self, genp):
        # theta2 * theta1 = -theta1 theta2, one odd-odd transposition
        th = genp.space.get(4)
        thx1 = genp.space.get((4, 1))  # {th,x1}, odd
        a = genp.word_element(thx1)
        b = genp.word_element(th)
        prod_ba = genp.mul(a, b)  # a > b in the order, so this is the flip
        prod_ab = genp.mul(b, a)
        assert prod_ba == prod_ab.scale(-1)

    def test_supercommutativity_and_associativity(self, genp, rng):
        ops = free_ops(genp)
        for _ in range(25):
            a = random_homogeneous(genp, rng, max_degree=4)
            b = random_homogeneous(genp, rng, max_degree=4)
            c = random_homogeneous(genp, rng, max_degree=3)
            assert identities.supercommutativity_residual(ops, a, b).is_zero()
            assert identities.associativity_residual(ops, a, b, c).is_zero()

    def test_theory_mismatch(self, genp, jb):
        with pytest.raises(AlgebraError):
            genp.mul(genp.gen("x1"), jb.gen("x1"))


class TestBracket:
    def test_bracket_with_unit_is_basis_monomial(self, genp):
        d = genp.bracket(genp.gen("x1"), genp.one())
        (w,) = words(genp, (1, 0))
        assert d == w

    def test_leibniz_example(self, genp):
        # {x1, x2 x3} = -x2{x3,x1} - x3{x2,x1} - x2 x3 {x1,1}
        got = genp.bracket(genp.gen("x1"), genp.mul(genp.gen("x2"), genp.gen("x3")))
        x2, x3 = genp.gen("x2"), genp.gen("x3")
        w31, w21, w10 = words(genp, (3, 1), (2, 1), (1, 0))
        want = (
            genp.mul(x2, w31).scale(-1)
            - genp.mul(x3, w21)
            - genp.mul(genp.mul(x2, x3), w10)
        )
        assert got == want

    def test_leibniz_example_against_two_step_expansion(self, genp):
        # independent route: {a, bc} = {a,b}c + b{a,c} - D(a)bc, then orient
        a, b, c = genp.gen("x1"), genp.gen("x2"), genp.gen("x3")
        direct = genp.bracket(a, genp.mul(b, c))
        assembled = (
            genp.mul(genp.bracket(a, b), c)
            + genp.mul(b, genp.bracket(a, c))
            - genp.mul(genp.mul(genp.deriv(a), b), c)
        )
        assert direct == assembled

    def test_bracket_of_units_is_zero(self, genp):
        assert genp.bracket(genp.one(), genp.one()).is_zero()

    def test_anticommutativity_random(self, genp, jb, rng):
        for algebra in (genp, jb):
            ops = free_ops(algebra)
            for _ in range(20):
                a = random_homogeneous(algebra, rng, max_degree=4)
                b = random_homogeneous(algebra, rng, max_degree=4)
                assert identities.anticommutativity_residual(ops, a, b).is_zero()

    def test_jb_straightening_has_jacobi_part_plus_products(self, jb):
        # {{x3,x2},x1} in the Jordan-bracket theory
        got = jb.bracket(jb.word_element(jb.space.get((3, 2))), jb.gen("x1"))
        jacobi_part = {(((3, 1), 2)): Fraction(1), (((2, 1), 3)): Fraction(-1)}
        seen_products = 0
        for m, c in got.terms.items():
            if monomial_factor_count(m) == 1:
                word = jb.space.by_key[m[0][0]].word
                assert jacobi_part.pop(word) == c
            else:
                seen_products += 1
        assert not jacobi_part
        assert seen_products > 0

    def test_jb_straightening_satisfies_deformed_jacobi(self, jb):
        ops = free_ops(jb)
        u = jb.word_element(jb.space.get((3, 2)))
        v = jb.gen("x1")
        # the defining identity holds exactly on the pieces involved
        res = identities.deformed_jacobi_residual(ops, jb.gen("x3"), jb.gen("x2"), v)
        assert res.is_zero()
        assert not jb.bracket(u, v).is_zero()


class TestMemory:
    @pytest.mark.parametrize("theory", [GENP, JB, GP])
    def test_a_discarded_algebra_is_freed_without_the_cycle_collector(self, theory):
        """The monomial-bracket cache holds term dicts, not elements pointing
        back at the algebra, so reference counting alone frees an algebra
        whose cache is full."""
        gc.disable()
        try:
            algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), theory)
            x1, x2, x3 = (algebra.gen(n) for n in ("x1", "x2", "x3"))
            # the jb straightening {{x3,x2},x1}, Leibniz against x2 x3 and
            # brackets with the unit, each a filled cache entry
            algebra.bracket(algebra.bracket(x3, x2), x1)
            algebra.bracket(x1, algebra.mul(x2, x3))
            algebra.bracket(algebra.one(), algebra.mul(algebra.gen("th"), x1))
            assert len(algebra._mono_bracket_cache) > 5
            ref = weakref.ref(algebra)
            del algebra, x1, x2, x3
            assert ref() is None
        finally:
            gc.enable()


class TestJacobiExhaustive:
    def test_super_jacobi_on_generators_and_pairs(self, genp):
        """Exhaustive super-Jacobi over the generators, the unit, and every
        length-two basis word, expanded bilinearly through the engine."""
        ops = free_ops(genp)
        elems = [genp.one()] + [genp.gen(n) for n in genp.alphabet.names()]
        for degs in product(range(2), repeat=genp.alphabet.size):
            if sum(degs) == 2:
                elems.extend(genp.word_element(w) for w in genp.space.basis_words(degs))
        assert len(elems) > 10
        for a, b, c in product(elems, repeat=3):
            assert identities.jacobi_residual(ops, a, b, c).is_zero()

    def test_jb_identities_on_basis_words(self, rng):
        """Both Jordan-bracket axioms on random triples of basis words up to
        degree 4 over one even and one odd generator."""
        jb = FreeAlgebra(Alphabet([("x1", 0), ("th", 1)]), JB)
        ops = free_ops(jb)
        elems = [jb.one()]
        for degs in product(range(5), repeat=3):
            if 1 <= sum(degs) <= 4:
                elems.extend(jb.word_element(w) for w in jb.space.basis_words(degs))
        for _ in range(120):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert identities.deformed_leibniz_residual(ops, a, b, c).is_zero()
            assert identities.deformed_jacobi_residual(ops, a, b, c).is_zero()


class TestDeriv:
    def test_deriv_of_unit(self, genp):
        assert genp.deriv(genp.one()).is_zero()

    def test_deriv_of_generator(self, genp):
        (w,) = words(genp, (1, 0))
        assert genp.deriv(genp.gen("x1")) == w

    def test_leibniz_for_deriv(self, genp):
        a, b = genp.gen("x1"), genp.gen("x2")
        got = genp.deriv(genp.mul(a, b))
        want = genp.mul(genp.deriv(a), b) + genp.mul(a, genp.deriv(b))
        assert got == want

    def test_even_derivation_random(self, genp, jb, rng):
        for algebra in (genp, jb):
            for _ in range(15):
                a = random_homogeneous(algebra, rng, max_degree=4)
                b = random_homogeneous(algebra, rng, max_degree=4)
                lhs = algebra.deriv(algebra.mul(a, b))
                rhs = algebra.mul(algebra.deriv(a), b) + algebra.mul(a, algebra.deriv(b))
                assert lhs == rhs


class TestNormalForm:
    def test_bracket_word(self, genp):
        t = Bracket(Gen("x1"), Gen("1"))
        (w,) = words(genp, (1, 0))
        assert genp.normal_form(t) == w

    def test_nested_bracket_stays_in_lie_span(self, genp):
        t = Bracket(Gen("x1"), Bracket(Gen("x2"), Gen("x3")))
        e = genp.normal_form(t)
        assert not e.is_zero()
        for m in e.terms:
            assert monomial_factor_count(m) == 1  # no product monomials
        ops = free_ops(genp)
        res = identities.jacobi_residual(ops, genp.gen("x1"), genp.gen("x2"), genp.gen("x3"))
        assert res.is_zero()

    def test_product_with_square(self, genp):
        t = Prod(Prod(Gen("x1"), Gen("x1")), Gen("th"))
        e = genp.normal_form(t)
        (m, c), = e.terms.items()
        assert c == 1
        assert [(genp.space.by_key[k].word, exp) for k, _, exp in m] == [(1, 2), (4, 1)]

    def test_deep_chain_is_one_word_in_linear_time(self):
        # {...{x,y},...,y} of 2400 levels: each level joins the word below it
        # once, at the cost of an int key, so depth adds no quadratic walk
        algebra = FreeAlgebra(Alphabet([("x", 0), ("y", 0)]), GENP)
        t = Gen("x")
        for _ in range(2400):
            t = Bracket(t, Gen("y"))
        t0 = time.perf_counter()
        e = algebra.normal_form(t)
        assert time.perf_counter() - t0 < 0.6
        ((m, c),) = e.terms.items()
        assert c == -1 and algebra.space.by_key[m[0][0]].length == 2401

    def test_grading_preserved_outside_unit(self, genp, rng):
        for _ in range(30):
            t = random_term(genp.alphabet, rng, depth=3, allow_unit=False)
            from superbracket.core import multidegree, term_parity

            e = genp.normal_form(t)
            if e.is_zero():
                continue
            want_deg = multidegree(genp.alphabet, t)
            want_par = term_parity(genp.alphabet, t)
            for m in e.terms:
                got = genp.monomial_degrees(m)
                assert got[1:] == want_deg[1:]  # unit count may differ
                par = 0
                for _, p, exp in m:
                    par ^= p & exp & 1
                assert par == want_par


class TestSubstitute:
    def test_defining_identity_vanishes(self, genp):
        ops = free_ops(genp)
        gens = [genp.gen(n) for n in genp.alphabet.names()]
        for a, b, c in product(gens[:2], gens[1:3], gens[2:]):
            assert identities.deformed_leibniz_residual(ops, a, b, c).is_zero()

    def test_deformed_jacobi_zero_under_jb_nonzero_under_genp(self, genp, jb):
        for algebra, expect_zero in ((jb, True), (genp, False)):
            ops = free_ops(algebra)
            a, b, c = (algebra.gen(n) for n in ("x1", "x2", "x3"))
            res = identities.deformed_jacobi_residual(ops, a, b, c)
            assert res.is_zero() == expect_zero

    def test_var_binding(self, genp):
        from superbracket.core import Var

        t = Bracket(Var("a"), Var("b"))
        e = genp.substitute(t, {"a": genp.gen("x2"), "b": genp.gen("x1")})
        assert e == genp.bracket(genp.gen("x2"), genp.gen("x1"))

    def test_unbound_var(self, genp):
        from superbracket.core import Var

        with pytest.raises(AlgebraError):
            genp.substitute(Bracket(Var("a"), Gen("x1")), {})

    def test_inhomogeneous_binding_rejected(self, genp):
        from superbracket.core import Var

        mixed = genp.gen("x1") + genp.gen("th")
        with pytest.raises(AlgebraError):
            genp.substitute(Bracket(Var("a"), Gen("x1")), {"a": mixed})


class TestTwist:
    """The derivation twist through :class:`identities.Twisted`: c = -1 turns
    the jb bracket into a genp one with derivation 2D, c = 1/2 turns it back."""

    def test_twisted_bracket_of_generator_and_unit(self, jb):
        twist = identities.Twisted(identities.ElementOps(jb), -1)
        got = twist.bracket(jb.gen("x1"), jb.one())
        assert got == jb.deriv(jb.gen("x1")).scale(2)
        assert got == twist.deriv(jb.gen("x1"))

    def test_reduces_to_bracket_when_derivs_vanish(self, jb):
        twist = identities.Twisted(identities.ElementOps(jb), -1)
        # the unit has zero derivation
        assert twist.bracket(jb.one(), jb.one()).is_zero()
        th = jb.gen("th")
        sq = jb.bracket(th, th)
        # D is a derivation of the bracket up to the Jordan-bracket term:
        # D({th,th}) = 2{D(th),th}, not zero
        assert jb.deriv(sq) == jb.bracket(jb.deriv(th), th).scale(2)
        assert not jb.deriv(sq).is_zero()
        a = jb.one()
        assert twist.bracket(a, a) == jb.bracket(a, a)

    def test_twisted_bracket_satisfies_genp_identities(self, jb):
        twist = identities.Twisted(identities.ElementOps(jb), -1)
        gens = [jb.gen(n) for n in jb.alphabet.names()] + [jb.one()]
        for a, b, c in product(gens, repeat=3):
            assert identities.deformed_leibniz_residual(twist, a, b, c).is_zero()
            assert identities.jacobi_residual(twist, a, b, c).is_zero()

    def test_untwist_round_trip(self, jb):
        untwist = identities.Twisted(identities.Twisted(identities.ElementOps(jb), -1),
                                     Fraction(1, 2))
        gens = [jb.gen(n) for n in jb.alphabet.names()]
        for a in gens:
            for b in gens:
                assert untwist.bracket(a, b) == jb.bracket(a, b)
                assert untwist.deriv(a) == jb.deriv(a)

    def test_untwist_with_zero_derivation_is_identity(self, gp):
        # D vanishes in gp, so every twist leaves the bracket as it is
        a, b = gp.gen("x1"), gp.gen("x2")
        assert identities.Twisted(identities.ElementOps(gp), Fraction(1, 2)).bracket(a, b) \
            == gp.bracket(a, b)

    def test_twisted_derivations_derive_the_product(self, jb):
        gens = [jb.gen(n) for n in jb.alphabet.names()] + [jb.one()]
        for c in (-1, Fraction(1, 2), 1):
            ops = identities.Twisted(identities.ElementOps(jb), c)
            for a, b in product(gens, repeat=2):
                assert identities.derivation_residual(ops, a, b).is_zero()
        # a bracket with a fixed element is no derivation of the product
        bad = identities.ElementOps(jb)
        bad.deriv = lambda x: jb.bracket(x, jb.gen("x1"))
        assert any(not identities.derivation_residual(bad, a, b).is_zero()
                   for a, b in product(gens, repeat=2))


class TestEnumeration:
    def test_unit_letter_pair(self, genp):
        monos = genp.basis((1, 1, 0, 0, 0))
        assert len(monos) == 1
        (m,) = monos
        assert [genp.space.by_key[k].word for k, _, _ in m] == [(1, 0)]

    def test_unit_two_letters(self):
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0)]), GENP)
        monos = algebra.basis((1, 1, 1))
        rendered = set()
        for m in monos:
            rendered.add(tuple(algebra.space.render(algebra.space.by_key[k].word) for k, _, _ in m))
        assert rendered == {
            ("x2", "{x1,1}"),
            ("x1", "{x2,1}"),
            ("{{x1,1},x2}",),
            ("{{x2,1},x1}",),
        }
        assert len(monos) == 4

    def test_single_letter(self, genp):
        monos = genp.basis((0, 1, 0, 0, 0))
        assert [[genp.space.by_key[k].word for k, _, _ in m] for m in monos] == [[1]]

    def test_odd_exponent_capped(self, genp):
        # th^2 is not a basis monomial: the square {th,th} is the only one
        square = genp.space.get((4, 4))
        assert genp.basis((0, 0, 0, 0, 2)) == (((square.key, 0, 1),),)

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 18)])
    def test_dimensions(self, n, expected):
        assert dim_multilinear(n, GENP) == expected
        assert dim_multilinear(n, JB) == expected
        assert expected == n * math.factorial(n)
        assert expected == math.factorial(n + 1) - math.factorial(n)

    def test_dimension_six(self):
        # 2,371 candidate words: the enumeration must not recurse per word
        assert dim_multilinear(6) == 6 * math.factorial(6) == 4320

    def test_dimension_seven(self):
        assert dim_multilinear(7, GENP) == dim_multilinear(7, JB) == 7 * math.factorial(7) == 35280

    def test_single_letter_power(self):
        # one factor with exponent 3000: one recursion level, and no O(k^2)
        # walk over the splits of a one-letter multidegree
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("th", 1)]), GENP)
        t0 = time.perf_counter()
        monos = algebra.basis((0, 3000, 0, 0))
        assert time.perf_counter() - t0 < 1.0
        assert monos == (((algebra.space.leaf("x1").key, 0, 3000),),)

    @pytest.mark.parametrize("theory", [GENP, JB])
    def test_golden_bases(self, theory):
        """The bases of every multidegree <= 6 of (1, x1, x2, th), hashed in
        order: the enumeration and the order of its output are pinned.  The
        hash was taken with the factor keys written as nested tuples, so the
        oracle writes each int key back that way."""
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("th", 1)]), theory)
        digest = hashlib.sha256()
        for degs in _multidegrees(4, 6):
            basis = tuple_key_monomials(algebra, algebra.basis(degs))
            digest.update(repr(basis).encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_BASES

    @pytest.mark.parametrize("theory", [GENP, JB])
    @pytest.mark.parametrize("gens,top", [
        ([("x1", 0), ("x2", 0), ("th", 1)], 6),
        ([("x", 0), ("s", 1), ("t", 1)], 5),
    ], ids=["x1-x2-th", "x-s-t"])
    def test_pbw_counts(self, theory, gens, top):
        """By PBW the basis has the graded dimension of the tensor algebra on
        the letters, less the monomials carrying a bare unit factor."""
        algebra = FreeAlgebra(Alphabet(gens), theory)
        for degs in _multidegrees(len(gens) + 1, top):
            monos = algebra.basis(degs)
            want = _multinomial(degs) - (_multinomial((degs[0] - 1,) + degs[1:]) if degs[0] else 0)
            assert len(monos) == len(set(monos)) == want, degs
            for m in monos:
                assert algebra.monomial_degrees(m) == degs
                assert all(exp == 1 for _, par, exp in m if par), m


class TestGuard:
    def test_degree_guard_trips(self):
        algebra = FreeAlgebra(Alphabet([("x1", 0)]), GENP, max_degree=4)
        x = algebra.gen("x1")
        acc = x
        with pytest.raises(DegreeGuardError):
            for _ in range(10):
                acc = algebra.mul(acc, algebra.deriv(x))

    @pytest.mark.parametrize("theory", [GENP, JB, GP])
    def test_guard_trips_inside_a_bracket_against_a_product(self, theory):
        """{x, y^3} expands by Leibniz into {x,y}y^2, of degree 4 > 3: the
        guard trips in the expansion, although y^3 itself fits, and the
        half-built bracket is not cached, so asking again raises again."""
        algebra = FreeAlgebra(Alphabet([("x", 0), ("y", 0)]), theory, max_degree=3)
        x, y = algebra.gen("x"), algebra.gen("y")
        y3 = algebra.mul(algebra.mul(y, y), y)
        for _ in range(2):
            with pytest.raises(DegreeGuardError):
                algebra.bracket(x, y3)

    @pytest.mark.parametrize("theory,src,degree", [
        (GENP, "{{x,y},{x,th}}*x", 5),
        (GENP, "{x*y*th, {x,y}*y}", 7),
        (GENP, "D(x)*D(y)*{x,th}", 6),
        (JB, "{{x,y},{x,th}}*x", 5),
        (JB, "{x*y*th, {x,y}*y}", 7),
        (JB, "{{x,{y,1}},{th,th}}", 7),
        (GP, "{{x,y},{x,th}}*x", 5),
        (GP, "{x*y*th, {x,y}*y}", 6),
    ], ids=["genp-product", "genp-leibniz", "genp-derivations", "jb-product", "jb-leibniz",
            "jb-odd-square", "gp-product", "gp-leibniz"])
    def test_guard_trips_at_the_highest_degree_reached(self, theory, src, degree):
        """The guard bound below which each term fails to normalize: the
        word degree of the largest monomial its evaluation builds."""
        from superbracket.cli import parse

        alphabet = Alphabet([("x", 0), ("y", 0), ("th", 1)])
        term = parse(alphabet, src)
        FreeAlgebra(alphabet, theory, max_degree=degree).normal_form(term)
        with pytest.raises(DegreeGuardError):
            FreeAlgebra(alphabet, theory, max_degree=degree - 1).normal_form(term)


class TestSerialization:
    def test_element_json_shape(self, genp):
        e = genp.bracket(genp.gen("x1"), genp.mul(genp.gen("x2"), genp.gen("x2")))
        data = genp.element_to_json(e)
        assert isinstance(data, list)
        for item in data:
            assert set(item) == {"coeff", "monomial"}
            num, den = item["coeff"].split("/")
            int(num), int(den)
            for f in item["monomial"]:
                assert set(f) == {"word", "exp"}

    def test_unit_serializes_to_empty_monomial(self, genp):
        assert genp.element_to_json(genp.one()) == [{"coeff": "1/1", "monomial": []}]

    def test_round_trip(self, genp, rng):
        for _ in range(15):
            e = random_homogeneous(genp, rng, max_degree=4)
            back = genp.element_from_json(genp.element_to_json(e))
            assert back == e

    def test_unit_word_factor_is_the_unit(self, genp, jb, gp):
        for algebra in (genp, jb, gp):
            data = [{"coeff": "1", "monomial": [{"word": "1"}, {"word": "x1"}]},
                    {"coeff": "2", "monomial": [{"word": "1", "exp": 3}]}]
            want = algebra.gen("x1") + algebra.one().scale(2)
            assert algebra.element_from_json(data) == want

    @pytest.mark.parametrize("factors, message", [
        (["x2", "x1"], "'x1' is out of canonical order"),
        (["x1", "x1"], "'x1' repeats"),
        (["ph", "th"], "'th' is out of canonical order"),
        (["th", "th"], "'th' repeats"),
    ], ids=["even-out-of-order", "even-repeated", "odd-out-of-order", "odd-repeated"])
    def test_non_canonical_factor_order_rejected(self, factors, message):
        # the reader takes monomials as element_to_json writes them: strictly
        # increasing words, a repeated word written once with its exponent
        algebra = FreeAlgebra(TWO_ODD, GENP)
        data = [{"coeff": "1", "monomial": [{"word": w} for w in factors]}]
        with pytest.raises(AlgebraError, match=message):
            algebra.element_from_json(data)

    def test_canonical_factor_order_accepted(self):
        algebra = FreeAlgebra(TWO_ODD, GENP)
        for a, b in (("x1", "x2"), ("th", "ph")):
            data = [{"coeff": "1", "monomial": [{"word": a}, {"word": b}]}]
            assert algebra.element_from_json(data) == algebra.mul(algebra.gen(a), algebra.gen(b))

    def test_bad_exponent_rejected(self, genp):
        for factor in ({"word": "x1", "exp": 0}, {"word": "th", "exp": 2}):
            with pytest.raises(AlgebraError):
                genp.element_from_json([{"coeff": "1", "monomial": [factor]}])

    @pytest.mark.parametrize("exp", ["z", -4, 0], ids=["not-a-number", "negative", "zero"])
    def test_unit_word_exponent_checked(self, genp, jb, gp, exp):
        # the unit word is skipped as a factor only after its exponent passes
        for algebra in (genp, jb, gp):
            for monomial in ([{"word": "1", "exp": exp}, {"word": "x1"}],
                             [{"word": "1", "exp": exp}]):
                with pytest.raises(AlgebraError, match="bad exponent"):
                    algebra.element_from_json([{"coeff": "1", "monomial": monomial}])

    @pytest.mark.parametrize("data", [
        [{"coeff": "1"}],
        [{"monomial": [{"word": "x1"}]}],
        [{"coeff": "1", "monomial": [{"exp": 1}]}],
        [{"coeff": "1", "monomial": [{"word": "x1", "exp": "z"}]}],
        ["x"],
        5,
    ], ids=["no-monomial", "no-coeff", "no-word", "exp-not-a-number", "term-not-an-object",
            "not-a-list"])
    def test_malformed_json_rejected(self, genp, data):
        with pytest.raises(AlgebraError):
            genp.element_from_json(data)

    def test_gp_round_trip(self, gp, rng):
        e = gp.bracket(gp.gen("x1"), gp.gen("x2"))
        assert gp.element_from_json(gp.element_to_json(e)) == e
        for _ in range(10):
            e = random_homogeneous(gp, rng, max_degree=4)
            data = gp.element_to_json(e)
            assert data["gp"] is True
            assert gp.element_from_json(data) == e

    @pytest.mark.parametrize("data", [
        {"gp": True, "terms": [], "extra": 1},
        {"gp": 1, "terms": []},
        {"terms": []},
        {"gp": True, "terms": "x1"},
    ], ids=["extra-key", "gp-not-true", "no-gp", "terms-not-a-list"])
    def test_malformed_gp_wrapper_rejected(self, gp, data):
        with pytest.raises(AlgebraError):
            gp.element_from_json(data)

    def test_gp_wrapper_rejected_off_gp(self, genp):
        with pytest.raises(AlgebraError):
            genp.element_from_json({"gp": True, "terms": genp.element_to_json(genp.gen("x1"))})


class TestConfluence:
    def test_item5_vs_first_factor_route_sample(self, genp, jb, rng):
        for algebra in (genp, jb):
            for _ in range(20):
                a = random_homogeneous(algebra, rng, max_degree=3, max_terms=1)
                b = random_homogeneous(algebra, rng, max_degree=2, max_terms=1)
                c = random_homogeneous(algebra, rng, max_degree=2, max_terms=1)
                pa, pb = a.parity(), b.parity()
                s = -1 if (pa & pb) else 1
                route1 = algebra.bracket(a, algebra.mul(b, c))
                route2 = (
                    algebra.mul(algebra.bracket(a, b), c)
                    + algebra.mul(b, algebra.bracket(a, c)).scale(s)
                    - algebra.mul(algebra.mul(algebra.deriv(a), b), c)
                )
                assert route1 == route2, (algebra.theory)
