from fractions import Fraction
from itertools import product

import pytest

from superbracket.core import AlgebraError, Alphabet
from superbracket.engine import GENP, GP, JB, FreeAlgebra
from superbracket.concrete import SparseOps, wronskian_algebra
from superbracket.farkas import (
    CustomaryPolynomial,
    DegenerateReductionError,
    PoissonPolynomial,
    angle_bracket,
    customary_to_element,
    derivation_defect,
    letter_decompose,
    letter_height,
    reduce_to_customary,
    _to_customary,
)
from superbracket.identities import Twisted
import linalg
from helpers import find_multilinear_identities
from paper_forms import bracket_product_form, left_normed, leftnormed_product_expansion

ONE = Fraction(1)


@pytest.fixture(scope="module")
def alg():
    names = ("x", "y", "z", "w", "v", "u1", "u2", "w1", "w2")
    return FreeAlgebra(Alphabet([(n, 0) for n in names]), GENP)


class TestAngleBracket:
    def test_anticommutative(self, alg):
        x, y = alg.gen("x"), alg.gen("y")
        assert (angle_bracket(alg, x, y) + angle_bracket(alg, y, x)).is_zero()

    def test_with_unit_vanishes(self, alg):
        assert angle_bracket(alg, alg.gen("x"), alg.one()).is_zero()

    def test_vanishes_on_wronskian_tables(self):
        # checked on dense vectors in test_concrete; here through the twist
        # that angle_bracket takes, over the tables' adapter: the Wronskian
        # bracket is D(a)b - aD(b), so <,> collapses by definition
        ops = SparseOps(wronskian_algebra(3))
        angle = Twisted(ops, 1)
        assert not any(angle.bracket(a, b) for a, b in product(ops.basis, repeat=2))

    def test_derivation_in_each_slot(self, alg):
        x, y, z, w = (alg.gen(n) for n in ("x", "y", "z", "w"))
        lhs = angle_bracket(alg, alg.mul(x, y), z)
        rhs = alg.mul(x, angle_bracket(alg, y, z)) + alg.mul(angle_bracket(alg, x, z), y)
        assert lhs == rhs

    def test_requires_genp(self):
        jb = FreeAlgebra(Alphabet([("x", 0), ("y", 0)]), JB)
        with pytest.raises(AlgebraError):
            angle_bracket(jb, jb.gen("x"), jb.gen("y"))


class TestLeftNormed:
    def test_singleton(self, alg):
        assert left_normed(alg, [alg.gen("x")]) == alg.gen("x")

    def test_pair(self, alg):
        assert left_normed(alg, [alg.gen("x"), alg.gen("y")]) == alg.bracket(
            alg.gen("x"), alg.gen("y")
        )

    def test_triple(self, alg):
        x, y, z = alg.gen("x"), alg.gen("y"), alg.gen("z")
        assert left_normed(alg, [x, y, z]) == alg.bracket(alg.bracket(x, y), z)

    def test_empty_rejected(self, alg):
        with pytest.raises(AlgebraError):
            left_normed(alg, [])


class TestProductExpansion:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_engine(self, alg, n):
        ws = [alg.gen(nm) for nm in ("w1", "w2", "v")[:n]]
        lhs = leftnormed_product_expansion(alg, alg.gen("y"), alg.gen("z"), ws)
        rhs = left_normed(alg, [alg.mul(alg.gen("y"), alg.gen("z"))] + ws)
        assert lhs == rhs

    def test_one_letter_closed_form(self, alg):
        y, z, w = alg.gen("y"), alg.gen("z"), alg.gen("w")
        got = leftnormed_product_expansion(alg, y, z, [w])
        want = (
            alg.mul(alg.bracket(y, w), z)
            + alg.mul(y, alg.bracket(z, w))
            + alg.mul(alg.mul(alg.deriv(w), y), z)
        )
        assert got == want

    def test_left_normed_prefix_variant(self, alg):
        # the two-sided word {w1, yz, w2} via a left-normed prefix head
        y, z, w1, w2 = (alg.gen(n) for n in ("y", "z", "w1", "w2"))
        direct = left_normed(alg, [w1, alg.mul(y, z), w2])
        # {w1, yz} = -{yz, w1}; expand that by the lemma, then append w2
        inner = leftnormed_product_expansion(alg, y, z, [w1]).scale(-1)
        assert alg.bracket(inner, w2) == direct


class TestDerivationDefect:
    def test_product_letter(self, alg):
        poly = PoissonPolynomial(alg, alg.mul(alg.gen("x"), alg.gen("w")), ("x", "w"))
        d = derivation_defect(poly, "x")
        ext = d.algebra
        yz = ext.mul(ext.gen("x'"), ext.gen("x''"))
        assert d.element == ext.mul(yz, ext.gen("w")).scale(-1)
        assert d.letters == ("w", "x'", "x''")

    def test_bracket_letter(self, alg):
        poly = PoissonPolynomial(alg, alg.bracket(alg.gen("x"), alg.gen("w")), ("x", "w"))
        d = derivation_defect(poly, "x")
        ext = d.algebra
        want = ext.mul(ext.mul(ext.deriv(ext.gen("w")), ext.gen("x'")), ext.gen("x''"))
        assert d.element == want

    def test_angle_bracket_cofactor_is_derivation(self, alg):
        e = alg.mul(angle_bracket(alg, alg.gen("x"), alg.gen("w")), alg.gen("v"))
        poly = PoissonPolynomial(alg, e, ("x", "w", "v"))
        assert derivation_defect(poly, "x").is_zero()

    def test_undesignated_letter_rejected(self, alg):
        poly = PoissonPolynomial(alg, alg.gen("x"), ("x",))
        with pytest.raises(AlgebraError):
            derivation_defect(poly, "y")

    def test_odd_generators_rejected(self):
        mixed = FreeAlgebra(Alphabet([("x", 0), ("th", 1)]), GENP)
        with pytest.raises(AlgebraError, match="even generators only"):
            PoissonPolynomial(mixed, mixed.gen("x"), ("x",))

    @pytest.mark.parametrize("theory", [JB, GP])
    def test_other_theories_rejected(self, theory):
        # the derivation defect is built in genp, so a jb or gp input would be
        # reduced in the wrong theory
        other = FreeAlgebra(Alphabet([(n, 0) for n in "xyzw"]), theory)
        x, y, z, w = (other.gen(n) for n in "xyzw")
        e = other.bracket(y, other.bracket(z, other.bracket(w, x)))
        with pytest.raises(AlgebraError, match="the reduction runs in the genp theory"):
            PoissonPolynomial(other, e, "xyzw")

    def test_undeclared_letter_rejected(self, alg):
        with pytest.raises(AlgebraError, match="undeclared generator 'q'"):
            PoissonPolynomial(alg, alg.gen("x"), ("x", "q"))

    @pytest.mark.parametrize("letters", [("x", "x", "y"), ("x", "y", "x")])
    def test_duplicate_letter_rejected(self, alg, letters):
        with pytest.raises(AlgebraError, match="letter 'x' is designated twice"):
            PoissonPolynomial(alg, angle_bracket(alg, alg.gen("x"), alg.gen("y")), letters)


class TestHeight:
    def test_bare_letter(self, alg):
        poly = PoissonPolynomial(alg, alg.mul(alg.gen("x"), alg.gen("w")), ("x",))
        assert letter_height(poly, "x") == 1

    def test_two_letter_bracket(self, alg):
        e = alg.mul(alg.bracket(alg.gen("x"), alg.gen("w")), alg.gen("v"))
        poly = PoissonPolynomial(alg, e, ("x",))
        assert letter_height(poly, "x") == 2

    def test_depth_three(self, alg):
        e = alg.bracket(alg.bracket(alg.gen("x"), alg.gen("w")), alg.gen("v"))
        poly = PoissonPolynomial(alg, e, ("x",))
        assert letter_height(poly, "x") == 3

    def test_derivation_factor_counts_length_two(self, alg):
        poly = PoissonPolynomial(alg, alg.mul(alg.deriv(alg.gen("x")), alg.gen("w")), ("x",))
        assert letter_height(poly, "x") == 2

    def test_absent_letter(self, alg):
        poly = PoissonPolynomial(alg, alg.gen("w"), ("x", "w"))
        assert letter_height(poly, "x") == 0


class TestDecompose:
    def test_bare(self, alg):
        poly = PoissonPolynomial(alg, alg.mul(alg.gen("x"), alg.gen("w")), ("x",))
        T, T0, Ti = letter_decompose(poly, "x")
        assert T == alg.gen("w") and T0.is_zero() and not Ti

    def test_derivation_part(self, alg):
        poly = PoissonPolynomial(alg, alg.mul(alg.deriv(alg.gen("x")), alg.gen("w")), ("x",))
        T, T0, Ti = letter_decompose(poly, "x")
        assert T.is_zero() and T0 == alg.gen("w") and not Ti

    def test_mixed_shape(self, alg):
        e = alg.mul(alg.bracket(alg.gen("x"), alg.gen("y")), alg.gen("v")) + alg.mul(
            alg.gen("x"), alg.gen("u1")
        )
        poly = PoissonPolynomial(alg, e, ("x",))
        T, T0, Ti = letter_decompose(poly, "x")
        assert T == alg.gen("u1")
        assert T0.is_zero()
        assert set(Ti) == {"y"} and Ti["y"] == alg.gen("v")

    def test_reconstruction(self, alg, rng):
        gens = [alg.gen(n) for n in ("y", "z", "w", "v")]
        x = alg.gen("x")
        e = alg.zero()
        for _ in range(4):
            shape = rng.choice(["bare", "deriv", "pair"])
            cof = alg.mul(rng.choice(gens), rng.choice(gens))
            if shape == "bare":
                e = e + alg.mul(x, cof)
            elif shape == "deriv":
                e = e + alg.mul(alg.deriv(x), cof)
            else:
                e = e + alg.mul(alg.bracket(x, rng.choice(gens)), cof)
        poly = PoissonPolynomial(alg, e, ("x",))
        T, T0, Ti = letter_decompose(poly, "x")
        rec = alg.mul(x, T) + alg.mul(alg.deriv(x), T0)
        for name, cof in Ti.items():
            rec = rec + alg.mul(alg.bracket(x, alg.gen(name)), cof)
        assert rec == e

    def test_height_three_rejected(self, alg):
        e = alg.bracket(alg.bracket(alg.gen("x"), alg.gen("w")), alg.gen("v"))
        poly = PoissonPolynomial(alg, e, ("x",))
        with pytest.raises(AlgebraError):
            letter_decompose(poly, "x")


class TestCustomary:
    def test_single_pair_expansion(self, alg):
        c = CustomaryPolynomial(("x", "y"), {(((1, 2),), ()): ONE})
        got = customary_to_element(c, alg)
        assert got == angle_bracket(alg, alg.gen("x"), alg.gen("y"))

    def test_single_derivation_factor(self, alg):
        c = CustomaryPolynomial(("x",), {((), (1,)): ONE})
        assert customary_to_element(c, alg) == alg.deriv(alg.gen("x"))

    def test_empty_polynomial(self, alg):
        c = CustomaryPolynomial(("x", "y"), {})
        assert c.is_zero()
        assert customary_to_element(c, alg).is_zero()

    def test_partition_enforced(self):
        with pytest.raises(AlgebraError):
            CustomaryPolynomial(("x", "y"), {(((1, 2),), (2,)): ONE})
        with pytest.raises(AlgebraError):  # True == 1, but to_json would write true
            CustomaryPolynomial(("x", "y"), {(((True, 2),), ()): ONE})

    def test_json_wire_format(self):
        c = CustomaryPolynomial(
            ("a", "b", "c", "d"),
            {(((1, 2),), (3, 4)): ONE},
        )
        data = c.to_json()
        assert data["m"] == 4
        assert data["terms"] == [{"coeff": "1/1", "pairs": [[1, 2]], "D": [3, 4]}]
        assert CustomaryPolynomial.from_json(data) == c

    @pytest.mark.parametrize("data", [
        {},
        [1],
        "x",
        {"m": "x", "terms": []},
        {"m": 2, "letters": "xy", "terms": []},
        {"m": 3, "letters": ["x", "y"], "terms": []},
        {"m": 2, "terms": [5]},
        {"m": 2, "terms": [{"pairs": [[1, 2]]}]},
        {"m": 3, "terms": [{"coeff": "1", "pairs": [[1, 2, 3]], "D": []}]},
        {"m": 2, "terms": [{"coeff": "1", "pairs": [[1, True]]}]},
        {"m": 2, "terms": [{"coeff": "1", "pairs": [[1, 2]], "D": 3}]},
        {"m": 2, "terms": [{"coeff": "x", "pairs": [[1, 2]]}]},
        {"m": 2, "terms": [{"coeff": "1", "pairs": [[2, 1]]}]},
    ])
    def test_malformed_json_is_an_algebra_error(self, data):
        with pytest.raises(AlgebraError):
            CustomaryPolynomial.from_json(data)

    def test_json_terms_sum_and_cancel(self):
        term = {"coeff": "1/2", "pairs": [[1, 2]]}
        c = CustomaryPolynomial.from_json({"m": 2, "terms": [term, term]})
        assert c.letters == ("x1", "x2") and c.terms == {(((1, 2),), ()): 1}
        assert type(c.terms[(((1, 2),), ())]) is int
        minus = dict(term, coeff="-1/2")
        assert CustomaryPolynomial.from_json({"m": 2, "terms": [term, minus]}).is_zero()


class TestReduce:
    def test_already_customary_is_fixed(self, alg):
        e = angle_bracket(alg, alg.gen("x"), alg.gen("y")).scale(Fraction(3, 2))
        poly = PoissonPolynomial(alg, e, ("x", "y"))
        result = reduce_to_customary(poly)
        assert result.customary.letters == ("x", "y")
        assert result.customary.terms == {(((1, 2),), ()): Fraction(3, 2)}

    def test_mixed_customary_fixed(self, alg):
        e = angle_bracket(alg, alg.gen("x"), alg.gen("y")) + alg.mul(
            alg.deriv(alg.gen("x")), alg.deriv(alg.gen("y"))
        ).scale(2)
        poly = PoissonPolynomial(alg, e, ("x", "y"))
        result = reduce_to_customary(poly)
        assert result.customary.terms == {
            (((1, 2),), ()): ONE,
            ((), (1, 2)): Fraction(2),
        }

    def test_single_bracket_reduces_to_derivation_factor(self, alg):
        # {x,y} is not a derivation in either letter; the replacement step
        # leaves D(y), which is customary
        poly = PoissonPolynomial(alg, alg.bracket(alg.gen("x"), alg.gen("y")), ("x", "y"))
        result = reduce_to_customary(poly)
        assert result.customary.letters == ("y",)
        assert result.customary.terms == {((), (1,)): ONE}
        stages = [label.split(":")[0] for label, _ in result.trace]
        assert "drop-letter" in stages

    def test_surviving_bare_letter_is_refused(self, alg):
        # x {y,z} before stage 2: every term of its rewrite keeps a bare letter
        e = alg.mul(alg.gen("x"), alg.bracket(alg.gen("y"), alg.gen("z")))
        with pytest.raises(AlgebraError, match="bare letters survived stage 2"):
            _to_customary(PoissonPolynomial(alg, e, ("x", "y", "z")))

    def test_stage_three_writes_positions_in_generator_order(self, alg):
        # {z,x} = -<x,z> + D(z) x - z D(x); the bare parts cancel against
        # z D(x) - x D(z), and the letters are listed in generator order
        x, z = alg.gen("x"), alg.gen("z")
        e = (alg.bracket(z, x) + alg.mul(z, alg.deriv(x))) - alg.mul(x, alg.deriv(z))
        c = _to_customary(PoissonPolynomial(alg, e, ("z", "x")))
        assert c.letters == ("x", "z") and c.terms == {(((1, 2),), ()): -1}
        assert customary_to_element(c, alg) == e

    @pytest.mark.parametrize("build", [
        lambda a, x, y: a.bracket(x, a.bracket(x, y)),
        lambda a, x, y: a.mul(a.deriv(x), a.deriv(x)) + a.bracket(x, y),
    ], ids=["nested", "exponent"])
    def test_non_multilinear_input_is_refused_before_stage_one(self, alg, build):
        e = build(alg, alg.gen("x"), alg.gen("y"))
        with pytest.raises(AlgebraError, match="polynomial is not multilinear in 'x'"):
            reduce_to_customary(PoissonPolynomial(alg, e, ("x", "y")))

    def test_other_generators_may_repeat(self, alg):
        # w is no letter: w w D(x) D(y) drops out with x in stage 2
        x, y, w = alg.gen("x"), alg.gen("y"), alg.gen("w")
        e = alg.mul(x, alg.deriv(y)) + alg.mul(alg.mul(w, w), alg.mul(alg.deriv(x), alg.deriv(y)))
        result = reduce_to_customary(PoissonPolynomial(alg, e, ("x", "y")))
        assert result.customary.letters == ("y",) and result.customary.terms == {((), (1,)): -1}

    def test_zero_input_degenerate(self, alg):
        poly = PoissonPolynomial(alg, alg.zero(), ("x",))
        with pytest.raises(DegenerateReductionError):
            reduce_to_customary(poly)

    def test_height_reduction_runs(self, alg):
        e = left_normed(alg, [alg.gen("x"), alg.gen("y"), alg.gen("z"), alg.gen("w")])
        poly = PoissonPolynomial(alg, e, ("x", "y", "z", "w"))
        assert letter_height(poly, "y") >= 3
        try:
            result = reduce_to_customary(poly)
        except DegenerateReductionError:
            return  # acceptable outcome; the defect may collapse
        assert any(label.startswith("defect:") for label, _ in result.trace)
        for x in result.customary.letters:
            final = result.trace[-1][1]
            assert letter_height(final, x) <= 2

    def test_wronskian_identity_reduces_soundly(self):
        struct = wronskian_algebra(3)
        candidates = find_multilinear_identities(struct, ("x", "y", "z"))
        assert candidates
        succeeded = False
        for poly in candidates:
            holds, _ = struct.is_identity(poly.identity_term())
            assert holds
            try:
                result = reduce_to_customary(poly)
            except DegenerateReductionError:
                continue
            for _, p in result.trace:
                ok, _ = struct.is_identity(p.identity_term())
                assert ok
            final = customary_to_element(result.customary, result.algebra)
            fin = PoissonPolynomial(result.algebra, final, result.customary.letters)
            ok, _ = struct.is_identity(fin.identity_term())
            assert ok
            succeeded = True
            break
        assert succeeded


class TestBracketProductForm:
    def test_equality_random_customaries(self, rng):
        for m in (2, 3, 4):
            letters = tuple(f"x{i}" for i in range(1, m + 1))
            zs = tuple(f"z{i}" for i in range(1, 2 * m + 1))
            algebra = FreeAlgebra(
                Alphabet([(n, 0) for n in letters + zs]), GENP
            )
            terms = {}
            for _ in range(2):
                pool = list(range(1, m + 1))
                rng.shuffle(pool)
                pairs = []
                while len(pool) >= 2 and rng.random() < 0.8:
                    a, b = pool.pop(), pool.pop()
                    pairs.append((min(a, b), max(a, b)))
                singles = tuple(sorted(pool))
                key = (tuple(sorted(pairs)), singles)
                terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(1, 3), rng.choice([1, 2]))
            c = CustomaryPolynomial(letters, terms)
            lhs = bracket_product_form(c, algebra, zs)
            rhs = customary_to_element(c, algebra)
            for z in zs:
                rhs = algebra.mul(rhs, algebra.gen(z))
            assert lhs == rhs

    def test_needs_enough_letters(self, alg):
        c = CustomaryPolynomial(("x", "y"), {(((1, 2),), ()): ONE})
        with pytest.raises(AlgebraError):
            bracket_product_form(c, alg, ("w1",))

    def test_empty_polynomial_embeds_to_zero(self, alg):
        c = CustomaryPolynomial(("x", "y"), {})
        assert bracket_product_form(c, alg, ("w1", "w2", "v", "z")).is_zero()


class TestDerivationLieHeights:
    """Multilinear Lie polynomials that are derivations in x have x-height
    exactly 2; here the derivation defect has an additional unit-derivation
    term, which makes the defect map injective on the Lie span, so the
    statement holds with the solution space trivial.  The non-vacuous
    content is the injectivity itself: no combination of words of x-height
    above 2 has a vanishing defect."""

    @pytest.mark.parametrize("letters", [("x", "w1"), ("x", "w1", "w2"), ("x", "w1", "w2", "w3")])
    def test_defect_injective_on_multilinear_lie_span(self, letters):
        algebra = FreeAlgebra(Alphabet([(n, 0) for n in letters]), GENP)
        words = []
        for units in (0, 1, 2):
            degs = (units,) + (1,) * len(letters)
            words.extend(algebra.space.basis_words(degs))
        basis_elems = [algebra.word_element(w) for w in words]
        polys = [PoissonPolynomial(algebra, e, letters) for e in basis_elems]
        defects = [derivation_defect(p, "x") for p in polys]
        monomials = sorted({m for d in defects for m in d.element.terms})
        rows = [
            [d.element.terms.get(m, Fraction(0)) for d in defects]
            for m in monomials
        ]
        solutions = [
            s for s in linalg.nullspace(rows, len(defects)) if any(s)
        ]
        # any survivor would have to sit at x-height exactly 2
        for sol in solutions:
            e = algebra.zero()
            for coeff, base in zip(sol, basis_elems):
                e = e + base.scale(coeff)
            assert letter_height(PoissonPolynomial(algebra, e, letters), "x") == 2
        assert not solutions

    def test_pair_word_defect_is_unit_derivation_term(self):
        # the deg-2 word {x,w} misses being a derivation by exactly D(w) y z
        algebra = FreeAlgebra(Alphabet([("x", 0), ("w", 0)]), GENP)
        poly = PoissonPolynomial(
            algebra, algebra.bracket(algebra.gen("x"), algebra.gen("w")), ("x", "w")
        )
        d = derivation_defect(poly, "x")
        ext = d.algebra
        want = ext.mul(
            ext.mul(ext.deriv(ext.gen("w")), ext.gen("x'")), ext.gen("x''")
        )
        assert d.element == want
