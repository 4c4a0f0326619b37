"""The coefficient invariant: an ``int``, or a Fraction with denominator > 1.

Differential and property tests pin the integer path to the Fraction path:
the same inputs carried as Fractions (including integral ones, which the
package never builds itself) must give equal answers, and every coefficient
the engine or a structure algebra hands back must satisfy the invariant.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superbracket import concrete, identities, kantor
from superbracket.core import AlgebraError, Sum, scalar
from superbracket.elements import Element, add_terms
from helpers import random_homogeneous, random_term

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
seeds = st.integers(0, 2**32 - 1)
proper = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 6)).filter(
    lambda q: q.denominator > 1
)


def invariant(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_invariant(e: Element):
    bad = [c for c in e.terms.values() if not invariant(c)]
    assert not bad, bad


def as_fractions(e: Element) -> Element:
    """The same element with every coefficient a Fraction, integral ones included."""
    return Element(e.algebra, {m: Fraction(c) for m, c in e.terms.items()})


@pytest.fixture(params=["genp", "jb", "gp"])
def algebra(request):
    return request.getfixturevalue(request.param)


class TestScalar:
    def test_int_comes_back_unchanged(self):
        big = 10**30 + 7
        assert scalar(big) is big

    @pytest.mark.parametrize("value", [Fraction(6, 3), "6/3", "2", 2])
    def test_integral_values_become_int(self, value):
        c = scalar(value)
        assert type(c) is int and c == 2

    @pytest.mark.parametrize("value", [Fraction(3, 2), "3/2", "6/4"])
    def test_proper_fractions_stay_fractions(self, value):
        assert scalar(value) == Fraction(3, 2) and type(scalar(value)) is Fraction

    def test_a_minus_sign_leads(self):
        assert scalar("-6/4") == Fraction(-3, 2) and scalar("-0") == 0 and scalar("-7") == -7

    @pytest.mark.parametrize("value", [True, False, 0.5, None, "x", "1/0", "\u0661", "\u0663/2",
                                       "1_0", " 1", "1 ", "1/ 2", "+1", "1/-2", "1/", "-", "",
                                       "1.5", "1e3"])
    def test_rejected(self, value):
        with pytest.raises(AlgebraError):
            scalar(value)

    def test_coefficient_of_a_missing_monomial_is_int_zero(self, genp):
        # a sum that cancels drops the monomial instead of storing Fraction(0)
        half = genp.gen("x1").scale(Fraction(1, 2))
        assert (half + half.scale(-1)).terms == {}


class TestFreeEngine:
    @SETTINGS
    @given(seed=seeds, q=proper)
    def test_scaling_commutes_with_the_operations(self, algebra, seed, q):
        rng = random.Random(seed)
        a = random_homogeneous(algebra, rng, max_degree=3, max_terms=2)
        b = random_homogeneous(algebra, rng, max_degree=2, max_terms=2)
        for op in (algebra.bracket, algebra.mul):
            scaled = op(a.scale(q), b)
            assert scaled == op(a, b).scale(q)
            assert_invariant(scaled)
        assert algebra.deriv(a.scale(q)) == algebra.deriv(a).scale(q)

    @SETTINGS
    @given(seed=seeds)
    def test_fraction_inputs_give_the_int_answer(self, algebra, seed):
        rng = random.Random(seed)
        a = random_homogeneous(algebra, rng, max_degree=3, max_terms=2)
        b = random_homogeneous(algebra, rng, max_degree=2, max_terms=2)
        fa, fb = as_fractions(a), as_fractions(b)
        for op in (algebra.bracket, algebra.mul):
            want = op(a, b)
            got = op(fa, fb)
            assert got == want
            assert_invariant(want)
            assert_invariant(got)
        assert_invariant(fa + fb)
        assert_invariant(fa.scale(1))

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(-2, 5)])
    def test_a_shared_bracket_stays_unchanged(self, algebra, q):
        """Scalars q and 1/q on one-term operands multiply to 1, so the
        bracket is the unscaled one, with int coefficients, and may hold the
        algebra's cached term dict, which the two orders of an odd pair may
        share; what callers then build from it leaves both as they were."""
        x, y, th = algebra.gen("x1"), algebra.gen("x2"), algebra.gen("th")
        yyth, thx = algebra.mul(algebra.mul(y, y), th), algebra.mul(th, x)
        for a, b in ((x, yyth), (yyth, x), (th, thx), (thx, th)):
            plain = algebra.bracket(a, b)
            got = algebra.bracket(a.scale(q), b.scale(1 / q))
            assert got.terms and got == plain
            assert all(type(c) is int for c in got.terms.values())
            before = {(a, b): dict(plain.terms), (b, a): dict(algebra.bracket(b, a).terms)}
            for derived in (-got, got.scale(q), got + x, got - got, got * x):
                assert_invariant(derived)
            for (left, right), terms in before.items():
                assert algebra.bracket(left, right).terms == terms
                assert algebra.bracket(left.scale(q), right.scale(1 / q)).terms == terms

    @SETTINGS
    @given(seed=seeds, q=proper)
    def test_normal_form(self, algebra, seed, q):
        rng = random.Random(seed)
        t1 = random_term(algebra.alphabet, rng)
        t2 = random_term(algebra.alphabet, rng)
        # q + (1 - q) is an integral Fraction sum inside one combine
        e = algebra.normal_form(Sum(((q, t1), (1 - q, t1), (Fraction(4, 2), t2))))
        assert_invariant(e)
        assert e == algebra.normal_form(Sum(((1, t1), (2, t2))))

    @SETTINGS
    @given(seed=seeds, k=st.integers(1, 7))
    def test_json_round_trip(self, genp, jb, seed, k):
        # gp writes the {"gp": true} wrapper, which no loader reads
        rng = random.Random(seed)
        for algebra in (genp, jb):
            e = random_homogeneous(algebra, rng, max_degree=3)
            data = algebra.element_to_json(e)
            for item in data:
                num, den = item["coeff"].split("/")
                item["coeff"] = f"{k * int(num)}/{k * int(den)}"
            back = algebra.element_from_json(data)
            assert back == e
            assert_invariant(back)

    def test_twist_and_untwist(self, jb, rng):
        twist = identities.Twisted(jb, -1)
        untwist = identities.Twisted(twist, Fraction(1, 2))
        for _ in range(10):
            a = random_homogeneous(jb, rng, max_degree=2, max_terms=2)
            b = random_homogeneous(jb, rng, max_degree=2, max_terms=2)
            twisted = twist.bracket(a, b)
            back = untwist.bracket(a, b)
            assert back == jb.bracket(a, b)
            assert_invariant(twisted)
            assert_invariant(back)


class TestNoZeroStored:
    """Every sum and scaled copy keeps the invariant: a zero is never
    stored, and an integral Fraction is stored as an int."""

    def test_the_accumulator(self):
        assert add_terms({}, [("a", 0), ("b", 2)], 0) == {}
        assert add_terms({}, [("a", 0), ("b", 2)]) == {"b": 2}
        assert add_terms({"a": 1, "b": 2}, [("a", 1)], -1) == {"b": 2}
        got = add_terms({"a": Fraction(1, 2)}, [("a", Fraction(1, 6)), ("b", Fraction(3, 4))], 3)
        assert got == {"a": 1, "b": Fraction(9, 4)} and type(got["a"]) is int

    def test_zero_coefficients_give_the_zero_element(self, algebra):
        m = algebra.gen("x1").monomials()[0][0]
        m2 = algebra.mul(algebra.gen("x2"), algebra.gen("th")).monomials()[0][0]
        e = algebra.element([(0, m), ("0/3", m2)])
        assert e == algebra.zero() and e.is_zero()
        assert algebra.element([(1, m), (-1, m), (Fraction(0), m2)]).is_zero()

    def test_zero_json_coefficient_gives_zero(self, algebra):
        data = [{"coeff": "0/1", "monomial": [{"word": "x1"}]}]
        assert algebra.element_from_json(data).is_zero()

    def test_a_cancelled_key_is_removed(self, algebra):
        x, y = algebra.gen("x1"), algebra.gen("x2")
        assert (x + (-x)).terms == {} and (x - x).terms == {}
        assert (x + y) - x == y and len(((x + y) - x).terms) == 1
        assert x.scale(0).terms == {} and algebra.bracket(x, x).terms == {}
        # x y - y x cancels inside the product's merge loop
        assert algebra.mul(x + y, x - y) == algebra.mul(x, x) - algebra.mul(y, y)
        assert len(algebra.mul(x + y, x - y).terms) == 2

    def test_integral_fraction_sums_and_products_are_ints(self, algebra):
        x, y = algebra.gen("x1"), algebra.gen("x2")
        half, two = Fraction(1, 2), Fraction(2)
        xy = algebra.mul(x, y)
        for e in (x.scale(half) + x.scale(half),
                  x.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
                  algebra.mul(x.scale(half), y.scale(two)),
                  algebra.bracket((x + y).scale(half), (x + xy).scale(two)),
                  algebra.element([(half, xy.monomials()[0][0])] * 2)):
            assert e.terms and all(type(c) is int for c in e.terms.values()), e.terms

    def test_unit_scales_keep_int_coefficients(self, algebra):
        x, y = algebra.gen("x1"), algebra.gen("x2")
        e = (algebra.mul(x, y) + x.scale(3)) - y
        for k in (Fraction(1), -1, Fraction(-1), "1/1", "-2/2"):
            got = e.scale(k)
            assert got == (e if k in (1, "1/1") else -e)
            assert got.terms and all(type(c) is int for c in got.terms.values()), got.terms

    def test_twists_with_a_zero_derivation(self, genp):
        """Twisted(ops, 1) scales the derivation by 1 - 1 = 0."""
        x = genp.gen("x1")
        assert identities.Twisted(genp, 1).deriv(x).terms == {}
        ops = concrete.SparseOps(concrete.euler_wronskian_algebra(3))
        twisted = identities.Twisted(ops, 1)
        assert [twisted.deriv(v) for v in ops.basis] == [(), (), ()]

    def test_sparse_combinations(self):
        ops = concrete.SparseOps(concrete.euler_wronskian_algebra(3))
        v = ((1, 2), (2, Fraction(1, 2)))
        assert ops.combine([(0, v)]) == ()
        assert ops.combine([(1, v), (-1, v)]) == ()
        assert ops.combine([(1, v), (-1, ((1, 2),))]) == ((2, Fraction(1, 2)),)
        got = ops.combine([(2, v), (Fraction(1, 2), ((1, 2),))])
        assert got == ((1, 5), (2, 1)) and all(type(c) is int for _, c in got)
        half = ops.mul(((1, Fraction(1, 2)),), ((1, 2),))
        assert half == ((2, 1),) and type(half[0][1]) is int


BUILTINS = [
    concrete.wronskian_algebra(3),
    concrete.wronskian_algebra(4),
    concrete.euler_wronskian_algebra(3),
    concrete.untwisted_algebra(concrete.euler_wronskian_algebra(3)),
    concrete.nonlie_example_algebra(),
    concrete.adjoin_unit(concrete.nonlie_example_algebra()),
    concrete.zero_bracket_poisson(3),
]


def _inflate(data, k):
    """Rewrite every "p/q" coefficient of an algebra's JSON as "kp/kq"."""
    def big(s):
        num, den = s.split("/")
        return f"{k * int(num)}/{k * int(den)}"

    out = json.loads(json.dumps(data))
    for table in ("product", "bracket"):
        out[table] = {key: [[t, big(c)] for t, c in row] for key, row in out[table].items()}
    if "unit" in out:
        out["unit"] = [big(c) for c in out["unit"]]
    return out


def _with_fraction_tables(alg):
    """A copy whose tables and unit hold Fractions, integral ones included,
    set past the loader's normalization."""
    forced = concrete.StructureAlgebra.from_json(alg.to_json())
    for name in ("product", "bracket_table"):
        table = getattr(forced, name)
        setattr(forced, name, {key: tuple((t, Fraction(c)) for t, c in row)
                               for key, row in table.items()})
    if forced.unit is not None:
        forced.unit = tuple(Fraction(x) for x in forced.unit)
    return forced


class TestStructureTables:
    def test_builtin_integer_tables_hold_ints(self):
        for alg in (concrete.wronskian_algebra(4), concrete.euler_wronskian_algebra(4)):
            coeffs = [c for row in alg.product.values() for _, c in row]
            coeffs += [c for row in alg.bracket_table.values() for _, c in row]
            assert all(type(c) is int for c in coeffs + list(alg.unit))

    def test_half_tables_stay_exact(self):
        alg = concrete.untwisted_algebra(concrete.euler_wronskian_algebra(3))
        coeffs = [c for row in alg.bracket_table.values() for _, c in row]
        assert any(type(c) is Fraction for c in coeffs)
        assert all(invariant(c) for c in coeffs)

    @SETTINGS
    @given(index=st.integers(0, len(BUILTINS) - 1), k=st.integers(1, 7))
    def test_unreduced_json_gives_the_same_verdicts(self, index, k):
        alg = BUILTINS[index]
        loaded = concrete.StructureAlgebra.from_json(_inflate(alg.to_json(), k))
        forced = _with_fraction_tables(alg)
        assert loaded.to_json() == alg.to_json()
        for other in (loaded, forced):
            assert other.validate().to_json() == alg.validate().to_json()
            assert kantor.criteria_check(other).to_json() == kantor.criteria_check(alg).to_json()

    @SETTINGS
    @given(index=st.integers(0, len(BUILTINS) - 1), seed=seeds)
    def test_fraction_vectors_give_the_int_answer(self, index, seed):
        alg = BUILTINS[index]
        rng = random.Random(seed)
        a = tuple(rng.randint(-3, 3) for _ in range(alg.dim))
        b = tuple(rng.randint(-3, 3) for _ in range(alg.dim))
        fa, fb = (tuple(Fraction(x) for x in v) for v in (a, b))
        for op in (alg.mul, alg.bracket):
            want = op(a, b)
            assert op(fa, fb) == want
            assert all(invariant(x) for x in want + op(fa, fb))
        sa = concrete.to_sparse(a, alg.dim)
        half = concrete.SparseOps(alg).combine([(Fraction(1, 2), sa), (Fraction(1, 2), sa)])
        assert half == sa and all(type(x) is int for _, x in half)
