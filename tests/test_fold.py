"""The tree fold behind every term and word walk.

Deep input, far past the default recursion limit, folds without a
``RecursionError``; random trees with Sum and Var nodes fold to the same
grading and the same structure-algebra values as their normal forms; and
the error messages of the walks are the ones the recursive walks gave.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superbracket.cli import print_element
from superbracket.concrete import euler_wronskian_algebra
from superbracket.core import (
    AlgebraError,
    Alphabet,
    Bracket,
    Gen,
    Prod,
    Sum,
    Var,
    map_leaves,
    var_names,
)
from superbracket.elements import monomial_parity
from superbracket.engine import GENP, GP, JB, FreeAlgebra
from superbracket.liebasis import WordSpace
from helpers import UndefinedParityError, multidegree, random_sum_term, term_parity

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
XY = Alphabet([("x", 0), ("y", 0)])
X_TH = Alphabet([("x", 0), ("th", 1)])
THEORIES = [GENP, JB, GP]


def chain(node, bottom, top, depth):
    """``node(...node(node(bottom, top), top)..., top)``, depth levels."""
    t = bottom
    for _ in range(depth):
        t = node(t, top)
    return t


class TestDeepInput:
    @pytest.mark.parametrize("theory", THEORIES)
    def test_bracket_chain(self, theory):
        # {...{{x,y},y}...,y} is minus the good (and oriented) word
        # {...{{y,x},y}...,y} in every theory
        algebra = FreeAlgebra(XY, theory)
        e = algebra.normal_form(chain(Bracket, Gen("x"), Gen("y"), 1200))
        word = chain(lambda w, v: "{%s,%s}" % (w, v), "{y,x}", "y", 1199)
        assert print_element(algebra, e) == "-1/1 " + word
        terms = [{"coeff": "-1/1", "monomial": [{"word": word, "exp": 1}]}]
        assert algebra.element_to_json(e) == ({"gp": True, "terms": terms} if theory == GP else terms)

    @pytest.mark.parametrize("theory", THEORIES)
    def test_product_chain(self, theory):
        algebra = FreeAlgebra(XY, theory)
        e = algebra.normal_form(chain(Prod, Gen("x"), Gen("y"), 5000))
        (m, c), = e.terms.items()
        assert c == 1 and algebra.monomial_degrees(m) == (0, 1, 5000)

    @pytest.mark.parametrize("theory", THEORIES)
    def test_sum_nest(self, theory):
        algebra = FreeAlgebra(XY, theory)
        t = chain(lambda s, y: Sum(((1, s), (1, y))), Gen("x"), Gen("y"), 5000)
        assert algebra.normal_form(t) == algebra.gen("x") + algebra.gen("y").scale(5000)

    def test_grading(self):
        t = chain(Prod, Gen("th"), Gen("x"), 5000)
        assert term_parity(X_TH, t) == 1
        assert multidegree(X_TH, t) == (0, 5000, 1)

    def test_structure_algebra(self):
        # D = {-,1} is t d/dt on Q[t]/(t^3): D^n(1 + t + t^2) = t + 2^n t^2
        algebra = euler_wronskian_algebra(3)
        t = chain(Bracket, Var("a"), Gen("1"), 3000)
        assert algebra.evaluate(t, {"a": (1, 1, 1)}) == (0, 1, 2**3000)
        witness = {"assignment": {"a": 1}, "residual": ["0/1", "1/1", "0/1"]}
        assert algebra.is_identity(t) == (False, witness)

    def test_good_raw_word(self):
        space = WordSpace(XY)
        word = chain(lambda w, v: (w, v), (2, 1), 1, 1199)
        w = space.get(word)
        assert (w.length, w.degrees, w.parity, w.square) == (1201, (0, 1200, 1), 0, False)
        assert space.get(chain(lambda w, v: (w, v), (2, 1), 1, 1199)) is w

    def test_bad_raw_word(self):
        word = chain(lambda w, v: (w, v), (1, 2), 1, 1199)
        with pytest.raises(AlgebraError, match=r"^not a basis word: \({1200}1, 2\), 1\)"):
            WordSpace(XY).get(word)


class TestErrors:
    @pytest.mark.parametrize("walk", [
        lambda t: term_parity(XY, t),
        lambda t: multidegree(XY, t),
        lambda t: FreeAlgebra(XY).normal_form(t),
        lambda t: euler_wronskian_algebra(3).evaluate(t, {"x": (1, 0, 0)}),
        lambda t: euler_wronskian_algebra(3).is_identity(t),
        var_names,
    ])
    def test_not_a_term(self, walk):
        with pytest.raises(AlgebraError, match=r"^not a term: 3$"):
            walk(Prod(Gen("x"), Sum(((1, Gen("x")), (1, 3)))))

    @pytest.mark.parametrize("oriented, word, message", [
        (False, (1, 2), "not a basis word: (1, 2)"),
        (False, ((2, 1), (2, 1)), "not a basis word: ((2, 1), (2, 1))"),
        (True, (2, 0), "not an oriented atom: (2, 0)"),
        (True, (1, 2), "not an oriented atom: (1, 2)"),
        (False, 3, "generator index 3 out of range"),
    ])
    def test_not_a_basis_word(self, oriented, word, message):
        with pytest.raises(AlgebraError) as err:
            WordSpace(XY, oriented).get(word)
        assert str(err.value) == message


@pytest.fixture(params=["genp", "jb", "gp"])
def algebra(request):
    return request.getfixturevalue(request.param)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4))
def test_grading_matches_the_normal_form(algebra, seed, size):
    rng = random.Random(seed)
    alphabet = algebra.alphabet
    t = random_sum_term(alphabet, rng, size)
    plain = map_leaves(t, lambda leaf: Gen(leaf.name))
    e = algebra.substitute(t, {name: algebra.gen(name) for name in var_names(t)})
    assert e == algebra.normal_form(plain)
    degrees, parity = multidegree(alphabet, plain), term_parity(alphabet, plain)
    for m in e.terms:
        assert algebra.monomial_degrees(m)[1:] == degrees[1:]  # bare units drop out
        assert monomial_parity(m) == parity
    if var_names(t):
        with pytest.raises(UndefinedParityError):
            term_parity(alphabet, t)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5))
def test_evaluation_matches_the_normal_form(seed, size):
    # a validated generalized Poisson algebra evaluates a term and its
    # normal form to the same vector
    rng = random.Random(seed)
    engine = FreeAlgebra(Alphabet([("a", 0), ("b", 0)]), GENP)
    t = random_sum_term(engine.alphabet, rng, size)
    e = engine.substitute(t, {name: engine.gen(name) for name in var_names(t)})
    vectors = {name: tuple(rng.randint(-2, 2) for _ in range(3)) for name in ("a", "b")}
    algebra = euler_wronskian_algebra(3)
    assert algebra.evaluate(t, vectors) == algebra.evaluate(engine.element_to_term(e), vectors)
