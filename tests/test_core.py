import copy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superbracket.core import (
    AlgebraError,
    Alphabet,
    Bracket,
    Gen,
    Generator,
    Prod,
    Sum,
    UndefinedParityError,
    Var,
    multidegree,
    term_parity,
)
from superbracket.speedups import merge_factors
from helpers import bubble_shuffle_sign, random_term

ALPHABET = Alphabet([("x1", 0), ("x2", 0), ("th", 1)])


class TestAlphabet:
    def test_unit_is_minimal_and_even(self):
        assert ALPHABET.generators[0].name == "1"
        assert ALPHABET.generators[0].parity == 0
        assert ALPHABET.generators[0].is_unit

    def test_declared_order(self):
        assert [g.name for g in ALPHABET.generators] == ["1", "x1", "x2", "th"]
        assert ALPHABET.gen("th").parity == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgebraError):
            Alphabet([("a", 0), ("a", 1)])

    def test_json_round_trip(self):
        data = ALPHABET.to_json()
        assert data == {"generators": [
            {"name": "x1", "parity": "even"},
            {"name": "x2", "parity": "even"},
            {"name": "th", "parity": "odd"},
        ]}
        back = Alphabet.from_json(data)
        assert back.parities == ALPHABET.parities
        assert back.names() == ALPHABET.names()

    @pytest.mark.parametrize("data", [
        "{}", "[1]", '{"generators": 3}', '{"generators": [{"name": "x"}]}',
        '{"generators": ["x"]}', "not json", '{"generators": [{"name": 1, "parity": "even"}]}',
        {"generators": [{"parity": "odd"}]},
    ], ids=["empty-object", "list", "generators-int", "no-parity", "bare-name", "not-json",
            "int-name", "dict-no-name"])
    def test_malformed_json_is_an_algebra_error(self, data):
        with pytest.raises(AlgebraError, match="alphabet"):
            Alphabet.from_json(data)

    def test_undeclared_generator(self):
        with pytest.raises(AlgebraError):
            ALPHABET.gen("nope")


class TestTermParity:
    def test_generator(self):
        assert term_parity(ALPHABET, Gen("x1")) == 0
        assert term_parity(ALPHABET, Gen("th")) == 1

    def test_bracket_of_two_odds_is_even(self):
        assert term_parity(ALPHABET, Bracket(Gen("th"), Gen("th"))) == 0

    def test_product_even_odd_is_odd(self):
        assert term_parity(ALPHABET, Prod(Gen("x1"), Gen("th"))) == 1

    def test_var_leaf_rejected(self):
        with pytest.raises(UndefinedParityError):
            term_parity(ALPHABET, Bracket(Gen("x1"), Var("a")))

    def test_parity_ignores_tree_shape(self, rng):
        for _ in range(60):
            t = random_term(ALPHABET, rng, depth=3)
            deg = multidegree(ALPHABET, t)
            expected = sum(d * p for d, p in zip(deg, ALPHABET.parities)) & 1
            assert term_parity(ALPHABET, t) == expected


class TestMultidegree:
    def test_counts_unit_occurrences(self):
        t = Bracket(Gen("x1"), Gen("1"))
        assert multidegree(ALPHABET, t) == (1, 1, 0, 0)

    def test_square(self):
        assert multidegree(ALPHABET, Prod(Gen("x1"), Gen("x1"))) == (0, 2, 0, 0)

    def test_nested(self):
        t = Bracket(Bracket(Gen("x2"), Gen("x1")), Gen("x1"))
        assert multidegree(ALPHABET, t) == (0, 2, 1, 0)

    def test_additive_over_both_products(self, rng):
        for _ in range(60):
            a = random_term(ALPHABET, rng, depth=2)
            b = random_term(ALPHABET, rng, depth=2)
            da = multidegree(ALPHABET, a)
            db = multidegree(ALPHABET, b)
            both = tuple(x + y for x, y in zip(da, db))
            assert multidegree(ALPHABET, Prod(a, b)) == both
            assert multidegree(ALPHABET, Bracket(a, b)) == both

    def test_inhomogeneous_sum_rejected(self):
        t = Sum(((Fraction(1), Gen("x1")), (Fraction(1), Prod(Gen("x1"), Gen("x1")))))
        with pytest.raises(UndefinedParityError):
            multidegree(ALPHABET, t)


def all_shuffles(left, right):
    if not left:
        yield tuple(right)
        return
    if not right:
        yield tuple(left)
        return
    for rest in all_shuffles(left[1:], right):
        yield (left[0],) + rest
    for rest in all_shuffles(left, right[1:]):
        yield (right[0],) + rest


def merge_sign(left_parities, right_parities, merged_order) -> int:
    """The sign ``merge_factors`` gives a shuffle of two factor sequences.

    ``merged_order[t]`` is the index, in the concatenation ``left + right``,
    of the factor that lands at position ``t``.  Each factor is keyed by that
    position, so both inputs are key-sorted and the merge realizes the
    shuffle.
    """
    position = {src: t for t, src in enumerate(merged_order)}
    factors = [(position[src], p & 1, 1)
               for src, p in enumerate(list(left_parities) + list(right_parities))]
    nl = len(left_parities)
    sign, merged = merge_factors(tuple(factors[:nl]), tuple(factors[nl:]))
    assert [key for key, _, _ in merged] == list(range(len(factors)))
    return sign


class TestKoszulMergeSign:
    def test_all_even_any_order(self):
        left, right = [0, 0], [0]
        for order in all_shuffles([0, 1], [2]):
            assert merge_sign(left, right, order) == 1

    def test_single_odd_odd_swap(self):
        # right odd element passes the left odd element
        assert merge_sign([1], [1], (1, 0)) == -1
        assert merge_sign([1], [1], (0, 1)) == 1

    def test_odd_passes_odd_in_block(self):
        # left = (odd a), right = (odd b, even c); a passes b in the merge
        left, right = [1], [1, 0]
        order = (1, 0, 2)  # b, a, c
        expected = bubble_shuffle_sign([1, 1, 0], order)
        assert expected == -1
        assert merge_sign(left, right, order) == Fraction(expected)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_bubble_sort_oracle(self, data):
        nl = data.draw(st.integers(0, 4))
        nr = data.draw(st.integers(0, 4))
        parities = data.draw(st.lists(st.integers(0, 1), min_size=nl + nr, max_size=nl + nr))
        orders = list(all_shuffles(list(range(nl)), list(range(nl, nl + nr))))
        order = data.draw(st.sampled_from(orders))
        got = merge_sign(parities[:nl], parities[nl:], order)
        assert got == Fraction(bubble_shuffle_sign(parities, order))

    @pytest.mark.parametrize("left,right", [
        ([1, 0], [1]), ([1], [0, 1]), ([1, 1, 1], [1, 0]), ([0, 1], [1, 1, 1]), ([0, 0], [1]),
    ])
    def test_concatenation_orders(self, left, right):
        """All of one side's keys below all of the other's: the merge is a
        concatenation, in either order, with odd blocks on each side."""
        n = len(left) + len(right)
        in_order = tuple(range(n))
        right_first = tuple(range(len(left), n)) + tuple(range(len(left)))
        for order in (in_order, right_first):
            want = bubble_shuffle_sign(left + right, order)
            assert merge_sign(left, right, order) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_expanded_bubble_sort_oracle(self, data):
        """Shared keys and exponents above 1: each factor stands for ``exp``
        copies of its word, sorted by key one adjacent swap at a time; even
        copies of one key collect into one exponent, and an odd word on both
        sides gives the vanishing product (0, ())."""
        parity = data.draw(st.lists(st.integers(0, 1), min_size=6, max_size=6))

        def side():
            keys = data.draw(st.sets(st.integers(0, 5), max_size=4))
            return tuple((k, parity[k], 1 if parity[k] else data.draw(st.integers(1, 3)))
                         for k in sorted(keys))

        fa, fb = side(), side()
        got = merge_factors(fa, fb)
        shared = {k for k, _, _ in fa} & {k for k, _, _ in fb}
        if any(parity[k] for k in shared):
            assert got == (0, ())
            return
        copies = [(k, p) for k, p, e in fa + fb for _ in range(e)]
        # rank every copy by key, ties in concatenation order, and bubble-sort
        ranked = sorted(range(len(copies)), key=lambda i: (copies[i][0], i))
        rank = {src: r for r, src in enumerate(ranked)}
        parities = [copies[src][1] for src in ranked]
        sign = bubble_shuffle_sign(parities, [rank[i] for i in range(len(copies))])
        exps = {}
        for k, _ in copies:
            exps[k] = exps.get(k, 0) + 1
        assert got == (sign, tuple((k, parity[k], exps[k]) for k in sorted(exps)))

    def test_three_block_composition(self):
        """Merging three sorted blocks pairwise in either association gives
        one sign, for every parity pattern of total length <= 6."""

        def as_factors(keys, parities):
            return tuple((k, p, 1) for k, p in zip(keys, parities))

        for la, lb, lc in product((0, 1, 2), repeat=3):
            if la + lb + lc > 6 or la + lb + lc == 0:
                continue
            keys_a = [(i, 0) for i in range(la)]
            keys_b = [(i, 1) for i in range(lb)]
            keys_c = [(i, 2) for i in range(lc)]
            for bits in product((0, 1), repeat=la + lb + lc):
                pa = bits[:la]
                pb = bits[la:la + lb]
                pc = bits[la + lb:]
                fa, fb, fc = (as_factors(k, p) for k, p in
                              ((keys_a, pa), (keys_b, pb), (keys_c, pc)))
                s1, m1 = merge_factors(fa, fb)
                s2, m2 = merge_factors(m1, fc)
                t1, n1 = merge_factors(fb, fc)
                t2, n2 = merge_factors(fa, n1)
                assert m2 == n2
                assert s1 * s2 == t1 * t2


def test_every_public_name_resolves():
    import superbracket

    namespace = {}
    exec("from superbracket import *", namespace)  # AttributeError on a stale name
    assert sorted(set(superbracket.__all__)) == sorted(superbracket.__all__)
    assert all(name in namespace for name in superbracket.__all__)
    assert namespace["GpAlgebra"] is superbracket.engine.GpAlgebra
    assert superbracket.StructureAlgebra is superbracket.concrete.StructureAlgebra
    assert superbracket.PoissonPolynomial is superbracket.farkas.PoissonPolynomial
    assert superbracket.CustomaryPolynomial is superbracket.farkas.CustomaryPolynomial
    assert not hasattr(superbracket, "nope")


class TestValueSemantics:
    """The alphabet's generators and the term-tree nodes behave as frozen
    dataclasses: values compared, hashed, printed and copied field by field."""

    NODES = [Gen("x"), Var("x"), Prod(Gen("x"), Var("y")), Bracket(Gen("x"), Var("y")),
             Sum(((1, Gen("x")), (Fraction(1, 2), Var("y")))), Generator(1, "x", 0)]

    def test_field_wise_equality_and_hash(self):
        for node in self.NODES:
            twin = type(node)(*(getattr(node, f) for f in type(node).__slots__))
            assert twin == node and twin is not node
            assert hash(twin) == hash(node)
        assert len(set(self.NODES + [copy.copy(n) for n in self.NODES])) == len(self.NODES)
        assert Gen("x") != Gen("y")
        assert Prod(Gen("x"), Gen("y")) != Prod(Gen("y"), Gen("x"))

    def test_classes_never_compare_equal(self):
        a, b = Gen("a"), Gen("b")
        assert Gen("x") != Var("x")
        assert Prod(a, b) != Bracket(a, b)
        assert Gen("x") != ("x",) and Gen("x") != "x"

    def test_frozen(self):
        for node in self.NODES:
            field = type(node).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(node, field, None)
            with pytest.raises(AttributeError):
                delattr(node, field)
            with pytest.raises(AttributeError):
                node.extra = 1

    def test_repr(self):
        assert repr(Gen("x")) == "Gen(name='x')"
        assert repr(Var("x")) == "Var(name='x')"
        assert repr(Bracket(Gen("x"), Prod(Gen("y"), Gen("1")))) == (
            "Bracket(left=Gen(name='x'), right=Prod(left=Gen(name='y'), right=Gen(name='1')))")
        assert repr(Sum(((-1, Gen("x")),))) == "Sum(terms=((-1, Gen(name='x')),))"
        assert repr(ALPHABET.unit) == "Generator(index=0, name='1', parity=0)"

    def test_copy_and_deepcopy(self):
        for node in self.NODES:
            for clone in (copy.copy(node), copy.deepcopy(node)):
                assert clone == node and type(clone) is type(node)
        shared = Prod(Gen("x"), Gen("y"))
        assert copy.copy(shared).left is shared.left
        assert copy.deepcopy(shared).left is not shared.left

    def test_field_count_checked(self):
        with pytest.raises(TypeError):
            Prod(Gen("x"))
        with pytest.raises(TypeError):
            Gen("x", "y")
