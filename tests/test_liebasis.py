import random
from fractions import Fraction
from itertools import product

import pytest

from superbracket.core import GENP, AlgebraError, Alphabet
from superbracket.engine import FreeAlgebra
from superbracket.liebasis import WordSpace
from helpers import (
    eval_combination_in_matrices,
    eval_word_in_matrices,
    mat_add,
    mat_is_zero,
    mat_scale,
    multilinear_lie_dimension,
    offered_basis_words,
    random_matrix,
    sgn,
    tuple_key,
    word_bracket,
)

EVEN3 = Alphabet([("x1", 0), ("x2", 0), ("x3", 0)])
MIXED = Alphabet([("x1", 0), ("x2", 0), ("th", 1)])


def leaf_ids(alphabet, *names):
    return tuple(alphabet.gen(n).index for n in names)


class TestIsGood:
    """Basis membership through the production path, ``WordSpace.get``."""

    def test_generators_are_good(self):
        assert WordSpace(EVEN3).get(1).word == 1

    def test_descending_pair(self):
        x1, x2 = leaf_ids(EVEN3, "x1", "x2")
        assert WordSpace(EVEN3).get((x2, x1)).word == (x2, x1)

    def test_ascending_pair_is_not(self):
        x1, x2 = leaf_ids(EVEN3, "x1", "x2")
        with pytest.raises(AlgebraError):
            WordSpace(EVEN3).get((x1, x2))

    def test_left_nested_needs_small_inner_right(self):
        # {{x2,x1},1}: the inner right x1 exceeds the outer right 1
        x1, x2 = leaf_ids(EVEN3, "x1", "x2")
        with pytest.raises(AlgebraError):
            WordSpace(EVEN3).get(((x2, x1), 0))
        # while {{x2,x1},x1} is fine
        assert WordSpace(EVEN3).get(((x2, x1), x1)).word == ((x2, x1), x1)


class TestOrdering:
    def test_unit_below_generators(self):
        space = WordSpace(EVEN3)
        assert space.get(0).key < space.get(1).key

    def test_length_dominates(self):
        space = WordSpace(EVEN3)
        x1, x2 = leaf_ids(EVEN3, "x1", "x2")
        assert space.get(x1).key < space.get((x2, x1)).key

    def test_lexicographic_on_components(self):
        space = WordSpace(EVEN3)
        x1, x2, x3 = leaf_ids(EVEN3, "x1", "x2", "x3")
        assert space.get((x2, x1)).key < space.get((x3, x1)).key
        assert space.get((x3, x1)).key < space.get((x3, x2)).key

    def test_strict_total_order_on_small_basis(self):
        space = WordSpace(MIXED)
        words = []
        for degs in product(range(4), repeat=4):
            if 1 <= sum(degs) <= 4:
                words.extend(space.basis_words(degs))
        keys = [w.key for w in words]
        assert len(set(keys)) == len(keys)
        ordered = sorted(keys)
        for i in range(len(ordered) - 1):
            assert ordered[i] < ordered[i + 1]
            assert not ordered[i + 1] < ordered[i]
        # transitivity spot check on consecutive triples
        for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
            assert a < b < c and a < c


class TestStraightening:
    """genp straightening through the engine's word rule."""

    def test_orientation_of_generators(self):
        alg = FreeAlgebra(EVEN3, GENP)
        space = alg.space
        x1, x2 = (space.leaf(n) for n in ("x1", "x2"))
        combo = word_bracket(alg, x1, x2)
        assert combo == {space.get((2, 1)): Fraction(-1)}

    def test_good_word_stays(self):
        alg = FreeAlgebra(EVEN3, GENP)
        space = alg.space
        w = space.get(((2, 1), 1))
        combo = word_bracket(alg, space.get((2, 1)), space.leaf("x1"))
        assert combo == {w: Fraction(1)}

    def test_jacobi_rewriting_example(self):
        # {{x3,x2},x1} = {{x3,x1},x2} - {{x2,x1},x3}
        alg = FreeAlgebra(EVEN3, GENP)
        space = alg.space
        combo = word_bracket(alg, space.get((3, 2)), space.leaf("x1"))
        assert combo == {
            space.get(((3, 1), 2)): Fraction(1),
            space.get(((2, 1), 3)): Fraction(-1),
        }

    def test_jacobi_rewriting_against_matrix_oracle(self, rng):
        # evaluate both sides with random matrix Lie algebra assignments
        alg = FreeAlgebra(EVEN3, GENP)
        space = alg.space
        combo = word_bracket(alg, space.get((3, 2)), space.leaf("x1"))
        for _ in range(3):
            assignment = {i: random_matrix(rng, 3) for i in range(EVEN3.size)}
            lhs, _ = eval_word_in_matrices(EVEN3, ((3, 2), 1), assignment)
            rhs = eval_combination_in_matrices(EVEN3, combo, assignment, 3)
            assert mat_is_zero(mat_add(lhs, mat_scale(-1, rhs)))

    def test_odd_square_is_kept(self):
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        th = space.leaf("th")
        combo = word_bracket(alg, th, th)
        assert combo == {space.get((3, 3)): Fraction(1)}

    def test_even_square_vanishes(self):
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        assert word_bracket(alg, space.leaf("x1"), space.leaf("x1")) == {}

    def test_odd_cube_vanishes(self):
        # {{th,th},th} = 0 over the rationals
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        sq = space.get((3, 3))
        assert word_bracket(alg, sq, space.leaf("th")) == {}

    def test_random_straightening_against_super_matrix_oracle(self, rng):
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        words = []
        for degs in product(range(3), repeat=4):
            if 1 <= sum(degs) <= 3:
                words.extend(space.basis_words(degs))
        n, block = 3, (2, 1)  # gl(2|1)
        for _ in range(40):
            u = rng.choice(words)
            v = rng.choice(words)
            combo = word_bracket(alg, u, v)
            assignment = {
                i: random_matrix(rng, n, parity=MIXED.parities[i], block=block)
                for i in range(MIXED.size)
            }
            lhs_u, pu = eval_word_in_matrices(MIXED, u.word, assignment)
            lhs_v, pv = eval_word_in_matrices(MIXED, v.word, assignment)
            from helpers import super_commutator

            lhs = super_commutator(lhs_u, lhs_v, pu, pv)
            rhs = eval_combination_in_matrices(MIXED, combo, assignment, n)
            assert mat_is_zero(mat_add(lhs, mat_scale(-1, rhs)))

    def test_deep_pairs_against_gl22_oracle(self, rng):
        # straighten ~60 random pairs of words of degree <= 4 and check the
        # result against supercommutators of graded gl(2|2) matrices
        from helpers import super_commutator

        al = Alphabet([("x1", 0), ("th", 1)])
        alg = FreeAlgebra(al, GENP)
        space = alg.space
        words = []
        for degs in product(range(6), repeat=3):
            if 1 <= sum(degs) <= 4:
                words.extend(space.basis_words(degs))
        n, block = 4, (2, 2)
        for _ in range(60):
            u, v = rng.choice(words), rng.choice(words)
            combo = word_bracket(alg, u, v)
            assignment = {
                i: random_matrix(rng, n, parity=al.parities[i], block=block)
                for i in range(al.size)
            }
            mu, pu = eval_word_in_matrices(al, u.word, assignment)
            mv, pv = eval_word_in_matrices(al, v.word, assignment)
            lhs = super_commutator(mu, mv, pu, pv)
            rhs = eval_combination_in_matrices(al, combo, assignment, n)
            assert mat_is_zero(mat_add(lhs, mat_scale(-1, rhs))), (u.word, v.word)

    def test_anticommutativity_all_small_pairs(self):
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        words = []
        for degs in product(range(4), repeat=4):
            if 1 <= sum(degs) <= 3:
                words.extend(space.basis_words(degs))
        for u in words:
            for v in words:
                left = word_bracket(alg, u, v)
                right = word_bracket(alg, v, u)
                s = sgn(u.parity & v.parity)
                total = dict(left)
                for w, c in right.items():
                    total[w] = total.get(w, Fraction(0)) + s * c
                assert all(c == 0 for c in total.values())

    def test_output_grading(self):
        alg = FreeAlgebra(MIXED, GENP)
        space = alg.space
        u = space.get((3, 1))  # {th, x1}
        v = space.get((2, 0))  # {x2, 1}
        combo = word_bracket(alg, u, v)
        assert combo
        want_deg = tuple(a + b for a, b in zip(u.degrees, v.degrees))
        want_par = (u.parity + v.parity) & 1
        for w in combo:
            assert w.degrees == want_deg
            assert w.parity == want_par


class TestEnumeration:
    def test_two_even_generators(self):
        space = WordSpace(EVEN3)
        words = space.basis_words((0, 1, 1, 0))
        assert [w.word for w in words] == [(2, 1)]

    def test_three_even_generators_count(self):
        space = WordSpace(EVEN3)
        assert len(space.basis_words((0, 1, 1, 1))) == 2

    def test_unit_and_one_generator(self):
        space = WordSpace(EVEN3)
        words = space.basis_words((1, 1, 0, 0))
        assert [w.word for w in words] == [(1, 0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_multilinear_count_matches_factorial(self, n):
        import math

        alphabet = Alphabet([(f"x{i}", 0) for i in range(1, n + 1)])
        space = WordSpace(alphabet)
        words = space.basis_words((0,) + (1,) * n)
        assert len(words) == math.factorial(n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_multilinear_count_matches_tensor_rank(self, n):
        alphabet = Alphabet([(f"x{i}", 0) for i in range(1, n + 1)])
        space = WordSpace(alphabet)
        count = len(space.basis_words((0,) + (1,) * n))
        assert count == multilinear_lie_dimension(n)

    def test_mixed_parity_count_matches_tensor_rank(self):
        # two even letters and one odd letter, multilinear
        alphabet = Alphabet([("x1", 0), ("x2", 0), ("th", 1)])
        space = WordSpace(alphabet)
        count = len(space.basis_words((0, 1, 1, 1)))
        assert count == multilinear_lie_dimension(3, parities=[0, 0, 1])

    def test_squares_enumerated(self):
        space = WordSpace(MIXED)
        words = space.basis_words((0, 0, 0, 2))
        assert [w.word for w in words] == [(3, 3)]

    def test_rejects_non_basis_word(self):
        space = WordSpace(MIXED)
        with pytest.raises(AlgebraError):
            space.get((1, 2))  # ascending pair is not good


@pytest.mark.parametrize("oriented, count", [(False, 298), (True, 244)], ids=["lie", "oriented"])
def test_basis_words_are_the_offered_trees(oriented, count):
    """The enumerator against brute force: on every multidegree of total
    <= 5 over (1, x1, x2, th), it returns, sorted, the words that offering
    every raw bracket tree to ``space.get`` finds (in a space of its own)."""
    found = {}
    for w in offered_basis_words(WordSpace(MIXED, oriented), 5):
        found.setdefault(w.degrees, []).append(w.word)
    space = WordSpace(MIXED, oriented)
    total = 0
    for degrees in product(range(6), repeat=4):
        if 0 < sum(degrees) <= 5:
            words = [w.word for w in space.basis_words(degrees)]
            assert words == sorted(found.get(degrees, []), key=tuple_key), degrees
            total += len(words)
    assert total == count


@pytest.mark.parametrize("oriented, counts", [(False, [1, 1, 0, 0, 0, 0]), (True, [1, 1, 1, 1, 2, 4])],
                         ids=["lie", "oriented"])
def test_words_of_one_odd_letter(oriented, counts):
    """One odd letter th makes th and {th,th} in the Lie space, and oriented
    atoms of every degree: {{th,th},th}, ..., {{{th,th},th},{{th,th},th}}."""
    space = WordSpace(MIXED, oriented)
    assert [len(space.basis_words((0, 0, 0, n))) for n in range(1, 7)] == counts


def test_word_key_orders_by_length_first():
    space = WordSpace(EVEN3)
    assert space.get(1).key < space.get((2, 1)).key
    assert space.get((2, 1)).key < space.get(((2, 1), 1)).key


def _letters(space):
    letters = [space.leaf(n) for n in space.alphabet.names()]
    return letters if space.oriented else [space.unit_word] + letters


def _every_basis_word(space, top):
    """Every basis word of up to ``top`` leaves, built length by length
    from every pair of shorter ones: a tree with a part that is no basis
    word is none either."""
    by_length = {1: _letters(space)}
    for length in range(2, top + 1):
        found = []
        for a in range(1, length):
            for u in by_length[a]:
                for v in by_length[length - a]:
                    w = space.join(u, v)
                    if w is not None:
                        found.append(w)
        by_length[length] = found
    return [w for words in by_length.values() for w in words]


def _random_basis_words(space, rng, count, top):
    """``count`` distinct basis words of 2 to ``top`` leaves, each joined
    from two random words found before it."""
    pool = _letters(space)
    found = {}
    while len(found) < count:
        u, v = rng.choice(pool), rng.choice(pool)
        if u.length + v.length > top:
            continue
        if u.key < v.key:
            u, v = v, u
        w = space.join(u, v)
        if w is not None and w.key not in found:
            found[w.key] = w
            pool.append(w)
    return _letters(space) + list(found.values())


@pytest.mark.parametrize("oriented", [False, True], ids=["lie", "oriented"])
class TestIntKeys:
    """A word key is an int that orders words as the nested tuples
    ``(length, left key, right key)`` of :func:`helpers.tuple_key` do."""

    def check(self, space, words):
        assert sorted(words, key=lambda w: w.key) == sorted(words, key=lambda w: tuple_key(w.word))
        assert len({w.key for w in words}) == len(words)
        assert all(type(w.key) is int and space.by_key[w.key] is w for w in words)

    def test_every_word_of_up_to_six_leaves(self, oriented):
        space = WordSpace(MIXED, oriented)
        words = _every_basis_word(space, 6)
        assert len(words) > 900
        self.check(space, words)

    def test_random_words_of_up_to_forty_leaves(self, oriented):
        space = WordSpace(MIXED, oriented)
        words = _random_basis_words(space, random.Random(17), 500, 40)
        assert max(w.length for w in words) == 40
        self.check(space, words)

    def test_letter_key_is_its_index(self, oriented):
        space = WordSpace(MIXED, oriented)
        assert [w.key for w in _letters(space)] == [w.word for w in _letters(space)]
