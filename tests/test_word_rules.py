"""The word rules of the three theories, pinned from outside.

Every bracket of two basis words is hashed, so a rewrite of the rules must
reproduce their output byte for byte; the Jordan-bracket rule is checked
against the generalized Poisson straightening it deforms; and the
derivation twist is checked to carry generalized Poisson brackets to Jordan
brackets on free generators.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from superbracket import identities
from superbracket.core import AlgebraError, Alphabet
from superbracket.engine import GENP, GP, JB, FreeAlgebra
from helpers import offered_basis_words, word_bracket

ALPHABET = Alphabet([("x1", 0), ("x2", 0), ("th", 1)])

# SHA-256 of every bracket of two basis words of degree <= 3 on (x1, x2, th),
# the unit letter included, in the element JSON wire form; taken from the
# three separate word rules that came before the shared one
GOLDEN_WORD_BRACKETS = {
    GENP: "ccf2ff0d14e9170ac035875b52fbaee1ca79f6fa6d3150e5b02beea952d73a88",
    JB: "35eb4d68aa0ae578077e854782b0e28c76b714a7307d83ed35e4888b387ed107",
    GP: "43f96814a6791c1e02fcb635068771110b473e8321e4e2f1308474e925409833",
}


def word_bracket_lines(theory, top=3):
    alg = FreeAlgebra(ALPHABET, theory)
    render = alg.space.render
    for u, v in product(offered_basis_words(alg.space, top), repeat=2):
        got = alg.bracket(alg.word_element(u), alg.word_element(v))
        yield f"{render(u.word)} {render(v.word)} {json.dumps(alg.element_to_json(got))}\n"


@pytest.mark.parametrize("theory", [GENP, JB, GP])
def test_golden_word_brackets(theory):
    digest = hashlib.sha256()
    for line in word_bracket_lines(theory):
        digest.update(line.encode())
    assert digest.hexdigest() == GOLDEN_WORD_BRACKETS[theory]


def test_jb_single_words_are_genp_straightening():
    """The deformation terms of the Jordan-bracket rule are all products, so
    the part of a jb bracket of two basis words on single words is the Lie
    straightening of the same pair (both theories share the word basis)."""
    genp, jb = FreeAlgebra(ALPHABET, GENP), FreeAlgebra(ALPHABET, JB)
    words = offered_basis_words(jb.space, 3)
    assert len(words) > 20
    for u, v in product(words, repeat=2):
        got = jb.bracket(jb.word_element(u), jb.word_element(v))
        single = {m[0][0]: c for m, c in got.terms.items() if len(m) == 1 and m[0][2] == 1}
        lie = word_bracket(genp, genp.space.get(u.word), genp.space.get(v.word))
        assert single == {w.key: c for w, c in lie.items()}, (u, v)


def test_genp_deep_straightening_fits_the_recursion_limit():
    """``{c_400, x}`` for the left chain ``c_400 = {...{{z,y},y},...,y}`` with
    400 ys takes 400 nested Jacobi steps; at two frames a step it stays
    inside the default recursion limit, which three frames a step exceed."""
    alg = FreeAlgebra(Alphabet([("x", 0), ("y", 0), ("z", 0)]), GENP)
    space = alg.space
    chain = space.leaf("z").word
    for _ in range(400):
        chain = (chain, space.leaf("y").word)
    got = word_bracket(alg, space.get(chain), space.leaf("x"))
    assert len(got) == 401
    assert all(w.degrees == (0, 1, 400, 1) for w in got)


def test_genp_straightening_past_the_recursion_limit_is_an_algebra_error():
    """``{c_800, x}`` takes 800 nested Jacobi steps, past the default
    recursion limit at two frames a step: the library gives its 801 words or
    an AlgebraError that names the limit, never a RecursionError, and the
    algebra answers as a fresh one does afterwards."""
    def chain_bracket(alg, n):
        space = alg.space
        chain = space.leaf("z").word
        for _ in range(n):
            chain = (chain, space.leaf("y").word)
        return word_bracket(alg, space.get(chain), space.leaf("x"))

    alphabet = Alphabet([("x", 0), ("y", 0), ("z", 0)])
    alg = FreeAlgebra(alphabet, GENP)
    try:
        assert len(chain_bracket(alg, 800)) == 801
    except AlgebraError as exc:
        assert "recursion limit" in str(exc)
    fresh = FreeAlgebra(alphabet, GENP)
    assert ({w.word: c for w, c in chain_bracket(alg, 300).items()}
            == {w.word: c for w, c in chain_bracket(fresh, 300).items()})


@pytest.mark.parametrize("theory", [GENP, JB])
def test_straightening_cycle_is_an_algebra_error(theory, monkeypatch):
    """A join that refuses the good word ``{{x3,x1},x2}`` sends its Jacobi
    rewrite round through ``{{x3,x2},x1}`` and back; the word rule reports
    the cycle instead of recursing, and leaves no stale state behind."""
    alg = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0)]), theory)
    space = alg.space
    u, v = space.get((3, 1)), space.leaf("x2")
    join = space.join
    monkeypatch.setattr(space, "join", lambda p, q: None if p is u and q is v else join(p, q))
    with pytest.raises(AlgebraError, match="straightening cycle"):
        alg.bracket(alg.word_element(u), alg.word_element(v))
    monkeypatch.undo()
    assert word_bracket(alg, u, v) == {space.get(((3, 1), 2)): 1}


def test_half_twist_of_genp_satisfies_the_jb_identities():
    """``{a,b} + (aD(b) - D(a)b)/2`` with derivation D/2 is a Jordan bracket:
    the deformed Leibniz and Jacobi identities hold on every triple of free
    generators and the unit."""
    genp = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)]), GENP)
    ops = identities.Twisted(genp, Fraction(1, 2))
    gens = [genp.gen(n) for n in genp.alphabet.names()] + [genp.one()]
    for a, b, c in product(gens, repeat=3):
        assert identities.residual(identities.DEFORMED_LEIBNIZ, ops, a, b, c).is_zero()
        assert identities.residual(identities.DEFORMED_JACOBI, ops, a, b, c).is_zero()
    # while the untwisted genp bracket is not a Jordan bracket
    plain = genp
    assert any(not identities.residual(identities.DEFORMED_JACOBI, plain, a, b, c).is_zero()
               for a, b, c in product(gens, repeat=3))
