from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from superbracket.core import AlgebraError, Alphabet
from superbracket.elements import Element
from superbracket.engine import GENP, JB, FreeAlgebra
from superbracket.concrete import (
    Report,
    SparseOps,
    StructureAlgebra,
    adjoin_unit,
    euler_wronskian_algebra,
    nonlie_example_algebra,
    report_entry,
    to_sparse,
    untwisted_algebra,
    vbasis,
    wronskian_algebra,
    zero_bracket_poisson,
)
from superbracket.kantor import (
    CRITERIA,
    criteria_check,
    double_is_jordan,
    double_of,
    super_jordan_check,
)
from paper_forms import double_criterion_residual

ONE = Fraction(1)


def free_criteria_check(algebra: FreeAlgebra) -> Report:
    """The three bracket criteria at every 4-tuple of the generators and the
    unit of a free engine, each residual's terms summed by tuple, reported
    as :func:`criteria_check` reports them."""
    elements = [algebra.gen(n) for n in algebra.alphabet.names()] + [algebra.one()]
    sweep = SimpleNamespace(
        basis=elements, parity=algebra.parity,
        render=lambda terms: algebra.element_to_json(Element(algebra, dict(terms))))
    return Report([
        report_entry(sweep, f"jorskob{which}",
                     {idx: double_criterion_residual(algebra, which, *(elements[i] for i in idx)).terms
                      for idx in product(range(len(elements)), repeat=4)})
        for which in CRITERIA
    ])


def small_algebra():
    """Basis 1, x (even), th (odd); x*x = x*th = th*th = 0, and the bracket
    {x,th} = th = -{th,x}, {th,th} = x, zero against the unit."""
    mul = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)],
           (0, 2): [(2, 1)], (2, 0): [(2, 1)]}
    brk = {(1, 2): [(2, 1)], (2, 1): [(2, -1)], (2, 2): [(1, 1)]}
    return StructureAlgebra(3, [0, 0, 1], mul, brk, (1, 0, 0), "none")


UNIT, X, TH = 0, 1, 2


def plain(i):
    return vbasis(6, i)


def shifted(i):
    return vbasis(6, 3 + i)


def embed(vec, shift):
    """A vector of A as the plain part of K(A), or with ``shift`` the shifted one."""
    zero = (0,) * 3
    return zero + tuple(vec) if shift else tuple(vec) + zero


class TestDoubleOf:
    """The four product rules of the double, its K-grading and its
    supercommutativity, on a small algebra with an odd basis vector."""

    def test_plain_times_plain(self):
        a, dbl = small_algebra(), double_of(small_algebra())
        for i, j in product(range(3), repeat=2):
            # a * b = ab
            assert dbl.mul(plain(i), plain(j)) == embed(a.mul(vbasis(3, i), vbasis(3, j)), False)
        assert dbl.mul(plain(UNIT), plain(TH)) == plain(TH)

    def test_plain_times_shifted(self):
        a, dbl = small_algebra(), double_of(small_algebra())
        for i, j in product(range(3), repeat=2):
            ab = a.mul(vbasis(3, i), vbasis(3, j))
            sign = -1 if a.parities[j] else 1
            # a * bx = (ab)x and ax * b = (-1)^{|b|} (ab)x
            assert dbl.mul(plain(i), shifted(j)) == embed(ab, True)
            assert dbl.mul(shifted(i), plain(j)) == embed(tuple(sign * c for c in ab), True)
        assert dbl.mul(plain(UNIT), shifted(TH)) == shifted(TH)
        assert dbl.mul(shifted(UNIT), plain(TH)) == tuple(-c for c in shifted(TH))  # |th| = 1
        assert dbl.mul(shifted(UNIT), plain(X)) == shifted(X)  # |x| = 0, no sign

    def test_shifted_times_shifted_is_signed_bracket(self):
        a, dbl = small_algebra(), double_of(small_algebra())
        for i, j in product(range(3), repeat=2):
            br = a.bracket(vbasis(3, i), vbasis(3, j))
            sign = -1 if a.parities[j] else 1
            # ax * bx = (-1)^{|b|} {a,b}
            assert dbl.mul(shifted(i), shifted(j)) == embed(tuple(sign * c for c in br), False)
        assert dbl.mul(shifted(TH), shifted(TH)) == tuple(-c for c in plain(X))  # -{th,th}
        assert dbl.mul(shifted(X), shifted(TH)) == tuple(-c for c in plain(TH))  # -{x,th}
        assert dbl.mul(shifted(TH), shifted(X)) == tuple(-c for c in plain(TH))  # +{th,x}

    def test_unit_shifted_squares_to_zero(self):
        dbl = double_of(small_algebra())
        assert all(c == 0 for c in dbl.mul(shifted(UNIT), shifted(UNIT)))

    def test_k_grading(self):
        dbl = double_of(small_algebra())
        ops = SparseOps(dbl)
        # K(A)_0 = A_0 + A_1 x and K(A)_1 = A_1 + A_0 x
        assert dbl.parities == (0, 0, 1, 1, 1, 0)
        for i, j in product(range(6), repeat=2):
            p = dbl.mul(vbasis(6, i), vbasis(6, j))
            assert all(c == 0 for c in p) or \
                ops.parity(to_sparse(p, 6)) == (dbl.parities[i] + dbl.parities[j]) & 1

    def test_supercommutative_in_k_grading(self):
        dbl = double_of(small_algebra())
        for i, j in product(range(6), repeat=2):
            x, y = vbasis(6, i), vbasis(6, j)
            sign = -1 if (dbl.parities[i] & dbl.parities[j]) else 1
            assert dbl.mul(x, y) == tuple(sign * c for c in dbl.mul(y, x))

    def test_dimension_doubles(self):
        assert double_of(nonlie_example_algebra()).dim == 6

    def test_double_is_supercommutative(self):
        dbl = double_of(wronskian_algebra(3))
        report = dbl.validate()
        failed = {c["identity"] for c in report.failed()}
        assert "supercommutativity" not in failed

    def test_parities_shift(self):
        dbl = double_of(wronskian_algebra(2))
        assert dbl.parities == (0, 0, 1, 1)

    def test_unit_carries_over(self):
        dbl = double_of(wronskian_algebra(2))
        assert dbl.unit == (ONE, 0, 0, 0)


class TestChecks:
    def test_free_jb_engine_passes_criteria(self):
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("th", 1)]), JB)
        report = free_criteria_check(algebra)
        assert report.ok, report.failed()

    def test_free_genp_engine_fails_criteria(self):
        # two generators are too few for the obstruction to show on
        # generator tuples; three suffice
        algebra = FreeAlgebra(Alphabet([("x1", 0), ("x2", 0), ("x3", 0)]), GENP)
        report = free_criteria_check(algebra)
        assert not report.ok
        assert [c["identity"] for c in report.failed()] == ["jorskob1"]

    def test_wronskian_fails_with_witness(self):
        report = criteria_check(wronskian_algebra(3))
        assert not report.ok
        failing = report.failed()
        assert failing and all(set(c["witness"]) == {"indices", "parities", "residual"}
                               for c in failing)

    def test_untwisted_euler_wronskian_passes(self):
        report = criteria_check(untwisted_algebra(euler_wronskian_algebra(3)))
        assert report.ok, report.failed()

    def test_zero_product_example_passes_both(self):
        algebra = nonlie_example_algebra()
        crit, direct, agree = double_is_jordan(algebra)
        assert crit.ok and direct.ok and agree

    def test_unital_non_poisson_gp_fails_both(self):
        algebra = adjoin_unit(nonlie_example_algebra())
        crit, direct, agree = double_is_jordan(algebra)
        assert not crit.ok and not direct.ok and agree

    def test_zero_bracket_poisson_double_is_jordan(self):
        crit, direct, agree = double_is_jordan(zero_bracket_poisson(2))
        assert crit.ok and direct.ok and agree

    def test_super_jordan_check_rejects_noncommutative(self):
        bad = StructureAlgebra(
            2, [0, 0], {(0, 1): [(0, ONE)]}, {}, None, "none"
        )
        with pytest.raises(AlgebraError):
            super_jordan_check(bad)

    def test_report_wire_format(self):
        report = criteria_check(wronskian_algebra(2))
        names = [c["identity"] for c in report.to_json()]
        assert names == ["jorskob1", "jorskob2", "jorskob3"]
        for c in report.to_json():
            assert c["status"] in ("pass", "fail")


class TestAgreement:
    CORPUS = [
        ("wronskian2", lambda: wronskian_algebra(2), False),
        ("wronskian3", lambda: wronskian_algebra(3), False),
        ("wronskian4", lambda: wronskian_algebra(4), False),
        ("zero-product example", nonlie_example_algebra, True),
        ("zero-bracket poisson", lambda: zero_bracket_poisson(3), True),
        ("untwisted euler-wronskian", lambda: untwisted_algebra(euler_wronskian_algebra(3)), True),
        ("unital non-poisson gp", lambda: adjoin_unit(nonlie_example_algebra()), False),
        ("euler-wronskian", lambda: euler_wronskian_algebra(3), True),
    ]

    @pytest.mark.parametrize("name,factory,expected", CORPUS, ids=[c[0] for c in CORPUS])
    def test_verdicts_and_agreement(self, name, factory, expected):
        crit, direct, agree = double_is_jordan(factory())
        assert agree
        assert crit.ok is expected
        assert direct.ok is expected
