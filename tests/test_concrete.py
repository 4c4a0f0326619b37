import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb
from unittest import mock

import pytest

from superbracket.cli import _resolve_algebra, parse
from superbracket.core import AlgebraError, Alphabet, Bracket, Gen, Prod, Sum, Var
from superbracket import concrete
from superbracket.engine import GENP, FreeAlgebra
from superbracket.concrete import (
    StructureAlgebra,
    adjoin_unit,
    euler_wronskian_algebra,
    load_algebra,
    nonlie_example_algebra,
    untwisted_algebra,
    vbasis,
    wronskian_algebra,
    zero_bracket_poisson,
    zero_product_algebra,
)
from superbracket.kantor import criteria_check, double_of, super_jordan_check
from helpers import polarized_is_identity

ONE = Fraction(1)


class TestValidate:
    def test_euler_wronskian_is_validated_genp(self):
        report = euler_wronskian_algebra(3).validate()
        assert report.ok, report.failed()

    def test_truncated_wronskian_fails_only_the_deformed_leibniz(self):
        # the truncation ideal is not d/dt-stable: the deformed Leibniz rule
        # fails at the boundary
        report = wronskian_algebra(3).validate()
        failed = {c["identity"] for c in report.failed()}
        assert failed == {"deformed-leibniz"}
        (witness,) = [c["witness"] for c in report.failed()]
        assert witness["indices"] in ([0, 1, 2], [0, 2, 1])

    def test_wronskian_claimed_poisson_fails_plain_leibniz(self):
        base = wronskian_algebra(3)
        claimed = StructureAlgebra(
            base.dim, base.parities, base.product, base.bracket_table, base.unit, "poisson"
        )
        report = claimed.validate()
        failed = {c["identity"] for c in report.failed()}
        assert "leibniz" in failed
        witness = [c for c in report.failed() if c["identity"] == "leibniz"][0]["witness"]
        assert witness["residual"]

    def test_non_anticommutative_bracket_detected(self):
        bad = StructureAlgebra(
            2, [0, 0], {(0, 0): [(0, ONE)]}, {(0, 1): [(0, ONE)]}, None, "none"
        )
        report = bad.validate()
        assert {c["identity"] for c in report.failed()} == {"anticommutativity"}

    def test_report_json_shape(self):
        report = wronskian_algebra(3).validate()
        data = report.to_json()
        for entry in data:
            assert entry["status"] in ("pass", "fail")
            if entry["status"] == "fail":
                assert set(entry["witness"]) == {"indices", "parities", "residual"}

    def test_claims_needing_unit(self):
        with pytest.raises(AlgebraError):
            StructureAlgebra(2, [0, 0], {}, {}, None, "genp").validate()


class TestEvaluate:
    def test_wronskian_bracket_of_t_and_t_squared(self):
        # {t, t^2} = D(t)t^2 - tD(t^2) = t^2 - 2t^2 = -t^2
        algebra = wronskian_algebra(3)
        t = vbasis(3, 1)
        t2 = vbasis(3, 2)
        got = algebra.evaluate(Bracket(Var("a"), Var("b")), {"a": t, "b": t2})
        assert got == (0, 0, Fraction(-1))

    def test_wronskian_derivation_of_t(self):
        algebra = wronskian_algebra(2)
        # D(t) = {t, 1}
        assert algebra.bracket(vbasis(2, 1), algebra.unit) == (ONE, Fraction(0))

    def test_unit_multiplication(self):
        algebra = wronskian_algebra(3)
        v = (Fraction(1), Fraction(2), Fraction(3))
        got = algebra.evaluate(Prod(Gen("1"), Var("v")), {"v": v})
        assert got == v

    def test_defining_identity_on_random_vectors(self, rng):
        algebra = euler_wronskian_algebra(4)
        for _ in range(15):
            vecs = {
                name: tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
                for name in ("a", "b", "c")
            }
            # the deformed Leibniz rule as a term tree, all even
            t = Sum((
                (ONE, Bracket(Var("a"), Prod(Var("b"), Var("c")))),
                (-ONE, Prod(Bracket(Var("a"), Var("b")), Var("c"))),
                (-ONE, Prod(Var("b"), Bracket(Var("a"), Var("c")))),
                (ONE, Prod(Prod(Bracket(Var("a"), Gen("1")), Var("b")), Var("c"))),
            ))
            assert algebra.evaluate(t, vecs) == (0,) * 4

    def test_evaluate_commutes_with_normal_form(self, rng):
        # in a validated generalized Poisson algebra the engine normal form
        # evaluates to the same vector as the raw term
        from helpers import random_term

        algebra = euler_wronskian_algebra(3)
        engine = FreeAlgebra(Alphabet([("a", 0), ("b", 0)]), GENP)
        for _ in range(20):
            t = random_term(engine.alphabet, rng, depth=3)
            bindings = {
                "a": tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)),
                "b": tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)),
            }
            direct = algebra.evaluate(t, bindings)
            via_nf = algebra.evaluate(
                engine.element_to_term(engine.normal_form(t)), bindings
            )
            assert direct == via_nf

    def test_unbound_leaf(self):
        algebra = wronskian_algebra(2)
        with pytest.raises(AlgebraError):
            algebra.evaluate(Var("missing"), {})

    def test_unit_needed_for_derivation(self):
        algebra = nonlie_example_algebra()
        with pytest.raises(AlgebraError):
            algebra.evaluate(Bracket(Var("a"), Gen("1")), {"a": vbasis(3, 0)})


class TestIsIdentity:
    def jordan_gp_term(self):
        return Sum((
            (ONE, Prod(Bracket(Bracket(Var("a"), Var("b")), Var("c")), Var("d"))),
            (-ONE, Prod(Bracket(Bracket(Var("a"), Var("c")), Var("b")), Var("d"))),
            (-ONE, Prod(Bracket(Var("a"), Bracket(Var("b"), Var("c"))), Var("d"))),
        ))

    def test_jordan_criterion_on_zero_product_example(self):
        holds, _ = nonlie_example_algebra().is_identity(self.jordan_gp_term())
        assert holds

    def test_jordan_criterion_fails_on_unital_gp(self):
        unital = adjoin_unit(nonlie_example_algebra())
        holds, witness = unital.is_identity(self.jordan_gp_term())
        assert not holds
        assert witness["assignment"]["d"] == 0  # the unit witnesses the failure

    def test_zero_polynomial(self):
        algebra = nonlie_example_algebra()
        holds, _ = algebra.is_identity(Sum(()))
        assert holds

    def test_multilinearization_detects_cube(self):
        # x^3 is not an identity of Q[t]/(t^3): the unit cubes to itself
        algebra = zero_bracket_poisson(3)
        holds, witness = algebra.is_identity(Prod(Prod(Var("x"), Var("x")), Var("x")))
        assert not holds

    def test_multilinearization_accepts_square_on_zero_product(self):
        algebra = nonlie_example_algebra()
        holds, _ = algebra.is_identity(Prod(Var("x"), Var("x")))
        assert holds

    def test_inhomogeneous_input_rejected(self):
        algebra = zero_bracket_poisson(2)
        t = Sum(((ONE, Var("x")), (ONE, Prod(Var("x"), Var("x")))))
        with pytest.raises(AlgebraError):
            algebra.is_identity(t)

    @pytest.mark.parametrize("src, witness", [
        # a Sum whose branches each repeat ?a: every branch numbers its
        # copies of ?a from the same start
        ("?a*{?a,?b} - {?a,?b}*?a", None),
        ("?a*?a", {"assignment": {"a#0": 0, "a#1": 0}, "residual": ["2/1", "0/1", "0/1"]}),
        ("{?a,?a*?b} - ?a*{?a,?b}",
         {"assignment": {"a#0": 0, "a#1": 1, "b": 0}, "residual": ["0/1", "-1/1", "0/1"]}),
    ])
    def test_polarization(self, src, witness):
        term = parse(Alphabet([]), src, allow_vars=True)
        assert euler_wronskian_algebra(3).is_identity(term) == (witness is None, witness)

    @staticmethod
    def power(name, k):
        return parse(Alphabet([]), "*".join([f"?{name}"] * k), allow_vars=True)

    def test_a_repeated_variable_is_evaluated_once_per_sub_multiset(self):
        # x^4 - x^4 passes: the sweep takes the 15 sorted 4-tuples of the 3
        # basis vectors, and evaluates the term once at each nonempty
        # multiset of at most 4 of them, not at 3^4 tuples of 4! copies
        x4 = self.power("x", 4)
        term = Sum(((ONE, x4), (-ONE, x4)))
        with mock.patch.object(concrete, "_evaluate", wraps=concrete._evaluate) as evaluate:
            assert euler_wronskian_algebra(3).is_identity(term) == (True, None)
        assert evaluate.call_count == comb(3 + 4, 4) - 1

    def test_ten_copies(self):
        # the unit's 10th power, polarized: 10! e_0
        holds, witness = euler_wronskian_algebra(3).is_identity(self.power("x", 10))
        assert not holds
        assert witness == {"assignment": {f"x#{c}": 0 for c in range(10)},
                           "residual": ["3628800/1", "0/1", "0/1"]}

    @pytest.mark.parametrize("src", [
        "?x*?x*?x1*?x1 - ?x1*?x1*?x*?x + {?x,?x1}*{?x,?x1}",
        "{?x*?x,?x_}*?x1 - ?x*{?x,?x_*?x1}",
        "?x'*{?x,?x'}*?x - {?x',?x}*?x*?x'",
        "{?x,?x*?x}*?x1*?x1 + ?x1*{?x1,?x}*?x*?x",
        "{?x1,?x_}*?x*?x*?x_ - ?x_*?x*{?x1,?x}*?x_",
        "{?x,?x1*?x1*?x1} - 3*{?x,?x1}*?x1*?x1 + 2*D(?x)*?x1*?x1*?x1",
        "{?x_*?x_,?x} - 2*{?x_,?x}*?x_ + D(?x_)*?x_*?x",
    ])
    def test_prefix_named_copies_match_the_polarization(self, src):
        # the copies of variables whose names are prefixes of each other:
        # "#" sorts below every identifier character, so each variable's
        # copies are one block of the sorted names, and the sweep over one
        # sorted index tuple per block finds the polarization's first witness
        term = parse(Alphabet([]), src, allow_vars=True)
        for algebra in (euler_wronskian_algebra(4), wronskian_algebra(3),
                        untwisted_algebra(euler_wronskian_algebra(3)),
                        adjoin_unit(nonlie_example_algebra())):
            got = algebra.is_identity(term)
            assert got == polarized_is_identity(algebra, term), algebra.to_json()
            if got[1]:
                assert list(got[1]["assignment"]) == sorted(got[1]["assignment"])

    def test_matches_the_polarization_it_replaces(self):
        rng = random.Random(26)
        algebras = [euler_wronskian_algebra(2), euler_wronskian_algebra(3), wronskian_algebra(3),
                    nonlie_example_algebra(), adjoin_unit(nonlie_example_algebra()),
                    zero_bracket_poisson(3), untwisted_algebra(euler_wronskian_algebra(3)),
                    StructureAlgebra(2, [0, 1], {(0, 0): [(0, 1)], (0, 1): [(1, 2)], (1, 0): [(1, 1)],
                                                 (1, 1): [(0, 1)]},
                                     {(0, 1): [(1, 1)], (1, 1): [(0, -1)], (1, 0): [(0, 1)]},
                                     (1, 0))]

        def tree(leaves):
            if len(leaves) == 1:
                return leaves[0]
            cut = rng.randint(1, len(leaves) - 1)
            return rng.choice([Prod, Bracket])(tree(leaves[:cut]), tree(leaves[cut:]))

        outcomes = set()
        for _ in range(200):
            degree = rng.choice([2, 3, 4, 4, 5])
            algebra = rng.choice([a for a in algebras if a.dim <= (2 if degree == 5 else 3)])
            names = rng.sample("abc", rng.randint(1, min(3, degree)))
            leaves = [Var(n) for n in names] + [Var(rng.choice(names))
                                                for _ in range(degree - len(names))]
            leaves += [Gen("1")] * (rng.random() < 0.2)
            pieces = []
            for _ in range(rng.randint(1, 3)):
                rng.shuffle(leaves)
                pieces.append((rng.choice([1, -1, 2, Fraction(1, 2)]), tree(leaves[:])))
            term = Sum(tuple(pieces))
            try:
                got = algebra.is_identity(term)
            except AlgebraError as exc:
                assert str(exc) == "term uses the unit but the algebra has none"
                with pytest.raises(AlgebraError, match=str(exc)):
                    polarized_is_identity(algebra, term)
                outcomes.add("error")
                continue
            assert got == polarized_is_identity(algebra, term), term
            outcomes.add("pass" if got[0] else "fail" if "#" in "".join(got[1]["assignment"])
                         else "fail multilinear")
        assert outcomes == {"pass", "fail", "fail multilinear", "error"}


class TestBuiltins:
    def test_wronskian_table_values(self):
        algebra = wronskian_algebra(2)
        # {t, 1} = D(t) = 1
        assert algebra.bracket(vbasis(2, 1), vbasis(2, 0)) == (ONE, Fraction(0))
        # {1, t} = -1
        assert algebra.bracket(vbasis(2, 0), vbasis(2, 1)) == (-ONE, Fraction(0))

    def test_wronskian_angle_bracket_vanishes(self):
        # <a,b> = {a,b} - (D(a)b - aD(b)) is identically zero on the tables
        algebra = wronskian_algebra(3)
        D = lambda a: algebra.bracket(a, algebra.unit)
        for i in range(3):
            for j in range(3):
                a, b = vbasis(3, i), vbasis(3, j)
                corr = tuple(x - y for x, y in zip(algebra.mul(D(a), b), algebra.mul(a, D(b))))
                got = tuple(x - y for x, y in zip(algebra.bracket(a, b), corr))
                assert all(x == 0 for x in got)

    def test_zero_product_requires_anticommutative_table(self):
        with pytest.raises(AlgebraError):
            zero_product_algebra({(0, 1): [(0, ONE)], (1, 0): [(0, ONE)]}, dim=2)

    def test_zero_bracket_poisson_validates(self):
        assert zero_bracket_poisson(3).validate().ok

    def test_nonlie_example_is_gp_but_not_lie(self):
        algebra = nonlie_example_algebra()
        assert algebra.validate().ok
        jac = Sum((
            (ONE, Bracket(Bracket(Var("a"), Var("b")), Var("c"))),
            (ONE, Bracket(Bracket(Var("b"), Var("c")), Var("a"))),
            (ONE, Bracket(Bracket(Var("c"), Var("a")), Var("b"))),
        ))
        holds, witness = algebra.is_identity(jac)
        assert not holds

    def test_adjoined_unit_keeps_gp(self):
        assert adjoin_unit(nonlie_example_algebra()).validate().ok

    def test_adjoined_unit_copies_the_product(self):
        # the ideal (t, t^2) of Q[t]/(t^3), with t * t = t^2, plus a unit is Q[t]/(t^3)
        ideal = StructureAlgebra(2, [0, 0], {(0, 0): [(1, 1)]}, {}, None, "poisson")
        unital = adjoin_unit(ideal)
        assert unital.to_json() == zero_bracket_poisson(3).to_json()
        assert unital.validate().ok

    def test_untwisted_euler_wronskian_is_jordan_bracket_algebra(self):
        got = untwisted_algebra(euler_wronskian_algebra(3))
        assert got.claim == "jb"
        assert got.validate().ok

    def test_untwist_needs_a_derivation(self):
        with pytest.raises(AlgebraError, match="bracket-with-unit is not a derivation of the product"):
            untwisted_algebra(wronskian_algebra(3))  # d/dt does not descend

    def test_untwist_halves_derivation_type_brackets(self):
        # a bracket of the shape D(a)b - aD(b) untwists to half of itself
        base = euler_wronskian_algebra(3)
        got = untwisted_algebra(base)
        for i in range(3):
            for j in range(3):
                a, b = vbasis(3, i), vbasis(3, j)
                assert got.bracket(a, b) == tuple(
                    Fraction(1, 2) * x for x in base.bracket(a, b)
                )


# the first 16 hex digits of the SHA-256 of json.dumps(to_json()) of each
# builtin: a change to a table, the order of its rows or a serialized
# scalar shows here
BUILTIN_JSON_SHA256 = {
    "wronskian2": "3497028aa17ac105",
    "wronskian3": "f87fb7e00365cbe1",
    "wronskian4": "d703864bd7c23faa",
    "wronskian5": "aca581ed20d470dc",
    "wronskian6": "260e619c2ed79636",
    "wronskian7": "b2633f528b71a36e",
    "wronskian8": "2f59c202a2c018d3",
    "wronskian12": "ff6eea4fd4038baa",
    "wronskian16": "8c53c418493ef052",
    "euler-wronskian2": "09704545a4f49e2d",
    "euler-wronskian3": "f24a4687d831ab30",
    "euler-wronskian4": "fe5f2457440de796",
    "euler-wronskian5": "4538e665bcd7f8d7",
    "euler-wronskian6": "01908e1c3556e4a0",
    "euler-wronskian7": "48467f5efcad04bd",
    "euler-wronskian8": "7333f1d8cf55d362",
    "euler-wronskian12": "479ccb87c6090e68",
    "euler-wronskian16": "e885ec13cca798d8",
    "untwisted-euler2": "4912cdc3281fcae0",
    "untwisted-euler3": "5c6a825da0784a29",
    "untwisted-euler4": "06343c8e8662566d",
    "untwisted-euler5": "5629e72e16476059",
    "untwisted-euler6": "c72962102f86952f",
    "untwisted-euler7": "7c5421097002e157",
    "untwisted-euler8": "6ae39428cfc4a8f1",
    "untwisted-euler12": "0254e34c50b4d099",
    "untwisted-euler16": "36947aa456b9d98e",
    "zero-bracket2": "e94c02241958642a",
    "zero-bracket3": "810c70339409857b",
    "zero-bracket4": "c9b794a5bcd29769",
    "zero-bracket5": "fcf5c1b97282fb5e",
    "zero-bracket6": "d2c5930f7e8daa7a",
    "zero-bracket7": "084b50fdf8832408",
    "zero-bracket8": "c052e913a5dc62d7",
    "zero-bracket12": "ec5acf8c81a2b794",
    "zero-bracket16": "11f19c4ac2bceff5",
    "nonlie": "22c63e5e2c8e7a76",
    "unital-nonlie-gp": "8148ccb693457401",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_JSON_SHA256))
def test_builtin_json_is_pinned(name):
    alg = _resolve_algebra("builtin:" + name)
    digest = hashlib.sha256(json.dumps(alg.to_json()).encode()).hexdigest()[:16]
    assert digest == BUILTIN_JSON_SHA256[name]


class TestJson:
    def test_round_trip(self, tmp_path):
        algebra = euler_wronskian_algebra(3)
        path = tmp_path / "euler3.json"
        path.write_text(json.dumps(algebra.to_json()))
        data = json.loads(path.read_text())
        assert data["dim"] == 3
        assert data["claim"] == "genp"
        assert data["parity"] == [0, 0, 0]
        assert all("," in key for key in data["product"])
        back = load_algebra(path)
        assert back.validate().ok
        assert back.product == algebra.product
        assert back.bracket_table == algebra.bracket_table
        assert back.unit == algebra.unit

    @pytest.mark.parametrize("make", [
        lambda: wronskian_algebra(4),
        lambda: untwisted_algebra(euler_wronskian_algebra(3)),
        lambda: adjoin_unit(nonlie_example_algebra()),
    ], ids=["wronskian4", "untwisted-euler3", "unital-nonlie-gp"])
    def test_rows_are_stored_as_sparse_vectors(self, make):
        """Rows given out of order, with split and cancelling entries, and
        all-cancelling rows at the empty pairs, store the canonical twin."""
        twin = make()

        def noisy(table):
            out = {ij: [(0, 1), (0, -1)] for ij in product(range(twin.dim), repeat=2)}
            for ij, row in table.items():
                split = [entry for k, c in row for entry in ((k, c + 1), (k, -1))]
                out[ij] = split[::-1] + [(0, 3), (0, -3)]
            return out

        alg = StructureAlgebra(twin.dim, twin.parities, noisy(twin.product),
                               noisy(twin.bracket_table), twin.unit, twin.claim)
        assert (alg.product, alg.bracket_table) == (twin.product, twin.bracket_table)
        assert json.dumps(alg.to_json()) == json.dumps(twin.to_json())

        def reports(a):
            out = [a.validate().to_json(), criteria_check(a).to_json()]
            try:
                out.append(super_jordan_check(double_of(a)).to_json())
            except AlgebraError as exc:
                out.append(str(exc))
            return json.dumps(out)

        assert reports(alg) == reports(twin)

    def test_bad_index_rejected(self):
        with pytest.raises(AlgebraError):
            StructureAlgebra(2, [0, 0], {(0, 5): [(0, ONE)]}, {}, None, "none")
        with pytest.raises(AlgebraError):
            StructureAlgebra(2, [0, 0], {(0, 1): [(7, ONE)]}, {}, None, "none")

    @pytest.mark.parametrize("unit", ["10", 5], ids=["string", "scalar"])
    def test_unit_that_is_not_a_sequence_rejected(self, unit):
        # "10" would be read character by character as the vector (1, 0)
        with pytest.raises(AlgebraError, match="unit must be a sequence"):
            StructureAlgebra(2, [0, 0], {(0, 0): [(0, ONE)]}, {}, unit, "none")

    @pytest.mark.parametrize("make,dim", [
        (lambda: StructureAlgebra(-1, [], {}), -1),
        (lambda: StructureAlgebra.from_json({"dim": -1, "parity": []}), -1),
        (lambda: zero_bracket_poisson(-2), -2),
    ], ids=["constructor", "json", "zero-bracket"])
    def test_negative_dimension_rejected(self, make, dim):
        # refused by value, not as a parity list of the wrong length
        with pytest.raises(AlgebraError, match=f"^dimension must be at least 0, not {dim}$"):
            make()

    @pytest.mark.parametrize("args", [
        (2, [0, 2], {}),
        (2, [0, 0], {(0, 0): [(1.7, ONE)]}),
        (2, [0, 0], {(0.5, 0): [(1, ONE)]}),
        ("2", [0, 0], {}),
        (2, [True, 0], {}),
        (2, [1.0, 0], {}),
    ], ids=["parity-2", "float-target", "float-key", "string-dim", "parity-true", "parity-float"])
    def test_non_integer_or_non_binary_rejected(self, args):
        # coercing would give a silently different algebra: parity 2 read as
        # even, target 1.7 as 1, key (0.5, 0) as a row no product reads;
        # a parity is the int 0 or 1, as a coefficient and an index are ints
        with pytest.raises(AlgebraError):
            StructureAlgebra(*args)
