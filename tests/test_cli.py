import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superbracket.core import Alphabet, Bracket, Gen, Prod
from superbracket.cli import MAX_NESTING, ParseError, main, parse, parse_word, print_element
from superbracket.engine import GENP, FreeAlgebra, GpAlgebra
from superbracket.concrete import euler_wronskian_algebra
from helpers import random_homogeneous

ALPHABET = Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)])

# Python's int/str conversion limit is 4,300 digits by default
PAST = "1" * 5000
EDGE, OVER = "1" * 4300, "1" * 4301
NINES = "9" * 3000  # its square has 6,000 digits
PAST_LIMIT = "is longer than the limit of 4300 digits"


class TestParse:
    def test_nested_bracket(self):
        t = parse(ALPHABET, "{x1,{x2,x3}}")
        assert t == Bracket(Gen("x1"), Bracket(Gen("x2"), Gen("x3")))

    def test_derivation_desugars(self):
        t = parse(ALPHABET, "D(x1)*x2")
        assert t == Prod(Bracket(Gen("x1"), Gen("1")), Gen("x2"))

    def test_angle_desugars(self, genp):
        t = parse(genp.alphabet, "<x1,x2>")
        want = (
            genp.bracket(genp.gen("x1"), genp.gen("x2"))
            - genp.mul(genp.deriv(genp.gen("x1")), genp.gen("x2"))
            + genp.mul(genp.gen("x1"), genp.deriv(genp.gen("x2")))
        )
        assert genp.normal_form(t) == want

    def test_unterminated_bracket_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse(ALPHABET, "{x1")
        assert "offset 3" in str(err.value)

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError):
            parse(ALPHABET, "{x1,zz}")

    def test_vars_only_in_identity_mode(self):
        with pytest.raises(ParseError):
            parse(ALPHABET, "?a")
        from superbracket.core import Var

        assert parse(ALPHABET, "?a", allow_vars=True) == Var("a")

    def test_juxtaposition_and_star_agree(self, genp):
        a = genp.normal_form(parse(genp.alphabet, "x1 x2"))
        b = genp.normal_form(parse(genp.alphabet, "x1*x2"))
        assert a == b

    def test_rational_coefficients(self, genp):
        e = genp.normal_form(parse(genp.alphabet, "3/2 x1 - 1/2 x1"))
        assert e == genp.gen("x1")

    def test_unit_literal(self, genp):
        assert genp.normal_form(parse(genp.alphabet, "1")) == genp.one()
        assert genp.normal_form(parse(genp.alphabet, "2")) == genp.one().scale(2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse(ALPHABET, "1/0 x1")

    def test_nesting_limit(self):
        def nested(depth, open_, close):
            return open_ * depth + "x1" + close * depth

        for open_, close in (("{", ",x2}"), ("(", ")"), ("D(", ")"), ("<", ",x2>")):
            parse(ALPHABET, nested(MAX_NESTING, open_, close))
            with pytest.raises(ParseError) as err:
                parse(ALPHABET, nested(MAX_NESTING + 1, open_, close))
            assert f"nesting deeper than {MAX_NESTING}" in str(err.value)
        word = nested(MAX_NESTING, "{", ",x2}")
        assert parse_word(ALPHABET, word) is not None
        with pytest.raises(ParseError):
            parse_word(ALPHABET, "{" + word + ",x2}")

    @pytest.mark.parametrize("src", [
        "x1 +", "+x1", "{x1,}", "", "- -x1", "x1 + + x2", "D()", "()", "2*", "x1*", "1/2 *",
    ])
    def test_empty_term_is_a_parse_error(self, src):
        with pytest.raises(ParseError):
            parse(ALPHABET, src)

    @pytest.mark.parametrize("src,want", [
        ("1", "1"), ("3", "3/1 1"), ("-1", "-1/1 1"), ("0", "0"), ("- 1", "-1/1 1"),
        ("1/2", "1/2 1"), ("x1 - 1/2", "-1/2 1 + 1/1 x1"), ("2 x1", "2/1 x1"),
        ("2*x1", "2/1 x1"), ("1*x1", "1/1 x1"),
    ])
    def test_terms_keep_their_value(self, genp, src, want):
        assert print_element(genp, genp.normal_form(parse(genp.alphabet, src))) == want

    def test_parse_word(self):
        assert parse_word(ALPHABET, "{{x2,x1},x1}") == ((2, 1), 1)
        assert parse_word(ALPHABET, "x1") == 1
        with pytest.raises(ParseError):
            parse_word(ALPHABET, "{x1,x2")

    @pytest.mark.parametrize("src", ["²", "1/²", "١ x1", "x1 + ٣"])
    def test_digits_are_ascii(self, src):
        with pytest.raises(ParseError, match="unexpected character"):
            parse(ALPHABET, src)

    @pytest.mark.parametrize("src", ["²", "1/²"])
    def test_non_ascii_digit_is_a_usage_error(self, capsys, src):
        assert main(["nf", "--gens", "x,y", src]) == 2
        assert capsys.readouterr().err.startswith("error: unexpected character '²'")

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("xyD12{}(),<>+-*/?² "), max_size=24))
    def test_no_text_is_an_internal_error(self, src):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            main(["nf", "--gens", "x,y", "--", src])
        assert "internal error" not in err.getvalue()


class TestParseWord:
    """parse_word reads through parse: a word is an expression that is a
    generator or a bracket of such expressions."""

    @pytest.mark.parametrize("algebra", [
        lambda a: FreeAlgebra(a, GENP), GpAlgebra,
    ], ids=["genp", "gp-oriented"])
    def test_basis_words_round_trip(self, algebra):
        alphabet = Alphabet([("x1", 0), ("x2", 0), ("th", 1)])
        space = algebra(alphabet).space
        seen = 0
        for degrees in product(range(5), repeat=alphabet.size):
            if 0 < sum(degrees) <= 4:
                for w in space.basis_words(degrees):
                    assert space.get(parse_word(alphabet, space.render(w.word))) is w
                    seen += 1
        assert seen > 50

    @pytest.mark.parametrize("src", ["x1 x2", "2 x1", "x1 + x2", "-x1", "?a", "{x1,x2 x3}", "<x1,x2>"])
    def test_non_words_are_parse_errors(self, src):
        with pytest.raises(ParseError):
            parse_word(ALPHABET, src)

    @pytest.mark.parametrize("src,word", [
        ("D(x1)", (1, 0)), ("(x1)", 1), ("{x1,(x2)}", (1, 2)), ("{D(x2),x1}", ((2, 0), 1)),
    ])
    def test_expression_words_are_words(self, src, word):
        assert parse_word(ALPHABET, src) == word

    @pytest.mark.parametrize("word", ["2/2 x1", "1/1", "{x2,3/3 x1}"])
    def test_words_with_a_coefficient_are_parse_errors(self, genp, word):
        data = [{"coeff": "1/1", "monomial": [{"word": word, "exp": 1}]}]
        with pytest.raises(ParseError, match=f"is not a bracket word at offset {word.index('/')}$"):
            genp.element_from_json(data)

    def test_element_json_reads_derivation_words(self, genp):
        data = [{"coeff": "1/1", "monomial": [{"word": "D(x1)", "exp": 1}]}]
        assert genp.element_from_json(data) == genp.deriv(genp.gen("x1"))

    def test_nesting_bound_counts_every_kind_of_bracket(self):
        src = "{" * 100 + "(" * 101 + "x1" + ")" * 101 + ",x2}" * 100
        for read in (parse, parse_word):
            with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} at offset 200"):
                read(ALPHABET, src)


class TestPrint:
    def test_unit(self, genp):
        assert print_element(genp, genp.one()) == "1"

    def test_zero(self, genp):
        assert print_element(genp, genp.zero()) == "0"

    def test_single_negative_term_with_ascending_factors(self, genp):
        w21 = genp.word_element(genp.space.get((2, 1)))
        e = genp.mul(w21, genp.gen("x3")).scale(-1)
        assert print_element(genp, e) == "-1/1 x3 {x2,x1}"

    def test_sign_joined_terms(self, genp):
        e = genp.gen("x1") - genp.gen("x2").scale(Fraction(1, 2))
        assert print_element(genp, e) == "1/1 x1 - 1/2 x2"

    def test_exponents_print_as_repeats(self, genp):
        e = genp.mul(genp.gen("x1"), genp.gen("x1"))
        assert print_element(genp, e) == "1/1 x1 x1"

    def test_round_trip(self, genp, rng):
        for _ in range(40):
            e = random_homogeneous(genp, rng, max_degree=4)
            back = genp.normal_form(parse(genp.alphabet, print_element(genp, e)))
            assert back == e


class TestDispatch:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_dim(self, capsys):
        code, out, _ = self.run(capsys, "dim", "--theory", "genp", "3")
        assert code == 0 and out.strip() == "18"

    def test_dim_json(self, capsys):
        code, out, _ = self.run(capsys, "dim", "--theory", "jb", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "theory": "jb", "dim": 4}

    def test_nf(self, capsys):
        code, out, _ = self.run(capsys, "nf", "--gens", "x1,x2", "{x1,x2}")
        assert code == 0 and out.strip() == "-1/1 {x2,x1}"

    def test_nf_json_schema(self, capsys):
        code, out, _ = self.run(capsys, "nf", "--gens", "x1,x2", "--json", "{x1,x2*x2}")
        assert code == 0
        data = json.loads(out)
        for item in data:
            assert set(item) == {"coeff", "monomial"}

    def test_dim_gp_is_a_usage_error(self, capsys):
        code, out, err = self.run(capsys, "dim", "--theory", "gp", "2")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_check_identity_free_gp(self, capsys):
        leibniz = "{?a,?b*?c} - {?a,?b}*?c - ?b*{?a,?c}"
        jacobi = "{{?a,?b},?c} - {?a,{?b,?c}} - {{?a,?c},?b}"
        argv = ("check-identity", "--free", "--theory", "gp", "--gens", "a,b,c")
        assert self.run(capsys, *argv, leibniz)[:2] == (0, "true\n")
        assert self.run(capsys, *argv, "D(?a)")[:2] == (0, "true\n")
        code, out, _ = self.run(capsys, *argv, jacobi)
        assert code == 1 and out.startswith("false: ")

    def test_nf_gp(self, capsys):
        code, out, _ = self.run(
            capsys, "nf", "--theory", "gp", "--gens", "x1,x2,x3", "--json", "{{x1,x2},x3}"
        )
        assert code == 0
        data = json.loads(out)
        assert data["gp"] is True

    def test_basis(self, capsys):
        code, out, _ = self.run(
            capsys, "basis", "--gens", "x1,x2", "--multidegree", "1:1,x1:1,x2:1"
        )
        assert code == 0 and out.strip().endswith("count 4")

    def test_check_identity_free_true(self, capsys):
        code, out, _ = self.run(
            capsys, "check-identity", "--free", "--gens", "x1,x2",
            "{?x1,?x2} + {?x2,?x1}",
        )
        assert code == 0 and out.strip() == "true"

    def test_check_identity_free_false_with_witness(self, capsys):
        code, out, _ = self.run(
            capsys, "check-identity", "--free", "--gens", "x1,x2", "{?x1,?x2}"
        )
        assert code == 1 and out.startswith("false")

    def test_check_identity_algebra(self, capsys, tmp_path):
        path = tmp_path / "euler.json"
        path.write_text(json.dumps(euler_wronskian_algebra(3).to_json()))
        expr = "{?a,?b*?c} - {?a,?b}*?c - ?b*{?a,?c} + D(?a)*?b*?c"
        code, out, _ = self.run(capsys, "check-identity", "--algebra", str(path), expr)
        assert code == 0 and out.strip() == "true"

    def test_validate_builtin_pass_and_fail(self, capsys):
        code, out, _ = self.run(capsys, "validate", "builtin:euler-wronskian3")
        assert code == 0
        code, out, _ = self.run(capsys, "validate", "builtin:wronskian3")
        assert code == 1 and "deformed-leibniz: fail" in out

    def test_validate_json(self, capsys):
        code, out, _ = self.run(capsys, "validate", "builtin:nonlie", "--json")
        assert code == 0
        data = json.loads(out)
        assert all(c["status"] == "pass" for c in data)

    def test_kantor_check_modes(self, capsys):
        code, out, _ = self.run(capsys, "kantor-check", "--algebra", "builtin:nonlie")
        assert code == 0
        code, out, _ = self.run(
            capsys, "kantor-check", "--algebra", "builtin:wronskian3", "--jorskob", "--json"
        )
        assert code == 1
        data = json.loads(out)
        assert {c["identity"] for c in data} == {"jorskob1", "jorskob2", "jorskob3"}
        failing = [c for c in data if c["status"] == "fail"]
        assert failing and all("witness" in c for c in failing)

    def test_kantor_check_disagreeing_verdicts_are_a_guard_error(self, capsys, monkeypatch):
        from superbracket import kantor
        from superbracket.concrete import Report

        passing = Report([{"identity": f"jorskob{k}", "status": "pass"} for k in (1, 2, 3)])
        monkeypatch.setattr(kantor, "criteria_check", lambda algebra: passing)
        code, out, err = self.run(capsys, "kantor-check", "--algebra", "builtin:wronskian3")
        assert code == 3
        assert out == ("super-jordan-linearized: fail\n"
                       "jorskob1: pass\njorskob2: pass\njorskob3: pass\n")
        assert err == ("error: the verdicts disagree: super-jordan-linearized fail, "
                       "jorskob criteria pass\n")

    def test_kantor_check_direct(self, capsys):
        code, out, _ = self.run(
            capsys, "kantor-check", "--algebra", "builtin:untwisted-euler3", "--direct"
        )
        assert code == 0 and "super-jordan-linearized: pass" in out

    # Check reports, byte for byte: the first failing tuple in product order,
    # its parities and its residual are part of the wire format.

    def test_kantor_check_json_golden(self, capsys):
        code, out, _ = self.run(capsys, "kantor-check", "--algebra", "builtin:wronskian3", "--json")
        assert code == 1
        assert out == (
            '[{"identity": "super-jordan-linearized", "status": "fail", "witness": '
            '{"indices": [1, 1, 3, 4], "parities": [0, 0, 1, 1], '
            '"residual": ["0/1", "0/1", "3/1", "0/1", "0/1", "0/1"]}}, '
            '{"identity": "jorskob1", "status": "fail", "witness": '
            '{"indices": [0, 1, 1, 2], "parities": [0, 0, 0, 0], "residual": ["0/1", "0/1", "3/1"]}}, '
            '{"identity": "jorskob2", "status": "fail", "witness": '
            '{"indices": [0, 1, 0, 2], "parities": [0, 0, 0, 0], "residual": ["0/1", "0/1", "-3/1"]}}, '
            '{"identity": "jorskob3", "status": "fail", "witness": '
            '{"indices": [1, 1, 1, 0], "parities": [0, 0, 0, 0], "residual": ["0/1", "0/1", "-3/1"]}}]\n'
        )

    def test_validate_json_golden(self, capsys):
        code, out, _ = self.run(capsys, "validate", "builtin:unital-nonlie-gp", "--json")
        assert code == 0
        assert out == (
            '[{"identity": "supercommutativity", "status": "pass"}, '
            '{"identity": "associativity", "status": "pass"}, '
            '{"identity": "unit", "status": "pass"}, '
            '{"identity": "anticommutativity", "status": "pass"}, '
            '{"identity": "leibniz", "status": "pass"}]\n'
        )
        code, out, _ = self.run(capsys, "validate", "builtin:wronskian3", "--json")
        assert code == 1
        assert out == (
            '[{"identity": "supercommutativity", "status": "pass"}, '
            '{"identity": "associativity", "status": "pass"}, '
            '{"identity": "unit", "status": "pass"}, '
            '{"identity": "anticommutativity", "status": "pass"}, '
            '{"identity": "deformed-leibniz", "status": "fail", "witness": '
            '{"indices": [0, 1, 2], "parities": [0, 0, 0], "residual": ["0/1", "0/1", "3/1"]}}, '
            '{"identity": "jacobi", "status": "pass"}]\n'
        )

    def test_check_identity_algebra_json_golden(self, capsys):
        expr = "{?a,{?b,?c}} - {{?a,?b},?c} - {?b,{?a,?c}}"
        code, out, _ = self.run(
            capsys, "check-identity", "--algebra", "builtin:unital-nonlie-gp", "--json", expr
        )
        assert code == 1
        assert out == (
            '{"identity": "{?a,{?b,?c}} - {{?a,?b},?c} - {?b,{?a,?c}}", "status": "fail", '
            '"witness": {"assignment": {"a": 1, "b": 2, "c": 3}, '
            '"residual": ["0/1", "-2/1", "0/1", "0/1"]}}\n'
        )

    @pytest.mark.parametrize("text,message", [
        ('{"parity": [0]}', "lacks 'dim'"),
        ('{"dim": 1, "parity": [0], "product": {"00": [[0, "1/1"]]}}', "key '00' is not 'i,j'"),
        ("[1, 2]", "must be an object, not list"),
        ('{"dim": 1, "parity": [0]', "not valid JSON"),
        ('{"dim": 2, "parity": [0, 0], "product": {"0,0": [[1.7, "1/1"]]}}', "target index 1.7 out of range"),
        ('{"dim": 1, "parity": [2]}', "parities must be 0 or 1"),
        ('{"dim": 2, "parity": [0, 0], "product": {"1_0,0": [[0, "1/1"]]}}', "key '1_0,0' is not 'i,j'"),
        ('{"dim": 2, "parity": [0, 0], "product": {" 1,0": [[0, "1/1"]]}}', "key ' 1,0' is not 'i,j'"),
        ('{"dim": 2, "parity": [0, 0], "product": {"\u0661,0": [[0, "1/1"]]}}',
         "key '\u0661,0' is not 'i,j'"),
        ('{"dim": 1, "parity": [true]}', "parities must be 0 or 1"),
    ], ids=["no-dim", "bad-table-key", "not-an-object", "not-json", "float-target", "parity-2",
            "table-key-underscore", "table-key-space", "table-key-arabic-indic", "parity-true"])
    def test_malformed_algebra_json_is_a_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = self.run(capsys, "validate", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv,message", [
        (["basis", "--gens", "x", "--multidegree", "x:z"], "count of 'x' must be an integer, not 'z'"),
        (["check-identity", "--algebra", "builtin:wronskianx", "?a"], "not 'x'"),
        (["validate", "builtin:untwisted-euler3/2"], "not '3/2'"),
        (["validate", "builtin:zero-bracket"], "not ''"),
    ], ids=["multidegree-count", "builtin-wronskian", "builtin-fraction", "builtin-no-size"])
    def test_malformed_number_is_a_usage_error(self, capsys, argv, message):
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv,env,message", [
        (["dim", "\u0663"], {}, "n must be an integer, not '\u0663'"),
        (["basis", "--gens", "x,y", "--multidegree", "x:\u0661,y:1,1:0"], {},
         "the multidegree count of 'x' must be an integer, not '\u0661'"),
        (["kantor-check", "--algebra", "builtin:wronskian\u0663"], {},
         "the size N of builtin:wronskianN must be an integer, not '\u0663'"),
        (["validate", "builtin:wronskian 3"], {},
         "the size N of builtin:wronskianN must be an integer, not ' 3'"),
        (["nf", "--gens", "x", "x"], {"JB_MAX_DEGREE": "1_2"},
         "JB_MAX_DEGREE must be an integer, not '1_2'"),
        (["nf", "--gens", "x", "x"], {"JB_MAX_DEGREE": "\u0661\u0662"},
         "JB_MAX_DEGREE must be an integer, not '\u0661\u0662'"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=\u0661,0,0", "?a"], {},
         "not an exact scalar: '\u0661'"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=1_0,0,0", "?a"], {},
         "not an exact scalar: '1_0'"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a= 1 ,0,0", "?a"], {},
         "not an exact scalar: ' 1 '"),
        (["dim", PAST], {}, f"n {PAST_LIMIT}"),
        (["nf", "--gens", "x", f"{PAST} x"], {}, f"a number {PAST_LIMIT}"),
        (["nf", "--gens", "x", f"1/{PAST} x"], {}, f"a number {PAST_LIMIT}"),
        (["nf", "--gens", "x", f"{OVER} x"], {}, f"a number {PAST_LIMIT}"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", f"a={PAST},0,0", "?a"], {},
         f"a number {PAST_LIMIT}"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", f"a=1/{PAST},0,0", "?a"], {},
         f"a number {PAST_LIMIT}"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", f"a={OVER},0,0", "?a"], {},
         f"a number {PAST_LIMIT}"),
        (["basis", "--gens", "x", "--multidegree", f"x:{PAST}"], {},
         f"the multidegree count of 'x' {PAST_LIMIT}"),
        (["validate", f"builtin:wronskian{PAST}"], {},
         f"the size N of builtin:wronskianN {PAST_LIMIT}"),
        (["nf", "--gens", "x", "x"], {"JB_MAX_DEGREE": PAST}, f"JB_MAX_DEGREE {PAST_LIMIT}"),
    ], ids=["dim", "multidegree-count", "builtin-size", "builtin-space", "guard-underscore",
            "guard-arabic-indic", "eval-binding", "eval-binding-underscore", "eval-binding-spaces",
            "dim-past-limit", "nf-coefficient-past-limit", "nf-denominator-past-limit",
            "nf-coefficient-4301", "eval-binding-past-limit", "eval-denominator-past-limit",
            "eval-binding-4301", "multidegree-count-past-limit", "builtin-size-past-limit",
            "guard-past-limit"])
    def test_numbers_are_ascii_digits(self, capsys, monkeypatch, argv, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (2, "") and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,out", [
        (["dim", "-0"], None), (["dim", "6"], "4320\n"),
        (["basis", "--gens", "x", "--multidegree", "x:2"], "1/1 x x\ncount 1\n"),
        (["nf", "--gens", "x", f"{EDGE} x"], f"{EDGE}/1 x\n"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", f"a={EDGE},0,0", "?a"],
         f"{EDGE}/1 0/1 0/1\n"),
    ], ids=["dim-minus-zero", "dim", "basis", "nf-coefficient-4300", "eval-binding-4300"])
    def test_ascii_numbers_still_read(self, capsys, argv, out):
        code, got, err = self.run(capsys, *argv)
        if out is None:  # read as 0, which dim refuses by value
            assert (code, got, err) == (2, "", "error: n must be at least 1\n")
        else:
            assert (code, got, err) == (0, out, "")

    def test_deeply_nested_algebra_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = self.run(capsys, "validate", str(path))
        assert (code, out) == (2, "") and err == "error: algebra JSON is nested too deeply to read\n"

    def test_basis_over_many_generators(self, capsys):
        # the splits of a multidegree walk only the letters it holds, so
        # the alphabet's size adds no recursion
        gens = ",".join(f"x{i}" for i in range(1, 991))
        code, out, err = self.run(capsys, "basis", "--gens", gens, "--multidegree", "x1:1,x2:1")
        assert (code, err) == (0, "")
        assert out == "1/1 x1 x2\n1/1 {x2,x1}\ncount 2\n"

    @pytest.mark.parametrize("multidegree", ["x:2,y:1,x:1", "x,y,x", "x:1, y:1,x :0"])
    def test_repeated_multidegree_letter_is_a_usage_error(self, capsys, multidegree):
        # a later count of x would silently replace the first
        code, out, err = self.run(capsys, "basis", "--gens", "x,y", "--multidegree", multidegree)
        assert (code, out, err) == (2, "", "error: letter 'x' is counted twice in the multidegree\n")

    @pytest.mark.parametrize("spec", ["a", "=1,0,0", "1=0,1,0", "a b=1,0,0", "?a=1,0,0", "a,b=1,0,0"])
    def test_malformed_binding_is_a_usage_error(self, capsys, spec):
        # no "=", an empty name, or a name that is not one identifier
        code, out, err = self.run(capsys, "eval", "--algebra", "builtin:wronskian3",
                                  "--bind", spec, "?a")
        assert (code, out) == (2, "")
        assert err == f"error: binding {spec!r} is not name=c0,c1,... with an identifier name\n"

    @pytest.mark.parametrize("spec,out", [(" a=1,0,0", "1/1 0/1 0/1\n"),
                                          ("a_1'=0,1,0", "0/1 1/1 0/1\n")])
    def test_binding_names_are_identifiers(self, capsys, spec, out):
        name = spec.partition("=")[0].strip()
        got = self.run(capsys, "eval", "--algebra", "builtin:wronskian3", "--bind", spec, "?" + name)
        assert got == (0, out, "")

    @pytest.mark.parametrize("argv, name", [
        (["nf", "--gens", "a b", "{a,a}"], "a b"),
        (["nf", "--gens", "x,?y", "x"], "?y"),
        (["nf", "--gens", "x,:odd", "x"], ""),
        (["basis", "--gens", "x,1", "--multidegree", "x:1"], "1"),
        (["check-identity", "--algebra", "builtin:wronskian3", "--gens", "a b", "{?a,?b}"], "a b"),
    ], ids=["space", "variable", "empty", "number", "check-identity"])
    def test_generator_names_are_identifiers(self, capsys, argv, name):
        # a name the expression grammar cannot write is refused as such, not
        # blamed on the expression or declared as a generator
        code, out, err = self.run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: generator {name!r} of --gens is not an identifier\n")

    def test_generator_names_keep_their_parity_and_spacing(self, capsys):
        code, out, err = self.run(capsys, "nf", "--gens", " x_1' , th : odd", "{th,x_1'} + th*th")
        assert (code, out, err) == (0, "1/1 {th,x_1'}\n", "")

    @pytest.mark.parametrize("text,dim", [('{"dim": -1, "parity": []}', -1),
                                          ("builtin:zero-bracket-2", -2)], ids=["json", "builtin"])
    def test_negative_dimension_is_a_usage_error(self, capsys, tmp_path, text, dim):
        # refused by value, not as a parity list of the wrong length
        if not text.startswith("builtin:"):
            path = tmp_path / "negative.json"
            path.write_text(text)
            text = str(path)
        code, out, err = self.run(capsys, "validate", text)
        assert (code, out, err) == (2, "", f"error: dimension must be at least 0, not {dim}\n")

    @pytest.mark.parametrize("m", [0, 1])
    def test_zero_bracket_of_size_zero_and_one_still_validates(self, capsys, m):
        code, out, err = self.run(capsys, "validate", f"builtin:zero-bracket{m}")
        assert (code, err) == (0, "") and out.endswith("jacobi: pass\n")

    def test_missing_algebra_file_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = self.run(capsys, "validate", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "") and err.startswith("error: cannot read algebra")

    def test_eval(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        from superbracket.concrete import wronskian_algebra

        path.write_text(json.dumps(wronskian_algebra(3).to_json()))
        code, out, _ = self.run(
            capsys, "eval", "--algebra", str(path),
            "--bind", "a=0,1,0", "--bind", "b=0,0,1", "{?a,?b}",
        )
        assert code == 0
        assert out.split() == ["0/1", "0/1", "-1/1"]

    def test_farkas_command(self, capsys):
        code, out, _ = self.run(
            capsys, "farkas", "--gens", "x,y", "--letters", "x,y",
            "--input", "<x,y>", "--trace",
        )
        assert code == 0
        first = out.splitlines()[0]
        data = json.loads(first)
        assert data["terms"] == [{"coeff": "1/1", "pairs": [[1, 2]], "D": []}]

    @pytest.mark.parametrize("expr", ["{x,c} y", "{x,y} {c,1}", "<x,y> D(c)", "x {y,c} - y {x,c}",
                                      "{x,y} c c"])
    def test_farkas_non_letter_is_a_usage_error(self, capsys, expr):
        code, out, err = self.run(capsys, "farkas", "--gens", "x,y,c", "--letters", "x,y",
                                  "--input", expr)
        assert (code, out, err) == (2, "", "error: 'c' is not a designated letter\n")

    def test_farkas_non_letter_dropped_in_stage_two(self, capsys):
        code, out, _ = self.run(capsys, "farkas", "--gens", "x,y,c", "--letters", "x,y",
                                "--input", "x D(y) + c D(x) D(y)")
        assert code == 0
        assert json.loads(out) == {"m": 1, "letters": ["y"],
                                   "terms": [{"coeff": "-1/1", "pairs": [], "D": [1]}]}

    def test_farkas_non_multilinear_is_a_usage_error(self, capsys):
        code, out, err = self.run(capsys, "farkas", "--gens", "x,y", "--letters", "x,y",
                                  "--input", "{x,{x,y}}")
        assert (code, out, err) == (2, "", "error: polynomial is not multilinear in 'x'\n")

    @pytest.mark.parametrize("letters,expr", [("x,x,y", "<x,y>"), ("x,y,x", "{x,y}")])
    def test_farkas_duplicate_letter_is_a_usage_error(self, capsys, letters, expr):
        code, out, err = self.run(capsys, "farkas", "--gens", "x,y", "--letters", letters,
                                  "--input", expr)
        assert (code, out, err) == (2, "", "error: letter 'x' is designated twice\n")

    def test_nf_expression_with_leading_minus_after_double_dash(self, capsys):
        code, out, _ = self.run(capsys, "nf", "--gens", "x,y", "--", "-x+y")
        assert (code, out) == (0, "-1/1 x + 1/1 y\n")

    # the second input is an identity of wronskian3 whose defect in y is
    # zero, so stage 1 of the reduction collapses at y
    COLLAPSE = ("x,y,z", "x {{z,1},y} - y {{z,1},x} + {y,x} {z,1}")

    @pytest.mark.parametrize("letters,text,json_flag,want", [
        ("x,y", "{x,y} + {y,x}", [], "degenerate: input polynomial is zero\n"),
        ("x,y", "{x,y} + {y,x}", ["--json"], '{"degenerate": "input polynomial is zero"}\n'),
        (*COLLAPSE, [], "degenerate: defect in 'y' vanished\n"),
        (*COLLAPSE, ["--json"], '{"degenerate": "defect in \'y\' vanished"}\n'),
    ], ids=["plain", "json", "stage-1-collapse-plain", "stage-1-collapse-json"])
    def test_farkas_degenerate(self, capsys, letters, text, json_flag, want):
        code, out, err = self.run(capsys, "farkas", "--gens", letters, "--letters", letters,
                                  "--input", text, *json_flag)
        assert (code, out, err) == (1, want, "")

    @pytest.mark.parametrize("argv,message", [
        (["validate", "builtin:nosuch3"], "unknown builtin 'nosuch3'"),
        (["check-identity", "--gens", "x", "?x"], "needs --algebra FILE or --free"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=0,1", "?a"],
         "binding 'a' has 2 coordinates, need 3"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=1,0,0", "--bind", "a=0,1,0",
          "?a"], "variable 'a' is bound twice"),
        (["farkas", "--theory", "jb", "--gens", "x,y", "--letters", "x,y", "--input", "{x,y}"],
         "the reduction runs in the genp theory"),
    ], ids=["unknown-builtin", "check-identity-no-target", "eval-binding-length",
            "eval-binding-repeated", "farkas-jb"])
    def test_usage_errors(self, capsys, argv, message):
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err

    def test_usage_error_exit_code(self, capsys):
        assert main(["nonsense-command"]) == 2

    def test_syntax_error_exit_code(self, capsys):
        assert main(["nf", "--gens", "x1", "{x1"]) == 2
        assert main(["nf", "--gens", "x1", "x1 +"]) == 2

    def test_degree_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("JB_MAX_DEGREE", "6")
        expr = "*".join(["D(x1)"] * 4)  # degree 8 exceeds the guard
        assert main(["nf", "--gens", "x1", expr]) == 3

    def test_degree_guard_gp(self, capsys, monkeypatch):
        monkeypatch.setenv("JB_MAX_DEGREE", "2")
        code, _, err = self.run(capsys, "nf", "--theory", "gp", "--gens", "x,y", "x*x*x*y")
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["nf", "--gens", "x", f"({NINES} x)({NINES} x)"],
        ["nf", "--json", "--gens", "x", f"({NINES} x)({NINES} x)"],
        ["eval", "--algebra", "builtin:wronskian3", "--bind", f"a={NINES},0,0", "?a*?a"],
        ["eval", "--json", "--algebra", "builtin:wronskian3", "--bind", f"a={NINES},0,0", "?a*?a"],
    ], ids=["nf", "nf-json", "eval", "eval-json"])
    def test_a_result_past_the_digit_limit_is_a_guard_error(self, capsys, argv):
        code, out, err = self.run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: a number in the result {PAST_LIMIT}\n")

    def test_malformed_degree_guard_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("JB_MAX_DEGREE", "abc")
        code, out, err = self.run(capsys, "nf", "--gens", "x", "x")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "JB_MAX_DEGREE must be an integer, not 'abc'" in err

    @pytest.mark.parametrize("theory", ["genp", "jb", "gp"])
    def test_nf_at_the_nesting_limit(self, capsys, theory):
        deep = "x"
        for _ in range(MAX_NESTING):
            deep = "{" + deep + ",y}"
        code, out, _ = self.run(capsys, "nf", "--theory", theory, "--gens", "x,y", deep)
        # ad(y)^n x is one basis word, up to the sign of the first orientation
        assert code == 0 and out.split()[0] == "-1/1" and len(out.split()) == 2
        code, _, err = self.run(capsys, "nf", "--theory", theory, "--gens", "x,y",
                                "{" + deep + ",y}")
        assert code == 2 and err.startswith("error:") and "nesting" in err

    def test_guard_default_allows_moderate_terms(self, capsys, monkeypatch):
        monkeypatch.delenv("JB_MAX_DEGREE", raising=False)
        assert main(["nf", "--gens", "x1", "*".join(["D(x1)"] * 5)]) == 0


class TestConsoleEntry:
    @staticmethod
    def run(*argv, **env_extra):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), **env_extra)
        return subprocess.run([sys.executable, "-m", "superbracket", *argv],
                              capture_output=True, text=True, env=env, cwd=root)

    def test_module_invocation(self):
        proc = self.run("dim", "--theory", "jb", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "18"

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # about 800 kB of basis, far over a pipe's buffer; the reader takes
        # one line and closes the pipe, as ``| head -n 1`` does
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "superbracket", "basis", "--gens", "x1,x2,x3",
             "--multidegree", "1:3,x1:2,x2:2,x3:3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=root)
        assert proc.stdout.readline().startswith("1/1 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, "")

    @pytest.mark.parametrize("theory, terms", [("genp", MAX_NESTING), ("gp", 1)])
    def test_left_chain_bracket_at_the_nesting_limit(self, theory, terms):
        # {c,x} for the left chain c = {...{z,y},...,y} one level below the
        # parser's limit: genp straightens it by one Jacobi step per level
        # into a word per level, so a word rule that spends more Python
        # frames per step ends in RecursionError here; in gp it is one atom
        chain = "z"
        for _ in range(MAX_NESTING - 1):
            chain = "{" + chain + ",y}"
        proc = self.run("nf", "--theory", theory, "--gens", "x,y,z", "{" + chain + ",x}")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sum(1 for tok in proc.stdout.split() if "/" in tok) == terms

    def test_undeclared_variable_independent_of_hash_seed(self):
        # the variables bind in sorted order, so the first undeclared one
        # named does not depend on set iteration order
        runs = [self.run("check-identity", "--free", "--gens", "x1", "{?a,{?b,?c}}",
                         PYTHONHASHSEED=str(seed)) for seed in range(1, 5)]
        assert {(p.returncode, p.stderr) for p in runs} == {(2, "error: undeclared generator 'a'\n")}


# A fresh interpreter imports the CLI, runs the commands of argv[2] in turn
# and prints, after the import and after each command, which modules of
# argv[1] are loaded.  It runs with -S: the modules that the installation's
# site hooks load belong to the interpreter, not to the package, and pytest
# itself loads dataclasses and typing, so no in-process check can tell.
_IMPORT_PROBE = """
import json, sys
from superbracket.cli import main
watched = json.loads(sys.argv[1])
def loaded():
    return sorted(name for name in watched if name in sys.modules)
seen = [loaded()]
for argv in json.loads(sys.argv[2]):
    main(argv)
    seen.append(loaded())
print(json.dumps(seen))
"""

_WATCHED = ["dataclasses", "superbracket.concrete", "superbracket.farkas",
            "superbracket.kantor", "typing"]
_CONCRETE, _FARKAS, _KANTOR = _WATCHED[1:4]


_FREE_ENGINE = ["superbracket.engine", "superbracket.liebasis", "superbracket.speedups"]


def _loaded_after(*commands, watched=_WATCHED):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, json.dumps(watched), json.dumps(commands)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        cwd=root)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# A fresh interpreter runs one command, argv[2:], and prints as its last line
# which of the comma-separated modules of argv[1] are then loaded.  It imports
# nothing beside the CLI, so the standard-library modules that only some
# commands need (json, fractions and the decimal module that fractions
# loads) count too.
_EXIT_PROBE = """
import sys
from superbracket.cli import main
code = main(sys.argv[2:])
print(sorted(name for name in sys.argv[1].split(",") if name in sys.modules))
sys.exit(code)
"""

_ON_DEMAND = ["decimal", "fractions", "json", "superbracket.identities"]
_FRACTIONS = ["decimal", "fractions"]

# the one farkas input of the benchmark's cli-session whose coefficients are not integers
_HALVES = "-1/2 {{z,1},{y,x}} - 1/2 {{z,x},{y,1}} - 1/2 {{z,y},{x,1}} + 1/1 x {{z,1},{y,1}}"
_HALVES_CUSTOMARY = (
    '{"m": 5, "letters": ["z", "x\'", "x\'\'", "y\'", "y\'\'"], "terms": ['
    '{"coeff": "-1/2", "pairs": [[1, 2], [3, 4]], "D": [5]}, '
    '{"coeff": "-1/2", "pairs": [[1, 2], [3, 5]], "D": [4]}, '
    '{"coeff": "-1/2", "pairs": [[1, 3], [2, 4]], "D": [5]}, '
    '{"coeff": "-1/2", "pairs": [[1, 3], [2, 5]], "D": [4]}, '
    '{"coeff": "1/2", "pairs": [[1, 4], [2, 5]], "D": [3]}, '
    '{"coeff": "1/2", "pairs": [[1, 4], [3, 5]], "D": [2]}, '
    '{"coeff": "1/2", "pairs": [[1, 5], [2, 4]], "D": [3]}, '
    '{"coeff": "1/2", "pairs": [[1, 5], [3, 4]], "D": [2]}]}')


def _run_and_loaded(argv, watched=_ON_DEMAND):
    """(exit code, stdout without the probe's line, the watched modules loaded)."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _EXIT_PROBE, ",".join(watched), *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        cwd=root)
    *out, loaded = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), ast.literal_eval(loaded)


class TestColdStartImports:
    def test_importing_the_cli_loads_only_the_free_engine(self):
        assert _loaded_after() == [[]]

    @pytest.mark.parametrize("argv, loaded", [
        (["nf", "--gens", "x,y", "{x,y}"], []),
        (["dim", "3"], []),
        (["basis", "--gens", "x1,x2", "--multidegree", "1:1,x1:1,x2:1"], []),
        (["check-identity", "--free", "--gens", "x,y", "{x,y}+{y,x}"], []),
        (["kantor-check", "--algebra", "builtin:wronskian3", "--jorskob"], [_CONCRETE, _KANTOR]),
        (["validate", "builtin:wronskian3"], [_CONCRETE]),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=1,0,0", "?a"], [_CONCRETE]),
        (["farkas", "--gens", "x,y", "--input", "{x,y}", "--letters", "x,y"], [_FARKAS]),
    ], ids=["nf", "dim", "basis", "check-identity", "kantor-check", "validate", "eval", "farkas"])
    def test_each_command_loads_what_it_uses(self, argv, loaded):
        assert _loaded_after(argv) == [[], loaded]

    def test_session_loads_modules_as_commands_need_them(self):
        seen = _loaded_after(["nf", "--gens", "x,y", "{x,y}"],
                             ["validate", "builtin:wronskian3"],
                             ["farkas", "--gens", "x,y", "--input", "{x,y}", "--letters", "x,y"])
        assert seen == [[], [], [_CONCRETE], [_CONCRETE, _FARKAS]]

    @pytest.mark.parametrize("argv, out, loaded", [
        (["nf", "--gens", "x,y", "{x,y}"], "-1/1 {y,x}", []),
        (["nf", "--gens", "x", "6/3 x - 0/5 x"], "2/1 x", []),
        (["nf", "--json", "--gens", "x", "6/3 x"],
         '[{"coeff": "2/1", "monomial": [{"word": "x", "exp": 1}]}]', ["json"]),
        (["nf", "--gens", "x", "1/2 x"], "1/2 x", _FRACTIONS),
        (["validate", "builtin:euler-wronskian3"],
         "supercommutativity: pass\nassociativity: pass\nunit: pass\n"
         "anticommutativity: pass\ndeformed-leibniz: pass\njacobi: pass",
         ["superbracket.identities"]),
        (["eval", "--algebra", "builtin:euler-wronskian3", "--bind", "a=1,0,0",
          "--bind", "b=0,1,0", "{?a,?b}"], "0/1 -1/1 0/1", ["superbracket.identities"]),
        (["farkas", "--gens", "x,y,z", "--letters", "x,y,z", "--json", "--input", _HALVES],
         _HALVES_CUSTOMARY, _ON_DEMAND),
    ], ids=["nf", "nf-whole-ratios", "nf-json", "nf-half", "validate", "eval", "farkas-halves"])
    def test_fractions_json_and_the_identity_tables_load_on_demand(self, argv, out, loaded):
        # fractions comes with the first ratio that is not an integer, json
        # with --json, and the identity tables with the structure checks
        assert _run_and_loaded(argv) == (0, out, loaded)

    @pytest.mark.parametrize("argv, loaded", [
        (["kantor-check", "--algebra", "builtin:wronskian3"], []),
        (["kantor-check", "--algebra", "builtin:wronskian3", "--direct", "--json"], []),
        (["validate", "builtin:wronskian3"], []),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=1,0,0", "?a"], []),
        (["check-identity", "--algebra", "builtin:wronskian3", "{?a,?b}"], []),
        (["nf", "--gens", "x,y", "{x,y}"], _FREE_ENGINE),
        (["dim", "3"], _FREE_ENGINE),
    ], ids=["kantor-check", "kantor-check-direct", "validate", "eval", "check-identity",
            "nf", "dim"])
    def test_only_free_commands_load_the_free_engine(self, argv, loaded):
        assert _loaded_after(argv, watched=_FREE_ENGINE) == [[], loaded]
