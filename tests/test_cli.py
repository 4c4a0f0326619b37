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
from superbracket.concrete import dump_algebra, euler_wronskian_algebra
from helpers import random_homogeneous

ALPHABET = Alphabet([("x1", 0), ("x2", 0), ("x3", 0), ("th", 1)])


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
        dump_algebra(euler_wronskian_algebra(3), path)
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
    ], ids=["no-dim", "bad-table-key", "not-an-object", "not-json", "float-target", "parity-2"])
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

    def test_missing_algebra_file_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = self.run(capsys, "validate", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "") and err.startswith("error: cannot read algebra")

    def test_eval(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        from superbracket.concrete import wronskian_algebra

        dump_algebra(wronskian_algebra(3), path)
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

    @pytest.mark.parametrize("expr", ["{x,c} y", "{x,y} {c,1}", "<x,y> D(c)", "x {y,c} - y {x,c}"])
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

    @pytest.mark.parametrize("json_flag,want", [
        ([], "degenerate: input polynomial is zero\n"),
        (["--json"], '{"degenerate": "input polynomial is zero"}\n'),
    ], ids=["plain", "json"])
    def test_farkas_degenerate(self, capsys, json_flag, want):
        code, out, err = self.run(capsys, "farkas", "--gens", "x,y", "--letters", "x,y",
                                  "--input", "{x,y} + {y,x}", *json_flag)
        assert (code, out, err) == (1, want, "")

    @pytest.mark.parametrize("argv,message", [
        (["validate", "builtin:nosuch3"], "unknown builtin 'nosuch3'"),
        (["check-identity", "--gens", "x", "?x"], "needs --algebra FILE or --free"),
        (["eval", "--algebra", "builtin:wronskian3", "--bind", "a=0,1", "?a"],
         "binding 'a' has 2 coordinates, need 3"),
        (["farkas", "--theory", "jb", "--gens", "x,y", "--letters", "x,y", "--input", "{x,y}"],
         "the reduction runs in the genp theory"),
    ], ids=["unknown-builtin", "check-identity-no-target", "eval-binding-length", "farkas-jb"])
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


def _loaded_after(*commands):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, json.dumps(_WATCHED), json.dumps(commands)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        cwd=root)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
