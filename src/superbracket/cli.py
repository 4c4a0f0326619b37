"""Expression parser, canonical printer, and the command-line interface.

Grammar::

    expr    := '-'? term (('+'|'-') term)*
    term    := rational ('*'? factors)? | factors
    factors := factor ('*'? factor)*
    factor  := ident | '1' | '{' expr ',' expr '}' | 'D(' expr ')'
             | '<' expr ',' expr '>' | '(' expr ')' | '?' ident

A term with neither a rational nor a factor (``"x +"``, ``"{x,}"``, ``""``)
is a :class:`ParseError`.  Juxtaposition of factors is the associative
product; ``D(a)`` desugars to ``{a,1}`` and ``<a,b>`` to
``{a,b} - (D(a) b - a D(b))``.  Variables (``?name``) are only meaningful to
the identity checkers.

Brackets, parentheses, ``D(...)`` and ``<...>`` nest at most
:data:`MAX_NESTING` deep.  The tokenizer counts them and refuses deeper
input with a :class:`ParseError` (exit 2 from the command line) before the
parser starts.  The parser is still the only code that recurses per level:
the evaluators and the word functions walk with
:func:`superbracket.core.fold`.  The bracket words of element JSON are read
by the same parser: :func:`parse_word` folds the term tree and refuses any
node that is not a bracket, and any text with a ``/``, whose coefficient
the parser would multiply out before the fold.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    GENP,
    GP,
    JB,
    AlgebraError,
    Alphabet,
    Bracket,
    Gen,
    GuardError,
    Prod,
    Sum,
    Var,
    fold,
    ratio,
    read_integer,
    scalar,
    scalar_str,
    var_names,
)
from .elements import Element

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_SIGPIPE = 141  # what a shell reports for a command ended by SIGPIPE

# Deepest nesting of {..}, (..), D(..) and <..> that parse() and parse_word()
# accept.  _tokenize checks it, before the parser starts; the parser is the
# only code that recurses per level, three Python frames each, so this keeps
# it well inside the default recursion limit.
MAX_NESTING = 200


class ParseError(AlgebraError):
    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = "{}(),<>+-*/?"


def _tokenize(src: str):
    tokens = []
    depth = 0
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            depth += (ch in "{(<") - (ch in "})>")
            if depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", i)
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, alphabet: Alphabet, src: str, allow_vars: bool):
        self.alphabet = alphabet
        self.tokens = _tokenize(src)
        self.pos = 0
        self.allow_vars = allow_vars

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        term = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return term

    def expr(self):
        pieces = []
        op = self.next()[0] if self.peek()[0] == "-" else "+"
        while True:
            coeff, term = self.term()
            pieces.append((-coeff if op == "-" else coeff, term))
            if self.peek()[0] not in ("+", "-"):
                break
            op = self.next()[0]
        if len(pieces) == 1 and pieces[0][0] == 1:
            return pieces[0][1]
        return Sum(tuple(pieces))

    def term(self):
        coeff = 1
        kind, text, start = self.peek()
        had_coeff = kind == "num" and not (text == "1" and self.tokens[self.pos + 1][0] != "/")
        if had_coeff:
            # an integer or p/q coefficient; a bare "1" is the unit factor
            self.next()
            coeff = read_integer(text)
            if self.peek()[0] == "/":
                self.next()
                _, den, at = self.expect("num")
                if (q := read_integer(den)) == 0:
                    raise ParseError("zero denominator", at)
                coeff = ratio(coeff, q)
        factors = []
        while True:
            if self.peek()[0] == "*" and (factors or had_coeff):
                self.next()
                if not self._at_factor():
                    raise ParseError("expected a factor after '*'", self.peek()[2])
            if not self._at_factor():
                break
            factors.append(self.factor())
        if not factors:
            if not had_coeff:
                raise ParseError("expected a term", start)
            return coeff, Gen(self.alphabet.unit.name)
        term = factors[0]
        for f in factors[1:]:
            term = Prod(term, f)
        return coeff, term

    def _at_factor(self):
        kind, text, _ = self.peek()
        return kind in ("ident", "{", "(", "<", "?") or (kind == "num" and text == "1")

    def factor(self):
        kind, text, pos = self.next()
        if kind == "num":
            if text != "1":
                raise ParseError(f"unexpected number {text!r}", pos)
            return Gen(self.alphabet.unit.name)
        if kind == "ident":
            if text == "D" and self.peek()[0] == "(":
                self.next()
                inner = self.expr()
                self.expect(")")
                return Bracket(inner, Gen(self.alphabet.unit.name))
            if text not in self.alphabet.by_name:
                raise ParseError(f"undeclared identifier {text!r}", pos)
            return Gen(text)
        if kind == "?":
            tok = self.expect("ident")
            if not self.allow_vars:
                raise ParseError("variables are not allowed here", pos)
            return Var(tok[1])
        if kind == "{":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("}")
            return Bracket(left, right)
        if kind == "<":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(">")
            return _angle_term(self.alphabet, left, right)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {text!r}", pos)


def _angle_term(alphabet, a, b):
    unit = Gen(alphabet.unit.name)
    return Sum((
        (1, Bracket(a, b)),
        (-1, Prod(Bracket(a, unit), b)),
        (1, Prod(a, Bracket(b, unit))),
    ))


def parse(alphabet: Alphabet, src: str, allow_vars: bool = False):
    """Parse an expression to a term tree."""
    return _Parser(alphabet, src, allow_vars).parse()


def parse_word(alphabet: Alphabet, src: str):
    """Parse a plain bracket word like ``{{x2,x1},x1}`` to a raw word tree:
    an expression that is a generator or a bracket of such expressions."""
    if "/" in src:  # "2/2 x1" would parse as x1
        raise ParseError(f"{src!r} is not a bracket word", src.index("/"))

    def node(t, kids):
        if not isinstance(t, Bracket):
            raise ParseError(f"{src!r} is not a bracket word", 0)
        return tuple(kids)

    return fold(parse(alphabet, src), lambda g: alphabet.by_name[g.name].index, node)


# -- printer ------------------------------------------------------------------

def print_element(algebra, e: Element) -> str:
    """Canonical text: factors ascending, coefficients always ``p/q``."""
    if e.is_zero():
        return "0"
    monos = e.monomials()
    if len(monos) == 1 and monos[0][0] == () and monos[0][1] == 1:
        return "1"
    space = algebra.space
    parts = []
    for m, c in monos:
        words = []
        for key, _, exp in m:
            words.extend([space.render(space.by_key[key].word)] * exp)
        body = " ".join([scalar_str(abs(c))] + (words or ["1"]))
        parts.append((c < 0, body))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# -- command-line interface -----------------------------------------------------

def _alphabet_from_option(spec: str) -> Alphabet:
    """--gens "x1,x2,th:odd" -> alphabet (parity defaults to even); each
    name must be one identifier of the expression grammar."""
    gens = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, colon, parity = piece.partition(":")
        name = name.strip()
        if not _is_identifier(name):
            raise AlgebraError(f"generator {name!r} of --gens is not an identifier")
        gens.append((name, parity.strip() if colon else "even"))
    return Alphabet(gens)


_BUILTIN_DOC = "wronskianN | euler-wronskianN | untwisted-eulerN | nonlie | unital-nonlie-gp | zero-bracketN"


def _resolve_algebra(path: str):
    """The structure algebra of a JSON file or of ``builtin:NAME``."""
    # imported here, as kantor and farkas in their commands, so that the
    # free-algebra commands start without compiling them
    from . import concrete

    if not path.startswith("builtin:"):
        return concrete.load_algebra(path)
    name = path[len("builtin:"):]
    if name == "nonlie":
        return concrete.nonlie_example_algebra()
    if name == "unital-nonlie-gp":
        return concrete.adjoin_unit(concrete.nonlie_example_algebra())
    sized = {
        "wronskian": concrete.wronskian_algebra,
        "euler-wronskian": concrete.euler_wronskian_algebra,
        "untwisted-euler": lambda m: concrete.untwisted_algebra(concrete.euler_wronskian_algebra(m)),
        "zero-bracket": concrete.zero_bracket_poisson,
    }
    for family, build in sized.items():
        if name.startswith(family):
            return build(read_integer(name[len(family):], f"the size N of builtin:{family}N"))
    raise AlgebraError(f"unknown builtin {name!r} (try {_BUILTIN_DOC})")


def _is_identifier(text: str) -> bool:
    """Whether the text is one identifier of the expression grammar."""
    try:
        return [kind for kind, _, _ in _tokenize(text)] == ["ident", "end"]
    except ParseError:
        return False


def _engine(args):
    from .engine import FreeAlgebra

    alphabet = _alphabet_from_option(args.gens)
    guard = read_integer(os.environ.get("JB_MAX_DEGREE", "12"), "JB_MAX_DEGREE")
    return FreeAlgebra(alphabet, args.theory, max_degree=guard)


def _emit(args, payload, text):
    if getattr(args, "json", False):
        import json

        text = json.dumps(payload)
    print(text)


def _cmd_nf(args) -> int:
    algebra = _engine(args)
    term = parse(algebra.alphabet, args.expr)
    e = algebra.normal_form(term)
    _emit(args, algebra.element_to_json(e), print_element(algebra, e))
    return EXIT_OK


def _cmd_dim(args) -> int:
    from .engine import dim_multilinear

    n = read_integer(args.n, "n")
    value = dim_multilinear(n, args.theory)
    _emit(args, {"n": n, "theory": args.theory, "dim": value}, str(value))
    return EXIT_OK


def _cmd_basis(args) -> int:
    algebra = _engine(args)
    counts = {}
    for piece in args.multidegree.split(","):
        name, _, count = piece.partition(":")
        name = name.strip()
        if name in counts:  # a later count would silently replace the first
            raise AlgebraError(f"letter {name!r} is counted twice in the multidegree")
        counts[name] = read_integer(count or "1", f"the multidegree count of {name!r}")
    degrees = algebra.alphabet.degrees_of(counts)
    monos = algebra.basis(degrees)
    payload = []
    lines = []
    for m in monos:
        e = Element(algebra, {m: 1}, 1)
        payload.append(algebra.element_to_json(e)[0]["monomial"])
        lines.append(print_element(algebra, e))
    _emit(args, {"count": len(monos), "monomials": payload},
          "\n".join(lines + [f"count {len(monos)}"]))
    return EXIT_OK


def _cmd_check_identity(args) -> int:
    if args.algebra:
        algebra = _resolve_algebra(args.algebra)
        term = parse(_alphabet_from_option(args.gens or ""), args.expr, allow_vars=True)
        holds, witness = algebra.is_identity(term)
        payload = {"identity": args.expr, "status": "pass" if holds else "fail"}
        if witness:
            payload["witness"] = witness
        _emit(args, payload, "true" if holds else f"false {witness}")
        return EXIT_OK if holds else EXIT_FALSE
    if not args.free:
        raise AlgebraError("check-identity needs --algebra FILE or --free")
    algebra = _engine(args)
    term = parse(algebra.alphabet, args.expr, allow_vars=True)
    bindings = {name: algebra.gen(name) for name in sorted(var_names(term))}
    e = algebra.substitute(term, bindings)
    holds = e.is_zero()
    payload = {"identity": args.expr, "status": "pass" if holds else "fail"}
    if not holds:
        payload["witness"] = algebra.element_to_json(e)
    _emit(args, payload, "true" if holds else f"false: {print_element(algebra, e)}")
    return EXIT_OK if holds else EXIT_FALSE


def _cmd_kantor_check(args) -> int:
    from . import kantor
    from .concrete import Report

    algebra = _resolve_algebra(args.algebra)
    if args.direct and not args.jorskob:
        return _report(args, kantor.super_jordan_check(kantor.double_of(algebra)))
    if args.jorskob and not args.direct:
        return _report(args, kantor.criteria_check(algebra))
    by_criteria, direct, agree = kantor.double_is_jordan(algebra)
    code = _report(args, Report(direct.checks + by_criteria.checks))
    if agree:
        return code
    print(f"error: the verdicts disagree: super-jordan-linearized "
          f"{'pass' if direct.ok else 'fail'}, jorskob criteria "
          f"{'pass' if by_criteria.ok else 'fail'}", file=sys.stderr)
    return EXIT_INTERNAL


def _cmd_validate(args) -> int:
    return _report(args, _resolve_algebra(args.algebra).validate())


def _report(args, report) -> int:
    """Print a :class:`~superbracket.concrete.Report`, one line per check."""
    lines = [f"{c['identity']}: {c['status']}" for c in report.checks]
    _emit(args, report.to_json(), "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_eval(args) -> int:
    algebra = _resolve_algebra(args.algebra)
    bindings = {}
    for spec in args.bind or []:
        name, eq, coords = spec.partition("=")
        name = name.strip()
        if not (eq and _is_identifier(name)):
            raise AlgebraError(f"binding {spec!r} is not name=c0,c1,... with an identifier name")
        vec = [scalar(x) for x in coords.split(",")]
        if len(vec) != algebra.dim:
            raise AlgebraError(f"binding {name!r} has {len(vec)} coordinates, need {algebra.dim}")
        if name in bindings:
            raise AlgebraError(f"variable {name!r} is bound twice")
        bindings[name] = tuple(vec)
    names = sorted(bindings)
    term = parse(Alphabet([(n, 0) for n in names]), args.expr, allow_vars=True)
    vec = algebra.evaluate(term, bindings)
    payload = [scalar_str(x) for x in vec]
    _emit(args, payload, " ".join(payload))
    return EXIT_OK


def _cmd_farkas(args) -> int:
    import json

    from . import farkas

    algebra = _engine(args)
    term = parse(algebra.alphabet, args.expr)
    letters = [p.strip() for p in args.letters.split(",") if p.strip()]
    poly = farkas.PoissonPolynomial(algebra, algebra.normal_form(term), letters)
    try:
        result = farkas.reduce_to_customary(poly)
    except farkas.DegenerateReductionError as exc:
        _emit(args, {"degenerate": str(exc)}, f"degenerate: {exc}")
        return EXIT_FALSE
    payload = result.customary.to_json()
    lines = [json.dumps(payload)]
    if args.trace:
        for label, p in result.trace:
            lines.append(f"-- {label}: {print_element(p.algebra, p.element)}")
        payload = {"customary": payload,
                   "trace": [{"stage": label, "element": p.algebra.element_to_json(p.element)}
                             for label, p in result.trace]}
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superbracket",
        description="Exact engine for generalized Poisson / Jordan-bracket / generic Poisson superalgebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    expr_help = "the expression; put -- before one that starts with '-'"

    def common(p, gens=True, theory=True):
        if gens:
            p.add_argument("--gens", default="", help="comma list, e.g. x1,x2,th:odd")
        if theory:
            p.add_argument("--theory", choices=[GENP, JB, GP], default=GENP)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("nf", help="normal form of an expression")
    common(p)
    p.add_argument("expr", help=expr_help)
    p.set_defaults(fn=_cmd_nf)

    p = sub.add_parser("dim", help="dimension of the multilinear component")
    common(p, gens=False)
    p.add_argument("n")
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("basis", help="basis monomials of one multidegree")
    common(p)
    p.add_argument("--multidegree", required=True, help="e.g. 1:1,x1:1,x2:1")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("check-identity", help="test an identity with ?vars")
    common(p)
    p.add_argument("--algebra", help="JSON file or builtin:NAME")
    p.add_argument("--free", action="store_true", help="check in the free algebra")
    p.add_argument("expr", help=expr_help)
    p.set_defaults(fn=_cmd_check_identity)

    p = sub.add_parser("kantor-check", help="Jordan-ness of the Kantor double")
    p.add_argument("--algebra", required=True, help="JSON file or builtin:NAME")
    p.add_argument("--direct", action="store_true", help="linearized Jordan identity on the double")
    p.add_argument("--jorskob", action="store_true", help="bracket criteria on the algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_kantor_check)

    p = sub.add_parser("farkas", help="reduce an identity to customary form")
    common(p)
    p.add_argument("--input", dest="expr", required=True)
    p.add_argument("--letters", required=True, help="designated identity letters")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_farkas)

    p = sub.add_parser("eval", help="evaluate a term in a structure algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--bind", action="append", help="name=c0,c1,...")
    p.add_argument("--json", action="store_true")
    p.add_argument("expr", help=expr_help)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("validate", help="check a structure algebra's claim")
    p.add_argument("algebra", help="JSON file or builtin:NAME")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered stdout fails here, not at exit
        return code
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early (``| head``): end quietly, as a command
        # ended by SIGPIPE does; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SIGPIPE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
