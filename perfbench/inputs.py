"""Seeded inputs owned by the benchmark.

Everything the workloads feed to the package is made here from the run's
seed: random parity-homogeneous elements, the CLI command table with its
hand-written expectations, the robustness probes, and the Farkas identity
texts.  The package only ever receives the generated inputs (element wire
JSON, expression text, command lines), never the generator's state.

Nothing here imports from ``tests/``: the inputs must survive the package's
own test helpers moving or disappearing.
"""

from __future__ import annotations

import random
from fractions import Fraction

IDENTITY_GENS = (("x1", 0), ("x2", 0), ("x3", 0), ("th", 1))
MAX_DEGREE = 5
MAX_TERMS = 2
NUMERATORS = (1, 2, 3, -1, -2)
DENOMINATORS = (1, 1, 2)


def stream_rng(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, label); string seeding is stable
    across interpreter runs and PYTHONHASHSEED values."""
    return random.Random(f"perfbench/{seed}/{label}")


def structure_rng(label: str) -> random.Random:
    """The seed-independent stream that draws the monomial structure."""
    return random.Random(f"perfbench/structure/{label}")


def degree_shapes():
    """Total degrees (a, b, c) of one free-identities round: every (a, b) up
    to MAX_DEGREE once, with c from a Latin square, so each round covers the
    degree range evenly."""
    return [(a, b, (a + b) % MAX_DEGREE + 1)
            for a in range(1, MAX_DEGREE + 1) for b in range(1, MAX_DEGREE + 1)]


class FreeElementSource:
    """Random parity-homogeneous genp/jb elements as element wire JSON.

    A private generator algebra enumerates the basis of a random
    multidegree of the requested total degree (unit occurrences count); one
    to ``MAX_TERMS`` of its monomials get coefficients with denominators 1
    and 2.  The generator's caches are its own, so sampling never warms the
    measured algebras.

    The monomials come from a seed-independent stream and the coefficients
    from the seed.  The cost of a residual is set almost entirely by its
    monomials and is heavy-tailed (a few deep Jordan-bracket straightenings
    take a third of a run), so fully random monomials make the work of a run
    swing by 15-20% between seeds; this way every seed runs different
    elements of the same shape.
    """

    def __init__(self, seed: int, label: str):
        from superbracket import GENP, Alphabet, FreeAlgebra

        self.shape_rng = structure_rng(label)
        self.rng = stream_rng(seed, label)
        self.algebra = FreeAlgebra(Alphabet(list(IDENTITY_GENS)), GENP)

    def element_json(self, degree: int) -> list:
        shape_rng, rng, alg = self.shape_rng, self.rng, self.algebra
        size = alg.alphabet.size
        while True:
            degs = [0] * size
            for _ in range(degree):
                degs[shape_rng.randrange(size)] += 1
            monos = alg.basis(tuple(degs))
            if not monos:
                continue
            picks = shape_rng.sample(monos, min(len(monos), shape_rng.randint(1, MAX_TERMS)))
            coeffs = [Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) for _ in picks]
            el = alg.element(zip(coeffs, picks))
            if not el.is_zero():
                return alg.element_to_json(el)


class GpElementSource:
    """Random parity-homogeneous generic Poisson elements as expression text.

    A sum of random product/bracket trees over one multiset of leaves keeps
    every term in a single multidegree, hence one parity.  The text is the
    generator algebra's printed normal form, so loading it into the measured
    algebra only interns atoms.  As for :class:`FreeElementSource`, the
    structure comes from a seed-independent stream, here with the trees'
    relative coefficients (terms of a sum can cancel), and the seed draws an
    overall coefficient.
    """

    def __init__(self, seed: int, label: str):
        from superbracket import Alphabet, GpAlgebra

        self.shape_rng = structure_rng(label)
        self.rng = stream_rng(seed, label)
        self.algebra = GpAlgebra(Alphabet(list(IDENTITY_GENS)))

    def element_text(self, degree: int) -> str:
        from superbracket.cli import print_element

        shape_rng, rng, alg = self.shape_rng, self.rng, self.algebra
        names = list(alg.alphabet.names())

        def build(leaves):
            if len(leaves) == 1:
                return alg.gen(leaves[0])
            cut = shape_rng.randint(1, len(leaves) - 1)
            left, right = build(leaves[:cut]), build(leaves[cut:])
            return alg.mul(left, right) if shape_rng.random() < 0.5 else alg.bracket(left, right)

        while True:
            leaves = [shape_rng.choice(names) for _ in range(degree)]
            total = alg.zero()
            for _ in range(shape_rng.randint(1, MAX_TERMS)):
                shuffled = leaves[:]
                shape_rng.shuffle(shuffled)
                coeff = Fraction(shape_rng.choice((1, 2, -1)), shape_rng.choice((1, 2)))
                total = total + build(shuffled).scale(coeff)
            if not total.is_zero():
                scale = Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS))
                return print_element(alg, total.scale(scale))


# -- Farkas inputs ------------------------------------------------------------

# Multilinear identities of builtin:wronskian3 in the letters x, y, z, found
# once by an exact nullspace over the free genp basis (unit multiplicity
# 0..2) and re-checked with StructureAlgebra.is_identity.  Only those whose
# reduction is non-degenerate are kept: each run re-verifies that the
# customary result is again an identity of the algebra.
WRONSKIAN3_IDENTITIES = (
    "1/1 x {z,y} - 1/1 y {z,x} + 1/1 z {y,x}",
    "1/1 x {z,y} - 1/1 x y {z,1} + 1/1 x z {y,1}",
    "1/1 y {z,x} - 1/1 x y {z,1} + 1/1 y z {x,1}",
    "1/1 {{y,x},z} - 1/1 x {{y,1},z} + 1/1 y {{x,1},z}",
    "1/1 {{z,x},y} - 1/1 x {{z,1},y} + 1/1 z {{x,1},y}",
    "-1/1 {{y,x},z} + 1/1 {{z,x},y} - 1/1 y {{z,1},x} + 1/1 z {{y,1},x}",
    "-1/1 x {{y,1},z} + 1/1 x {{z,1},y} - 1/1 x y {{z,1},1} + 1/1 x z {{y,1},1}",
    "-1/2 {{z,1},{y,x}} - 1/2 {{z,x},{y,1}} - 1/2 {{z,y},{x,1}} + 1/1 x {{z,1},{y,1}}",
)


# -- CLI commands -----------------------------------------------------------------

class Command:
    """One CLI invocation and its hand-written expected outcome.

    ``stdout`` is the exact expected standard output (stripped), or None
    when ``verify`` checks it instead; ``env`` adds environment variables.
    """

    def __init__(self, name, argv, exit_code, stdout=None, verify=None, env=None):
        self.name = name
        self.argv = list(argv)
        self.exit_code = exit_code
        self.stdout = stdout
        self.verify = verify
        self.env = dict(env or {})


DEFORMED_LEIBNIZ = "{?x1,?x2*?x3} - {?x1,?x2}*?x3 - ?x2*{?x1,?x3} + D(?x1)*?x2*?x3"
JACOBI = "{?x1,{?x2,?x3}} - {{?x1,?x2},?x3} - {?x2,{?x1,?x3}}"


def cli_commands() -> list:
    """The fixed command table; every expectation is derived by hand."""
    cmds = [
        # {a,b} + {b,a} = 0 for even a, b
        Command("nf-anticommute", ["nf", "--gens", "x,y", "{x,y} + {y,x}"], 0, "0"),
        # supercommutative product, factors printed ascending
        Command("nf-commute", ["nf", "--gens", "x1,x2", "x2*x1"], 0, "1/1 x1 x2"),
        # odd square vanishes in the product
        Command("nf-odd-square", ["nf", "--gens", "x1,x2,th:odd", "th*th"], 0, "0"),
        # {a,bc} = {a,b}c + b{a,c} - D(a)bc with a = th, b = x1, c = x2
        Command("nf-leibniz-odd", ["nf", "--gens", "x1,x2,th:odd", "{th,x1*x2}"], 0,
                "1/1 x1 {th,x2} + 1/1 x2 {th,x1} - 1/1 x1 x2 {th,1}"),
        # deformed Leibniz with b = c = y, in genp and jb; plain Leibniz in gp
        Command("nf-deformed-leibniz-genp",
                ["nf", "--gens", "x,y", "{x,y*y} - 2*{x,y}*y + D(x)*y*y"], 0, "0"),
        Command("nf-deformed-leibniz-jb",
                ["nf", "--theory", "jb", "--gens", "x,y", "{x,y*y} - 2*{x,y}*y + D(x)*y*y"], 0, "0"),
        Command("nf-leibniz-gp",
                ["nf", "--theory", "gp", "--gens", "x,y", "{x,y*y} - 2*{x,y}*y"], 0, "0"),
        # multilinear dimension n * n!
        Command("dim-genp-3", ["dim", "--theory", "genp", "3"], 0, "18"),
        Command("dim-jb-4", ["dim", "--theory", "jb", "4"], 0, "96"),
        # basis of multidegree (1, x1, x2): 3! - 2! = 4 monomials (PBW count)
        Command("basis-multilinear-2",
                ["basis", "--gens", "x1,x2", "--multidegree", "1:1,x1:1,x2:1"], 0,
                verify=lambda out: out.splitlines()[-1] == "count 4" and len(out.splitlines()) == 5),
        Command("check-deformed-leibniz",
                ["check-identity", "--free", "--gens", "x1,x2,x3", DEFORMED_LEIBNIZ], 0, "true"),
        Command("check-jacobi-genp",
                ["check-identity", "--free", "--gens", "x1,x2,x3", JACOBI], 0, "true"),
        # in jb the plain Jacobi residual is the three derivation terms
        # D(x1){x2,x3} + D(x2){x3,x1} + D(x3){x1,x2}
        Command("check-jacobi-jb",
                ["check-identity", "--free", "--theory", "jb", "--gens", "x1,x2,x3", JACOBI], 1,
                "false: -1/1 {x1,1} {x3,x2} + 1/1 {x2,1} {x3,x1} - 1/1 {x2,x1} {x3,1}"),
        # {a,b} = D(a)b - aD(b) with D = t d/dt is a Jordan bracket (Kantor)
        Command("kantor-euler-wronskian3",
                ["kantor-check", "--algebra", "builtin:euler-wronskian3"], 0,
                "super-jordan-linearized: pass\njorskob1: pass\njorskob2: pass\njorskob3: pass"),
        Command("kantor-wronskian3",
                ["kantor-check", "--algebra", "builtin:wronskian3"], 1,
                "super-jordan-linearized: fail\njorskob1: fail\njorskob2: fail\njorskob3: fail"),
        Command("validate-euler-wronskian3", ["validate", "builtin:euler-wronskian3"], 0,
                "supercommutativity: pass\nassociativity: pass\nunit: pass\n"
                "anticommutativity: pass\ndeformed-leibniz: pass\njacobi: pass"),
        # t^m = 0 is not d/dt-stable, so deformed Leibniz fails at the boundary
        Command("validate-wronskian3", ["validate", "builtin:wronskian3"], 1,
                "supercommutativity: pass\nassociativity: pass\nunit: pass\n"
                "anticommutativity: pass\ndeformed-leibniz: fail\njacobi: pass"),
        # {1,t} = (0 - 1) t and t * t = t^2 in Q[t]/(t^3)
        Command("eval-bracket",
                ["eval", "--algebra", "builtin:euler-wronskian3",
                 "--bind", "a=1,0,0", "--bind", "b=0,1,0", "{?a,?b}"], 0, "0/1 -1/1 0/1"),
        Command("eval-product",
                ["eval", "--algebra", "builtin:euler-wronskian3",
                 "--bind", "a=0,1,0", "--bind", "b=0,1,0", "?a*?b"], 0, "0/1 0/1 1/1"),
    ]
    for i, text in enumerate(WRONSKIAN3_IDENTITIES):
        cmds.append(Command(
            f"farkas-wronskian3-{i}",
            ["farkas", "--gens", "x,y,z", "--letters", "x,y,z", "--json", "--input", text],
            0, verify="farkas"))
    return cmds


def _single_unit_term(out: str) -> bool:
    parts = out.split()
    return len(parts) == 2 and parts[0] in ("1/1", "-1/1")


def probes() -> list:
    """Robustness probes: valid inputs that must end in a correct answer or a
    clean ``error:`` with exit 2 or 3, never ``internal error``.

    Each is a Command whose ``exit_code`` is the correct-answer exit; the
    clean-error alternative is accepted by the probe check.
    """
    deep = "x"
    for _ in range(400):
        deep = "{" + deep + ",y}"
    return [
        # 6 * 6! multilinear basis monomials
        Command("probe-dim-6", ["dim", "6"], 0, "4320"),
        # ad(y)^400 x is one Lie basis word up to sign
        Command("probe-deep-bracket", ["nf", "--gens", "x,y", deep], 0, verify=_single_unit_term),
        # the degree guard holds in gp as in genp: exit 3 with the guard error
        Command("probe-gp-guard", ["nf", "--theory", "gp", "--gens", "x,y", "x*x*x*y"], 3,
                env={"JB_MAX_DEGREE": "2"}),
    ]
