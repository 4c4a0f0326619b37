"""The four benchmark workloads.

A workload's seed fixes one *round*: a list of operations with their inputs
and their order.  A timed run repeats that round on freshly built algebras
until its time is up, so every repetition pays the same cache warm-up and
every operation is timed several times on identical work; the runner takes
each operation's median over the repetitions, which keeps the figures steady
on a machine whose speed drifts by tens of percent for seconds at a time.

Each operation is an :class:`Op`: ``run`` does the timed work through the
package's public functions, ``check`` verifies the answer independently and
untimed.  Inputs are generated and loaded while a round is being built, so
that work is never timed.  ``run`` receives a tracer and calls each public
entry point through ``tr.call(name, fn, *args)``; untraced, that is a plain
call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import product

import superbracket
from superbracket import GENP, JB, Alphabet, FreeAlgebra, GpAlgebra, dim_multilinear
from superbracket import concrete, identities, kantor
from superbracket.cli import build_parser, parse
from superbracket.elements import monomial_factor_count
from superbracket.farkas import CustomaryPolynomial, PoissonPolynomial, customary_to_element

import inputs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(superbracket.__file__)))


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    name = ""
    in_process = True

    def build(self):
        """Build the algebras a round starts from (timed as setup)."""
        raise NotImplementedError

    def round(self, state, seed):
        """The seed's operations (an iterable of Ops), in order, over freshly
        built ``state``."""
        raise NotImplementedError

    def rounds(self, seed):
        """Endless repetitions of the seed's round, each on fresh algebras."""
        while True:
            yield self.round(self.build(), seed)


# -- free-confluence ------------------------------------------------------------

CONFLUENCE_GENS = (("x1", 0), ("x2", 0), ("th", 1))
CONFLUENCE_DEGREE = 3
DIM_MAX_N = 5


def pbw_count(degrees) -> int:
    """Basis monomials of one multidegree, unit letter first.

    The free algebra's basis is the supersymmetric algebra on the free Lie
    superalgebra minus the bare unit letter.  By PBW that algebra has the
    graded dimension of the tensor algebra (a multinomial coefficient), and
    removing the unit's polynomial factor subtracts the count one unit lower.
    """
    def multinomial(ds):
        out = math.factorial(sum(ds))
        for d in ds:
            out //= math.factorial(d)
        return out

    count = multinomial(degrees)
    if degrees[0]:
        count -= multinomial((degrees[0] - 1,) + tuple(degrees[1:]))
    return count


def _sgnbit(bit):
    return -1 if bit else 1


class FreeConfluence(Workload):
    name = "free-confluence"

    def build(self):
        return {th: FreeAlgebra(Alphabet(list(CONFLUENCE_GENS)), th) for th in (GENP, JB)}

    def round(self, algebras, seed):
        ops = []
        for n in range(1, DIM_MAX_N + 1):
            for th in (GENP, JB):
                ops.append(Op(f"dim_multilinear({n},{th})",
                              lambda tr, n=n, th=th: tr.call("dim_multilinear", dim_multilinear, n, th),
                              lambda d, n=n: d == n * math.factorial(n)))
        size = len(CONFLUENCE_GENS) + 1
        degree_list = [d for d in product(range(CONFLUENCE_DEGREE + 1), repeat=size)
                       if sum(d) <= CONFLUENCE_DEGREE]
        found = {th: [] for th in algebras}
        for th, alg in algebras.items():
            for degs in degree_list:
                ops.append(Op(f"basis({th},{degs})",
                              lambda tr, alg=alg, degs=degs, out=found[th]: _extend(
                                  out, tr.call("FreeAlgebra.basis", alg.basis, degs)),
                              lambda monos, degs=degs: len(monos) == pbw_count(degs)
                              and len(set(monos)) == len(monos)))
        return _chain(ops, lambda: self._pairs(algebras, found, seed))

    @staticmethod
    def _pairs(algebras, found, seed):
        """Every (monomial, splittable monomial) pair, once the basis ops ran,
        in the sweep's order, with seeded signs on the unit coefficients.
        The order decides which pair pays for each bracket the cache then
        keeps, so a seeded order moved the tail latency by a quarter
        between seeds; the signs change the inputs and not the work."""
        rng = inputs.stream_rng(seed, "free-confluence")
        ops = []
        for th, alg in algebras.items():
            monos = found[th]
            splittable = [m for m in monos if monomial_factor_count(m) >= 2]
            for m1 in monos:
                for m2 in splittable:
                    signs = (rng.choice((1, -1)), rng.choice((1, -1)))
                    ops.append(Op(f"confluence({th})",
                                  lambda tr, alg=alg, m1=m1, m2=m2, signs=signs:
                                  _confluence_routes(tr, alg, m1, m2, signs),
                                  _routes_agree))
        return ops


def _chain(first, then):
    yield from first
    yield from then()


def _extend(out, monos):
    out.extend(monos)
    return monos


def _confluence_routes(tr, alg, m1, m2, signs):
    """{a, e} for a = sign_a m1 and e = sign_b m2, directly and by splitting
    one factor b off e = b c (c carries sign_b):
    {a,bc} = {a,b}c + (-1)^{|a||b|} b{a,c} - D(a)bc, with the Koszul sign of
    pulling b to the front.  Returns (direct, [split routes])."""
    sign_a, sign_b = signs
    a = alg.element([(sign_a, m1)])
    pa = a.parity()
    direct = tr.call("FreeAlgebra.bracket", alg.bracket, a, alg.element([(sign_b, m2)]))
    split = []
    prefix = 0
    for idx, (key, par, exp) in enumerate(m2):
        if exp > 1:
            rest = m2[:idx] + ((key, par, exp - 1),) + m2[idx + 1:]
        else:
            rest = m2[:idx] + m2[idx + 1:]
        b = alg.element([(1, ((key, par, 1),))])
        c = alg.element([(sign_b, rest)])
        ab = tr.call("FreeAlgebra.bracket", alg.bracket, a, b)
        ac = tr.call("FreeAlgebra.bracket", alg.bracket, a, c)
        da = tr.call("FreeAlgebra.deriv", alg.deriv, a)
        route = (
            tr.call("FreeAlgebra.mul", alg.mul, ab, c)
            + tr.call("FreeAlgebra.mul", alg.mul, b, ac).scale(_sgnbit(pa & par))
            - tr.call("FreeAlgebra.mul", alg.mul, tr.call("FreeAlgebra.mul", alg.mul, da, b), c)
        ).scale(_sgnbit(prefix & par))
        split.append(route)
        prefix ^= par & exp & 1
    return direct, split


def _routes_agree(result):
    direct, split = result
    return bool(split) and all(route == direct for route in split)


# -- free-identities ----------------------------------------------------------------

THEORY_RESIDUALS = {
    GENP: (("deformed_leibniz", identities.deformed_leibniz_residual),
           ("jacobi", identities.jacobi_residual)),
    JB: (("deformed_leibniz", identities.deformed_leibniz_residual),
         ("deformed_jacobi", identities.deformed_jacobi_residual)),
    "gp": (("leibniz", identities.leibniz_residual),),
}


class FreeIdentities(Workload):
    name = "free-identities"

    def build(self):
        alphabet = Alphabet(list(inputs.IDENTITY_GENS))
        return {
            GENP: FreeAlgebra(alphabet, GENP),
            JB: FreeAlgebra(alphabet, JB),
            "gp": GpAlgebra(alphabet),
        }

    def __init__(self):
        self._payloads = {}

    def payloads(self, seed):
        """(theory, [three element payloads]) for one round, made once per
        seed.  The shapes, their monomials and the order are the same under
        every seed; the seed draws the coefficients.  The order decides which
        residual pays for each straightening the caches then keep, and a
        seeded order moved the median residual time by a third between
        seeds."""
        if seed not in self._payloads:
            sources = {
                GENP: inputs.FreeElementSource(seed, "identities-genp"),
                JB: inputs.FreeElementSource(seed, "identities-jb"),
                "gp": inputs.GpElementSource(seed, "identities-gp"),
            }
            out = []
            for degrees in inputs.degree_shapes():
                for th in (GENP, JB):
                    out.append((th, [sources[th].element_json(d) for d in degrees]))
                out.append(("gp", [sources["gp"].element_text(d) for d in degrees]))
            self._payloads[seed] = out
        return self._payloads[seed]

    def round(self, state, seed):
        ops = []
        for th, payload in self.payloads(seed):
            alg = state[th]
            if th == "gp":
                triple = [alg.normal_form(parse(alg.alphabet, text)) for text in payload]
            else:
                triple = [alg.element_from_json(data) for data in payload]
            ops.append(Op(f"residuals({th})",
                          lambda tr, alg=alg, th=th, triple=triple: _residuals(tr, alg, th, triple),
                          lambda res: all(r.is_zero() for r in res)))
        return ops


def _residuals(tr, alg, theory, triple):
    ops = identities.ElementOps(alg)
    return [tr.call(f"identities.{name}_residual", fn, ops, *triple)
            for name, fn in THEORY_RESIDUALS[theory]]


# -- structure-kantor ------------------------------------------------------------------

# (name, constructor, failing validate() checks, Kantor double is Jordan).
# The truncation t^m = 0 is not d/dt-stable, so deformed Leibniz fails for
# every truncated Wronskian algebra and Jacobi from m = 4 on (witness
# (1, t^2, t^3)).  {a,b} = D(a)b - aD(b) for a derivation D is a Jordan
# bracket, so every Euler-Wronskian double is Jordan.  The other verdicts are
# the acceptance corpus's.
KANTOR_CORPUS = (
    ("wronskian2", lambda: concrete.wronskian_algebra(2), {"deformed-leibniz"}, False),
    ("wronskian3", lambda: concrete.wronskian_algebra(3), {"deformed-leibniz"}, False),
    ("wronskian4", lambda: concrete.wronskian_algebra(4), {"deformed-leibniz", "jacobi"}, False),
    ("nonlie", concrete.nonlie_example_algebra, set(), True),
    ("zero-bracket3", lambda: concrete.zero_bracket_poisson(3), set(), True),
    ("untwisted-euler3",
     lambda: concrete.untwisted_algebra(concrete.euler_wronskian_algebra(3)), set(), True),
    ("unital-nonlie-gp",
     lambda: concrete.adjoin_unit(concrete.nonlie_example_algebra()), set(), False),
    ("euler-wronskian3", lambda: concrete.euler_wronskian_algebra(3), set(), True),
    ("euler-wronskian4", lambda: concrete.euler_wronskian_algebra(4), set(), True),
    ("euler-wronskian5", lambda: concrete.euler_wronskian_algebra(5), set(), True),
)


class StructureKantor(Workload):
    name = "structure-kantor"

    def build(self):
        return [(name, make(), bad, jordan) for name, make, bad, jordan in KANTOR_CORPUS]

    def round(self, state, seed):
        ops = []
        for name, alg, bad, jordan in state:
            ops.append(Op(f"validate({name})",
                          lambda tr, alg=alg: tr.call("StructureAlgebra.validate", alg.validate),
                          lambda rep, bad=bad: {c["identity"] for c in rep.failed()} == bad))
            ops.append(Op(f"criteria_check({name})",
                          lambda tr, alg=alg: tr.call("kantor.criteria_check", kantor.criteria_check, alg),
                          lambda rep, jordan=jordan: rep.ok is jordan))
            ops.append(Op(f"super_jordan_check({name})",
                          lambda tr, alg=alg: _direct_check(tr, alg),
                          lambda rep, jordan=jordan: rep.ok is jordan))
        inputs.stream_rng(seed, self.name).shuffle(ops)
        return ops


def _direct_check(tr, alg):
    double = tr.call("kantor.double_of", kantor.double_of, alg)
    return tr.call("kantor.super_jordan_check", kantor.super_jordan_check, double)


# -- cli-session ------------------------------------------------------------------------

CLI_TIMEOUT_S = 120


def cli_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_cli(argv, extra_env=None, profile_to=None):
    """One cold-start CLI process; profiled through child.py when asked."""
    if profile_to is None:
        cmd = [sys.executable, "-m", "superbracket", *argv]
    else:
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        cmd = [sys.executable, child, "cli", profile_to, *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=cli_env(extra_env),
                          timeout=CLI_TIMEOUT_S)


class CliSession(Workload):
    name = "cli-session"
    in_process = False

    def build(self):
        # the CLI's own start-up work; the structure algebra re-verifies Farkas output
        build_parser()
        return concrete.wronskian_algebra(3)

    def round(self, struct, seed):
        commands = inputs.cli_commands()
        inputs.stream_rng(seed, self.name).shuffle(commands)
        return [Op(cmd.name,
                   lambda tr, cmd=cmd: tr.call("superbracket " + cmd.argv[0], run_cli,
                                               cmd.argv, cmd.env, tr.child_profile()),
                   lambda proc, cmd=cmd: command_ok(cmd, proc, struct))
                for cmd in commands]


def command_ok(cmd, proc, struct) -> bool:
    if proc.returncode != cmd.exit_code:
        return False
    out = proc.stdout.strip()
    if cmd.verify == "farkas":
        return farkas_result_ok(out, struct)
    if cmd.verify is not None:
        return cmd.verify(out)
    return cmd.stdout is None or out == cmd.stdout


def farkas_result_ok(out, struct) -> bool:
    """The customary result is nonzero and again an identity of the algebra."""
    c = CustomaryPolynomial.from_json(json.loads(out))
    if c.is_zero():
        return False
    alg = FreeAlgebra(Alphabet([(n, 0) for n in c.letters]), GENP)
    term = PoissonPolynomial(alg, customary_to_element(c, alg), c.letters).identity_term()
    holds, _ = struct.is_identity(term)
    return holds


def probe_ok(cmd, proc) -> bool:
    """A probe passes on its correct answer or on a clean error (exit 2 or 3)."""
    if "internal error" in proc.stderr:
        return False
    if proc.returncode in (2, 3) and proc.stderr.startswith("error:"):
        return True
    return command_ok(cmd, proc, None)


WORKLOADS = {w.name: w for w in (FreeConfluence(), FreeIdentities(), StructureKantor(), CliSession())}
