"""Finite-dimensional superalgebras given by structure constants.

An algebra is a pair of bilinear tables (product and bracket) over an
indexed graded basis, with an optional unit vector and a claimed theory.
Everything is exact; validation and identity checking substitute basis
vectors exhaustively, which is complete for the multilinear identities
involved.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct

from .core import (AlgebraError, Bracket, Gen, Prod, Sum, Var, fold, map_leaves, scalar,
                   scalar_str, var_names)
from . import identities

CLAIMS = ("none", "poisson", "genp", "jb", "gp")


def vzero(dim):
    return (0,) * dim


def vbasis(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    c = scalar(c)
    return _exact(c * x for x in a)


def _exact(values):
    """Vector of the values with the coefficient invariant restored: an
    integral Fraction left by arithmetic becomes an ``int``."""
    values = tuple(values)
    if type(sum(values)) is int:  # only ints sum to an int: nothing to restore
        return values
    return tuple(x if type(x) is int else scalar(x) for x in values)


def is_zero_vec(a):
    return all(x == 0 for x in a)


def vjson(a):
    return [scalar_str(x) for x in a]


def first_failure(arity, elements, residual, is_zero=is_zero_vec):
    """The first ``arity``-tuple of elements, in ``itertools.product`` order,
    on which the residual does not vanish, as ``(indices, arguments,
    residual)``; None when it vanishes on all of them.

    Over a basis this decides a multilinear identity completely.
    """
    for idx in iproduct(range(len(elements)), repeat=arity):
        args = [elements[i] for i in idx]
        res = residual(*args)
        if not is_zero(res):
            return idx, args, res
    return None


def check_entry(name, failure, parity, render):
    """One :class:`Report` entry: a pass, or a fail whose witness gives the
    failing indices, the parities of their arguments and the rendered residual."""
    if failure is None:
        return {"identity": name, "status": "pass"}
    idx, args, res = failure
    return {
        "identity": name,
        "status": "fail",
        "witness": {
            "indices": list(idx),
            "parities": [parity(a) for a in args],
            "residual": render(res),
        },
    }


class StructureAlgebra:
    """Superalgebra from sparse multiplication tables.

    ``product`` and ``bracket`` map index pairs (i, j) to sparse rows
    [(k, coefficient), ...]; missing pairs are zero.  Tables are stored for
    every ordered pair as given; bilinearity is by construction.
    """

    def __init__(self, dim, parities, product, bracket=None, unit=None, claim="none"):
        if claim not in CLAIMS:
            raise AlgebraError(f"unknown claim {claim!r}")
        self.dim = int(dim)
        self.parities = tuple(int(p) & 1 for p in parities)
        if len(self.parities) != self.dim:
            raise AlgebraError("parity list length != dimension")
        self.product = _check_table(product, self.dim)
        self.bracket_table = _check_table(bracket or {}, self.dim)
        self.unit = tuple(scalar(x) for x in unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != self.dim:
            raise AlgebraError("unit vector length != dimension")
        self.claim = claim

    # -- bilinear operations ------------------------------------------------

    def mul(self, a, b):
        return self._apply(self.product, a, b)

    def bracket(self, a, b):
        return self._apply(self.bracket_table, a, b)

    def deriv(self, a):
        """Bracket with the unit; only defined on unital algebras."""
        if self.unit is None:
            raise AlgebraError("derivation needs a unit (none declared)")
        return self.bracket(a, self.unit)

    def _apply(self, table, a, b):
        out = [0] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                row = table.get((i, j))
                if not row:
                    continue
                c = ai * bj
                for k, coeff in row:
                    out[k] += c * coeff
        return _exact(out)

    def parity_of(self, v):
        """Parity of a homogeneous vector; raises when supports mix parities."""
        seen = {self.parities[i] for i, x in enumerate(v) if x}
        if len(seen) > 1:
            raise AlgebraError("vector is not parity-homogeneous")
        return seen.pop() if seen else 0

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the structural identities and the claimed theory's axioms.

        Returns a :class:`Report`; each check carries a witness tuple on
        failure.
        """
        ops = VectorOps(self)
        basis = [vbasis(self.dim, i) for i in range(self.dim)]
        checks = []

        def run(name, arity, fn):
            checks.append(check_entry(name, first_failure(arity, basis, fn), ops.parity, vjson))

        run("supercommutativity", 2, lambda a, b: identities.supercommutativity_residual(ops, a, b))
        run("associativity", 3, lambda a, b, c: identities.associativity_residual(ops, a, b, c))
        if self.unit is not None:
            run("unit", 1, lambda a: identities.unit_residual(ops, self.unit, a))
        run("anticommutativity", 2, lambda a, b: identities.anticommutativity_residual(ops, a, b))
        if self.claim in ("genp", "jb"):
            if self.unit is None:
                raise AlgebraError(f"claim {self.claim!r} needs a unit for the derivation")
            run("deformed-leibniz", 3, lambda a, b, c: identities.deformed_leibniz_residual(ops, a, b, c))
            if self.claim == "genp":
                run("jacobi", 3, lambda a, b, c: identities.jacobi_residual(ops, a, b, c))
            else:
                run("deformed-jacobi", 3, lambda a, b, c: identities.deformed_jacobi_residual(ops, a, b, c))
        elif self.claim == "gp":
            run("leibniz", 3, lambda a, b, c: identities.leibniz_residual(ops, a, b, c))
        elif self.claim == "poisson":
            run("leibniz", 3, lambda a, b, c: identities.leibniz_residual(ops, a, b, c))
            run("jacobi", 3, lambda a, b, c: identities.jacobi_residual(ops, a, b, c))
        return Report(checks)

    # -- term evaluation --------------------------------------------------------

    def evaluate(self, term, bindings=None):
        """Evaluate a term tree; leaves are Var/Gen names bound to vectors.

        The generator name "1" denotes the unit when the algebra has one.
        """
        bindings = bindings or {}

        def leaf(t):
            if t.name in bindings:
                return tuple(scalar(x) for x in bindings[t.name])
            if isinstance(t, Gen) and t.name == "1":
                if self.unit is None:
                    raise AlgebraError("term uses the unit but the algebra has none")
                return self.unit
            raise AlgebraError(f"unbound leaf {t.name!r}")

        def node(t, values):
            if not isinstance(t, Sum):
                return (self.mul if isinstance(t, Prod) else self.bracket)(*values)
            out = vzero(self.dim)
            for (c, _), v in zip(t.terms, values):
                out = vadd(out, vscale(c, v))
            return out

        return fold(term, leaf, node)

    def is_identity(self, term):
        """Whether the term vanishes under every basis substitution of its Vars.

        The term must be homogeneous in each Var; non-multilinear inputs are
        multilinearized first (lossless in characteristic zero).  Returns
        ``(True, None)`` or ``(False, witness_assignment)``.
        """
        term = multilinearize(term)
        names = sorted(var_names(term))
        basis = [vbasis(self.dim, i) for i in range(self.dim)]
        failure = first_failure(len(names), basis,
                                lambda *vecs: self.evaluate(term, dict(zip(names, vecs))))
        if failure is None:
            return True, None
        idx, _, res = failure
        return False, {"assignment": dict(zip(names, idx)), "residual": vjson(res)}

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "dim": self.dim,
            "parity": list(self.parities),
            "product": _table_json(self.product),
            "bracket": _table_json(self.bracket_table),
            "claim": self.claim,
        }
        if self.unit is not None:
            out["unit"] = vjson(self.unit)
        return out

    @classmethod
    def from_json(cls, data) -> "StructureAlgebra":
        if isinstance(data, str):
            data = json.loads(data)
        unit = None
        if data.get("unit") is not None:
            unit = [scalar(str(x)) for x in data["unit"]]
        return cls(
            data["dim"],
            data["parity"],
            _table_from_json(data.get("product", {})),
            _table_from_json(data.get("bracket", {})),
            unit,
            data.get("claim", "none"),
        )


class VectorOps:
    """identities.py adapter over a structure algebra's vectors."""

    def __init__(self, algebra: StructureAlgebra):
        self.algebra = algebra

    def mul(self, a, b):
        return self.algebra.mul(a, b)

    def bracket(self, a, b):
        return self.algebra.bracket(a, b)

    def deriv(self, a):
        return self.algebra.deriv(a)

    def parity(self, a):
        return self.algebra.parity_of(a)

    def scale(self, c, a):
        return vscale(c, a)

    def add(self, a, b):
        return vadd(a, b)

    def sub(self, a, b):
        return vsub(a, b)


class Report:
    """Outcome of a validation or criteria run: one entry per identity."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def failed(self):
        return [c for c in self.checks if c["status"] != "pass"]

    def to_json(self):
        return self.checks

    def __repr__(self):
        word = "ok" if self.ok else "FAIL"
        return f"<report {word}: {[c['identity'] for c in self.failed()]}>"


def _check_table(table, dim):
    out = {}
    for (i, j), row in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraError(f"table index ({i},{j}) out of range")
        cleaned = []
        for k, coeff in row:
            if not 0 <= k < dim:
                raise AlgebraError(f"table target index {k} out of range")
            coeff = scalar(coeff)
            if coeff:
                cleaned.append((int(k), coeff))
        if cleaned:
            out[(i, j)] = tuple(cleaned)
    return out


def _table_json(table):
    return {
        f"{i},{j}": [[k, scalar_str(c)] for k, c in row]
        for (i, j), row in sorted(table.items())
    }


def _table_from_json(data):
    out = {}
    for key, row in data.items():
        i, j = (int(x) for x in key.split(","))
        out[(i, j)] = [(int(k), scalar(str(c))) for k, c in row]
    return out


# -- multilinearization -------------------------------------------------------

def multilinearize(term):
    """Replace repeated Vars by sums over fresh labeled copies.

    Requires the term to be homogeneous in each Var (an error otherwise);
    multilinear inputs come back unchanged.
    """
    degrees = _var_degrees(term)
    for name, deg in degrees.items():
        if deg > 1:
            term = _polarize(term, name, deg)
    return term


def _var_degrees(term):
    def node(t, degrees):
        if not isinstance(t, Sum):
            return degrees[0] + degrees[1]
        if any(d != degrees[0] for d in degrees):
            raise AlgebraError("term is not homogeneous in its variables")
        return degrees[0] if degrees else Counter()

    return fold(term, lambda t: Counter([t.name] if isinstance(t, Var) else ()), node)


def _polarize(term, name, deg):
    labels = [f"{name}#{t}" for t in range(deg)]
    numbers = _occurrence_numbers(term, name)
    pieces = []
    for perm in permutations(labels):
        copy = iter(perm[k] for k in numbers)
        pieces.append((1, map_leaves(term, lambda t: Var(next(copy)) if t == Var(name) else t)))
    return Sum(tuple(pieces))


def _occurrence_numbers(term, name):
    """Copy number of each occurrence of ``?name``, in reading order.

    Occurrences are numbered left to right, except that every branch of a Sum
    numbers its own from the same start (the branches are alternatives), and
    numbering after the Sum continues from its last branch.
    """

    def leaf(t):  # (numbers, count)
        return ([0], 1) if t == Var(name) else ([], 0)

    def node(t, kids):
        if isinstance(t, Sum):
            return [k for nums, _ in kids for k in nums], kids[-1][1] if kids else 0
        (left, nl), (right, nr) = kids
        return left + [k + nl for k in right], nl + nr

    return fold(term, leaf, node)[0]


# -- built-in algebras ---------------------------------------------------------

def wronskian_algebra(m: int) -> StructureAlgebra:
    """Truncated polynomial ring Q[t]/(t^m) with the d/dt Wronskian bracket.

    {t^i, t^j} = (i - j) t^{i+j-1} truncated.  Note the truncation ideal is
    not d/dt-stable, so the deformed Leibniz identity fails on triples that
    reach the boundary; the validator reports this honestly.
    """
    if m < 2:
        raise AlgebraError("need m >= 2")
    product = {}
    bracket = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                product[(i, j)] = [(i + j, 1)]
            if i != j and 0 <= i + j - 1 < m:
                bracket[(i, j)] = [(i + j - 1, i - j)]
    return StructureAlgebra(m, [0] * m, product, bracket, vbasis(m, 0), "genp")


def euler_wronskian_algebra(m: int) -> StructureAlgebra:
    """Q[t]/(t^m) with the Euler derivation t d/dt: {t^i,t^j} = (i-j) t^{i+j}.

    The truncation ideal is stable under t d/dt, so this one is a genuinely
    validated generalized Poisson algebra.
    """
    if m < 2:
        raise AlgebraError("need m >= 2")
    product = {}
    bracket = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                product[(i, j)] = [(i + j, 1)]
                if i != j:
                    bracket[(i, j)] = [(i + j, i - j)]
    return StructureAlgebra(m, [0] * m, product, bracket, vbasis(m, 0), "genp")


def zero_product_algebra(bracket, parities=None, dim=None) -> StructureAlgebra:
    """Anticommutative bracket with the zero product: always a GP algebra."""
    if dim is None:
        dim = 1 + max(max(i, j, *(k for k, _ in row)) for (i, j), row in bracket.items())
    parities = list(parities) if parities is not None else [0] * dim
    alg = StructureAlgebra(dim, parities, {}, bracket, None, "gp")
    ops = VectorOps(alg)
    failure = first_failure(2, [vbasis(dim, i) for i in range(dim)],
                            lambda a, b: identities.anticommutativity_residual(ops, a, b))
    if failure is not None:
        raise AlgebraError("bracket table not anticommutative at (%d,%d)" % failure[0])
    return alg


def nonlie_example_algebra() -> StructureAlgebra:
    """Three-dimensional anticommutative non-Lie algebra with zero product.

    {e1,e2} = e2, {e1,e3} = e3, {e2,e3} = e1; the Jacobiator on (e1,e2,e3)
    is 2 e1, so the bracket is not a Lie bracket.
    """
    one = 1
    bracket = {
        (0, 1): [(1, one)], (1, 0): [(1, -one)],
        (0, 2): [(2, one)], (2, 0): [(2, -one)],
        (1, 2): [(0, one)], (2, 1): [(0, -one)],
    }
    return zero_product_algebra(bracket, dim=3)


def zero_bracket_poisson(m: int) -> StructureAlgebra:
    """Q[t]/(t^m) with the zero bracket: a degenerate Poisson algebra."""
    product = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                product[(i, j)] = [(i + j, 1)]
    return StructureAlgebra(m, [0] * m, product, {}, vbasis(m, 0), "poisson")


def adjoin_unit(algebra: StructureAlgebra, claim=None) -> StructureAlgebra:
    """Adjoin a unit acting as identity, bracketing to zero.

    Plain Leibniz survives unit adjunction, so a GP algebra stays GP.
    """
    if algebra.unit is not None:
        raise AlgebraError("algebra already has a unit")
    d = algebra.dim + 1
    product = {(0, 0): [(0, 1)]}
    for i in range(algebra.dim):
        product[(0, i + 1)] = [(i + 1, 1)]
        product[(i + 1, 0)] = [(i + 1, 1)]
    for (i, j), row in algebra.product.items():
        product[(i + 1, j + 1)] = [(k + 1, c) for k, c in row]
    bracket = {
        (i + 1, j + 1): [(k + 1, c) for k, c in row]
        for (i, j), row in algebra.bracket_table.items()
    }
    return StructureAlgebra(
        d,
        (0,) + algebra.parities,
        product,
        bracket,
        vbasis(d, 0),
        claim or algebra.claim,
    )


def untwisted_algebra(algebra: StructureAlgebra, claim="jb") -> StructureAlgebra:
    """Inverse derivation twist on the tables: bracket + (aD(b) - D(a)b)/2.

    Applied to a generalized Poisson algebra this produces a Jordan-bracket
    algebra (distinguished derivation halves).  Requires a unit and checks
    that the derivation a -> {a,1} really derives the product.
    """
    if algebra.unit is None:
        raise AlgebraError("untwisting needs a unit")
    basis = [vbasis(algebra.dim, i) for i in range(algebra.dim)]

    def derivation_residual(a, b):  # D(ab) - (D(a)b + aD(b))
        lhs = algebra.deriv(algebra.mul(a, b))
        return vsub(lhs, vadd(algebra.mul(algebra.deriv(a), b), algebra.mul(a, algebra.deriv(b))))

    if first_failure(2, basis, derivation_residual) is not None:
        raise AlgebraError("bracket-with-unit is not a derivation of the product")
    half = Fraction(1, 2)
    bracket = {}
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            corr = vsub(
                algebra.mul(basis[i], algebra.deriv(basis[j])),
                algebra.mul(algebra.deriv(basis[i]), basis[j]),
            )
            vec = vadd(algebra.bracket(basis[i], basis[j]), vscale(half, corr))
            row = [(k, c) for k, c in enumerate(vec) if c]
            if row:
                bracket[(i, j)] = row
    return StructureAlgebra(
        algebra.dim, algebra.parities, dict(algebra.product), bracket,
        algebra.unit, claim,
    )


def load_algebra(path) -> StructureAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return StructureAlgebra.from_json(json.load(fh))


def dump_algebra(algebra: StructureAlgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra.to_json(), fh, indent=1)
