"""Finite-dimensional superalgebras given by structure constants.

An algebra is a pair of bilinear tables (product and bracket) over an
indexed graded basis, with an optional unit vector and a claimed theory.
Everything is exact; validation and identity checking substitute basis
vectors exhaustively, which is complete for the multilinear identities
involved.

Vectors are dense coefficient tuples at the public edge (``mul``,
``bracket``, ``evaluate``, the ``v*`` helpers, report residuals) and sparse
inside every check: a sparse vector is a tuple of ``(index, coeff)`` pairs,
sorted by index and free of zeros, so it is hashable and the zero vector is
``()``.  A table row is a sparse vector too.  :class:`SparseOps` is the
one evaluator of the tables: each check, the public ``mul``, ``bracket``
and ``evaluate`` included, makes one, which lays the rows out by basis
pair, reads the pair checks from them, contracts the kernels of
associativity and the Kantor residuals (see :mod:`.kantor`), and memoizes
products and brackets for the length of that check.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import partial
from itertools import permutations, product as iproduct
from operator import not_

from .core import (AlgebraError, Gen, Sum, Var, fold, map_leaves, scalar,
                   scalar_str, var_names)
from . import identities
from .elements import add_terms

# the (name, arity, residual builder) rules of each claim's axioms, which
# validate checks after the structural identities
CLAIM_RULES = {
    "none": [],
    "poisson": [("leibniz", 3, identities.leibniz_residual),
                ("jacobi", 3, identities.jacobi_residual)],
    "genp": [("deformed-leibniz", 3, identities.deformed_leibniz_residual),
             ("jacobi", 3, identities.jacobi_residual)],
    "jb": [("deformed-leibniz", 3, identities.deformed_leibniz_residual),
           ("deformed-jacobi", 3, identities.deformed_jacobi_residual)],
    "gp": [("leibniz", 3, identities.leibniz_residual)],
}
CLAIMS = tuple(CLAIM_RULES)

# the positions across which each claim axiom is symmetric up to sign, and
# the checks that must pass, with both tables even, for that to hold: the
# sweep of first_failure then visits one tuple per orbit
ORBITS = {
    "jacobi": ((0, 1, 2), {"anticommutativity"}),
    "deformed-jacobi": ((0, 1, 2), {"anticommutativity"}),
    "leibniz": ((1, 2), {"supercommutativity"}),
    "deformed-leibniz": ((1, 2), {"supercommutativity", "associativity"}),
}


def vzero(dim):
    return (0,) * dim


def vbasis(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def vjson(a):
    return [scalar_str(x) for x in a]


# -- sparse vectors ------------------------------------------------------------

def to_sparse(a, dim):
    """The sparse form of a dense vector of length ``dim``."""
    a = tuple(a)
    if len(a) != dim:
        raise AlgebraError(f"vector length {len(a)} != dimension {dim}")
    return tuple((i, c) for i, c in enumerate(map(scalar, a)) if c)


def to_dense(a, dim):
    """The dense tuple of a sparse vector."""
    out = [0] * dim
    for k, c in a:
        out[k] = c
    return tuple(out)


class SparseOps:
    """The one evaluator of a structure algebra's tables: the identities.py
    adapter over sparse vectors, made per check.

    ``products`` and ``brackets`` hold the table rows of the basis vectors
    i and j at ``i * dim + j``; :meth:`pair_residual` reads the pair checks
    from two of them.  Products and brackets of vectors are summed
    from the rows and memoized by their arguments for the life of the
    evaluator, so the memo ends with the check.  ``combine`` skips zero
    operands and hands a lone operand with coefficient 1 back as it is.
    The sweeps also get the sparse ``basis`` and ``unit``, ``is_zero``, the
    edge conversions ``vector`` and ``dense``, and ``render``, a residual's
    dense report form.  :meth:`contract` sums the kernels: the value
    of ``identities.KERNELS[K]`` at basis indices (k, g, c) is
    (e_k o1 e_g) o2 e_c - e_k o3 (e_g o4 e_c), summed from the rows when
    first asked for and kept under one int key.
    """

    is_zero = staticmethod(not_)

    def __init__(self, algebra: StructureAlgebra):
        d = self.dim = algebra.dim
        self.parities = algebra.parities
        self.basis = [((i, 1),) for i in range(d)]
        self.unit = None if algebra.unit is None else to_sparse(algebra.unit, d)
        rows = {}
        for name, table in (("mul", algebra.product), ("bracket", algebra.bracket_table)):
            rows[name] = flat = [()] * (d * d)
            for (i, j), row in table.items():
                flat[i * d + j] = row
        self.products, self.brackets = rows["mul"], rows["bracket"]
        self._kernels = [tuple(rows[o] for o in ops) for ops in identities.KERNELS]
        self._mul_memo, self._bracket_memo, self._values = {}, {}, {}
        self._span = len(identities.KERNELS) * d * d

    def _apply(self, rows, a, b):
        """The bilinear extension of the table rows to two sparse vectors."""
        d, acc = self.dim, {}
        for i, ai in a:
            base = i * d
            for j, bj in b:
                row = rows[base + j]
                if row:
                    add_terms(acc, row, ai * bj)
        return tuple(sorted(acc.items()))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = self._mul_memo.get((a, b))
        if out is None:
            out = self._mul_memo[(a, b)] = self._apply(self.products, a, b)
        return out

    def bracket(self, a, b):
        if not a or not b:
            return ()
        out = self._bracket_memo.get((a, b))
        if out is None:
            out = self._bracket_memo[(a, b)] = self._apply(self.brackets, a, b)
        return out

    def deriv(self, a):
        if self.unit is None:
            raise AlgebraError("derivation needs a unit (none declared)")
        return self.bracket(a, self.unit)

    def pair_residual(self, op, i, j):
        """The supercommutativity residual e_i e_j - s e_j e_i of the basis
        vectors i and j when ``op`` is "mul", their anticommutativity
        residual {e_i,e_j} + s{e_j,e_i} when it is "bracket", with
        s = (-1)^{|e_i||e_j|}: the rows ij and ji summed."""
        rows, sign = (self.brackets, 1) if op == "bracket" else (self.products, -1)
        d = self.dim
        acc = dict(rows[i * d + j])
        add_terms(acc, rows[j * d + i], -sign if self.parities[i] & self.parities[j] else sign)
        return tuple(sorted(acc.items()))

    def parity(self, a):
        if len(a) == 1:  # every sweep argument is a basis vector
            return self.parities[a[0][0]]
        seen = {self.parities[i] for i, _ in a}
        if len(seen) > 1:
            raise AlgebraError("vector is not parity-homogeneous")
        return seen.pop() if seen else 0

    def combine(self, pairs):
        acc, live = {}, 0
        for c, a in pairs:
            if a:
                live += 1
                lone = c, a
                add_terms(acc, a, c)
        if not live:
            return ()
        if live == 1 and lone[0] == 1:
            return lone[1]
        return tuple(sorted(acc.items()))

    def contract(self, terms):
        """The sum of s K(p, g, c) over the terms ``(s, p, K, g, c)``, where p
        is a sparse vector, K indexes a kernel and g, c are basis indices:
        the kernel values at (k, g, c) summed with the coefficients s p_k."""
        d, span, values = self.dim, self._span, self._values
        acc = {}
        for s, p, kernel, g, c in terms:
            base = (kernel * d + g) * d + c
            for k, pk in p:
                key = k * span + base
                value = values.get(key)
                if value is None:
                    value = values[key] = self._kernel(kernel, k, g, c)
                if value:
                    add_terms(acc, value, s * pk)
        return tuple(sorted(acc.items())) if acc else ()

    def _kernel(self, kernel, k, g, c):
        o1, o2, o3, o4 = self._kernels[kernel]
        d, acc = self.dim, {}
        for m, a in o1[k * d + g]:
            add_terms(acc, o2[m * d + c], a)
        for m, a in o4[g * d + c]:
            add_terms(acc, o3[k * d + m], -a)
        return tuple(sorted(acc.items()))

    def vector(self, a):
        return to_sparse(a, self.dim)

    def dense(self, a):
        return to_dense(a, self.dim)

    def render(self, a):
        return vjson(self.dense(a))


def first_failure(arity, n, residual, is_zero, symmetric=()):
    """The first ``arity``-tuple of the indices 0..n-1, in
    ``itertools.product`` order, at which the residual (a function of the
    indices) does not vanish (``is_zero`` is false), as
    ``(indices, residual)``; None when it vanishes at all of them.

    Over the indices of a basis this decides a multilinear identity
    completely; :func:`on_basis` turns a residual builder of
    :mod:`.identities` into a function of basis indices.

    ``symmetric`` names argument positions, in increasing order, across
    which the residual is symmetric up to sign: permuting the arguments at
    those positions only multiplies it by a sign, so whether it vanishes is
    the same on a whole orbit.  The caller proves that symmetry from checks
    that passed (for validate's axioms, also from both tables being even);
    it is taken on trust here.  The sweep then visits only the tuples whose
    indices at those positions are non-decreasing, still in product order.
    The verdict and the witness are those of the full sweep: every member
    of the first failing tuple's orbit fails too, and the product-order
    first member of an orbit is its sorted one, so the first failing tuple
    is sorted, and no sorted tuple before it fails.
    """
    if symmetric:
        tuples, prev = [()], None
        for k in range(arity):
            tuples = _extend(tuples, n, prev if k in symmetric else None)
            prev = k if k in symmetric else prev
    else:
        tuples = iproduct(range(n), repeat=arity)
    for idx in tuples:
        res = residual(*idx)
        if not is_zero(res):
            return idx, res
    return None


def _extend(tuples, n, prev):
    """Each index tuple extended by one index, in product order; from the
    index at position ``prev`` up when ``prev`` is not None."""
    if prev is None:
        return (idx + (i,) for idx in tuples for i in range(n))
    return (idx + (i,) for idx in tuples for i in range(idx[prev], n))


def on_basis(ops, builder):
    """The residual ``builder(ops, a, b, ...)`` as a function of the basis
    indices of ``a, b, ...``."""
    basis = ops.basis
    return lambda *idx: builder(ops, *map(basis.__getitem__, idx))


def report_entry(ops, name, arity, residual, symmetric=()):
    """One :class:`Report` entry: the sweep of a residual of basis indices
    (see :func:`first_failure`) as a pass, or a fail whose witness gives the
    failing indices, the parities of their basis vectors and the rendered
    residual."""
    failure = first_failure(arity, len(ops.basis), residual, ops.is_zero, symmetric)
    if failure is None:
        return {"identity": name, "status": "pass"}
    idx, res = failure
    return {
        "identity": name,
        "status": "fail",
        "witness": {
            "indices": list(idx),
            "parities": [ops.parity(ops.basis[i]) for i in idx],
            "residual": ops.render(res),
        },
    }


class StructureAlgebra:
    """Superalgebra from sparse multiplication tables.

    ``product`` and ``bracket`` map index pairs (i, j) to rows
    [(k, coefficient), ...]; missing pairs are zero.  Each row is stored as
    the sparse vector it sums to, and a zero row not at all, so equal tables
    compare and serialize equal; bilinearity is by construction.
    """

    def __init__(self, dim, parities, product, bracket=None, unit=None, claim="none"):
        if claim not in CLAIMS:
            raise AlgebraError(f"unknown claim {claim!r}")
        if type(dim) is not int:
            raise AlgebraError(f"dimension must be an integer, not {dim!r}")
        self.dim = dim
        self.parities = tuple(parities)
        if any(p not in (0, 1) for p in self.parities):
            raise AlgebraError(f"parities must be 0 or 1, not {list(self.parities)}")
        self.parities = tuple(int(p) for p in self.parities)
        if len(self.parities) != self.dim:
            raise AlgebraError("parity list length != dimension")
        self.product = _check_table(product, self.dim)
        self.bracket_table = _check_table(bracket or {}, self.dim)
        if unit is not None and (isinstance(unit, str) or not isinstance(unit, Sequence)):
            raise AlgebraError(f"unit must be a sequence of scalars, not {unit!r}")
        self.unit = tuple(scalar(x) for x in unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != self.dim:
            raise AlgebraError("unit vector length != dimension")
        self.claim = claim

    # -- bilinear operations ------------------------------------------------

    def mul(self, a, b):
        ops = SparseOps(self)
        return ops.dense(ops.mul(ops.vector(a), ops.vector(b)))

    def bracket(self, a, b):
        ops = SparseOps(self)
        return ops.dense(ops.bracket(ops.vector(a), ops.vector(b)))

    def deriv(self, a):
        """Bracket with the unit; only defined on unital algebras."""
        if self.unit is None:
            raise AlgebraError("derivation needs a unit (none declared)")
        return self.bracket(a, self.unit)

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the structural identities and the claimed theory's axioms.

        Returns a :class:`Report`; each check carries a witness tuple on
        failure.  A claim axiom sweeps one tuple per orbit of :data:`ORBITS`
        when the checks it names passed and both tables are even (the rows
        of the pair (i, j) lie in parity p_i + p_j), and every tuple otherwise.
        """
        if self.claim in ("genp", "jb") and self.unit is None:
            raise AlgebraError(f"claim {self.claim!r} needs a unit for the derivation")
        ops = SparseOps(self)
        rules = [("supercommutativity", 2, partial(ops.pair_residual, "mul")),
                 ("associativity", 3,
                  lambda a, b, c: ops.contract([(1, ops.basis[a], identities.ASSOC, b, c)]))]
        if self.unit is not None:
            rules.append(("unit", 1, lambda a: identities.unit_residual(ops, ops.unit, ops.basis[a])))
        rules.append(("anticommutativity", 2, partial(ops.pair_residual, "bracket")))
        checks = [report_entry(ops, *rule) for rule in rules]
        passed = {c["identity"] for c in checks if c["status"] == "pass"}
        par = self.parities
        even = all(par[k] == par[i] ^ par[j] for table in (self.product, self.bracket_table)
                   for (i, j), row in table.items() for k, _ in row)
        for name, arity, builder in CLAIM_RULES[self.claim]:
            symmetric, needs = ORBITS[name]
            checks.append(report_entry(ops, name, arity, on_basis(ops, builder),
                                       symmetric if even and needs <= passed else ()))
        return Report(checks)

    # -- term evaluation --------------------------------------------------------

    def evaluate(self, term, bindings=None):
        """Evaluate a term tree; leaves are Var/Gen names bound to vectors.

        The generator name "1" denotes the unit when the algebra has one.
        Every binding must have the algebra's dimension.
        """
        ops = SparseOps(self)
        bindings = {name: ops.vector(v) for name, v in (bindings or {}).items()}
        return ops.dense(_evaluate(ops, term, bindings))

    def is_identity(self, term):
        """Whether the term vanishes under every basis substitution of its Vars.

        The term must be homogeneous in each Var; non-multilinear inputs are
        multilinearized first (lossless in characteristic zero).  Returns
        ``(True, None)`` or ``(False, witness_assignment)``.
        """
        term = multilinearize(term)
        names = sorted(var_names(term))
        ops = SparseOps(self)
        failure = first_failure(
            len(names), self.dim,
            on_basis(ops, lambda ops, *vecs: _evaluate(ops, term, dict(zip(names, vecs)))),
            ops.is_zero)
        if failure is None:
            return True, None
        idx, res = failure
        return False, {"assignment": dict(zip(names, idx)), "residual": ops.render(res)}

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
            data = _json_loads(data)
        if not isinstance(data, dict):
            raise AlgebraError(f"algebra JSON must be an object, not {type(data).__name__}")
        for key in ("dim", "parity"):
            if key not in data:
                raise AlgebraError(f"algebra JSON lacks {key!r}")
        parity, unit = data["parity"], data.get("unit")
        if not isinstance(parity, list):
            raise AlgebraError("algebra JSON 'parity' must be a list")
        if unit is not None:
            if not isinstance(unit, list):
                raise AlgebraError("algebra JSON 'unit' must be a list")
            unit = [scalar(str(x)) for x in unit]
        return cls(
            data["dim"],
            parity,
            _table_from_json(data.get("product", {}), "product"),
            _table_from_json(data.get("bracket", {}), "bracket"),
            unit,
            data.get("claim", "none"),
        )


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


def _evaluate(ops, term, bindings):
    """A term's value over the adapter, its leaves bound to sparse vectors."""

    def leaf(t):
        if t.name in bindings:
            return bindings[t.name]
        if isinstance(t, Gen) and t.name == "1":
            if ops.unit is None:
                raise AlgebraError("term uses the unit but the algebra has none")
            return ops.unit
        raise AlgebraError(f"unbound leaf {t.name!r}")

    return identities.evaluate(ops, term, leaf)


def _check_table(table, dim):
    """The table with each row a sparse vector: its entries merged, sorted
    by target index and free of zeros; a row that sums to zero is left out."""
    out = {}
    def is_index(x):
        return type(x) is int and 0 <= x < dim

    for (i, j), row in table.items():
        if not (is_index(i) and is_index(j)):
            raise AlgebraError(f"table index ({i},{j}) out of range")
        acc = {}
        for k, coeff in row:
            if not is_index(k):
                raise AlgebraError(f"table target index {k} out of range")
            add_terms(acc, ((k, scalar(coeff)),))
        if acc:
            out[(i, j)] = tuple(sorted(acc.items()))
    return out


def _table_json(table):
    return {
        f"{i},{j}": [[k, scalar_str(c)] for k, c in row]
        for (i, j), row in sorted(table.items())
    }


def _table_from_json(data, name):
    if not isinstance(data, dict):
        raise AlgebraError(f"algebra JSON {name!r} must be an object")
    out = {}
    for key, row in data.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise AlgebraError(f"{name} table key {key!r} is not 'i,j'") from None
        try:
            out[(i, j)] = [(k, scalar(str(c))) for k, c in row]
        except (TypeError, ValueError):
            raise AlgebraError(f"{name} table row {key!r} must list [k, coeff] pairs") from None
    return out


def _json_loads(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise AlgebraError(f"algebra is not valid JSON: {exc}") from None
    except RecursionError:
        raise AlgebraError("algebra JSON is nested too deeply to read") from None


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


def zero_product_algebra(bracket, dim=None) -> StructureAlgebra:
    """Anticommutative bracket on an even basis with the zero product: always
    a GP algebra."""
    if dim is None:
        if not bracket:
            raise AlgebraError("an empty bracket table needs dim")
        dim = 1 + max(max(i, j, *(k for k, _ in row)) for (i, j), row in bracket.items())
    alg = StructureAlgebra(dim, [0] * dim, {}, bracket, None, "gp")
    ops = SparseOps(alg)
    failure = first_failure(2, dim, partial(ops.pair_residual, "bracket"), ops.is_zero)
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


def adjoin_unit(algebra: StructureAlgebra) -> StructureAlgebra:
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
        algebra.claim,
    )


def untwisted_algebra(algebra: StructureAlgebra) -> StructureAlgebra:
    """Inverse derivation twist on the tables: bracket + (aD(b) - D(a)b)/2.

    Applied to a generalized Poisson algebra this produces a Jordan-bracket
    algebra (distinguished derivation halves).  Requires a unit and checks
    that the derivation a -> {a,1} really derives the product.
    """
    if algebra.unit is None:
        raise AlgebraError("untwisting needs a unit")
    ops = SparseOps(algebra)
    derivation = on_basis(ops, identities.derivation_residual)
    if first_failure(2, algebra.dim, derivation, ops.is_zero) is not None:
        raise AlgebraError("bracket-with-unit is not a derivation of the product")
    twisted = identities.Twisted(ops, Fraction(1, 2))
    bracket = {}
    for i, a in enumerate(ops.basis):
        for j, b in enumerate(ops.basis):
            row = twisted.bracket(a, b)
            if row:
                bracket[(i, j)] = list(row)
    return StructureAlgebra(
        algebra.dim, algebra.parities, dict(algebra.product), bracket, algebra.unit, "jb")


def load_algebra(path) -> StructureAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraError(f"cannot read algebra {str(path)!r}: {exc.strerror}") from None
    return StructureAlgebra.from_json(_json_loads(text))
