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
``()``.  A table row is a sparse vector too, and a table maps a basis
pair to its nonzero row.  One function sums the rows of two vectors'
coordinate pairs (``_apply``): the public ``mul`` and ``bracket`` call it
between the dense edge and the sparse form (``_dense_apply``).
:class:`SparseOps` is the one evaluator of the tables: each check, and
``evaluate``, makes one, which joins the rows into the nonzero values of
the kernels of associativity, the claim axioms and the Kantor residuals
(see ``identities.KERNELS``), and whose ``mul`` and ``bracket`` are each
``_apply`` of its table memoized for the length of that check
(``_memoized``).  Every table check sums its residual by basis tuple, in
slices of tuples: the pair checks sum the rows ij and ji at the pairs that
have a row, in one slice (:func:`pair_sums`), and the kernel-form checks
sum every term that the kernel values reach into its basis tuple one first
index at a time, each slice holding the tuples whose first index is i
(:func:`kernel_sums`).  The witness is the least tuple whose sum is not
zero, read from the first slice that has one (:func:`first_nonzero`), so a
failing check makes no later slice and no check relies on a symmetry of
its residual.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence
from itertools import combinations_with_replacement, product as iproduct
from math import comb, prod
from operator import itemgetter, not_

from .core import (AlgebraError, Gen, Sum, Var, evaluate, fold, ratio, read_integer, read_json,
                   scalar, scalar_str)
from . import identities
from .elements import add_terms

# the (name, term shapes) of each claim's axioms, which validate checks
# after the structural identities
CLAIM_RULES = {
    "none": [],
    "poisson": [("leibniz", identities.LEIBNIZ), ("jacobi", identities.JACOBI)],
    "genp": [("deformed-leibniz", identities.DEFORMED_LEIBNIZ), ("jacobi", identities.JACOBI)],
    "jb": [("deformed-leibniz", identities.DEFORMED_LEIBNIZ),
           ("deformed-jacobi", identities.DEFORMED_JACOBI)],
    "gp": [("leibniz", identities.LEIBNIZ)],
}
CLAIMS = tuple(CLAIM_RULES)


def vzero(dim):
    return (0,) * dim


def vbasis(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def vjson(a):
    return [scalar_str(x) for x in a]


# -- sparse vectors ------------------------------------------------------------

def _apply(table, a, b):
    """The bilinear extension of a table, which maps basis pairs to their
    rows, to two sparse vectors: the rows of their coordinate pairs summed."""
    acc = {}
    for i, ai in a:
        for j, bj in b:
            row = table.get((i, j))
            if row:
                add_terms(acc, row, ai * bj)
    return tuple(sorted(acc.items()))


def _memoized(table):
    """:func:`_apply` of the table, memoized by its two arguments for the
    life of the function: the ``mul`` or ``bracket`` of one evaluator."""
    memo = {}

    def op(a, b):
        if not a or not b:
            return ()
        out = memo.get((a, b))
        if out is None:
            out = memo[a, b] = _apply(table, a, b)
        return out

    return op


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


def _dense_apply(table, dim, a, b):
    """:func:`_apply` at the dense edge, to vectors of length ``dim``."""
    return to_dense(_apply(table, to_sparse(a, dim), to_sparse(b, dim)), dim)


class _RowIndex(dict):
    """The rows of an evaluator's tables indexed for the joins, each table's
    built on its first lookup and kept: ``rows[name]`` is the (key, row) of
    the rows by the first index of their key, the same by its last index,
    and the (key, coefficient) of the rows that reach m, by m."""

    def __init__(self, tables, dim):
        super().__init__()
        self.tables, self.dim = tables, dim

    def __missing__(self, name):
        d = self.dim
        first, last, reach = [[] for _ in range(d)], [[] for _ in range(d)], [[] for _ in range(d)]
        for key, row in self.tables[name].items():
            first[key[0]].append((key, row))
            last[key[-1]].append((key, row))
            for m, coeff in row:
                reach[m].append((key, coeff))
        out = self[name] = first, last, reach
        return out


class SparseOps:
    """The one evaluator of a structure algebra's tables: the identities.py
    adapter over sparse vectors, made per check.

    ``tables["mul"]`` and ``tables["bracket"]`` are the algebra's tables,
    which map a basis pair (i, j) to its nonzero row; ``tables["basis"]``
    maps (i,) to the basis vector i, and ``validate`` adds
    ``tables["deriv"]``, which maps (i,) to the nonzero row
    D(e_i) = {e_i, 1}, for the deformed axioms.  ``mul`` and ``bracket``
    are one memoized :func:`_apply` each, of their table (:func:`_memoized`):
    the products and brackets of vectors (the unit check, ``evaluate``,
    ``is_identity``, ``untwisted_algebra``) are summed from the rows once
    per distinct pair of arguments and kept for the life of the evaluator,
    so the memo ends with the check.  ``combine`` skips zero operands and
    hands a lone operand with coefficient 1 back as it is.  The checks also get the sparse ``basis``
    and ``unit``, ``is_zero``, the edge conversions ``vector`` and
    ``dense``, and ``render``, a residual's dense report form.  :meth:`join`
    gives the nonzero values of a kernel of ``identities.KERNELS`` at a
    first index, from the table rows indexed in ``rows``, and
    :func:`kernel_sums` sums them.
    """

    is_zero = staticmethod(not_)

    def __init__(self, algebra: StructureAlgebra):
        d = self.dim = algebra.dim
        self.parities = algebra.parities
        self.basis = [((i, 1),) for i in range(d)]
        self.unit = None if algebra.unit is None else to_sparse(algebra.unit, d)
        self.tables = {"mul": algebra.product, "bracket": algebra.bracket_table,
                       "basis": {(i,): e for i, e in enumerate(self.basis)}}
        self.rows = _RowIndex(self.tables, d)
        self.mul, self.bracket = _memoized(self.tables["mul"]), _memoized(self.tables["bracket"])
        self._values = {}

    def deriv(self, a):
        if self.unit is None:
            raise AlgebraError("derivation needs a unit (none declared)")
        return self.bracket(a, self.unit)

    def parity(self, a):
        if len(a) == 1:  # one term, as each basis vector has: no set to build
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

    def join(self, kernel, k):
        """The nonzero values of the kernel K at first index k: a dict from
        (g, c) to K(e_k, e_g, e_c) = (e_k o1 e_g) o2 e_c - e_k o3 (e_g o4 e_c),
        summed on the first call from the rows that the indexes of the
        tables reach from k, and kept; every (g, c) it lacks is zero."""
        key = kernel * self.dim + k
        out = self._values.get(key)
        if out is None:
            out = self._values[key] = self._join(kernel, k)
        return out

    def _join(self, kernel, k):
        o1, o2, o3, o4 = identities.KERNELS[kernel]
        acc = {}
        if o1:  # (e_k o1 e_g) o2 e_c through each m of row (k, g)
            first, second = self.rows[o1][0], self.rows[o2][0]
            for (_, g), row in first[k]:
                for m, a in row:
                    for (_, c), tail in second[m]:
                        sums = acc.get((g, c))
                        if sums is None:
                            sums = acc[g, c] = {}
                        add_terms(sums, tail, a)
        if o3:  # e_k o3 (e_g o4 e_c) through each (g, c) reaching m
            first, reach = self.rows[o3][0], self.rows[o4][2]
            for (_, m), head in first[k]:
                for gc, a in reach[m]:
                    sums = acc.get(gc)
                    if sums is None:
                        sums = acc[gc] = {}
                    add_terms(sums, head, -a)
        return {gc: tuple(sorted(sums.items())) for gc, sums in acc.items() if sums}

    def vector(self, a):
        return to_sparse(a, self.dim)

    def dense(self, a):
        return to_dense(a, self.dim)

    def render(self, a):
        return vjson(self.dense(a))


def pair_sums(ops, op):
    """The pair check of ``op`` at every basis pair (i, j) such that (i, j)
    or (j, i) has a row in its table: a dict from the pair to its
    residual, a dict from basis index to coefficient.  For "mul" it is the
    supercommutativity residual e_i e_j - s e_j e_i, for "bracket" the
    anticommutativity residual {e_i,e_j} + s{e_j,e_i}, with
    s = (-1)^{|e_i||e_j|}: the rows ij and ji summed.  At every pair that is
    not a key the residual is literally zero."""
    par, sums = ops.parities, defaultdict(dict)
    sign = 1 if op == "bracket" else -1
    for (i, j), row in ops.tables[op].items():
        add_terms(sums[i, j], row)
        add_terms(sums[j, i], row, -sign if par[i] & par[j] else sign)
    return sums


def kernel_sums(ops, shapes):
    """The kernel-form residual ``shapes`` (see
    :data:`~superbracket.identities.CRITERION_SHAPES`) at every basis tuple
    that one of its terms reaches, one first index at a time: a generator of
    the slices i = 0, 1, ..., each a dict from the reached tuples whose
    position 0 holds i to their sums, a dict from basis index to
    coefficient that may hold zeros and integral Fractions.  A reader that
    stops at a slice makes no later one.

    Each shape's term s p_k K(e_k, e_g, e_c) is added for every row p of
    the shape's table, every coordinate k of p and every nonzero kernel
    value at (k, g, c) (see :meth:`SparseOps.join`), into the tuple that
    places the row's indices and g, c at the shape's positions, with the
    sign that the shape's rule gives at that tuple's parities.  Where a
    row index sits at position 0, slice i reads the rows that hold i
    there; where g or c does, the kernel values at the k that the shape's
    rows reach are grouped by it when the first slice is made, and slice i
    reads those with g = i (or c = i) and the rows that reach their k.  A
    tuple whose terms cancel keeps a zero sum; at every tuple that no slice
    holds each term, so the residual, is literally zero."""
    d, par, join, plans = ops.dim, ops.parities, ops.join, []
    for rule, table, pair, kernel, g, c in shapes:
        order = pair + (g, c)  # the position of each value of pair + (g, c)
        lead = order.index(0)  # the value at position 0: a row index, g or c
        *at, reach = ops.rows[table]
        if lead < len(pair):  # the rows by it
            source = at[lead]
        else:  # g or c: every kernel value that a row reaches, by it
            source = [[] for _ in range(d)]
            for k in range(d):
                if reach[k]:
                    for gc, value in join(kernel, k).items():
                        source[gc[lead - len(pair)]].append((k, gc, value))
        plans.append((identities.signs(rule, len(order)), pair[0], pair[-1], kernel, g, c,
                      itemgetter(*sorted(range(len(order)), key=order.__getitem__)),
                      lead < len(pair), source, reach))
    for i in range(d):
        sums = {}
        get = sums.get
        for signs, p0, p1, kernel, g, c, place, by_row, source, reach in plans:
            if by_row:  # each row with i at position 0, and its coordinates' joins
                for key, row in source[i]:
                    # the parity bits of the row's indices (one bit twice for a basis row)
                    mask = par[key[0]] << p0 | par[key[-1]] << p1
                    for k, pk in row:
                        for gc, value in join(kernel, k).items():
                            s = signs[mask | par[gc[0]] << g | par[gc[1]] << c] * pk
                            idx = place(key + gc)
                            acc = get(idx)
                            if acc is None:
                                if s == 1:
                                    sums[idx] = dict(value)
                                    continue
                                acc = sums[idx] = {}
                            for m, v in value:
                                acc[m] = acc.get(m, 0) + s * v
                continue
            for k, gc, value in source[i]:  # each kernel value with i at g or c, and its rows
                mask = par[gc[0]] << g | par[gc[1]] << c
                for key, pk in reach[k]:
                    s = signs[mask | par[key[0]] << p0 | par[key[-1]] << p1] * pk
                    idx = place(key + gc)
                    acc = get(idx)
                    if acc is None:
                        if s == 1:
                            sums[idx] = dict(value)
                            continue
                        acc = sums[idx] = {}
                    for m, v in value:
                        acc[m] = acc.get(m, 0) + s * v
        yield sums


def first_nonzero(slices):
    """The least key, in ``itertools.product`` order, whose sum is not zero,
    over dicts from basis tuple to residual sum (a dict from basis index to
    coefficient): that key with its sum as a sparse vector, or None when
    every sum is zero.  Each slice's keys lie below every later slice's,
    as :func:`kernel_sums` makes them (a pair check passes its one dict,
    :func:`pair_sums`), so only the slices up to the first with a nonzero
    sum are read.  It is the first failing tuple of the sweep over every
    basis tuple when every tuple that is not a key has a zero residual."""
    for sums in slices:
        failing = [idx for idx, acc in sums.items() if any(acc.values())]
        if failing:  # the least one's sum without zeros, each integral Fraction an int
            first = min(failing)
            return first, tuple(sorted((m, c if type(c) is int or c.denominator != 1 else c.numerator)
                                       for m, c in sums[first].items() if c))
        del sums  # so that the next slice is not made while this one is held
    return None


def report_entry(ops, name, slices):
    """One :class:`Report` entry from the slices of residual sums of a check
    (see :func:`first_nonzero`): a pass, or a fail whose witness gives the
    failing indices, the parities of their basis vectors and the rendered
    residual."""
    failure = first_nonzero(slices)
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
    compare and serialize equal; bilinearity is by construction.  The
    coefficients and unit entries are made exact scalars here, once.
    """

    def __init__(self, dim, parities, product, bracket=None, unit=None, claim="none"):
        if claim not in CLAIMS:
            raise AlgebraError(f"unknown claim {claim!r}")
        if type(dim) is not int:
            raise AlgebraError(f"dimension must be an integer, not {dim!r}")
        if dim < 0:
            raise AlgebraError(f"dimension must be at least 0, not {dim}")
        self.dim = dim
        self.parities = tuple(parities)
        if any(type(p) is not int or p not in (0, 1) for p in self.parities):
            raise AlgebraError(f"parities must be 0 or 1, not {list(self.parities)}")
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
        return _dense_apply(self.product, self.dim, a, b)

    def bracket(self, a, b):
        return _dense_apply(self.bracket_table, self.dim, a, b)

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the structural identities and the claimed theory's axioms.

        Returns a :class:`Report`; each check carries a witness tuple on
        failure.  Each check sums its residual by basis tuple: the pair
        checks at the pairs that have a row (:func:`pair_sums`) and the unit
        check at every basis vector, each in one slice, and associativity
        and the claim axioms (:data:`CLAIM_RULES`) at the triples that
        nonzero table rows reach, one first index at a time up to the
        witness's (:func:`kernel_sums`).  Each check is decided on its own,
        with the full sweep's witness, whatever the verdicts of the others.
        """
        ops = SparseOps(self)
        if self.claim in ("genp", "jb"):  # the deformed axioms read the rows D(e_a) = {e_a, 1}
            if ops.unit is None:
                raise AlgebraError(f"claim {self.claim!r} needs a unit for the derivation")
            ops.tables["deriv"] = {(a,): row for a, e in enumerate(ops.basis)
                                   if (row := ops.deriv(e))}
        checks = [("supercommutativity", [pair_sums(ops, "mul")]),
                  ("associativity", kernel_sums(ops, identities.ASSOCIATIVITY))]
        if ops.unit is not None:
            checks.append(("unit", [{(a,): dict(identities.unit_residual(ops, ops.unit, e))
                                     for a, e in enumerate(ops.basis)}]))
        checks.append(("anticommutativity", [pair_sums(ops, "bracket")]))
        checks += [(name, kernel_sums(ops, shapes)) for name, shapes in CLAIM_RULES[self.claim]]
        return Report([report_entry(ops, name, sums) for name, sums in checks])

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

        The term must be homogeneous in each Var.  A Var x of degree k > 1
        is polarized, losslessly in characteristic zero, into the copies
        ``x#0``, ..., ``x#(k-1)``, without writing out the k! copies: by
        inclusion-exclusion, the polarized value at (v_1, ..., v_k) is
        the sum over the subsets S of {1..k} of
        (-1)^(k-|S|) f(x = the sum of the v_i, i in S), which keeps of the
        expansion of f exactly the terms that take each v_i once.  It is
        symmetric in the copies, so the sweep takes their indices sorted
        (see :func:`_sorted_blocks`), and f is evaluated once per
        sub-multiset of the copies' basis vectors.  The sweep stops at the
        first failing tuple: the tuples are exponential in the copies.
        Returns ``(True, None)`` or ``(False, witness_assignment)``, the
        assignment keyed by the copies.

        The copies of the sorted variables are listed in their sorted name
        order, variable by variable; a parsed name has no ``#``, which sorts
        below every identifier character, so this is the sorted order of
        all the copies, and the sweep's order is ``itertools.product`` order
        over them.
        """
        degrees = _var_degrees(term)
        variables = sorted(degrees)
        names = [name for x in variables for name in
                 (sorted(f"{x}#{c}" for c in range(degrees[x])) if degrees[x] > 1 else [x])]
        ops, values = SparseOps(self), {}

        def value(vectors):
            out = values.get(vectors)
            if out is None:
                out = values[vectors] = _evaluate(ops, term, dict(zip(variables, vectors)))
            return out

        for blocks in _sorted_blocks(self.dim, [degrees[x] for x in variables]):
            parts = [_sub_multisets(ops, block) for block in blocks]
            res = ops.combine([(prod(w for w, _ in pick), value(tuple(v for _, v in pick)))
                               for pick in iproduct(*parts)])
            if not ops.is_zero(res):
                idx = [i for block in blocks for i in block]
                return False, {"assignment": dict(zip(names, idx)), "residual": ops.render(res)}
        return True, None

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
            data = read_json(data, "algebra")
        if not isinstance(data, dict):
            raise AlgebraError(f"algebra JSON must be an object, not {type(data).__name__}")
        for key in ("dim", "parity"):
            if key not in data:
                raise AlgebraError(f"algebra JSON lacks {key!r}")
        if not isinstance(data["parity"], list):
            raise AlgebraError("algebra JSON 'parity' must be a list")
        return cls(data["dim"], data["parity"],
                   _table_from_json(data.get("product", {}), "product"),
                   _table_from_json(data.get("bracket", {}), "bracket"),
                   data.get("unit"), data.get("claim", "none"))


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

    return evaluate(ops, term, leaf)


def _check_table(table, dim):
    """The table with each row a sparse vector: its coefficients made exact
    scalars, its entries merged, sorted by target index and free of zeros; a
    row that sums to zero is left out."""
    out = {}
    def is_index(x):
        return type(x) is int and 0 <= x < dim

    for (i, j), row in table.items():
        if not (is_index(i) and is_index(j)):
            raise AlgebraError(f"table index ({i},{j}) out of range")
        row = [(k, scalar(coeff)) for k, coeff in row]
        for k, _ in row:
            if not is_index(k):
                raise AlgebraError(f"table target index {k} out of range")
        acc = add_terms({}, row)
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
        ij = [read_integer(x) for x in key.split(",")] if isinstance(key, str) else []
        if len(ij) != 2 or None in ij:
            raise AlgebraError(f"{name} table key {key!r} is not 'i,j'")
        try:
            out[tuple(ij)] = [(k, c) for k, c in row]
        except (TypeError, ValueError):
            raise AlgebraError(f"{name} table row {key!r} must list [k, coeff] pairs") from None
    return out


# -- polarization ----------------------------------------------------------------

def _var_degrees(term):
    def node(t, degrees):
        if not isinstance(t, Sum):
            return degrees[0] + degrees[1]
        if any(d != degrees[0] for d in degrees):
            raise AlgebraError("term is not homogeneous in its variables")
        return degrees[0] if degrees else Counter()

    return fold(term, lambda t: Counter([t.name] if isinstance(t, Var) else ()), node)


def _sorted_blocks(n, sizes):
    """One sorted tuple of the indices 0..n-1 per size, for each way to pick
    them, in ``itertools.product`` order, made one at a time:
    ``itertools.product`` would first list every size's C(n+k-1, k) sorted
    tuples, however early the sweep stops."""
    if not sizes:
        yield ()
        return
    for head in combinations_with_replacement(range(n), sizes[0]):
        for rest in _sorted_blocks(n, sizes[1:]):
            yield (head,) + rest


def _sub_multisets(ops, indices):
    """The nonempty sub-multisets of the sorted basis indices, as
    ``(weight, vector)``: the vector sums the adapter's basis vectors of the
    sub-multiset, and the weight is (-1)^(k - size) times the number of
    subsets of the k indices that give it.  The empty one is left out: a
    term of positive degree in a variable vanishes where it is zero."""
    if len(indices) == 1:  # a variable that occurs once
        return [(1, ops.basis[indices[0]])]
    counts = Counter(indices)
    out = []
    for taken in iproduct(*(range(m + 1) for m in counts.values())):
        size = sum(taken)
        if size:
            weight = prod(comb(m, j) for m, j in zip(counts.values(), taken))
            out.append((-weight if (len(indices) - size) & 1 else weight,
                        ops.combine([(j, ops.basis[i]) for i, j in zip(counts, taken) if j])))
    return out


# -- built-in algebras ---------------------------------------------------------

def _truncated_polynomials(m, bracket, claim):
    """Q[t]/(t^m), t^i t^j = t^{i+j} truncated, with the unit 1 = t^0, the
    bracket table ``bracket`` and the claim ``claim``."""
    product = {(i, j): [(i + j, 1)] for i in range(m) for j in range(m - i)}
    return StructureAlgebra(m, [0] * m, product, bracket, vbasis(m, 0), claim)


def wronskian_algebra(m: int) -> StructureAlgebra:
    """Truncated polynomial ring Q[t]/(t^m) (:func:`_truncated_polynomials`)
    with the d/dt Wronskian bracket.

    {t^i, t^j} = (i - j) t^{i+j-1} truncated.  Note the truncation ideal is
    not d/dt-stable, so the deformed Leibniz identity fails on triples that
    reach the boundary; the validator reports this honestly.
    """
    if m < 2:
        raise AlgebraError("need m >= 2")
    bracket = {(i, j): [(i + j - 1, i - j)]
               for i in range(m) for j in range(m) if i != j and 0 < i + j <= m}
    return _truncated_polynomials(m, bracket, "genp")


def euler_wronskian_algebra(m: int) -> StructureAlgebra:
    """Q[t]/(t^m) (:func:`_truncated_polynomials`) with the Euler derivation
    t d/dt: {t^i,t^j} = (i-j) t^{i+j}.

    The truncation ideal is stable under t d/dt, so this one is a genuinely
    validated generalized Poisson algebra.
    """
    if m < 2:
        raise AlgebraError("need m >= 2")
    bracket = {(i, j): [(i + j, i - j)] for i in range(m) for j in range(m - i) if i != j}
    return _truncated_polynomials(m, bracket, "genp")


def zero_product_algebra(bracket, dim=None) -> StructureAlgebra:
    """Anticommutative bracket on an even basis with the zero product: always
    a GP algebra."""
    if dim is None:
        if not bracket:
            raise AlgebraError("an empty bracket table needs dim")
        dim = 1 + max(max(i, j, *(k for k, _ in row)) for (i, j), row in bracket.items())
    alg = StructureAlgebra(dim, [0] * dim, {}, bracket, None, "gp")
    failure = first_nonzero([pair_sums(SparseOps(alg), "bracket")])
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
    """Q[t]/(t^m) (:func:`_truncated_polynomials`) with the zero bracket: a
    degenerate Poisson algebra.  m = 0 and m = 1 give the zero algebra and
    Q; the constructor refuses a negative m as a negative dimension."""
    return _truncated_polynomials(m, {}, "poisson")


def adjoin_unit(algebra: StructureAlgebra) -> StructureAlgebra:
    """Adjoin a unit acting as identity, bracketing to zero: the unit is
    e_0, and each index of the algebra's tables moves one up.

    Plain Leibniz survives unit adjunction, so a GP algebra stays GP.
    """
    if algebra.unit is not None:
        raise AlgebraError("algebra already has a unit")

    def shifted(table):
        return {(i + 1, j + 1): [(k + 1, c) for k, c in row] for (i, j), row in table.items()}

    d = algebra.dim + 1
    product = {(0, 0): [(0, 1)]}
    for i in range(1, d):
        product[(0, i)] = product[(i, 0)] = [(i, 1)]
    product.update(shifted(algebra.product))
    return StructureAlgebra(d, (0,) + algebra.parities, product,
                            shifted(algebra.bracket_table), vbasis(d, 0), algebra.claim)


def untwisted_algebra(algebra: StructureAlgebra) -> StructureAlgebra:
    """Inverse derivation twist on the tables: bracket + (aD(b) - D(a)b)/2.

    Applied to a generalized Poisson algebra this produces a Jordan-bracket
    algebra (distinguished derivation halves).  Requires a unit and checks
    that the derivation a -> {a,1} really derives the product.
    """
    if algebra.unit is None:
        raise AlgebraError("untwisting needs a unit")
    ops = SparseOps(algebra)
    if any(identities.derivation_residual(ops, a, b) for a, b in iproduct(ops.basis, repeat=2)):
        raise AlgebraError("bracket-with-unit is not a derivation of the product")
    twisted = identities.Twisted(ops, ratio(1, 2))
    bracket = {(i, j): twisted.bracket(a, b)  # a zero row is left out by the constructor
               for (i, a), (j, b) in iproduct(enumerate(ops.basis), repeat=2)}
    return StructureAlgebra(
        algebra.dim, algebra.parities, dict(algebra.product), bracket, algebra.unit, "jb")


def load_algebra(path) -> StructureAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraError(f"cannot read algebra {str(path)!r}: {exc.strerror}") from None
    return StructureAlgebra.from_json(text)
