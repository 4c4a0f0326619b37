"""The Kantor double and Jordan-superalgebra verification.

The double of a supercommutative algebra A with a super-anticommutative
bracket is K(A) = A + Ax with

    a * b = ab,   a * bx = (ab)x,   ax * b = (-1)^{|b|} (ab)x,
    ax * bx = (-1)^{|b|} {a, b},

graded by K(A)_0 = A_0 + A_1 x and K(A)_1 = A_1 + A_0 x.  Jordan-ness of
the double is checked two independent ways: through the three bracket
criteria evaluated on A itself, and through the linearized super-Jordan
identity evaluated on the double; the two verdicts must agree.
"""

from __future__ import annotations

from itertools import product as iproduct

from .core import AlgebraError, scalar_str
from .concrete import (
    Report,
    StructureAlgebra,
    VectorOps,
    is_zero_vec,
    vbasis,
    vscale,
    vzero,
)
from .elements import Element
from .engine import FreeAlgebra
from .identities import (
    ElementOps,
    double_criterion_residual,
    linear_jordan_residual,
    supercommutativity_residual,
)

CRITERIA = (1, 2, 3)


class DoubleElement:
    """A pair a + bx over a free-engine element backend or a vector backend."""

    __slots__ = ("backend", "a", "b")

    def __init__(self, backend, a, b):
        self.backend = backend
        self.a = a
        self.b = b

    @classmethod
    def plain(cls, backend, a):
        return cls(backend, a, _zero_like(backend, a))

    @classmethod
    def shifted(cls, backend, b):
        return cls(backend, _zero_like(backend, b), b)

    def __add__(self, other):
        self._check(other)
        return DoubleElement(self.backend, _add(self.backend, self.a, other.a),
                             _add(self.backend, self.b, other.b))

    def __sub__(self, other):
        self._check(other)
        return DoubleElement(self.backend, _sub(self.backend, self.a, other.a),
                             _sub(self.backend, self.b, other.b))

    def scale(self, c):
        return DoubleElement(self.backend, _scale(self.backend, c, self.a),
                             _scale(self.backend, c, self.b))

    def __mul__(self, other):
        """The double's product, the four rules extended bilinearly.

        The parity-sensitive signs need homogeneous right-hand components,
        so mixed components are split by parity first.
        """
        self._check(other)
        backend = self.backend
        re = _mul(backend, self.a, other.a)
        im = _mul(backend, self.a, other.b)
        for pc, comp in _parity_split(backend, other.a):
            s = -1 if pc else 1
            im = _add(backend, im, _scale(backend, s, _mul(backend, self.b, comp)))
        for pd, comp in _parity_split(backend, other.b):
            s = -1 if pd else 1
            re = _add(backend, re, _scale(backend, s, _bracket(backend, self.b, comp)))
        return DoubleElement(backend, re, im)

    def parity(self):
        """K-parity: the plain part's parity, which the shifted part's must offset."""
        pa = None if _is_zero(self.backend, self.a) else _parity(self.backend, self.a)
        pb = None if _is_zero(self.backend, self.b) else _parity(self.backend, self.b)
        if pa is None and pb is None:
            return 0
        if pa is None:
            return pb ^ 1
        if pb is None or pb ^ 1 == pa:
            return pa
        raise AlgebraError("double element is not K-homogeneous")

    def is_zero(self):
        return _is_zero(self.backend, self.a) and _is_zero(self.backend, self.b)

    def _check(self, other):
        if self.backend is not other.backend:
            raise AlgebraError("double elements over different backends")

    def __repr__(self):
        return f"DoubleElement({self.a!r}, {self.b!r})"


def double_of(algebra: StructureAlgebra) -> StructureAlgebra:
    """The double as a structure algebra: indices i (plain) and dim+i (shifted)."""
    d = algebra.dim
    product = {}

    def put(i, j, vec, shifted):
        row = [(k + (d if shifted else 0), c) for k, c in enumerate(vec) if c]
        if row:
            product[(i, j)] = row

    basis = [vbasis(d, i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            put(i, j, algebra.mul(basis[i], basis[j]), False)
            put(i, d + j, algebra.mul(basis[i], basis[j]), True)
            sj = -1 if algebra.parities[j] else 1
            put(d + i, j, vscale(sj, algebra.mul(basis[i], basis[j])), True)
            put(d + i, d + j, vscale(sj, algebra.bracket(basis[i], basis[j])), False)
    parities = tuple(algebra.parities) + tuple(p ^ 1 for p in algebra.parities)
    unit = None
    if algebra.unit is not None:
        unit = tuple(algebra.unit) + vzero(d)
    return StructureAlgebra(2 * d, parities, product, {}, unit, "none")


def criteria_check(algebra, elements=None) -> Report:
    """Evaluate the three double-Jordan bracket criteria on the algebra.

    For a structure algebra the check runs over all basis 4-tuples, which is
    complete (the criteria are multilinear).  For a free engine it runs over
    the generators and the unit by default.
    """
    if isinstance(algebra, StructureAlgebra):
        ops = VectorOps(algebra)
        if elements is None:
            elements = [vbasis(algebra.dim, i) for i in range(algebra.dim)]
        zero = is_zero_vec
        describe = _vector_witness(algebra)
    elif isinstance(algebra, FreeAlgebra):
        ops = ElementOps(algebra)
        if elements is None:
            elements = [algebra.gen(n) for n in algebra.alphabet.names()] + [algebra.one()]
        zero = lambda e: e.is_zero()
        describe = _element_witness(algebra)
    else:
        raise AlgebraError(f"cannot run criteria on {algebra!r}")

    checks = []
    for which in CRITERIA:
        witness = None
        for idx in iproduct(range(len(elements)), repeat=4):
            args = [elements[i] for i in idx]
            res = double_criterion_residual(ops, which, *args)
            if not zero(res):
                witness = describe(idx, args, res)
                break
        entry = {"identity": f"jorskob{which}", "status": "pass" if witness is None else "fail"}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)
    return Report(checks)


def super_jordan_check(double: StructureAlgebra) -> Report:
    """Linearized super-Jordan identity, exhaustively over basis 4-tuples.

    The input must be supercommutative (checked first; an error with a
    witness otherwise).  This checks the double directly and is the
    cross-validation partner of :func:`criteria_check`.
    """
    ops = VectorOps(double)
    basis = [vbasis(double.dim, i) for i in range(double.dim)]
    for i, j in iproduct(range(double.dim), repeat=2):
        res = supercommutativity_residual(ops, basis[i], basis[j])
        if not is_zero_vec(res):
            raise AlgebraError(
                f"input is not supercommutative at ({i},{j}): "
                f"{[scalar_str(x) for x in res]}"
            )
    witness = None
    for idx in iproduct(range(double.dim), repeat=4):
        res = linear_jordan_residual(ops, *(basis[i] for i in idx))
        if not is_zero_vec(res):
            witness = _vector_witness(double)(idx, None, res)
            break
    entry = {"identity": "super-jordan-linearized",
             "status": "pass" if witness is None else "fail"}
    if witness is not None:
        entry["witness"] = witness
    return Report([entry])


def double_is_jordan(algebra: StructureAlgebra):
    """Both verdicts plus their agreement flag: (criteria, direct, agree)."""
    by_criteria = criteria_check(algebra)
    direct = super_jordan_check(double_of(algebra))
    return by_criteria, direct, by_criteria.ok == direct.ok


def _vector_witness(algebra):
    def describe(idx, _args, res):
        return {
            "indices": list(idx),
            "parities": [algebra.parities[i] if i < len(algebra.parities) else None
                         for i in idx],
            "residual": [scalar_str(x) for x in res],
        }

    return describe


def _element_witness(algebra):
    def describe(idx, args, res):
        return {
            "indices": list(idx),
            "parities": [a.parity() for a in args],
            "residual": algebra.element_to_json(res),
        }

    return describe


# -- backend dispatch for DoubleElement --------------------------------------

def _is_structure(backend):
    return isinstance(backend, StructureAlgebra)


def _zero_like(backend, x):
    if _is_structure(backend):
        return vzero(backend.dim)
    return backend.zero()


def _add(backend, x, y):
    if _is_structure(backend):
        return tuple(a + b for a, b in zip(x, y))
    return x + y


def _sub(backend, x, y):
    if _is_structure(backend):
        return tuple(a - b for a, b in zip(x, y))
    return x - y


def _scale(backend, c, x):
    if _is_structure(backend):
        return vscale(c, x)
    return x.scale(c)


def _mul(backend, x, y):
    return backend.mul(x, y)


def _bracket(backend, x, y):
    return backend.bracket(x, y)


def _parity(backend, x):
    if _is_structure(backend):
        return backend.parity_of(x)
    return x.parity()


def _is_zero(backend, x):
    if _is_structure(backend):
        return all(v == 0 for v in x)
    return x.is_zero()


def _parity_split(backend, x):
    """Homogeneous components of x as (parity, component) pairs."""
    if _is_structure(backend):
        comps = {}
        for i, v in enumerate(x):
            if v:
                comps.setdefault(backend.parities[i], [0] * backend.dim)
                comps[backend.parities[i]][i] = v
        return [(p, tuple(vec)) for p, vec in comps.items()]
    comps = {}
    for m, c in x.terms.items():
        p = _mono_parity(m)
        comps.setdefault(p, {})[m] = c
    return [(p, Element(backend, terms)) for p, terms in comps.items()]


def _mono_parity(m):
    p = 0
    for _, par, exp in m:
        p ^= par & exp & 1
    return p
