"""Dense-tuple oracle for the structure-table sweeps.

:class:`DenseOps` has the adapter interface of
:class:`superbracket.concrete.SparseOps` (the five ``identities.py``
methods ``mul``, ``bracket``, ``deriv``, ``parity`` and ``combine``, plus
``basis``, ``unit``, ``is_zero``, the edge conversions ``vector`` and
``dense``, and ``render``) over dense coefficient tuples: a product walks
every coordinate pair of both vectors through the table dict, ``combine``
sums every coordinate of every operand, nothing is memoized, and zero is
the all-zero tuple.  :func:`dense_run` runs a function of
:mod:`superbracket.concrete` (``is_identity``, ``evaluate``) with it in
place of the sparse evaluator, so a differential test compares the two
vector representations through the same sweep and residual builders; the
oracle holds no sweep code of its own.  The public ``mul`` and ``bracket``
read the table rows they need without an evaluator, so the tests compare
them with the oracle's own ``mul`` and ``bracket``.  ``validate`` and the
Kantor checks sum dicts of residuals from the evaluator's table rows
(``tables``, ``join``; see ``concrete.pair_sums`` and
``concrete.kernel_sums``), which the oracle does not provide, and
``kantor`` binds ``SparseOps`` itself, so the tests compare them with
sweeps of the unfactored residuals over either adapter instead.

Build algebras before calling :func:`dense_run`: the table builder
``untwisted_algebra`` stores sparse rows.
"""

from __future__ import annotations

from unittest import mock

from superbracket import concrete
from superbracket.core import AlgebraError, scalar, scalar_str


def _exact(values):
    return tuple(scalar(x) for x in values)


class DenseOps:
    def __init__(self, algebra):
        self.algebra = algebra
        d = algebra.dim
        self.basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        self.unit = algebra.unit

    def _apply(self, table, a, b):
        out = [0] * self.algebra.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, coeff in table.get((i, j), ()):
                    out[k] += ai * bj * coeff
        return _exact(out)

    def mul(self, a, b):
        return self._apply(self.algebra.product, a, b)

    def bracket(self, a, b):
        return self._apply(self.algebra.bracket_table, a, b)

    def deriv(self, a):
        if self.unit is None:
            raise AlgebraError("derivation needs a unit (none declared)")
        return self.bracket(a, self.unit)

    def parity(self, a):
        seen = {self.algebra.parities[i] for i, x in enumerate(a) if x}
        if len(seen) > 1:
            raise AlgebraError("vector is not parity-homogeneous")
        return seen.pop() if seen else 0

    def combine(self, pairs):
        out = [0] * self.algebra.dim
        for c, a in pairs:
            for k, x in enumerate(a):
                out[k] += c * x
        return _exact(out)

    def vector(self, a):
        if len(a) != self.algebra.dim:
            raise AlgebraError(f"vector length {len(a)} != dimension {self.algebra.dim}")
        return _exact(a)

    @staticmethod
    def dense(a):
        return a

    @staticmethod
    def is_zero(a):
        return all(x == 0 for x in a)

    @staticmethod
    def render(a):
        return [scalar_str(x) for x in a]


def dense_run(fn, *args):
    """``fn(*args)`` with every check of ``concrete`` on :class:`DenseOps`."""
    with mock.patch.object(concrete, "SparseOps", DenseOps):
        return fn(*args)
