"""Lie algebras by structure constants over the exact rationals.

A :class:`LieAlgebra` holds its bracket as a :class:`ProductTensor`,
int numerators over one denominator; the scalar ``table[i][j] = [e_i,
e_j]`` is that tensor's view, derived on first read.  The sparse and
integral constructors accept only the ``i < j`` half and fill in the
rest, so antisymmetry holds by construction, and a full table that is
not antisymmetric is rejected; the Jacobi identity is the only axiom left
to check.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Mapping, NamedTuple, Optional, Sequence

from .linalg import (Matrix, PackedCells, ProductTensor, Subspace, Vec, dense,
                     int_inverse, int_matmul, int_product, int_sum, is_zero_vector,
                     sparse)
from .rationals import as_q, rational


class JacobiViolation(NamedTuple):
    triple: tuple
    residual: Vec


class LieAlgebra:
    """A Lie algebra as basis names and the :class:`ProductTensor` of its
    bracket, whose int numerators are its only state."""

    def __init__(self, basis_names: Sequence[str], table):
        """table[i][j] = [e_i, e_j] as coordinates, converted once to the
        bracket tensor; raises ValueError unless [e_j, e_i] = -[e_i, e_j]."""
        names = tuple(basis_names)
        tensor = ProductTensor(len(names), table)
        rows = tensor.integral[1]
        for i, row in enumerate(rows):
            for j in range(i + 1):
                if rows[j][i] != tuple((k, -x) for k, x in row[j]):
                    raise ValueError(f"bracket table is not antisymmetric: "
                                     f"[e_{j}, e_{i}] != -[e_{i}, e_{j}]")
        self._set(names, tensor)

    def _set(self, names: tuple, tensor: ProductTensor) -> None:
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        self.basis_names, self.bracket_tensor = names, tensor

    @classmethod
    def _of(cls, names: tuple, tensor: ProductTensor) -> "LieAlgebra":
        out = cls.__new__(cls)
        out._set(names, tensor)
        return out

    @classmethod
    def from_sparse(cls, names: Sequence[str],
                    brackets: Mapping[tuple, Mapping[int, object]]) -> "LieAlgebra":
        """Build from ``{(i, j): {k: coeff}}`` with ``i < j`` (0-based)."""
        names = tuple(names)
        n = len(names)
        entries = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = {k: as_q(c) for k, c in coeffs.items()}
            entries[(i, j)] = vec
            entries[(j, i)] = {k: -c for k, c in vec.items()}
        return cls._of(names, ProductTensor.from_sparse(n, entries))

    @classmethod
    def from_integral(cls, names: Sequence[str], den: int,
                      brackets: Mapping[tuple, Sequence]) -> "LieAlgebra":
        """Build from ``{(i, j): ((k, num), ...)}`` with ``i < j`` (0-based):
        [e_i, e_j] = sum of num e_k / den, with k increasing, for den > 0.

        The canonical tensor is built in one pass over the given half: den
        and the numerators are divided by their one gcd, and each cell is
        divided, cleared of zeros and negated once.  No scalar is built.
        """
        names = tuple(names)
        n = len(names)
        g = gcd(den, *[x for cell in brackets.values() for _, x in cell])
        rows = [[()] * n for _ in range(n)]
        for (i, j), cell in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            cell = tuple((k, x // g) for k, x in cell if x)
            rows[i][j] = cell
            rows[j][i] = tuple((k, -x) for k, x in cell)
        return cls._of(names, ProductTensor._of(n, den // g, tuple(map(tuple, rows))))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.basis_names == other.basis_names
                and self.bracket_tensor == other.bracket_tensor)

    def __hash__(self) -> int:
        return hash((self.basis_names, self.bracket_tensor))

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @property
    def table(self) -> tuple:
        """table[i][j] = [e_i, e_j] as scalars, the bracket tensor's table."""
        return self.bracket_tensor.table

    # -- brackets ------------------------------------------------------------

    def bracket(self, u: Sequence, v: Sequence) -> Vec:
        return self.bracket_tensor.apply(u, v)

    def ad(self, u: Sequence) -> Matrix:
        """Matrix of x -> [u, x]."""
        return self.bracket_tensor.left(u)

    # -- axioms ---------------------------------------------------------------

    def validate(self) -> tuple:
        """All Jacobi violations on basis triples i < j < k (empty = valid).

        Each triple's sum is one packed int over the bracket's
        :class:`PackedCells`, den^2 times the residual, whose components
        are sums of at most 3n products of two numerators; only a failing
        triple is summed again by :func:`int_sum` for its residual.
        """
        n = self.dim
        tensor = self.bracket_tensor
        den, rows = tensor.integral
        p = PackedCells(tensor, 3 * n * tensor.max_numerator ** 2).cells
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                    cells = ((rows[i][j], k), (rows[j][k], i), (rows[k][i], j))
                    acc = 0
                    for cell, m in cells:
                        for a, c in cell:
                            acc += c * p[a][m]
                    if acc:
                        res = int_sum([(c, rows[a][m]) for cell, m in cells for a, c in cell], n)
                        out.append(JacobiViolation((i, j, k),
                                                   tuple(rational(x, den * den) for x in res)))
        return tuple(out)

    # -- classical invariants ---------------------------------------------------
    # Each is computed once per algebra, so fingerprint, structural_report
    # and the CLI share one computation; the methods return the cached value.

    def center(self) -> Subspace:
        """{u : [u, x] = 0 for all x}, the intersection of ad kernels."""
        return self._center

    @cached_property
    def _center(self) -> Subspace:
        return self.bracket_tensor.left_kernel()

    def derived_subspace(self) -> Subspace:
        return self._derived_subspace

    @cached_property
    def _derived_subspace(self) -> Subspace:
        n = self.dim
        _, rows = self.bracket_tensor.integral
        return Subspace.from_integral(n, [dense(rows[i][j], n) for i in range(n)
                                          for j in range(i + 1, n) if rows[i][j]])

    @cached_property
    def derived_in_center(self) -> bool:
        """Whether [g, g] lies in the center, decided once: it makes C^3
        and D^2 zero, and gives dim(Z meet D) = dim D in the fingerprint."""
        return self.derived_subspace().is_subspace_of(self.center())

    def _bracket_span(self, pairs) -> Subspace:
        """The span of [u, v] over the pairs (u, v), each vector given by
        its nonzero (k, num), in one elimination over ints."""
        n = self.dim
        _, rows = self.bracket_tensor.integral
        return Subspace.from_integral(n, [int_product(rows, u, v, n) for u, v in pairs])

    def lower_central_series(self) -> "LowerCentralSeries":
        """C^1 = g, C^{k+1} = [g, C^k], listed until it stabilizes.

        The nilpotency class is the smallest k with C^{k+1} = 0 (so the
        zero algebra has class 0 and a nonzero abelian algebra class 1),
        or None when the series stabilizes at a nonzero term.  A term in
        the center is followed by zero without a bracket span: [g, C] = 0
        exactly when C lies in the center.  For C^2 = [g, g] that test is
        the shared :attr:`derived_in_center`.
        """
        return self._lower_central_series

    @cached_property
    def _lower_central_series(self) -> "LowerCentralSeries":
        units = [((i, 1),) for i in range(self.dim)]
        terms = [Subspace.full(self.dim)]
        nxt, central = self.derived_subspace(), self.derived_in_center  # C^2 = [g, g]
        while nxt != terms[-1]:
            terms.append(nxt)
            nxt = (Subspace.zero(self.dim) if central else
                   self._bracket_span((e, v) for e in units for v in nxt.integral))
            central = nxt.is_subspace_of(self.center())
        nilpotent = terms[-1].dim == 0
        cls: Optional[int] = len(terms) - 1 if nilpotent else None
        return LowerCentralSeries(tuple(terms), cls)

    def derived_series(self) -> "DerivedSeries":
        """D^1 = [g, g], D^{k+1} = [D^k, D^k], until it stabilizes; a term
        in the center is abelian, so zero follows it without a bracket span.
        For D^1 that test is the shared :attr:`derived_in_center`."""
        return self._derived_series

    @cached_property
    def _derived_series(self) -> "DerivedSeries":
        terms, central = [self.derived_subspace()], self.derived_in_center
        while True:
            cols = terms[-1].integral
            # [u, u] = 0 and [v, u] = -[u, v], so the pairs a < b span it
            nxt = (Subspace.zero(self.dim) if central else
                   self._bracket_span((cols[a], cols[b]) for a in range(len(cols))
                                      for b in range(a + 1, len(cols))))
            if nxt == terms[-1]:
                break
            terms.append(nxt)
            central = nxt.is_subspace_of(self.center())
        return DerivedSeries(tuple(terms), terms[-1].dim == 0)

    def is_nilpotent(self) -> bool:
        return self.lower_central_series().nilpotency_class is not None

    def is_solvable(self) -> bool:
        return self.derived_series().solvable

    def trace_character(self) -> Vec:
        """The covector u -> tr(ad_u), evaluated on the basis."""
        den, t = self.int_trace_character()
        return tuple(rational(x, den) for x in t)

    def int_trace_character(self) -> tuple:
        """(den, t): tr ad_{e_i} = t[i] / den, with t[i] = sum_m of the
        numerator of [e_i, e_m]_m, read off the integral rows."""
        den, rows = self.bracket_tensor.integral
        return den, [sum(c for m, cell in enumerate(row) for k, c in cell if k == m)
                     for row in rows]

    def is_unimodular(self) -> bool:
        return is_zero_vector(self.trace_character())

    def is_abelian(self) -> bool:
        return self.derived_subspace().dim == 0

    # -- transport ---------------------------------------------------------------

    def change_of_basis(self, t: Matrix, names: Sequence[str] | None = None) -> "LieAlgebra":
        """Structure constants in the basis given by the columns of t.

        With t = trows / tden, each new bracket T^-1 [T_i, T_j] is one
        :func:`int_product` over the bracket's integral rows and the
        columns of trows; all of them are then combined by the int rows
        of trows^-1 from one elimination, and the result is built by
        :meth:`from_integral`.
        """
        n = self.dim
        if t.shape != (n, n):
            raise ValueError("change of basis matrix has wrong shape")
        tden, trows = t.integral
        vden, tinv = int_inverse(trows)
        bden, rows = self.bracket_tensor.integral
        # T^-1 [T_i, T_j] = trows^-1 [trows_i, trows_j] / tden
        den = vden * tden * bden
        names = tuple(f"y{k + 1}" for k in range(n)) if names is None else names
        cols = [sparse(c) for c in zip(*trows)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # row p of new is den T^-1 [T_i, T_j] for the p-th pair (i, j)
        new = zip(*int_matmul(tinv, list(zip(*(int_product(rows, cols[i], cols[j], n)
                                                for i, j in pairs)))))
        return LieAlgebra.from_integral(names, den, {
            pair: sparse(row) for pair, row in zip(pairs, new)})


class LowerCentralSeries(NamedTuple):
    terms: tuple
    nilpotency_class: Optional[int]

    @property
    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)


class DerivedSeries(NamedTuple):
    terms: tuple
    solvable: bool

    @property
    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)
