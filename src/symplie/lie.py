"""Lie algebras by structure constants over the exact rationals.

A :class:`LieAlgebra` stores the full antisymmetric bracket table
``table[i][j] = [e_i, e_j]`` as coordinate tuples.  Constructors accept
only the ``i < j`` half and fill in the rest, so antisymmetry holds by
construction; the Jacobi identity is the only axiom left to check.
Brackets are evaluated by a :class:`ProductTensor` over the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import SymplieError
from .linalg import (Matrix, ProductTensor, Subspace, Vec, common_kernel, dense,
                     int_inverse, int_matmul, int_matrix, int_product,
                     is_zero_vector, sparse)
from .rationals import ZERO, as_q, rational


class InvalidLieAlgebraError(SymplieError):
    """The bracket table violates the Jacobi identity."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        first = self.violations[0]
        super().__init__(
            f"Jacobi identity fails at basis triple {first.triple}"
            f" (residual {first.residual}); {len(self.violations)} triple(s) total")


class JacobiViolation(NamedTuple):
    triple: tuple
    residual: Vec


@dataclass(frozen=True)
class LieAlgebra:
    basis_names: tuple
    table: tuple  # table[i][j] = coordinates of [e_i, e_j]

    def __post_init__(self):
        n = len(self.basis_names)
        if len(set(self.basis_names)) != n:
            raise ValueError("basis names must be unique")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("bracket table shape mismatch")

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
        return cls(names, ProductTensor.from_sparse(n, entries).table)

    @classmethod
    def from_integral(cls, names: Sequence[str], den: int,
                      brackets: Mapping[tuple, Sequence]) -> "LieAlgebra":
        """Build from ``{(i, j): ((k, num), ...)}`` with ``i < j`` (0-based):
        [e_i, e_j] = sum of num e_k / den, with k increasing.  The bracket
        tensor is :meth:`ProductTensor.from_integral` over these
        numerators, so it keeps them as its integral."""
        names = tuple(names)
        n = len(names)
        rows = [[()] * n for _ in range(n)]
        for (i, j), cell in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            rows[i][j] = cell
            rows[j][i] = tuple((k, -x) for k, x in cell)
        tensor = ProductTensor.from_integral(n, den, rows)
        out = cls(names, tensor.table)
        # a frozen dataclass, so the cached property goes straight into __dict__
        out.__dict__["bracket_tensor"] = tensor
        return out

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    # -- brackets ------------------------------------------------------------

    @cached_property
    def bracket_tensor(self) -> ProductTensor:
        """The bracket as a product tensor over this very table."""
        return ProductTensor(self.dim, self.table)

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.table[i][j]

    def bracket(self, u: Sequence, v: Sequence) -> Vec:
        return self.bracket_tensor.apply(u, v)

    def ad(self, u: Sequence) -> Matrix:
        """Matrix of x -> [u, x]."""
        return self.bracket_tensor.left(u)

    # -- axioms ---------------------------------------------------------------

    def validate(self) -> tuple:
        """All Jacobi violations on basis triples i < j < k (empty = valid).

        The sum runs over the integer rows of the bracket's
        :attr:`ProductTensor.integral`, so it is den^2 times the residual;
        only a failing triple's residual is converted back to scalars.
        """
        n = self.dim
        den, rows = self.bracket_tensor.integral
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                    acc = [0] * n
                    for cell, m in ((rows[i][j], k), (rows[j][k], i), (rows[k][i], j)):
                        for a, c in cell:
                            for b, d in rows[a][m]:
                                acc[b] += c * d
                    if any(acc):
                        res = tuple(rational(x, den * den) for x in acc)
                        out.append(JacobiViolation((i, j, k), res))
        return tuple(out)

    def require_valid(self) -> "LieAlgebra":
        violations = self.validate()
        if violations:
            raise InvalidLieAlgebraError(violations)
        return self

    # -- classical invariants ---------------------------------------------------
    # Each is computed once per algebra, so fingerprint, structural_report
    # and the CLI share one computation; the methods return the cached value.

    def center(self) -> Subspace:
        """{u : [u, x] = 0 for all x}, the intersection of ad kernels."""
        return self._center

    @cached_property
    def _center(self) -> Subspace:
        # ad_u = sum_i u_i ad_{e_i}, and rows[i] lists the columns of ad_{e_i}
        n = self.dim
        _, rows = self.bracket_tensor.integral
        return common_kernel([[dense(cell, n) for cell in row] for row in rows], n)

    def derived_subspace(self) -> Subspace:
        return self._derived_subspace

    @cached_property
    def _derived_subspace(self) -> Subspace:
        n = self.dim
        _, rows = self.bracket_tensor.integral
        return Subspace.span(n, [dense(rows[i][j], n) for i in range(n)
                                 for j in range(i + 1, n)])

    def _bracket_span(self, pairs) -> Subspace:
        """The span of [u, v] over the pairs (u, v), each vector given by
        its nonzero (k, num), in one elimination over ints."""
        n = self.dim
        _, rows = self.bracket_tensor.integral
        return Subspace.span(n, [int_product(rows, u, v, n) for u, v in pairs])

    def lower_central_series(self) -> "LowerCentralSeries":
        """C^1 = g, C^{k+1} = [g, C^k], listed until it stabilizes.

        The nilpotency class is the smallest k with C^{k+1} = 0 (so the
        zero algebra has class 0 and a nonzero abelian algebra class 1),
        or None when the series stabilizes at a nonzero term.
        """
        return self._lower_central_series

    @cached_property
    def _lower_central_series(self) -> "LowerCentralSeries":
        units = [((i, 1),) for i in range(self.dim)]
        terms = [Subspace.full(self.dim)]
        nxt = self.derived_subspace()  # C^2 = [g, g]
        while nxt != terms[-1]:
            terms.append(nxt)
            nxt = self._bracket_span((e, v) for e in units for v in nxt.integral)
        nilpotent = terms[-1].dim == 0
        cls: Optional[int] = len(terms) - 1 if nilpotent else None
        return LowerCentralSeries(tuple(terms), cls)

    def derived_series(self) -> "DerivedSeries":
        """D^1 = [g, g], D^{k+1} = [D^k, D^k], until it stabilizes."""
        return self._derived_series

    @cached_property
    def _derived_series(self) -> "DerivedSeries":
        terms = [self.derived_subspace()]
        while True:
            cols = terms[-1].integral
            # [u, u] = 0 and [v, u] = -[u, v], so the pairs a < b span it
            nxt = self._bracket_span((cols[a], cols[b]) for a in range(len(cols))
                                     for b in range(a + 1, len(cols)))
            if nxt == terms[-1]:
                break
            terms.append(nxt)
        return DerivedSeries(tuple(terms), terms[-1].dim == 0)

    def is_nilpotent(self) -> bool:
        return self.lower_central_series().nilpotency_class is not None

    def is_solvable(self) -> bool:
        return self.derived_series().solvable

    def trace_character(self) -> Vec:
        """The covector u -> tr(ad_u), evaluated on the basis:
        tr ad_{e_i} = sum_m [e_i, e_m]_m, read off the table."""
        n = self.dim
        return tuple(sum((self.table[i][m][m] for m in range(n)), ZERO)
                     for i in range(n))

    def is_unimodular(self) -> bool:
        return is_zero_vector(self.trace_character())

    def is_abelian(self) -> bool:
        return self.derived_subspace().dim == 0

    # -- transport ---------------------------------------------------------------

    def change_of_basis(self, t: Matrix, names: Sequence[str] | None = None) -> "LieAlgebra":
        """Structure constants in the basis given by the columns of t.

        Each new bracket T^-1 [T_i, T_j] is one :func:`int_product` over
        the bracket's integral rows and the numerators of T's columns; all
        of them are then combined by the int rows of T^-1 from one
        elimination, and the result is built by :meth:`from_integral`.
        """
        n = self.dim
        if t.shape != (n, n):
            raise ValueError("change of basis matrix has wrong shape")
        vden, tinv = int_inverse(t.entries)
        tden, trows = int_matrix(t)
        bden, rows = self.bracket_tensor.integral
        den = vden * tden * tden * bden
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
