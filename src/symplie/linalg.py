"""Deterministic exact linear algebra over the rationals.

A :class:`Matrix`, a :class:`Subspace` and a bilinear
:class:`ProductTensor` (the Lie bracket and the canonical product alike)
keep int numerators as their only state, in a canonical form, so they
compare equal exactly when the matrices, subspaces or products are
equal; their scalar views (``entries``, ``basis``, ``table``) are derived
on first read.  Int rows are contracted by the one loop in
:func:`int_sum`, scalar ones by :func:`accumulate`.

The flatness kernels, the Jacobi test, the canonical product and the
structural report's zero tests contract packed slots instead:
:func:`pack` (and :class:`PackedCells`, for every cell of a tensor) turns
an int vector x of length n into the one int
sum_k x_k 2^(k bits) (Kronecker substitution), so that a residual
sum_t c_t v_t costs one big-int multiply-add per term instead of n.
With bits = :func:`slot_bits` (bound) = bound.bit_length() + 1 each component |x_k| <= bound lies
in [-2^(bits-1), 2^(bits-1)), where the lowest slot is read back as the
residue mod 2^bits, so packing is injective on such vectors: a bounded
residual is zero exactly when its packed int is, and two are equal
exactly when their packed ints are.

The same holds for a residual over pairs (m, k), m, k < n, packed at slot
m n + k: that is one packing with n^2 slots.  A packed int is the value
at t = 2^bits of the polynomial sum_s x_s t^s, so packing is linear and
multiplicative: if y = sum_m y_m t^(m n) (slots n apart) and
z = sum_k z_k t^k, then y z = sum y_m z_k t^(m n + k), and no two (m, k)
share an exponent.  A sum of such products therefore packs the residual
sum y_m z_k whole, and only its n^2 components, not the factors or the
partial sums, need to lie within the bound.

Elimination is fraction-free, over Python ints: a matrix enters as its
numerator rows and a rational vector as the integer numerators of
:func:`rationals.integral`, rows are combined without division and then
divided by their content.  A subspace keeps its pivot rows as they come
out; :func:`rref` and :func:`inverse` put the pivot rows over one
denominator, and only :func:`solve` returns scalars.

Every elimination pivots on the first nonzero candidate in row-major
order; there is no scoring or heuristics, which keeps all derived data
(kernels, solved coordinates, canonical bases) reproducible.  The reduced
echelon form is unique, so they equal what Gauss-Jordan over Q gives.

Each canonical subspace costs one elimination.  A kernel eliminates its
equations with the columns reversed, so each reduced row is nonzero only
at its pivot column c and at free columns before c.  The generator of
free column f, x_f = 1 and x_c = -row[f] / row[c], is then nonzero only
at f and at pivot columns after f: the generators, in order of f and
divided by their content, are already the reduced echelon rows of the
kernel.  The annihilator of a subspace, {y : y . v = 0 for v in it}, is
the kernel of its reduced echelon rows, which is read off them in the
same way with no elimination, and A meet B is the one kernel of the
annihilators of A and B stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import SymplieError
from .rationals import ONE, ZERO, as_q, integral, rational

Vec = tuple


class NoSolutionError(SymplieError):
    """The right-hand side is not in the column span of the matrix."""


class SingularMatrixError(SymplieError):
    """Inversion was requested for a matrix without full rank."""


# ---------------------------------------------------------------------------
# vectors

def vector(values: Iterable) -> Vec:
    return tuple(as_q(v) for v in values)


def zero_vector(n: int) -> Vec:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vec:
    return tuple(ONE if k == i else ZERO for k in range(n))


def vdot(a: Vec, b: Vec):
    acc = ZERO
    for x, y in zip(a, b, strict=True):
        if x and y:
            acc += x * y
    return acc


def is_zero_vector(a: Vec) -> bool:
    return not any(a)


def accumulate(acc: list, coeffs: Sequence, vectors: Sequence, scale=None) -> list:
    """acc += sum_i scale * coeffs[i] * vectors[i] in place, skipping zeros.

    The one bilinear contraction: products, brackets, matrix products
    and pairings with basis vectors are all weighted sums of this kind.
    """
    for c, w in zip(coeffs, vectors):
        if not c:
            continue
        if scale is not None:
            c = scale * c
        for k, wk in enumerate(w):
            if wk:
                acc[k] += c * wk
    return acc


def int_sum(terms, n: int) -> list:
    """sum_t c_t * row_t as a dense int list, over (c, row) pairs with each
    row a sequence of nonzero (k, num) as in :attr:`ProductTensor.integral`."""
    acc = [0] * n
    for c, row in terms:
        for k, d in row:
            acc[k] += c * d
    return acc


def sparse(v: Sequence) -> tuple:
    """The nonzero (k, v_k) of a vector."""
    return tuple([(k, c) for k, c in enumerate(v) if c])


def dense(pairs, n: int) -> list:
    """The length-n list with the (k, c) of pairs and 0 elsewhere, the
    inverse of :func:`sparse` for int entries."""
    v = [0] * n
    for k, c in pairs:
        v[k] = c
    return v


def int_product(rows, u, v, n: int) -> list:
    """sum_{i,j} u_i v_j rows[i][j] as a dense int list, for u and v given
    by their nonzero (k, num) and rows as in :attr:`ProductTensor.integral`."""
    acc = [0] * n
    for i, a in u:
        row = rows[i]
        for j, b in v:
            ab = a * b
            for k, c in row[j]:
                acc[k] += ab * c
    return acc


# ---------------------------------------------------------------------------
# matrices

def _int_row(v: Sequence) -> tuple:
    """(den, nums): v == nums / den with nums a new list of ints, over 1
    for ints and else over the lcm denominator of :func:`rationals.integral`."""
    if all(type(x) is int for x in v):
        return 1, list(v)
    return integral([x if type(x) is int else as_q(x) for x in v])


class Matrix:
    """Immutable rows x cols grid of exact rationals.

    Its state is :attr:`integral` = (den, rows): rows[i] is row i as ints
    over the one denominator den > 0, with no factor common to den and
    every entry.  That form is unique, so two matrices of one shape are
    equal exactly when their entries are.  Arithmetic and elimination
    read the numerators; the scalar :attr:`entries` are derived on first
    read.
    """

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        """The matrix of these rows of scalars or ints; floats and bools raise TypeError."""
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        if any(len(row) != cols for row in entries):
            raise ValueError("column count mismatch")
        den, nums = _int_row(list(chain.from_iterable(entries)))
        self.rows, self.cols = rows, cols
        self.integral = (den, tuple(tuple(nums[i * cols:(i + 1) * cols]) for i in range(rows)))

    @classmethod
    def _of(cls, rows: int, cols: int, den: int, nums) -> "Matrix":
        """nums / den, divided by the gcd of den and every entry unless it is 1."""
        g = den if den == 1 else gcd(den, *chain.from_iterable(nums))
        if g != 1:
            den, nums = den // g, [[x // g for x in row] for row in nums]
        out = cls.__new__(cls)
        out.rows, out.cols, out.integral = rows, cols, (den, tuple(map(tuple, nums)))
        return out

    @classmethod
    def from_integral(cls, den: int, rows: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix rows / den for den > 0 and int rows of one length,
        made canonical; no scalar is built."""
        return cls._of(len(rows), len(rows[0]) if rows else 0, den, rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        return cls.from_rows(cols).transpose()

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, 1, [[0] * cols] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, 1, [[int(i == k) for k in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self.integral == other.integral)

    def __hash__(self) -> int:
        return hash((self.shape, self.integral))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"

    # -- access ------------------------------------------------------------

    @cached_property
    def entries(self) -> tuple:
        """The rows as scalars, each numerator of :attr:`integral` over den."""
        den, rows = self.integral
        return tuple(tuple(rational(x, den) if x else ZERO for x in row) for row in rows)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.integral[1]))

    # -- arithmetic over the numerators ------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        (da, a), (db, b) = self.integral, other.integral
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return Matrix._of(self.rows, self.cols, den,
                          [[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        den, rows = self.integral
        return Matrix._of(self.rows, self.cols, den, [[-x for x in row] for row in rows])

    def scale(self, c) -> "Matrix":
        c = as_q(c)
        den, rows = self.integral
        return Matrix._of(self.rows, self.cols, den * c.denominator,
                          [[c.numerator * x for x in row] for row in rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        (da, a), (db, b) = self.integral, other.integral
        # each row of the product weights the rows of other by a row of self
        return Matrix._of(self.rows, other.cols, da * db,
                          [accumulate([0] * other.cols, row, b) for row in a])

    def apply(self, v: Sequence) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vden, nums = _int_row(v)
        den = self.integral[0] * vden
        out = (sum(x * y for x, y in zip(row, nums) if x) for row in self.integral[1])
        return tuple(rational(x, den) if x else ZERO for x in out)

    def transpose(self) -> "Matrix":
        den, rows = self.integral
        return Matrix._of(self.cols, self.rows, den,
                          list(zip(*rows)) if rows else [()] * self.cols)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        den, rows = self.integral
        return rational(sum(row[i] for i, row in enumerate(rows)), den)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        (da, a), (db, b) = self.integral, other.integral
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return Matrix._of(self.rows, self.cols + other.cols, den,
                          [[fa * x for x in ra] + [fb * y for y in rb] for ra, rb in zip(a, b)])


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return (a @ b) - (b @ a)


def int_matmul(a, b) -> list:
    """a @ b for matrices of ints given as sequences of rows."""
    ncols = len(b[0]) if b else 0
    return [accumulate([0] * ncols, row, b) for row in a]


# ---------------------------------------------------------------------------
# elimination
#
# Elimination runs over Python ints.  A row and any positive multiple of it
# have the same reduced echelon form, so a matrix enters as its numerator
# rows and a rational row as the numerators of :func:`_int_row`.

def _rref_rows(rows: list, ncols: int) -> list:
    """In-place fraction-free reduced row echelon form of int rows; returns
    pivot column indices.

    First-nonzero pivoting, zero-entry skipping in the update loop.  The
    skipping matters: block-sparse systems (the brute-force product
    solver assembles one of size dim^3) reduce in near-linear time.
    Each pivot row is divided by its content and made positive at its
    pivot; each row it reduces becomes a * row - b * pivot row, with a / b
    the pivot over the row's entry in lowest terms and a > 0, divided by
    its content.  When it returns, rows[r] over its pivot rows[r][pivots[r]]
    is row r of the reduced row echelon form over Q, which is unique; each
    pivot row is primitive with a positive pivot.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        prow = rows[pivot_row]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[pivot_row] = rows[r]
        rows[r] = prow
        p = prow[c]
        support = [k for k in range(c, ncols) if prow[k]]
        for i in range(nrows):
            if i == r:
                continue
            target = rows[i]
            f = target[c]
            if not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                target = rows[i] = [a * x for x in target]
            for k in support:
                target[k] -= b * prow[k]
            g = gcd(*target)
            if g > 1:
                rows[i] = [x // g for x in target]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivot_cols: tuple
    rank: int


def rref(m: Matrix) -> RrefResult:
    rows = [list(row) for row in m.integral[1]]
    pivots = _rref_rows(rows, m.cols)
    # row r over its pivot, all times the lcm of the pivots; the rows
    # past the pivot rows are zero
    den = lcm(1, *(row[c] for row, c in zip(rows, pivots)))
    reduced = [[x * (den // row[c]) for x in row] for row, c in zip(rows, pivots)]
    return RrefResult(Matrix._of(m.rows, m.cols, den, reduced + rows[len(pivots):]),
                      tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    return len(_rref_rows([list(row) for row in m.integral[1]], m.cols))


def solve(m: Matrix, b: Sequence) -> Vec:
    """One exact solution of m x = b; free coordinates are set to zero.

    Raises :class:`NoSolutionError` when b is outside the column span.
    """
    bden, bs = _int_row(b)
    if len(bs) != m.rows:
        raise ValueError("right-hand side length mismatch")
    # m = M / den and b = B / bden, so m x = b is bden M x = den B
    den, mrows = m.integral
    rows = [[bden * x for x in row] + [den * y] for row, y in zip(mrows, bs)]
    pivots = _rref_rows(rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        raise NoSolutionError("right-hand side not in the image")
    x = [ZERO] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = rational(row[-1], row[c])
    return tuple(x)


def int_inverse(rows: Sequence) -> tuple:
    """(den, inv): the inverse of the square matrix with these rows (scalars,
    or ints as they are) as int rows over den; raises SingularMatrixError."""
    n = len(rows)
    work = [_int_row((*row, *(int(k == i) for k in range(n))))[1]
            for i, row in enumerate(rows)]
    pivots = _rref_rows(work, 2 * n)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    return den, [[x * (den // row[c]) for x in row[n:]] for row, c in zip(work, pivots)]


def inverse(m: Matrix) -> Matrix:
    """m^-1 from one elimination of its numerators: (M / den)^-1 = den M^-1."""
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    den, rows = m.integral
    iden, inv = int_inverse(rows)
    return Matrix._of(m.rows, m.rows, iden, [[den * x for x in row] for row in inv])


def kernel(m: Matrix) -> "Subspace":
    """Null space of m as a canonical subspace of Q^cols, from one
    elimination of the numerators of m."""
    return _kernel([list(row[::-1]) for row in m.integral[1]], m.cols)


def _solution_rows(rows: list, pivots: list, ncols: int) -> list:
    """The null space generators of int rows in reduced echelon form with
    these pivot columns, one per free column f in decreasing order:
    x_f = 1 and x_c = -row[f] / row[c] for the pivot column c of each row,
    times the lcm of those pivots.  Each is listed as its nonzero
    (ncols-1-k, x_k) with k decreasing, so the columns come out mirrored."""
    last, pivot_set, out = ncols - 1, set(pivots), []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        # the rows come in increasing pivot order, so reversed, the mirrored
        # indices increase
        used = [(c, row[c], row[f]) for row, c in zip(rows, pivots) if row[f]][::-1]
        scale = lcm(*(p for _, p, _ in used))
        out.append([(last - f, scale)] + [(last - c, -x * (scale // p)) for c, p, x in used])
    return out


def _kernel(rows: list, ncols: int) -> "Subspace":
    """The null space of int rows whose entry j is the coefficient of
    x_(ncols-1-j), eliminated in place.  Mirrored back by
    :func:`_solution_rows`, the generators are the canonical rows once
    divided by their content (module docstring)."""
    pivots = _rref_rows(rows, ncols)
    gens = _solution_rows(rows, pivots, ncols)
    for i, gen in enumerate(gens):
        g = gcd(*(x for _, x in gen))
        if g != 1:
            gens[i] = [(k, x // g) for k, x in gen]
    return Subspace._of(ncols, tuple(map(tuple, gens)))


def common_kernel(maps: Sequence, n: int) -> "Subspace":
    """{u in Q^n : sum_i u_i maps[i] = 0} as a canonical subspace.

    Each maps[i] is a nonempty grid (a sequence of equal-length
    vectors), so a family of matrices, bracket-table rows or
    product-table columns all fit; entry (a, b) of the grids is one
    equation, read as ints by :func:`_int_row`.  The result is
    canonical, so the order and scale of the equations cannot change it.
    """
    # an all-zero equation constrains nothing
    rows = [r for r in zip(*[[x for cells in m for x in cells] for m in maps]) if any(r)]
    return _kernel([_int_row(r[::-1])[1] for r in rows], n)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """Canonical subspace of Q^n.

    Its state is :attr:`integral`: the rows of the reduced row echelon
    form of any spanning set, each as the nonzero (k, num) of its
    primitive int multiple with a positive pivot, which comes first.  They
    are unique, so equality of this state decides subspace equality.
    :attr:`basis`, the same vectors as scalar columns in reduced column
    echelon form, is derived on first read.
    """

    def __init__(self, ambient_dim: int, basis: Matrix):
        """The subspace with this reduced column echelon basis, read from
        its numerators; any other basis raises ValueError."""
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        cols = [list(c) for c in zip(*basis.integral[1])]
        self.ambient_dim = ambient_dim
        self.integral = Subspace.from_integral(ambient_dim, cols).integral
        if self.basis != basis:
            raise ValueError("basis is not in reduced column echelon form")

    @classmethod
    def _of(cls, ambient_dim: int, cols: tuple) -> "Subspace":
        out = cls.__new__(cls)
        out.ambient_dim, out.integral = ambient_dim, cols
        return out

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of vectors; int vectors (integer numerators) are
        eliminated as they are."""
        rows = [_int_row(v)[1] for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("spanning vector has wrong length")
        return cls.from_integral(ambient_dim, rows)

    @classmethod
    def from_integral(cls, ambient_dim: int, rows: list) -> "Subspace":
        """The span of int lists of length ambient_dim, which are
        eliminated in place; no scalar is built."""
        pivots = _rref_rows(rows, ambient_dim)
        # each pivot row is primitive with a positive pivot
        return cls._of(ambient_dim, tuple(sparse(row) for row in rows[:len(pivots)]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, tuple(((k, 1),) for k in range(ambient_dim)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.integral == other.integral)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.integral))

    @property
    def dim(self) -> int:
        return len(self.integral)

    @cached_property
    def basis(self) -> Matrix:
        """The basis as a Matrix: column k is integral row k over its pivot."""
        n, cols = self.ambient_dim, self.integral
        den = lcm(1, *(col[0][1] for col in cols))
        cols = [dense([(k, x * (den // col[0][1])) for k, x in col], n) for col in cols]
        return Matrix._of(n, len(cols), den, list(zip(*cols)) if cols else [()] * n)

    def columns(self) -> list:
        return self.basis.columns()

    def contains(self, v: Sequence) -> bool:
        v = _int_row(v)[1]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self._reduces_to_zero(v)

    def _reduces_to_zero(self, v: list) -> bool:
        """Whether the int list v, which is consumed, lies in the span."""
        # reduce v against each column in turn, fraction-free
        for col in self.integral:
            pivot, p = col[0]
            f = v[pivot]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    v = [a * x for x in v]
                for k, x in col:
                    v[k] -= b * x
        return not any(v)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(other._reduces_to_zero(dense(c, self.ambient_dim)) for c in self.integral)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    return Subspace.from_integral(n, [dense(c, n) for c in a.integral + b.integral])


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """The one kernel of the annihilators of a and b, each read off its
    reduced echelon rows by :func:`_solution_rows`, which mirrors the
    columns as :func:`_kernel` takes them."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    return _kernel([dense(y, n) for s in (a, b) for y in _solution_rows(
        [dense(c, n) for c in s.integral], [c[0][0] for c in s.integral], n)], n)


# ---------------------------------------------------------------------------
# bilinear product tensors

def slot_bits(bound: int) -> int:
    """The slot width that packs every |x_k| <= bound exactly."""
    return bound.bit_length() + 1


def pack(pairs, bits: int) -> int:
    """sum_k x_k 2^(k bits) over the (k, x_k) of pairs."""
    acc = 0
    for k, x in pairs:
        acc += x << (k * bits)
    return acc


def unpack(x: int, n: int, bits: int) -> list:
    """The int vector of length n, |x_k| < 2^(bits-1), packed as x by
    :func:`pack`: slot k is read back as the residue mod 2^bits nearest 0."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(n):
        out.append(((x + half) & mask) - half)
        x = (x - out[-1]) >> bits
    return out


class PackedCells:
    """cells[a][m] = sum_k num_k 2^(k bits) over the cell (k, num) of a
    tensor's :attr:`ProductTensor.integral`, with bits =
    :func:`slot_bits` (bound): exact for int vectors with |x_k| <= bound, as
    the module docstring shows.  :meth:`unpack` reads one back."""

    __slots__ = ("dim", "bits", "cells")

    def __init__(self, tensor: "ProductTensor", bound: int):
        self.dim, self.bits = tensor.dim, slot_bits(bound)
        self.cells = tuple(tuple(pack(cell, self.bits) for cell in row)
                           for row in tensor.integral[1])

    def unpack(self, x: int) -> tuple:
        """The int vector of length dim, |x_k| < 2^(bits-1), packed as x."""
        return tuple(unpack(x, self.dim, self.bits))


def _integral_rows(grid) -> tuple:
    """(den, rows) for a grid of cells, each the nonzero (k, scalar) of a
    vector: the numerators over the lcm of the denominators in lowest
    terms, which share no factor with it, so the form is canonical."""
    den, nums = integral(c for row in grid for cell in row for _, c in cell)
    it = iter(nums)
    return den, tuple(tuple(tuple((k, next(it)) for k, _ in cell) for cell in row)
                      for row in grid)


class ProductTensor:
    """A bilinear product on Q^dim.

    Its state is :attr:`integral` = (den, rows): rows[a][m] lists the
    nonzero (k, num) of e_a o e_m as ints, k increasing, over the one
    denominator den > 0, with no factor common to den and every num.
    That form is unique, so two tensors are equal exactly when their
    products are.  The scalar :attr:`table`, table[a][m][k] == num / den,
    is derived on first read.
    """

    def __init__(self, dim: int, table):
        """The product with e_i o e_j = table[i][j], converted to ints once."""
        if len(table) != dim or any(len(r) != dim for r in table):
            raise ValueError("product table shape mismatch")
        self.dim = dim
        self.integral = _integral_rows([[sparse(vector(cell)) for cell in row] for row in table])

    @classmethod
    def from_sparse(cls, dim: int, entries) -> "ProductTensor":
        grid = [[()] * dim for _ in range(dim)]
        for (i, j), coeffs in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product key ({i}, {j}) out of range for dim {dim}")
            for k in coeffs:
                if not 0 <= k < dim:
                    raise ValueError(f"product value index {k} out of range for dim {dim}")
            grid[i][j] = sparse(vector(coeffs.get(k, 0) for k in range(dim)))
        return cls.from_integral(dim, *_integral_rows(grid))

    @classmethod
    def _of(cls, dim: int, den: int, rows: tuple) -> "ProductTensor":
        """The tensor whose :attr:`integral` is (den, rows), already canonical."""
        out = cls.__new__(cls)
        out.dim, out.integral = dim, (den, rows)
        return out

    @classmethod
    def from_integral(cls, dim: int, den: int, rows) -> "ProductTensor":
        """The product with e_a o e_m = rows[a][m] / den, for den > 0 and
        each cell a sequence of (k, num) pairs with increasing k.

        den and every numerator are divided by their one gcd and zero
        numerators are dropped, so :attr:`integral` is canonical.  No
        scalar is built.
        """
        g = gcd(den, *[x for row in rows for cell in row for _, x in cell])
        return cls._of(dim, den // g, tuple(tuple(tuple((k, x // g) for k, x in cell if x)
                                                  for cell in row) for row in rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductTensor) and self.integral == other.integral

    def __hash__(self) -> int:
        return hash(self.integral)

    @cached_property
    def table(self) -> tuple:
        """table[a][m] = e_a o e_m as scalars, each distinct numerator of
        :attr:`integral` converted once."""
        den, rows = self.integral
        q = cache(lambda x: rational(x, den))
        zero = zero_vector(self.dim)

        def cell(pairs):
            v = list(zero)
            for k, x in pairs:
                v[k] = q(x)
            return tuple(v)
        return tuple(tuple(cell(c) for c in row) for row in rows)

    @cached_property
    def max_numerator(self) -> int:
        """The largest |num| of :attr:`integral` (0 for the zero product)."""
        return max([abs(x) for row in self.integral[1] for cell in row for _, x in cell],
                   default=0)

    @cached_property
    def nonzero_cells(self) -> tuple:
        """The (a, m, cell) with e_a o e_m = cell / den nonzero, row by row."""
        return tuple((a, m, cell) for a, row in enumerate(self.integral[1])
                     for m, cell in enumerate(row) if cell)

    @cached_property
    def columns(self) -> tuple:
        """columns[j][i] = e_i o e_j: the same cells, read down a column."""
        return tuple(zip(*self.table))

    def apply(self, u: Sequence, v: Sequence) -> Vec:
        u, v = vector(u), vector(v)
        acc = [ZERO] * self.dim
        for ui, row in zip(u, self.table):
            if ui:
                accumulate(acc, v, row, ui)
        return tuple(acc)

    def _operator(self, u: Sequence, grid) -> Matrix:
        """The matrix with column j equal to sum_i u_i grid[j][i]."""
        u = vector(u)
        cols = [tuple(accumulate([ZERO] * self.dim, u, cells)) for cells in grid]
        return Matrix.from_cols(cols) if cols else Matrix.zeros(self.dim, 0)

    def left(self, u: Sequence) -> Matrix:
        """L_u : x -> u o x."""
        return self._operator(u, self.columns)

    def right(self, u: Sequence) -> Matrix:
        """R_u : x -> x o u."""
        return self._operator(u, self.table)

    @cached_property
    def packed_associators(self) -> tuple:
        """(packing, a): a[i][j][k] = den^2 ((e_i o e_j) o e_k - e_i o (e_j o e_k))
        packed, each component a sum of at most 2n products of two
        numerators, so bounded by 2n max_numerator^2.
        :meth:`left_symmetry_violations` and :meth:`is_associative` read it."""
        n, rows = self.dim, self.integral[1]
        packing = PackedCells(self, 2 * n * self.max_numerator ** 2)
        cells = packing.cells
        out = []
        for i in range(n):
            ci, ri = cells[i], rows[i]
            plane = []
            for j in range(n):
                rij, rj = ri[j], rows[j]
                line = []
                for k in range(n):
                    acc = 0
                    for a, c in rij:
                        acc += c * cells[a][k]
                    for b, c in rj[k]:
                        acc -= c * ci[b]
                    line.append(acc)
                plane.append(tuple(line))
            out.append(tuple(plane))
        return packing, tuple(out)

    @cached_property
    def int_associators(self) -> tuple:
        """int_associators[i][j][k] = den^2 ((e_i o e_j) o e_k - e_i o (e_j o e_k))
        as a tuple of n ints, unpacked from :attr:`packed_associators`."""
        packing, a = self.packed_associators
        return tuple(tuple(tuple(map(packing.unpack, row)) for row in plane) for plane in a)

    @cached_property
    def associators(self) -> tuple:
        """associators[i][j][k] = (e_i o e_j) o e_k - e_i o (e_j o e_k) as
        scalars: :attr:`int_associators` over den^2, each distinct numerator
        converted once."""
        den = self.integral[0]
        q = cache(lambda x: rational(x, den * den))
        return tuple(tuple(tuple(tuple(map(q, v)) for v in row) for row in plane)
                     for plane in self.int_associators)

    def left_symmetry_violations(self) -> tuple:
        """Basis triples (i, j, k), i < j, where ass(i,j,k) != ass(j,i,k)."""
        _, a = self.packed_associators
        n = self.dim
        return tuple((i, j, k) for i in range(n) for j in range(i + 1, n)
                     for k in range(n) if a[i][j][k] != a[j][i][k])

    def is_associative(self) -> bool:
        return not any(any(row) for plane in self.packed_associators[1] for row in plane)

    def is_zero(self) -> bool:
        return not any(cell for row in self.integral[1] for cell in row)

    def left_kernel(self) -> Subspace:
        """{u : u o x = 0 for all x}: sum_i u_i (e_i o e_j)_k = 0, one
        equation per nonzero (j, k) of :attr:`integral`."""
        return self._side_kernel(False)

    def right_kernel(self) -> Subspace:
        """{u : x o u = 0 for all x}, as :meth:`left_kernel` with the
        factors swapped."""
        return self._side_kernel(True)

    def _side_kernel(self, right: bool) -> Subspace:
        n = self.dim
        last, eqs = n - 1, {}
        for a, row in enumerate(self.integral[1]):
            for m, cell in enumerate(row):
                # u_i weights e_i o e_j, or e_j o e_i on the right
                i, j = (m, a) if right else (a, m)
                for k, x in cell:
                    eq = eqs.get((j, k))
                    if eq is None:
                        eq = eqs[j, k] = [0] * n
                    eq[last - i] = x
        return _kernel(list(eqs.values()), n)
