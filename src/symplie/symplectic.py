"""Symplectic Lie algebras and their canonical product.

A symplectic Lie algebra pairs a Lie algebra with a nondegenerate skew
form omega that is closed:

    omega([u,v], w) + omega([v,w], u) + omega([w,u], v) = 0.

Such a pair carries a distinguished torsion-free product, written
``u o v`` below, determined pointwise by

    3 omega(u o v, w) = omega([u,v], w) + omega([u,w], v)

whose left multiplications are omega-skew and satisfy
``u o v - v o u = [u, v]``.  The structure is called flat when the
curvature of this product vanishes, equivalently when the product is
left-symmetric.  A second product, the natural one, is defined by
``omega(nat_u v, w) = omega(v, [w,u])``; it always has zero curvature
but is symplectic only in the abelian case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import SymplieError
from .lie import LieAlgebra
# ProductTensor is defined in linalg and re-exported from here
from .linalg import (Matrix, PackedCells, ProductTensor, SingularMatrixError,
                     Subspace, Vec, accumulate, common_kernel, commutator, dense,
                     int_matmul, int_product, int_sum, inverse, kernel, pack,
                     slot_bits, sparse, subspace_intersect, unit_vector, unpack,
                     vdot, vector)
from .rationals import ZERO, rational


class InvalidSymplecticError(SymplieError):
    """The (algebra, form) pair violates the symplectic axioms."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class DegenerateFormError(SymplieError):
    """A nondegenerate skew form was required."""


class NotLieAdmissibleError(SymplieError):
    """curvature() needs a product with u o v - v o u = [u, v]."""


class FlatnessInvariantError(SymplieError):
    """Internal: the redundant flatness criteria disagreed."""


# ---------------------------------------------------------------------------
# skew forms

def bordered(rows, corners) -> list:
    """The square int rows as the middle block of the [e, base..., ebar]
    layout of a double extension.

    corners ((a, b), (c, d)) are the entries at (e, e), (e, ebar),
    (ebar, e) and (ebar, ebar); the rest of the border is zero.
    """
    (a, b), (c, d) = corners
    pad = [0] * len(rows)
    return [[a, *pad, b], *([0, *row, 0] for row in rows), [c, *pad, d]]


@dataclass(frozen=True)
class SkewForm:
    """A bilinear form by its Gram matrix W, W[i][j] = omega(e_i, e_j).

    Its state is :attr:`matrix`, whose canonical int numerators make two
    forms equal exactly when their Gram matrices are.  :attr:`integral`
    = (den, rows), with rows[k] the nonzero (w, num) of row k of those
    numerators, is derived on first read for the sparse contractions.
    """

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_square:
            raise ValueError("form matrix must be square")

    @classmethod
    def from_integral(cls, den: int, rows) -> "SkewForm":
        """The form with Gram matrix rows / den, square int rows; no scalar is built."""
        return cls(Matrix.from_integral(den, rows))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def integral(self) -> tuple:
        den, rows = self.matrix.integral
        return den, tuple(map(sparse, rows))

    @cached_property
    def int_rows(self) -> list:
        """The numerator rows of :attr:`matrix` as int lists."""
        return [list(r) for r in self.matrix.integral[1]]

    @cached_property
    def extension_form(self) -> "SkewForm":
        """The form of every double extension over this one: omega in the
        [e, base..., ebar] layout, with omega(e, ebar) = 1 and e, ebar
        orthogonal to the base.  It depends on this form alone, so all
        the extensions over one base share it."""
        wden, w = self.matrix.integral
        return SkewForm.from_integral(wden, bordered(w, ((0, wden), (-wden, 0))))

    def pair(self, u: Sequence, v: Sequence):
        return vdot(vector(u), self.matrix.apply(vector(v)))

    def covector(self, u: Sequence) -> Vec:
        """(omega(u, e_k))_k, one row combination of the Gram matrix."""
        return tuple(accumulate([ZERO] * self.dim, vector(u), self.matrix.entries))

    def is_skew(self) -> bool:
        w = self.matrix.integral[1]
        return all(w[i][j] == -w[j][i] for i in range(self.dim) for j in range(i, self.dim))

    def is_nondegenerate(self) -> bool:
        """Read off :attr:`inverse_matrix`, so W is eliminated once."""
        try:
            self.inverse_matrix
        except DegenerateFormError:
            return False
        return True

    @cached_property
    def inverse_matrix(self) -> Matrix:
        """W^-1, from one elimination of the numerators of W."""
        try:
            return inverse(self.matrix)
        except SingularMatrixError as exc:
            raise DegenerateFormError("form is degenerate") from exc

    @property
    def int_inverse(self) -> tuple:
        """(den, rows): W^-1 as int rows over den."""
        return self.inverse_matrix.integral

    @cached_property
    def dual_matrix(self) -> Matrix:
        """Inverse of the transposed Gram matrix; see dual_of_covector."""
        return -self.inverse_matrix

    def dual_of_covector(self, phi: Sequence) -> Vec:
        """The unique x with omega(x, e_k) = phi_k for every k."""
        return self.dual_matrix.apply(vector(phi))

    def int_adjoint(self, rows) -> tuple:
        """(den, rows*): f* = W^-1 f^T W as int rows over den, for the
        endomorphism f given by int rows, from the numerators of W and
        W^-1."""
        iden, inv = self.int_inverse
        wden, w = self.matrix.integral
        return iden * wden, int_matmul(inv, int_matmul(list(zip(*rows)), w))

    def adjoint_map(self, f: Matrix) -> Matrix:
        """f* with omega(f(x), y) = omega(x, f*(y));  f* = W^-1 f^T W."""
        if f.shape != (self.dim, self.dim):
            raise ValueError("endomorphism shape mismatch")
        return self.inverse_matrix @ f.transpose() @ self.matrix


class SubspaceClass(enum.Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"
    TOTALLY_ISOTROPIC = "totally_isotropic"
    LAGRANGIAN = "lagrangian"


# ---------------------------------------------------------------------------
# validation

def _omega_brackets(algebra: LieAlgebra, form: SkewForm) -> tuple:
    """(den, c): c[i][j][w] = den * omega([e_i, e_j], e_w) as ints, from
    the bracket's integral rows and the Gram matrix's numerators."""
    n = algebra.dim
    bden, rows = algebra.bracket_tensor.integral
    wden, gram = form.integral
    c = [[int_sum(((b, gram[k]) for k, b in cell), n) for cell in row] for row in rows]
    return bden * wden, c


def symplectic_violations(algebra: LieAlgebra, form: SkewForm) -> list:
    """Human-readable list of axiom violations (empty means valid)."""
    return _violations(SymplecticLieAlgebra(algebra, form))


def _violations(s: "SymplecticLieAlgebra") -> list:
    """symplectic_violations of the pair s, which need not be valid; the
    closedness check reads :attr:`SymplecticLieAlgebra.omega_brackets`."""
    algebra, form = s.algebra, s.form
    out = []
    n = algebra.dim
    if form.dim != n:
        return [f"form dimension {form.dim} does not match algebra dimension {n}"]
    if n % 2 != 0:
        out.append(f"dimension {n} is odd")
    for violation in algebra.validate():
        out.append(f"Jacobi identity fails at basis triple {violation.triple}")
    if not form.is_skew():
        out.append("form matrix is not skew-symmetric")
    elif not form.is_nondegenerate():
        out.append("form is degenerate")
    # c[i][j][k] is a fixed positive multiple of omega([e_i, e_j], e_k)
    _, c = s.omega_brackets
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if c[i][j][k] + c[j][k][i] + c[k][i][j]:
                    out.append(f"form is not closed at basis triple ({i}, {j}, {k})")
    return out


def validate_symplectic(algebra: LieAlgebra, form: SkewForm) -> "SymplecticLieAlgebra":
    """The pair as a SymplecticLieAlgebra, which keeps the omega brackets
    the closedness check built; raises InvalidSymplecticError if invalid."""
    s = SymplecticLieAlgebra(algebra, form)
    violations = _violations(s)
    if violations:
        raise InvalidSymplecticError(violations)
    return s


# ---------------------------------------------------------------------------
# the main wrapper

class FlatnessChecks(NamedTuple):
    """The flatness criteria as ``verify`` prints them.

    They are one statement reached by two code paths.  Right-form
    vanishing and left symmetry both say A(x, y, z) = A(y, x, z) on every
    basis triple for the associator tensor A, so those two fields always
    agree; the curvature loop is the other path, and
    :attr:`SymplecticLieAlgebra.flatness` checks that it agrees with them.
    """

    curvature_vanishes: bool
    right_form_vanishes: bool
    left_symmetric: bool
    witness: Optional[tuple]  # the first pair (i, j) with nonzero curvature

    @property
    def is_flat(self) -> bool:
        return self.curvature_vanishes


@dataclass(frozen=True)
class SymplecticLieAlgebra:
    algebra: LieAlgebra
    form: SkewForm

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def basis_names(self) -> tuple:
        return self.algebra.basis_names

    # -- products ---------------------------------------------------------

    @cached_property
    def omega_brackets(self) -> tuple:
        """(den, c): c[i][j][w] = den * omega([e_i, e_j], e_w) as ints, built
        once per pair for the closedness check, the canonical product and
        the structural report."""
        return _omega_brackets(self.algebra, self.form)

    @cached_property
    def canonical_product(self) -> ProductTensor:
        """The torsion-free symplectic product described in the module
        docstring.  Column w of W^-1's numerators is packed over k
        (:func:`linalg.pack`), so a cell -sum_w phi_w inv[k][w] is n
        big-int multiply-adds, unpacked once; each slot is at most
        2n max|inv| max|c|.  The denominator and every numerator are
        divided by their one gcd as each cell is made sparse, so the
        tensor is built canonical in that one pass."""
        n = self.dim
        # the dual matrix -W^-1 is -inv / iden
        iden, inv = self.form.int_inverse
        # c[i][j][w] = cden * omega([e_i, e_j], e_w)
        cden, c = self.omega_brackets
        bound = 2 * n * max((abs(x) for r in inv for x in r), default=0) * max(
            (abs(x) for row in c for cell in row for x in cell), default=0)
        bits = slot_bits(bound)
        cols = [pack(enumerate(col), bits) for col in zip(*inv)]
        # e_i o e_j = dual . phi with phi_w = (c[i][j][w] + c[i][w][j]) / (3 cden)
        rows = []
        for ci in c:
            cells = []
            for j, cij in enumerate(ci):
                acc = 0
                for w, col in enumerate(cols):
                    acc -= (cij[w] + ci[w][j]) * col
                cells.append(unpack(acc, n, bits) if acc else ())
            rows.append(cells)
        g = gcd(3 * cden * iden, *(x for row in rows for cell in row for x in cell))
        return ProductTensor._of(n, 3 * cden * iden // g, tuple(tuple(
            tuple([(k, x // g) for k, x in enumerate(cell) if x]) for cell in row)
            for row in rows))

    @cached_property
    def natural_product(self) -> ProductTensor:
        """The always-flat product with omega(nat_u v, w) = omega(v, [w,u]).

        omega(v, [w,u]) = -omega(v, ad_u w) = -omega(ad_u* v, w), so
        nat_u = -ad_u*, and column j of nat_{e_i} is nat_{e_i} e_j.
        """
        n = self.dim
        return ProductTensor(n, tuple(
            tuple(self.adjoint(-self.algebra.ad(unit_vector(n, i))).columns())
            for i in range(n)))

    # -- flatness -----------------------------------------------------------

    @cached_property
    def curvature_witness(self) -> Optional[tuple]:
        """The first basis pair (i, j), i < j, where the canonical product
        has nonzero curvature, or None when it is flat."""
        p = self.canonical_product
        bracket = self.algebra.bracket_tensor
        bad = lie_admissibility_failure(p, bracket)
        if bad is not None:
            raise FlatnessInvariantError(
                f"canonical product is not Lie-admissible at {bad}")
        return _first_curvature_violation(p, bracket)

    @property
    def is_flat(self) -> bool:
        return self.curvature_witness is None

    @cached_property
    def flatness(self) -> FlatnessChecks:
        """The curvature loop cross-checked against the associator
        tensor; :attr:`is_flat` needs only the curvature loop.

        The right-form and left-symmetry criteria read the cached
        associator tensor A of the canonical product.  Applied to e_m,
        (R_{e_i o e_j} - R_j R_i - [L_i, R_j]) e_m = A(i, m, j) - A(m, i, j),
        so the right form vanishes iff A(i, m, j) = A(m, i, j) for all
        i, j, m, which is left symmetry; it is evaluated once for both.

        Both paths are packed kernels (:class:`linalg.PackedCells`): a
        residual is one int per basis index, tested against 0 or compared
        as it is.  They stay two computations, each packing the product at
        its own bound, so that the cross-check is not a tautology.
        """
        witness = self.curvature_witness
        curvature_ok = witness is None
        left_sym = not self.canonical_product.left_symmetry_violations()
        if curvature_ok != left_sym:
            raise FlatnessInvariantError(f"flatness criteria disagree: "
                                         f"curvature={curvature_ok}, left-symmetry={left_sym}")
        return FlatnessChecks(curvature_ok, left_sym, left_sym, witness)

    # -- delegated structure -------------------------------------------------

    @cached_property
    def center(self) -> Subspace:
        return self.algebra.center()

    @cached_property
    def derived(self) -> Subspace:
        return self.algebra.derived_subspace()

    def adjoint(self, f: Matrix) -> Matrix:
        return self.form.adjoint_map(f)

    def perp(self, f: Subspace) -> Subspace:
        return perp(self, f)


def lie_admissibility_failure(product: ProductTensor,
                              bracket: ProductTensor) -> Optional[tuple]:
    """The first basis pair (i, j), i < j, where e_i o e_j - e_j o e_i
    differs from [e_i, e_j], or None; compared as packed cells of both
    integrals, times pden bden, whose components are at most
    2 bden mp + pden mb for the largest |numerators| mp and mb."""
    n = product.dim
    pden, bden = product.integral[0], bracket.integral[0]
    bound = 2 * bden * product.max_numerator + pden * bracket.max_numerator
    p, b = PackedCells(product, bound).cells, PackedCells(bracket, bound).cells
    for i in range(n):
        for j in range(i + 1, n):
            if bden * (p[i][j] - p[j][i]) != pden * b[i][j]:
                return (i, j)
    return None


def first_curvature_violation(product: ProductTensor, table) -> Optional[tuple]:
    """The first basis pair (i, j), i < j, in row-major order with
    L_[ei,ej] e_m != (L_ei L_ej - L_ej L_ei) e_m for some m, or None.

    Works on the nonzero entries of the product and bracket tables only,
    as ints, and stops at the first nonzero residual vector.
    """
    return _first_curvature_violation(product, ProductTensor(product.dim, table))


def _first_curvature_violation(product: ProductTensor,
                               bracket: ProductTensor) -> Optional[tuple]:
    """first_curvature_violation with the bracket as a tensor.

    The residual of a pair (i, j) at every (m, k) is one int, packed at
    slot m n + k as the :mod:`linalg` docstring shows:
    den sum_a c rowp[a] + bden sum_k (p[j][k] col[i][k] - p[i][k] col[j][k]),
    where rowp[a] packs e_a o e_m over (m, k), p[a][k] packs e_a o e_k
    over its components and col[i][k] packs (e_i o e_m)_k over m at stride
    n bits.  Its components are at most n den mb mp + 2n bden mp^2 for the
    largest |numerators| mp and mb of the product and the bracket.
    """
    den, nz = product.integral
    bden, br = bracket.integral
    n, mp, mb = product.dim, product.max_numerator, bracket.max_numerator
    packing = PackedCells(product, n * den * mb * mp + 2 * n * bden * mp * mp)
    p, stride = packing.cells, n * packing.bits
    rowp = [den * pack(enumerate(row), stride) for row in p]
    col = [[0] * n for _ in range(n)]
    for i, row in enumerate(nz):
        for m, cell in enumerate(row):
            for k, x in cell:
                col[i][k] += bden * x << (m * stride)
    for i in range(n):
        pi, ci = p[i], col[i]
        for j in range(i + 1, n):
            r = sum(map(mul, p[j], ci)) - sum(map(mul, pi, col[j]))
            for a, c in br[i][j]:
                r += c * rowp[a]
            if r:
                return (i, j)
    return None


def curvature_residuals(product: ProductTensor, algebra: LieAlgebra) -> dict:
    """{(i, j): L_[ei,ej] - [L_ei, L_ej]} for i < j; all zero means flat.

    The product must satisfy u o v - v o u = [u, v]; otherwise the
    curvature of the induced connection is not defined and
    :class:`NotLieAdmissibleError` is raised.
    """
    n = algebra.dim
    if product.dim != n:
        raise ValueError("product dimension mismatch")
    bad = lie_admissibility_failure(product, algebra.bracket_tensor)
    if bad is not None:
        raise NotLieAdmissibleError(
            f"product commutator differs from bracket at {bad}")
    lefts = [product.left(unit_vector(n, i)) for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            out[(i, j)] = (product.left(algebra.table[i][j])
                           - commutator(lefts[i], lefts[j]))
    return out


# ---------------------------------------------------------------------------
# subspace geometry

def perp(s: SymplecticLieAlgebra | SkewForm, f: Subspace) -> Subspace:
    form = s.form if isinstance(s, SymplecticLieAlgebra) else s
    n = form.dim
    if f.ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    if f.dim == 0:
        return Subspace.full(n)
    # W c for each basis column c of f, over the Gram and column numerators
    _, gram = form.integral
    rows = []
    for col in f.integral:
        c = dense(col, n)
        rows.append([sum(x * c[w] for w, x in gram_k) for gram_k in gram])
    return kernel(Matrix.from_integral(1, rows))


def classify_subspace(s: SymplecticLieAlgebra | SkewForm, f: Subspace) -> SubspaceClass:
    """Most specific of: lagrangian, totally isotropic, degenerate, nondegenerate."""
    return _classify(f, perp(s, f))


def darboux_basis(form: SkewForm) -> Matrix:
    """Columns b_1..b_2m with omega(b_{2k-1}, b_{2k}) = 1, all other pairings 0.

    Greedy symplectic Gram-Schmidt pivoting on the lowest-index basis
    vector still unprocessed, so the result is deterministic.
    """
    if not form.is_skew():
        raise ValueError("form must be skew-symmetric")
    n = form.dim
    remaining = [unit_vector(n, i) for i in range(n)]
    out = []
    while remaining:
        u = remaining.pop(0)
        partner = None
        for idx, w in enumerate(remaining):
            if form.pair(u, w):
                partner = idx
                break
        if partner is None:
            raise DegenerateFormError("form is degenerate")
        w = remaining.pop(partner)
        c = form.pair(u, w)
        w = tuple(x / c for x in w)
        corrected = []
        for x in remaining:
            a = form.pair(u, x)
            b = form.pair(w, x)
            y = list(x)
            for k in range(n):
                y[k] = y[k] - a * w[k] + b * u[k]
            corrected.append(tuple(y))
        remaining = corrected
        out.extend([u, w])
    return Matrix.from_cols(out) if out else Matrix.zeros(0, 0)


# ---------------------------------------------------------------------------
# integer contractions
#
# The kernels and the structural claims run over Python ints: the product
# and bracket tables as the rows of their cached integral, omega as the
# integral rows of its Gram matrix, and a subspace basis column by column
# as the int numerators of Subspace.integral.  Each is a positive multiple
# of what it stands for, which no zero test, kernel or span can tell apart.

def _int_covectors(s: SymplecticLieAlgebra, cols) -> list:
    """omega(c, e_w) for every w, as ints, for each c in cols."""
    _, gram = s.form.integral
    return [int_sum(((a, gram[k]) for k, a in c), s.dim) for c in cols]


def _annihilated(covectors, x) -> bool:
    """omega(c, x) = 0 for every covector omega(c, .) listed."""
    return not any(sum(a * b for a, b in zip(cov, x) if b) for cov in covectors)


# ---------------------------------------------------------------------------
# derived invariants of the canonical product

def h_vector(s: SymplecticLieAlgebra) -> Vec:
    """The unique H with omega(H, u) = tr(ad_u); zero iff unimodular."""
    den, h = _int_h(s)
    return tuple(rational(x, den) for x in h)


def _int_h(s: SymplecticLieAlgebra) -> tuple:
    """(den, h): H = h / den as ints.  omega(H, .) = -W H, so H = -W^-1 t
    for the traces t, from W^-1's numerators and the trace numerators."""
    iden, inv = s.form.int_inverse
    tden, t = s.algebra.int_trace_character()
    return iden * tden, [-sum(x * y for x, y in zip(row, t) if x) for row in inv]


class MultiplicationKernels(NamedTuple):
    left_kernel: Subspace      # {u : L_u = 0}
    right_kernel: Subspace     # {u : R_u = 0}
    product_span: Subspace     # span of all u o v


def multiplication_kernels(s: SymplecticLieAlgebra) -> MultiplicationKernels:
    n = s.dim
    p = s.canonical_product
    return MultiplicationKernels(p.left_kernel(), p.right_kernel(), Subspace.from_integral(
        n, [dense(cell, n) for row in p.integral[1] for cell in row if cell]))


# ---------------------------------------------------------------------------
# structural report

class Claim(NamedTuple):
    name: str
    applicable: bool
    holds: Optional[bool]
    detail: str = ""

    def line(self) -> str:
        if not self.applicable:
            status = "n/a"
        else:
            status = "pass" if self.holds else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


@dataclass(frozen=True)
class StructuralReport:
    claims: tuple
    is_flat: bool
    nilpotency_class: Optional[int]
    center_kind: SubspaceClass
    derived_kind: SubspaceClass
    unimodular: bool
    h: Vec

    def ok(self) -> bool:
        return all(c.holds for c in self.claims if c.applicable)

    def get(self, name: str) -> Claim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list:
        return [c.line() for c in self.claims]


def _ideal_perp_rules(s: SymplecticLieAlgebra, ideal: Subspace,
                      iperp: Optional[Subspace] = None) -> tuple:
    """(holds, detail) for: Iperp o I <= I, I o Iperp <= I,
    Iperp o Iperp <= Iperp, and Iperp a Lie subalgebra; iperp is the perp
    of ideal when the caller already has it.

    omega is nondegenerate, so I = (Iperp)perp: a vector lies in I iff
    omega pairs it to zero with every basis column of Iperp, and in Iperp
    iff it does so with every basis column of I.  Any subspace I will do.
    """
    n = s.dim
    _, prows = s.canonical_product.integral
    _, brows = s.algebra.bracket_tensor.integral
    icols = ideal.integral
    pcols = (perp(s, ideal) if iperp is None else iperp).integral
    into_i = _int_covectors(s, pcols)
    into_perp = _int_covectors(s, icols)
    for u in pcols:
        for v in icols:
            if not _annihilated(into_i, int_product(prows, u, v, n)):
                return False, "Iperp o I escapes I"
            if not _annihilated(into_i, int_product(prows, v, u, n)):
                return False, "I o Iperp escapes I"
    for u in pcols:
        for v in pcols:
            if not _annihilated(into_perp, int_product(prows, u, v, n)):
                return False, "Iperp o Iperp escapes Iperp"
            if not _annihilated(into_perp, int_product(brows, u, v, n)):
                return False, "Iperp is not a Lie subalgebra"
    return True, ""


def _classify(f: Subspace, fperp: Subspace,
              meet: Optional[Subspace] = None) -> SubspaceClass:
    """The kind of f from its perp fperp; meet = f meet fperp, computed
    only when f is not totally isotropic and not given."""
    if f == fperp:
        return SubspaceClass.LAGRANGIAN
    if f.is_subspace_of(fperp):
        return SubspaceClass.TOTALLY_ISOTROPIC
    if meet is None:
        meet = subspace_intersect(f, fperp)
    if meet.dim > 0:
        return SubspaceClass.DEGENERATE
    return SubspaceClass.NONDEGENERATE


def structural_report(s: SymplecticLieAlgebra) -> StructuralReport:
    """Check every structural theorem that applies to this algebra.

    Unconditional claims hold for every symplectic Lie algebra; the
    flat-only ones are reported as not applicable on non-flat input.
    The two degeneracy claims additionally require a nonzero derived
    ideal: for abelian algebras both the center and the derived ideal
    are trivially nondegenerate, so the claims are vacuous there.

    Each claim is an int contraction of the integral product, bracket
    and Gram rows; only the subspaces themselves come from elimination.
    """
    alg = s.algebra
    n = s.dim
    p = s.canonical_product
    pden, prows = p.integral
    bden, brows = alg.bracket_tensor.integral
    flat = s.is_flat
    center = s.center
    derived = s.derived
    dperp = perp(s, derived)
    zperp = perp(s, center)
    kernels = multiplication_kernels(s)
    nl = kernels.left_kernel
    hden, h = _int_h(s)
    unimodular = alg.is_unimodular()
    lcs = alg.lower_central_series()
    abelian = derived.dim == 0
    units = [((i, 1),) for i in range(n)]
    dcols = dperp.integral
    # pden tr R_{e_i} = sum_m (e_m o e_i)_m and bden tr ad_{e_i} = sum_m [e_i, e_m]_m
    right_traces = [sum(c for m in range(n) for k, c in prows[m][i] if k == m)
                    for i in range(n)]
    _, ad_traces = alg.int_trace_character()

    claims = []

    def claim(name, applicable, holds, detail=""):
        claims.append(Claim(name, applicable, holds if applicable else None, detail))

    # --- unconditional -----------------------------------------------------
    # ad_u* = -ad_u iff omega([u, e_a], e_b) = omega([u, e_b], e_a) for all
    # a < b, one int equation per pair with c[i][a][b] ~ omega([e_i, e_a], e_b)
    _, c = s.omega_brackets
    skew_ad = common_kernel([[[c[i][a][b] - c[i][b][a] for b in range(a + 1, n)]
                              for a in range(n)] for i in range(n)], n)
    claim("derived_perp_characterization", True, dperp == skew_ad,
          "[g,g]-perp = {u : ad_u* = -ad_u}")
    claim("center_is_products_perp", True, center == perp(s, kernels.product_span))
    claim("center_is_left_meet_right_kernel", True,
          center == subspace_intersect(nl, kernels.right_kernel))
    claim("center_is_left_kernel_meet_derived_perp", True,
          center == subspace_intersect(nl, dperp))
    holds, detail = _ideal_perp_rules(s, derived, dperp)
    claim("derived_ideal_perp_rules", True, holds, detail)
    holds, detail = _ideal_perp_rules(s, center, zperp)
    claim("center_ideal_perp_rules", True, holds, detail)
    claim("right_trace_identity", True,
          all(right_traces[i] * bden == -ad_traces[i] * pden for i in range(n)),
          "tr R_u = -tr ad_u")
    # The claims on [g,g]-perp below test packed residuals (PackedCells).
    # With l1 the largest L1 norm of its columns, their components are at
    # most l1 (3 bden mp + 2 pden mb) for the operator identities, l1^2 mp
    # for the products and n l1^2 mb^2 for ad_u ad_v.
    mp, mb = p.max_numerator, alg.bracket_tensor.max_numerator
    l1 = max((sum(abs(x) for _, x in u) for u in dcols), default=0)
    bound = l1 * (3 * bden * mp + 2 * pden * mb + l1 * (mp + n * mb * mb))
    pp, pb = PackedCells(p, bound), PackedCells(alg.bracket_tensor, bound)

    def packed(cells, u, right=False):
        """u o e_m (e_m o u if right) packed, for every m."""
        return [sum(x * (cells[m][i] if right else cells[i][m]) for i, x in u)
                for m in range(n)]
    lefts = [packed(pp.cells, u) for u in dcols]
    ads = [packed(pb.cells, u) for u in dcols]
    # L_u = (2/3) ad_u and R_u = -(1/3) ad_u, column by column, times 3 pden bden
    ok = all(3 * bden * x == 2 * pden * y and 3 * bden * z == -pden * y
             for u, lu, au in zip(dcols, lefts, ads)
             for x, y, z in zip(lu, au, packed(pp.cells, u, True)))
    claim("derived_perp_operator_identities", True, ok,
          "L_u = (2/3) ad_u and R_u = -(1/3) ad_u on [g,g]-perp")

    lagr_applicable = zperp.is_subspace_of(center)
    lagr_holds = None
    if lagr_applicable:
        lagr_holds = (flat and p.is_associative()
                      and lcs.nilpotency_class is not None
                      and lcs.nilpotency_class <= 2)
    claim("lagrangian_center_criterion", lagr_applicable, lagr_holds,
          "Z-perp inside Z forces flat + associative + class <= 2")

    # --- flat only ----------------------------------------------------------
    # the conditions below are evaluated only when they apply
    claim("flat_nilpotent", flat, lcs.nilpotency_class is not None,
          f"class {lcs.nilpotency_class}" if lcs.nilpotency_class is not None else "")
    claim("flat_center_nonzero", flat and n > 0, center.dim > 0,
          f"dim Z = {center.dim}")
    zmeet = subspace_intersect(center, zperp)
    claim("flat_center_degenerate", flat and not abelian, zmeet.dim > 0,
          f"dim(Z meet Z-perp) = {zmeet.dim}")
    dmeet = subspace_intersect(derived, dperp)
    claim("flat_derived_degenerate", flat and not abelian, dmeet.dim > 0,
          f"dim([g,g] meet [g,g]-perp) = {dmeet.dim}")
    claim("flat_h_vanishes", flat, not any(h))
    claim("flat_h_in_derived_meet_perp", flat,
          flat and derived.contains(h) and dperp.contains(h))
    ok = flat and not any(sum(x * lu[j] for j, x in v) for lu in lefts for v in dcols)
    claim("flat_derived_perp_products_vanish", flat, ok)

    def ad_cols(v):
        """[v, e_k]_j packed over k at stride n bits, for every j."""
        out = [0] * n
        for i, x in v:
            for k, cell in enumerate(brows[i]):
                for j, y in cell:
                    out[j] += x * y << (k * n * pb.bits)
        return out
    # [u, [v, e_k]]_l = sum_j [v, e_k]_j [u, e_j]_l, packed at slot k n + l
    ok = flat and not any(sum(map(mul, cols, au)) for cols in map(ad_cols, dcols)
                          for au in ads)
    claim("flat_derived_perp_ad_compose_zero", flat, ok)
    ncols = nl.integral
    ok = flat and all(nl.contains(int_product(prows, e, v, n))
                      and nl.contains(int_product(prows, v, e, n))
                      for e in units for v in ncols)
    claim("flat_left_kernel_two_sided_ideal", flat, ok)
    ok = flat and all(nl.contains(int_product(brows, e, u, n))
                      for e in units for u in dcols)
    claim("flat_bracket_derived_perp_in_left_kernel", flat, ok)
    complete = not any(right_traces)
    claim("flat_complete_iff_unimodular", flat, complete == unimodular,
          f"complete={complete}, unimodular={unimodular}")
    claim("flat_unimodular_solvable", flat and unimodular,
          flat and unimodular and alg.is_solvable())

    return StructuralReport(
        claims=tuple(claims),
        is_flat=flat,
        nilpotency_class=lcs.nilpotency_class,
        center_kind=_classify(center, zperp, zmeet),
        derived_kind=_classify(derived, dperp, dmeet),
        unimodular=unimodular,
        h=tuple(rational(x, hden) for x in h),
    )


# ---------------------------------------------------------------------------
# transport

def change_of_basis(s: SymplecticLieAlgebra, t: Matrix,
                    names: Sequence[str] | None = None) -> SymplecticLieAlgebra:
    """The same structure written in the basis given by the columns of t:
    the bracket by :meth:`LieAlgebra.change_of_basis` and the Gram
    matrix T^T W T as one int product over the numerators.

    The result is valid whenever s is and t is invertible, so it is not
    validated again; a singular t raises SingularMatrixError.
    """
    if t.shape != (s.dim, s.dim):
        raise ValueError("change of basis matrix has wrong shape")
    (tden, trows), (wden, w) = t.integral, s.form.matrix.integral
    tw = int_matmul(list(zip(*trows)), w)
    form = SkewForm.from_integral(wden * tden * tden, int_matmul(tw, trows))
    return SymplecticLieAlgebra(s.algebra.change_of_basis(t, names), form)
