"""Double extensions of flat symplectic Lie algebras.

Every flat symplectic Lie algebra of positive dimension arises from a
flat one of dimension two less by adjoining an isotropic pair (e, ebar):
e is central and omega-dual to ebar, both are orthogonal to the old
algebra, and the new structure is determined by an endomorphism xi of
the base together with a base vector b0.  The pair (xi, b0) must satisfy
five compatibility identities, checked by :func:`check_admissible`.
The extension is born over integer numerators, and what depends on the
base alone is computed once per base and shared by every pair over it:
the inverse of its form, the nonzero cells of its product and bracket,
the extension's form (:attr:`SkewForm.extension_form`) and its basis
names.  Per pair, :func:`_pair_rows` reads xi and b0 off the pair's
int rows and adds xi*, all over one denominator, once per
:func:`double_extend`; the admissibility check and the assembly of the
bracket by :meth:`LieAlgebra.from_integral` share those rows.

Conversely :func:`inverse_double_extend` splits any flat algebra along a
central isotropic line and recovers a pair that rebuilds it exactly.  In
the adapted basis (e, b_1, ..., b_n, ebar), with omega(e, ebar) = 1 and
both orthogonal to the b_q, the e-coefficient of a vector v is
omega(v, ebar).  The identity 3 omega(x o y, z) = omega([x,y], z) +
omega([x,z], y) of the canonical product then gives the pair from the
omega-brackets of the adapted algebra alone:

    3 omega_B(xi(b_p), b_q) = omega([b_p, b_q], ebar) + omega([b_p, ebar], b_q)
      omega_B(b0, b_q)      = omega([ebar, b_q], ebar)

and xi(b_p) and b0 are the omega_B-duals of these covectors, through the
inverse of the base form that the base's flatness check computes anyway.
The split runs over ints from the center basis to the tower
conjugations, as in :mod:`linalg`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from math import lcm
from operator import matmul
from typing import NamedTuple, Optional, Sequence

from .errors import SymplieError
from .lie import LieAlgebra
from .linalg import (Matrix, Subspace, Vec, accumulate, dense, int_inverse,
                     int_matmul, int_sum, kernel, solve, sparse,
                     subspace_intersect, subspace_sum, unit_vector, vector)
from .rationals import THIRD, ZERO, Q, integral, rational
from .symplectic import (SkewForm, SubspaceClass, SymplecticLieAlgebra, bordered,
                         change_of_basis, classify_subspace, perp)


class NotFlatError(SymplieError):
    """The operation is only defined for flat symplectic Lie algebras."""


class NotAdmissibleError(SymplieError):
    def __init__(self, report: "AdmissibilityReport", stage: Optional[int] = None):
        self.report = report
        self.stage = stage
        where = f"stage {stage}: " if stage is not None else ""
        super().__init__(
            f"{where}pair is not admissible; failed: "
            + ", ".join(report.failed_names()))


class TrivialCenterError(SymplieError):
    """No central direction to split off."""


class NotAnIdealError(SymplieError):
    """symplectic_reduce needs a Lie ideal."""


class ExtensionInvariantError(SymplieError):
    """Internal: a guaranteed property of the construction failed."""


@dataclass(frozen=True, init=False)
class AdmissiblePair:
    """The data (xi, b0) attached to a double extension of a flat base.

    Its state is :attr:`integral` = (den, rows): rows[k] is row k of
    [xi | b0] as ints over den, canonical as in :class:`Matrix`, so two
    pairs are equal exactly when their xi and b0 are.  :attr:`xi` and
    :attr:`b0` are derived on first read.
    """

    integral: tuple

    def __init__(self, xi: Matrix, b0: Sequence):
        """The pair of a square xi and a b0 of matching length."""
        if not xi.is_square:
            raise ValueError("xi must be square")
        b0 = vector(b0)
        if len(b0) != xi.rows:
            raise ValueError(f"b0 must have length {xi.rows}")
        object.__setattr__(self, "integral", xi.hstack(Matrix.from_cols([b0])).integral)

    @classmethod
    def from_integral(cls, den: int, rows) -> "AdmissiblePair":
        """The pair with [xi | b0] = rows / den, n rows of n + 1 ints; no scalar is built."""
        out = cls.__new__(cls)
        object.__setattr__(out, "integral", Matrix.from_integral(den, rows).integral)
        return out

    @property
    def base_dim(self) -> int:
        return len(self.integral[1])

    @cached_property
    def xi(self) -> Matrix:
        den, rows = self.integral
        return Matrix.from_integral(den, [row[:-1] for row in rows])

    @cached_property
    def b0(self) -> Vec:
        den, rows = self.integral
        return tuple(rational(row[-1], den) if row[-1] else ZERO for row in rows)


class EquationCheck(NamedTuple):
    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    checks: tuple

    @property
    def admissible(self) -> bool:
        return all(c.holds for c in self.checks)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.holds]

    def lines(self) -> list:
        return [f"{c.name}: {'pass' if c.holds else 'FAIL'}"
                + (f"  ({c.detail})" if c.detail else "")
                for c in self.checks]


def _require_flat(base: SymplecticLieAlgebra) -> None:
    if not base.is_flat:
        raise NotFlatError("extension pairs are only defined over a flat base")


def _pair_rows(base: SymplecticLieAlgebra, pair: AdmissiblePair) -> tuple:
    """(den, rows): row k of [X | S | B] as ints over one den, with
    xi = X / den, its omega-adjoint xi* = S / den and b0 = B / den.

    They are read straight off pair.integral = (pden, [X' | B']): S comes
    from :meth:`SkewForm.int_adjoint` on X', over sden, so den = sden pden,
    X = sden X' and B = sden B'."""
    n = base.dim
    if pair.base_dim != n:
        raise ValueError(f"xi must be {n}x{n}")
    pden, ps = pair.integral
    sden, ss = base.form.int_adjoint([p[:n] for p in ps])
    return sden * pden, [[sden * a for a in p[:n]] + s + [sden * p[n]]
                         for p, s in zip(ps, ss)]


def _as_pair(base: SymplecticLieAlgebra, xi: Matrix, b0: Sequence) -> AdmissiblePair:
    """(xi, b0) as a pair over base, whose dimension they must match."""
    if xi.shape != (base.dim, base.dim):
        raise ValueError(f"xi must be {base.dim}x{base.dim}")
    return AdmissiblePair(xi, b0)


def check_admissible(base: SymplecticLieAlgebra, xi: Matrix,
                     b0: Sequence) -> AdmissibilityReport:
    """Evaluate the five identities an extension pair must satisfy.

    With * the omega-adjoint, L/R the canonical multiplications of the
    base and ad the bracket action, the identities are

      1. [xi, xi*] = xi^2 - (1/3) R_b0
      2. (xi* - xi)(b0) = 0
      3. xi* xi = (1/3)(R_b0 + R_b0*)
      4. xi ad_a = L_a xi - R_{xi(a)}            for every a
      5. xi* L_a - L_{xi*(a)} - L_a xi*
           = xi L_a - L_a xi - 2 L_{xi(a)}       for every a

    Each is an int identity, multiplied through by its denominators:
    xi, xi* and b0 are X, S and B over one den, the products and brackets
    the rows of their integral.  Every identity is evaluated whole, at the
    cost of its nonzero terms, and 4 and 5 name the smallest basis index
    where they fail (see :func:`_admissibility`).
    """
    _require_flat(base)
    return _admissibility(base, *_pair_rows(base, _as_pair(base, xi, b0)))


def _admissibility(base: SymplecticLieAlgebra, den: int, rows) -> AdmissibilityReport:
    """check_admissible over the rows [X | S | B] / den of :func:`_pair_rows`.

    Each identity costs what its nonzero terms cost.  R_b0 and the
    residuals of identities 4 and 5 are read off the nonzero cells of the
    product and the bracket (:attr:`ProductTensor.nonzero_cells`): the
    residual at (i, j) gathers its terms, each a cell against one entry
    of a sparse row of X, S - X or 2X - S, or a cell entry against a
    sparse column of X or S - X, and :func:`linalg.int_sum` adds them
    once.  When R_b0 is zero (a zero product, or b0 = 0) so is R_b0*:
    identities 1 and 3 become X S - X X = S X and S X = 0, and each is
    one comparison of whole int rows, with no R_b0* computed.  On a zero
    product identities 4 and 5 have no terms at all, as the bracket
    [x, y] = x o y - y o x is zero too.  All five are evaluated on every
    call.

    Lemma: identity 4's residual at (i, j) is antisymmetric in (i, j), as
    its bracket term is and e_i o xi(e_j) - e_j o xi(e_i) changes sign
    with the swap.  So it is zero at i = j, and a nonzero one at (i, j),
    i > j, is nonzero at (j, i) too: it suffices to sum it at i < j, and
    the smallest i over all its nonzero residuals is the smallest i with a
    nonzero residual at some j > i.  Both identities report their
    smallest failing i as "fails at basis index i".
    """
    n = base.dim
    product, bracket = base.canonical_product, base.algebra.bracket_tensor
    pden, bden = product.integral[0], bracket.integral[0]
    xs, ss = [row[:n] for row in rows], [row[n:2 * n] for row in rows]
    skew = [[b - a for a, b in zip(x, s)] for x, s in zip(xs, ss)]  # S - X
    b0 = [row[2 * n] for row in rows]
    # R_b0 = r / (den pden), column j being e_j o b0, and, for 4 and 5
    # applied to e_j with a = e_i, the terms of their residuals at (i, j):
    #   4. xi([e_i, e_j]) - e_i o xi(e_j) + e_j o xi(e_i), times den bden pden
    #   5. s(e_i o e_j) - d(e_i) o e_j - e_i o s(e_j), times den pden,
    # with s = xi* - xi and d = xi* - 2 xi, which is 5 moved to one side.
    r = [[0] * n for _ in range(n)]
    terms4, terms5 = defaultdict(list), defaultdict(list)
    if product.nonzero_cells:  # else the bracket is zero too
        x_cols, s_cols = ([sparse(c) for c in zip(*m)] for m in (xs, skew))
        x_rows, s_rows = ([sparse(row) for row in m] for m in (xs, skew))
        neg_d_rows = [sparse([a - b for a, b in zip(x, s)]) for x, s in zip(xs, skew)]
    for i, j, cell in bracket.nonzero_cells:
        for k, c in cell:  # xi([e_i, e_j])
            terms4[i, j].append((pden * c, x_cols[k]))
    for a, m, cell in product.nonzero_cells:
        for k, c in cell:
            r[k][a] += b0[m] * c
            terms5[a, m].append((c, s_cols[k]))  # s(e_a o e_m)
        for t, e in x_rows[m]:  # -e_a o xi(e_t) and e_t o xi(e_a)
            terms4[a, t].append((-bden * e, cell))
            terms4[t, a].append((bden * e, cell))
        for t, e in neg_d_rows[a]:  # -d(e_t) o e_m
            terms5[t, m].append((e, cell))
        for t, e in s_rows[m]:  # -e_a o s(e_t)
            terms5[a, t].append((-e, cell))
    sx = int_matmul(ss, xs)
    x_skew = int_matmul(xs, skew)  # X S - X X
    if any(map(any, r)):
        # R_b0* = rs / (rsden den pden); 1. 3 pden (X S - S X - X X) + den r = 0
        # and 3. 3 rsden pden S X = den (rsden r + rs)
        rsden, rs = base.form.int_adjoint(r)
        holds1 = all(3 * pden * (a - b) + den * c == 0
                     for u, v, w in zip(x_skew, sx, r) for a, b, c in zip(u, v, w))
        holds3 = all(3 * rsden * pden * a == den * (rsden * b + c)
                     for u, v, w in zip(sx, r, rs) for a, b, c in zip(u, v, w))
    else:  # R_b0 = R_b0* = 0: 1. X S - X X = S X and 3. S X = 0, row by row
        holds1, holds3 = x_skew == sx, not any(map(any, sx))
    # 2. (S - X) B = 0
    checks = [EquationCheck("commutator_with_adjoint", holds1),
              EquationCheck("skew_part_kills_b0", all(
                  not sum(c * d for c, d in zip(row, b0) if d) for row in skew)),
              EquationCheck("adjoint_composition", holds3)]
    # identity 4 at i < j only, by the lemma above
    fail4 = min((i for (i, j), ts in terms4.items() if i < j and any(int_sum(ts, n))),
                default=None)
    fail5 = min((i for (i, _), ts in terms5.items() if any(int_sum(ts, n))), default=None)
    for name, fail in (("bracket_compatibility", fail4), ("left_mult_compatibility", fail5)):
        checks.append(EquationCheck(name, fail is None, "" if fail is None
                                    else f"fails at basis index {fail}"))
    return AdmissibilityReport(tuple(checks))


# ---------------------------------------------------------------------------
# forward construction

@cache
def _names(m: int) -> tuple:
    """e1, ..., em: the basis names of an extension of dimension m and of
    an adapted basis."""
    return tuple(f"e{k + 1}" for k in range(m))


def build_extension_candidate(base: SymplecticLieAlgebra, xi: Matrix,
                              b0: Sequence) -> SymplecticLieAlgebra:
    """Assemble the extension data without any admissibility checking.

    The result is a raw (algebra, form) pair; when (xi, b0) is not
    admissible it will generally fail the Jacobi identity or flatness.
    Kept public so tests can confirm that inadmissible pairs really do
    break the construction.  Over a valid flat base and an admissible
    pair the result is flat symplectic with the closed-form products;
    TestConstructionTheorem in tests/test_extension.py proves it.
    """
    return _assemble(base, *_pair_rows(base, _as_pair(base, xi, b0)))


def _assemble(base: SymplecticLieAlgebra, den: int, rows) -> SymplecticLieAlgebra:
    """build_extension_candidate over the rows [X | S | B] / den of
    :func:`_pair_rows`, the bracket as int numerators in the
    [e, base..., ebar] layout:

      [a, b]    = [a, b]_B + omega_B((xi + xi*)(a), b) e
      [a, ebar] = (2 xi - xi*)(a) - omega_B(b0, a) e

    with omega_B(u, e_q) = (u^T W)_q, all over bden den wden.  The form
    is the base's :attr:`SkewForm.extension_form`, shared by every pair.
    """
    n = base.dim
    bden, brows = base.algebra.bracket_tensor.integral
    wden, w = base.form.matrix.integral
    # sym_w[p][q] = den wden omega_B((xi + xi*)(e_p), e_q), b0_w[p] = den wden omega_B(b0, e_p)
    sym_w = int_matmul(list(zip(*([a + b for a, b in zip(row, row[n:2 * n])]
                                  for row in rows))), w)
    b0_w = accumulate([0] * n, [row[2 * n] for row in rows], w)
    dw, bw = den * wden, bden * wden
    brackets = {}
    for p in range(n):
        for q in range(p + 1, n):
            brackets[(1 + p, 1 + q)] = ((0, bden * sym_w[p][q]),
                                        *((1 + k, dw * c) for k, c in brows[p][q]))
        brackets[(1 + p, n + 1)] = ((0, -bden * b0_w[p]),
                                    *((1 + k, bw * (2 * row[p] - row[n + p]))
                                      for k, row in enumerate(rows)))
    return SymplecticLieAlgebra(LieAlgebra.from_integral(_names(n + 2), bden * dw, brackets),
                                base.form.extension_form)


def double_extend(base: SymplecticLieAlgebra,
                  pair: AdmissiblePair) -> SymplecticLieAlgebra:
    """Extend a flat base by an admissible pair.

    base must be a valid symplectic Lie algebra (validate_symplectic, the
    catalog, documents and the CLI make only such); only the pair is
    checked.  The result is correct by the extension theorem, with e = e1
    central; see :func:`build_extension_candidate` for where that is proved.
    The rows of :func:`_pair_rows` are computed once, for the check and
    the assembly.
    """
    _require_flat(base)
    den, rows = _pair_rows(base, pair)
    report = _admissibility(base, den, rows)
    if not report.admissible:
        raise NotAdmissibleError(report)
    return _assemble(base, den, rows)


# ---------------------------------------------------------------------------
# inverse construction

@dataclass(frozen=True)
class ReductionStep:
    """One split of a flat algebra along a central isotropic line.

    transform columns are [e, base-complement..., ebar] in the original
    coordinates; rewriting the input in that basis reproduces
    double_extend(base, pair) entry for entry.  transform and pair hold
    the int numerators the split computed.
    """

    base: SymplecticLieAlgebra
    pair: AdmissiblePair
    e: Vec
    ebar: Vec
    transform: Matrix


def inverse_double_extend(s: SymplecticLieAlgebra,
                          e: Optional[Sequence] = None) -> ReductionStep:
    """Split a flat algebra of positive dimension as a double extension.

    e may pick the central direction to split along; by default the
    first vector of the canonical center basis is used.  s must be a
    valid symplectic Lie algebra.  The split runs over int numerators:
    e, ebar, the perp basis and the change of basis T, the adapted
    algebra and its form T^T W T, and the base as their middle blocks.
    The pair is read off the adapted omega-brackets (see the module
    docstring) and checked to be admissible and to rebuild the input
    exactly (in the adapted basis); as the base is the middle block, that
    one comparison certifies the split.  TestConstructionTheorem in
    tests/test_extension.py proves each step of the catalog's towers.
    """
    if s.dim == 0:
        raise ValueError("cannot split a zero-dimensional algebra")
    if not s.is_flat:
        raise NotFlatError("only flat algebras split as double extensions")
    center = s.center
    n2 = s.dim
    n = n2 - 2
    if e is None:
        if center.dim == 0:
            raise TrivialCenterError("center is zero")
        # the first reduced column echelon basis vector, its pivot entry 1
        col = center.integral[0]
        eden, es = col[0][1], dense(col, n2)
        e = tuple(rational(x, eden) if x else ZERO for x in es)
    else:
        e = vector(e)
        if all(not x for x in e):
            raise ValueError("e must be nonzero")
        if not center.contains(e):
            raise ValueError("e must be central")
        eden, es = integral(e)

    # omega(e, e_k) = r_k / (eden wden), and ebar = e_c / omega(e, e_c) at
    # the first c where it is nonzero
    wden, gram = s.form.matrix.integral
    r = accumulate([0] * n2, es, gram)
    c = next(k for k, x in enumerate(r) if x)
    fnum, fden = (eden * wden, r[c]) if r[c] > 0 else (-eden * wden, -r[c])
    ebar = tuple(rational(fnum, fden) if k == c else ZERO for k in range(n2))
    # the perp of the line: omega(x, e) = 0 and omega(x, ebar) = 0, which
    # are the rows r (up to sign, omega being skew) and gram[c]
    base_cols = kernel(Matrix.from_integral(1, [r, gram[c]])).integral
    if len(base_cols) != n:
        raise ExtensionInvariantError("hyperbolic pair has degenerate span")
    # T = trows / tden, its columns e, the perp basis and ebar
    cols = ([(eden, es)] + [(b[0][1], dense(b, n2)) for b in base_cols]
            + [(fden, [fnum if k == c else 0 for k in range(n2)])])
    tden = lcm(*(d for d, _ in cols))
    transform = Matrix.from_integral(tden, list(zip(*([x * (tden // d) for x in v]
                                                      for d, v in cols))))
    adapted = change_of_basis(s, transform, _names(n2))

    # the base is the middle block of the adapted bracket and form
    aden, arows = adapted.algebra.bracket_tensor.integral
    gden, agram = adapted.form.matrix.integral
    base = SymplecticLieAlgebra(
        LieAlgebra.from_integral(tuple(f"b{k + 1}" for k in range(n)), aden, {
            (p, q): tuple((k - 1, x) for k, x in arows[1 + p][1 + q] if 0 < k <= n)
            for p in range(n) for q in range(p + 1, n)}),
        SkewForm.from_integral(gden, [row[1:-1] for row in agram[1:-1]]))
    if not base.is_flat:
        raise ExtensionInvariantError("split produced a non-flat base")

    # times cden = aden gden: at[p] = omega([b_p, ebar], .) and
    # phi[q][p] = 3 omega_B(xi(b_p), b_q) = omega([b_p, b_q], ebar) + at[p][b_q]
    cden = aden * gden
    at = adapted.form.int_covectors(arows[1 + p][n + 1] for p in range(n))
    phi = [[sum(x * agram[k][n + 1] for k, x in arows[1 + p][1 + q]) + at[p][1 + q]
            for p in range(n)] for q in range(n)]
    # xi(b_p) and b0 are the omega_B-duals x = -W_B^-1 y of phi[.][p] and
    # of omega_B(b0, b_q) = omega([ebar, b_q], ebar) = -at[q][ebar], so
    # [xi | b0] is [-inv phi | 3 inv at[.][ebar]] over 3 cden iden
    iden, inv = base.form.int_inverse
    pair = AdmissiblePair.from_integral(3 * cden * iden, [
        [-x for x in row] + [3 * sum(a * at[q][n + 1] for q, a in enumerate(irow))]
        for row, irow in zip(int_matmul(inv, phi), inv)])

    den, rows = _pair_rows(base, pair)
    report = _admissibility(base, den, rows)
    if not report.admissible:
        raise ExtensionInvariantError("recovered pair is not admissible; failed: "
                                      + ", ".join(report.failed_names()))
    rebuilt = _assemble(base, den, rows)
    if (rebuilt.algebra, rebuilt.form) != (adapted.algebra, adapted.form):
        raise ExtensionInvariantError("rebuilt extension differs from input")
    return ReductionStep(base=base, pair=pair, e=e, ebar=ebar, transform=transform)


# ---------------------------------------------------------------------------
# reduction by an ideal

def symplectic_reduce(s: SymplecticLieAlgebra,
                      ideal: Subspace) -> SymplecticLieAlgebra:
    """Quotient I-perp by its omega-radical, for a Lie ideal I.

    I-perp is a subalgebra, J = I meet I-perp is an ideal of it, and
    omega descends to a nondegenerate closed form on I-perp / J.  s must
    be a valid symplectic Lie algebra; only the ideal is checked.  The
    quotient of a flat s is flat; TestReduceTheorem in
    tests/test_extension.py proves both facts over the catalog.
    """
    n = s.dim
    if ideal.ambient_dim != n:
        raise ValueError("ideal has wrong ambient dimension")
    for i in range(n):
        u = unit_vector(n, i)
        for v in ideal.columns():
            if not ideal.contains(s.algebra.bracket(u, v)):
                raise NotAnIdealError(
                    f"subspace is not closed under bracketing with basis index {i}")
    iperp = perp(s, ideal)
    j = subspace_intersect(ideal, iperp)
    reps = []
    cur = j
    for c in iperp.columns():
        if not cur.contains(c):
            reps.append(c)
            cur = subspace_sum(cur, Subspace.span(n, [c]))
    m = len(reps)
    basis = Matrix.from_cols(reps + j.columns()) if (reps or j.dim) \
        else Matrix.zeros(n, 0)

    entries = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = s.algebra.bracket(reps[a], reps[b])
            coords = solve(basis, w)
            coeffs = {k: c for k, c in enumerate(coords[:m]) if c}
            if coeffs:
                entries[(a, b)] = coeffs
    names = tuple(f"q{k + 1}" for k in range(m))
    form_rows = [[s.form.pair(reps[a], reps[b]) for b in range(m)]
                 for a in range(m)]
    return SymplecticLieAlgebra(LieAlgebra.from_sparse(names, entries),
                                SkewForm(Matrix.from_rows(form_rows)))


# ---------------------------------------------------------------------------
# towers

def zero_symplectic() -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra.from_sparse((), {}),
                                SkewForm(Matrix.zeros(0, 0)))


def extension_tower(pairs: Sequence[AdmissiblePair],
                    base: Optional[SymplecticLieAlgebra] = None) -> list:
    """Iterated double extensions, innermost pair first.

    Returns every stage, starting from the base (the zero algebra by
    default); the last entry is the full tower.
    """
    stages = [base if base is not None else zero_symplectic()]
    for k, pair in enumerate(pairs):
        try:
            stages.append(double_extend(stages[-1], pair))
        except NotAdmissibleError as exc:
            raise NotAdmissibleError(exc.report, stage=k) from None
    return stages


def reduction_tower(s: SymplecticLieAlgebra) -> list:
    """Split repeatedly until nothing is left; outermost step first."""
    steps = []
    cur = s
    while cur.dim > 0:
        step = inverse_double_extend(cur)
        steps.append(step)
        cur = step.base
    return steps


def _compose_tower(steps: Sequence[ReductionStep]) -> tuple:
    """Rewrite tower pairs into composable coordinates.

    Each step's pair lives over that step's base, but rebuilding from
    the zero algebra reproduces the adapted copy of every base, so the
    pairs must be conjugated by the accumulated change of basis.  The
    returned transform t satisfies, with pairs listed innermost first,

        change_of_basis(s, t) == extension_tower(pairs)[-1]

    entry for entry.
    """
    pairs = []
    wden, w = 1, []  # the accumulated transform, as int rows over wden
    for step in reversed(steps):
        # [xi | b0] = rows / pden becomes w^-1 [xi | b0] diag(w, 1)
        # = inv rows diag(w, wden) / (iden pden), as w^-1 = wden inv / iden
        (iden, inv), (pden, rows) = int_inverse(w), step.pair.integral
        diag = [[*row, 0] for row in w] + [[0] * len(w) + [wden]]
        pairs.append(AdmissiblePair.from_integral(iden * pden,
                                                  int_matmul(int_matmul(inv, rows), diag)))
        # w becomes transform @ diag(1, w, 1) in the [e, base..., ebar] layout
        tden, trows = step.transform.integral
        w = int_matmul(trows, bordered(w, ((wden, 0), (0, wden))))
        wden *= tden
    return pairs, Matrix.from_integral(wden, w)


def tower_pairs(steps: Sequence[ReductionStep]) -> list:
    """Pairs of a reduction tower, innermost first, ready to re-extend.

    extension_tower over these pairs rebuilds the original algebra up
    to the basis change returned by :func:`tower_transform`.
    """
    return _compose_tower(steps)[0]


def tower_transform(steps: Sequence[ReductionStep]) -> Matrix:
    """Columns express the rebuilt tower's basis in original coordinates."""
    return _compose_tower(steps)[1]


# ---------------------------------------------------------------------------
# nilpotency bookkeeping

@dataclass(frozen=True)
class NilpotencyTraceReport:
    """Trace identities and nilpotency facts for an admissible pair.

    For every k >= 1 and basis vector a of the base,
    tr(xi^k R_a) = tr(R_{xi^k(a)}) and tr(xi^{k+1}) = (1/3) tr(R_b0 xi^{k-1}).
    Over a nilpotent base, xi and xi* - 2 xi are nilpotent.  Over an
    abelian base of dimension four, xi^2 = 0 and the image of xi is
    totally isotropic.
    """

    power_right_traces_ok: bool
    xi_power_traces_ok: bool
    base_nilpotent: bool
    xi_nilpotent: Optional[bool]
    d_nilpotent: Optional[bool]
    xi_square_zero: Optional[bool]
    image_xi_isotropic: Optional[bool]

    def ok(self) -> bool:
        facts = [self.power_right_traces_ok, self.xi_power_traces_ok,
                 self.xi_nilpotent, self.d_nilpotent,
                 self.xi_square_zero, self.image_xi_isotropic]
        return all(f for f in facts if f is not None)


def nilpotency_trace_report(base: SymplecticLieAlgebra,
                            pair: AdmissiblePair) -> NilpotencyTraceReport:
    _require_flat(base)
    den, rows = _pair_rows(base, pair)
    report = _admissibility(base, den, rows)
    if not report.admissible:
        raise NotAdmissibleError(report)
    n = base.dim
    p = base.canonical_product
    xi = pair.xi
    xi_star = Matrix.from_integral(den, [row[n:2 * n] for row in rows])
    r_b0 = p.right(pair.b0)

    powers = [Matrix.identity(n)]  # powers[k] = xi^k
    for _ in range(n + 1):
        powers.append(powers[-1] @ xi)

    traces_ok = all((powers[k] @ p.right(unit_vector(n, i))).trace()
                    == p.right(powers[k].col(i)).trace()
                    for k in range(1, n + 1) for i in range(n))
    xi_traces_ok = all(
        powers[k + 1].trace() == THIRD * (r_b0 @ powers[k - 1]).trace()
        for k in range(1, n + 1))

    base_nilpotent = base.algebra.is_nilpotent()
    xi_nil = d_nil = None
    if base_nilpotent:
        d = xi_star - xi.scale(Q(2))
        # at n = 0 the power is the empty matrix, which is zero
        xi_nil = powers[n].is_zero()
        d_nil = reduce(matmul, [d] * n, Matrix.identity(n)).is_zero()

    sq_zero = isotropic = None
    if base.algebra.is_abelian() and n == 4:
        sq_zero = powers[2].is_zero()
        image = Subspace.span(n, xi.columns())
        isotropic = classify_subspace(base, image) in (
            SubspaceClass.TOTALLY_ISOTROPIC, SubspaceClass.LAGRANGIAN)
    return NilpotencyTraceReport(
        power_right_traces_ok=traces_ok,
        xi_power_traces_ok=xi_traces_ok,
        base_nilpotent=base_nilpotent,
        xi_nilpotent=xi_nil,
        d_nilpotent=d_nil,
        xi_square_zero=sq_zero,
        image_xi_isotropic=isotropic,
    )
