"""Independent recomputations used to cross-check the library.

These deliberately avoid the code paths under test: the product oracle
assembles one big linear system over all dim^3 structure coefficients
and hands it to the generic eliminator, and the sympy helpers rebuild
matrices in a foreign CAS.  The reference series, center,
admissibility check, associators and flatness criteria are the dense
formulations the library used before it read the sparse product
entries: full bilinear products and brackets, and one Matrix identity
per basis index or pair.  The ``fraction_*`` references are the exact
scalar loops the library ran before its hot loops moved to integer
numerators over one common denominator.  The reference structural
report is the formulation the library used before its claims moved to
integer contractions: dense ad, L and R matrices, the omega-adjoint
W^-1 ad^T W, and a full product plus Subspace.contains per membership.
``reference_rref_rows`` is the Gauss-Jordan elimination over scalars
that the library ran before its elimination moved to integer rows, and
the ``fraction_*`` change of basis, adjoint and tower conjugation are the
dense Matrix formulations the reduction path ran before it moved to
integer rows.  ``fraction_build_extension_candidate`` is the scalar
assembly of a double extension, and the ``rational_*`` canonical product
and change of basis build each cell from int numerators with
rationals.rational, as the library did before those producers kept their
numerators through ProductTensor.from_integral.
``fraction_inverse_double_extend`` is the scalar split: ebar from solve, T
from scalar columns, and the pair read off the adapted algebra's whole
canonical product through dual_of_covector, as the library did before the
split recovered the pair from two slices of the adapted omega-brackets.
``fraction_document_to_parts`` is the scalar parse: each literal through
parse_rational, a dense Matrix for omega and LieAlgebra.from_sparse, as
the library did before documents were read straight to numerators.  The
``int_sum_*`` flatness kernels are the unpacked int loops, one
:func:`int_sum` of length n per residual, that the library ran before
its flatness kernels moved to packed slots.  The ``fraction_matrix_*``
functions are the Matrix methods and elimination entry points as they
ran when a Matrix kept scalar entries, before it kept int numerators.
``respan_kernel``, ``respan_common_kernel``, ``three_elimination_intersect``,
``grid_center`` and ``grid_multiplication_kernels`` are the kernels as
they ran before each canonical subspace came from one elimination.
``n4_canonical_product``, ``int_sum_validate`` and
``per_m_first_curvature_violation`` are the canonical product, the Jacobi
test and the curvature loop as they ran before their residuals were
packed whole: n^2 small multiply-adds per product cell, one int_sum per
Jacobi triple and one packed residual per (i, j, m).
``all_cells_derived_subspace``, ``span_lower_central_series``,
``span_derived_series``, ``sum_fingerprint``,
``generator_product_from_integral`` and ``two_pass_lie_from_integral``
are the derived subspace, both series, the fingerprint and the integral
constructors as they ran before a central term ended a series, a
containment decided dim(Z meet D) and the bracket was built canonical in
one pass.
"""

from math import gcd, lcm

import sympy

from symplie.catalog import Fingerprint
from symplie.documents import MAX_DIM, _fail, _require_dict
from symplie.extension import (AdmissibilityReport, AdmissiblePair,
                               EquationCheck, NotFlatError, ReductionStep)
from symplie.lie import (DerivedSeries, JacobiViolation, LieAlgebra,
                         LowerCentralSeries)
from symplie.linalg import (Matrix, NoSolutionError, PackedCells, RrefResult,
                            SingularMatrixError,
                            Subspace, _int_row, _rref_rows, accumulate, common_kernel,
                            commutator, dense, int_inverse, int_matmul,
                            int_product, int_sum, inverse, is_zero_vector, kernel,
                            solve, sparse, subspace_intersect, subspace_sum,
                            unit_vector, vdot, vector)
from symplie.rationals import (ONE, THIRD, ZERO, Q, RationalSyntaxError, as_q,
                               integral, parse_rational, qstr, rational)
from symplie.symplectic import (Claim, FlatnessChecks, MultiplicationKernels,
                                ProductTensor, SkewForm, StructuralReport,
                                SymplecticLieAlgebra, classify_subspace,
                                curvature_residuals, perp, validate_symplectic)


def nonzero_cells(p: ProductTensor) -> tuple:
    """nonzero_cells(p)[a][m] = the nonzero (k, c) of e_a o e_m, from the table."""
    return tuple(tuple(sparse(v) for v in row) for row in p.table)


def sparse_sum(terms) -> dict:
    """sum_t c_t * row_t as {k: value} over (c, row) pairs, each row a
    sequence of nonzero (k, d); entries that cancel stay, as zeros.

    The sparse counterpart of :func:`accumulate`, for rows read from
    :func:`nonzero_cells`.
    """
    acc = {}
    for c, row in terms:
        for k, d in row:
            t = c * d
            acc[k] = acc[k] + t if k in acc else t
    return acc


def brute_force_canonical_product(algebra, form) -> ProductTensor:
    """Solve 3*omega(ei o ej, ew) = omega([ei,ej], ew) + omega([ei,ew], ej)
    for every structure coefficient at once (dim^3 unknowns)."""
    n = algebra.dim
    om = form.matrix
    if n == 0:
        return ProductTensor(0, ())
    size = n * n * n
    rows = []
    rhs = []
    zero = Q(0)
    for i in range(n):
        for j in range(n):
            for w in range(n):
                row = [zero] * size
                for k in range(n):
                    c = om.entry(k, w)
                    if c:
                        row[(i * n + j) * n + k] = 3 * c
                rows.append(row)
                acc = zero
                for k, c in enumerate(algebra.table[i][j]):
                    if c:
                        acc += c * om.entry(k, w)
                for k, c in enumerate(algebra.table[i][w]):
                    if c:
                        acc += c * om.entry(k, j)
                rhs.append(acc)
    x = solve(Matrix.from_rows(rows), rhs)
    table = tuple(
        tuple(tuple(x[(i * n + j) * n + k] for k in range(n)) for j in range(n))
        for i in range(n))
    return ProductTensor(n, table)


def reference_rref_rows(rows: list, ncols: int) -> list:
    """In-place reduced row echelon form; returns pivot column indices.

    First-nonzero pivoting, zero-entry skipping in the update loop.  The
    skipping matters: block-sparse systems (the brute-force product
    solver assembles one of size dim^3) reduce in near-linear time.
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
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            inv = ONE / pv
            rows[r] = [inv * x for x in rows[r]]
        prow = rows[r]
        support = [k for k in range(c, ncols) if prow[k]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                continue
            target = rows[i]
            for k in support:
                target[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(qstr(x)) for row in m.entries for x in row])


def sympy_rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return to_sympy(m).rank()


# ---------------------------------------------------------------------------
# dense references for the Lie series and the admissibility identities

def reference_bracket_span(algebra, a: Subspace, b: Subspace) -> Subspace:
    gens = [algebra.bracket(u, v) for u in a.columns() for v in b.columns()]
    return Subspace.span(algebra.dim, gens)


def reference_center(algebra) -> Subspace:
    """The kernel of every equation sum_i u_i [e_i, e_j]_k = 0, zero rows kept."""
    n = algebra.dim
    if n == 0:
        return Subspace.zero(0)
    rows = [[algebra.table[i][j][k] for i in range(n)]
            for j in range(n) for k in range(n)]
    return kernel(Matrix.from_rows(rows))


def reference_derived_subspace(algebra) -> Subspace:
    full = Subspace.full(algebra.dim)
    return reference_bracket_span(algebra, full, full)


def reference_lower_central_series(algebra) -> LowerCentralSeries:
    full = Subspace.full(algebra.dim)
    terms = [full]
    while True:
        nxt = reference_bracket_span(algebra, full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    nilpotent = terms[-1].dim == 0
    return LowerCentralSeries(tuple(terms), len(terms) - 1 if nilpotent else None)


def reference_derived_series(algebra) -> DerivedSeries:
    terms = [reference_derived_subspace(algebra)]
    while True:
        nxt = reference_bracket_span(algebra, terms[-1], terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return DerivedSeries(tuple(terms), terms[-1].dim == 0)


def reference_check_admissible(base, xi: Matrix, b0) -> AdmissibilityReport:
    """The five identities with 2n Matrix products per basis index."""
    if not base.is_flat:
        raise NotFlatError("extension pairs are only defined over a flat base")
    n = base.dim
    if xi.shape != (n, n):
        raise ValueError(f"xi must be {n}x{n}")
    b0 = vector(b0)
    if len(b0) != n:
        raise ValueError(f"b0 must have length {n}")
    p = base.canonical_product
    xi_star = base.adjoint(xi)
    r_b0 = p.right(b0)
    r_b0_star = base.adjoint(r_b0)
    checks = [
        EquationCheck("commutator_with_adjoint",
                      commutator(xi, xi_star) == (xi @ xi) - r_b0.scale(THIRD)),
        EquationCheck("skew_part_kills_b0",
                      all(not x for x in (xi_star - xi).apply(b0))),
        EquationCheck("adjoint_composition",
                      (xi_star @ xi) == (r_b0 + r_b0_star).scale(THIRD)),
    ]
    ok4, ok5 = True, True
    detail4 = detail5 = ""
    for i in range(n):
        a = unit_vector(n, i)
        ad_a = base.algebra.ad(a)
        l_a = p.left(a)
        if ok4 and (xi @ ad_a) != (l_a @ xi) - p.right(xi.col(i)):
            ok4, detail4 = False, f"fails at basis index {i}"
        lhs = (xi_star @ l_a) - p.left(xi_star.col(i)) - (l_a @ xi_star)
        rhs = (xi @ l_a) - (l_a @ xi) - p.left(xi.col(i)).scale(Q(2))
        if ok5 and lhs != rhs:
            ok5, detail5 = False, f"fails at basis index {i}"
    checks.append(EquationCheck("bracket_compatibility", ok4, detail4))
    checks.append(EquationCheck("left_mult_compatibility", ok5, detail5))
    return AdmissibilityReport(tuple(checks))


# ---------------------------------------------------------------------------
# dense references for the associator and the flatness criteria

def reference_associator(p: ProductTensor, i: int, j: int, k: int) -> tuple:
    """(e_i o e_j) o e_k - e_i o (e_j o e_k) from two full products."""
    n = p.dim
    first = p.apply(p.table[i][j], unit_vector(n, k))
    second = p.apply(unit_vector(n, i), p.table[j][k])
    return tuple(a - b for a, b in zip(first, second))


def reference_associators(p: ProductTensor) -> tuple:
    """The tensor of every reference_associator(p, i, j, k)."""
    n = p.dim
    return tuple(tuple(tuple(reference_associator(p, i, j, k) for k in range(n))
                       for j in range(n)) for i in range(n))


# these two read a tensor from reference_associators, which is costly to build
def reference_left_symmetry_violations(a: tuple) -> tuple:
    n = len(a)
    return tuple((i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(n) if a[i][j][k] != a[j][i][k])


def reference_is_associative(a: tuple) -> bool:
    n = len(a)
    return all(not any(a[i][j][k])
               for i in range(n) for j in range(n) for k in range(n))


def reference_right_form_vanishes(p: ProductTensor) -> bool:
    """R_{e_i o e_j} - R_j R_i = [L_i, R_j] for all i, j, as Matrix identities."""
    n = p.dim
    lefts = [p.left(unit_vector(n, i)) for i in range(n)]
    rights = [p.right(unit_vector(n, i)) for i in range(n)]
    return all(p.right(p.table[i][j]) - (rights[j] @ rights[i])
               == commutator(lefts[i], rights[j])
               for i in range(n) for j in range(n))


def reference_curvature_witness(p: ProductTensor, algebra):
    """The first pair (i, j) whose dense curvature residual matrix is
    nonzero, or None."""
    residuals = curvature_residuals(p, algebra)
    return next((pair for pair, m in residuals.items() if not m.is_zero()), None)


def reference_flatness(p: ProductTensor, witness, a: tuple) -> FlatnessChecks:
    """The three criteria and the witness from their dense formulations,
    for the canonical product p; witness = reference_curvature_witness(p,
    algebra) and a = reference_associators(p)."""
    return FlatnessChecks(witness is None, reference_right_form_vanishes(p),
                          not reference_left_symmetry_violations(a), witness)


# ---------------------------------------------------------------------------
# the exact scalar loops that the integer kernel replaced

def fraction_lie_admissibility_failure(product: ProductTensor, table):
    """The first basis pair (i, j), i < j, where e_i o e_j - e_j o e_i
    differs from the bracket table entry, or None; dense scalar tuples."""
    n = product.dim
    p = product.table
    for i in range(n):
        for j in range(i + 1, n):
            if tuple(a - b for a, b in zip(p[i][j], p[j][i])) != table[i][j]:
                return (i, j)
    return None


def fraction_first_curvature_violation(product: ProductTensor, table):
    """The first pair (i, j), i < j, with a nonzero curvature residual,
    each residual one sparse sum of scalars over the nonzero entries."""
    n = product.dim
    nz = nonzero_cells(product)
    for i in range(n):
        left_i = nz[i]
        for j in range(i + 1, n):
            left_j = nz[j]
            bracket = sparse(table[i][j])
            for m in range(n):
                terms = ([(c, nz[a][m]) for a, c in bracket]
                         + [(-c, left_i[k]) for k, c in left_j[m]]
                         + [(c, left_j[k]) for k, c in left_i[m]])
                if any(sparse_sum(terms).values()):
                    return (i, j)
    return None


def fraction_associators(p: ProductTensor) -> tuple:
    """Every (e_i o e_j) o e_k - e_i o (e_j o e_k) as a sparse sum of scalars."""
    n = p.dim
    nz = nonzero_cells(p)

    def entry(i, j, k):
        acc = sparse_sum([(c, nz[a][k]) for a, c in nz[i][j]]
                         + [(-d, nz[i][b]) for b, d in nz[j][k]])
        return tuple(acc.get(m, ZERO) for m in range(n))

    return tuple(tuple(tuple(entry(i, j, k) for k in range(n))
                       for j in range(n)) for i in range(n))


def fraction_validate(algebra) -> tuple:
    """Every Jacobi violation on i < j < k with its scalar residual."""
    n = algebra.dim
    t = algebra.table
    columns = algebra.bracket_tensor.columns
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [ZERO] * n
                for u, m in ((t[i][j], k), (t[j][k], i), (t[k][i], j)):
                    accumulate(acc, u, columns[m])
                if not is_zero_vector(acc):
                    out.append(JacobiViolation((i, j, k), tuple(acc)))
    return tuple(out)


def fraction_omega_brackets(algebra, form) -> list:
    """c[i][j][w] = omega([e_i, e_j], e_w) as scalars."""
    return [[form.covector(cell) for cell in row] for row in algebra.table]


def fraction_canonical_product(algebra, form) -> ProductTensor:
    """e_i o e_j = dual . phi with phi_w = (c[i][j][w] + c[i][w][j]) / 3."""
    n = algebra.dim
    dual = form.dual_matrix
    c = fraction_omega_brackets(algebra, form)
    return ProductTensor(n, tuple(
        tuple(dual.apply([THIRD * (c[i][j][w] + c[i][w][j]) for w in range(n)])
              for j in range(n)) for i in range(n)))


def fraction_symplectic_violations(algebra, form) -> list:
    """symplectic_violations with the closedness sums over scalars."""
    out = []
    n = algebra.dim
    if form.dim != n:
        return [f"form dimension {form.dim} does not match algebra dimension {n}"]
    if n % 2 != 0:
        out.append(f"dimension {n} is odd")
    for violation in fraction_validate(algebra):
        out.append(f"Jacobi identity fails at basis triple {violation.triple}")
    if not form.is_skew():
        out.append("form matrix is not skew-symmetric")
    elif not form.is_nondegenerate():
        out.append("form is degenerate")
    c = fraction_omega_brackets(algebra, form)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if c[i][j][k] + c[j][k][i] + c[k][i][j]:
                    out.append(f"form is not closed at basis triple ({i}, {j}, {k})")
    return out


# ---------------------------------------------------------------------------
# the structural report in exact scalars, with dense operators

def reference_ideal_perp_rules(s, ideal: Subspace) -> tuple:
    """(holds, detail) for: Iperp o I <= I, I o Iperp <= I,
    Iperp o Iperp <= Iperp, and Iperp a Lie subalgebra, from full
    products and Subspace.contains."""
    p = s.canonical_product
    iperp = perp(s, ideal)
    icols = ideal.columns()
    pcols = iperp.columns()
    for u in pcols:
        for v in icols:
            if not ideal.contains(p.apply(u, v)):
                return False, "Iperp o I escapes I"
            if not ideal.contains(p.apply(v, u)):
                return False, "I o Iperp escapes I"
    for u in pcols:
        for v in pcols:
            if not iperp.contains(p.apply(u, v)):
                return False, "Iperp o Iperp escapes Iperp"
            if not iperp.contains(s.algebra.bracket(u, v)):
                return False, "Iperp is not a Lie subalgebra"
    return True, ""


def reference_structural_report(s) -> StructuralReport:
    """structural_report with dense ad, L and R matrices, the adjoint
    W^-1 ad^T W, full products and subspace membership tests."""
    alg = s.algebra
    n = s.dim
    p = s.canonical_product
    flat = s.is_flat
    center = s.center
    derived = s.derived
    dperp = perp(s, derived)
    zperp = perp(s, center)
    nl = common_kernel(p.table, n)
    nr = common_kernel(p.columns, n)
    ads = [alg.ad(unit_vector(n, i)) for i in range(n)]
    ad_traces = tuple(a.trace() for a in ads)
    h = s.form.dual_of_covector(ad_traces)
    unimodular = is_zero_vector(ad_traces)
    lcs = alg.lower_central_series()
    abelian = derived.dim == 0
    # tr R_{e_i} = sum_m (e_m o e_i)_m, read off the table
    right_traces = [sum((p.table[m][i][m] for m in range(n)), ZERO)
                    for i in range(n)]

    claims = []

    def claim(name, applicable, holds, detail=""):
        claims.append(Claim(name, applicable, holds if applicable else None, detail))

    skew_ad = common_kernel([(ads[i] + s.adjoint(ads[i])).entries
                             for i in range(n)], n)
    claim("derived_perp_characterization", True, dperp == skew_ad,
          "[g,g]-perp = {u : ad_u* = -ad_u}")
    products = Subspace.span(n, [v for row in p.table for v in row])
    claim("center_is_products_perp", True, center == perp(s, products))
    claim("center_is_left_meet_right_kernel", True,
          center == subspace_intersect(nl, nr))
    claim("center_is_left_kernel_meet_derived_perp", True,
          center == subspace_intersect(nl, dperp))
    holds, detail = reference_ideal_perp_rules(s, derived)
    claim("derived_ideal_perp_rules", True, holds, detail)
    holds, detail = reference_ideal_perp_rules(s, center)
    claim("center_ideal_perp_rules", True, holds, detail)
    claim("right_trace_identity", True,
          all(right_traces[i] == -ad_traces[i] for i in range(n)),
          "tr R_u = -tr ad_u")
    ok = True
    for u in dperp.columns():
        adu = alg.ad(u)
        if p.left(u) != adu.scale(Q(2, 3)) or p.right(u) != adu.scale(Q(-1, 3)):
            ok = False
            break
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
    claim("flat_h_vanishes", flat, is_zero_vector(h))
    claim("flat_h_in_derived_meet_perp", flat,
          derived.contains(h) and dperp.contains(h))
    ok = all(is_zero_vector(p.apply(u, v))
             for u in dperp.columns() for v in dperp.columns())
    claim("flat_derived_perp_products_vanish", flat, ok)
    ok = all((alg.ad(u) @ alg.ad(v)).is_zero()
             for u in dperp.columns() for v in dperp.columns())
    claim("flat_derived_perp_ad_compose_zero", flat, ok)
    ok = all(nl.contains(p.apply(unit_vector(n, i), v))
             and nl.contains(p.apply(v, unit_vector(n, i)))
             for i in range(n) for v in nl.columns())
    claim("flat_left_kernel_two_sided_ideal", flat, ok)
    ok = all(nl.contains(alg.bracket(unit_vector(n, i), u))
             for i in range(n) for u in dperp.columns())
    claim("flat_bracket_derived_perp_in_left_kernel", flat, ok)
    complete = all(t == ZERO for t in right_traces)
    claim("flat_complete_iff_unimodular", flat, complete == unimodular,
          f"complete={complete}, unimodular={unimodular}")
    claim("flat_unimodular_solvable", flat and unimodular, alg.is_solvable())

    return StructuralReport(
        claims=tuple(claims),
        is_flat=flat,
        nilpotency_class=lcs.nilpotency_class,
        center_kind=classify_subspace(s, center),
        derived_kind=classify_subspace(s, derived),
        unimodular=unimodular,
        h=h,
    )


# ---------------------------------------------------------------------------
# the reduction path in exact scalars: change of basis, adjoint, tower

def fraction_lie_change_of_basis(algebra, t: Matrix, names=None) -> LieAlgebra:
    """Structure constants in the basis given by the columns of t, from
    full brackets of the columns and a dense T^-1 apply."""
    n = algebra.dim
    if t.shape != (n, n):
        raise ValueError("change of basis matrix has wrong shape")
    tinv = inverse(t)
    if names is None:
        names = tuple(f"y{k + 1}" for k in range(n))
    sparse = {}
    cols = t.columns()
    for i in range(n):
        for j in range(i + 1, n):
            w = tinv.apply(algebra.bracket(cols[i], cols[j]))
            entry = {k: c for k, c in enumerate(w) if c}
            if entry:
                sparse[(i, j)] = entry
    return LieAlgebra.from_sparse(names, sparse)


def fraction_change_of_basis(s, t: Matrix, names=None) -> SymplecticLieAlgebra:
    """The same structure in the basis t, the form as the dense T^T W T."""
    new_alg = fraction_lie_change_of_basis(s.algebra, t, names)
    new_form = SkewForm(t.transpose() @ s.form.matrix @ t)
    return validate_symplectic(new_alg, new_form)


def fraction_adjoint_map(form, f: Matrix) -> Matrix:
    """f* = W^-1 f^T W as two dense Matrix products."""
    if f.shape != (form.dim, form.dim):
        raise ValueError("endomorphism shape mismatch")
    return form.inverse_matrix @ f.transpose() @ form.matrix


def fraction_bordered(w: Matrix, corners) -> Matrix:
    """w as the middle block of the [e, base..., ebar] layout.

    corners ((a, b), (c, d)) are the entries at (e, e), (e, ebar),
    (ebar, e) and (ebar, ebar); the rest of the border is zero.
    """
    (a, b), (c, d) = corners
    zero = (ZERO,) * w.cols
    return Matrix.from_rows([(a,) + zero + (b,)]
                            + [(ZERO,) + row + (ZERO,) for row in w.entries]
                            + [(c,) + zero + (d,)])


def fraction_compose_tower(steps) -> tuple:
    """The pairs conjugated by the accumulated change of basis, and that
    change of basis, with dense Matrix products and inverses."""
    pairs = []
    w = Matrix.identity(0)
    for step in reversed(steps):
        if w.rows:
            w_inv = inverse(w)
            xi = w_inv @ step.pair.xi @ w
            b0 = w_inv.apply(step.pair.b0)
        else:
            xi, b0 = step.pair.xi, step.pair.b0
        pairs.append(AdmissiblePair(xi, b0))
        # diag(1, w, 1) in the [e, base..., ebar] layout
        w = step.transform @ fraction_bordered(w, ((ONE, ZERO), (ZERO, ONE)))
    return pairs, w


# ---------------------------------------------------------------------------
# the producers that built scalar cells before they kept their numerators

def fraction_build_extension_candidate(base, xi: Matrix, b0) -> SymplecticLieAlgebra:
    """The extension in the [e, base..., ebar] layout from scalar
    covectors, Matrix sums and a sparse dict of scalar brackets."""
    n = base.dim
    if xi.shape != (n, n):
        raise ValueError(f"xi must be {n}x{n}")
    b0 = vector(b0)
    if len(b0) != n:
        raise ValueError(f"b0 must have length {n}")
    form_b = base.form
    xi_star = fraction_adjoint_map(form_b, xi)
    sym = xi + xi_star
    d = xi_star - xi.scale(Q(2))

    def embed(v):
        return [ZERO] + list(v) + [ZERO]

    names = tuple(f"e{k + 1}" for k in range(n + 2))
    entries = {}
    # base x base: [a, b] = [a, b]_B + omega_B((xi + xi*)(a), b) e
    for p in range(n):
        sym_p = form_b.covector(sym.col(p))
        for q in range(p + 1, n):
            vec = embed(base.algebra.table[p][q])
            vec[0] += sym_p[q]
            coeffs = {k: c for k, c in enumerate(vec) if c}
            if coeffs:
                entries[(1 + p, 1 + q)] = coeffs
    # base x ebar: [a, ebar] = -[ebar, a] = (2 xi - xi*)(a) - omega_B(b0, a) e
    b0_cov = form_b.covector(b0)
    for p in range(n):
        vec = embed(tuple(-x for x in d.col(p)))
        vec[0] -= b0_cov[p]
        coeffs = {k: c for k, c in enumerate(vec) if c}
        if coeffs:
            entries[(1 + p, n + 1)] = coeffs
    algebra = LieAlgebra.from_sparse(names, entries)
    form = fraction_bordered(form_b.matrix, ((ZERO, ONE), (-ONE, ZERO)))
    return SymplecticLieAlgebra(algebra, SkewForm(form))


def rational_canonical_product(s) -> ProductTensor:
    """The canonical product from the omega brackets and W^-1 over ints,
    each cell converted to scalars with rationals.rational."""
    n = s.dim
    iden, inv = s.form.int_inverse
    inv = [sparse(r) for r in inv]
    cden, c = s.omega_brackets
    den = 3 * cden * iden
    rows = []
    for i in range(n):
        cells = []
        for j in range(n):
            phi = [c[i][j][w] + c[i][w][j] for w in range(n)]
            nums = [-sum(x * phi[w] for w, x in inv_k) for inv_k in inv]
            cells.append(tuple(rational(x, den) if x else ZERO for x in nums))
        rows.append(tuple(cells))
    return ProductTensor(n, tuple(rows))


def rational_lie_change_of_basis(algebra, t: Matrix, names=None) -> LieAlgebra:
    """T^-1 [T_i, T_j] over ints, each entry converted with
    rationals.rational into the dict of LieAlgebra.from_sparse."""
    n = algebra.dim
    if t.shape != (n, n):
        raise ValueError("change of basis matrix has wrong shape")
    vden, tinv = int_inverse(t.entries)
    tden, trows = t.integral
    bden, rows = algebra.bracket_tensor.integral
    den = vden * tden * tden * bden
    names = tuple(f"y{k + 1}" for k in range(n)) if names is None else names
    cols = [sparse(c) for c in zip(*trows)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    new = zip(*int_matmul(tinv, list(zip(*(int_product(rows, cols[i], cols[j], n)
                                            for i, j in pairs)))))
    return LieAlgebra.from_sparse(names, {
        pair: {k: rational(x, den) for k, x in enumerate(row) if x}
        for pair, row in zip(pairs, new)})


# ---------------------------------------------------------------------------
# the scalar split

def fraction_inverse_double_extend(s, e=None) -> ReductionStep:
    """The split of a flat s along e (by default the first vector of the
    reference center basis) with scalar columns throughout.

    ebar solves omega(e, x) = 1 with its free coordinates zero, the base
    complement is the scalar column basis of the perp of span(e, ebar),
    and the adapted algebra comes from the dense change of basis.  The
    e-coefficient of b_p o b_q in the adapted canonical product is
    omega_B(xi(b_p), b_q), so column p of xi is the dual of that covector,
    and b0 is 3 (ebar o ebar) in base coordinates.  No check is made.
    """
    n2 = s.dim
    n = n2 - 2
    e = reference_center(s.algebra).columns()[0] if e is None else vector(e)
    ebar = solve(Matrix.from_rows([s.form.matrix.transpose().apply(e)]), (ONE,))
    base_cols = perp(s, Subspace.span(n2, [e, ebar])).columns()
    t = Matrix.from_cols([e] + base_cols + [ebar])
    adapted = fraction_change_of_basis(s, t, tuple(f"e{k + 1}" for k in range(n2)))
    table = adapted.algebra.table
    base = SymplecticLieAlgebra(
        LieAlgebra.from_sparse(tuple(f"b{k + 1}" for k in range(n)), {
            (p, q): {k - 1: c for k, c in enumerate(table[1 + p][1 + q]) if 0 < k <= n and c}
            for p in range(n) for q in range(p + 1, n)}),
        SkewForm(Matrix.from_rows([row[1:-1] for row in adapted.form.matrix.entries[1:-1]])))
    product = fraction_canonical_product(adapted.algebra, adapted.form).table
    xi_cols = [base.form.dual_of_covector([product[1 + p][1 + q][0] for q in range(n)])
               for p in range(n)]
    xi = Matrix.from_cols(xi_cols) if xi_cols else Matrix.zeros(0, 0)
    b0 = tuple(3 * x for x in product[n + 1][n + 1][1:1 + n])
    return ReductionStep(base=base, pair=AdmissiblePair(xi, b0), e=e, ebar=ebar,
                         transform=t)


# ---------------------------------------------------------------------------
# the scalar parse

def _fraction_coeff(text, path: str):
    if not isinstance(text, str):
        _fail(path, f"expected a rational string, got {type(text).__name__}")
    try:
        return parse_rational(text)
    except RationalSyntaxError as exc:
        _fail(path, str(exc))


def fraction_document_to_parts(doc) -> tuple:
    """(LieAlgebra, SkewForm, meta) of an algebra document, with the same
    structural checks and messages as documents.document_to_parts, over
    scalars: a sparse dict of Fractions and a dense Gram Matrix."""
    doc = _require_dict(doc, "document",
                        {"dim", "basis", "brackets", "omega", "meta"},
                        {"dim", "basis", "brackets", "omega"})
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        _fail("dim", "expected a nonnegative integer")
    if dim > MAX_DIM:
        _fail("dim", f"{dim} exceeds the limit of {MAX_DIM}")
    basis = doc["basis"]
    if (not isinstance(basis, list)
            or any(not isinstance(b, str) or not b for b in basis)):
        _fail("basis", "expected a list of nonempty strings")
    if len(basis) != dim:
        _fail("basis", f"has {len(basis)} names but dim is {dim}")
    if len(set(basis)) != dim:
        _fail("basis", "names must be unique")
    index = {name: k for k, name in enumerate(basis)}

    def edge(item, path):
        _require_dict(item, path, {"u", "v", "value"}, {"u", "v", "value"})
        for field in ("u", "v"):
            if item[field] not in index:
                _fail(f"{path}.{field}", f"unknown basis name {item[field]!r}")
        i, j = index[item["u"]], index[item["v"]]
        if i >= j:
            _fail(path, "u must come before v in the basis")
        return i, j

    if not isinstance(doc["brackets"], list):
        _fail("brackets", "expected a list")
    brackets = {}
    for pos, item in enumerate(doc["brackets"]):
        path = f"brackets[{pos}]"
        i, j = edge(item, path)
        if (i, j) in brackets:
            _fail(path, f"duplicate bracket for ({item['u']}, {item['v']})")
        value = item["value"]
        if not isinstance(value, dict):
            _fail(f"{path}.value", "expected an object of coefficients")
        coeffs = {}
        for name, text in value.items():
            if name not in index:
                _fail(f"{path}.value.{name}", "unknown basis name")
            c = _fraction_coeff(text, f"{path}.value.{name}")
            if c:
                coeffs[index[name]] = c
        brackets[(i, j)] = coeffs

    if not isinstance(doc["omega"], list):
        _fail("omega", "expected a list")
    entries = [list(row) for row in Matrix.zeros(dim, dim).entries]
    seen = set()
    for pos, item in enumerate(doc["omega"]):
        path = f"omega[{pos}]"
        i, j = edge(item, path)
        if (i, j) in seen:
            _fail(path, f"duplicate omega entry for ({item['u']}, {item['v']})")
        seen.add((i, j))
        c = _fraction_coeff(item["value"], f"{path}.value")
        entries[i][j] = c
        entries[j][i] = -c
    form = SkewForm(Matrix.from_rows(entries))

    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        _fail("meta", "expected an object")
    return LieAlgebra.from_sparse(tuple(basis), brackets), form, dict(meta)


# ---------------------------------------------------------------------------
# the unpacked int flatness kernels

def int_sum_lie_admissibility_failure(product: ProductTensor,
                                      bracket: ProductTensor):
    """The first basis pair (i, j), i < j, where e_i o e_j - e_j o e_i
    differs from [e_i, e_j], or None; compared over the rows of both
    integrals, times pden bden."""
    n = product.dim
    pden, p = product.integral
    bden, b = bracket.integral
    for i in range(n):
        for j in range(i + 1, n):
            if any(int_sum(((bden, p[i][j]), (-bden, p[j][i]), (-pden, b[i][j])), n)):
                return (i, j)
    return None


def int_sum_first_curvature_violation(product: ProductTensor, bracket: tuple):
    """first_curvature_violation with the bracket table given as its
    integral (bden, rows), as in :attr:`ProductTensor.integral`."""
    den, nz = product.integral
    bden, br = bracket
    n = product.dim
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                # den^2 * bden times the residual at e_m
                if any(int_sum([(den * c, nz[a][m]) for a, c in br[i][j]]
                               + [(-bden * c, nz[i][k]) for k, c in nz[j][m]]
                               + [(bden * c, nz[j][k]) for k, c in nz[i][m]], n)):
                    return (i, j)
    return None


def int_sum_associators(p: ProductTensor) -> tuple:
    """int_associators[i][j][k] = den^2 ((e_i o e_j) o e_k - e_i o (e_j o e_k))
    as a tuple of n ints, each one :func:`int_sum` over the rows of
    :attr:`integral`."""
    n = p.dim
    _, rows = p.integral
    return tuple(tuple(tuple(
        tuple(int_sum([(c, rows[a][k]) for a, c in rows[i][j]]
                      + [(-c, rows[i][b]) for b, c in rows[j][k]], n))
        for k in range(n)) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# the Matrix that held scalars
#
# The bodies of the Matrix methods and of the elimination entry points as
# they ran when a Matrix kept its entries as scalars, with self renamed to
# the first argument; they read the scalar view ``entries``.

def _fraction_int_row(v) -> list:
    """A positive multiple of v as a list of ints: v itself when its
    entries are ints, else the numerators of its entries over their lcm
    denominator."""
    if all(type(x) is int for x in v):
        return list(v)
    return integral([x if type(x) is int else as_q(x) for x in v])[1]


def _fraction_reduced(rows: list, pivots, start: int = 0) -> list:
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append(tuple(rational(x, p) if x else ZERO for x in row[start:]))
    return out


def _fraction_same_shape(a: Matrix, other: Matrix):
    if a.shape != other.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {other.shape}")


def fraction_matrix_add(a: Matrix, other: Matrix) -> Matrix:
    _fraction_same_shape(a, other)
    return Matrix(a.rows, a.cols,
                  tuple(tuple(b if not x else x if not b else x + b
                              for x, b in zip(r1, r2))
                        for r1, r2 in zip(a.entries, other.entries)))


def fraction_matrix_sub(a: Matrix, other: Matrix) -> Matrix:
    _fraction_same_shape(a, other)
    return Matrix(a.rows, a.cols,
                  tuple(tuple(x if not b else -b if not x else x - b
                              for x, b in zip(r1, r2))
                        for r1, r2 in zip(a.entries, other.entries)))


def fraction_matrix_neg(a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols,
                  tuple(tuple(-x for x in row) for row in a.entries))


def fraction_matrix_scale(a: Matrix, c) -> Matrix:
    c = as_q(c)
    if not c:
        return Matrix.zeros(a.rows, a.cols)
    return Matrix(a.rows, a.cols,
                  tuple(tuple(c * x if x else ZERO for x in row)
                        for row in a.entries))


def fraction_matrix_matmul(a: Matrix, other: Matrix) -> Matrix:
    if a.cols != other.rows:
        raise ValueError(f"shape mismatch: {a.shape} @ {other.shape}")
    # each row of the product weights the rows of other by a row of a
    return Matrix(a.rows, other.cols,
                  tuple(tuple(accumulate([ZERO] * other.cols, row, other.entries))
                        for row in a.entries))


def fraction_matrix_apply(a: Matrix, v) -> tuple:
    if len(v) != a.cols:
        raise ValueError("vector length mismatch")
    return tuple(vdot(row, tuple(v)) for row in a.entries)


def fraction_matrix_transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows,
                  tuple(a.col(j) for j in range(a.cols)))


def fraction_matrix_trace(a: Matrix):
    if not a.is_square:
        raise ValueError("trace of a non-square matrix")
    acc = ZERO
    for i in range(a.rows):
        acc += a.entries[i][i]
    return acc


def fraction_matrix_hstack(a: Matrix, other: Matrix) -> Matrix:
    if a.rows != other.rows:
        raise ValueError("row count mismatch in hstack")
    return Matrix(a.rows, a.cols + other.cols,
                  tuple(r1 + r2 for r1, r2 in zip(a.entries, other.entries)))


def fraction_matrix_rref(m: Matrix) -> RrefResult:
    rows = [_fraction_int_row(row) for row in m.entries]
    pivots = _rref_rows(rows, m.cols)
    reduced = _fraction_reduced(rows, pivots) + [(ZERO,) * m.cols] * (m.rows - len(pivots))
    return RrefResult(Matrix(m.rows, m.cols, tuple(reduced)), tuple(pivots), len(pivots))


def fraction_matrix_solve(m: Matrix, b) -> tuple:
    b = vector(b)
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    rows = [_fraction_int_row((*row, bi)) for row, bi in zip(m.entries, b)]
    pivots = _rref_rows(rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        raise NoSolutionError("right-hand side not in the image")
    x = [ZERO] * m.cols
    for c, (xc,) in zip(pivots, _fraction_reduced(rows, pivots, m.cols)):
        x[c] = xc
    return tuple(x)


def fraction_matrix_inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    rows = m.entries
    n = len(rows)
    work = [_fraction_int_row((*row, *(int(k == i) for k in range(n))))
            for i, row in enumerate(rows)]
    pivots = _rref_rows(work, 2 * n)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    inv = [[x * (den // row[c]) for x in row[n:]] for row, c in zip(work, pivots)]
    return Matrix(n, n, tuple(tuple(rational(x, den) if x else ZERO for x in r) for r in inv))


def fraction_matrix_kernel(m: Matrix) -> Subspace:
    rows = [_fraction_int_row(row) for row in m.entries]
    pivots = _rref_rows(rows, m.cols)
    pivot_set = set(pivots)
    gens = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        # x_f = 1 and x_c = -rows[r][f] / pivot for pivot column c of row r,
        # all times the lcm of those pivots
        used = [(c, row[c], row[f]) for row, c in zip(rows, pivots) if row[f]]
        scale = lcm(*(p for _, p, _ in used))
        v = [0] * m.cols
        v[f] = scale
        for c, p, x in used:
            v[c] = -x * (scale // p)
        gens.append(v)
    return Subspace.span(m.cols, gens)


# ---------------------------------------------------------------------------
# the kernels that eliminated twice
#
# The bodies of _kernel, common_kernel, subspace_intersect, the center and
# multiplication_kernels as they ran before each canonical subspace came
# from one elimination: _kernel made its generators canonical with a
# second elimination (Subspace.span), subspace_intersect eliminated three
# times, and the center and the multiplication kernels went through
# common_kernel's transposed dense grids.  Only the names of the called
# copies are changed.

def respan_kernel(rows: list, ncols: int) -> Subspace:
    """The null space of the int rows, which are eliminated in place."""
    pivots = _rref_rows(rows, ncols)
    pivot_set = set(pivots)
    gens = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # x_f = 1 and x_c = -rows[r][f] / pivot for pivot column c of row r,
        # all times the lcm of those pivots
        used = [(c, row[c], row[f]) for row, c in zip(rows, pivots) if row[f]]
        scale = lcm(*(p for _, p, _ in used))
        v = [0] * ncols
        v[f] = scale
        for c, p, x in used:
            v[c] = -x * (scale // p)
        gens.append(v)
    return Subspace.span(ncols, gens)


def respan_common_kernel(maps, n: int) -> Subspace:
    """{u in Q^n : sum_i u_i maps[i] = 0} as a canonical subspace.

    Each maps[i] is a nonempty grid (a sequence of equal-length
    vectors), so a family of matrices, bracket-table rows or
    product-table columns all fit; entry (a, b) of the grids is one
    equation, read as ints by :func:`_int_row`.  The result is
    canonical, so the order and scale of the equations cannot change it.
    """
    if n == 0:
        return Subspace.zero(0)
    # an all-zero equation constrains nothing
    rows = tuple(r for r in zip(*[[x for cells in m for x in cells] for m in maps])
                 if any(r))
    if not rows:
        return Subspace.full(n)
    return respan_kernel([_int_row(r)[1] for r in rows], n)


def three_elimination_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked system [A | -B], with the
    columns of A and B as their integral numerators."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    cols = [dense(c, n) for c in a.integral] + [[-x for x in dense(c, n)] for c in b.integral]
    acols, meet = a.integral, respan_kernel(list(map(list, zip(*cols))), len(cols))
    return Subspace.span(n, [int_sum(((c, acols[j]) for j, c in k if j < a.dim), n)
                             for k in meet.integral])


def grid_center(algebra) -> Subspace:
    # ad_u = sum_i u_i ad_{e_i}, and rows[i] lists the columns of ad_{e_i}
    n = algebra.dim
    _, rows = algebra.bracket_tensor.integral
    return respan_common_kernel([[dense(cell, n) for cell in row] for row in rows], n)


def grid_multiplication_kernels(s: SymplecticLieAlgebra) -> MultiplicationKernels:
    n = s.dim
    _, rows = s.canonical_product.integral
    table = [[dense(cell, n) for cell in row] for row in rows]
    # L_u = sum_i u_i L_{e_i}, and table[i] lists the columns of L_{e_i}
    return MultiplicationKernels(respan_common_kernel(table, n),
                                 respan_common_kernel(list(zip(*table)), n),
                                 Subspace.span(n, [v for row in table for v in row]))


# ---------------------------------------------------------------------------
# the front half of flatness before its last loops were packed

# The bodies of SymplecticLieAlgebra.canonical_product, LieAlgebra.validate
# and _first_curvature_violation as they ran before the canonical product
# packed W^-1 by columns, the Jacobi test packed the bracket, and the
# curvature loop packed each pair's residual over (m, k): n^2 small
# multiply-adds per product cell, one int_sum per Jacobi triple, and one
# packed residual per (i, j, m).  Only self is renamed to the first argument.

def n4_canonical_product(s) -> ProductTensor:
    """The torsion-free symplectic product described in the module docstring."""
    n = s.dim
    # the dual matrix -W^-1 is -inv / iden
    iden, inv = s.form.int_inverse
    inv = [sparse(r) for r in inv]
    # c[i][j][w] = cden * omega([e_i, e_j], e_w)
    cden, c = s.omega_brackets
    # e_i o e_j = dual . phi with phi_w = (c[i][j][w] + c[i][w][j]) / (3 cden)
    rows = []
    for i in range(n):
        cells = []
        for j in range(n):
            phi = [c[i][j][w] + c[i][w][j] for w in range(n)]
            cells.append(sparse([-sum(x * phi[w] for w, x in inv_k) for inv_k in inv]))
        rows.append(cells)
    return ProductTensor.from_integral(n, 3 * cden * iden, rows)


def int_sum_validate(algebra) -> tuple:
    """All Jacobi violations on basis triples i < j < k (empty = valid).

    The sum is one :func:`int_sum` over the integer rows of the
    bracket's :attr:`ProductTensor.integral`, so it is den^2 times the
    residual; only a failing triple's residual becomes scalars.
    """
    n = algebra.dim
    den, rows = algebra.bracket_tensor.integral
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                acc = int_sum([(c, rows[a][m]) for cell, m in ((rows[i][j], k),
                               (rows[j][k], i), (rows[k][i], j)) for a, c in cell], n)
                if any(acc):
                    res = tuple(rational(x, den * den) for x in acc)
                    out.append(JacobiViolation((i, j, k), res))
    return tuple(out)


def per_m_first_curvature_violation(product: ProductTensor,
                                    bracket: ProductTensor):
    """first_curvature_violation with the bracket as a tensor.  Each
    residual is one packed int, summed over the nonzero entries; its
    components are at most n den mb mp + 2n bden mp^2 for the largest
    |numerators| mp and mb of the product and the bracket."""
    den, nz = product.integral
    bden, br = bracket.integral
    n, mp, mb = product.dim, product.max_numerator, bracket.max_numerator
    p = PackedCells(product, n * den * mb * mp + 2 * n * bden * mp * mp).cells
    for i in range(n):
        pi, nzi = p[i], nz[i]
        for j in range(i + 1, n):
            pj, nzj, bij = p[j], nz[j], br[i][j]
            for m in range(n):
                # den^2 * bden times the residual at e_m
                b = 0
                for a, c in bij:
                    b += c * p[a][m]
                r = 0
                for k, c in nzi[m]:
                    r += c * pj[k]
                for k, c in nzj[m]:
                    r -= c * pi[k]
                if den * b + bden * r:
                    return (i, j)
    return None


# ---------------------------------------------------------------------------
# the classification before containment decided it

# The bodies of LieAlgebra._derived_subspace, _lower_central_series,
# _derived_series, catalog.fingerprint, ProductTensor.from_integral and
# LieAlgebra.from_integral as they ran before a term in the center ended
# a series, a containment decided dim(Z meet D) and the bracket tensor
# was built canonical in one pass: every bracket cell is eliminated, every
# series term is a bracket span, the meet always takes subspace_sum, and
# from_integral fills in both halves and then canonicalizes every cell.
# Only self is renamed to the first argument and the names of the called
# copies are changed.

def all_cells_derived_subspace(algebra) -> Subspace:
    n = algebra.dim
    _, rows = algebra.bracket_tensor.integral
    return Subspace.from_integral(n, [dense(rows[i][j], n) for i in range(n)
                                      for j in range(i + 1, n)])


def span_lower_central_series(algebra) -> LowerCentralSeries:
    units = [((i, 1),) for i in range(algebra.dim)]
    terms = [Subspace.full(algebra.dim)]
    nxt = all_cells_derived_subspace(algebra)  # C^2 = [g, g]
    while nxt != terms[-1]:
        terms.append(nxt)
        nxt = algebra._bracket_span((e, v) for e in units for v in nxt.integral)
    nilpotent = terms[-1].dim == 0
    cls = len(terms) - 1 if nilpotent else None
    return LowerCentralSeries(tuple(terms), cls)


def span_derived_series(algebra) -> DerivedSeries:
    terms = [all_cells_derived_subspace(algebra)]
    while True:
        cols = terms[-1].integral
        # [u, u] = 0 and [v, u] = -[u, v], so the pairs a < b span it
        nxt = algebra._bracket_span((cols[a], cols[b]) for a in range(len(cols))
                                    for b in range(a + 1, len(cols)))
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return DerivedSeries(tuple(terms), terms[-1].dim == 0)


def sum_fingerprint(algebra) -> Fingerprint:
    if isinstance(algebra, SymplecticLieAlgebra):
        algebra = algebra.algebra
    center = algebra.center()
    derived = all_cells_derived_subspace(algebra)
    return Fingerprint(
        dim=algebra.dim,
        lower_central_dims=span_lower_central_series(algebra).dims,
        derived_series_dims=span_derived_series(algebra).dims,
        center_dim=center.dim,
        derived_dim=derived.dim,
        # dim(Z meet D) = dim Z + dim D - dim(Z + D)
        center_meets_derived_dim=(center.dim + derived.dim
                                  - subspace_sum(center, derived).dim),
    )


def generator_product_from_integral(dim: int, den: int, rows) -> ProductTensor:
    """The product with e_a o e_m = rows[a][m] / den, for den > 0 and
    each cell a sequence of (k, num) with increasing k.

    den and every numerator are divided by their one gcd and zero
    numerators are dropped, so :attr:`integral` is canonical.  No
    scalar is built.
    """
    g = gcd(den, *[x for row in rows for cell in row for _, x in cell])
    out = ProductTensor.__new__(ProductTensor)
    out.dim = dim
    out.integral = (den // g, tuple(tuple(tuple((k, x // g) for k, x in cell if x)
                                          for cell in row) for row in rows))
    return out


def two_pass_lie_from_integral(names, den: int, brackets) -> LieAlgebra:
    """Build from ``{(i, j): ((k, num), ...)}`` with ``i < j`` (0-based):
    [e_i, e_j] = sum of num e_k / den, with k increasing, through
    :meth:`ProductTensor.from_integral`, so no scalar is built."""
    names = tuple(names)
    n = len(names)
    rows = [[()] * n for _ in range(n)]
    for (i, j), cell in brackets.items():
        if not (0 <= i < j < n):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        rows[i][j] = cell
        rows[j][i] = tuple((k, -x) for k, x in cell)
    return LieAlgebra._of(names, generator_product_from_integral(n, den, rows))
