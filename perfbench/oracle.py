"""Independent correctness oracle for the benchmark.

Plain ``fractions.Fraction`` arithmetic on dense coordinate lists.  It
imports nothing from ``symplie``: every matrix routine, the canonical
product, the flatness test, the invariants and the double extension are
written again here from their definitions, so an output of the program
is checked by code that shares no path with the code that produced it.

An :class:`Algebra` holds ``table[i][j]`` = coordinates of [e_i, e_j]
(full and antisymmetric) and the Gram matrix ``gram[i][j]`` =
omega(e_i, e_j).
"""

from __future__ import annotations

import json
from fractions import Fraction

Z = Fraction(0)


class OracleError(Exception):
    """An output failed an independent check; the message says which."""


# ---------------------------------------------------------------------------
# linear algebra

def _echelon(rows: list, ncols: int) -> list:
    """Reduce rows in place to reduced row echelon form; return pivots."""
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(rows: list, ncols: int) -> int:
    return len(_echelon([list(r) for r in rows], ncols))


def span(vectors: list, n: int) -> list:
    """Canonical basis (reduced echelon rows) of the span of vectors."""
    rows = [list(v) for v in vectors]
    return [tuple(r) for r in rows[:len(_echelon(rows, n))]]


def nullspace(rows: list, ncols: int) -> list:
    rows = [list(r) for r in rows]
    pivots = _echelon(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Z] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        out.append(tuple(v))
    return out


def inverse(m: list) -> list:
    n = len(m)
    rows = [list(row) + [Fraction(int(i == k)) for k in range(n)]
            for i, row in enumerate(m)]
    if _echelon(rows, n) != list(range(n)):
        raise OracleError("matrix is singular")
    return [row[n:] for row in rows]


def transpose(m: list) -> list:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a: list, b: list) -> list:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col) if x and y), Z) for col in bt]
            for row in a]


def apply(m: list, v) -> list:
    return [sum((x * y for x, y in zip(row, v) if x and y), Z) for row in m]


# ---------------------------------------------------------------------------
# algebras

class Algebra:
    def __init__(self, table: list, gram: list):
        self.n = len(gram)
        self.table = table
        self.gram = gram

    @classmethod
    def from_entries(cls, n: int, brackets: dict, omega: dict) -> "Algebra":
        """From upper-triangle entries {(i, j): {k: c}} and {(i, j): c}."""
        table = [[[Z] * n for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in brackets.items():
            for k, c in coeffs.items():
                table[i][j][k] = Fraction(c)
                table[j][i][k] = -Fraction(c)
        gram = [[Z] * n for _ in range(n)]
        for (i, j), c in omega.items():
            gram[i][j] = Fraction(c)
            gram[j][i] = -Fraction(c)
        return cls(table, gram)

    def bracket(self, u, v) -> list:
        out = [Z] * self.n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += ab * c
        return out

    def omega(self, u, v):
        return sum((a * g * b for a, row in zip(u, self.gram) if a
                    for g, b in zip(row, v) if g and b), Z)

    def same_as(self, other: "Algebra") -> bool:
        return self.table == other.table and self.gram == other.gram


def unit(n: int, i: int) -> list:
    v = [Z] * n
    v[i] = Fraction(1)
    return v


def symplectic_failures(a: Algebra) -> list:
    """Broken axioms: skewness, nondegeneracy, Jacobi, closedness."""
    n, t = a.n, a.table
    out = []
    if any(a.gram[i][j] != -a.gram[j][i] for i in range(n) for j in range(n)):
        out.append("form is not skew")
    if rank(a.gram, n) != n:
        out.append("form is degenerate")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = [unit(n, i), unit(n, j), unit(n, k)]
                jac = [x + y + z for x, y, z in zip(
                    a.bracket(t[i][j], e[2]), a.bracket(t[j][k], e[0]),
                    a.bracket(t[k][i], e[1]))]
                if any(jac):
                    out.append(f"Jacobi fails at {(i, j, k)}")
                if (a.omega(t[i][j], e[2]) + a.omega(t[j][k], e[0])
                        + a.omega(t[k][i], e[1])):
                    out.append(f"form not closed at {(i, j, k)}")
    return out


def canonical_product(a: Algebra) -> list:
    """prod[i][j] = e_i . e_j from 3 w(x.y, z) = w([x,y], z) + w([x,z], y)."""
    n, t = a.n, a.table
    # w(v, e_w) = (gram^T v)_w, so v = (gram^T)^-1 phi
    solve = inverse(transpose(a.gram)) if n else []
    # low[i][j][w] = w([e_i, e_j], e_w)
    low = [[[sum((c * a.gram[k][w] for k, c in enumerate(t[i][j]) if c), Z)
             for w in range(n)] for j in range(n)] for i in range(n)]
    third = Fraction(1, 3)
    return [[apply(solve, [third * (low[i][j][w] + low[i][w][j]) for w in range(n)])
             for j in range(n)] for i in range(n)]


def _combine(vectors, coeffs) -> list:
    """sum_m coeffs[m] * vectors[m]."""
    out = None
    for c, vec in zip(coeffs, vectors):
        if not c:
            continue
        if out is None:
            out = [Z] * len(vec)
        for k, x in enumerate(vec):
            if x:
                out[k] += c * x
    return out or [Z] * len(vectors[0])


def left_symmetry_failure(prod: list):
    """First (i, j, k) where the associator (x,y,z) - (y,x,z) is nonzero."""
    n = len(prod)
    cols = [[prod[m][k] for m in range(n)] for k in range(n)]  # cols[k][m] = e_m . e_k
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # (ei.ej).ek - ei.(ej.ek) against (ej.ei).ek - ej.(ei.ek)
                lhs = [p - q for p, q in zip(_combine(cols[k], prod[i][j]),
                                             _combine(prod[i], prod[j][k]))]
                rhs = [p - q for p, q in zip(_combine(cols[k], prod[j][i]),
                                             _combine(prod[j], prod[i][k]))]
                if lhs != rhs:
                    return (i, j, k)
    return None


def first_curvature_violation(a: Algebra, prod: list):
    """First pair i < j with L_[ei,ej] != [L_ei, L_ej], on basis vectors."""
    n = a.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                lhs = _combine([prod[m][k] for m in range(n)], a.table[i][j])
                rhs = [p - q for p, q in zip(_combine(prod[i], prod[j][k]),
                                             _combine(prod[j], prod[i][k]))]
                if lhs != rhs:
                    return (i, j)
    return None


def is_lie_admissible(a: Algebra, prod: list) -> bool:
    n = a.n
    return all([p - q for p, q in zip(prod[i][j], prod[j][i])] == a.table[i][j]
               for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# invariants

def center(a: Algebra) -> list:
    n = a.n
    # u is central iff sum_i u_i [e_i, e_j] = 0 for every j
    rows = [[a.table[i][j][k] for i in range(n)]
            for j in range(n) for k in range(n)]
    return span(nullspace(rows, n), n) if n else []


def derived(a: Algebra) -> list:
    n = a.n
    return span([a.table[i][j] for i in range(n) for j in range(i + 1, n)], n)


def lower_central_dims(a: Algebra) -> tuple:
    n = a.n
    term = span([unit(n, i) for i in range(n)], n)
    dims = [len(term)]
    while True:
        nxt = span([a.bracket(unit(n, i), v) for i in range(n) for v in term], n)
        if len(nxt) == len(term):
            break
        term = nxt
        dims.append(len(term))
    return tuple(dims)


def derived_series_dims(a: Algebra) -> tuple:
    n = a.n
    term = derived(a)
    dims = [len(term)]
    while True:
        nxt = span([a.bracket(u, v) for u in term for v in term], n)
        if len(nxt) == len(term):
            break
        term = nxt
        dims.append(len(term))
    return tuple(dims)


def nilpotency_class(a: Algebra):
    dims = lower_central_dims(a)
    return len(dims) - 1 if dims[-1] == 0 else None


def subspace_kind(a: Algebra, basis: list) -> str:
    """lagrangian, totally_isotropic, degenerate or nondegenerate."""
    gram = [[a.omega(u, v) for v in basis] for u in basis]
    r = rank(gram, len(basis))
    if r == 0 and 2 * len(basis) == a.n:
        return "lagrangian"
    if r == 0:
        return "totally_isotropic"
    return "degenerate" if r < len(basis) else "nondegenerate"


def is_unimodular(a: Algebra) -> bool:
    n = a.n
    return all(sum((a.table[i][j][j] for j in range(n)), Z) == 0
               for i in range(n))


def fingerprint(a: Algebra) -> tuple:
    z, d = center(a), derived(a)
    meet = len(z) + len(d) - len(span(z + d, a.n))
    return (a.n, lower_central_dims(a), derived_series_dims(a),
            len(z), len(d), meet)


# ---------------------------------------------------------------------------
# verdicts

def check_flat_algebra(a: Algebra, product=None) -> list:
    """Check a claimed flat output; return its canonical product.

    Axioms, the canonical product (compared with ``product`` when the
    program's own table is given), Lie-admissibility, left-symmetry, and
    the paper's facts for flat algebras: nilpotent, and for nonabelian
    ones a degenerate center and a degenerate derived ideal.
    """
    failures = symplectic_failures(a)
    if failures:
        raise OracleError("; ".join(failures[:3]))
    prod = canonical_product(a)
    if product is not None and [list(map(list, r)) for r in product] != prod:
        raise OracleError("canonical product differs from the oracle's")
    if not is_lie_admissible(a, prod):
        raise OracleError("canonical product is not Lie-admissible")
    bad = left_symmetry_failure(prod)
    if bad is not None:
        raise OracleError(f"not flat: left-symmetry fails at {bad}")
    if nilpotency_class(a) is None:
        raise OracleError("flat algebra is not nilpotent")
    if derived(a):
        if subspace_kind(a, center(a)) == "nondegenerate":
            raise OracleError("center of a flat nonabelian algebra is nondegenerate")
        if subspace_kind(a, derived(a)) == "nondegenerate":
            raise OracleError("derived ideal of a flat nonabelian algebra is nondegenerate")
    return prod


class ClassTable:
    """Fingerprint -> class name, computed by the oracle from representatives."""

    def __init__(self, representatives: dict):
        self.table = {}
        for name, alg in representatives.items():
            fp = fingerprint(alg)
            if fp in self.table:
                raise OracleError(f"fingerprint collision for {name}")
            self.table[fp] = name

    def classify(self, a: Algebra) -> str:
        return self.table.get(fingerprint(a), "Unknown")


# ---------------------------------------------------------------------------
# double extension

def adjoint(a: Algebra, f: list) -> list:
    """f* with omega(f x, y) = omega(x, f* y), i.e. W^-1 f^T W."""
    return matmul(matmul(inverse(a.gram), transpose(f)), a.gram) if a.n else []


def double_extend(base: Algebra, xi: list, b0: list) -> Algebra:
    """The double extension in coordinates [e, base..., ebar].

    e is central and omega(e, ebar) = 1; for base vectors a, b
      [a, b]    = [a, b]_B + omega_B((xi + xi*) a, b) e
      [ebar, a] = (xi* - 2 xi) a + omega_B(b0, a) e
    """
    n = base.n
    m = n + 2
    xs = adjoint(base, xi)
    sym = [[x + y for x, y in zip(r, s)] for r, s in zip(xi, xs)]
    d = [[y - 2 * x for x, y in zip(r, s)] for r, s in zip(xi, xs)]
    brackets = {}
    for p in range(n):
        for q in range(p + 1, n):
            coeffs = {1 + k: c for k, c in enumerate(base.table[p][q]) if c}
            c0 = base.omega([row[p] for row in sym], unit(n, q))
            if c0:
                coeffs[0] = c0
            brackets[(1 + p, 1 + q)] = coeffs
    for p in range(n):
        # [a, ebar] = -[ebar, a]
        coeffs = {1 + k: -row[p] for k, row in enumerate(d) if row[p]}
        c0 = -base.omega(b0, unit(n, p))
        if c0:
            coeffs[0] = c0
        brackets[(1 + p, n + 1)] = coeffs
    omega = {(0, n + 1): Fraction(1)}
    for p in range(n):
        for q in range(p + 1, n):
            if base.gram[p][q]:
                omega[(1 + p, 1 + q)] = base.gram[p][q]
    return Algebra.from_entries(m, brackets, omega)


ZERO_ALGEBRA = Algebra([], [])


def rebuild_tower(steps: list) -> Algebra:
    """Extend from the zero algebra by (xi, b0) pairs, innermost first."""
    alg = ZERO_ALGEBRA
    for xi, b0 in steps:
        if len(b0) != alg.n or len(xi) != alg.n:
            raise OracleError(f"tower step for base dimension {alg.n} has "
                              f"size {len(b0)}")
        alg = double_extend(alg, xi, b0)
    return alg


# ---------------------------------------------------------------------------
# documents (the JSON format read and written by the program's CLI)

def write_document(names: list, a: Algebra) -> str:
    n = a.n
    brackets, omega = [], []
    for i in range(n):
        for j in range(i + 1, n):
            value = {names[k]: str(c) for k, c in enumerate(a.table[i][j]) if c}
            if value:
                brackets.append({"u": names[i], "v": names[j], "value": value})
            if a.gram[i][j]:
                omega.append({"u": names[i], "v": names[j],
                              "value": str(a.gram[i][j])})
    return json.dumps({"dim": n, "basis": list(names), "brackets": brackets,
                       "omega": omega}, indent=2) + "\n"


def read_document(text: str) -> Algebra:
    doc = json.loads(text)
    names = doc["basis"]
    if len(names) != doc["dim"]:
        raise OracleError("document basis does not match its dim")
    index = {name: k for k, name in enumerate(names)}
    brackets = {(index[b["u"]], index[b["v"]]):
                {index[k]: Fraction(c) for k, c in b["value"].items()}
                for b in doc["brackets"]}
    omega = {(index[w["u"]], index[w["v"]]): Fraction(w["value"])
             for w in doc["omega"]}
    return Algebra.from_entries(len(names), brackets, omega)


def write_pair(xi: list, b0: list) -> str:
    return json.dumps({"base_dim": len(b0),
                       "xi": [[str(x) for x in row] for row in xi],
                       "b0": [str(x) for x in b0]}, indent=2) + "\n"


def read_pair(doc: dict) -> tuple:
    xi = [[Fraction(x) for x in row] for row in doc["xi"]]
    b0 = [Fraction(x) for x in doc["b0"]]
    if doc["base_dim"] != len(b0):
        raise OracleError("pair base_dim does not match b0")
    return xi, b0


def read_tower(text: str) -> list:
    return [read_pair(step) for step in json.loads(text)["steps"]]


def change_basis(a: Algebra, t: list) -> Algebra:
    """The same structure in the basis given by the columns of t."""
    n = a.n
    tinv = inverse(t)
    cols = transpose(t)
    table = [[apply(tinv, a.bracket(cols[i], cols[j])) for j in range(n)]
             for i in range(n)]
    return Algebra(table, matmul(matmul(transpose(t), a.gram), t))
