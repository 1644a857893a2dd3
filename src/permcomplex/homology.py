"""Integer chain complexes, Smith normal form, and (co)homology.

All linear algebra is exact: Python integers for elimination and Smith
normal form, Fractions only transiently when inverting unimodular
matrices.  A chain complex holds each boundary matrix as sparse columns,
one {row index: nonzero coefficient} dict per column, from assembly
through the d o d check to elimination.  `homology` reduces the boundary
matrices from the top degree down by sparse unit-pivot elimination and
runs the dense Smith normal form only on the block that has no unit
pivot.  Before it reduces D_d it drops the columns at the unit pivot rows
of D_{d+1} (clearing, the "twist" of Chen and Kerber): D_{d+1} is
unimodular on those rows and its pivot columns, so modulo boundaries each
such basis element is an integer chain on the others, and D_d D_{d+1} = 0
puts its column of D_d in the span of the columns that stay.  Candidate
pivots wait in a heap keyed by Markowitz cost; a key is checked and, if
the cost has risen, renewed only when its entry reaches the top, so no
step rescans the matrix.  Dense matrices (lists of rows) appear only at
the edges: `ChainComplexData.matrix`, the Smith normal form,
`invariant_factors` and `rank_mod_p`.

`complex_from_boundary` is the one assembler.  Given the gradient flow
of an acyclic matching as a `flow` function, it assembles the Morse
complex instead: only the critical cells, each boundary term that is
not critical replaced by the critical cells its gradient paths reach.
The CLI's `homology` and `tor` take that route with the last-element
matching of `permutohedron.last_element_matching`, whose paths have a
closed form: the last element moves one block at a time, so no boundary
of a paired cell is taken.  `homology` checks d o d on whatever complex
it is given, so on that route it checks the Morse complex.  The d o d of
the full boundary stays checked where every face is assembled:
acceptance criterion 1 (full Perm for m <= 7) and the benchmark's
library jobs.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


class BoundaryError(ValueError):
    """Raised when the matrices of a complex do not square to zero."""


# ---------------------------------------------------------------------------
# matrix helpers

def zeros(rows: int, cols: int) -> list:
    return [[0] * cols for _ in range(rows)]

def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

def transpose(M: list) -> list:
    return [list(col) for col in zip(*M)] if M else []

def mat_mult(A: list, B: list) -> list:
    if not A or not B:
        return []
    n, k, p = len(A), len(B), len(B[0])
    Bt = transpose(B)
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(p)]
            for i in range(n)]

def integer_inverse(U: list) -> list:
    """Inverse of a unimodular integer matrix (exact, via Fractions)."""
    n = len(U)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(U)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inv = [[x for x in row[n:]] for row in aug]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(M: list):
    """Compute unimodular S, T and diagonal D with S * M * T = D.

    Diagonal entries are nonnegative and each divides the next.  Each step
    pivots on a nonzero entry of least absolute value.
    """
    D = [list(row) for row in M]
    rows = len(D)
    cols = len(D[0]) if D else 0
    S = identity(rows)
    T = identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in T:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]

    def add_col(src, dst, q):
        for row in D:
            row[dst] += q * row[src]
        for row in T:
            row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        S[i] = [-x for x in S[i]]

    def select_pivot(k):
        candidates = [(i, j) for i in range(k, rows) for j in range(k, cols)
                      if D[i][j] != 0]
        if not candidates:
            return None
        return min(candidates, key=lambda ij: abs(D[ij[0]][ij[1]]))

    k = 0
    while k < min(rows, cols):
        pos = select_pivot(k)
        if pos is None:
            break
        # clear row and column k; the least nonzero remainder becomes the
        # pivot at once, since reducing by a larger pivot first lets the
        # entries grow exponentially
        while True:
            swap_rows(k, pos[0])
            swap_cols(k, pos[1])
            for i in range(k + 1, rows):
                if D[i][k] != 0:
                    add_row(k, i, -(D[i][k] // D[k][k]))
            for j in range(k + 1, cols):
                if D[k][j] != 0:
                    add_col(k, j, -(D[k][j] // D[k][k]))
            rest = ([(i, k) for i in range(k + 1, rows) if D[i][k] != 0]
                    + [(k, j) for j in range(k + 1, cols) if D[k][j] != 0])
            if not rest:
                break
            pos = min(rest, key=lambda ij: abs(D[ij[0]][ij[1]]))
        # enforce divisibility of the remaining block by the pivot
        bad = next((i for i in range(k + 1, rows)
                    if any(D[i][j] % D[k][k] for j in range(k + 1, cols))), None)
        if bad is not None:
            add_row(bad, k, 1)
            continue
        k += 1

    for i in range(min(rows, cols)):
        if D[i][i] < 0:
            negate_row(i)
    return S, D, T


def _eliminate(columns: list, p: int = 0):
    """Sparse unit-pivot elimination of the integer matrix whose columns are
    the {row index: entry} dicts `columns`.

    Over Z (p = 0) only an entry +-1 is a pivot; over GF(p) entries are
    reduced mod p and every nonzero entry is one.  Candidate pivots wait in
    a heap keyed by Markowitz cost (row nnz - 1) * (col nnz - 1), ties broken
    by (row, col).  The heap is seeded once with every unit entry; after a
    pivot, only the unit entries its row operations created or changed are
    pushed.  Keys go stale as the matrix changes, so a popped entry that is
    gone or no longer a unit is dropped, and one whose cost has risen is
    pushed back with its new cost; any other is taken.  Every live unit
    entry keeps a heap item, so an empty heap means no unit pivot is left.
    Each pivot's column is cleared with exact row operations and its row
    and column are deleted, which leaves M equivalent to diag(pivots) + the
    rest.  Only rows not yet pivoted are changed, so on its pivot rows and
    columns M is a unitriangular matrix times a triangular one with unit
    diagonal, hence unimodular; `homology` clears by that.  Returns the
    number of pivots, the leftover block as a dense list of rows (always
    empty mod p) and the row index of each pivot, in pivot order.
    """
    rows = {}             # row index -> {col index: nonzero entry}
    for j, column in enumerate(columns):
        for i, v in column.items():
            if p:
                v %= p
            if v:
                rows.setdefault(i, {})[j] = v
    cols = {}             # col index -> set of row indices
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    queue = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
             for i, row in rows.items() for j, v in row.items()
             if p or v == 1 or v == -1]
    heapify(queue)
    pivot_rows = []
    while queue:
        cost, i, j = heappop(queue)
        prow = rows.get(i)
        v = prow.get(j) if prow else None
        if v is None or not (p or v == 1 or v == -1):
            continue
        now = (len(prow) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heappush(queue, (now, i, j))
            continue
        del rows[i]
        for c in prow:
            cols[c].discard(i)
        inv = pow(prow.pop(j), -1, p) if p else prow.pop(j)
        for k in cols.pop(j):
            row = rows[k]
            f = row.pop(j) * inv
            if p:
                f %= p
            units = []    # pushed once row k has its final length
            for c, v in prow.items():
                new = row.get(c, 0) - f * v
                if p:
                    new %= p
                if not new:
                    del row[c]
                    cols[c].discard(k)
                else:
                    if c not in row:
                        cols[c].add(k)
                    row[c] = new
                    if p or new == 1 or new == -1:
                        units.append(c)
            if not row:
                del rows[k]
            r = len(row) - 1
            for c in units:
                heappush(queue, (r * (len(cols[c]) - 1), k, c))
        pivot_rows.append(i)

    left = sorted(c for c, members in cols.items() if members)
    rest = [[row.get(c, 0) for c in left] for row in rows.values()]
    return len(pivot_rows), rest, pivot_rows


def _columns(M: list, ncols: int) -> list:
    """The sparse columns of a dense matrix with `ncols` columns."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(M):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = v
    return columns


def _residue_factors(rest: list) -> list:
    """Nonzero invariant factors of the dense block `_eliminate` leaves."""
    if not rest:
        return []
    _, D, _ = smith_normal_form(rest)
    return [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i]]


def _factors(columns: list) -> list:
    """Nonzero invariant factors of a matrix given by sparse columns."""
    pivots, rest, _ = _eliminate(columns)
    return [1] * pivots + _residue_factors(rest)


def invariant_factors(M: list) -> list:
    """Nonzero invariant factors of M: one 1 per unit pivot, then the Smith
    normal form of the block the unit pivots leave behind."""
    return _factors(_columns(M, len(M[0]) if M else 0))


def rank_mod_p(M: list, p: int) -> int:
    """Rank of an integer matrix over the prime field GF(p)."""
    return _eliminate(_columns(M, len(M[0]) if M else 0), p)[0]


# Miller-Rabin on the 13 primes 2..41 is exact below the least strong
# pseudoprime to all of them, psi_13 (Sorenson and Webster, Math. Comp. 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is a prime, by deterministic Miller-Rabin.  Exact for
    n < PRIME_TEST_BOUND (about 3.3e24); larger n raise ValueError."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for the prime test")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# chain complexes

class ChainComplexData:
    """Graded basis labels plus integer boundary matrices.

    `cols[d]` is the boundary out of degree d as sparse columns: one
    {row index: nonzero coefficient} dict per degree-d basis element, the
    row indices into the degree-(d-1) basis.  The constructor also takes a
    matrix as a dense list of len(basis[d-1]) rows.  Degrees may be
    negative (used for cochain duals, where degree -q holds the
    q-cochains).
    """

    def __init__(self, basis: dict, diff: dict):
        self.basis = {d: list(labels) for d, labels in basis.items()}
        self.index = {d: {label: i for i, label in enumerate(labels)}
                      for d, labels in self.basis.items()}
        self.cols = {d: M if M and isinstance(M[0], dict)
                     else _columns(M, self.dim(d)) for d, M in diff.items()}

    @property
    def diff(self) -> dict:
        """{degree: dense list of rows}, built on every read, for code that
        reads the dense form (perfbench/tracer.py)."""
        return {d: self.matrix(d) for d in self.cols}

    @property
    def degrees(self) -> list:
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, []))

    def matrix(self, d: int) -> list:
        """Boundary matrix out of degree d as a dense list of rows (a zero
        matrix if absent)."""
        M = zeros(self.dim(d - 1), self.dim(d))
        for j, column in enumerate(self.cols.get(d, ())):
            for i, v in column.items():
                M[i][j] = v
        return M

    def check_dd_zero(self) -> bool:
        """True, or BoundaryError naming the degree, the basis label of a
        column of D_{d+1} whose boundary's boundary is not zero, and the
        label of a row where it is not."""
        for d in self.degrees:
            outer, inner = self.cols.get(d), self.cols.get(d + 1)
            if not outer or not inner:
                continue
            for label, column in zip(self.basis[d + 1], inner):
                acc = {}
                for k, v in column.items():
                    for i, w in outer[k].items():
                        acc[i] = acc.get(i, 0) + v * w
                if any(acc.values()):
                    i, v = next((i, v) for i, v in acc.items() if v)
                    raise BoundaryError(
                        f"D_{d} * D_{d + 1} != 0: the column of {label!r} "
                        f"has {v} at the row of {self.basis[d - 1][i]!r}")
        return True

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.dim(d) for d in self.degrees)


def complex_from_boundary(cells_by_dim: dict, boundary_fn, flow=None) -> ChainComplexData:
    """Assemble a ChainComplexData from graded cells and a boundary map
    returning FormalChain, straight into sparse columns.  Cell order within
    a degree is preserved.

    With `flow`, the gradient flow of an acyclic matching (Forman, "Morse
    theory for cell complexes", 1998), the cells are the critical cells
    and the result is the Morse complex: a boundary term z that is not a
    critical cell stands for the (critical cell, coefficient) pairs that
    flow(z) returns, those its gradient paths reach, each coefficient
    times that of z.  A pair whose cell is not critical raises
    BoundaryError.
    """
    C = ChainComplexData(cells_by_dim, {})
    for d in C.degrees:
        index = C.index.get(d - 1)
        if index is None:
            continue
        if flow is not None:
            columns = []
            for cell in C.basis[d]:
                column = {}
                for z, c in boundary_fn(cell):
                    i = index.get(z)
                    if i is not None:
                        column[i] = column.get(i, 0) + c
                        continue
                    for w, v in flow(z):
                        i = index.get(w)
                        if i is None:
                            raise BoundaryError(f"the gradient flow from {z} ends at "
                                                f"{w}, which is not a critical cell")
                        column[i] = column.get(i, 0) + c * v
                columns.append({i: v for i, v in column.items() if v})
            C.cols[d] = columns
            continue
        columns = []
        for cell in C.basis[d]:
            column = {}
            for label, coeff in boundary_fn(cell):
                i = index.get(label)
                if i is None:
                    raise BoundaryError(
                        f"boundary of {cell} leaves the complex at {label}")
                column[i] = coeff
            columns.append(column)
        C.cols[d] = columns
    return C


def cochain_dual(C: ChainComplexData) -> ChainComplexData:
    """Transpose of a chain complex, regraded so that degree -q carries the
    q-cochains; homology of the result at -q is H^q."""
    basis = {-d: [("dual", label) for label in labels]
             for d, labels in C.basis.items()}
    diff = {}
    for q in C.degrees:
        # d on q-cochains is the transpose of the boundary out of q+1
        if C.dim(q + 1) and C.dim(q):
            columns = [{} for _ in range(C.dim(q))]
            for j, column in enumerate(C.cols.get(q + 1, ())):
                for i, v in column.items():
                    columns[i][j] = v
            diff[-q] = columns
    return ChainComplexData(basis, diff)


class HomologySummary:
    """Per-degree free rank and torsion coefficients."""

    def __init__(self, data: dict):
        self.data = dict(data)  # degree -> (betti, [torsion])

    def betti(self, d: int) -> int:
        return self.data.get(d, (0, []))[0]

    def torsion(self, d: int) -> list:
        return self.data.get(d, (0, []))[1]

    def betti_vector(self) -> list:
        degs = [d for d, (b, t) in self.data.items() if b or t]
        if not degs:
            return []
        lo, hi = min(min(degs), 0), max(degs)
        return [self.betti(d) for d in range(lo, hi + 1)]

    def to_json(self) -> list:
        return [{"degree": d, "betti": b, "torsion": list(t)}
                for d, (b, t) in sorted(self.data.items()) if b or t]

    def __repr__(self):
        return f"HomologySummary({self.to_json()})"

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        keys = set(self.data) | set(other.data)
        return all(self.betti(d) == other.betti(d)
                   and self.torsion(d) == other.torsion(d) for d in keys)


def homology(C: ChainComplexData, coefficients="Z") -> HomologySummary:
    """Homology of an integer chain complex.

    `coefficients` is "Z", "Q", or a prime p.  Over Z the torsion list per
    degree holds the invariant factors > 1 of the incoming boundary.  The
    boundary matrices are eliminated from the top degree down, and the
    factors of each give both the rank out of its source degree and the
    factors into its target degree.  Before D_d is eliminated, the columns
    at the unit pivot rows R of D_{d+1} are dropped ("clearing").  This is
    exact: D_{d+1} is unimodular on R and its pivot columns, so each e_r,
    r in R, is an integer chain outside R modulo boundaries, and D_d D_{d+1}
    = 0 puts column r of D_d in the span of the columns outside R; the
    column lattice, hence the rank and the invariant factors, are unchanged.
    """
    if coefficients in ("Z", "Q"):
        p = 0
    else:
        p = int(coefficients)
        if not is_prime(p):
            raise ValueError("coefficients must be Z, Q or a prime, "
                             f"got {coefficients!r}")
    C.check_dd_zero()
    factors = {}
    rows_of = {}          # degree -> pivot rows of the boundary into it
    for d in reversed(C.degrees):
        if not (C.dim(d) and C.dim(d - 1)):
            continue
        cleared = set(rows_of.get(d, ()))
        columns = [c for j, c in enumerate(C.cols.get(d, ())) if j not in cleared]
        pivots, rest, rows_of[d - 1] = _eliminate(columns, p)
        factors[d] = [1] * pivots + _residue_factors(rest)
    data = {}
    for d in C.degrees:
        out_rank = len(factors.get(d, []))
        in_factors = factors.get(d + 1, [])
        torsion = [f for f in in_factors if f > 1] if coefficients == "Z" else []
        data[d] = (C.dim(d) - out_rank - len(in_factors), torsion)
    return HomologySummary(data)


def homology_generators(C: ChainComplexData, d: int):
    """Representatives of the free part of H_d, plus a coordinate map.

    Returns (gens, coords): `gens` are integer vectors in the degree-d
    basis; `coords(v)` maps a cycle vector to its class coordinates in
    that free basis (well defined modulo boundaries and torsion).
    """
    n = C.dim(d)
    A = C.matrix(d)       # out of degree d
    B = C.matrix(d + 1)   # into degree d
    if C.dim(d - 1) == 0:
        kernel_cols = identity(n)
        kernel_idx = list(range(n))
        Tinv = identity(n)
        T = identity(n)
    else:
        _, D, T = smith_normal_form(A)
        kernel_idx = [j for j in range(n)
                      if all(D[i][j] == 0 for i in range(len(D)))]
        Tinv = integer_inverse(T)
        kernel_cols = [[T[i][j] for j in kernel_idx] for i in range(n)]
    z = len(kernel_idx)

    # image of B, written in kernel coordinates
    if C.dim(d + 1):
        full = mat_mult(Tinv, B)
        X = [full[i] for i in kernel_idx]
    else:
        X = zeros(z, 0)
    Sx, Dx, _ = smith_normal_form(X) if z else ([], [], [])
    r = sum(1 for i in range(min(len(Dx), len(Dx[0]) if Dx else 0))
            if Dx[i][i] != 0)
    free_idx = [i for i in range(z) if i >= r]
    Sx_inv = integer_inverse(Sx) if z else []

    gens = []
    for i in free_idx:
        col = [Sx_inv[row][i] for row in range(z)]
        vec = [sum(kernel_cols[row][t] * col[t] for t in range(z))
               for row in range(n)]
        gens.append(vec)

    def coords(v: list) -> tuple:
        full = [sum(Tinv[i][j] * v[j] for j in range(n)) for i in range(n)]
        for i in range(n):
            if i not in kernel_idx and full[i] != 0:
                raise ValueError("vector is not a cycle")
        xk = [full[i] for i in kernel_idx]
        y = [sum(Sx[i][t] * xk[t] for t in range(z)) for i in range(z)]
        return tuple(y[i] for i in free_idx)

    return gens, coords
