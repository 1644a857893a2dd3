"""Integer chain complexes, Smith normal form, and (co)homology.

All linear algebra is exact, in Python integers throughout.  A chain
complex holds each boundary matrix as sparse columns, one {row index:
nonzero coefficient} dict per column, from assembly through the d o d
check to elimination.  `homology` reduces the boundary matrices from the
top degree down by `_eliminate`, sparse unit-pivot elimination that
runs the dense Smith normal form only on the block that has no unit
pivot and returns the invariant factors and the pivot rows.  Before it
reduces D_d it drops the columns at the unit pivot rows of D_{d+1}
(clearing, the "twist" of Chen and Kerber): D_{d+1} is unimodular on
those rows and its pivot columns, so modulo boundaries each such basis
element is an integer chain on the others, and D_d D_{d+1} = 0 puts its
column of D_d in the span of the columns that stay.  The elimination
is one sweep over the columns in reverse basis order: each column that
still has entries is pivoted on its unit entry in the shortest row, and
a column without a unit is skipped and left to the dense Smith normal
form.  One loop, `_diagonalize`, brings a dense block to that form in
place.  `smith_normal_form` runs it on M bordered by identities, so that
the row and column operations build S and T; `_eliminate` diagonalises
the residue its sweep leaves bare, with no transforms, so how a leftover
block becomes invariant factors is decided in one place.  Dense matrices
(lists of rows) appear only at the edges: `ChainComplexData.matrix`, the
Smith normal form, `invariant_factors` and `rank_mod_p`.

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


class BoundaryError(ValueError):
    """Raised when the matrices of a complex do not square to zero."""


# ---------------------------------------------------------------------------
# matrix helpers

def zeros(rows: int, cols: int) -> list:
    return [[0] * cols for _ in range(rows)]


# ---------------------------------------------------------------------------
# Smith normal form

def _diagonalize(B: list, rows: int, cols: int) -> None:
    """Bring the top-left rows x cols block of B to Smith normal form in
    place: diagonal, nonnegative, each entry dividing the next.

    Each row operation acts on a whole row of B and each column operation
    on a whole column, so whatever borders the block rides along.  Each
    step pivots on a nonzero entry of least absolute value.
    """
    def add_row(src, dst, q):  # row dst += q * row src
        B[dst] = [a + q * b for a, b in zip(B[dst], B[src])]

    k = 0
    while k < min(rows, cols):
        candidates = [(i, j) for i in range(k, rows) for j in range(k, cols) if B[i][j]]
        if not candidates:
            break
        pos = min(candidates, key=lambda ij: abs(B[ij[0]][ij[1]]))
        # clear row and column k; the least nonzero remainder becomes the
        # pivot at once, since reducing by a larger pivot first lets the
        # entries grow exponentially
        while True:
            B[k], B[pos[0]] = B[pos[0]], B[k]
            for row in B:
                row[k], row[pos[1]] = row[pos[1]], row[k]
            for i in range(k + 1, rows):
                if B[i][k] != 0:
                    add_row(k, i, -(B[i][k] // B[k][k]))
            for j in range(k + 1, cols):
                if B[k][j] != 0:
                    q = -(B[k][j] // B[k][k])
                    for row in B:
                        row[j] += q * row[k]
            rest = ([(i, k) for i in range(k + 1, rows) if B[i][k] != 0]
                    + [(k, j) for j in range(k + 1, cols) if B[k][j] != 0])
            if not rest:
                break
            pos = min(rest, key=lambda ij: abs(B[ij[0]][ij[1]]))
        # enforce divisibility of the remaining block by the pivot
        bad = next((i for i in range(k + 1, rows)
                    if any(B[i][j] % B[k][k] for j in range(k + 1, cols))), None)
        if bad is not None:
            add_row(bad, k, 1)
            continue
        k += 1

    for i in range(min(rows, cols)):
        if B[i][i] < 0:
            B[i] = [-x for x in B[i]]


def smith_normal_form(M: list):
    """Compute unimodular S, T and diagonal D with S * M * T = D.

    Diagonal entries are nonnegative and each divides the next.  M is
    diagonalised bordered as [[M, I], [I, 0]]: the row operations build S
    in the right border and the column operations build T in the bottom.
    """
    rows, cols = len(M), len(M[0]) if M else 0
    B = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(M)]
    B += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    _diagonalize(B, rows, cols)
    return ([row[cols:] for row in B[:rows]], [row[:cols] for row in B[:rows]],
            [row[:cols] for row in B[rows:]])


def _eliminate(columns: list, p: int = 0):
    """Sparse unit-pivot elimination of the integer matrix whose columns are
    the {row index: entry} dicts `columns`.

    Over Z (p = 0) only an entry +-1 is a pivot; over GF(p) entries are
    reduced mod p and every nonzero entry is one.  One sweep visits each
    column once, in reverse basis order.  A column that still has entries
    is pivoted on its unit entry whose row has the fewest entries, ties
    broken by the least row index.  A column with no unit is skipped: it
    stays in the leftover block, with whatever units later row operations
    leave in it, for the dense Smith normal form.  The reverse order was
    measured, not derived: swept forward, the elimination in `perm tor`
    on skeleton(8, 1) took 2.1-2.5 s instead of 0.7-1.1 s on a 2-core
    box.  Each pivot's column is cleared with exact row operations and
    its row and column are deleted, which leaves M equivalent to
    diag(pivots) + the rest.  Only rows not yet pivoted are changed, so
    on its pivot rows and columns M is a unitriangular matrix times a
    triangular one with unit diagonal, hence unimodular; `homology`
    clears by that.  The leftover block is then brought to Smith normal
    form in place by `_diagonalize`, with no transforms.  Returns the
    nonzero invariant factors, one 1 per unit pivot followed by the
    nonzero diagonal of the finished block (always empty mod p, so over
    GF(p) there are rank-many 1s), and the row index of each pivot, in
    pivot order.
    """
    rows = {}             # row index -> {col index: nonzero entry}
    cols = {}             # col index -> set of row indices
    for j, column in enumerate(columns):
        for i, v in column.items():
            if p:
                v %= p
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)

    pivot_rows = []
    for j in reversed(range(len(columns))):
        units = [i for i in cols.get(j, ()) if p or rows[i][j] in (1, -1)]
        if not units:
            continue
        i = min(units, key=lambda r: (len(rows[r]), r))
        prow = rows.pop(i)
        for c in prow:
            cols[c].discard(i)
        inv = pow(prow.pop(j), -1, p) if p else prow.pop(j)
        for k in cols.pop(j):
            row = rows[k]
            f = row.pop(j) * inv
            if p:
                f %= p
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
            if not row:
                del rows[k]
        pivot_rows.append(i)

    left = sorted(c for c, members in cols.items() if members)
    rest = [[row.get(c, 0) for c in left] for row in rows.values()]
    _diagonalize(rest, len(rest), len(left))
    diagonal = (rest[i][i] for i in range(min(len(rest), len(left))))
    return [1] * len(pivot_rows) + [f for f in diagonal if f], pivot_rows


def _columns(M: list, ncols: int) -> list:
    """The sparse columns of a dense matrix with `ncols` columns."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(M):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = v
    return columns


def invariant_factors(M: list) -> list:
    """Nonzero invariant factors of M: one 1 per unit pivot, then the Smith
    normal form of the block the unit pivots leave behind."""
    return _eliminate(_columns(M, len(M[0]) if M else 0))[0]


def rank_mod_p(M: list, p: int) -> int:
    """Rank of an integer matrix over the prime field GF(p)."""
    return len(_eliminate(_columns(M, len(M[0]) if M else 0), p)[0])


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
    negative (a cochain complex holds the q-cochains in degree -q, as
    the tests' `cochain_complex` builds it).
    """

    def __init__(self, basis: dict, diff: dict):
        self.basis = {d: list(labels) for d, labels in basis.items()}
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
    returning a chain {cell: coefficient}, straight into sparse columns.
    Cell order within a degree is preserved.  A boundary term outside
    the cells raises BoundaryError.

    With `flow`, the gradient flow of an acyclic matching (Forman, "Morse
    theory for cell complexes", 1998), the cells are the critical cells
    and the result is the Morse complex: a boundary term z that is not a
    critical cell stands for the (critical cell, coefficient) pairs that
    flow(z) returns, those its gradient paths reach, each coefficient
    times that of z.  A pair whose cell is not critical raises
    BoundaryError.  Only then can two terms meet in one entry, so only
    then are zero entries dropped.
    """
    C = ChainComplexData(cells_by_dim, {})
    for d in C.degrees:
        if d - 1 not in C.basis:
            continue
        index = {label: i for i, label in enumerate(C.basis[d - 1])}
        columns = C.cols[d] = []
        for cell in C.basis[d]:
            column = {}
            for z, c in boundary_fn(cell).items():
                i = index.get(z)
                if i is not None:
                    column[i] = column.get(i, 0) + c
                elif flow is None:
                    raise BoundaryError(f"boundary of {cell} leaves the complex at {z}")
                else:
                    for w, v in flow(z):
                        i = index.get(w)
                        if i is None:
                            raise BoundaryError(f"the gradient flow from {z} ends at "
                                                f"{w}, which is not a critical cell")
                        column[i] = column.get(i, 0) + c * v
            columns.append(column if flow is None
                           else {i: v for i, v in column.items() if v})
    return C


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
        factors[d], rows_of[d - 1] = _eliminate(columns, p)
    data = {}
    for d in C.degrees:
        out_rank = len(factors.get(d, []))
        in_factors = factors.get(d + 1, [])
        torsion = [f for f in in_factors if f > 1] if coefficients == "Z" else []
        data[d] = (C.dim(d) - out_rank - len(in_factors), torsion)
    return HomologySummary(data)

