"""Shared fixtures: the standard suite of simplicial complexes used by the
intertwining and Tor-consistency tests, a strategy drawing small
complexes for property tests, the invariant check of a complex,
`accumulate`, which sums (label, coefficient) pairs into a chain (a dict
{label: coefficient} with no zero coefficient, as the program returns
them), and references read off the definitions:
the Morse complex by pair elimination, the doubled complex by its
removal rule and its f-vector by inclusion-exclusion, the shifts and
closures of
configuration matrices on row tuples, the cells, cochains and Whitney
product of the cube, the chain complex of R_L and the 6-vertex RP^2
that it is run on, the closure of a set of
cube cells under faces, and the oracles the paper's criteria are
checked against (homology generators and the torus cup pairing, the
cochain dual, the chain-map and counit defects of a
diagonal, the induced chain map of the projection, the vertices of a
face, ordered and step matrices, the roots of the configuration walk by
the general sign formula, and snakes)."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from permcomplex import simplicial
from permcomplex.cubes import build_rmac, cube_boundary, inversion_count, subsets
from permcomplex.homology import ChainComplexData, complex_from_boundary, smith_normal_form, zeros
from permcomplex.projection import blocks_are_intervals, rho_face, rho_sign
from permcomplex.simplicial import SimplicialComplex, minimal_nonfaces
from permcomplex.sumatrix import _decode, _roots, _transpose, csgn


def standard_suite():
    """Full simplices, skeletons, polygon boundaries, and 20 seeded random
    complexes, all on at most 5 vertices (37 complexes)."""
    suite = []
    for m in range(2, 6):
        suite.append(simplicial.full_simplex(m))
        for d in range(m - 1):
            suite.append(simplicial.skeleton(m, d))
    for cycle in ([1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 3, 4, 5]):
        suite.append(simplicial.polygon_boundary(cycle))
    suite.extend(simplicial.random_suite(seed=0, count=20, max_m=5))
    return suite


@pytest.fixture(scope="session")
def complex_suite():
    return standard_suite()


def complexes(max_m):
    """Complexes on [m], 1 <= m <= max_m, from up to six drawn facets."""
    return st.integers(1, max_m).flatmap(lambda m: st.lists(
        st.sets(st.integers(1, m), min_size=1), max_size=6).map(
            lambda facets: simplicial.from_facets(m, facets)))


def validate(K: SimplicialComplex, diagnostics: list | None = None,
             require_all_vertices: bool = True) -> bool:
    """Check all invariants of a complex; the first violation is appended
    to `diagnostics`.  Every complex that `from_facets` returns passes, or
    passes with `require_all_vertices` off when it was built without all
    vertices."""

    def fail(msg):
        if diagnostics is not None:
            diagnostics.append(msg)
        return False

    if K.m < 1:
        return fail(f"m = {K.m} < 1")
    if () not in K.simplices:
        return fail("empty simplex missing")
    if require_all_vertices:
        for i in range(1, K.m + 1):
            if (i,) not in K.simplices:
                return fail(f"singleton ({i},) missing")
    for s in K.simplices:
        if s != tuple(sorted(set(s))):
            return fail(f"simplex {s} not canonical")
        if s and (s[0] < 1 or s[-1] > K.m):
            return fail(f"simplex {s} outside [1, {K.m}]")
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face not in K.simplices:
                return fail(f"closure violated: {s} present, {face} missing")
    return True


def accumulate(terms) -> dict:
    """The chain of the (label, coefficient) pairs `terms`: the
    coefficients of one label add up, and a label whose sum is zero is
    dropped."""
    chain = {}
    for label, coeff in terms:
        chain[label] = chain.get(label, 0) + coeff
    return {label: coeff for label, coeff in chain.items() if coeff}


def last_position(F):
    """The index of the block of the face (or letter of the word) F that
    holds its largest element."""
    n = max(map(max, F))
    return next(k for k, block in enumerate(F) if n in block)


def reduce_pairs(C, pairs):
    """The boundary of the chain complex C, as {cell: {cell: coeff}} on its
    basis labels, after eliminating the pairs (x, y) one at a time, y one
    degree above x with <dy, x> = +-1: each other cell w whose boundary
    holds x takes w - <dw, x> <dy, x> y, and x and y leave the basis.
    The cells left are those in no pair.  A reference for the Morse
    complex that never follows a gradient path."""
    bd, cobd = {}, {}
    for d, labels in C.basis.items():
        for label, column in zip(labels, C.cols.get(d) or [{}] * len(labels)):
            bd[label] = {C.basis[d - 1][i]: v for i, v in column.items()}
            for row in bd[label]:
                cobd.setdefault(row, set()).add(label)
    for x, y in pairs:
        a = bd[y][x]
        assert a in (1, -1), (x, y, a)
        for w in cobd.pop(x, set()) - {y}:
            f = bd[w][x] * a
            for z, v in bd[y].items():
                new = bd[w].get(z, 0) - f * v
                if new:
                    bd[w][z] = new
                    cobd.setdefault(z, set()).add(w)
                else:  # always for z = x, whose coboundary is gone
                    del bd[w][z]
                    cobd.get(z, set()).discard(w)
        for u in cobd.pop(y, ()):
            del bd[u][y]
        for cell in (x, y):
            for z in bd.pop(cell):
                if z != x:
                    cobd[z].discard(cell)
    return bd


def _doubled_keep(K: SimplicialComplex):
    """The predicate on the faces of Perm^{2m-1} that keeps a face of the
    doubled complex: no minimal nonface I of K has I inside one block and
    its primed copy I' inside a (possibly different) block."""
    m = K.m
    nonfaces = [frozenset(s) for s in minimal_nonfaces(K)]
    primed = [frozenset(i + m for i in s) for s in nonfaces]

    def keep(blocks) -> bool:
        block_sets = [frozenset(b) for b in blocks]
        for I, Ip in zip(nonfaces, primed):
            if any(I <= b for b in block_sets) and any(Ip <= b for b in block_sets):
                return False
        return True
    return keep


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """The Stirling number S(n, k) of the second kind: the partitions of
    an n-set into k nonempty blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def doubled_f_vector(K: SimplicialComplex) -> list:
    """The f-vector of the doubled complex of K on [2m], by
    inclusion-exclusion over the sets T of minimal nonfaces, never
    enumerating a face.  The faces in which each I_k of T and each primed
    copy I'_k lies inside one block are the ordered partitions of the
    classes left when each of these sets is merged into one element
    (overlapping sets merge into one class): with n' classes, p! S(n', p)
    of them have p blocks, and each counts with sign (-1)^|T|."""
    m = K.m
    nonfaces = minimal_nonfaces(K)
    by_count = {}
    for r in range(len(nonfaces) + 1):
        for T in itertools.combinations(nonfaces, r):
            parent = list(range(2 * m + 1))

            def find(i):
                while parent[i] != i:
                    i = parent[i]
                return i
            for I in T:
                for J in (I, [i + m for i in I]):
                    for i in J[1:]:
                        parent[find(i)] = find(J[0])
            classes = len({find(i) for i in range(1, 2 * m + 1)})
            for p in range(1, classes + 1):
                by_count[p] = by_count.get(p, 0) + (-1) ** r * math.factorial(p) * stirling2(classes, p)
    dims = [2 * m - p for p, count in by_count.items() if count]
    return [by_count.get(2 * m - d, 0) for d in range(max(dims, default=-1) + 1)]


def reference_shift(M, i, j, down):
    """D_{i,j} or R_{i,j} read off the rule in matrix indices: move the
    entry one row down (column right) into an empty cell when the target
    row (column) stays increasing and the donor row (column) stays
    nonempty."""
    q, p = len(M), len(M[0])
    v = M[i - 1][j - 1]
    if down:
        if v == 0 or i == q or M[i][j - 1]:
            return M
        line = [M[i][l - 1] for l in range(1, p + 1)]
        at, donor = j, [M[i - 1][l - 1] for l in range(1, p + 1) if l != j]
    else:
        if v == 0 or j == p or M[i - 1][j]:
            return M
        line = [M[l - 1][j] for l in range(1, q + 1)]
        at, donor = i, [M[l - 1][j - 1] for l in range(1, q + 1) if l != i]
    if any(w >= v for w in line[:at - 1]) or any(0 < w < v for w in line[at:]):
        return M
    if not any(donor):
        return M
    rows = [list(row) for row in M]
    rows[i - 1][j - 1] = 0
    if down:
        rows[i][j - 1] = v
    else:
        rows[i - 1][j] = v
    return tuple(map(tuple, rows))


def reference_closure(E):
    """The configuration matrices reached from the step matrix E, read off
    the definition: every sequence of admissible shifts whose down-shift
    rows and right-shift columns never decrease, and that never moves an
    entry into a cell an earlier shift of the sequence vacated.  A state
    is (matrix, least down-shift row, least right-shift column, vacated
    cells), 1-based."""
    q, p = len(E), len(E[0])
    start = (E, 1, 1, frozenset())
    seen, stack = {start}, [start]
    while stack:
        M, low_i, low_j, vacated = stack.pop()
        for i in range(1, q + 1):
            for j in range(1, p + 1):
                for down in (True, False):
                    if i < low_i if down else j < low_j:
                        continue
                    if ((i + 1, j) if down else (i, j + 1)) in vacated:
                        continue
                    N = reference_shift(M, i, j, down)
                    if N != M:
                        state = (N, i if down else low_i, low_j if down else j,
                                 vacated | {(i, j)})
                        if state not in seen:
                            seen.add(state)
                            stack.append(state)
    return {state[0] for state in seen}


# ---------------------------------------------------------------------------
# cube cells and cochains: a basis cochain u^sigma t^tau is named by the
# cell (sigma, tau), with the delta = t* + tbar* cochain implicit on the
# remaining coordinates, dual to the chain basis u_sigma eps_tau with
# eps_i = t_i - tbar_i

def all_cells(m: int) -> list:
    result = []
    for sigma in subsets(range(1, m + 1)):
        rest = [i for i in range(1, m + 1) if i not in sigma]
        for tau in subsets(rest):
            result.append((sigma, tau))
    return result


def rmac_complex(L: SimplicialComplex) -> ChainComplexData:
    """The chain complex of the real moment-angle complex R_L."""
    return complex_from_boundary(build_rmac(L), cube_boundary)


# the facets of the 6-vertex triangulation of RP^2
RP2_FACETS = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
              [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]


def _cell_closure(cells) -> set:
    closure = set()
    for sigma, tau in set(cells):  # many faces share one image cell
        for sub in subsets(sigma):
            removed = [i for i in sigma if i not in sub]
            for extra in subsets(removed):
                closure.add((sub, tuple(sorted(tau + extra))))
    return closure


def cochain_differential(a: tuple, L: SimplicialComplex | None = None) -> dict:
    """Coordinate rule dt* = u* (du* = 0, ddelta* = 0) with Koszul signs;
    terms leaving R_L (sigma not in L) are dropped when L is given.  Each
    i in tau gives its own term."""
    sigma, tau = a
    result = {}
    for i in tau:
        raised = tuple(sorted(sigma + (i,)))
        if L is not None and raised not in L.simplices:
            continue
        sign = -1 if sum(1 for j in sigma if j < i) % 2 else 1
        result[raised, tuple(x for x in tau if x != i)] = sign
    return result


def cochain_complex(m: int, L: SimplicialComplex | None = None) -> ChainComplexData:
    """Cochain complex of I^m (or of R_L), graded by -degree so that the
    container differential lowers the degree; homology at -q is H^q."""
    basis = {}
    for c in all_cells(m):
        if L is None or c[0] in L.simplices:
            basis.setdefault(-len(c[0]), []).append(c)
    for labels in basis.values():
        labels.sort()
    return complex_from_boundary(basis, lambda a: cochain_differential(a, L))


def cup_whitney_basis(a: tuple, b: tuple, L: SimplicialComplex | None = None):
    """Whitney product of basis cochains: (sign, cochain) or None."""
    sa, ta = set(a[0]), set(a[1])
    sb, tb = set(b[0]), set(b[1])
    if (sa & sb) or (ta & sb):
        return None
    sigma = tuple(sorted(sa | sb))
    if L is not None and sigma not in L.simplices:
        return None
    tau = tuple(sorted(ta | (tb - sa)))
    sign = -1 if inversion_count(a[0], b[0]) % 2 else 1
    return sign, (sigma, tau)


def cup_whitney(a: dict, b: dict, L: SimplicialComplex | None = None) -> dict:
    """Bilinear extension of the Whitney product to cochain combinations."""
    terms = []
    for x, cx in a.items():
        for y, cy in b.items():
            product = cup_whitney_basis(x, y, L)
            if product is not None:
                sign, z = product
                terms.append((z, sign * cx * cy))
    return accumulate(terms)


def pair(a: tuple, c: tuple) -> int:
    """Evaluation of u^sigma t^tau against a cell: 1 iff the sigmas agree
    and every t-coordinate of the cochain sits at +1 in the cell."""
    return int(a[0] == c[0] and set(a[1]) <= set(c[1]))


# ---------------------------------------------------------------------------
# homology generators, the cochain dual and the torus cup pairing

def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        full = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
                for row in Tinv]
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


def torus_cup_pairing():
    """The matrix <a cup b, z> of the Whitney product on the free basis of
    H^1 of the torus, the real moment-angle complex of the square, against
    the generator z of H_2."""
    L = simplicial.polygon_boundary([1, 2, 3, 4])
    Cc = cochain_complex(4, L)
    vecs, _ = homology_generators(Cc, -1)
    basis1 = Cc.basis[-1]
    gens1 = [{basis1[i]: v for i, v in enumerate(vec) if v} for vec in vecs]
    chain = rmac_complex(L)
    g2, _ = homology_generators(chain, 2)
    basis2 = chain.basis[2]
    z = {basis2[i]: v for i, v in enumerate(g2[0]) if v}
    M = []
    for a in gens1:
        row = []
        for b in gens1:
            ab = cup_whitney(a, b, L)
            row.append(sum(co * c2 * pair(x, c) for x, co in ab.items()
                           for c, c2 in z.items()))
        M.append(row)
    return M


# ---------------------------------------------------------------------------
# diagonals: the chain-map and counit identities

def tensor_boundary(chain: dict, boundary_fn, dim):
    """The terms of the boundary of a chain of (left, right) pairs, as
    (pair, coefficient); `dim` gives the dimension of a left factor."""
    for (a, b), coeff in chain.items():
        for a2, c2 in boundary_fn(a).items():
            yield (a2, b), coeff * c2
        sign = -1 if dim(a) % 2 else 1
        for b2, c2 in boundary_fn(b).items():
            yield (a, b2), coeff * sign * c2


def chain_map_defect(cell, diagonal_fn, boundary_fn, dim) -> dict:
    """diagonal(boundary) - boundary(diagonal); zero iff the diagonal is a
    chain map at this cell.  `dim` gives the dimension of a cell."""
    lhs = ((label, coeff * c3) for c2, coeff in boundary_fn(cell).items()
           for label, c3 in diagonal_fn(c2).items())
    rhs = tensor_boundary(diagonal_fn(cell), boundary_fn, dim)
    return accumulate(itertools.chain(lhs, ((label, -c) for label, c in rhs)))


def counit_defect(cell, diagonal_fn, dim) -> dict:
    """Collapse each tensor factor through the augmentation (vertices to 1);
    both collapses must return the original cell.  `dim` gives the
    dimension of a cell."""
    diagonal = diagonal_fn(cell).items()
    left_collapse = ((b, coeff) for (a, b), coeff in diagonal if dim(a) == 0)
    right_collapse = ((a, coeff) for (a, b), coeff in diagonal if dim(b) == 0)
    return accumulate(itertools.chain(left_collapse, right_collapse, [(cell, -2)]))


# ---------------------------------------------------------------------------
# the projection and the faces of the permutohedron

def rho_chain(chain: dict) -> dict:
    """Induced chain map: faces whose dimension drops are sent to zero,
    the rest to their image cell with the orientation sign."""
    return accumulate((rho_face(F), coeff * rho_sign(F))
                      for F, coeff in chain.items() if blocks_are_intervals(F))


def face_vertices(F: tuple) -> list:
    """All vertex faces refining F."""
    return [tuple((i,) for ordering in orderings for i in ordering)
            for orderings in itertools.product(*map(itertools.permutations, F))]


# ---------------------------------------------------------------------------
# ordered, step and snake matrices

def matrix(rows) -> tuple:
    """The matrix with the given rows, as a tuple of row tuples."""
    return tuple(map(tuple, rows))


def is_ordered(M: tuple) -> bool:
    values = sorted(v for row in M for v in row if v)
    if values != list(range(1, len(M) + len(M[0]))):
        return False
    for row in M:
        nz = [v for v in row if v]
        if not nz or nz != sorted(nz):
            return False
    for col in zip(*M):
        nz = [v for v in col if v]
        if not nz or nz != sorted(nz):
            return False
    return True


def is_step(M: tuple) -> bool:
    """Ordered, with consecutive nonzero runs in rows/columns and exactly
    one nonzero entry per diagonal j - i = const."""
    if not is_ordered(M):
        return False
    for row in M:
        support = [j for j, v in enumerate(row) if v]
        if support != list(range(support[0], support[-1] + 1)):
            return False
    for col in zip(*M):
        support = [i for i, v in enumerate(col) if v]
        if support != list(range(support[0], support[-1] + 1)):
            return False
    diagonals = [j - i for (i, row) in enumerate(M)
                 for (j, v) in enumerate(row) if v]
    return sorted(diagonals) == list(range(1 - len(M), len(M[0])))


def enumerate_step_matrices(q: int, p: int) -> list:
    """All q x p step matrices."""
    return [_decode(code, q, p) for code, _, _, _ in _roots(q, p)]


def _code(M: tuple, W: int) -> int:
    """The entries of M as W-bit digits, the first one most significant."""
    code = 0
    for v in itertools.chain.from_iterable(M):
        code = code << W | v
    return code


def _occupancy(M: tuple) -> int:
    """The bitmask of the full cells of M, cell 0 most significant."""
    return _code([[v > 0 for v in row] for row in M], 1)


def _own_signs(E: tuple) -> int:
    """The bits of csgn(E, E) < 0 (bit 0) and csgn(E^T, E^T) < 0 (bit 1),
    by the general sign formula."""
    T = _transpose(E)
    return (csgn(E, E) < 0) | (csgn(T, T) < 0) << 1


def root(M: tuple) -> tuple:
    """The root record of the walk for the matrix M, as `sumatrix._steps`
    gives it for a step matrix, read off the definitions: (code of M, code
    of M^T, occupancy of M, `_own_signs(M)`).  M need not be a step
    matrix."""
    W = (len(M) + len(M[0]) - 1).bit_length()
    return _code(M, W), _code(_transpose(M), W), _occupancy(M), _own_signs(M)


def is_snake(M) -> bool:
    """Whether the entries 1, ..., q + p - 1 of the q x p matrix M step one
    cell right or down at a time, from (1, 1) to (q, p).  By the snake
    lemma of `diagonals.kept_top_terms`, a configuration matrix is such a
    snake exactly when its rows and its columns are all intervals."""
    q, p = len(M), len(M[0])
    place = {v: (i, j) for i, row in enumerate(M) for j, v in enumerate(row) if v}
    path = [place.get(v) for v in range(1, q + p)]
    return (None not in path and path[0] == (0, 0) and path[-1] == (q - 1, p - 1)
            and all(b in ((i + 1, j), (i, j + 1)) for (i, j), b in zip(path, path[1:])))
