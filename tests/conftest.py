"""Shared fixtures: the standard suite of simplicial complexes used by the
intertwining and Tor-consistency tests, a strategy drawing small
complexes for property tests, and references read off the definitions:
the Morse complex by pair elimination, and the shifts and closures of
configuration matrices on row tuples."""

import pytest
from hypothesis import strategies as st

from permcomplex import simplicial


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

