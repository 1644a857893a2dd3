"""Ordered, step and configuration matrices, and the sign calculus of the
permutohedral diagonal.

A q x p ordered matrix places 1, ..., q+p-1 into distinct cells with rows
and columns increasing and none empty.  Step matrices put exactly one
entry on each diagonal j - i = const; configuration matrices are what
step matrices become under monotone sequences of down/right shifts.
Entries and indices are 1-based throughout, matching the usual notation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .permutohedron import PartitionFace


@dataclass(frozen=True)
class OrderedMatrix:
    entries: tuple  # tuple of row tuples

    @property
    def q(self) -> int:
        return len(self.entries)

    @property
    def p(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]

    def positions(self) -> dict:
        """value -> (i, j) for the nonzero entries."""
        return {v: (i, j)
                for i, row in enumerate(self.entries, 1)
                for j, v in enumerate(row, 1) if v}

    def __repr__(self):
        return "M[" + "; ".join(" ".join(map(str, row)) for row in self.entries) + "]"


def matrix(rows) -> OrderedMatrix:
    return OrderedMatrix(tuple(tuple(row) for row in rows))


def is_ordered(M: OrderedMatrix) -> bool:
    q, p = M.q, M.p
    values = sorted(v for row in M.entries for v in row if v)
    if values != list(range(1, q + p)):
        return False
    for row in M.entries:
        nz = [v for v in row if v]
        if not nz or nz != sorted(nz):
            return False
    for col in zip(*M.entries):
        nz = [v for v in col if v]
        if not nz or nz != sorted(nz):
            return False
    return True


def is_step(M: OrderedMatrix) -> bool:
    """Ordered, with consecutive nonzero runs in rows/columns and exactly
    one nonzero entry per diagonal j - i = const."""
    if not is_ordered(M):
        return False
    for row in M.entries:
        support = [j for j, v in enumerate(row) if v]
        if support != list(range(support[0], support[-1] + 1)):
            return False
    for col in zip(*M.entries):
        support = [i for i, v in enumerate(col) if v]
        if support != list(range(support[0], support[-1] + 1)):
            return False
    diagonals = [j - i for (i, row) in enumerate(M.entries)
                 for (j, v) in enumerate(row) if v]
    return sorted(diagonals) == list(range(-(M.q - 1), M.p))


def columns_partition(M: OrderedMatrix) -> PartitionFace:
    """c(O): columns as blocks, zeros removed."""
    m = M.q + M.p - 1
    blocks = tuple(tuple(sorted(v for v in col if v)) for col in zip(*M.entries))
    return PartitionFace(m, blocks)


def rows_partition(M: OrderedMatrix) -> PartitionFace:
    """r(O): rows as blocks in reverse order, zeros removed."""
    m = M.q + M.p - 1
    blocks = tuple(tuple(sorted(v for v in row if v))
                   for row in reversed(M.entries))
    return PartitionFace(m, blocks)


def down_shift(M: OrderedMatrix, i: int, j: int) -> OrderedMatrix:
    """D_{i,j}: move the entry at (i, j) one row down when admissible,
    otherwise return M unchanged."""
    q, p = M.q, M.p
    v = M[i, j]
    if v == 0 or i == q or M[i + 1, j] != 0:
        return M
    if any(M[i + 1, l] >= v for l in range(1, j)):
        return M
    if any(M[i + 1, l] and M[i + 1, l] < v for l in range(j + 1, p + 1)):
        return M
    if all(M[i, k] == 0 for k in range(1, p + 1) if k != j):
        return M  # the donor row would become empty
    rows = [list(r) for r in M.entries]
    rows[i - 1][j - 1], rows[i][j - 1] = 0, v
    return matrix(rows)


def right_shift(M: OrderedMatrix, i: int, j: int) -> OrderedMatrix:
    """R_{i,j}: move the entry at (i, j) one column right when admissible."""
    q, p = M.q, M.p
    v = M[i, j]
    if v == 0 or j == p or M[i, j + 1] != 0:
        return M
    if any(M[l, j + 1] >= v for l in range(1, i)):
        return M
    if any(M[l, j + 1] and M[l, j + 1] < v for l in range(i + 1, q + 1)):
        return M
    if all(M[k, j] == 0 for k in range(1, q + 1) if k != i):
        return M  # the donor column would become empty
    rows = [list(r) for r in M.entries]
    rows[i - 1][j - 1], rows[i - 1][j] = 0, v
    return matrix(rows)


def enumerate_step_matrices(q: int, p: int) -> list:
    """All q x p step matrices: pick one support cell per diagonal, check
    the step conditions, then fill values along each linear extension of
    the row/column order on the support."""
    diag_cells = []
    for d in range(-(q - 1), p):
        diag_cells.append([(i, i + d) for i in range(1, q + 1)
                           if 1 <= i + d <= p])
    result = []
    for support in itertools.product(*diag_cells):
        rows = [[0] * p for _ in range(q)]
        for (i, j) in support:
            rows[i - 1][j - 1] = 1  # placeholder to test the support shape
        candidate = matrix(rows)
        if not _support_ok(candidate):
            continue
        for order in _linear_extensions(set(support)):
            filled = [[0] * p for _ in range(q)]
            for value, (i, j) in enumerate(order, 1):
                filled[i - 1][j - 1] = value
            M = matrix(filled)
            if is_step(M):
                result.append(M)
    return result


def _support_ok(M: OrderedMatrix) -> bool:
    for row in M.entries:
        support = [j for j, v in enumerate(row) if v]
        if not support or support != list(range(support[0], support[-1] + 1)):
            return False
    for col in zip(*M.entries):
        support = [i for i, v in enumerate(col) if v]
        if not support or support != list(range(support[0], support[-1] + 1)):
            return False
    return True


def _linear_extensions(cells: set):
    """Topological orders of cells under the row-and-column partial order."""
    if not cells:
        yield ()
        return
    for c in sorted(cells):
        i, j = c
        if any((i2, j2) in cells and ((i2 == i and j2 < j) or (j2 == j and i2 < i))
               for (i2, j2) in cells):
            continue
        for tail in _linear_extensions(cells - {c}):
            yield (c,) + tail


class ConfigurationAmbiguityError(RuntimeError):
    """Raised when one configuration matrix is derived from two distinct
    step matrices whose csgn values disagree; the diagonal would then be
    ill defined.  (Multiple sources with agreeing signs do occur, e.g.
    the 2 x 2 matrix [0 1; 2 3] at m = 3.)"""


@dataclass(frozen=True)
class ConfigurationRecord:
    matrix: OrderedMatrix
    source_step: OrderedMatrix
    shift_trace: tuple = field(default=(), compare=False)


@lru_cache(maxsize=None)
def enumerate_configurations(q: int, p: int) -> tuple:
    """All q x p configuration matrices with provenance.

    Breadth-first closure of each step matrix under admissible shifts with
    the monotonicity constraints (down-shift row indices and right-shift
    column indices are nondecreasing along the operator sequence) and the
    no-refill constraint: a shift never moves an entry into a cell that an
    earlier shift in the same sequence vacated.  Without the latter the
    closure acquires extra matrices starting at q + p - 1 = 4 (two per
    mixed shape, e.g. ((1,0,3),(0,2,4)) at 2 x 3) which break the
    compatibility of the diagonal with the boundary.
    """
    found = {}  # matrix -> ConfigurationRecord
    for E in enumerate_step_matrices(q, p):
        # state: (matrix, min admissible D row, min admissible R column,
        #         cells vacated so far)
        start = (E, 1, 1, frozenset())
        seen = {start}
        queue = deque([(E, 1, 1, frozenset(), ())])
        reached = {E: ()}
        while queue:
            M, min_i, min_j, vacated, trace = queue.popleft()
            for i in range(min_i, q + 1):
                for j in range(1, p + 1):
                    shifted = down_shift(M, i, j)
                    if shifted == M or (i + 1, j) in vacated:
                        continue
                    state = (shifted, i, min_j, vacated | {(i, j)})
                    if state not in seen:
                        seen.add(state)
                        t = trace + (("D", i, j),)
                        reached.setdefault(shifted, t)
                        queue.append(state + (t,))
            for j in range(min_j, p + 1):
                for i in range(1, q + 1):
                    shifted = right_shift(M, i, j)
                    if shifted == M or (i, j + 1) in vacated:
                        continue
                    state = (shifted, min_i, j, vacated | {(i, j)})
                    if state not in seen:
                        seen.add(state)
                        t = trace + (("R", i, j),)
                        reached.setdefault(shifted, t)
                        queue.append(state + (t,))
        for A, trace in reached.items():
            record = ConfigurationRecord(A, E, trace)
            prior = found.get(A)
            if prior is None:
                found[A] = record
            elif prior.source_step != E and csgn(prior) != csgn(record):
                raise ConfigurationAmbiguityError(
                    f"{A} derived from {prior.source_step} and {E} "
                    f"with conflicting signs")
    return tuple(sorted(found.values(), key=lambda r: r.matrix.entries))


# ---------------------------------------------------------------------------
# sign calculus

def psgn(P: PartitionFace) -> int:
    """Sign of the permutation listing the blocks of P in order."""
    flat = [v for block in P.blocks for v in block]
    inversions = sum(1 for a in range(len(flat)) for b in range(a + 1, len(flat))
                     if flat[a] > flat[b])
    return -1 if inversions % 2 else 1


def rsgn(P: PartitionFace) -> int:
    exponent = (sum(len(b) ** 2 for b in P.blocks) - P.m) // 2
    return -1 if exponent % 2 else 1


def _weighted_size_sum(P: PartitionFace) -> int:
    p = len(P.blocks)
    return sum(i * len(P.blocks[p - 1 - i]) for i in range(1, p))


def sgn1(P: PartitionFace) -> int:
    sign = -1 if _weighted_size_sum(P) % 2 else 1
    return sign * psgn(P)


def sgn2(P: PartitionFace) -> int:
    p = len(P.blocks)
    exponent = (p - 1) * (p - 2) // 2 + _weighted_size_sum(P)
    sign = -1 if exponent % 2 else 1
    return sign * psgn(P)


def step_sign(q: int, cE: PartitionFace) -> int:
    """The factor of csgn fixed by the source step matrix E of q rows:
    (-1)^{q(q-1)/2} rsgn(c(E)) sgn2(c(E))."""
    sign = -1 if (q * (q - 1) // 2) % 2 else 1
    return sign * rsgn(cE) * sgn2(cE)


def partition_sign(step: int, rA: PartitionFace, cA: PartitionFace) -> int:
    """csgn of a configuration matrix A from its step factor, r(A) and c(A)."""
    return step * sgn1(rA) * sgn2(cA)


def csgn(record: ConfigurationRecord) -> int:
    A, E = record.matrix, record.source_step
    return partition_sign(step_sign(A.q, columns_partition(E)),
                          rows_partition(A), columns_partition(A))
