"""Ordered, step and configuration matrices, and the sign calculus of the
permutohedral diagonal.

A q x p ordered matrix places 1, ..., q+p-1 into distinct cells with rows
and columns increasing and none empty.  Step matrices put exactly one
entry on each diagonal j - i = const; configuration matrices are what
step matrices become under monotone sequences of down/right shifts.
Entries and the (i, j) of a shift are 1-based, matching the usual
notation.

A matrix is its tuple of row tuples, read with len(M) rows and len(M[0])
columns.  The enumeration runs on flat row-major entry tuples, in which
cell (i, j) has index (i-1)p + j-1: a shift is index arithmetic whose
admissibility reads index lists built once per shape, the cells a shift
sequence has vacated form an int bitmask, and step matrices are built
from permutations, not filtered.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def matrix(rows) -> tuple:
    """The matrix with the given rows, as a tuple of row tuples."""
    return tuple(map(tuple, rows))


def _from_flat(flat: tuple, p: int) -> tuple:
    """The matrix with p columns whose row-major entries are `flat`."""
    return tuple(zip(*[iter(flat)] * p))


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


def columns_partition(M: tuple) -> tuple:
    """c(O): the face whose blocks are the columns, zeros removed (the
    columns of an ordered matrix increase, so each block is sorted)."""
    return tuple(tuple(filter(None, col)) for col in zip(*M))


def rows_partition(M: tuple) -> tuple:
    """r(O): the face whose blocks are the rows from the bottom up, zeros
    removed."""
    return tuple(tuple(filter(None, row)) for row in reversed(M))


# ---------------------------------------------------------------------------
# shifts on flat entry tuples

def _move(q: int, p: int, i: int, j: int, down: bool) -> tuple:
    """The shift of the cell at 0-based (i, j) one row down or one column
    right, as (line, source, target, checks): the row i of a down shift
    or the column j of a right shift, the flat indices of the source and
    the target, and checks = (before, after, donor), the flat indices of
    the cells of the target's line before and after the target and of the
    other cells of the source's line."""
    source = i * p + j
    if down:
        line = [(i + 1) * p + l for l in range(p)]
        donor = [i * p + l for l in range(p) if l != j]
        index, at = i, j
    else:
        line = [l * p + j + 1 for l in range(q)]
        donor = [l * p + j for l in range(q) if l != i]
        index, at = j, i
    return (index, source, line[at],
            (tuple(line[:at]), tuple(line[at + 1:]), tuple(donor)))


def _shift(M: tuple, source: int, target: int, checks: tuple):
    """The flat matrix M with its source entry moved to the target, or
    None when inadmissible: the source is empty or the target full, the
    moved value would break the order of the target's line, or the
    source's line would empty."""
    v = M[source]
    if not v or M[target]:
        return None
    before, after, donor = checks
    for k in before:
        if M[k] > v:
            return None
    for k in after:
        if 0 < M[k] < v:
            return None
    for k in donor:
        if M[k]:
            break
    else:
        return None
    shifted = list(M)
    shifted[source], shifted[target] = 0, v
    return tuple(shifted)


@lru_cache(maxsize=None)
def _moves(q: int, p: int) -> tuple:
    """(down, right): down[i] holds the down shifts of the 0-based rows
    i, ..., q - 2, and right[j] the right shifts of the columns
    j, ..., p - 2."""
    down = [_move(q, p, i, j, True) for i in range(q - 1) for j in range(p)]
    right = [_move(q, p, i, j, False) for j in range(p - 1) for i in range(q)]
    return (tuple(tuple(down[i * p:]) for i in range(q)),
            tuple(tuple(right[j * q:]) for j in range(p)))


def _shift_at(M: tuple, i: int, j: int, down: bool) -> tuple:
    q, p = len(M), len(M[0])
    if i == q if down else j == p:
        return M
    _, source, target, checks = _move(q, p, i - 1, j - 1, down)
    shifted = _shift(sum(M, ()), source, target, checks)
    return M if shifted is None else _from_flat(shifted, p)


def down_shift(M: tuple, i: int, j: int) -> tuple:
    """D_{i,j}: move the entry at (i, j) one row down when admissible,
    otherwise return M unchanged."""
    return _shift_at(M, i, j, True)


def right_shift(M: tuple, i: int, j: int) -> tuple:
    """R_{i,j}: move the entry at (i, j) one column right when admissible."""
    return _shift_at(M, i, j, False)


@lru_cache(maxsize=None)
def _step_tuples(q: int, p: int) -> tuple:
    """The flat q x p step matrices.

    The support of a step matrix is a lattice path of q + p - 1 cells from
    the lower-left corner to the upper-right one, each step going up or
    right.  Rows increase to the right and columns downwards, so the
    values read along the path fall at each up step and rise at each right
    step: each permutation of [q+p-1] with q - 1 descents gives one step
    matrix of this shape, and every step matrix arises so."""
    m = q + p - 1
    result = []
    for w in itertools.permutations(range(1, m + 1)):
        if sum(x > y for x, y in zip(w, w[1:])) != q - 1:
            continue
        flat = [0] * (q * p)
        k = (q - 1) * p
        flat[k] = w[0]
        for x, y in zip(w, w[1:]):
            k += -p if y < x else 1
            flat[k] = y
        result.append(tuple(flat))
    return tuple(result)


def enumerate_step_matrices(q: int, p: int) -> list:
    """All q x p step matrices."""
    return [_from_flat(E, p) for E in _step_tuples(q, p)]


def _closure(q: int, p: int, E: tuple) -> set:
    """The flat configuration matrices reached from the flat step matrix E.

    A state is (matrix, least admissible down-shift row, least admissible
    right-shift column, bitmask of the cells vacated so far)."""
    down, right = _moves(q, p)
    start = (E, 0, 0, 0)
    seen = {start}
    stack = [start]
    while stack:
        M, min_i, min_j, vacated = stack.pop()
        for i, source, target, checks in down[min_i]:
            if vacated >> target & 1:
                continue
            shifted = _shift(M, source, target, checks)
            if shifted is not None:
                state = (shifted, i, min_j, vacated | 1 << source)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        for j, source, target, checks in right[min_j]:
            if vacated >> target & 1:
                continue
            shifted = _shift(M, source, target, checks)
            if shifted is not None:
                state = (shifted, min_i, j, vacated | 1 << source)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return {state[0] for state in seen}


class ConfigurationAmbiguityError(RuntimeError):
    """Raised when one configuration matrix is derived from two distinct
    step matrices whose csgn values disagree; the diagonal would then be
    ill defined.  Through q + p - 1 = 7 no configuration matrix is reached
    from two step matrices, so the check guards the enumeration; it
    resolves no case known to occur."""


@lru_cache(maxsize=None)
def enumerate_configurations(q: int, p: int) -> tuple:
    """All q x p configuration matrices A, each with the step matrix E it
    is reached from, as (A, E) pairs sorted by A.

    Closure of each step matrix under admissible shifts with the
    monotonicity constraints (down-shift row indices and right-shift
    column indices are nondecreasing along the operator sequence) and the
    no-refill constraint: a shift never moves an entry into a cell that an
    earlier shift in the same sequence vacated.  Without the latter the
    closure acquires extra matrices starting at q + p - 1 = 4 (two per
    mixed shape, e.g. ((1,0,3),(0,2,4)) at 2 x 3) which break the
    compatibility of the diagonal with the boundary.  The closure runs on
    flat entry tuples; the pairs are built once, at the end, each step
    matrix one object shared by its pairs.
    """
    found = {}  # flat matrix -> flat source step matrix
    for E in _step_tuples(q, p):
        for A in _closure(q, p, E):
            prior = found.setdefault(A, E)
            if prior != E:
                M, first, second = (_from_flat(flat, p) for flat in (A, prior, E))
                if csgn(M, first) != csgn(M, second):
                    raise ConfigurationAmbiguityError(
                        f"{M} derived from {first} and {second} with conflicting signs")
    steps = {E: _from_flat(E, p) for E in set(found.values())}
    return tuple((_from_flat(A, p), steps[E]) for A, E in sorted(found.items()))


# ---------------------------------------------------------------------------
# sign calculus, on the block tuples of ordered partitions

@lru_cache(maxsize=None)
def _odd(w: tuple) -> int:
    """Inversion parity, 0 or 1, of a sequence of distinct integers."""
    return sum(x > y for k, x in enumerate(w) for y in w[k + 1:]) & 1


def _exponent(blocks: tuple) -> int:
    """inv(U_1 ... U_p) + sum_{i=1}^{p-1} i |U_{p-i}|, up to parity: the
    inversions of the blocks read in order, plus the sizes of the blocks
    with an odd weight p - k (k = 1..p)."""
    return _odd(sum(blocks, ())) + sum(map(len, blocks[len(blocks) % 2::2]))


def rsgn(blocks: tuple) -> int:
    exponent = sum(len(b) * (len(b) - 1) for b in blocks) // 2
    return -1 if exponent % 2 else 1


def sgn1(blocks: tuple) -> int:
    return -1 if _exponent(blocks) % 2 else 1


def sgn2(blocks: tuple) -> int:
    p = len(blocks)
    return -1 if ((p - 1) * (p - 2) // 2 + _exponent(blocks)) % 2 else 1


def step_sign(q: int, cE: tuple) -> int:
    """The factor of csgn fixed by the source step matrix E of q rows, from
    the blocks of c(E): (-1)^{q(q-1)/2} rsgn(c(E)) sgn2(c(E))."""
    sign = -1 if (q * (q - 1) // 2) % 2 else 1
    return sign * rsgn(cE) * sgn2(cE)


def partition_sign(step: int, rA: tuple, cA: tuple) -> int:
    """csgn of a configuration matrix A from its step factor and the
    blocks of r(A) and c(A)."""
    return step * sgn1(rA) * sgn2(cA)


def csgn(A: tuple, E: tuple) -> int:
    """The sign of the configuration matrix A reached from the step
    matrix E."""
    return partition_sign(step_sign(len(A), columns_partition(E)),
                          rows_partition(A), columns_partition(A))
