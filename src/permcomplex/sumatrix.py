"""Ordered, step and configuration matrices, and the sign calculus of the
permutohedral diagonal.

A q x p ordered matrix places 1, ..., q+p-1 into distinct cells with rows
and columns increasing and none empty.  Step matrices put exactly one
entry on each diagonal j - i = const; configuration matrices are what
step matrices become under monotone sequences of down/right shifts.
Entries and the (i, j) of a shift are 1-based, matching the usual
notation.

A matrix is its tuple of row tuples, read with len(M) rows and len(M[0])
columns.  The configurations come from one closure walk, `_walk`, on int
codes: the code of a q x p matrix holds entry (i, j) as the W-bit digit
at flat index k = (i-1)p + j-1, cell 0 most significant, so the order of
codes is the order of the flat entry tuples; its occupancy is the bitmask
with bit n - 1 - k set when cell k is full (n = qp), so a cell's bit
sits at the place of its digit.  A shift adds to the code, toggles two
bits of the occupancy, and is judged by masks built once per shape
(`_moves`).  The walk rests on two exact facts, proved here.

Transposition.  M -> M^T maps the q x p ordered matrices onto the p x q
ones, and the step matrices onto the step matrices: rows and columns
swap, and the diagonal j - i becomes i - j.  The down shift D_{i,j} of M
is admissible exactly when the right shift R_{j,i} of M^T is, and then
D_{i,j}(M)^T = R_{j,i}(M^T): D_{i,j} needs a value v at (i, j), an empty
(i+1, j), row i+1 increasing with v at column j, and row i keeping an
entry, and R_{j,i} needs the same of column i+1 and column i of M^T,
which are row i+1 and row i of M.  Likewise R_{i,j}(M)^T = D_{j,i}(M^T).
A shift sequence on E is monotone when its down-shift rows and its
right-shift columns never decrease; transposed, the down-shift rows
become the right-shift columns and the other way round, so it stays
monotone, and it vacates and fills the transposed cells, so the
no-refill rule transposes too.  Hence closure(E^T) = closure(E)^T, and
the walk enumerates only the shapes with q <= p.  The columns of A^T are
the rows of A and its rows are the columns of A, so c(A^T) is r(A)
reversed and r(A^T) is c(A) reversed (r reads the rows bottom up).

Carried sign.  csgn(A, E) = step_sign(q, c(E)) sgn1(r(A)) sgn2(c(A)),
where sgn1 and sgn2 of blocks U_1 ... U_k are (-1) to the inversions of
the word U_1 ... U_k plus the sizes of the blocks of odd weight k - l
(sgn2 times (-1)^{(k-1)(k-2)/2}).  A down shift of v from (i, j) keeps v
in column j, so c(A) and the step factor stay.  In r(A) it moves v from
row i to row i+1, which come next to each other (row i+1 first), so the
number of blocks stays, one block of each weight parity changes size by
one, and that part of the exponent changes by 1.  In the word of r(A), v
moves left past the a entries of row i left of column j, which precede
it in its increasing row, and the b entries of row i+1 right of column
j, which follow its new place; each letter passed changes the
inversions by one.  So the shift multiplies csgn by (-1)^{1+a+b}.  In
the same way a right shift of v from (i, j) keeps r(A), and in the word
of c(A) moves v right past the c entries of column j below row i and the
d entries of column j+1 above row i: it multiplies csgn by
(-1)^{1+c+d}.  The walk carries csgn(A, E) and csgn(A^T, E^T) together,
starting from csgn(E, E) and csgn(E^T, E^T): D_{i,j} on A is R_{j,i} on
A^T, whose c counts the entries of row i of A right of column j and d
those of row i+1 left of it, and R_{i,j} on A is D_{j,i} on A^T, whose a
counts the entries of column j above row i and b those of column j+1
below it.  None of the four cell sets holds the source or the target,
so each count is a popcount of the occupancy, before the move or after,
against a mask built once per move.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def _from_flat(flat: tuple, p: int) -> tuple:
    """The matrix with p columns whose row-major entries are `flat`."""
    return tuple(zip(*[iter(flat)] * p))


def _transpose(M: tuple) -> tuple:
    return tuple(zip(*M))


def columns_partition(M: tuple) -> tuple:
    """c(O): the face whose blocks are the columns, zeros removed (the
    columns of an ordered matrix increase, so each block is sorted)."""
    return tuple(tuple(filter(None, col)) for col in zip(*M))


def rows_partition(M: tuple) -> tuple:
    """r(O): the face whose blocks are the rows from the bottom up, zeros
    removed."""
    return tuple(tuple(filter(None, row)) for row in reversed(M))


# ---------------------------------------------------------------------------
# shifts on int codes

@lru_cache(maxsize=None)
def _moves(q: int, p: int) -> tuple:
    """The shifts of the q x p shape, as (W, F, down, right, down_from,
    right_from).

    W is the digit width of the code and F the width of the column field
    of a walk's floor, min_i << F | min_j.  down[b] and right[b] describe
    the shift of the cell whose occupancy bit is 1 << (b - 1) (None where
    there is no such shift), as (line, keep, target, donor, before, after,
    sign, tsign, source digit, target digit, source tdigit, target
    tdigit): the floor after the shift is floor & keep | line, where line
    is the shift's row << F or its column; target is the target's bit; donor, before and after are the masks of the other
    cells of the source's line and of the cells of the target's line
    before and after the target; sign and tsign are the masks whose
    popcounts give the exponents of the factors of csgn(A, E) and of
    csgn(A^T, E^T); the digits are the places, in the code of A and in
    the code of A^T shifted past the two sign bits, of the source and the
    target.  down_from[min_i] masks the cells of rows min_i, ..., q - 2,
    and right_from[min_j] those of columns min_j, ..., p - 2 (0-based)."""
    n = q * p
    W = (q + p - 1).bit_length()
    F = p.bit_length()

    def mask(cells) -> int:
        return sum(1 << n - 1 - (i * p + j) for i, j in cells)

    def digit(i: int, j: int) -> int:
        return W * (n - 1 - (i * p + j))

    def tdigit(i: int, j: int) -> int:
        return W * (n - 1 - (j * q + i)) + 2

    down, right = [None] * (n + 1), [None] * (n + 1)
    for i in range(q):
        for j in range(p):
            b = n - (i * p + j)
            if i < q - 1:
                row = [(i, l) for l in range(p)]
                below = [(i + 1, l) for l in range(p)]
                down[b] = (i << F, (1 << F) - 1, mask([(i + 1, j)]),
                           mask(row[:j] + row[j + 1:]), mask(below[:j]), mask(below[j + 1:]),
                           mask(row[:j] + below[j + 1:]), mask(row[j + 1:] + below[:j]),
                           digit(i, j), digit(i + 1, j), tdigit(i, j), tdigit(i + 1, j))
            if j < p - 1:
                col = [(l, j) for l in range(q)]
                after = [(l, j + 1) for l in range(q)]
                right[b] = (j, ~((1 << F) - 1), mask([(i, j + 1)]),
                            mask(col[:i] + col[i + 1:]), mask(after[:i]), mask(after[i + 1:]),
                            mask(col[i + 1:] + after[:i]), mask(col[:i] + after[i + 1:]),
                            digit(i, j), digit(i, j + 1), tdigit(i, j), tdigit(i, j + 1))
    down_from = tuple(mask((i, j) for i in range(lo, q - 1) for j in range(p)) for lo in range(q))
    right_from = tuple(mask((i, j) for i in range(q) for j in range(lo, p - 1)) for lo in range(p))
    return W, F, tuple(down), tuple(right), down_from, right_from


def _shifted(code: int, occ: int, move: tuple, W: int):
    """The value v that `move` carries and the code after it, or None when
    the shift is inadmissible: the source is empty or the target full, the
    source's line would empty, or v would break the order of the target's
    line, whose nearest full cells before and after the target hold its
    largest smaller and least larger values."""
    _, _, target, donor, before, after, _, _, source, to, _, _ = move
    v = code >> source & (1 << W) - 1
    if not v or occ & target or not occ & donor:
        return None
    x = occ & before
    if x and code >> W * (x & -x).bit_length() - W & (1 << W) - 1 > v:
        return None
    x = occ & after
    if x and code >> W * x.bit_length() - W & (1 << W) - 1 < v:
        return None
    return v, code + (v << to) - (v << source)


def _code(M: tuple, W: int) -> int:
    """The entries of M as W-bit digits, the first one most significant."""
    code = 0
    for v in itertools.chain.from_iterable(M):
        code = code << W | v
    return code


def _occupancy(M: tuple) -> int:
    return _code([[v > 0 for v in row] for row in M], 1)


def _decode(code: int, q: int, p: int) -> tuple:
    """The q x p matrix whose code is `code`."""
    W = (q + p - 1).bit_length()
    return _from_flat(tuple(code >> W * k & (1 << W) - 1 for k in range(q * p - 1, -1, -1)), p)


@lru_cache(maxsize=None)
def _steps(m: int) -> tuple:
    """The flat step matrices with q + p - 1 = m, one tuple for each q.

    The support of a step matrix is a lattice path of q + p - 1 cells from
    the lower-left corner to the upper-right one, each step going up or
    right.  Rows increase to the right and columns downwards, so the
    values read along the path fall at each up step and rise at each right
    step: each permutation of [m] with q - 1 descents gives one step
    matrix of q rows, and every step matrix arises so.  One pass over the
    permutations, in lexicographic order, fills every shape."""
    by_q = [[] for _ in range(m)]
    for w in itertools.permutations(range(1, m + 1)):
        falls = [y < x for x, y in zip(w, w[1:])]
        q = sum(falls) + 1
        p = m + 1 - q
        flat = [0] * (q * p)
        k = (q - 1) * p
        flat[k] = w[0]
        for fall, y in zip(falls, w[1:]):
            k += -p if fall else 1
            flat[k] = y
        by_q[q - 1].append(tuple(flat))
    return tuple(map(tuple, by_q))


def _step_tuples(q: int, p: int) -> tuple:
    """The flat q x p step matrices."""
    return _steps(q + p - 1)[q - 1]


class ConfigurationAmbiguityError(RuntimeError):
    """Raised when one configuration matrix is derived from two distinct
    step matrices whose csgn values disagree; the diagonal would then be
    ill defined.  Through q + p - 1 = 8 no configuration matrix is reached
    from two step matrices (each step matrix walked alone; tier-1 repeats
    this through 6), so the check guards the enumeration; it resolves no
    case known to occur."""


def _walk(q: int, p: int, steps) -> dict:
    """{code of A: its record} for the q x p configuration matrices A
    reached from the flat matrices `steps`, each a step matrix E.

    Closure of each step matrix under admissible shifts with the
    monotonicity constraints (down-shift row indices and right-shift
    column indices are nondecreasing along the operator sequence) and the
    no-refill constraint: a shift never moves an entry into a cell that an
    earlier shift in the same sequence vacated.  Without the latter the
    closure acquires extra matrices starting at q + p - 1 = 4 (two per
    mixed shape, e.g. ((1,0,3),(0,2,4)) at 2 x 3) which break the
    compatibility of the diagonal with the boundary.

    The record of A is index << (Wn + 2) | tcode << 2 | signs: the index
    of E in `steps`, the code of A^T, and the bits of csgn(A, E) < 0 (bit
    0) and csgn(A^T, E^T) < 0 (bit 1), carried through each shift as the
    module docstring proves.  A state is (code, record, occupancy,
    vacated cells, floor = least down-shift row << F | least right-shift
    column).  A matrix reached from two step matrices whose signs differ,
    for A or for A^T, raises ConfigurationAmbiguityError naming both."""
    W, F, down, right, down_from, right_from = _moves(q, p)
    n = q * p
    columns = (1 << F) - 1
    found = {}
    setdefault = found.setdefault
    for index, E in enumerate(steps):
        M = _from_flat(E, p)
        code = _code(M, W)
        record = index << W * n + 2 | _code(_transpose(M), W) << 2 | _own_signs(M)
        occ = _occupancy(M)
        if setdefault(code, record) != record:
            _judge(q, p, steps, code, found[code], record)
        seen = set()
        stack = [(code, record, occ, 0, 0)]
        while stack:
            code, record, occ, vacated, floor = stack.pop()
            blocked = occ | vacated
            for sources, moves in ((occ & down_from[floor >> F] & ~(blocked << p), down),
                                   (occ & right_from[floor & columns] & ~(blocked << 1), right)):
                while sources:
                    bit = sources & -sources
                    sources ^= bit
                    move = moves[bit.bit_length()]
                    shifted = _shifted(code, occ, move, W)
                    if shifted is None:
                        continue
                    v, moved = shifted
                    line, keep, target, _, _, _, sign, tsign, _, _, source, to = move
                    gone, low = vacated | bit, floor & keep | line
                    state = (moved, gone, low)
                    if state in seen:
                        continue
                    seen.add(state)
                    flips = (3 ^ ((occ & sign).bit_count() & 1)
                             ^ ((occ & tsign).bit_count() & 1) << 1)
                    carried = record + (v << to) - (v << source) ^ flips
                    if setdefault(moved, carried) != carried:
                        _judge(q, p, steps, moved, found[moved], carried)
                    stack.append((moved, carried, occ ^ bit ^ target, gone, low))
    return found


def _judge(q: int, p: int, steps, code: int, prior: int, record: int):
    """Raise ConfigurationAmbiguityError when the records of one matrix
    from two step matrices hold different signs, naming the matrix and
    both step matrices, transposed when only the signs of A^T differ."""
    if not (prior ^ record) & 3:
        return
    W = (q + p - 1).bit_length()
    A = _decode(code, q, p)
    first, second = (_from_flat(steps[r >> W * q * p + 2], p) for r in (prior, record))
    if not (prior ^ record) & 1:
        A, first, second = map(_transpose, (A, first, second))
    raise ConfigurationAmbiguityError(
        f"{A} derived from {first} and {second} with conflicting signs")


@lru_cache(maxsize=None)
def enumerate_configurations(q: int, p: int) -> tuple:
    """All q x p configuration matrices A, each with the step matrix E it
    is reached from, as (A, E) pairs sorted by A, each step matrix one
    object shared by its pairs.  A shape with q > p is the transpose of
    the walk of the p x q shape."""
    if q > p:
        pairs = enumerate_configurations.__wrapped__(p, q)
        sources = {E: _transpose(E) for _, E in pairs}
        return tuple(sorted((_transpose(A), sources[E]) for A, E in pairs))
    steps = _step_tuples(q, p)
    found = _walk(q, p, steps)
    sources = [_from_flat(E, p) for E in steps]
    index = (q + p - 1).bit_length() * q * p + 2
    return tuple((_decode(code, q, p), sources[found[code] >> index]) for code in sorted(found))


class _Lines(dict):
    """Line code -> its block, the nonzero W-bit digits of the code from
    the most significant one, each distinct block one object through
    `share` (a block -> its one copy)."""

    def __init__(self, W: int, share):
        super().__init__()
        self.W, self.share = W, share

    def __missing__(self, line: int) -> tuple:
        W = self.W
        block = tuple(filter(None, (line >> k & (1 << W) - 1
                                    for k in range(line.bit_length() // W * W, -1, -W))))
        block = self[line] = self.share(block, block)
        return block


def signed_partitions(q: int, p: int, share) -> tuple:
    """(csgn(A, E), c(A), r(A)) for the q x p configuration matrices A, in
    the order of A, and the same for the p x q ones, q <= p, from one walk
    of the q x p shape: the p x q matrices are the transposes A^T, their
    triples (csgn(A^T, E^T), r(A) reversed, c(A) reversed), in the order
    of A^T; none of them when q = p.  `share` maps a block to its one copy,
    so each distinct block is one object."""
    found = _walk(q, p, _step_tuples(q, p))
    W = (q + p - 1).bit_length()
    lines = _Lines(W, share)
    rows = range(0, W * q * p, W * p)  # r(A): the rows from the bottom up
    columns = range(W * q * (p - 1), -1, -W * q)  # c(A): the rows of A^T from the top
    row, column, codes = (1 << W * p) - 1, (1 << W * q) - 1, (1 << W * q * p) - 1
    terms, transposed = [], {}
    for code in sorted(found):
        record = found[code]
        tcode = record >> 2 & codes
        left = tuple([lines[tcode >> s & column] for s in columns])
        right = tuple([lines[code >> s & row] for s in rows])
        terms.append((-1 if record & 1 else 1, left, right))
        if q < p:
            transposed[tcode] = (-1 if record & 2 else 1, right[::-1], left[::-1])
    return terms, [transposed[tcode] for tcode in sorted(transposed)]


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


def _own_signs(E: tuple) -> int:
    """The bits of csgn(E, E) < 0 (bit 0) and csgn(E^T, E^T) < 0 (bit 1).
    In csgn(E, E) the factor sgn2(c(E)) of the step sign cancels that of
    the matrix, leaving (-1)^{q(q-1)/2} rsgn(c(E)) sgn1(r(E)); c(E^T) and
    r(E^T) are r(E) and c(E) reversed."""
    q, p = len(E), len(E[0])
    cE, rE = columns_partition(E), rows_partition(E)
    sign = (q * (q - 1) // 2 + (rsgn(cE) < 0) + (sgn1(rE) < 0)) & 1
    tsign = (p * (p - 1) // 2 + (rsgn(rE) < 0) + (sgn1(cE[::-1]) < 0)) & 1
    return sign | tsign << 1


def csgn(A: tuple, E: tuple) -> int:
    """The sign of the configuration matrix A reached from the step
    matrix E."""
    return partition_sign(step_sign(len(A), columns_partition(E)),
                          rows_partition(A), columns_partition(A))
