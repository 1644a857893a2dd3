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
(`_moves`).  The walk rests on three exact facts, proved here.

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

Roots.  The walk starts at each step matrix E with csgn(E, E) and
csgn(E^T, E^T), read off the permutation w of [m] that `_steps` reads
along E's support.  The rows of E, bottom up, are the ascending runs of
w, and its columns, left to right, are the descending runs of w, each
sorted.  So the word of r(E) is w, and the word of c(E) reversed is w
reversed, with C(m, 2) - inv(w) inversions.  In r(E), block k of q has
weight q - k, which is the 0-based index from the top of its row; in
c(E) reversed, block k of p has weight p - k, the 0-based index of its
column.  In csgn(E, E) the factor sgn2(c(E)) of the step sign cancels
that of the matrix, leaving (-1)^{q(q-1)/2} rsgn(c(E)) sgn1(r(E)), whose
exponent is q(q-1)/2 + sum_{c(E)} C(|b|, 2) + inv(w) + the sizes of the
rows of odd index.  c(E^T) and r(E^T) are r(E) and c(E) reversed, and
rsgn does not see the order of the blocks, so the exponent of
csgn(E^T, E^T) is p(p-1)/2 + sum_{r(E)} C(|b|, 2) + C(m, 2) - inv(w) + the
sizes of the columns of odd index.  Both need only the parity of inv(w)
and the sizes of the rows and the columns, which the pass over w counts
as it places the entries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import gt, lshift


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


def _decode(code: int, q: int, p: int) -> tuple:
    """The q x p matrix whose code is `code`."""
    W = (q + p - 1).bit_length()
    return _from_flat(tuple(code >> W * k & (1 << W) - 1 for k in range(q * p - 1, -1, -1)), p)


@lru_cache(maxsize=None)
def _steps(m: int) -> tuple:
    """The roots of the walks with q + p - 1 = m, one tuple for each q:
    each q x p step matrix E as (code, tcode, occupancy, signs), the codes
    of E and of E^T, the occupancy of E, and the bits of csgn(E, E) < 0
    (bit 0) and csgn(E^T, E^T) < 0 (bit 1).

    The support of a step matrix is a lattice path of q + p - 1 cells from
    the lower-left corner to the upper-right one, each step going up or
    right.  Rows increase to the right and columns downwards, so the
    values read along the path fall at each up step and rise at each right
    step: each permutation w of [m] with q - 1 descents gives one step
    matrix of q rows, and every step matrix arises so.  One pass over the
    permutations, in lexicographic order, fills every shape, and takes
    the signs from the parity of inv(w) and the sizes of the rows and the
    columns, as the module docstring proves (Roots)."""
    by_q = [[] for _ in range(m)]
    for w in itertools.permutations(range(1, m + 1)):
        q, places, tplaces, occ, signs = _path(tuple(map(gt, w, w[1:])))
        inv = sum(itertools.starmap(gt, itertools.combinations(w, 2)))
        by_q[q - 1].append((sum(map(lshift, w, places)), sum(map(lshift, w, tplaces)), occ,
                            signs ^ 3 if inv & 1 else signs))
    return tuple(map(tuple, by_q))


@lru_cache(maxsize=None)
def _path(falls: tuple) -> tuple:
    """The support of the step matrices whose permutations w fall where
    `falls` does, as (q, places, tplaces, occupancy, signs): the places
    of the digits of w's values in the code of E and in that of E^T, the
    occupancy of E, and its sign bits for an even inv(w), an odd one
    flipping both (module docstring, Roots)."""
    m = len(falls) + 1
    W = m.bit_length()
    q = sum(falls) + 1
    p = m + 1 - q
    n = q * p
    rows, columns = [0] * q, [0] * p
    places, tplaces, occ = [], [], 0
    i, j = q - 1, -1  # one step left of the lower-left cell
    for fall in (False, *falls):
        if fall:
            i -= 1
        else:
            j += 1
        rows[i] += 1
        columns[j] += 1
        places.append(W * (n - 1 - i * p - j))
        tplaces.append(W * (n - 1 - j * q - i))
        occ |= 1 << n - 1 - i * p - j
    sign = q * (q - 1) // 2 + sum([c * (c - 1) // 2 for c in columns]) + sum(rows[1::2])
    tsign = (p * (p - 1) // 2 + sum([r * (r - 1) // 2 for r in rows]) + m * (m - 1) // 2
             + sum(columns[1::2]))
    return q, places, tplaces, occ, sign & 1 | (tsign & 1) << 1


def _roots(q: int, p: int) -> tuple:
    """The roots of the walk of the q x p shape, as `_steps` gives them."""
    return _steps(q + p - 1)[q - 1]


class ConfigurationAmbiguityError(RuntimeError):
    """Raised when one configuration matrix is derived from two distinct
    step matrices whose csgn values disagree; the diagonal would then be
    ill defined.  Through q + p - 1 = 8 no configuration matrix is reached
    from two step matrices (each step matrix walked alone; tier-1 repeats
    this through 6), so the check guards the enumeration; it resolves no
    case known to occur."""


def _walk(q: int, p: int, roots) -> dict:
    """{code of A: its record} for the q x p configuration matrices A
    reached from `roots`, each a step matrix E as (code of E, code of E^T,
    occupancy of E, the bits of csgn(E, E) < 0 and csgn(E^T, E^T) < 0).

    Closure of each step matrix under admissible shifts with the
    monotonicity constraints (down-shift row indices and right-shift
    column indices are nondecreasing along the operator sequence) and the
    no-refill constraint: a shift never moves an entry into a cell that an
    earlier shift in the same sequence vacated.  Without the latter the
    closure acquires extra matrices starting at q + p - 1 = 4 (two per
    mixed shape, e.g. ((1,0,3),(0,2,4)) at 2 x 3) which break the
    compatibility of the diagonal with the boundary.

    This is the one place the shift rule is run.  A shift is tried only
    from a full source whose target is neither full nor vacated, masks
    that cover all the shifts from a state at once.  It is admissible
    unless the source's line would empty, or its value v would break the
    order of the target's line, whose nearest full cells before and after
    the target hold its largest smaller and least larger values.

    The record of A is index << (Wn + 2) | tcode << 2 | signs: the index
    of E in `roots`, the code of A^T, and the bits of csgn(A, E) < 0 (bit
    0) and csgn(A^T, E^T) < 0 (bit 1), carried through each shift as the
    module docstring proves.  A state is (code, record, occupancy,
    vacated cells, floor = least down-shift row << F | least right-shift
    column).  A matrix reached from two step matrices whose signs differ,
    for A or for A^T, raises ConfigurationAmbiguityError naming both."""
    W, F, down, right, down_from, right_from = _moves(q, p)
    n = q * p
    columns, digit = (1 << F) - 1, (1 << W) - 1
    found = {}
    setdefault = found.setdefault
    for index, (code, tcode, occ, signs) in enumerate(roots):
        record = index << W * n + 2 | tcode << 2 | signs
        if setdefault(code, record) != record:
            _judge(q, p, roots, code, found[code], record)
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
                    (line, keep, target, donor, before, after, sign, tsign,
                     origin, place, torigin, tplace) = moves[bit.bit_length()]
                    if not occ & donor:
                        continue
                    v = code >> origin & digit
                    x = occ & before
                    if x and code >> W * (x & -x).bit_length() - W & digit > v:
                        continue
                    x = occ & after
                    if x and code >> W * x.bit_length() - W & digit < v:
                        continue
                    moved = code + (v << place) - (v << origin)
                    gone, low = vacated | bit, floor & keep | line
                    state = (moved, gone, low)
                    if state in seen:
                        continue
                    seen.add(state)
                    flips = (3 ^ ((occ & sign).bit_count() & 1)
                             ^ ((occ & tsign).bit_count() & 1) << 1)
                    carried = record + (v << tplace) - (v << torigin) ^ flips
                    if setdefault(moved, carried) != carried:
                        _judge(q, p, roots, moved, found[moved], carried)
                    stack.append((moved, carried, occ ^ bit ^ target, gone, low))
    return found


def _judge(q: int, p: int, roots, code: int, prior: int, record: int):
    """Raise ConfigurationAmbiguityError when the records of one matrix
    from two step matrices hold different signs, naming the matrix and
    both step matrices, transposed when only the signs of A^T differ."""
    if not (prior ^ record) & 3:
        return
    W = (q + p - 1).bit_length()
    A = _decode(code, q, p)
    first, second = (_decode(roots[r >> W * q * p + 2][0], q, p) for r in (prior, record))
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
    roots = _roots(q, p)
    found = _walk(q, p, roots)
    sources = [_decode(code, q, p) for code, _, _, _ in roots]
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
    of A^T; none of them when q = p.  `share` maps a block or a face to
    its one copy, so each distinct block and each distinct face, reversed
    ones included, is one object."""
    found = _walk(q, p, _roots(q, p))
    W = (q + p - 1).bit_length()
    lines = _Lines(W, share)
    rows = range(0, W * q * p, W * p)  # r(A): the rows from the bottom up
    columns = range(W * q * (p - 1), -1, -W * q)  # c(A): the rows of A^T from the top
    row, column, codes = (1 << W * p) - 1, (1 << W * q) - 1, (1 << W * q * p) - 1
    flips = {}  # id of a face -> the one copy of its reversal

    def flip(F: tuple) -> tuple:
        R = flips.get(id(F))
        if R is None:
            R = F[::-1]
            R = flips[id(F)] = share(R, R)
        return R

    terms, transposed = [], {}
    for code in sorted(found):
        record = found[code]
        tcode = record >> 2 & codes
        left = tuple([lines[tcode >> s & column] for s in columns])
        right = tuple([lines[code >> s & row] for s in rows])
        left, right = share(left, left), share(right, right)
        terms.append((-1 if record & 1 else 1, left, right))
        if q < p:
            transposed[tcode] = (-1 if record & 2 else 1, flip(right), flip(left))
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


def csgn(A: tuple, E: tuple) -> int:
    """The sign of the configuration matrix A reached from the step
    matrix E."""
    return partition_sign(step_sign(len(A), columns_partition(E)),
                          rows_partition(A), columns_partition(A))
