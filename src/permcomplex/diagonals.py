"""Cellular diagonals: the Saneblidze-Umble diagonal on the permutohedron
and the Cai diagonal on the cube, with the cup products they induce.

A face is its tuple of blocks, so a term of the SU diagonal is (sign,
left face, right face): `_top_cell_terms` for the top cell and the
generator `su_terms` for any face, both as plain block tuples.  The terms
share their blocks: `_top_cell_terms(m)` holds each distinct block once,
and `_block_terms` renames each of those once, so a block of a diagonal
is one object however many terms hold it.  `su_terms` is `interleave`
over the per-block factors.  The projection to the cube keeps only the
terms whose blocks are all intervals: `kept_top_terms(n)` builds the
2^(n-1) of them on the top cell directly, with no configuration matrix,
and a block with a gap keeps none, so `projection.walk_su_cai`
interleaves the renamed kept terms over the interval faces alone, and
`projection.verify_su_cai` over one face per interval block.
`su_top_diagonal` and `su_diagonal` return the terms as a chain, a dict
{(left, right): sign} over pairs of faces, as `cai_diagonal` returns the
terms of `cai_terms` over pairs of cube cells, a cell being its (sigma,
tau) pair; each pair is one term, so the dicts are built directly.
`verify_su_cai` reads `cai_terms` directly.  The
comultiplicative extension interleaves per-block factors with the Koszul
sign, which is what makes the SU diagonal a chain map for the boundary
on tensors, d(a (x) b) = da (x) b + (-1)^dim(a) a (x) db, as the Cai
diagonal is.  Both chain-map identities and the counit are checked in
the tests, by oracles of their own in tests/conftest.py.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cubes import inversion_count
from .permutohedron import PermComplex
from .sumatrix import partition_sign, signed_partitions, step_sign


@lru_cache(maxsize=None)
def _top_cell_terms(m: int) -> tuple:
    """Terms of the diagonal of the top cell of Perm^{m-1}: (sign, left
    blocks, right blocks), in canonical (q ascending, matrix lex) order:
    the sign is csgn(A, E), the left blocks are c(A) and the right blocks
    r(A), for each q x p configuration matrix A, q + p = m + 1, reached
    from the step matrix E.  Each distinct block is one object, shared by
    every term that holds it.

    One walk of each shape with q <= p gives the terms of two shapes, by
    two exact facts that the sumatrix module docstring proves in full:
    - Transposition.  A down shift at (i, j) is a right shift at (j, i) of
      the transpose, with the same admissibility, and the monotonicity and
      no-refill rules swap the same way, so closure(E^T) = closure(E)^T.
      The columns of A^T are the rows of A and its rows the columns of A,
      so the term of A^T is (csgn(A^T, E^T), r(A) reversed, c(A)
      reversed), in the same block objects, ordered by the flat entries
      of A^T.
    - Carried sign.  A down shift of v from (i, j) leaves c(A) and the
      step factor alone and moves v from row i to row i+1, adjacent blocks
      of r(A) whose weights differ in parity, which flips the parity of
      the sizes at odd weight; in the word of r(A) v passes the a entries
      of row i left of j and the b of row i+1 right of j, so csgn is
      multiplied by (-1)^{1+a+b}.  A right shift multiplies it by
      (-1)^{1+c+d} with c the entries of column j below row i and d those
      of column j+1 above it.  The walk carries csgn(A, E) and
      csgn(A^T, E^T) from csgn(E, E) and csgn(E^T, E^T), each factor a
      popcount of the occupancy against a mask built once per move, so
      no partition is built to sign a term."""
    terms, transposed = [], {}
    share = {}.setdefault  # block -> its one copy
    for q in range(1, m + 1):
        p = m - q + 1
        if q > p:
            terms += transposed.pop(q)
        else:
            shape, transposed[p] = signed_partitions(q, p, share)
            terms += shape
    return tuple(terms)


def su_top_diagonal(m: int) -> dict:
    """The double sum over configuration matrices for the top cell, each
    (left, right) pair once."""
    return {(left, right): sign for sign, left, right in _top_cell_terms(m)}


@lru_cache(maxsize=None)
def _block_terms(block: tuple) -> tuple:
    """The top-cell terms of the permutohedron on `block`, with 1..n
    renamed order-preservingly to its elements, as `_renamed` gives them."""
    return _renamed(_top_cell_terms(len(block)), block)


def _renamed(top: tuple, block: tuple) -> tuple:
    """The terms `top` on 1..n, with 1..n renamed order-preservingly to
    the elements of `block`: (sign, left blocks, right blocks, left
    degree, right degree).  Each distinct block is renamed once, so the
    terms share their renamed blocks."""
    n = len(block)
    element = (None, *block).__getitem__  # i -> the i-th element of block
    table = dict.fromkeys(b for _, left, right in top for b in left + right)
    for b in table:
        table[b] = tuple(map(element, b))
    rename = table.__getitem__
    return tuple((sign, tuple(map(rename, left)), tuple(map(rename, right)),
                  n - len(left), n - len(right))
                 for sign, left, right in top)


@lru_cache(maxsize=None)
def _interval(a: int, b: int) -> tuple:
    """The block a, a + 1, ..., b - 1, one object for all terms."""
    return tuple(range(a, b))


def _runs(n: int, starts: tuple) -> tuple:
    """The runs of 1..n that begin at 1 and at each value of `starts`."""
    bounds = (1, *starts, n + 1)
    return tuple(map(_interval, bounds, bounds[1:]))


def kept_top_terms(n: int) -> tuple:
    """The terms of `_top_cell_terms(n)` whose left and right blocks are
    all intervals, in the same order and with the same signs, built
    directly: no configuration matrix is enumerated.  These are the terms
    that the projection to the cube keeps.

    Such a term is a snake: the values 1..n run from cell (1, 1) to (q, p),
    each step going right or down.  It is fixed by the set D of the
    values entered by a down move, any subset of {2..n}: q = |D| + 1, the
    rows are the runs of 1..n split before each value of D and the
    columns the runs split before each other value.  Its source step
    matrix is the hook whose first column is 1 then D and whose first row
    is 1 then the other values, so c(E) = ((1,) + D, then each other value
    as a singleton), and the sign is partition_sign(step_sign(q, c(E)),
    r(A), c(A)), from the sign calculus alone.  Terms come by q, then D in
    lexicographic order, which is the order of their matrices, and every
    term holds the one object `_interval` keeps for each of its blocks.

    Why these are all the kept terms, each once and with that sign:
    - A configuration matrix A whose rows and columns are all intervals
      is a snake.  Its q rows of sizes s_i hold sum (s_i - 1) = n - q
      pairs k, k + 1 in one row, its columns n - p pairs in one column,
      and no pair shares both.  As n - q + n - p = n - 1, every pair k,
      k + 1 shares a row or a column, so k + 1 lies right of k or below
      it.  The path 1, ..., n visits all q rows and p columns in q + p - 2
      moves, so each move is one cell, from (1, 1) to (q, p).
    - Its source is the hook of its D.  Shifts move entries only down or
      right, so 1 sat at (1, 1) in the source, and a step matrix with an
      entry at (1, 1) is a hook; let D' be the values below 1 in its
      first column.  The hook puts a value v of D' in row 1 + |{d in D' :
      d <= v}| and any other v in column 1 + |{r not in D' : r <= v}|,
      and A puts v in the row and column these counts give with D.  At
      the least value where D and D' differ, the hook's place for it is
      below or right of its place in A, which no shift undoes.
    - Each snake is reached from the hook of its D.  Each value of D
      stays in its row and moves right; each other value stays in its
      column and moves down.  A row of the snake starts with its one
      value of D (or 1), a column with its one value outside D, so while
      every value lies between its place in the hook and in A, rows and
      columns increase and no target is occupied.  Take all right shifts
      by column, then all down shifts by row: each is admissible, both
      sequences are monotone, and none refills a vacated cell, as values
      of D vacate cells below the path of A and the others cells above.

    Each block B with a gap keeps no term, which is why only interval
    faces have terms that the projection keeps: in a snake the values k
    and k + 1 always share a row or a column, so renamed through B some
    block holds both sides of the gap and is not an interval."""
    values = range(2, n + 1)
    terms = []
    for q in range(1, n + 1):
        for D in itertools.combinations(values, q - 1):
            others = tuple(v for v in values if v not in D)
            left, right = _runs(n, others), _runs(n, D)[::-1]
            step = step_sign(q, ((1, *D), *((v,) for v in others)))
            terms.append((partition_sign(step, right, left), left, right))
    return tuple(terms)


def interleave(factors):
    """The products of one term from each factor, in order, as (sign, left
    blocks, right blocks).  A factor is a sequence of (sign, left blocks,
    right blocks, left degree, right degree); each left part moves past
    the right parts of the earlier factors, which gives the Koszul sign."""
    *front, last = factors
    partial = [(1, (), (), 0)]  # (sign, left, right, right degree)
    for factor in front:
        partial = [(-s * t if deg_left * degree % 2 else s * t,
                    left + bl, right + br, degree + deg_right)
                   for s, left, right, degree in partial
                   for t, bl, br, deg_left, deg_right in factor]
    for s, left, right, degree in partial:  # the last factor as the terms are yielded
        for t, bl, br, deg_left, _ in last:
            yield -s * t if deg_left * degree % 2 else s * t, left + bl, right + br


def su_terms(F: tuple):
    """The terms of the diagonal of the face F, as (sign, left blocks,
    right blocks), each pair once: the top-cell diagonal inside each
    block, the per-block factors interleaved."""
    return interleave(map(_block_terms, F))


def su_diagonal(F: tuple) -> dict:
    """Comultiplicative extension of the top-cell diagonal to the face F:
    the terms of `su_terms`, which gives each pair once, as pairs of
    faces."""
    return {(left, right): sign for sign, left, right in su_terms(F)}


def cai_terms(sigma: tuple, tau: tuple):
    """The terms of the Cai diagonal of the cube cell (sigma, tau), as
    ((sub, tau), (rest, tau | sub), sign): the (sigma, tau) keys of the
    left and right cells, one term per subset sub of sigma."""
    for r in range(len(sigma) + 1):
        for sub in itertools.combinations(sigma, r):
            rest = tuple(x for x in sigma if x not in sub)
            sign = -1 if inversion_count(sub, rest) % 2 else 1
            yield (sub, tau), (rest, tuple(sorted(sub + tau))), sign


def cai_diagonal(c: tuple) -> dict:
    """Diagonal of a cube cell, dual to the Whitney product: the terms of
    `cai_terms`, one per left cell, as pairs of cells."""
    return {(left, right): sign for left, right, sign in cai_terms(*c)}


# ---------------------------------------------------------------------------
# cup products

def cup_su(a: dict, b: dict, X: PermComplex, deg_a: int, deg_b: int) -> dict:
    """Product of cochains on a permutohedral complex via the diagonal:
    <a cup b, F> = <a (x) b, su_diagonal(F)>.

    A cochain is a dict {face: coefficient} (the faces read as their
    duals); the degrees must be supplied since a dict does not know its
    grading.  Each face of the product is one value, kept if nonzero.
    """
    result = {}
    m = X.m
    for F in X.faces(deg_a + deg_b):
        value = 0
        for sign, left, right in su_terms(F):
            if m - len(left) == deg_a and m - len(right) == deg_b:
                value += sign * a.get(left, 0) * b.get(right, 0)
        if value:
            result[F] = value
    return result
