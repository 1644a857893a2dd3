"""Projection from the permutohedron to the cube, and the machine checks
tying the two diagonals together.

The face rule sends F(U_1|...|U_p) on [m] to the cube cell (sigma, tau)
of I^{m-1}, with interval coordinates sigma = {i : i, i+1 share a block}
and +1 coordinates tau = {i : i+1 sits in an earlier block than i}.
Dimension is preserved exactly when every block is a run of consecutive
integers.
Only the faces whose blocks are all such runs matter to the diagonals:
rho sends every other face to 0, and rho (x) rho every term of its SU
diagonal, by the snake lemma of `diagonals.kept_top_terms`.  On such a
face both sides are products over its blocks (the product lemma of
`verify_su_cai`), so `verify_su_cai` checks one face per interval block,
m(m - 1)/2 + 1 faces in all, and walks every interval face with
`walk_su_cai` only when one of them fails.  CI runs the walk itself
through m = 9 and the check through m = 16.
The image {rho(F)} of a face set closed under refinement, such as
Perm(K), is already closed under taking faces (proved at `verify_image`),
so `verify_image` compares it with R_L as it is.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cubes import build_rmac, cell_label
from .diagonals import _renamed, cai_terms, interleave, kept_top_terms
from .permutohedron import build_perm_complex, face_label, partitions_by_count
from .simplicial import SimplicialComplex, from_facets


def rho_face(F: tuple) -> tuple:
    """Image cell (sigma, tau) of a face, even when the dimension drops."""
    block_of = {}
    for j, block in enumerate(F):
        for i in block:
            block_of[i] = j
    m = len(block_of)
    sigma, tau = [], []
    for i in range(1, m):
        if block_of[i] == block_of[i + 1]:
            sigma.append(i)
        elif block_of[i + 1] < block_of[i]:
            tau.append(i)
    return tuple(sigma), tuple(tau)


def blocks_are_intervals(F: tuple) -> bool:
    """Whether every block is a run of consecutive integers, which is
    exactly when rho_face keeps the dimension of F: a block of size s
    holds at most s - 1 pairs i, i + 1, and s - 1 exactly when it is an
    interval (tested through m = 5; `walk_su_cai` walks the faces it
    accepts, through m = 9 in CI)."""
    return all(b[-1] - b[0] + 1 == len(b) for b in F)


def rho_sign(F: tuple) -> int:
    """Orientation of the image cell relative to the cube's product
    orientation: the Koszul sign of sorting the interval blocks into
    their natural order, a block of size s contributing degree s - 1, so
    singletons play no part.  Solved from the boundary-commutation
    equations; `walk_su_cai` checks it on every interval face through
    m = 9 in CI, and the product lemma of `verify_su_cai` is where it
    factors block by block."""
    blocks = [(b[0], len(b) - 1) for b in F if len(b) > 1]  # (min, degree)
    e = sum(dj * dk
            for j, (aj, dj) in enumerate(blocks)
            for ak, dk in blocks[j + 1:]
            if aj > ak)
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# verification

def verify_su_cai(m: int) -> dict:
    """Check (rho (x) rho) Delta_SU = Delta_C(rho) on every face of
    Perm^{m-1}; discrepancies are reported, not raised.

    A passing run checks only the probes of `_probes`, m(m - 1)/2 + 1
    faces: the product lemma below gives every other face from them.
    When a probe fails (`failing_probes`), `walk_su_cai` checks every
    interval face, least dimension first, so the first mismatch names a
    failing face of least dimension; a mismatch lists only the terms of
    lhs - rhs, each as its left and right cube cells and its coefficient.
    Either way the report is the one a walk over every face would give.
    `faces_checked` counts every face, the ordered Bell number of m: a
    face with a non-interval block is 0 on both sides (see `walk_su_cai`).

    Product lemma.  Let F = (B_1|...|B_p) be an interval face, B_j
    starting at a_j, and read the top cell of Perm(B_j) through the cube
    I^{B_j} on the coordinates of its pairs i, i + 1.
    - rho(F) is the product of the top cells of the cubes I^{B_j}, with
      each gap coordinate i between two blocks fixed: in tau when the
      block of i + 1 comes before that of i in F.
    - A kept term of F is (s, L, R), L = L_1 ... L_p and R = R_1 ... R_p
      from kept terms (s_j, L_j, R_j) of the blocks, s from `interleave`
      in F's block order.  The blocks of L_j lie in B_j, so rho_face(L)
      is rho_face(L_j) on the coordinates of each B_j, and on a gap pair
      i, i + 1 it reads the order of their blocks in F, as rho(F) does.
      Sorting the blocks of L, one of L_j passes one of L_k, j < k,
      exactly when a_j > a_k, so rho_sign(L) is the product of the
      rho_sign(L_j) times the Koszul sign of F's block order on the
      degrees l_j of the L_j.  Likewise for R, with degrees r_j.
    - The Cai terms of rho(F) choose a subset S of its interval
      coordinates, the union of subsets S_j of each block's.  The gap
      coordinates of tau stay on both sides, and the sign (-1)^{inv(S,
      rest)} is the product of the blocks' signs times (-1)^{|S_j|
      |rest_k|} for each a_k < a_j: the Koszul product of the blocks'
      terms in coordinate order.
    So both sides on F are products over the blocks, and it remains to
    compare their signs on a pair j < k of F's order, with l_j + r_j =
    |B_j| - 1.  The left side carries l_k r_j from `interleave` and, when
    a_j > a_k, l_j l_k + r_j r_k from the rho_sign of L and R.  The right
    side carries, when a_j < a_k, l_k r_j from the Cai sign, and when
    a_j > a_k, (l_j + r_j)(l_k + r_k) from rho_sign(F) and l_j r_k from
    the Cai sign.  The exponents agree mod 2, so lhs - rhs on F is
    X_1 ... X_p - Y_1 ... Y_p under one Koszul rearrangement, X_j and Y_j
    the two sides on the top cell of B_j, and it vanishes when X_j = Y_j
    for each j.  A probe holds one block with the other elements as
    singletons, whose one term (+1, (i), (i)) has degree 0 and whose
    cube is a point, so its two sides are X_j and Y_j; the vertex probe
    checks the singletons themselves."""
    mismatches = walk_su_cai(m) if failing_probes(m) else []
    return {"m": m, "faces_checked": _ordered_bell(m), "mismatches": mismatches,
            "passed": not mismatches}


def failing_probes(m: int) -> list:
    """The probes of `_probes(m)` on which lhs - rhs is not 0."""
    factor = _kept_factor()
    return [F for F in _probes(m) if _mismatch(F, m, factor, _image) is not None]


def _probes(m: int) -> list:
    """For each interval block B of [m], by size and then start, the face
    holding B with the other elements as singletons in increasing order.
    The blocks of one element all give the vertex 1|2|...|m, listed once."""
    singles = tuple((i,) for i in range(1, m + 1))
    return [(*singles[:a - 1], tuple(range(a, a + n)), *singles[a + n - 1:])
            for n in range(1, m + 1) for a in range(1, m - n + 2)
            if n > 1 or a == 1]


def walk_su_cai(m: int) -> list:
    """The mismatches of (rho (x) rho) Delta_SU = Delta_C(rho) over every
    interval face of Perm^{m-1}, by dimension, least first.

    Only the interval faces are walked, and only the SU terms that
    rho (x) rho keeps are generated.  rho sends a face with a non-interval
    block to 0, and a term's left and right faces are the blocks of one
    term from each block's factor, so a term survives exactly when each
    chosen factor term has interval blocks on both sides.  For an
    interval block those are the renamed `kept_top_terms`; a block with a
    gap keeps none (see `kept_top_terms`), so every other face is 0 on
    both sides.  `interleave` of the kept factors gives the surviving
    terms with the signs they have in `su_terms`: the Koszul sign depends
    only on the degrees of the terms chosen."""
    by_count = partitions_by_count(range(1, m + 1),
                                   lambda block: blocks_are_intervals((block,)))
    faces = [F for p in range(m, 0, -1) for F in by_count[p]]
    # interval face -> (its image cell, rho_sign)
    images = {F: _image(F) for F in faces}
    factor = lru_cache(maxsize=None)(_kept_factor())
    return [x for F in faces
            if (x := _mismatch(F, m, factor, images.__getitem__)) is not None]


def _kept_factor():
    """The map from an interval block to its renamed kept terms, with
    `kept_top_terms(n)` built once per size n."""
    top = lru_cache(maxsize=None)(kept_top_terms)
    return lambda block: _renamed(top(len(block)), block)


def _image(F: tuple) -> tuple:
    """The image cell of the interval face F and its rho_sign."""
    return rho_face(F), rho_sign(F)


def _mismatch(F: tuple, m: int, factor, image):
    """lhs - rhs on the interval face F as its report entry, None when it
    is 0.  The terms of both sides are keyed by their (sigma, tau) cells."""
    lhs = {}  # (left cell, right cell) -> coefficient
    for sign, left, right in interleave(map(factor, F)):
        (a, sa), (b, sb) = image(left), image(right)
        key = (a, b)
        lhs[key] = lhs.get(key, 0) + sign * sa * sb
    c, s = image(F)  # lhs - rhs
    for a, b, coeff in cai_terms(*c):
        key = (a, b)
        lhs[key] = lhs.get(key, 0) - s * coeff
    terms = sorted((cell_label(a), cell_label(b), v)
                   for (a, b), v in lhs.items() if v)
    if not terms:
        return None
    return {"face": face_label(F), "dim": m - len(F),
            "terms": [{"left": a, "right": b, "coeff": coeff}
                      for a, b, coeff in terms]}


def _ordered_bell(m: int) -> int:
    """The number of ordered partitions of [m], the faces of Perm^{m-1}:
    a(0) = 1 and a(n) = sum_{k=1}^{n} C(n, k) a(n - k)."""
    a = [1]
    for n in range(1, m + 1):
        a.append(sum(math.comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a[m]


def L_of_K(K: SimplicialComplex) -> SimplicialComplex:
    """The complex on [m-1] describing the image of Perm(K) under the
    projection: J belongs iff each maximal run {j..j+k} of J extends to a
    simplex {j..j+k+1} of K."""
    if K.m < 2:
        raise ValueError("L(K) needs m >= 2")
    members = []
    universe = range(1, K.m)
    for r in range(1, K.m):
        for J in itertools.combinations(universe, r):
            if all(tuple(range(run[0], run[-1] + 2)) in K.simplices
                   for run in _maximal_runs(J)):
                members.append(J)
    return from_facets(K.m - 1, members, include_all_vertices=False)


def _maximal_runs(J):
    runs = []
    for i in J:
        if runs and i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def verify_image(K: SimplicialComplex) -> dict:
    """Check that {rho(F) : F in Perm(K)} is exactly the real
    moment-angle complex of L(K).

    The image needs no closure under faces, as Perm(K) is closed under
    refinement.  A face of a cube cell (sigma, tau) keeps a part sigma'
    of sigma as intervals, sends S in the rest of sigma to +1 and T, the
    others, to -1: it is (sigma', tau + S).  Let G refine F.  A pair
    i, i + 1 in one block of G is in one block of F, and a pair in
    different blocks of F keeps its order in G.  So rho(G) is
    (sigma(G), tau(F) + S) with S inside sigma(F) - sigma(G), a face of
    rho(F).  Conversely, take the face (sigma', tau(F) + S) of rho(F) and
    merge each run of sigma' into one part.  Within a block of F, the
    rules "i + 1 before i" for i in S and "i before i + 1" for i in T
    order neighbouring parts along paths, which is acyclic.  The parts
    in a linear extension of that order are sub-blocks of the block, so
    simplices of K, and they make a refinement G of F in Perm(K) with
    rho(G) that face.  So `image_cells` also counts the closure."""
    X = build_perm_complex(K)
    image = {rho_face(F) for F in X.all()}
    L = L_of_K(K)
    expected = {c for cells in build_rmac(L).values() for c in cells}
    report = {
        "m": K.m,
        "L": [list(s) for s in L.simplices_sorted() if s],
        "image_cells": len(image),
        "expected_cells": len(expected),
        "passed": image == expected,
        "missing": sorted(map(cell_label, expected - image)),
        "extra": sorted(map(cell_label, image - expected)),
        "notes": [],
    }
    # Known prose/formula mismatch in the source example for m = 4: the
    # face rule sends F(13|24) to the vertex (-1, 1, -1) and F(24|13) to
    # (1, -1, 1), the swap of what the worked example narrates.
    if K.m == 4 and (1, 3) in K.simplices and (2, 4) in K.simplices:
        report["notes"].append(
            "F(13|24) maps to (-1, 1, -1) and F(24|13) to (1, -1, 1) under "
            "the face rule; the worked quadrilateral example lists these "
            "two images the other way around (suspected typo).")
    return report
