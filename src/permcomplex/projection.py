"""Projection from the permutohedron to the cube, and the machine checks
tying the two diagonals together.

The face rule sends F(U_1|...|U_p) on [m] to the cube cell (sigma, tau)
of I^{m-1}, with interval coordinates sigma = {i : i, i+1 share a block}
and +1 coordinates tau = {i : i+1 sits in an earlier block than i}.
Dimension is preserved exactly when every block is a run of consecutive
integers.
`verify_su_cai` walks only the faces whose blocks are all such runs:
rho sends every other face to 0, and rho (x) rho every term of its SU
diagonal, by the snake lemma of `diagonals.kept_top_terms`.
The image {rho(F)} of a face set closed under refinement, such as
Perm(K), is already closed under taking faces (proved at `verify_image`),
so `verify_image` compares it with R_L as it is.
"""

from __future__ import annotations

import itertools
import math

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
    interval (tested through m = 5; `verify_su_cai` walks the faces it
    accepts, through m = 9 in CI)."""
    return all(b[-1] - b[0] + 1 == len(b) for b in F)


def rho_sign(F: tuple) -> int:
    """Orientation of the image cell relative to the cube's product
    orientation: the Koszul sign of sorting the interval blocks into
    their natural order, a block of size s contributing degree s - 1.
    Solved from the boundary-commutation equations; `verify_su_cai`
    checks it on every interval face through m = 9 in CI."""
    degs = [len(b) - 1 for b in F]
    mins = [b[0] for b in F]
    e = sum(degs[j] * degs[k]
            for j in range(len(F))
            for k in range(j + 1, len(F))
            if mins[j] > mins[k])
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# verification

def verify_su_cai(m: int) -> dict:
    """Check (rho (x) rho) Delta_SU = Delta_C(rho) on every face of
    Perm^{m-1}; discrepancies are reported, not raised.

    Faces are checked by dimension, least first, so the first mismatch
    names a failing face of least dimension.  A mismatch lists only the
    terms of lhs - rhs, each as its left and right cube cells and its
    coefficient.  The terms of both sides are keyed by their (sigma, tau)
    cells.

    Only the interval faces are walked, and only the SU terms that
    rho (x) rho keeps are generated.  rho sends a face with a non-interval
    block to 0, and a term's left and right faces are the blocks of one
    term from each block's factor, so a term survives exactly when each
    chosen factor term has interval blocks on both sides.  For an
    interval block those are the renamed `kept_top_terms`; a block with a
    gap keeps none (see `kept_top_terms`), so every other face is 0 on
    both sides.  `interleave` of the kept factors gives the surviving
    terms with the signs they have in `su_terms`: the Koszul sign depends
    only on the degrees of the terms chosen.  `faces_checked` counts
    every face, the ordered Bell number of m."""
    by_count = partitions_by_count(range(1, m + 1),
                                   lambda block: blocks_are_intervals((block,)))
    faces = [F for p in range(m, 0, -1) for F in by_count[p]]
    # interval face -> (its image cell, rho_sign)
    images = {F: (rho_face(F), rho_sign(F)) for F in faces}
    kept = {}  # interval block -> its kept terms, renamed

    def factor(block):
        terms = kept.get(block)
        if terms is None:
            terms = kept[block] = _renamed(kept_top_terms(len(block)), block)
        return terms

    mismatches = []
    for F in faces:
        lhs = {}  # (left cell, right cell) -> coefficient
        for sign, left, right in interleave(map(factor, F)):
            (a, sa), (b, sb) = images[left], images[right]
            key = (a, b)
            lhs[key] = lhs.get(key, 0) + sign * sa * sb
        c, s = images[F]  # lhs - rhs
        for a, b, coeff in cai_terms(*c):
            key = (a, b)
            lhs[key] = lhs.get(key, 0) - s * coeff
        terms = sorted((cell_label(a), cell_label(b), v)
                       for (a, b), v in lhs.items() if v)
        if terms:
            mismatches.append({
                "face": face_label(F), "dim": m - len(F),
                "terms": [{"left": a, "right": b, "coeff": coeff}
                          for a, b, coeff in terms]})
    return {"m": m, "faces_checked": _ordered_bell(m), "mismatches": mismatches,
            "passed": not mismatches}


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
