"""Cells of the cube [-1, 1]^m, and real moment-angle subcomplexes.

A cell is a pair (sigma, tau) of disjoint increasing tuples from [m]:
interval factors on sigma, the +1 endpoint on tau, the -1 endpoint
elsewhere; its dimension is len(sigma).  Every pair is made here or by
the projection and diagonal code, each of which keeps sigma and tau
disjoint; `cell_label` gives the text that reports print.

The real moment-angle complex R_L of a complex L on [m] is the union of
the cube faces (D^1, S^0)^sigma over sigma in L: the cells (sigma, tau)
with sigma in L and tau any subset of the rest.  `build_rmac` lists them
by dimension, as a permutohedral complex lists its faces, so that
`homology.complex_from_boundary(build_rmac(L), cube_boundary)` assembles
its chain complex.  `cube_boundary` is the Leibniz boundary of the
product of intervals.
"""

from __future__ import annotations

import itertools

from .simplicial import SimplicialComplex


def cell_label(c: tuple) -> str:
    """The report text of a cell, c(u:12,t:-) for ((1, 2), ())."""
    s = "".join(map(str, c[0])) or "-"
    t = "".join(map(str, c[1])) or "-"
    return f"c(u:{s},t:{t})"


def subsets(elements):
    elements = tuple(elements)
    for k in range(len(elements) + 1):
        yield from itertools.combinations(elements, k)


def cube_boundary(c: tuple) -> dict:
    """Leibniz boundary across the tensor coordinates in increasing order,
    as {cell: coefficient}: the i-th term picks up (-1)^(number of
    interval factors before i)."""
    sigma, tau = c
    terms = {}  # each i gives its two ends, and no two i give one rest
    for pos, i in enumerate(sigma):
        sign = -1 if pos % 2 else 1
        rest = sigma[:pos] + sigma[pos + 1:]
        terms[rest, tuple(sorted(tau + (i,)))] = sign
        terms[rest, tau] = -sign
    return terms


def build_rmac(L: SimplicialComplex) -> dict:
    """The cells of R_L by dimension, {d: [(sigma, tau), ...]}: for each
    simplex sigma of L in (len, lex) order, every tau in the rest of [m]."""
    cells = {}
    for sigma in L.simplices_sorted():
        rest = [i for i in range(1, L.m + 1) if i not in sigma]
        cells.setdefault(len(sigma), []).extend((sigma, tau) for tau in subsets(rest))
    return cells


def inversion_count(A, B) -> int:
    """Number of pairs i in A, j in B with i > j."""
    return sum(1 for i in A for j in B if i > j)
