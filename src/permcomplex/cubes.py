"""Cells and cochains of the cube [-1, 1]^m, and real moment-angle
subcomplexes.

A cell is a pair (sigma, tau) of disjoint increasing tuples from [m]:
interval factors on sigma, the +1 endpoint on tau, the -1 endpoint
elsewhere; its dimension is len(sigma).  The same pair names the basis
cochain u^sigma t^tau (with the delta = t* + tbar* cochain implicit on
the remaining coordinates), which is dual to the chain basis
u_sigma eps_tau with eps_i = t_i - tbar_i.  Every pair is made here or by
the projection and diagonal code, each of which keeps sigma and tau
disjoint; `cell_label` gives the text that reports print.
"""

from __future__ import annotations

import itertools

from .chains import FormalChain
from .homology import ChainComplexData, complex_from_boundary
from .simplicial import SimplicialComplex


def cell_label(c: tuple) -> str:
    """The report text of a cell, c(u:12,t:-) for ((1, 2), ())."""
    s = "".join(map(str, c[0])) or "-"
    t = "".join(map(str, c[1])) or "-"
    return f"c(u:{s},t:{t})"


def all_cells(m: int) -> list:
    result = []
    for sigma in subsets(range(1, m + 1)):
        rest = [i for i in range(1, m + 1) if i not in sigma]
        for tau in subsets(rest):
            result.append((sigma, tau))
    return result


def subsets(elements):
    elements = tuple(elements)
    for k in range(len(elements) + 1):
        yield from itertools.combinations(elements, k)


def cube_boundary(c: tuple) -> FormalChain:
    """Leibniz boundary across the tensor coordinates in increasing order:
    the i-th term picks up (-1)^(number of interval factors before i)."""
    sigma, tau = c
    result = FormalChain()
    for pos, i in enumerate(sigma):
        sign = -1 if pos % 2 else 1
        rest = sigma[:pos] + sigma[pos + 1:]
        result.add_term((rest, tuple(sorted(tau + (i,)))), sign)
        result.add_term((rest, tau), -sign)
    return result


class RealMomentAngleComplex:
    """Union of cube faces (D^1, S^0)^sigma over sigma in L."""

    def __init__(self, L: SimplicialComplex):
        self.L = L
        self.m = L.m
        self.cells = [c for c in all_cells(L.m) if c[0] in L.simplices]

    def chain_complex(self) -> ChainComplexData:
        by_dim = {}
        for c in sorted(self.cells, key=lambda c: (len(c[0]), c)):
            by_dim.setdefault(len(c[0]), []).append(c)
        return complex_from_boundary(by_dim, cube_boundary)


def build_rmac(L: SimplicialComplex) -> RealMomentAngleComplex:
    return RealMomentAngleComplex(L)


# ---------------------------------------------------------------------------
# cochains

def cochain_differential(a: tuple, L: SimplicialComplex | None = None) -> FormalChain:
    """Coordinate rule dt* = u* (du* = 0, ddelta* = 0) with Koszul signs;
    terms leaving R_L (sigma not in L) are dropped when L is given."""
    sigma, tau = a
    result = FormalChain()
    for i in tau:
        raised = tuple(sorted(sigma + (i,)))
        if L is not None and raised not in L.simplices:
            continue
        sign = -1 if sum(1 for j in sigma if j < i) % 2 else 1
        result.add_term((raised, tuple(x for x in tau if x != i)), sign)
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


def inversion_count(A, B) -> int:
    """Number of pairs i in A, j in B with i > j."""
    return sum(1 for i in A for j in B if i > j)


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


def cup_whitney(a: FormalChain, b: FormalChain,
                L: SimplicialComplex | None = None) -> FormalChain:
    """Bilinear extension of the Whitney product to cochain combinations."""
    result = FormalChain()
    for x, cx in a:
        for y, cy in b:
            product = cup_whitney_basis(x, y, L)
            if product is not None:
                sign, z = product
                result.add_term(z, sign * cx * cy)
    return result


def pair(a: tuple, c: tuple) -> int:
    """Evaluation of u^sigma t^tau against a cell: 1 iff the sigmas agree
    and every t-coordinate of the cochain sits at +1 in the cell."""
    return int(a[0] == c[0] and set(a[1]) <= set(c[1]))
