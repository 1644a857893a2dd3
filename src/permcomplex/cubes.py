"""Cells and cochains of the cube [-1, 1]^m, and real moment-angle
subcomplexes.

A cell is a pair of disjoint subsets (sigma, tau) of [m]: interval
factors on sigma, the +1 endpoint on tau, the -1 endpoint elsewhere.
Cochains use the basis u^sigma t^tau (with the delta = t* + tbar*
cochain implicit on the remaining coordinates), which is dual to the
chain basis u_sigma eps_tau with eps_i = t_i - tbar_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chains import FormalChain
from .homology import ChainComplexData, complex_from_boundary
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class CubeCell:
    m: int
    sigma: tuple
    tau: tuple

    def __post_init__(self):
        if set(self.sigma) & set(self.tau):
            raise ValueError(f"sigma {self.sigma} and tau {self.tau} intersect")

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def __repr__(self):
        s = "".join(map(str, self.sigma)) or "-"
        t = "".join(map(str, self.tau)) or "-"
        return f"c(u:{s},t:{t})"


@dataclass(frozen=True)
class CubeCochain:
    """Basis cochain u^sigma t^tau (delta on the other coordinates)."""

    m: int
    sigma: tuple
    tau: tuple

    def __post_init__(self):
        if set(self.sigma) & set(self.tau):
            raise ValueError(f"sigma {self.sigma} and tau {self.tau} intersect")

    @property
    def degree(self) -> int:
        return len(self.sigma)

    def __repr__(self):
        s = "".join(map(str, self.sigma)) or "-"
        t = "".join(map(str, self.tau)) or "-"
        return f"c*(u:{s},t:{t})"


def cell(m: int, sigma, tau) -> CubeCell:
    return CubeCell(m, tuple(sorted(sigma)), tuple(sorted(tau)))


def cochain(m: int, sigma, tau) -> CubeCochain:
    return CubeCochain(m, tuple(sorted(sigma)), tuple(sorted(tau)))


def all_cells(m: int) -> list:
    result = []
    for sigma in subsets(range(1, m + 1)):
        rest = [i for i in range(1, m + 1) if i not in sigma]
        for tau in subsets(rest):
            result.append(CubeCell(m, sigma, tau))
    return result


def subsets(elements):
    elements = tuple(elements)
    for k in range(len(elements) + 1):
        yield from itertools.combinations(elements, k)


def cube_boundary(c: CubeCell) -> FormalChain:
    """Leibniz boundary across the tensor coordinates in increasing order:
    the i-th term picks up (-1)^(number of interval factors before i)."""
    result = FormalChain()
    for pos, i in enumerate(c.sigma):
        sign = -1 if pos % 2 else 1
        sigma = tuple(x for x in c.sigma if x != i)
        result.add_term(CubeCell(c.m, sigma, tuple(sorted(c.tau + (i,)))), sign)
        result.add_term(CubeCell(c.m, sigma, c.tau), -sign)
    return result


class RealMomentAngleComplex:
    """Union of cube faces (D^1, S^0)^sigma over sigma in L."""

    def __init__(self, L: SimplicialComplex):
        self.L = L
        self.m = L.m
        self.cells = [c for c in all_cells(L.m) if c.sigma in L.simplices]
        self.cell_set = set(self.cells)

    def __contains__(self, c: CubeCell) -> bool:
        return c in self.cell_set

    def chain_complex(self) -> ChainComplexData:
        by_dim = {}
        for c in sorted(self.cells, key=lambda c: (c.dim, c.sigma, c.tau)):
            by_dim.setdefault(c.dim, []).append(c)
        return complex_from_boundary(by_dim, cube_boundary)


def build_rmac(L: SimplicialComplex) -> RealMomentAngleComplex:
    return RealMomentAngleComplex(L)


# ---------------------------------------------------------------------------
# cochains

def cochain_differential(a: CubeCochain, L: SimplicialComplex | None = None) -> FormalChain:
    """Coordinate rule dt* = u* (du* = 0, ddelta* = 0) with Koszul signs;
    terms leaving R_L (sigma not in L) are dropped when L is given."""
    result = FormalChain()
    for i in a.tau:
        sigma = tuple(sorted(a.sigma + (i,)))
        if L is not None and sigma not in L.simplices:
            continue
        sign = -1 if sum(1 for j in a.sigma if j < i) % 2 else 1
        result.add_term(CubeCochain(a.m, sigma, tuple(x for x in a.tau if x != i)),
                        sign)
    return result


def cochain_complex(m: int, L: SimplicialComplex | None = None) -> ChainComplexData:
    """Cochain complex of I^m (or of R_L), graded by -degree so that the
    container differential lowers the degree; homology at -q is H^q."""
    basis = {}
    for c in all_cells(m):
        if L is None or c.sigma in L.simplices:
            basis.setdefault(-c.dim, []).append(CubeCochain(m, c.sigma, c.tau))
    for labels in basis.values():
        labels.sort(key=lambda a: (a.sigma, a.tau))
    return complex_from_boundary(basis, lambda a: cochain_differential(a, L))


def inversion_count(A, B) -> int:
    """Number of pairs i in A, j in B with i > j."""
    return sum(1 for i in A for j in B if i > j)


def cup_whitney_basis(a: CubeCochain, b: CubeCochain,
                      L: SimplicialComplex | None = None):
    """Whitney product of basis cochains: (sign, CubeCochain) or None."""
    sa, ta = set(a.sigma), set(a.tau)
    sb, tb = set(b.sigma), set(b.tau)
    if (sa & sb) or (ta & sb):
        return None
    sigma = tuple(sorted(sa | sb))
    if L is not None and sigma not in L.simplices:
        return None
    tau = tuple(sorted(ta | (tb - sa)))
    sign = -1 if inversion_count(a.sigma, b.sigma) % 2 else 1
    return sign, CubeCochain(a.m, sigma, tau)


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


def pair(a: CubeCochain, c: CubeCell) -> int:
    """Evaluation of u^sigma t^tau against a cell: 1 iff the sigmas agree
    and every t-coordinate of the cochain sits at +1 in the cell."""
    return int(a.sigma == c.sigma and set(a.tau) <= set(c.tau))


def evaluate(a: FormalChain, chain: FormalChain) -> int:
    total = 0
    for x, cx in a:
        for c, cc in chain:
            total += cx * cc * pair(x, c)
    return total
