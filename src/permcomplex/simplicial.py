"""Simplicial complexes on the vertex set {1, ..., m}.

Simplices are stored canonically as strictly increasing tuples.  Every
complex contains the empty simplex and all singletons; constructors take
downward closures so the invariants hold for anything they return.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


class InvalidComplexError(ValueError):
    """Raised when input data cannot be a simplicial complex on [m]."""


def _canon(simplex) -> tuple:
    t = tuple(sorted(set(simplex)))
    return t


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of {1, ..., m}.

    `simplices` always contains the empty tuple.  Complexes built by the
    standard constructors also contain every singleton ``(i,)``; image
    complexes (`L_of_K`) may have ghost vertices.
    """

    m: int
    simplices: frozenset = field(default_factory=frozenset)

    def __contains__(self, simplex) -> bool:
        return _canon(simplex) in self.simplices

    def simplices_sorted(self) -> list:
        return sorted(self.simplices, key=lambda s: (len(s), s))

    def dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1


def from_facets(m: int, facets, include_all_vertices: bool = True) -> SimplicialComplex:
    """Downward closure of `facets`, plus the empty set, plus all
    singletons unless `include_all_vertices` is off.

    Complexes describing projection images (see `L_of_K`) can miss
    vertices; everything else keeps the full vertex set."""
    if m < 1:
        raise InvalidComplexError(f"m must be positive, got {m}")
    simplices = {()}
    if include_all_vertices:
        simplices.update((i,) for i in range(1, m + 1))
    for facet in facets:
        f = _canon(facet)
        if f and (f[0] < 1 or f[-1] > m):
            raise InvalidComplexError(f"facet {f} has element outside [1, {m}]")
        for k in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, k))
    return SimplicialComplex(m, frozenset(simplices))


def minimal_nonfaces(K: SimplicialComplex) -> list:
    """Inclusion-minimal subsets of [m] not in K, in lexicographic order.

    A nonface is minimal iff all its proper subsets are faces; it is then
    enough that all codimension-one subsets are faces.
    """
    result = []
    for k in range(1, K.m + 1):
        for s in itertools.combinations(range(1, K.m + 1), k):
            if s in K.simplices:
                continue
            if all(s[:i] + s[i + 1 :] in K.simplices for i in range(k)):
                result.append(s)
    return sorted(result)


def full_simplex(m: int) -> SimplicialComplex:
    return from_facets(m, [range(1, m + 1)])


def skeleton(m: int, d: int) -> SimplicialComplex:
    """The d-skeleton of the full simplex on [m]: all subsets of size <= d+1."""
    if d >= m:
        raise InvalidComplexError(f"skeleton dimension {d} must be < m = {m}")
    return from_facets(m, itertools.combinations(range(1, m + 1), d + 1))


def polygon_boundary(vertex_cycle) -> SimplicialComplex:
    """Boundary of the polygon with vertices in the given cyclic order."""
    cycle = list(vertex_cycle)
    n = len(cycle)
    if n < 3:
        raise InvalidComplexError(f"cycle of length {n} < 3 is degenerate")
    if sorted(cycle) != list(range(1, n + 1)):
        raise InvalidComplexError(f"{cycle} is not a permutation of [1, {n}]")
    edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    return from_facets(n, edges)


def random_complex(m: int, rng: random.Random) -> SimplicialComplex:
    """A random complex on [m]: each subset of size >= 2 is proposed as a
    facet with probability 1/2 (closure fixes the rest)."""
    facets = []
    for k in range(2, m + 1):
        for s in itertools.combinations(range(1, m + 1), k):
            if rng.random() < 0.5:
                facets.append(s)
    return from_facets(m, facets)


def random_suite(seed: int = 0, count: int = 20, max_m: int = 5) -> list:
    """The seeded random complexes used by the verification suite."""
    rng = random.Random(seed)
    return [random_complex(rng.randint(2, max_m), rng) for _ in range(count)]


def to_json_dict(K: SimplicialComplex) -> dict:
    facets = [list(s) for s in K.simplices_sorted() if s and not any(
        set(s) < set(t) for t in K.simplices)]
    return {"m": K.m, "facets": facets}


def from_json_dict(data: dict) -> SimplicialComplex:
    try:
        m = data["m"]
        facets = data["facets"]
    except (KeyError, TypeError) as exc:
        raise InvalidComplexError(f"complex JSON needs 'm' and 'facets': {exc}")
    if type(m) is not int:  # bool is a subclass of int
        raise InvalidComplexError(f"'m' must be an integer, got {type(m).__name__}")
    if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(type(v) is int for v in f) for f in facets):
        raise InvalidComplexError("'facets' must be a list of lists of integers")
    return from_facets(m, facets)
