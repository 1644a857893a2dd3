"""Permutohedral complexes for diagonal subspace arrangements: cellular
(co)homology, the bar-construction model, the permutohedron and cube
diagonals, and the projection between them."""

from .cubes import build_rmac
from .homology import ChainComplexData, HomologySummary, homology, smith_normal_form
from .permutohedron import (
    PermComplex,
    build_perm_complex,
    build_perm_complex_C,
    full_permutohedron,
)
from .simplicial import SimplicialComplex, from_facets, full_simplex, polygon_boundary, skeleton

__all__ = [
    "build_rmac",
    "ChainComplexData",
    "HomologySummary",
    "homology",
    "smith_normal_form",
    "PermComplex",
    "build_perm_complex",
    "build_perm_complex_C",
    "full_permutohedron",
    "SimplicialComplex",
    "from_facets",
    "full_simplex",
    "polygon_boundary",
    "skeleton",
]
