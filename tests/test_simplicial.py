import pytest

from permcomplex import simplicial
from permcomplex.simplicial import (
    InvalidComplexError,
    from_facets,
    full_simplex,
    minimal_nonfaces,
    polygon_boundary,
    skeleton,
)

from conftest import validate


def test_from_facets_closes_downward():
    K = from_facets(3, [[1, 2, 3]])
    assert (1, 2) in K
    assert (2,) in K
    assert () in K
    assert K.dim() == 2


def test_from_facets_adds_singletons_by_default():
    K = from_facets(3, [[1, 2]])
    assert (3,) in K


def test_from_facets_ghost_vertices_allowed_when_requested():
    K = from_facets(3, [[2]], include_all_vertices=False)
    assert (2,) in K
    assert (1,) not in K
    assert (3,) not in K
    assert validate(K, require_all_vertices=False)
    diagnostics = []
    assert not validate(K, diagnostics=diagnostics)
    assert diagnostics


def test_validate_rejects_out_of_range_vertices():
    with pytest.raises(InvalidComplexError):
        from_facets(3, [[1, 5]])


def test_full_simplex_counts():
    K = full_simplex(4)
    assert len(K.simplices) == 16  # all subsets of a 4-set


def test_skeleton_of_simplex():
    K = skeleton(4, 1)
    # complete graph on 4 vertices: empty set, 4 vertices, 6 edges
    assert len(K.simplices) == 1 + 4 + 6
    assert K.dim() == 1
    assert (1, 2, 3) not in K


def test_polygon_boundary_square():
    K = polygon_boundary([1, 2, 3, 4])
    assert (1, 2) in K and (2, 3) in K and (3, 4) in K and (1, 4) in K
    assert (1, 3) not in K and (2, 4) not in K


def test_polygon_boundary_crossed_square():
    K = polygon_boundary([1, 3, 2, 4])
    assert (1, 3) in K and (2, 3) in K and (2, 4) in K and (1, 4) in K
    assert (1, 2) not in K and (3, 4) not in K


def test_minimal_nonfaces_square():
    K = polygon_boundary([1, 2, 3, 4])
    assert minimal_nonfaces(K) == [(1, 3), (2, 4)]


def test_json_round_trip():
    K = polygon_boundary([1, 2, 3, 4])
    K2 = simplicial.from_json_dict(simplicial.to_json_dict(K))
    assert K2.simplices == K.simplices
    assert K2.m == K.m


def test_random_suite_is_deterministic():
    a = simplicial.random_suite(seed=7, count=5)
    b = simplicial.random_suite(seed=7, count=5)
    assert [K.simplices for K in a] == [K.simplices for K in b]
    for K in a:
        assert validate(K)
