from permcomplex.chains import FormalChain
from permcomplex.cubes import (
    all_cells,
    build_rmac,
    cochain_complex,
    cochain_differential,
    cube_boundary,
    cup_whitney_basis,
    inversion_count,
    pair,
)
from permcomplex.homology import homology
from permcomplex.simplicial import from_facets, polygon_boundary

from conftest import cochain_dual, torus_cup_pairing


def test_all_cells_count():
    # cells of I^m: coordinates are interval, left end, or right end
    assert len(all_cells(1)) == 3
    assert len(all_cells(2)) == 9
    assert len(all_cells(4)) == 81


def test_cube_boundary_interval():
    d = cube_boundary(((1,), ()))
    assert d[((), (1,))] == 1
    assert d[((), ())] == -1


def test_cube_boundary_squares_to_zero():
    for c in all_cells(4):
        dd = FormalChain()
        for b, coeff in cube_boundary(c):
            dd = dd + coeff * cube_boundary(b)
        assert not dd


def test_rmac_two_points_is_circle():
    # (D^1, S^0) pairs over two bare points: the boundary of a square
    R = build_rmac(from_facets(2, []))
    h = homology(R.chain_complex())
    assert h.betti_vector() == [1, 1]


def test_rmac_square_boundary_is_torus():
    L = polygon_boundary([1, 2, 3, 4])
    h = homology(build_rmac(L).chain_complex())
    assert h.betti_vector() == [1, 2, 1]
    assert all(h.torsion(d) == [] for d in (0, 1, 2))


def test_cochain_differential_unit_interval():
    d = cochain_differential(((), (1,)))
    assert d[((1,), ())] == 1


def test_cochain_complex_matches_dual():
    # cohomology from the cochain complex equals the dual of homology
    L = polygon_boundary([1, 2, 3, 4])
    hc = homology(cochain_complex(4, L))
    hd = homology(cochain_dual(build_rmac(L).chain_complex()))
    for q in range(3):
        assert hc.betti(-q) == hd.betti(-q)
        assert hc.torsion(-q) == hd.torsion(-q)


def test_inversion_count():
    assert inversion_count((3,), (1, 2)) == 2
    assert inversion_count((1,), (2, 3)) == 0


def test_cup_whitney_basis_overlap_vanishes():
    a = ((1,), ())
    assert cup_whitney_basis(a, a) is None


def test_cup_whitney_basis_sign():
    a = ((2,), ())
    b = ((), (1,))
    ab = cup_whitney_basis(a, b)
    assert ab == (1, ((2,), (1,)))
    c = ((1,), ())
    assert cup_whitney_basis(a, c) == (-1, ((1, 2), ()))
    assert cup_whitney_basis(c, a) == (1, ((1, 2), ()))


def test_pair():
    assert pair(((1,), (2,)), ((1,), (2,))) == 1
    assert pair(((1,), ()), ((1,), (2,))) == 1  # tau subset
    assert pair(((1,), (2,)), ((1,), ())) == 0
    assert pair(((2,), ()), ((1,), ())) == 0


def test_torus_cup_pairing_is_unimodular_and_alternating():
    M = torus_cup_pairing()
    assert M[0][0] == 0 and M[1][1] == 0
    assert M[0][1] == -M[1][0]
    assert M[0][1] * M[1][0] - M[0][0] * M[1][1] in (1, -1)
