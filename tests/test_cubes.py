from permcomplex.cubes import build_rmac, cell_label, cube_boundary, inversion_count
from permcomplex.homology import homology
from permcomplex.projection import L_of_K
from permcomplex.simplicial import from_facets, full_simplex, polygon_boundary, random_suite, skeleton

from conftest import (
    RP2_FACETS,
    accumulate,
    all_cells,
    cochain_complex,
    cochain_differential,
    cochain_dual,
    cup_whitney_basis,
    hochster_homology,
    pair,
    rmac_complex,
    standard_suite,
    torus_cup_pairing,
)


def test_all_cells_count():
    # cells of I^m: coordinates are interval, left end, or right end
    assert len(all_cells(1)) == 3
    assert len(all_cells(2)) == 9
    assert len(all_cells(4)) == 81


def test_cell_labels_tell_two_digit_coordinates_apart():
    assert cell_label(((1, 2), (3,))) == "c(u:12,t:3)"
    assert cell_label(((), ())) == "c(u:-,t:-)"
    assert cell_label(((1, 2, 13), ())) == "c(u:1,2,13,t:-)"
    assert cell_label(((12, 13), ())) == "c(u:12,13,t:-)"
    assert cell_label(((1,), (2, 11))) == "c(u:1,t:2,11)"


def test_cube_boundary_interval():
    d = cube_boundary(((1,), ()))
    assert d[((), (1,))] == 1
    assert d[((), ())] == -1


def test_cube_boundary_squares_to_zero():
    for c in all_cells(4):
        dd = accumulate((b2, coeff * c2) for b, coeff in cube_boundary(c).items()
                        for b2, c2 in cube_boundary(b).items())
        assert not dd


def test_rmac_two_points_is_circle():
    # (D^1, S^0) pairs over two bare points: the boundary of a square
    h = homology(rmac_complex(from_facets(2, [])))
    assert h.betti_vector() == [1, 1]


def test_rmac_square_boundary_is_torus():
    L = polygon_boundary([1, 2, 3, 4])
    h = homology(rmac_complex(L))
    assert h.betti_vector() == [1, 2, 1]
    assert all(h.torsion(d) == [] for d in (0, 1, 2))


def test_rmac_is_its_definition():
    # the cells (sigma, tau) of the cube with sigma in L, each once and
    # under len(sigma); L(K) may miss vertices
    suite = standard_suite()
    complexes = (suite + [L_of_K(K) for K in suite]
                 + [from_facets(m, []) for m in range(1, 6)])
    for L in complexes:
        cells = build_rmac(L)
        flat = [c for d in sorted(cells) for c in cells[d]]
        assert len(flat) == len(set(flat))
        assert set(flat) == {c for c in all_cells(L.m) if c[0] in L.simplices}
        assert all(len(c[0]) == d for d, cs in cells.items() for c in cs)


def test_rmac_homology_is_the_hochster_sum():
    # the 6-vertex RP^2 (whose Z/2 in H_2 comes from J = [6]), the 5-cycle,
    # 40 random complexes on up to 7 vertices, the standard suite, and
    # L(K) of the suite and of every skeleton with m <= 6, where L(K) may
    # miss vertices
    suite = standard_suite()
    complexes = ([from_facets(6, RP2_FACETS), polygon_boundary(range(1, 6))]
                 + random_suite(seed=7, count=40, max_m=7) + suite
                 + [L_of_K(K) for K in suite]
                 + [L_of_K(skeleton(m, d)) for m in range(2, 7) for d in range(m)])
    assert any(L.m > 1 and (L.m,) not in L.simplices for L in complexes)
    for L in complexes:
        assert homology(rmac_complex(L)) == hochster_homology(L), L
    assert hochster_homology(complexes[0]).torsion(2) == [2]


def test_rmac_of_a_polygon_is_an_orientable_surface():
    # R_L of the m-gon is a closed orientable surface of genus
    # 1 + (m - 4) 2^(m - 3): its Euler characteristic is
    # 2^m (1 - m/2 + m/4) = 2 - 2g
    for m in range(4, 10):
        h = homology(rmac_complex(polygon_boundary(range(1, m + 1))))
        g = 1 + (m - 4) * 2 ** (m - 3)
        assert h.betti_vector() == [1, 2 * g, 1], m
        assert all(h.torsion(d) == [] for d in (0, 1, 2))


def test_rmac_of_points_is_a_graph():
    # 2^m vertices and m 2^(m-1) edges, connected for m >= 2
    for m in range(2, 7):
        h = homology(rmac_complex(from_facets(m, [])))
        assert h.betti_vector() == [1, (m - 2) * 2 ** (m - 1) + 1], m
        assert h.torsion(0) == []


def test_rmac_of_the_full_simplex_is_the_cube():
    for m in range(1, 6):
        cells = build_rmac(full_simplex(m))
        assert sum(map(len, cells.values())) == 3 ** m
        assert homology(rmac_complex(full_simplex(m))).betti_vector() == [1]


def test_cochain_differential_unit_interval():
    d = cochain_differential(((), (1,)))
    assert d[((1,), ())] == 1


def test_cochain_complex_matches_dual():
    # cohomology from the cochain complex equals the dual of homology
    L = polygon_boundary([1, 2, 3, 4])
    hc = homology(cochain_complex(4, L))
    hd = homology(cochain_dual(rmac_complex(L)))
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
