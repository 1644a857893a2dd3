import pytest

from permcomplex.bar import (
    bar_differential,
    component_1_1,
    component_words,
    monomial_product,
    phi_inverse,
    tor_ranks,
)
from permcomplex.chains import FormalChain
from permcomplex.permutohedron import boundary, build_perm_complex, face
from permcomplex.simplicial import full_simplex, polygon_boundary, skeleton


def test_barword_rejects_empty_letter():
    with pytest.raises(ValueError):
        phi_inverse(((1,), ()), 2)


def test_monomial_product_disjoint_supports():
    K = full_simplex(3)
    assert monomial_product((1,), (2,), K) == (1, (1, 2))
    assert monomial_product((2,), (1,), K) == (-1, (1, 2))
    assert monomial_product((1,), (1,), K) is None  # x1 x1 = 0


def test_monomial_product_vanishes_on_nonfaces():
    K = polygon_boundary([1, 2, 3, 4])
    assert monomial_product((1,), (2,), K) == (1, (1, 2))
    assert monomial_product((1,), (3,), K) is None  # {1,3} is a nonface


def test_phi_round_trip():
    F = face(4, [2, 4], [1], [3])
    assert phi_inverse(F, 4) == F
    # the letters come back as the checked face, a plain tuple
    assert type(phi_inverse([[4, 2], [1], [3]], 4)) is tuple
    assert phi_inverse([[4, 2], [1], [3]], 4) == F


@pytest.mark.parametrize("letters", [((1, 2), (2, 3), (4,)), ((1, 2), (3,)),
                                     ((1, 2), (3, 5), (4,))])
def test_phi_inverse_rejects_words_off_a_partition(letters):
    with pytest.raises(ValueError):
        phi_inverse(letters, 4)


def test_component_words_count_full_simplex():
    K = full_simplex(3)
    # one word per ordered partition of [3] into n blocks
    assert len(component_words(K, 1)) == 1
    assert len(component_words(K, 2)) == 6
    assert len(component_words(K, 3)) == 6


def test_bar_differential_two_letters():
    K = full_simplex(2)
    w = ((1,), (2,))
    d = bar_differential(w, K)
    assert len(d) == 1
    assert d[((1, 2),)] == -1
    # the reversed word merges with the opposite sign
    assert bar_differential(((2,), (1,)), K)[((1, 2),)] == 1


def test_bar_differential_squares_to_zero():
    for K in (full_simplex(4), skeleton(4, 1), polygon_boundary([1, 2, 3, 4])):
        for n in range(1, K.m + 1):
            for w in component_words(K, n):
                dd = FormalChain()
                for v, c in bar_differential(w, K):
                    dd = dd + c * bar_differential(v, K)
                assert not dd


def test_phi_intertwines_dual_boundary_and_bar_differential():
    K = skeleton(4, 1)
    X = build_perm_complex(K)
    for F in X.all():
        dual = FormalChain()
        for G in X.faces(X.m - len(F) + 1):
            c = boundary(G)[F]
            if c:
                dual.add_term(G, c)
        assert dual == bar_differential(F, K)


def test_tor_ranks_full_simplex_is_point():
    # Perm(full simplex) is the whole permutohedron, a ball
    t = tor_ranks(full_simplex(4))
    assert t.betti(-4) == 1
    assert all(t.betti(-n) == 0 for n in range(1, 4))


def test_tor_ranks_complete_graph_on_4_vertices():
    t = tor_ranks(skeleton(4, 1))
    # matches Betti (1, 7) of the model complex under q -> q - m
    assert [t.betti(-n) for n in range(1, 5)] == [0, 0, 7, 1]


def test_component_1_1_dd_zero():
    C = component_1_1(polygon_boundary([1, 2, 3, 4, 5]))
    assert C.check_dd_zero()
