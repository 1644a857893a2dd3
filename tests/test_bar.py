import pytest
from hypothesis import example, given, settings

from permcomplex import bar
from permcomplex.bar import (
    bar_differential,
    component_1_1,
    component_words,
    monomial_product,
    phi_inverse,
    tor_ranks,
)
from permcomplex.chains import FormalChain
from permcomplex.homology import HomologySummary, complex_from_boundary, homology
from permcomplex.permutohedron import boundary, build_perm_complex, face, last_element_matching
from permcomplex.simplicial import from_facets, full_simplex, polygon_boundary, skeleton

from conftest import complexes, last_position, reduce_pairs, standard_suite


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


@pytest.mark.parametrize("coefficients", ["Z", 2, 3])
def test_tor_ranks_match_the_full_bar_complex(coefficients):
    # tor_ranks eliminates the Morse complex of the last-element matching;
    # component_1_1 lists every word
    # and two complexes without the vertex m, whose Perm(K) is empty
    suite = standard_suite() + [from_facets(3, [[1, 2]], include_all_vertices=False),
                                from_facets(4, [[1, 2], [2, 3]], include_all_vertices=False)]
    if coefficients == "Z":  # and every skeleton at m = 6, once
        suite += [skeleton(6, d) for d in range(6)]
    for K in suite:
        full = homology(component_1_1(K), coefficients)
        want = HomologySummary({-n: v for n, v in full.data.items()})
        assert tor_ranks(K, coefficients) == want, (sorted(K.simplices), coefficients)


def test_tor_morse_boundary_is_the_bar_differential_with_the_pairs_eliminated(monkeypatch):
    # the Morse complex tor_ranks eliminates, against component_1_1 with
    # every pair (x, split of x) eliminated one at a time
    seen = []

    def kept(C, coefficients="Z"):
        seen.append(C)
        return homology(C, coefficients)
    monkeypatch.setattr(bar, "homology", kept)
    for K in standard_suite() + [skeleton(m, d) for m in range(1, 6) for d in range(m)]:
        _, partner, _ = last_element_matching(K)
        C = component_1_1(K)
        pairs = [(x, partner(x)[0]) for x in build_perm_complex(K).all()
                 if (partner(x) or (0, True))[1] is False]
        want = reduce_pairs(C, pairs)
        tor_ranks(K)
        M = seen.pop()
        got = {M.basis[n][j]: {M.basis[n - 1][i]: v for i, v in column.items()}
               for n, columns in M.cols.items() for j, column in enumerate(columns)}
        assert sorted(want) == sorted(c for cells in M.basis.values() for c in cells)
        assert {c: got.get(c, {}) for c in want} == want, sorted(K.simplices)


def test_tor_morse_complex_is_the_transpose_of_the_cellular_one(monkeypatch):
    # the bar differential of a word is the transpose of the cellular
    # boundary on the same block tuples, and tor_ranks follows the same
    # pairs with the roles flipped, so the Morse complex it eliminates is
    # the transpose of the one `perm homology` eliminates, entry for
    # entry, though neither flow reads the other
    seen = []

    def kept(C, coefficients="Z"):
        seen.append(C)
        return homology(C, coefficients)
    monkeypatch.setattr(bar, "homology", kept)
    for K in standard_suite() + [skeleton(m, d) for m in range(1, 7) for d in range(m)]:
        cells, _, flow = last_element_matching(K)
        C = complex_from_boundary(cells, boundary, flow)
        tor_ranks(K)
        M = seen.pop()
        assert M.basis == {K.m - d: faces for d, faces in C.basis.items()}
        cellular = {(C.basis[d - 1][i], C.basis[d][j]): v for d, columns in C.cols.items()
                    for j, column in enumerate(columns) for i, v in column.items()}
        merges = {(M.basis[n][j], M.basis[n - 1][i]): v for n, columns in M.cols.items()
                  for j, column in enumerate(columns) for i, v in column.items()}
        assert merges == cellular, sorted(K.simplices)


@settings(max_examples=60, deadline=None)
@given(complexes(6))
@example(full_simplex(6))
@example(skeleton(6, 1))
@example(polygon_boundary([1, 2, 3, 4, 5, 6]))
def test_bar_matching_is_acyclic(K):
    """On bar words the pairs of the last-element matching are the same,
    but a merge lowers the degree: a word with m in a letter of two or more
    is paired with the word one degree up that splits {m} off, and every
    gradient step moves m's letter strictly right."""
    _, partner, _ = last_element_matching(K)
    for x in build_perm_complex(K).all():
        pair = partner(x)
        if pair is None or pair[1]:  # critical, or paired with a merge
            continue
        y = pair[0]
        terms = bar_differential(y, K)
        assert terms[x] in (1, -1)
        for z, _ in terms:
            # a gradient step continues from z when z is split, like x
            if z != x and (partner(z) or (None, True))[1] is False:
                assert last_position(z) > last_position(x), (x, y, z)
