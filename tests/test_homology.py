import importlib
import itertools
import random
import re
from math import comb, factorial, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from permcomplex import permutohedron, simplicial
from permcomplex.bar import tor_ranks
from permcomplex.homology import (
    BoundaryError,
    ChainComplexData,
    HomologySummary,
    PRIME_TEST_BOUND,
    _columns,
    _eliminate,
    _factors,
    complex_from_boundary,
    homology,
    invariant_factors,
    is_prime,
    rank_mod_p,
    smith_normal_form,
)
from permcomplex.permutohedron import (
    boundary,
    build_perm_complex,
    build_perm_complex_C,
    full_permutohedron,
    last_element_matching,
)

from conftest import (
    RP2_FACETS,
    cochain_dual,
    homology_generators,
    integer_inverse,
    reduce_pairs,
    rmac_complex,
    standard_suite,
)


def reassemble(M, result):
    """S * M * T should equal the returned diagonal matrix."""
    S, D, T = result
    U, V = S, T
    rows, cols = len(M), len(M[0]) if M else 0
    UM = [[sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)]
          for i in range(rows)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(cols)) for j in range(cols)]
           for i in range(rows)]
    return UMV == D


def test_snf_known_matrix():
    # classic example: invariant factors (1, 2)
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert invariant_factors(M) == [2, 6, 12]


def test_snf_divisibility_and_transforms():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        result = smith_normal_form(M)
        D = result[1]
        diag = [D[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        assert all(d >= 0 for d in diag)
        assert reassemble(M, result)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-5, 5), min_size=cols, max_size=cols), max_size=7)))
@example([])
@example([[], [], []])
def test_snf_contract_on_every_shape(M):
    # a list of no rows is the 0 x 0 matrix; rows of length 0 are n x 0
    rows, cols = len(M), len(M[0]) if M else 0
    S, D, T = smith_normal_form(M)
    assert reassemble(M, (S, D, T))
    assert len(S) == rows and len(T) == cols
    integer_inverse(S)  # raises unless S is unimodular
    integer_inverse(T)
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [D[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


def test_rank_mod_p():
    M = [[2, 0], [0, 3]]
    assert rank_mod_p(M, 2) == 1
    assert rank_mod_p(M, 3) == 1
    assert rank_mod_p(M, 5) == 2


def circle_complex():
    # one vertex, one loop: H_0 = Z, H_1 = Z
    basis = {0: ["v"], 1: ["e"]}
    diff = {1: [[0]]}
    return ChainComplexData(basis, diff)


def rp2_complex():
    # minimal CW model of the projective plane: d2(f) = 2e
    basis = {0: ["v"], 1: ["e"], 2: ["f"]}
    diff = {1: [[0]], 2: [[2]]}
    return ChainComplexData(basis, diff)


def test_homology_circle():
    h = homology(circle_complex())
    assert h.betti_vector() == [1, 1]
    assert h.torsion(0) == [] and h.torsion(1) == []


def test_betti_vector_starts_at_degree_zero():
    # H_1 = Z and nothing in degree 0: the vector still starts at degree 0
    h = homology(ChainComplexData({1: ["e"], 0: []}, {}))
    assert h.betti_vector() == [0, 1]


def test_summary_equality():
    h = homology(circle_complex())
    assert h == HomologySummary({0: (1, []), 1: (1, []), 2: (0, [])})
    assert h != HomologySummary({0: (1, [])})
    # a summary is no other value, and comparing with one does not raise
    assert h != None and h != {0: (1, []), 1: (1, [])} and h != [1, 1]  # noqa: E711


def test_homology_projective_plane():
    h = homology(rp2_complex())
    assert h.betti(0) == 1
    assert h.betti(1) == 0
    assert h.torsion(1) == [2]
    assert h.betti(2) == 0
    # mod 2 the torsion shows up as extra ranks
    h2 = homology(rp2_complex(), coefficients=2)
    assert h2.betti(1) == 1
    assert h2.betti(2) == 1


def test_check_dd_zero_raises_on_bad_complex():
    basis = {0: ["a", "b"], 1: ["e"], 2: ["f"]}
    diff = {1: [[1], [-1]], 2: [[1]]}
    C = ChainComplexData(basis, diff)
    with pytest.raises(BoundaryError,
                       match=r"^D_1 \* D_2 != 0: the column of 'f' has 1 at the row of 'a'$"):
        C.check_dd_zero()


def test_cochain_dual_negates_degrees():
    C = rp2_complex()
    D = cochain_dual(C)
    h = homology(D)
    # universal coefficients: H^2(RP^2) = Z/2, stored at degree -2; the
    # boundaries of the dual are eliminated from degree 0 down to -2
    assert h.betti(0) == 1
    assert h.torsion(-2) == [2]
    assert [h.betti(d) for d in (-2, -1, 0)] == [0, 0, 1]
    assert [h.torsion(d) for d in (-2, -1, 0)] == [[2], [], []]
    assert [homology(D, 2).betti(d) for d in (-2, -1, 0)] == [1, 1, 1]


@pytest.mark.parametrize("empty", [[], None])
def test_clearing_is_keyed_by_degree_across_an_empty_degree(empty):
    # an interval in degrees 0, 1 and a disc f -> g in degrees 3, 4, with
    # degree 2 empty (or absent).  The unit pivot of D_4 sits at row 0 of
    # degree 3; column 0 of D_1 must not be cleared by it.
    basis = {0: ["v", "w"], 1: ["e"], 2: empty, 3: ["f"], 4: ["g"]}
    if empty is None:
        del basis[2]
    C = ChainComplexData(basis, {1: [[-1], [1]], 4: [[1]]})
    for coefficients in ("Z", 2, 3):
        h = homology(C, coefficients)
        assert [h.betti(d) for d in range(5)] == [1, 0, 0, 0, 0]
        assert all(not h.torsion(d) for d in range(5))
    h = homology(cochain_dual(C))
    assert [h.betti(-d) for d in range(5)] == [1, 0, 0, 0, 0]


def test_homology_generators_circle():
    C = circle_complex()
    gens, coords = homology_generators(C, 1)
    assert len(gens) == 1
    assert coords(gens[0]) != coords([0])


def test_euler_characteristic():
    assert circle_complex().euler_characteristic() == 0
    assert rp2_complex().euler_characteristic() == 1


# ---------------------------------------------------------------------------
# the sparse elimination engine against the dense Smith normal form

small_matrices = st.integers(1, 7).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-4, 4), min_size=cols,
                                   max_size=cols),
                          min_size=1, max_size=7))


def snf_factors(M):
    D = smith_normal_form(M)[1]
    return [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i]]


@settings(max_examples=150, deadline=None)
@given(small_matrices)
@example([[1, 2], [1, 3]])
def test_invariant_factors_match_dense_snf(M):
    assert invariant_factors(M) == snf_factors(M)


@pytest.mark.parametrize("M, factors", [
    (rp2_complex().matrix(2), [2]),
    (rp2_complex().matrix(1), []),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
])
def test_invariant_factors_torsion_cases(M, factors):
    assert invariant_factors(M) == snf_factors(M) == factors


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_rank_mod_p_counts_factors_prime_to_p(M):
    factors = snf_factors(M)
    for p in (2, 3, 5):
        assert rank_mod_p(M, p) == sum(1 for f in factors if f % p)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], random.Random(0))
@example([[1, 2], [1, 3]], random.Random(0))
def test_elimination_ignores_row_and_column_order(M, rnd):
    # pivot order follows the row and column labels; the answer must not.
    # Over Z only the factors are invariant: how many unit pivots the
    # search finds before the dense hand-off depends on the order.
    rows, cols = list(range(len(M))), list(range(len(M[0])))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    A = _columns(M, len(cols))
    B = _columns([[M[i][j] for j in cols] for i in rows], len(cols))
    factors = snf_factors(M)
    assert _factors(A) == _factors(B) == factors
    for p in (2, 3, 5):
        rank = sum(1 for f in factors if f % p)
        assert _eliminate(A, p)[0] == _eliminate(B, p)[0] == rank


@pytest.mark.parametrize("coefficients", [4, 1, 0, -2])
def test_homology_rejects_a_modulus_that_is_not_prime(coefficients):
    with pytest.raises(ValueError):
        homology(circle_complex(), coefficients)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(3, 7) for k in range(3, m + 1)])
def test_k_equal_betti_numbers(m, k):
    # Perm(skeleton(m, k-2)) models the real k-equal space on m points (no
    # k coordinates equal).  Bjoerner-Welker: the homology is free, with
    # b_0 = 1, b_{k-2} = sum_{j=k}^m C(m, j) C(j-1, k-1) and, for m >= 2k,
    # more in degree 2(k-2): 20 at (m, k) = (6, 3), the only such case here
    X = build_perm_complex(simplicial.skeleton(m, k - 2))
    h = homology(complex_from_boundary(X.by_dim, boundary))
    want = {0: 1, k - 2: sum(comb(m, j) * comb(j - 1, k - 1) for j in range(k, m + 1))}
    if m >= 2 * k:
        want[2 * (k - 2)] = {(6, 3): 20}[m, k]
    assert h.betti_vector() == [want.get(d, 0) for d in range(max(want) + 1)]
    assert all(not h.torsion(d) for d in range(m))


def test_perm_of_vertices_is_m_factorial_points():
    # Perm(skeleton(m, 0)) keeps only the vertices of the permutohedron
    for m in range(1, 6):
        X = build_perm_complex(simplicial.skeleton(m, 0))
        assert X.f_vector() == [factorial(m)]
        h = homology(complex_from_boundary(X.by_dim, boundary))
        assert h.betti_vector() == [factorial(m)]
        assert all(not h.torsion(d) for d in range(m))


def _with_minimal_nonfaces(m, nonfaces):
    """The complex on [m] whose minimal nonfaces are the disjoint sets
    `nonfaces`: a facet drops one vertex of each."""
    rest = set(range(1, m + 1)).difference(*nonfaces)
    drops = itertools.product(*(itertools.combinations(I, len(I) - 1) for I in nonfaces))
    return simplicial.from_facets(m, [sorted(rest.union(*kept)) for kept in drops])


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_perm_of_simplex_boundary_is_a_sphere(m):
    # one minimal nonface I, |I| = k, gives S^{k-2}; k = m is the boundary
    # of the (m-1)-simplex, whose Perm is the boundary of Perm^{m-1}
    for k in range(2, m + 1):
        K = _with_minimal_nonfaces(m, [range(1, k + 1)])
        assert simplicial.minimal_nonfaces(K) == [tuple(range(1, k + 1))]
        if k == m:
            assert K == simplicial.skeleton(m, m - 2)
        X = build_perm_complex(K)
        h = homology(complex_from_boundary(X.by_dim, boundary))
        assert h.betti_vector() == ([2] if k == 2 else [1] + [0] * (k - 3) + [1]), k
        assert all(not h.torsion(d) for d in range(m))


@pytest.mark.parametrize("m, nonfaces, betti", [
    (4, [(1, 2), (3, 4)], [4]),                 # S^0 x S^0
    (5, [(1, 2), (3, 4, 5)], [2, 2]),           # S^0 x S^1
    (6, [(1, 2, 3), (4, 5, 6)], [1, 2, 1]),     # the torus S^1 x S^1
    (6, [(1, 3, 5), (2, 4, 6)], [1, 2, 1]),
], ids=["12-34", "12-345", "123-456", "135-246"])
def test_two_disjoint_minimal_nonfaces_give_a_product_of_spheres(m, nonfaces, betti):
    K = _with_minimal_nonfaces(m, nonfaces)
    assert simplicial.minimal_nonfaces(K) == sorted(nonfaces)
    X = build_perm_complex(K)
    h = homology(complex_from_boundary(X.by_dim, boundary))
    assert h.betti_vector() == betti
    assert all(not h.torsion(d) for d in range(m))


def test_full_permutohedron_six_is_a_point():
    X = full_permutohedron(6)
    h = homology(complex_from_boundary(X.by_dim, boundary))
    assert h.betti_vector() == [1]
    assert all(not h.torsion(d) for d in range(6))


def test_full_permutohedron_seven_is_a_point():
    X = full_permutohedron(7)
    h = homology(complex_from_boundary(X.by_dim, boundary))
    assert h.betti_vector() == [1]
    assert all(not h.torsion(d) for d in range(7))


# ---------------------------------------------------------------------------
# the Morse complex of the last-element matching against full assembly

def _morse_complex(K, doubled=False):
    cells, _, flow = last_element_matching(K, doubled)
    return complex_from_boundary(cells, boundary, flow)


@pytest.mark.parametrize("coefficients", ["Z", 2, 3])
def test_morse_complex_has_the_homology_of_perm(coefficients):
    # and a complex without the vertex m, whose Perm(K) is empty
    for K in standard_suite() + [simplicial.skeleton(m, d) for m in range(1, 7) for d in range(m)] + [
            simplicial.from_facets(4, [[1, 2], [2, 3]], include_all_vertices=False)]:
        X = build_perm_complex(K)
        want = homology(complex_from_boundary(X.by_dim, boundary), coefficients)
        assert homology(_morse_complex(K), coefficients) == want, sorted(K.simplices)


def _labelled(C):
    """The boundary of C as {cell: {cell: coeff}} on its basis labels."""
    return {C.basis[d][j]: {C.basis[d - 1][i]: v for i, v in column.items()}
            for d, columns in C.cols.items() for j, column in enumerate(columns)}


def test_morse_boundary_is_the_full_boundary_with_the_pairs_eliminated():
    # the homology alone would not show a wrong flow: with every flow
    # dropped, the Betti numbers and torsion of the suite stay the same
    suite = standard_suite() + [simplicial.skeleton(m, d) for m in range(1, 6) for d in range(m)]
    for K, doubled in [(K, False) for K in suite] + [(K, True) for K in suite if K.m <= 3]:
        X = build_perm_complex_C(K) if doubled else build_perm_complex(K)
        cells, partner, flow = last_element_matching(K, doubled)
        pairs = [(x, partner(x)[0]) for x in X.all() if (partner(x) or (0, 0))[1]]
        want = reduce_pairs(complex_from_boundary(X.by_dim, boundary), pairs)
        got = _labelled(complex_from_boundary(cells, boundary, flow))
        assert sorted(want) == sorted(c for fs in cells.values() for c in fs)
        assert {c: got.get(c, {}) for c in want} == want, sorted(K.simplices)


def test_doubled_morse_complex_has_the_homology_of_the_doubled_complex():
    suite = [K for K in standard_suite() if K.m <= 3] + [
        simplicial.from_facets(1, []), simplicial.from_facets(3, [[1, 2]]),
        simplicial.from_facets(3, [[1, 2]], include_all_vertices=False)]
    for K in suite:
        X = build_perm_complex_C(K)
        want = homology(complex_from_boundary(X.by_dim, boundary))
        assert homology(_morse_complex(K, doubled=True)) == want, sorted(K.simplices)


def test_morse_complex_of_full_perm_is_perm_one_down():
    # on the full simplex the critical faces are ({m}, G), G a face of
    # Perm^{m-2}, and their Morse boundary is that of G
    for m in range(2, 7):
        C = _morse_complex(simplicial.full_simplex(m))
        inner = complex_from_boundary(full_permutohedron(m - 1).by_dim, boundary)
        assert C.basis == {d: [((m,),) + G for G in fs] for d, fs in inner.basis.items()}
        assert C.cols == inner.cols


def test_a_boundary_that_leaves_the_cells_is_a_boundary_error():
    # Perm(full simplex on [3]), the hexagon, without the vertex F(1|2|3):
    # the first edge in basis order whose boundary holds it is named
    cells = build_perm_complex(simplicial.full_simplex(3)).by_dim
    vertex = ((1,), (2,), (3,))
    cells[0].remove(vertex)
    edge = next(E for E in cells[1] if vertex in boundary(E))
    assert edge == ((1,), (2, 3))
    with pytest.raises(BoundaryError, match=re.escape(
            f"boundary of {edge} leaves the complex at {vertex}")):
        complex_from_boundary(cells, boundary)


def test_a_flow_that_ends_outside_the_critical_cells_is_a_boundary_error():
    # F(12|4|3) is critical, and the path from F(1|2|4|3) in its boundary
    # moves {4} left past 2 and 1 to F(4|1|2|3), which is left out here
    cells, _, flow = last_element_matching(simplicial.skeleton(4, 1))
    end = ((4,), (1,), (2,), (3,))
    assert flow(((1,), (2,), (4,), (3,))) == ((end, 1),)
    cells[0].remove(end)
    with pytest.raises(BoundaryError, match=re.escape(
            f"ends at {end}, which is not a critical cell")):
        complex_from_boundary(cells, boundary, flow)


@pytest.mark.parametrize("sign", [0, 2])
def test_a_move_whose_incidence_is_not_a_unit_is_a_boundary_error(monkeypatch, sign):
    # the split 1 | 4 of the block 14 is the incidence of F(..., 1, 4, ...)
    # in the boundary of its partner F(..., 14, ...), read at each move
    splits = permutohedron._splits

    def broken(block):
        table = splits(block)
        if block != (1, 4):
            return table
        (M, rest, _), other = table
        return (M, rest, sign), other
    monkeypatch.setattr(permutohedron, "_splits", broken)
    cells, _, flow = last_element_matching(simplicial.skeleton(4, 1))
    with pytest.raises(BoundaryError, match=re.escape(
            f"{((1,), (4,), (2,), (3,))} has incidence {sign} in the boundary of "
            f"{((1, 4), (2,), (3,))}")):
        flow(((1,), (4,), (2,), (3,)))
    with pytest.raises(BoundaryError, match=f"has incidence {sign} in the boundary"):
        complex_from_boundary(cells, boundary, flow)


def test_clearing_leaves_only_pivot_columns(monkeypatch):
    # Perm^5 is a ball: every cleared boundary matrix is all unit pivots.
    # Its 3 963 cells of positive degree are the columns of its boundary
    # matrices, and their ranks sum to (4 683 cells - 1) / 2 = 2 341; the
    # eliminator receives only those 2 341 columns.
    module = importlib.import_module("permcomplex.homology")
    eliminate, seen = module._eliminate, []

    def counted(columns, p=0):
        result = eliminate(columns, p)
        seen.append((len(columns), result[0]))
        return result
    monkeypatch.setattr(module, "_eliminate", counted)
    C = complex_from_boundary(full_permutohedron(6).by_dim, boundary)
    assert homology(C).betti_vector() == [1]
    columns, pivots = map(sum, zip(*seen))
    assert columns == pivots == 2341


def test_no_morse_route_leaves_a_dense_residue(monkeypatch):
    # on the cellular and bar routes the sweep leaves no block without a
    # unit pivot; a pivot rule that hands one to the dense Smith normal
    # form fails here
    module = importlib.import_module("permcomplex.homology")

    def residue(rest):
        assert not rest, f"a {len(rest)} x {len(rest[0])} dense residue"
        return []
    monkeypatch.setattr(module, "_residue_factors", residue)
    for K in standard_suite() + [simplicial.skeleton(m, d) for m in range(1, 7) for d in range(m)]:
        homology(_morse_complex(K))
        tor_ranks(K)


def test_rmac_of_the_six_vertex_projective_plane_reaches_the_dense_residue(monkeypatch):
    # R_L of the 6-vertex RP^2 is a program-built input whose sweep leaves
    # a block without a unit pivot: a 48 x 1 column holding the 2 of H_2
    module = importlib.import_module("permcomplex.homology")
    residue_factors, shapes = module._residue_factors, []

    def recorded(rest):
        if rest:
            shapes.append((len(rest), len(rest[0])))
        return residue_factors(rest)
    monkeypatch.setattr(module, "_residue_factors", recorded)
    h = homology(rmac_complex(simplicial.from_facets(6, RP2_FACETS)))
    assert shapes == [(48, 1)]
    assert h.betti_vector() == [1, 0, 31]
    assert [h.torsion(d) for d in range(3)] == [[], [], [2]]


def test_full_permutohedron_five_never_densifies(monkeypatch):
    # assembly, the d o d check and elimination all stay on sparse columns
    def dense(self, d):
        raise AssertionError(f"dense matrix built for degree {d}")
    monkeypatch.setattr(ChainComplexData, "matrix", dense)
    C = complex_from_boundary(full_permutohedron(5).by_dim, boundary)
    assert homology(C).betti_vector() == [1]
    assert homology(C, 2).betti_vector() == [1]


# ---------------------------------------------------------------------------
# sparse columns against the dense lists of rows they replace

def random_complexes():
    """Chain complexes on degrees 0..n-1 with dims 0..4 and entries -2..2,
    as (basis, {degree: dense list of rows}); d o d is rarely zero."""
    def build(dims):
        basis = {d: [f"c{d}_{i}" for i in range(n)] for d, n in enumerate(dims)}
        return st.fixed_dictionaries({
            d: st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]),
                                 min_size=dims[d], max_size=dims[d]),
                        min_size=dims[d - 1], max_size=dims[d - 1])
            for d in range(1, len(dims))}).map(lambda diff: (basis, diff))
    return st.lists(st.integers(0, 4), min_size=1, max_size=4).flatmap(build)


def cyclic_sum_factors(orders):
    """Invariant factors, increasing, of the sum of the groups Z/k for k in
    `orders` (each k a product of powers of 2 and 3): the i-th largest is
    the product over each prime of its i-th largest power."""
    powers = []
    for q in (2, 3):
        column = []
        for k in orders:
            e = 1
            while k % q == 0:
                k, e = k // q, e * q
            column.append(e)
        powers.append(sorted(column, reverse=True))
    return sorted(f for f in map(prod, zip(*powers)) if f > 1)


def exact_complex(seed):
    """A direct sum of complexes Z -k-> Z (k in 1, 2, 3, 4, 6) and free Z's,
    in degrees 0..3, written in a basis scrambled by elementary changes of
    basis, so that d o d = 0 with dense nonzero matrices.  Returns
    (basis, diff, betti by degree, invariant factors of the torsion by
    degree)."""
    rng = random.Random(seed)
    dims, arrows = [0] * 4, []
    betti, torsion = [0] * 4, [[] for _ in range(4)]
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, 3)
        if d and rng.random() < 0.7:
            k = rng.choice([1, 2, 3, 4, 6])
            arrows.append((d, dims[d], dims[d - 1], k))
            dims[d - 1] += 1
            if k > 1:
                torsion[d - 1].append(k)
        else:
            betti[d] += 1
        dims[d] += 1
    diff = {d: [[0] * dims[d] for _ in range(dims[d - 1])] for d in range(1, 4)}
    for d, j, i, k in arrows:
        diff[d][i][j] = k
    for _ in range(12):  # new basis e_a + c e_b in degree d
        d = rng.randint(0, 3)
        if dims[d] < 2:
            continue
        a, b = rng.sample(range(dims[d]), 2)
        c = rng.choice([-1, 1])
        if d:
            for row in diff[d]:
                row[b] -= c * row[a]
        if d < 3:
            diff[d + 1][a] = [x + c * y for x, y in zip(diff[d + 1][a], diff[d + 1][b])]
    basis = {d: [f"c{d}_{i}" for i in range(n)] for d, n in enumerate(dims)}
    return basis, diff, betti, [cyclic_sum_factors(t) for t in torsion]


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_complexes(),
                 st.integers(0, 10 ** 6).map(lambda seed: exact_complex(seed)[:2])))
def test_sparse_columns_agree_with_dense_rows(complex_data):
    basis, diff = complex_data
    C = ChainComplexData(basis, diff)
    for d, M in diff.items():
        assert C.matrix(d) == M
    dd_nonzero = any(sum(a * b for a, b in zip(row, col))
                     for d in diff if d + 1 in diff
                     for row in diff[d] for col in zip(*diff[d + 1]))
    if dd_nonzero:
        with pytest.raises(BoundaryError):
            C.check_dd_zero()
    else:
        assert C.check_dd_zero()
    D = cochain_dual(C)
    for q in C.degrees:
        M = C.matrix(q + 1)
        assert D.matrix(-q) == [[M[i][j] for i in range(C.dim(q))]
                                for j in range(C.dim(q + 1))]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_homology_of_scrambled_elementary_complexes(seed):
    basis, diff, betti, torsion = exact_complex(seed)
    h = homology(ChainComplexData(basis, diff))
    assert [h.betti(d) for d in range(4)] == betti
    assert [h.torsion(d) for d in range(4)] == torsion


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_scrambled_complexes_over_prime_fields_and_cochains(seed):
    # universal coefficients: b_q(GF(p)) is b_q plus the factors of H_q and
    # of H_{q-1} divisible by p, and H^q = Z^{b_q} + the torsion of H_{q-1}
    basis, diff, betti, torsion = exact_complex(seed)
    C = ChainComplexData(basis, diff)
    below = [[]] + torsion[:3]
    for p in (2, 3):
        h = homology(C, p)
        assert [h.betti(d) for d in range(4)] == [
            b + sum(f % p == 0 for f in t + s) for b, t, s in zip(betti, torsion, below)]
    h = homology(cochain_dual(C))
    assert [h.betti(-q) for q in range(4)] == betti
    assert [h.torsion(-q) for q in range(4)] == below


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == (n >= 2 and all(n % q for q in range(2, isqrt(n) + 1)))


def test_is_prime_on_strong_pseudoprimes_and_its_bound():
    # 3215031751 fools the bases 2, 3, 5, 7 and 3825123056546413051 the
    # primes up to 23; then a 15-digit and a 19-digit prime
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(999999999999989)
    assert is_prime(2 ** 61 - 1)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)
