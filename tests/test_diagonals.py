import hashlib
import itertools

from permcomplex.cubes import cube_boundary
from permcomplex.diagonals import (
    _block_terms,
    _top_cell_terms,
    cai_diagonal,
    cup_su,
    kept_top_terms,
    su_diagonal,
    su_terms,
    su_top_diagonal,
)
from permcomplex.permutohedron import (
    boundary,
    build_perm_complex,
    face,
    face_dim,
    full_permutohedron,
)
from permcomplex.projection import blocks_are_intervals
from permcomplex.simplicial import polygon_boundary
from permcomplex.sumatrix import columns_partition, csgn, enumerate_configurations, rows_partition

from conftest import accumulate, all_cells, chain_map_defect, counit_defect, matrix


def F(*blocks):
    m = sum(len(b) for b in blocks)
    return face(m, *blocks)


def test_su_edge_expansion():
    d = su_diagonal(face(2, [1, 2]))
    assert d == {
        (F([1, 2]), F([2], [1])): 1,
        (F([1], [2]), F([1, 2])): 1,
    }


def test_su_hexagon_expansion():
    d = su_diagonal(face(3, [1, 2, 3]))
    assert d == {
        (F([1], [2], [3]), F([1, 2, 3])): 1,
        (F([1, 2, 3]), F([3], [2], [1])): 1,
        (F([1], [2, 3]), F([1, 3], [2])): -1,
        (F([2], [1, 3]), F([2, 3], [1])): 1,
        (F([1, 3], [2]), F([3], [1, 2])): -1,
        (F([1, 2], [3]), F([2], [1, 3])): 1,
        (F([1], [2, 3]), F([3], [1, 2])): -1,
        (F([1, 2], [3]), F([2, 3], [1])): 1,
    }


def test_su_term_counts():
    assert len(su_top_diagonal(2)) == 2
    assert len(su_top_diagonal(3)) == 8
    assert len(su_top_diagonal(4)) == 50
    assert len(su_top_diagonal(5)) == 432
    # 2 (m + 1)^(m - 2) terms (Delcroix-Oger, Laplante-Anfossi, Pilaud and
    # Stoeckl, "Cellular diagonals of permutahedra", 2023)
    for m in range(2, 8):
        assert len(su_top_diagonal(m)) == 2 * (m + 1) ** (m - 2)


def test_top_cell_terms_digests():
    # pinned sha256 of repr(_top_cell_terms(m)): the terms, their order
    # and their signs must not change; m = 7 shares the cached terms with
    # test_su_term_counts
    expected = {
        5: "f9f44a356d9ca1d19eb2fb13e2b50ac7a15d9e25e20e4b81e2bf7e5fc163512d",
        6: "8996833e203bf83b701d9a12f9918559922ef7748ab465458ec5c7ad3070aeaf",
        7: "5b7be3e6b637b2123712720ec413b9e4a493803a2282e074030b8aa9d6a90e5e",
    }
    for m, digest in expected.items():
        assert hashlib.sha256(repr(_top_cell_terms(m)).encode()).hexdigest() == digest


def test_top_cell_signs_are_csgn():
    # the walk carries csgn(A, E) and csgn(A^T, E^T) through each shift;
    # csgn computes the whole sign of each configuration from its matrices,
    # on the walked shapes and on their transposes alike
    for m in range(1, 7):
        pairs = [pair for q in range(1, m + 1)
                 for pair in enumerate_configurations(q, m - q + 1)]
        assert [sign for sign, _, _ in _top_cell_terms(m)] == [csgn(A, E) for A, E in pairs]


def _kept(terms):
    """The terms whose left and right blocks are all intervals."""
    return tuple(t for t in terms if blocks_are_intervals(t[1]) and blocks_are_intervals(t[2]))


def test_kept_top_terms_are_the_interval_terms():
    # the same terms in the same order with the same signs, 2^(n-1) of
    # them; n = 7 shares the cached terms with test_su_term_counts
    for n in range(8):
        kept = kept_top_terms(n)
        assert kept == _kept(_top_cell_terms(n)), n
        assert len(kept) == (2 ** (n - 1) if n else 0)


def _hook(q, p, A):
    """The step matrix whose first column is 1 then the first entries of
    the rows of A below the first, and whose first row is 1 then the other
    values."""
    down = [next(filter(None, row)) for row in A[1:]]
    across = [v for v in range(2, q + p) if v not in down]
    return matrix([[1, *across]] + [[d] + [0] * (p - 1) for d in down])


def test_kept_configurations_come_from_the_hook():
    for n in range(1, 8):
        for q in range(1, n + 1):
            p = n - q + 1
            for A, E in enumerate_configurations(q, p):
                if blocks_are_intervals(columns_partition(A)) and blocks_are_intervals(rows_partition(A)):
                    assert E == _hook(q, p, A), A


def test_su_respects_total_dimension():
    for left, right in su_top_diagonal(4):
        assert (4 - len(left)) + (4 - len(right)) == 3


def test_su_diagonal_on_lower_face_relabels():
    # comultiplicative extension: blocks act as independent permutohedra
    d = su_diagonal(face(3, [1, 3], [2]))
    assert d == {
        (F([1, 3], [2]), F([3], [1], [2])): 1,
        (F([1], [3], [2]), F([1, 3], [2])): 1,
    }


def _reference_su_diagonal(G):
    """The extension as it was written before `su_terms`: one product over
    the per-block terms, the Koszul sign summed per choice."""
    terms = []
    for choice in itertools.product(*map(_block_terms, G)):
        sign, exponent, right_degree = 1, 0, 0
        left_blocks, right_blocks = (), ()
        for s, left, right, deg_left, deg_right in choice:
            sign *= s
            exponent += deg_left * right_degree
            right_degree += deg_right
            left_blocks += left
            right_blocks += right
        terms.append(((left_blocks, right_blocks), -sign if exponent % 2 else sign))
    return accumulate(terms)


def _reference_block_terms(block):
    """The renaming as a comprehension that builds every block anew."""
    n = len(block)
    element = (None, *block).__getitem__
    return tuple((sign,
                  tuple([tuple(map(element, b)) for b in left]),
                  tuple([tuple(map(element, b)) for b in right]),
                  n - len(left), n - len(right))
                 for sign, left, right in _top_cell_terms(n))


def _nonempty_blocks(m):
    return [b for r in range(1, m + 1) for b in itertools.combinations(range(1, m + 1), r)]


def test_block_terms_rename_like_the_reference():
    for block in _nonempty_blocks(6):
        assert _block_terms(block) == _reference_block_terms(block), block


def _blocks_are_shared(terms):
    """Whether each distinct block of the terms is one object."""
    blocks = [b for t in terms for b in t[1] + t[2]]
    return len(set(map(id, blocks))) == len(set(blocks))


def test_diagonal_blocks_are_shared():
    for m in range(1, 7):
        assert _blocks_are_shared(_top_cell_terms(m)), m
    for block in _nonempty_blocks(6):
        assert _blocks_are_shared(_block_terms(block)), block


def _faces_are_shared(terms):
    """Whether each distinct face of the terms, left or right, is one
    object."""
    faces = [F for t in terms for F in t[1:3]]
    return len(set(map(id, faces))) == len(set(faces))


def test_diagonal_faces_are_shared():
    # the reversed faces of the transposed shapes too; m = 6 has 1 007
    # distinct left faces among its 4 802 terms
    for m in range(1, 7):
        assert _faces_are_shared(_top_cell_terms(m)), m
    assert len({id(t[1]) for t in _top_cell_terms(6)}) == 1007


def test_su_terms_are_the_terms_of_su_diagonal():
    for m in range(1, 6):
        for G in full_permutohedron(m).all():
            terms = list(su_terms(G))
            pairs = {(left, right): sign for sign, left, right in terms}
            assert len(pairs) == len(terms), G  # each pair once
            assert pairs == su_diagonal(G) == _reference_su_diagonal(G), G


def test_su_chain_map_small():
    for m in (2, 3, 4, 5, 6):
        for G in full_permutohedron(m).all():
            assert not chain_map_defect(G, su_diagonal, boundary, face_dim)


def test_su_counit():
    for m in (2, 3, 4):
        assert not counit_defect(face(m, range(1, m + 1)), su_diagonal, face_dim)


def test_cai_vertex_and_interval():
    v = ((), (1,))
    assert cai_diagonal(v) == {(v, v): 1}
    u = ((1,), ())
    lo = ((), ())
    hi = ((), (1,))
    assert cai_diagonal(u) == {(u, hi): 1, (lo, u): 1}


def test_cai_chain_map():
    for m in (1, 2, 3):
        for c in all_cells(m):
            assert not chain_map_defect(c, cai_diagonal, cube_boundary, lambda c: len(c[0]))


def test_cup_su_square_on_hexagon_vanishes():
    # Perm(boundary of a triangle) is a hexagon: H^2 = 0, so any product
    # of degree-1 cochains is a coboundary; on the top degree it must
    # evaluate consistently with no 2-cells present
    K = polygon_boundary([1, 2, 3])
    X = build_perm_complex(K)
    a = {f: 1 for f in X.faces(1)}
    assert not cup_su(a, a, X, 1, 1)
