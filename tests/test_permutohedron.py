import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from permcomplex.bar import phi_inverse
from permcomplex.diagonals import su_diagonal, su_top_diagonal
from permcomplex.permutohedron import (
    boundary,
    build_perm_complex,
    build_perm_complex_C,
    face,
    face_dim,
    face_from_json,
    face_label,
    full_permutohedron,
    geometry_json,
    last_element_matching,
    partitions_by_count,
    shuffle_sign,
    vertex_coordinates,
)
from permcomplex.simplicial import from_facets, full_simplex, random_suite, skeleton
from permcomplex.sumatrix import columns_partition, enumerate_configurations, rows_partition

from conftest import accumulate, complexes, face_vertices, last_position


def test_face_validation():
    with pytest.raises(ValueError):
        face(3, [1, 2], [2, 3])  # overlapping blocks
    with pytest.raises(ValueError):
        face(3, [1, 2])  # not covering
    with pytest.raises(ValueError):
        face(3, [1], [1], [2, 3])  # a repeated block
    with pytest.raises(ValueError):
        face(3, [1, 1], [2, 3])  # an element repeated inside a block
    with pytest.raises(ValueError):
        face(3, [1], [], [2, 3])  # an empty block
    with pytest.raises(ValueError):
        face(3, [1], [2, 4])  # outside [m]


@pytest.mark.parametrize("data", [5, [[1, 2], [3, "a"]], [[1, 2], 3],
                                  [[1, 2], [3, True]], [[1, 2], [2, 3]],
                                  [[1, 2]]])
def test_face_from_json_rejects_non_partitions(data):
    with pytest.raises(ValueError):
        face_from_json(data, 3)


def _as_json(F):
    return [list(b) for b in F]


def _assert_partitions(faces, m):
    """Each face is the one its JSON block list names: a partition of
    [m] into increasing blocks, which the program does not check when it
    builds a face.  The caller gives m, since m read off a face's blocks
    would not see an element they dropped."""
    for F in faces:
        assert face_from_json(_as_json(F), m) == F, F


def test_built_faces_are_partitions():
    for m in range(1, 6):
        faces = full_permutohedron(m).all()
        _assert_partitions(faces, m)
        for F in faces:
            _assert_partitions(boundary(F), m)
            _assert_partitions(face_vertices(F), m)
            for left, right in su_diagonal(F):
                _assert_partitions((left, right), m)
        for left, right in su_top_diagonal(m):
            _assert_partitions((left, right), m)
        for q in range(1, m + 1):
            for pair in enumerate_configurations(q, m + 1 - q):
                for M in pair:
                    _assert_partitions((columns_partition(M), rows_partition(M)), m)


def _assert_plain(faces):
    """Each face is a plain tuple of plain tuples, no subclass of either."""
    for F in faces:
        assert type(F) is tuple and all(type(b) is tuple for b in F), F


def test_a_face_is_its_block_tuple():
    for m in range(1, 6):
        faces = full_permutohedron(m).all()
        _assert_plain(faces)
        for F in faces:
            _assert_plain(boundary(F))
            _assert_plain(face_vertices(F))
            for left, right in su_diagonal(F):
                _assert_plain((left, right))
            _assert_plain((face_from_json(_as_json(F), m), phi_inverse(F, m)))
    _assert_plain(partitions_by_count(range(1, 5))[3])
    _assert_plain(build_perm_complex(skeleton(4, 1)).all())
    _assert_plain(build_perm_complex_C(from_facets(3, [[1, 2]])).all())
    _assert_plain((face(4, [4, 2], [1], [3]), face(4, [1, 2, 3, 4])))
    _assert_plain((phi_inverse([[2, 4], [1], [3]], 4),))
    assert face(4, [4, 2], [1], [3]) == ((2, 4), (1,), (3,))
    assert ((2, 4), (1,), (3,)) in full_permutohedron(4)
    assert boundary(face(2, [1, 2]))[((2,), (1,))] == 1
    assert face_label(((2, 4), (1,), (3,))) == "F(24|1|3)"
    assert face_label(()) == "F()"
    # from m = 10 a block's digits no longer tell its elements apart, so
    # they are joined with commas once an element has two digits
    assert face_label(((1, 2, 13), (3,))) == "F(1,2,13|3)"
    assert face_label(((12, 13), (1, 2, 3))) == "F(12,13|1,2,3)"
    assert face_label(((1, 2, 13),)) != face_label(((12, 13),))
    # the dimension m - p is read off the blocks
    assert face_dim(()) == 0
    for m in range(1, 6):
        for G in full_permutohedron(m).all():
            assert face_dim(G) == m - len(G)


def test_face_counts():
    # f-vector of Perm^2 (hexagon): 6 vertices, 6 edges, 1 top cell
    assert full_permutohedron(3).f_vector() == [6, 6, 1]
    # total face counts: ordered set partitions (Fubini numbers a(m,p))
    assert len(full_permutohedron(4).all()) == 75
    assert len(full_permutohedron(5).all()) == 541
    # faces of dimension m - p are the ordered partitions into p blocks:
    # p! S(m, p), with S(n, k) = k S(n - 1, k) + S(n - 1, k - 1)
    S = {(0, 0): 1}
    for n in range(1, 7):
        for k in range(1, n + 1):
            S[n, k] = k * S.get((n - 1, k), 0) + S.get((n - 1, k - 1), 0)
    for m in range(1, 7):
        assert full_permutohedron(m).f_vector() == [
            math.factorial(m - d) * S[m, m - d] for d in range(m)]


def test_dimension():
    assert face_dim(face(4, [1, 2, 3, 4])) == 3
    assert face_dim(face(4, [1], [2], [3], [4])) == 0
    assert face_dim(face(4, [1, 2], [3, 4])) == 2


def test_shuffle_sign_basics():
    # sign of the (M, N)-unshuffle of M followed by N
    assert shuffle_sign((1,), (2,)) == 1
    assert shuffle_sign((2,), (1,)) == -1
    assert shuffle_sign((1, 3), (2,)) == -1
    assert shuffle_sign((2,), (1, 3)) == -1


@given(st.permutations(range(1, 6)), st.integers(min_value=1, max_value=4))
def test_shuffle_sign_is_permutation_sign(perm, k):
    M = tuple(sorted(perm[:k]))
    N = tuple(sorted(perm[k:]))
    # brute-force parity of sorting M + N
    seq = list(M + N)
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    assert shuffle_sign(M, N) == (-1) ** inversions


def test_boundary_of_edge():
    d = boundary(face(2, [1, 2]))
    assert d[face(2, [1], [2])] == -1
    assert d[face(2, [2], [1])] == 1


def test_boundary_squares_to_zero_small():
    for m in (2, 3, 4):
        for F in full_permutohedron(m).all():
            dd = accumulate((H, c * c2) for G, c in boundary(F).items()
                            for H, c2 in boundary(G).items())
            assert not dd, "dd != 0 at %r" % (F,)


def test_full_permutohedron_euler_characteristic():
    for m in (2, 3, 4, 5):
        assert full_permutohedron(m).euler_characteristic() == 1  # a ball


def test_build_perm_complex_filters_blocks():
    K = skeleton(4, 1)
    X = build_perm_complex(K)
    assert face(4, [1, 2], [3, 4]) in X
    assert face(4, [1, 2, 3], [4]) not in X
    assert X.f_vector() == [24, 36, 6]


def test_vertex_coordinates():
    assert vertex_coordinates(face(3, [2], [1], [3])) == (2, 1, 3)
    assert vertex_coordinates(face(3, [1], [2], [3])) == (1, 2, 3)


def test_barycenter_of_top_cell():
    faces = geometry_json(full_permutohedron(3))["faces"]
    assert [f["barycenter"] for f in faces if f["face"] == ((1, 2, 3),)] == [["2", "2", "2"]]


@pytest.mark.parametrize("X", [full_permutohedron(m) for m in range(1, 5)]
                         + [build_perm_complex(skeleton(5, 2))])
def test_geometry_barycenters_average_the_vertices(X):
    """Each barycenter is the average of the coordinates of the vertices
    of its face, reduced and written as "p/q", or "p" for an integer."""
    def text(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    geometry = geometry_json(X)
    assert [f["face"] for f in geometry["faces"]] == X.all()
    for f in geometry["faces"]:
        vertices = [vertex_coordinates(v) for v in face_vertices(f["face"])]
        assert f["barycenter"] == [text(Fraction(sum(c), len(vertices)))
                                   for c in zip(*vertices)]
        assert f["dim"] == face_dim(f["face"])


def test_face_json_round_trip():
    F = face(4, [2, 4], [1], [3])
    assert face_from_json(_as_json(F), 4) == F


# ---------------------------------------------------------------------------
# the subset-DP enumerator against the recursive generator it replaced

def _reference_partitions(elements, block_ok=lambda block: True):
    """All ordered partitions of `elements` into blocks accepted by
    `block_ok`: the first block by size, then in combination order, and
    the rest recursively."""
    elements = tuple(sorted(elements))
    if not elements:
        yield ()
        return
    for size in range(1, len(elements) + 1):
        for first in itertools.combinations(elements, size):
            if block_ok(first):
                rest = tuple(e for e in elements if e not in first)
                for tail in _reference_partitions(rest, block_ok):
                    yield (first,) + tail


def _reference_by_count(partitions):
    by_count = {}
    for blocks in partitions:
        by_count.setdefault(len(blocks), []).append(blocks)
    return {p: sorted(lists) for p, lists in by_count.items()}


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_enumerator_matches_reference_on_every_block():
    for m in range(7):
        by_count = partitions_by_count(range(1, m + 1))
        assert by_count == _reference_by_count(_reference_partitions(range(1, m + 1)))
        if m:
            assert {p: len(lists) for p, lists in by_count.items()} == {
                p: math.factorial(p) * _stirling2(m, p) for p in range(1, m + 1)}


def test_enumerator_matches_reference_under_predicates():
    complexes = [skeleton(m, d) for m in range(2, 7) for d in range(m - 1)]
    complexes += random_suite(seed=0, count=20, max_m=5)
    complexes += random_suite(seed=3, count=6, max_m=6)
    for K in complexes:
        calls = []

        def block_ok(block, K=K):
            calls.append(block)
            return block in K.simplices

        elements = range(1, K.m + 1)
        assert partitions_by_count(elements, block_ok) == _reference_by_count(
            _reference_partitions(elements, lambda b: b in K.simplices))
        assert sorted(calls) == sorted(  # once per nonempty subset
            s for r in range(1, K.m + 1) for s in itertools.combinations(elements, r))


def test_doubled_complex_matches_reference():
    # a face of Perm^{2m-1} is removed iff some nonface I of K lies in one
    # block and its primed copy I' in one block
    for K in (from_facets(3, [[1, 2]]), from_facets(3, [[2, 3]]),
              from_facets(3, [[1, 2], [3]]), skeleton(3, 0), skeleton(3, 1)):
        m = K.m
        nonfaces = [set(s) for r in range(1, m + 1)
                    for s in itertools.combinations(range(1, m + 1), r)
                    if s not in K.simplices]

        def keep(blocks):
            return not any(any(I <= set(b) for b in blocks)
                           and any({i + m for i in I} <= set(b) for b in blocks)
                           for I in nonfaces)

        X = build_perm_complex_C(K)
        want = _reference_by_count(
            blocks for blocks in _reference_partitions(range(1, 2 * m + 1)) if keep(blocks))
        assert X.by_dim == {
            2 * m - p: lists for p, lists in want.items()}


def test_bases_are_in_block_order():
    for X in [full_permutohedron(m) for m in range(1, 7)] + [
            build_perm_complex(skeleton(6, d)) for d in range(5)] + [
            build_perm_complex_C(from_facets(3, [[1, 2]]))]:
        assert sorted(X.by_dim) == list(X.by_dim)
        for d, fs in X.by_dim.items():
            assert fs and fs == sorted(fs)
            assert all(face_dim(f) == d for f in fs)
        assert len(X) == len(set(X.all())) == sum(X.f_vector())
    for m in range(1, 6):
        by_count = partitions_by_count(range(1, m + 1))
        for d in range(m):
            assert by_count[m - d] == full_permutohedron(m).faces(d)


# ---------------------------------------------------------------------------
# the boundary from split tables against the formula it replaced

def _reference_boundary(F):
    terms = []
    offset = 0
    for j, block in enumerate(F):
        for r in range(1, len(block)):
            for M in itertools.combinations(block, r):
                rest = tuple(e for e in block if e not in M)
                sign = shuffle_sign(M, rest) * (-1) ** (offset + r)
                terms.append((F[:j] + (M, rest) + F[j + 1:], sign))
        offset += len(block) - 1
    return accumulate(terms)


def test_boundary_matches_reference_formula():
    for m in range(1, 6):
        for F in full_permutohedron(m).all():
            assert list(boundary(F).items()) == list(_reference_boundary(F).items()), F


# ---------------------------------------------------------------------------
# the last-element matching

@settings(max_examples=60, deadline=None)
@given(complexes(6), st.booleans())
@example(full_simplex(6), False)
@example(skeleton(6, 1), False)
@example(skeleton(3, 0), True)
@example(from_facets(3, [[1, 2]]), True)
@example(from_facets(3, [[1, 2]], include_all_vertices=False), False)  # Perm(K) is empty
@example(from_facets(3, [[1, 2]], include_all_vertices=False), True)
def test_last_element_matching_is_acyclic(K, doubled):
    """The critical faces are the faces the matching leaves unpaired, the
    pairs are facet pairs of the complex with a unit incidence, and every
    gradient step moves the largest element's block strictly left."""
    doubled = doubled and K.m <= 3
    X = build_perm_complex_C(K) if doubled else build_perm_complex(K)
    cells, partner, _ = last_element_matching(K, doubled)
    assert {d: sorted(fs) for d, fs in cells.items()} == {
        d: sorted(F for F in fs if partner(F) is None) for d, fs in X.by_dim.items()
        if any(partner(F) is None for F in fs)}
    for x in X.all():
        pair = partner(x)
        if pair is None:
            continue
        y, up = pair
        assert y in X and partner(y) == (x, not up)
        assert len(y) == len(x) + (-1 if up else 1)
        if not up:
            continue
        terms = boundary(y)
        assert terms[x] in (1, -1)
        for z in terms:
            if z != x and (partner(z) or (None, False))[1]:
                assert last_position(z) < last_position(x), (x, y, z)
