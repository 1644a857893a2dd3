import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permcomplex import FormalChain
from permcomplex.diagonals import su_diagonal, su_top_diagonal
from permcomplex.permutohedron import (
    PartitionFace,
    all_faces,
    barycenter,
    boundary,
    build_perm_complex,
    enumerate_faces,
    face,
    face_from_json,
    face_to_json,
    face_vertices,
    full_permutohedron,
    refines,
    shuffle_sign,
    top_face,
    vertex_coordinates,
)
from permcomplex.simplicial import skeleton
from permcomplex.sumatrix import columns_partition, enumerate_configurations, rows_partition


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


def _assert_partitions(faces):
    """Each face is the one its JSON block list names: a partition of
    [m] into increasing blocks, which building a PartitionFace does not
    check."""
    for F in faces:
        assert face_from_json(face_to_json(F), F.m) == F, F


def test_built_faces_are_partitions():
    for m in range(1, 6):
        faces = all_faces(m)
        _assert_partitions(faces)
        for F in faces:
            _assert_partitions(G for G, _ in boundary(F))
            _assert_partitions(face_vertices(F))
            for (left, right), _ in su_diagonal(F):
                _assert_partitions((left, right))
        for (left, right), _ in su_top_diagonal(m):
            _assert_partitions((left, right))
        for q in range(1, m + 1):
            for record in enumerate_configurations(q, m + 1 - q):
                for M in (record.matrix, record.source_step):
                    _assert_partitions((columns_partition(M), rows_partition(M)))


def test_face_counts():
    # f-vector of Perm^2 (hexagon): 6 vertices, 6 edges, 1 top cell
    assert [len(enumerate_faces(3, d)) for d in range(3)] == [6, 6, 1]
    # total face counts: ordered set partitions (Fubini numbers a(m,p))
    assert len(all_faces(4)) == 75
    assert len(all_faces(5)) == 541
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
    assert top_face(4).dim == 3
    assert face(4, [1], [2], [3], [4]).dim == 0
    assert face(4, [1, 2], [3, 4]).dim == 2


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
        for F in all_faces(m):
            dd = FormalChain()
            for G, c in boundary(F):
                dd = dd + c * boundary(G)
            assert not dd, "dd != 0 at %r" % (F,)


def test_refines():
    assert refines(face(3, [1], [2, 3]), face(3, [1, 2, 3]))
    assert refines(face(3, [1], [3], [2]), face(3, [1, 3], [2]))
    assert not refines(face(3, [2], [1, 3]), face(3, [1, 2], [3]))


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
    assert barycenter(top_face(3)) == (Fraction(2), Fraction(2), Fraction(2))


def test_face_json_round_trip():
    F = face(4, [2, 4], [1], [3])
    assert face_from_json(face_to_json(F), 4) == F
