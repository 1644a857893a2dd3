import itertools
import math
import re
from unittest import mock

import pytest

from permcomplex import diagonals, sumatrix
from permcomplex.sumatrix import (
    ConfigurationAmbiguityError,
    _decode,
    _moves,
    _roots,
    _steps,
    _transpose,
    _walk,
    columns_partition,
    csgn,
    enumerate_configurations,
    rows_partition,
)

from conftest import (enumerate_step_matrices, is_ordered, is_step, matrix, reference_closure,
                      reference_shift, root)


def shift(M, i, j, down):
    """D_{i,j} (down) or R_{i,j} of M as `_walk` takes it, or M when the
    walk does not: the walk from M with every source but cell (i, j)
    masked off in that direction reaches M and at most the one matrix
    that the shift gives."""
    q, p = len(M), len(M[0])
    W, F, downs, rights, down_from, right_from = _moves(q, p)
    bit = 1 << q * p - 1 - ((i - 1) * p + j - 1)
    only = (tuple(mask & bit if down else 0 for mask in down_from),
            tuple(0 if down else mask & bit for mask in right_from))
    with mock.patch.object(sumatrix, "_moves", lambda *shape: (W, F, downs, rights, *only)):
        found = _walk(q, p, (root(M),))
    shifted = [code for code in found if _decode(code, q, p) != M]
    assert len(found) == len(shifted) + 1 and len(shifted) <= 1
    return _decode(shifted[0], q, p) if shifted else M


def test_is_ordered():
    assert is_ordered(matrix([[1, 2], [0, 3]]))
    assert not is_ordered(matrix([[2, 1], [0, 3]]))  # row not increasing
    assert not is_ordered(matrix([[0, 0], [1, 2]]))  # empty row
    assert not is_ordered(matrix([[1, 1], [0, 2]]))  # repeated entry


def test_is_step():
    # the staircase ascends from the lower-left corner to the upper-right
    assert is_step(matrix([[0, 1], [2, 3]]))
    assert is_step(matrix([[0, 2], [1, 3]]))
    assert is_step(matrix([[1, 2], [3, 0]]))
    assert is_step(matrix([[1, 3], [2, 0]]))
    assert not is_step(matrix([[1, 0], [2, 3]]))  # two entries on a diagonal


def test_step_matrix_counts():
    assert len(enumerate_step_matrices(1, 2)) == 1
    assert len(enumerate_step_matrices(2, 1)) == 1
    assert len(enumerate_step_matrices(2, 2)) == 4
    assert len(enumerate_step_matrices(2, 3)) == 11
    assert len(enumerate_step_matrices(3, 2)) == 11
    assert len(enumerate_step_matrices(3, 3)) == 66


def _brute_force_step_matrices(q, p):
    """The step matrices by filtering: one support cell per diagonal, rows
    and columns of the support consecutive runs, then every linear
    extension of the row/column order on the support kept if it passes
    is_step."""
    diagonals = [[(i, i + d) for i in range(1, q + 1) if 1 <= i + d <= p]
                 for d in range(-(q - 1), p)]
    result = set()
    for support in itertools.product(*diagonals):
        rows = [sorted(j for i, j in support if i == r) for r in range(1, q + 1)]
        cols = [sorted(i for i, j in support if j == c) for c in range(1, p + 1)]
        if not all(line and line == list(range(line[0], line[-1] + 1))
                   for line in rows + cols):
            continue
        for order in itertools.permutations(support):
            filled = [[0] * p for _ in range(q)]
            for value, (i, j) in enumerate(order, 1):
                filled[i - 1][j - 1] = value
            M = matrix(filled)
            if is_step(M):
                result.add(M)
    return result


def test_step_matrices_by_construction():
    # Eulerian numbers per shape, m! over the shapes with q + p - 1 = m
    for m in range(1, 8):
        total = 0
        for q in range(1, m + 1):
            steps = enumerate_step_matrices(q, m + 1 - q)
            assert all(map(is_step, steps))
            assert len(set(steps)) == len(steps)
            total += len(steps)
        assert total == math.factorial(m)


def test_step_matrices_match_brute_force():
    for m in range(1, 6):
        for q in range(1, m + 1):
            p = m + 1 - q
            assert set(enumerate_step_matrices(q, p)) == _brute_force_step_matrices(q, p)


def _roots_match_the_general_formula(m):
    """Whether each root that `_steps(m)` yields is the record of its step
    matrix by the general formula: its codes and occupancy read off the
    matrix, and csgn(E, E) and csgn(E^T, E^T) by the sign calculus."""
    return all(E == root(_decode(E[0], q, m + 1 - q))
               for q, roots in enumerate(_steps(m), 1) for E in roots)


def test_roots_match_the_general_formula():
    # the roots read their signs off the permutation (module docstring,
    # Roots); CI runs m = 7 and 8 as well
    for m in range(1, 7):
        assert _roots_match_the_general_formula(m), m


def test_shifts_match_reference_rule():
    # every ordered matrix of these shapes, every cell, both directions
    for q, p in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        m = q + p - 1
        for cells in itertools.permutations(range(q * p), m):
            flat = [0] * (q * p)
            for value, cell in enumerate(cells, 1):
                flat[cell] = value
            M = matrix([flat[k:k + p] for k in range(0, q * p, p)])
            if not is_ordered(M):
                continue
            for i in range(1, q + 1):
                for j in range(1, p + 1):
                    assert shift(M, i, j, True) == reference_shift(M, i, j, True)
                    assert shift(M, i, j, False) == reference_shift(M, i, j, False)


def test_down_shift_basic():
    # move the entry at (1, 2) down into the row below
    M = matrix([[1, 3], [2, 0]])
    assert shift(M, 1, 2, True) == matrix([[1, 0], [2, 3]])


def test_down_shift_inadmissible_returns_input():
    # shifting the lone entry of row 1 would empty the row
    M = matrix([[0, 1], [2, 3]])
    assert shift(M, 1, 2, True) == M


def test_right_shift_basic():
    # move the entry at (2, 1) right into the next column
    M = matrix([[1, 2], [3, 0]])
    assert shift(M, 2, 1, False) == matrix([[1, 2], [0, 3]])


def test_configuration_shape_counts():
    assert len(enumerate_configurations(1, 4)) == 1
    assert len(enumerate_configurations(4, 1)) == 1
    assert len(enumerate_configurations(2, 2)) == 6
    assert len(enumerate_configurations(2, 3)) == 24
    assert len(enumerate_configurations(3, 2)) == 24


def test_configuration_totals():
    # total over shapes with q + p - 1 = m is 2 (m+1)^(m-2)
    totals = {}
    for m in (2, 3, 4, 5):
        totals[m] = sum(
            len(enumerate_configurations(q, m + 1 - q)) for q in range(1, m + 1)
        )
    assert totals == {2: 2, 3: 8, 4: 50, 5: 432}


def test_configurations_are_ordered_matrices():
    for q, p in [(2, 3), (3, 2), (3, 3)]:
        for A, E in enumerate_configurations(q, p):
            assert is_ordered(A)
            assert is_step(E)


def test_no_refill_excludes_known_matrix():
    # reachable only by moving an entry back into a cell vacated earlier
    # in the same shift sequence; admitting it breaks compatibility of
    # the diagonal with the boundary
    bad = matrix([[1, 0, 3], [0, 2, 4]])
    mats = {A for A, _ in enumerate_configurations(2, 3)}
    assert is_ordered(bad)
    assert bad not in mats


def test_known_multi_source_configuration_sign_agrees():
    # [0 1; 2 3] is a step matrix, and no other step matrix reaches it
    # (test_step_configurations_are_disjoint); the enumeration keeps one
    # pair for it, with itself as the source
    target = matrix([[0, 1], [2, 3]])
    sources = [E for A, E in enumerate_configurations(2, 2) if A == target]
    assert sources == [target]


def _injected(monkeypatch, q, p, pick):
    """Hand the walk of the q x p shape one more root: a configuration
    matrix A of a step matrix E, the first pair that `pick(A, E)`
    accepts, its record read off the general sign formula, as A is no
    step matrix.  The walk from E reaches A with csgn(A, E), the one from
    A with csgn(A, A).  Returns (A, E)."""
    A, E = next((A, E) for A, E in enumerate_configurations(q, p) if A != E and pick(A, E))
    roots = _roots(q, p) + (root(A),)
    monkeypatch.setattr(sumatrix, "_roots",
                        lambda *shape: roots if shape == (q, p) else _roots(*shape))
    return A, E


def _transposed_sign_differs(A, E):
    T, S = _transpose(A), _transpose(E)
    return csgn(T, T) != csgn(T, S)


def test_conflicting_sources_raise_naming_both(monkeypatch):
    # no configuration matrix is reached from two step matrices, so give
    # the walk of 3 x 3 a source that reaches a matrix of another with a
    # different sign; the error names the matrix and both sources, from
    # the enumeration and from the top-cell terms
    A, E = _injected(monkeypatch, 3, 3, lambda A, E: csgn(A, A) != csgn(A, E))
    message = f"{A} derived from {E} and {A} with conflicting signs"
    with pytest.raises(ConfigurationAmbiguityError, match=re.escape(message)):
        sumatrix.enumerate_configurations.__wrapped__(3, 3)
    with pytest.raises(ConfigurationAmbiguityError, match=re.escape(message)):
        diagonals._top_cell_terms.__wrapped__(5)


def test_conflicting_transposed_sources_raise_naming_both(monkeypatch):
    # the 3 x 2 matrices are the transposes of the walk of 2 x 3: sources
    # whose signs agree on A but not on A^T must still raise, naming the
    # 3 x 2 matrices
    A, E = _injected(monkeypatch, 2, 3, lambda A, E: csgn(A, A) == csgn(A, E)
                     and _transposed_sign_differs(A, E))
    T, S = _transpose(A), _transpose(E)
    message = f"{T} derived from {S} and {T} with conflicting signs"
    with pytest.raises(ConfigurationAmbiguityError, match=re.escape(message)):
        sumatrix.enumerate_configurations.__wrapped__(3, 2)
    with pytest.raises(ConfigurationAmbiguityError, match=re.escape(message)):
        diagonals._top_cell_terms.__wrapped__(4)


def test_agreeing_sources_do_not_raise(monkeypatch):
    # a matrix reached from two step matrices whose signs agree, on A and
    # on A^T, is no conflict: the walk keeps the first record, so the
    # enumeration and the top-cell terms are those without the extra root
    terms = diagonals._top_cell_terms.__wrapped__(5)
    _injected(monkeypatch, 3, 3, lambda A, E: csgn(A, A) == csgn(A, E)
              and not _transposed_sign_differs(A, E))
    assert sumatrix.enumerate_configurations.__wrapped__(3, 3) == enumerate_configurations(3, 3)
    assert diagonals._top_cell_terms.__wrapped__(5) == terms


def test_step_configurations_are_disjoint():
    # no configuration matrix is reached from two step matrices, so the
    # ConfigurationAmbiguityError sign check never has a conflict to judge
    for m in range(1, 7):
        for q in range(1, m + 1):
            p = m + 1 - q
            closures = [_walk(q, p, (E,)) for E in _roots(q, p)]
            union = set().union(*closures)
            assert sum(map(len, closures)) == len(union)
            assert len(union) == len(enumerate_configurations(q, p))


def test_closure_of_the_transpose_is_the_transpose():
    # closure(E^T) = closure(E)^T, by the reference closure read off the
    # definition, so the walk runs only the shapes with q <= p: each of
    # its closures is the reference one, and the pairs of a shape with
    # q > p are the transposes, each under its own source
    for m in range(1, 7):
        for q in range(1, (m + 1) // 2 + 1):
            p = m + 1 - q
            transposed = {}
            for E in _roots(q, p):
                M = _decode(E[0], q, p)
                closure = reference_closure(M)
                assert {_decode(code, q, p) for code in _walk(q, p, (E,))} == closure
                transposed[_transpose(M)] = reference_closure(_transpose(M))
                assert transposed[_transpose(M)] == set(map(_transpose, closure))
            pairs = enumerate_configurations(p, q)
            assert len(pairs) == sum(map(len, transposed.values()))
            assert all(A in transposed[E] for A, E in pairs)


def test_row_and_column_partitions():
    A = matrix([[0, 2], [1, 3]])
    assert columns_partition(A) == ((1,), (2, 3))
    # rows are read bottom-up
    assert rows_partition(A) == ((1, 3), (2,))


def test_csgn_values_2x2():
    expected = {
        ((0, 1), (2, 3)): 1,
        ((0, 2), (1, 3)): -1,
        ((1, 0), (2, 3)): 1,
        ((1, 2), (0, 3)): -1,
        ((1, 2), (3, 0)): -1,
        ((1, 3), (2, 0)): 1,
    }
    got = {A: csgn(A, E) for A, E in enumerate_configurations(2, 2)}
    assert got == expected
