"""Reference computations: fixed pure-Python work, timed between jobs, whose
time tells how fast the shared host runs this kind of work at the moment.

The host's speed drifts over minutes with the load other tenants put on
its cores, caches and memory, and a run cannot outlast that drift.  So
run.py scales each run's job times by the nominal time of its workload's
reference computation over the reference's median time in the same run.  Each reference does the kind of
work its workload's hot path does, so that it meets the same pressure:

- `routes`: diagonalising a fixed integer matrix by least-pivot scans and
  row and column operations, as `homology.smith_normal_form` does;
- `faces-diagonal`: a dict of every ordered set partition of [7] as a
  tuple of frozensets, probed once for each merge of two neighbouring
  blocks, as face enumeration and the diagonal code build and probe such
  faces (a working set of about 20 MB).

Neither calls permcomplex, so no change to the program can move them.
Each returns a count that is checked against its closed form.
"""

from __future__ import annotations

from itertools import permutations

SIZE = 70
PARTS = 7


def _matrix() -> list:
    """A fixed SIZE x SIZE matrix with entries in -1..1, about half zero,
    from a linear congruential generator."""
    x, entries = 1, []
    for _ in range(SIZE * SIZE):
        x = (1103515245 * x + 12345) % 2 ** 31
        entries.append((0, 0, 1, -1)[x >> 29])
    return [entries[i * SIZE:(i + 1) * SIZE] for i in range(SIZE)]


def eliminate() -> int:
    """The rank of `_matrix()`, diagonalised over Z as `smith_normal_form`
    does it: the pivot is the nonzero entry of least absolute value in the
    remaining block, found by a scan of the block, and integer row and
    column operations clear its column and row.  A step whose remainders
    are not all zero is done again, with a smaller pivot."""
    D = _matrix()
    k = 0
    while k < SIZE:
        block = [(i, j) for i in range(k, SIZE) for j in range(k, SIZE) if D[i][j]]
        if not block:
            break
        i, j = min(block, key=lambda ij: abs(D[ij[0]][ij[1]]))
        D[k], D[i] = D[i], D[k]
        for row in D:
            row[k], row[j] = row[j], row[k]
        pivot, clean = D[k][k], True
        for i in range(k + 1, SIZE):
            if D[i][k]:
                q = D[i][k] // pivot
                D[i] = [a - q * b for a, b in zip(D[i], D[k])]
                clean = clean and not D[i][k]
        for j in range(k + 1, SIZE):
            if D[k][j]:
                q = D[k][j] // pivot
                for row in D:
                    row[j] -= q * row[k]
                clean = clean and not D[k][j]
        k += clean
    return k


def _set_partitions(items: list):
    """Every partition of `items` into blocks, as tuples of frozensets."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for mask in range(1 << len(rest)):
        block = frozenset([first] + [x for i, x in enumerate(rest) if mask >> i & 1])
        others = [x for i, x in enumerate(rest) if not mask >> i & 1]
        for tail in _set_partitions(others):
            yield (block,) + tail


def index_faces() -> int:
    """Index the ordered set partitions of [PARTS] and count the merges of
    two neighbouring blocks found in the index: all of them."""
    index = {}
    for blocks in _set_partitions(list(range(1, PARTS + 1))):
        for ordered in permutations(blocks):
            index[ordered] = len(index)
    hits = 0
    for ordered in index:
        for i in range(len(ordered) - 1):
            hits += (ordered[:i] + (ordered[i] | ordered[i + 1],) + ordered[i + 2:]) in index
    return hits


# workload -> (reference computation, the count it must return, its
# nominal seconds).  The matrix has full rank.  Every ordered partition of
# [7] into p blocks has p - 1 merges, and there are p! S(7, p) of them, so
# index_faces finds sum (p - 1) p! S(7, p) = 201978.  The nominal seconds
# are about the median time of each on the 2-core host where the benchmark
# was defined; the scaled job times read in seconds of that host.
REFERENCES = {"routes": (eliminate, SIZE, 0.25),
              "faces-diagonal": (index_faces, 201978, 0.35)}
