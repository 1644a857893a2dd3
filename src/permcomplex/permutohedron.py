"""Faces of the permutohedron as ordered partitions, the cellular boundary
with its shuffle signs, and the subcomplexes attached to a simplicial
complex (both the real and the doubled/complex-arrangement variant).

A face of the (m-1)-permutohedron is an ordered partition (U_1|...|U_p) of
[m]; its dimension is m - p.  Refining the partition passes to a face of
the boundary.

A face is the plain tuple of its blocks, each an increasing tuple, from
enumeration to the reports: `partitions_by_count` enumerates block
tuples in basis order by one dynamic programme over the subsets of [m],
`boundary` splits blocks through a table built once per block, and the
diagonals, the projection check and the report writer read faces as the
tuples they are.  Where m is at hand a face's dimension is m - len(F);
`face_dim` reads it off the blocks, and `face_label` gives the label
F(12|3) that reports and errors print.  The program makes partitions by
construction, so a face it builds is not checked.  Blocks from outside
the program (the CLI's `--face`, cochain files, bar words) go through
`face` or `face_from_json`, which check that they partition [m].

`last_element_matching` pairs each face whose block holds m with one
other element or more with the facet that splits {m} off to its right.
The faces left unpaired, the critical ones, are those where {m} is a
singleton block that is first or cannot join its left neighbour; they
are made from the ordered partitions of [m - 1] alone.  {m} moves
strictly left along every gradient path, one block at a time, so the
matching is acyclic and a path has a closed form, and
`homology.complex_from_boundary` assembles the Morse complex of the
critical faces from that flow, which is what the CLI's `homology`
eliminates.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .homology import BoundaryError
from .simplicial import SimplicialComplex, minimal_nonfaces


def face_dim(F: tuple) -> int:
    """Dimension m - p of the face F with p blocks, m read off the blocks."""
    return sum(map(len, F)) - len(F)


def face_label(F: tuple) -> str:
    """The label F(12|3) of a face, as reports and errors print it.  When
    an element has two digits, the elements of each block are joined with
    commas, so the block (1, 2, 13) reads 1,2,13 and (12, 13) 12,13."""
    sep = "," if any(i > 9 for b in F for i in b) else ""
    return "F(" + "|".join(sep.join(map(str, b)) for b in F) + ")"


def face(m: int, *blocks) -> tuple:
    """The face with the given blocks (sorted here), checked to be an
    ordered partition of [m] into nonempty blocks; ValueError otherwise."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    seen = set()
    for block in blocks:
        if not block or list(block) != sorted(set(block)):
            raise ValueError(f"bad block {block}")
        seen.update(block)
    if seen != set(range(1, m + 1)) or sum(map(len, blocks)) != m:
        raise ValueError(f"blocks {blocks} do not partition [1, {m}]")
    return blocks


def shuffle_sign(M, N) -> int:
    """Sign of the permutation rearranging sorted(M u N) into M followed by N.

    Equals (-1)^inv where inv counts pairs a in M, b in N with a > b.
    """
    M, N = tuple(M), tuple(N)
    if not set(M).isdisjoint(N):
        raise ValueError(f"{M} and {N} are not disjoint")
    return -1 if sum(a > b for a in M for b in N) % 2 else 1


def partitions_by_count(elements, block_ok=None) -> dict:
    """The ordered partitions of `elements` into nonempty blocks accepted
    by `block_ok` (a predicate on increasing tuples, called once per
    subset; default: all), as {p: [blocks, ...]} by the number p of
    blocks.  Each list is in lexicographic block order, which is the
    basis order of the faces of dimension len(elements) - p.

    A dynamic programme over the subsets, smallest first: the partitions
    of a subset are its accepted blocks, in lexicographic order, each
    followed by the partitions of what it leaves, which are built once."""
    elements = tuple(sorted(elements))
    n = len(elements)
    blocks = sorted((tuple(e for i, e in enumerate(elements) if mask >> i & 1), mask)
                    for mask in range(1, 1 << n))
    firsts = [((block,), mask) for block, mask in blocks
              if block_ok is None or block_ok(block)]
    table = [{0: [()]}]  # subset mask -> {p: partitions of that subset}
    for subset in range(1, 1 << n):
        by_count = {}
        for first, mask in firsts:
            if mask & subset == mask:
                for p, tails in table[subset ^ mask].items():
                    out = by_count.get(p + 1)
                    if out is None:
                        out = by_count[p + 1] = []
                    out += [first + tail for tail in tails]
        table.append(by_count)
    return table[-1]


@lru_cache(maxsize=None)
def _splits(block: tuple) -> tuple:
    """(M, block \\ M, (-1)^|M| shuff(M; block \\ M)) for each proper
    nonempty M of the block, by |M| and then in lexicographic order: the
    split {max} | rest is entry |block| - 1, and rest | {max} entry
    -|block|."""
    table = []
    for r in range(1, len(block)):
        for M in itertools.combinations(block, r):
            rest = tuple(e for e in block if e not in M)
            sign = shuffle_sign(M, rest)
            table.append((M, rest, -sign if r % 2 else sign))
    return tuple(table)


def boundary(F: tuple) -> dict:
    """Cellular boundary of a permutohedron face, as {face: coefficient}.

    Splits each block U_j into M | U_j \\ M over proper nonempty M, with
    sign (-1)^(m_1+...+m_{j-1}+|M|) * shuff(M; U_j \\ M), m_i = |U_i| - 1.
    """
    terms = {}  # the terms are distinct faces: none cancels
    odd = False  # parity of m_1 + ... + m_{j-1}
    for j, block in enumerate(F):
        if len(block) > 1:
            head, tail = F[:j], F[j + 1:]
            for M, rest, sign in _splits(block):
                terms[head + (M, rest) + tail] = -sign if odd else sign
            if not len(block) % 2:
                odd = not odd
    return terms


class PermComplex:
    """A refinement-closed set of permutohedron faces (all of Perm^{m-1},
    or the subcomplex Perm(K) attached to a simplicial complex).

    `by_dim` maps each dimension that has faces to its faces in basis
    order, lexicographic in the blocks."""

    def __init__(self, m: int, by_dim: dict):
        self.m = m
        self.by_dim = by_dim

    @classmethod
    def from_partitions(cls, m: int, by_count: dict):
        """The complex whose faces are the block tuples of
        `partitions_by_count`, kept in its order."""
        return cls(m, {m - p: lists
                       for p, lists in sorted(by_count.items(), reverse=True)
                       if lists})

    @cached_property
    def _face_set(self) -> frozenset:
        return frozenset(f for fs in self.by_dim.values() for f in fs)

    def __contains__(self, f: tuple) -> bool:
        return f in self._face_set

    def __len__(self):
        return sum(map(len, self.by_dim.values()))

    @property
    def dim(self) -> int:
        return max(self.by_dim) if self.by_dim else -1

    def faces(self, dim: int) -> list:
        return self.by_dim.get(dim, [])

    def all(self) -> list:
        return [f for d in sorted(self.by_dim) for f in self.by_dim[d]]

    def f_vector(self) -> list:
        return [len(self.faces(d)) for d in range(self.dim + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))


def full_permutohedron(m: int) -> PermComplex:
    return PermComplex.from_partitions(m, partitions_by_count(range(1, m + 1)))


def build_perm_complex(K: SimplicialComplex) -> PermComplex:
    """Perm(K): faces whose every block is a simplex of K."""
    return PermComplex.from_partitions(
        K.m, partitions_by_count(range(1, K.m + 1), K.simplices.__contains__))


def _doubled_keep(K: SimplicialComplex):
    """The predicate on the faces of Perm^{2m-1} that keeps a face of the
    doubled complex: no minimal nonface I of K has I inside one block and
    its primed copy I' inside a (possibly different) block."""
    m = K.m
    nonfaces = [frozenset(s) for s in minimal_nonfaces(K)]
    primed = [frozenset(i + m for i in s) for s in nonfaces]

    def keep(blocks) -> bool:
        block_sets = [frozenset(b) for b in blocks]
        for I, Ip in zip(nonfaces, primed):
            if any(I <= b for b in block_sets) and any(Ip <= b for b in block_sets):
                return False
        return True
    return keep


def build_perm_complex_C(K: SimplicialComplex) -> PermComplex:
    """The doubled variant on [2m] modelling the complex arrangement.

    Labels 1..m are the original indices, m+1..2m their primed copies.  A
    face of Perm^{2m-1} is removed iff some minimal nonface I of K has I
    inside one block and I' inside a (possibly different) block; checking
    minimal nonfaces is equivalent to checking all nonfaces.
    """
    keep = _doubled_keep(K)
    by_count = partitions_by_count(range(1, 2 * K.m + 1))
    return PermComplex.from_partitions(
        2 * K.m, {p: [blocks for blocks in lists if keep(blocks)]
                  for p, lists in by_count.items()})


def last_element_matching(K: SimplicialComplex, doubled: bool = False):
    """The acyclic matching of Perm(K) (of the doubled complex on [2m] if
    `doubled`) on its last element n, as (cells, partner, flow): the
    critical faces by dimension, the partner of a face, and the gradient
    flow that `complex_from_boundary` assembles the Morse complex with.

    A face (..., B, ...) with n in B and |B| >= 2 is paired with its facet
    (..., B \\ {n}, {n}, ...), which the complex holds as it holds every
    refinement of its faces.  The incidence is the split sign
    (-1)^(|B| - 1) times the parity of the blocks before B, so it is +-1.
    A face is critical when {n} is a singleton block that is first, or
    whose left neighbour B' cannot take n: the face that joins n to B' is
    not in the complex (for Perm(K), B' u {n} is not a simplex of K).

    The critical faces are the ordered partitions of [n - 1] in the
    complex with {n} put first or after a block that cannot take it, so
    the complex itself is never enumerated.  On full Perm that leaves
    Fubini(n - 1) of the Fubini(n) faces.  A complex K without the vertex
    m (as `projection.L_of_K` may build) has no block that can hold m, so
    Perm(K) is empty, and so is its doubled complex, which {m} as a
    minimal nonface empties: no cell is critical or paired.

    The move lemma.  A gradient path runs from a face x = (..., A, B',
    {n}, ...) that B' can take, up to its partner y = (..., A, B' u {n},
    ...), and down to a face of the boundary of y other than x.  Every
    such face but one holds n in a block of two or more, so the matching
    pairs it with a face below and the path ends at 0.  The one left is
    x' = (..., A, {n}, B', ...), with {n} one block further left; the
    path goes on from x' unless x' is critical.  So {n} moves strictly
    left, the matching is acyclic, and x flows to the one critical face
    where {n} first stops, with the product over the moves of -a c,
    where a = <dy, x> and c = <dy, x'> are the split signs of B' | {n}
    and {n} | B' of the block B' u {n} in `_splits` (the parity of the
    blocks before it is in both, and cancels).  The factor is +1 for
    every block, but it is read from `_splits` at each move, so the flow
    follows the boundary that `boundary` takes.

    The bar step, for `bar.tor_ranks`, which follows the same pairs with
    the roles flipped (a merge lowers the bar degree).  A word z = (...,
    A, B' u {n}, C, ...) with |B' u {n}| >= 2 goes up to its partner x =
    (..., A, B', {n}, C, ...) and down to a merge of x other than z.
    Merging A and B' leaves {n} a singleton after A u B': that word is
    critical, or 0 if it pairs down.  Merging {n} and C gives (..., A,
    B', C u {n}, ...), where the path goes on with n's letter one further
    right.  Every other merge leaves {n} after B', which takes it, and
    pairs down to 0.

    partner(F) is None for a critical face, and otherwise (G, up): the
    face G paired with F, and whether G is one dimension up, which it is
    when G joins n to the block before it.  flow(F), for a face F that is
    not critical, is () when n is in a block of two or more, and
    otherwise the one pair (critical face, coefficient) that {n} moving
    left reaches; a move whose incidence is not +-1 raises BoundaryError.
    """
    if (K.m,) not in K.simplices:
        return {}, lambda F: None, lambda F: ()
    n = 2 * K.m if doubled else K.m
    last = (n,)
    if doubled:
        keep = _doubled_keep(K)
        partitions = {p: [G for G in lists if keep(G)]
                      for p, lists in partitions_by_count(range(1, n)).items()}

        def takes(F, k):  # the block before the singleton {n} at k takes n
            return keep(F[:k - 1] + (F[k - 1] + last,) + F[k + 1:])
    else:
        simplices = K.simplices
        partitions = partitions_by_count(range(1, n), simplices.__contains__)

        def takes(F, k):
            return F[k - 1] + last in simplices

    def partner(F):
        for k, block in enumerate(F):
            if block[-1] == n:
                break
        if len(block) > 1:
            return F[:k] + (block[:-1], last) + F[k + 1:], False
        if k and takes(F, k):
            return F[:k - 1] + (F[k - 1] + last,) + F[k + 1:], True
        return None

    def flow(F):
        try:
            k = F.index(last)
        except ValueError:  # n is in a block of two or more: F pairs down
            return ()
        coeff = 1
        while k and takes(F, k):
            block = F[k - 1] + last
            splits = _splits(block)
            a = splits[-len(block)][2]  # B' | {n}, the first split of |B'| elements
            if a != 1 and a != -1:
                raise BoundaryError(f"{F} has incidence {a} in the boundary of "
                                    f"{F[:k - 1] + (block,) + F[k + 1:]}, which it is paired with")
            coeff *= -a * splits[len(block) - 1][2]  # {n} | B', the last split of one
            F = F[:k - 1] + (last, F[k - 1]) + F[k + 1:]
            k -= 1
        return ((F, coeff),)

    cells = {n - p - 1: [F for G in lists for k in range(p + 1)
                         for F in (G[:k] + (last,) + G[k:],) if not k or not takes(F, k)]
             for p, lists in sorted(partitions.items(), reverse=True) if lists}
    return cells, partner, flow


def vertex_coordinates(F: tuple) -> tuple:
    """Coordinates of a vertex: the element of U_j gets value j (earlier
    blocks receive the smaller values)."""
    m = sum(map(len, F))
    if m != len(F):
        raise ValueError(f"{face_label(F)} is not a vertex")
    coords = [0] * m
    for j, block in enumerate(F, start=1):
        coords[block[0] - 1] = j
    return tuple(coords)


def face_from_json(data, m: int | None = None) -> tuple:
    """The face a JSON block list names, on [m] (by default the number of
    elements listed).  ValueError unless `data` is a list of lists of
    integers partitioning [m]."""
    if not isinstance(data, list) or not all(
            isinstance(b, list) and all(type(i) is int for i in b) for b in data):
        raise ValueError(f"a face is a list of integer lists, not {data!r}")
    if m is None:
        m = sum(len(b) for b in data)
    return face(m, *data)


def geometry_json(X: PermComplex) -> dict:
    """Exact coordinates for export: integer vertices plus rational
    barycenters of all faces (as "p/q" strings).  Faces are their block
    tuples, which the report writer writes as lists.

    The barycenter of F gives each element of a block U_j the value
    offset_j + (|U_j| + 1)/2, where offset_j counts the elements of
    earlier blocks: the half n/2 of n = 2 offset_j + |U_j| + 1, whose
    text is looked up in a table of the halves 0/2 .. (2m + 1)/2."""
    m = X.m
    halves = [str(n // 2) if n % 2 == 0 else f"{n}/2" for n in range(2 * m + 2)]

    def barycenter(F):
        coords = [None] * m
        offset = 0
        for block in F:
            text = halves[2 * offset + len(block) + 1]
            for i in block:
                coords[i - 1] = text
            offset += len(block)
        return coords

    vertices = [{"face": v, "coords": list(vertex_coordinates(v))}
                for v in X.faces(0)]
    faces = [{"face": f, "dim": m - len(f), "barycenter": barycenter(f)}
             for f in X.all()]
    return {"m": m, "vertices": vertices, "faces": faces}
