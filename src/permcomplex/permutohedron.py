"""Faces of the permutohedron as ordered partitions, the cellular boundary
with its shuffle signs, and the subcomplexes attached to a simplicial
complex (both the real and the doubled/complex-arrangement variant).

A face of the (m-1)-permutohedron is an ordered partition (U_1|...|U_p) of
[m]; its dimension is m - p.  Refining the partition passes to a face of
the boundary.

`PartitionFace` is a plain record: building one checks nothing, because
enumeration, boundaries, the diagonals and the configuration matrices make
partitions by construction.  Blocks from outside the program (the CLI's
`--face`, cochain files, bar words) go through `face` or `face_from_json`,
which check that they partition [m].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chains import FormalChain
from .simplicial import SimplicialComplex, minimal_nonfaces


@dataclass(frozen=True, slots=True)
class PartitionFace:
    """Ordered partition (U_1|...|U_p) of [m]; blocks are increasing tuples.

    Unchecked: use `face` or `face_from_json` for blocks that may not
    partition [m]."""

    m: int
    blocks: tuple

    @property
    def dim(self) -> int:
        return self.m - len(self.blocks)

    def __repr__(self):
        return "F(" + "|".join("".join(map(str, b)) for b in self.blocks) + ")"


def face(m: int, *blocks) -> PartitionFace:
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
    return PartitionFace(m, blocks)


def top_face(m: int) -> PartitionFace:
    return PartitionFace(m, (tuple(range(1, m + 1)),))


def shuffle_sign(M, N) -> int:
    """Sign of the permutation rearranging sorted(M u N) into M followed by N.

    Equals (-1)^inv where inv counts pairs a in M, b in N with a > b.
    """
    M, N = tuple(M), tuple(N)
    if set(M) & set(N):
        raise ValueError(f"{M} and {N} are not disjoint")
    inversions = sum(1 for a in M for b in N if a > b)
    return -1 if inversions % 2 else 1


def ordered_partitions(elements, block_ok=None):
    """All ordered partitions of `elements` into nonempty blocks, each block
    accepted by `block_ok` (a predicate on sorted tuples; default: all)."""
    elements = tuple(sorted(elements))
    if not elements:
        yield ()
        return
    n = len(elements)
    for size in range(1, n + 1):
        for first in itertools.combinations(elements, size):
            if block_ok is not None and not block_ok(first):
                continue
            rest = tuple(e for e in elements if e not in first)
            for tail in ordered_partitions(rest, block_ok):
                yield (first,) + tail


def enumerate_faces(m: int, dim: int) -> list:
    """All faces of Perm^{m-1} of the given dimension, in lexicographic
    block order."""
    if not 0 <= dim <= m - 1:
        raise ValueError(f"dim {dim} out of range [0, {m - 1}]")
    p = m - dim
    faces = [PartitionFace(m, blocks)
             for blocks in ordered_partitions(range(1, m + 1))
             if len(blocks) == p]
    faces.sort(key=lambda f: f.blocks)
    return faces


def all_faces(m: int) -> list:
    return [PartitionFace(m, blocks)
            for blocks in ordered_partitions(range(1, m + 1))]


def refines(G: PartitionFace, F: PartitionFace) -> bool:
    """True iff the blocks of G split those of F into consecutive runs,
    preserving order."""
    if G.m != F.m:
        raise ValueError("faces live on different ground sets")
    i = 0
    for block in F.blocks:
        acc = set()
        while acc != set(block):
            if i >= len(G.blocks) or not set(G.blocks[i]) <= set(block):
                return False
            acc.update(G.blocks[i])
            i += 1
    return i == len(G.blocks)


def boundary(F: PartitionFace) -> FormalChain:
    """Cellular boundary of a permutohedron face.

    Splits each block U_j into M | U_j \\ M over proper nonempty M, with
    sign (-1)^(m_1+...+m_{j-1}+|M|) * shuff(M; U_j \\ M), m_i = |U_i| - 1.
    """
    result = FormalChain()
    offset = 0  # running sum of m_i over earlier blocks
    for j, block in enumerate(F.blocks):
        size = len(block)
        if size >= 2:
            for r in range(1, size):
                for M in itertools.combinations(block, r):
                    rest = tuple(e for e in block if e not in M)
                    sign = shuffle_sign(M, rest)
                    if (offset + r) % 2:
                        sign = -sign
                    new_blocks = F.blocks[:j] + (M, rest) + F.blocks[j + 1:]
                    result.add_term(PartitionFace(F.m, new_blocks), sign)
        offset += size - 1
    return result


class PermComplex:
    """A refinement-closed set of permutohedron faces (all of Perm^{m-1},
    or the subcomplex Perm(K) attached to a simplicial complex)."""

    def __init__(self, m: int, faces, source: SimplicialComplex | None = None):
        self.m = m
        self.source = source
        self.by_dim = {}
        for f in faces:
            self.by_dim.setdefault(f.dim, []).append(f)
        for fs in self.by_dim.values():
            fs.sort(key=lambda f: f.blocks)
        self._face_set = {f for fs in self.by_dim.values() for f in fs}

    def __contains__(self, f: PartitionFace) -> bool:
        return f in self._face_set

    def __len__(self):
        return len(self._face_set)

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
    return PermComplex(m, all_faces(m))


def build_perm_complex(K: SimplicialComplex) -> PermComplex:
    """Perm(K): faces whose every block is a simplex of K."""
    faces = [PartitionFace(K.m, blocks)
             for blocks in ordered_partitions(range(1, K.m + 1),
                                              block_ok=lambda b: b in K.simplices)]
    return PermComplex(K.m, faces, source=K)


def build_perm_complex_C(K: SimplicialComplex) -> PermComplex:
    """The doubled variant on [2m] modelling the complex arrangement.

    Labels 1..m are the original indices, m+1..2m their primed copies.  A
    face of Perm^{2m-1} is removed iff some minimal nonface I of K has I
    inside one block and I' inside a (possibly different) block; checking
    minimal nonfaces is equivalent to checking all nonfaces.
    """
    m = K.m
    nonfaces = [frozenset(s) for s in minimal_nonfaces(K)]
    primed = [frozenset(i + m for i in s) for s in nonfaces]

    def keep(blocks) -> bool:
        block_sets = [frozenset(b) for b in blocks]
        for I, Ip in zip(nonfaces, primed):
            if any(I <= b for b in block_sets) and any(Ip <= b for b in block_sets):
                return False
        return True

    faces = [PartitionFace(2 * m, blocks)
             for blocks in ordered_partitions(range(1, 2 * m + 1))
             if keep(blocks)]
    return PermComplex(2 * m, faces, source=K)


def vertex_coordinates(F: PartitionFace) -> tuple:
    """Coordinates of a vertex: the element of U_j gets value j (earlier
    blocks receive the smaller values)."""
    if F.dim != 0:
        raise ValueError(f"{F} is not a vertex")
    coords = [0] * F.m
    for j, block in enumerate(F.blocks, start=1):
        coords[block[0] - 1] = j
    return tuple(coords)


def barycenter(F: PartitionFace) -> tuple:
    """Average of the vertices of F, as exact rationals.

    Elements of block U_j share the value offset_j + (|U_j| + 1)/2 where
    offset_j counts elements of earlier blocks.
    """
    coords = [Fraction(0)] * F.m
    offset = 0
    for block in F.blocks:
        value = offset + Fraction(len(block) + 1, 2)
        for i in block:
            coords[i - 1] = value
        offset += len(block)
    return tuple(coords)


def face_vertices(F: PartitionFace) -> list:
    """All vertex faces refining F."""
    result = []
    for orderings in itertools.product(
            *(itertools.permutations(b) for b in F.blocks)):
        blocks = tuple((i,) for ordering in orderings for i in ordering)
        result.append(PartitionFace(F.m, blocks))
    return result


def face_to_json(F: PartitionFace) -> list:
    return [list(b) for b in F.blocks]


def face_from_json(data, m: int | None = None) -> PartitionFace:
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
    barycenters of all faces (as "p/q" strings)."""

    def frac(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    vertices = [{"face": face_to_json(v), "coords": list(vertex_coordinates(v))}
                for v in X.faces(0)]
    faces = [{"face": face_to_json(f), "dim": f.dim,
              "barycenter": [frac(c) for c in barycenter(f)]}
             for f in X.all()]
    return {"m": X.m, "vertices": vertices, "faces": faces}
