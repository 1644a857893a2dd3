"""Exterior Stanley-Reisner algebra and its reduced bar construction.

Only the multidegree-(1,...,1) component is ever materialized: its words
in bar degree -n are exactly the ordered partitions of [m] into n
simplices of K, mirroring the faces of the permutohedral complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import FormalChain
from .homology import ChainComplexData, HomologySummary, complex_from_boundary, homology
from .permutohedron import PartitionFace, face, partitions_by_count, shuffle_sign
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class BarWord:
    """[X_1|...|X_n] with X_j the exterior monomial on the j-th support."""

    m: int
    letters: tuple  # tuple of sorted support tuples, each nonempty

    def __post_init__(self):
        if any(not s for s in self.letters):
            raise ValueError("bar letters must be augmentation-ideal elements")

    @property
    def bar_degree(self) -> int:
        return -len(self.letters)

    def __repr__(self):
        return "[" + "|".join(
            "".join(f"x{i}" for i in s) for s in self.letters) + "]"


def monomial_product(X, Y, K: SimplicialComplex):
    """Product of square-free exterior monomials in the Stanley-Reisner
    quotient: (sign, support) or None when the product is zero."""
    X, Y = tuple(X), tuple(Y)
    if set(X) & set(Y):
        return None
    union = tuple(sorted(X + Y))
    if union not in K.simplices:
        return None
    return shuffle_sign(X, Y), union


def bar_differential(w: BarWord, K: SimplicialComplex) -> FormalChain:
    """Merge adjacent letters with bar signs.

    Implements d = -sum_i [a_1-bar|...|(a_i-bar)a_{i+1}|...|a_n], where
    a-bar = (-1)^(deg a + 1) a.  deg x_i = 1, so even-degree letters do
    flip sign under the bar.
    """
    result = FormalChain()
    n = len(w.letters)
    bar_sign = 1  # product of (-1)^(deg a_j + 1) over j <= i
    for i in range(n - 1):
        bar_sign *= -1 if (len(w.letters[i]) + 1) % 2 else 1
        product = monomial_product(w.letters[i], w.letters[i + 1], K)
        if product is None:
            continue
        sign, support = product
        letters = w.letters[:i] + (support,) + w.letters[i + 2:]
        result.add_term(BarWord(w.m, letters), -bar_sign * sign)
    return result


def _words_by_count(K: SimplicialComplex) -> dict:
    """{n: the letter tuples of bar degree -n}, each list in lexicographic
    order."""
    return partitions_by_count(range(1, K.m + 1), K.simplices.__contains__)


def component_words(K: SimplicialComplex, n: int) -> list:
    """Basis of the (1,...,1) component in bar degree -n: ordered
    partitions of [m] into n simplices of K."""
    return [BarWord(K.m, letters) for letters in _words_by_count(K).get(n, [])]


def component_1_1(K: SimplicialComplex) -> ChainComplexData:
    """Chain complex of the (1,...,1) component.

    Graded here by the number of letters n (so the container differential
    lowers the degree); bar degree is -n.  The words of every degree come
    from one enumeration.
    """
    by_count = _words_by_count(K)
    cells = {n: [BarWord(K.m, letters) for letters in by_count.get(n, [])]
             for n in range(1, K.m + 1)}
    return complex_from_boundary(cells, lambda w: bar_differential(w, K))


def phi(F: PartitionFace) -> BarWord:
    """Basis bijection: the dual of F(U_1|...|U_n) goes to the word whose
    j-th letter is the monomial supported on U_j."""
    return BarWord(F.m, F)


def phi_inverse(w: BarWord) -> PartitionFace:
    """The face whose blocks are the letters of w; ValueError unless they
    partition [m] (a bar word's letters need not)."""
    return face(w.m, *w.letters)


def tor_ranks(K: SimplicialComplex, coefficients="Z") -> HomologySummary:
    """Tor of the exterior Stanley-Reisner algebra in multidegree
    (1,...,1), keyed by bar degree -n."""
    summary = homology(component_1_1(K), coefficients)
    return HomologySummary({-n: v for n, v in summary.data.items()})
