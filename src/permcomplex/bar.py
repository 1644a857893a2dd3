"""Exterior Stanley-Reisner algebra and its reduced bar construction.

Only the multidegree-(1,...,1) component is ever materialized: its words
in bar degree -n are exactly the ordered partitions of [m] into n
simplices of K, mirroring the faces of the permutohedral complex.  A word
[X_1|...|X_n], with X_j the exterior monomial on the j-th support, is its
tuple of sorted support tuples, so the dual of a face F and its word are
the same block tuple, and `phi_inverse` only checks that a word's letters
partition [m].

`component_1_1` lists every word.  `tor_ranks` eliminates only the
critical words of the last-element matching of Perm(K): the same pairs,
with the roles flipped, since a merge lowers the bar degree.  A word
with m in a letter of two or more is paired with the word one degree up
that splits {m} off, and m's letter moves strictly right along every
gradient path, so the matching is acyclic.  The Morse boundary follows
`bar_differential`, never the cellular boundary, so the bar route stays
a check on the cellular one, and `homology` checks d o d on the Morse
complex it eliminates.
"""

from __future__ import annotations

from .chains import FormalChain
from .homology import ChainComplexData, HomologySummary, complex_from_boundary, homology
from .permutohedron import face, last_element_matching, partitions_by_count, shuffle_sign
from .simplicial import SimplicialComplex


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


def bar_differential(w: tuple, K: SimplicialComplex) -> FormalChain:
    """Merge adjacent letters of the word w with bar signs; the terms are
    plain letter tuples.

    Implements d = -sum_i [a_1-bar|...|(a_i-bar)a_{i+1}|...|a_n], where
    a-bar = (-1)^(deg a + 1) a.  deg x_i = 1, so even-degree letters do
    flip sign under the bar.
    """
    result = FormalChain()
    bar_sign = 1  # product of (-1)^(deg a_j + 1) over j <= i
    for i in range(len(w) - 1):
        bar_sign *= -1 if (len(w[i]) + 1) % 2 else 1
        product = monomial_product(w[i], w[i + 1], K)
        if product is None:
            continue
        sign, support = product
        result.add_term(w[:i] + (support,) + w[i + 2:], -bar_sign * sign)
    return result


def _words_by_count(K: SimplicialComplex) -> dict:
    """{n: the letter tuples of bar degree -n}, each list in lexicographic
    order."""
    return partitions_by_count(range(1, K.m + 1), K.simplices.__contains__)


def component_words(K: SimplicialComplex, n: int) -> list:
    """Basis of the (1,...,1) component in bar degree -n: ordered
    partitions of [m] into n simplices of K, as letter tuples."""
    return _words_by_count(K).get(n, [])


def component_1_1(K: SimplicialComplex) -> ChainComplexData:
    """Chain complex of the (1,...,1) component.

    Graded here by the number of letters n (so the container differential
    lowers the degree); bar degree is -n.  The words of every degree come
    from one enumeration.
    """
    by_count = _words_by_count(K)
    cells = {n: by_count.get(n, []) for n in range(1, K.m + 1)}
    return complex_from_boundary(cells, lambda w: bar_differential(w, K))


def phi_inverse(w: tuple, m: int) -> tuple:
    """The face whose blocks are the letters of w, checked: the dual of
    F(U_1|...|U_n) is the word whose j-th letter is the monomial on U_j,
    one block tuple.  ValueError unless the letters are nonempty and
    partition [m] (a bar word's letters need not)."""
    return face(m, *w)


def tor_ranks(K: SimplicialComplex, coefficients="Z") -> HomologySummary:
    """Tor of the exterior Stanley-Reisner algebra in multidegree
    (1,...,1), keyed by bar degree -n: the homology of the Morse complex
    of `component_1_1` under the last-element matching, its roles flipped.

    From a word x = (..., B, C, ...) with m in B, a gradient path goes up
    to y = (..., B \\ {m}, {m}, C, ...) and down to a merge of y other
    than x.  Only the merge of {m} with C holds m in a letter of two or
    more again, one letter further right; every other merge is critical
    or paired with a word one degree down, and the path ends there.
    """
    words, partner = last_element_matching(K)

    def flipped(w):
        pair = partner(w)
        return pair and (pair[0], not pair[1])

    C = complex_from_boundary({K.m - d: cells for d, cells in words.items()},
                              lambda w: bar_differential(w, K), flipped)
    summary = homology(C, coefficients)
    return HomologySummary({-n: v for n, v in summary.data.items()})
