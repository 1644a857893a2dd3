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
gradient path, so the matching is acyclic.  `_bar_flow` follows a path
one letter at a time, taking at each step only the merges that can
matter, through `_merge`, the code of `bar_differential`.  It never
takes the cellular boundary, so the bar route stays a check on the
cellular one, and `homology` checks d o d on the Morse complex it
eliminates.
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
    union = tuple(sorted(X + Y))
    if union not in K.simplices:  # so is a union that repeats a vertex
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
        term = _merge(w, i, bar_sign, K)
        if term is not None:
            result.add_term(*term)
    return result


def _merge(w: tuple, i: int, bar_sign: int, K: SimplicialComplex):
    """The term (word, coefficient) of `bar_differential` that merges the
    letters i and i + 1 of w, or None when their product is zero;
    bar_sign is the product of (-1)^(deg a_j + 1) over j <= i."""
    product = monomial_product(w[i], w[i + 1], K)
    if product is None:
        return None
    sign, support = product
    return w[:i] + (support,) + w[i + 2:], -bar_sign * sign


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
    """
    words, partner, _ = last_element_matching(K)
    C = complex_from_boundary({K.m - d: cells for d, cells in words.items()},
                              lambda w: bar_differential(w, K), _bar_flow(K, partner))
    summary = homology(C, coefficients)
    return HomologySummary({-n: v for n, v in summary.data.items()})


def _bar_flow(K: SimplicialComplex, partner):
    """The gradient flow of the bar words under the last-element matching
    `partner` with its roles flipped, for `complex_from_boundary`: the
    (critical word, coefficient) pairs a word that is not critical
    reaches.

    A word that `partner` pairs with a merge pairs down, and flows to 0.
    A word z with m in a letter of two or more follows the bar step of
    `last_element_matching`: from its partner x = (..., A, B', {m}, C,
    ...), with a the coefficient of z in the differential of x, the merge
    of A and B' is a critical word reached with -a times its coefficient
    unless it pairs down, and the merge of {m} and C goes on with -a
    times its coefficient.  Only those three merges of x are taken.

    Nothing is memoised, because no path is followed twice.  A word (...,
    A, C u {m}, ...) is a term of the differential of one critical word,
    (..., A, {m}, C, ...), when A cannot take m or is not there, and
    otherwise a step of one path only, the one from (..., A u {m}, C,
    ...).
    """
    last = (K.m,)

    def flow(z):
        pair = partner(z)
        if pair is None:  # critical, but not a cell: the assembler says so
            return ((z, 1),)
        x, up = pair
        if up:  # z pairs down
            return ()
        reached = []
        coeff = 1
        k = x.index(last) - 1  # x = (..., A, B', {m}, C, ...) with B' letter k
        while True:
            # The bar sign over the letters before B' is in all three
            # merges, so it cancels from -a times either other one and is
            # left out; that of B' is in the merges of B' and of {m}, and
            # that of {m} is 1.
            sign = -1 if (len(x[k]) + 1) % 2 else 1
            a = _merge(x, k, sign, K)[1]
            if k:
                left = _merge(x, k - 1, 1, K)
                if left is not None and partner(left[0]) is None:
                    reached.append((left[0], -a * coeff * left[1]))
            right = _merge(x, k + 1, sign, K) if k + 2 < len(x) else None
            if right is None:
                return reached
            coeff *= -a * right[1]
            x = x[:k + 1] + (x[k + 2], last) + x[k + 3:]  # the partner of right
            k += 1

    return flow
