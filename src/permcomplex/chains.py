"""Integer formal sums of hashable basis labels.

Labels can be partition faces, cube cells, bar words, or (left, right)
tensor pairs of those; the chain itself is agnostic.
"""

from __future__ import annotations


class FormalChain:
    """Sparse integer combination of basis labels; zero coefficients are
    never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for label, coeff in dict(terms).items():
                if coeff:
                    self.terms[label] = coeff

    @classmethod
    def basis(cls, label, coeff=1):
        return cls({label: coeff})

    def add_term(self, label, coeff):
        """In-place accumulation; used by the boundary/diagonal builders."""
        new = self.terms.get(label, 0) + coeff
        if new:
            self.terms[label] = new
        else:
            self.terms.pop(label, None)

    def __add__(self, other):
        result = FormalChain(self.terms)
        for label, coeff in other.terms.items():
            result.add_term(label, coeff)
        return result

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar: int):
        return FormalChain({l: scalar * c for l, c in self.terms.items()})

    def __neg__(self):
        return -1 * self

    def __eq__(self, other):
        return isinstance(other, FormalChain) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, label):
        return self.terms.get(label, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for label, coeff in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            sign = "+" if coeff > 0 else "-"
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            parts.append(f"{sign} {mag}{label}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

