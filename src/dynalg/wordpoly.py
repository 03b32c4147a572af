"""Finite sums of words with coefficients, kept in normal form.

The semicrossed, free-product and edge-word algebras are all spanned by
words, multiply by concatenating them, and differ only in the
coefficient ring, the context that validates words (a system, a block
signature, or none) and, for the semicrossed product, the covariance
rule that moves a left coefficient past the right word.  A subclass is
a dataclass with a ``terms`` field beside its context fields, and its
``make`` validates words and coefficients from outside.  The kernel
builds every result itself, over the operand's context: words
concatenated or selected from valid words are valid, so it only drops
zero (falsy) coefficients.  Thus ``terms`` never holds a zero, and equal
elements have equal term maps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Hashable, Iterable


class WordPoly:
    """Normal-form arithmetic on ``terms``, a map from words to coefficients."""

    terms: dict[tuple, Any]

    def _like(self, terms: dict[tuple, Any]) -> "WordPoly":
        """The element with these terms, zeros dropped, over the same context."""
        return replace(self, terms={w: c for w, c in terms.items() if c})

    def _past(self, coeff: Any, word: tuple) -> Any:
        """The coefficient c' with c * word = word * c'; free algebras keep c."""
        return coeff

    def _check(self, other: "WordPoly") -> None:
        # Two contexts agree exactly when their zero elements do.
        if self._like({}) != other._like({}):
            raise ValueError(f"{type(self).__name__} operands live over different contexts")

    def __hash__(self) -> int:
        # Dataclass subclasses assign this explicitly, or they would hash the dict.
        return hash(frozenset(self.terms.items()))

    def _collect(self, pairs: Iterable[tuple[tuple, Any]]) -> "WordPoly":
        """Sum the coefficients of equal words."""
        out: dict[tuple, Any] = {}
        for word, coeff in pairs:
            out[word] = out[word] + coeff if word in out else coeff
        return self._like(out)

    def __add__(self, other: "WordPoly") -> "WordPoly":
        self._check(other)
        return self._collect(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "WordPoly":
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "WordPoly") -> "WordPoly":
        return self + (-other)

    def __mul__(self, other: "WordPoly") -> "WordPoly":
        """Bilinear extension of (v c)(w d) = vw (c past w) d."""
        self._check(other)
        return self._collect(
            (v + w, self._past(c, w) * d)
            for v, c in self.terms.items()
            for w, d in other.terms.items()
        )

    def scale(self, value) -> "WordPoly":
        return self._like({w: c * value for w, c in self.terms.items()})

    @property
    def degree(self) -> int:
        """Length of the longest word with a surviving coefficient; 0 if empty."""
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms


def reweight_letters(p: WordPoly, weight: Callable[[Hashable], Any]) -> WordPoly:
    """Scale each term by the product of ``weight`` over its word's letters."""
    return p._like({w: c * math.prod(map(weight, w)) for w, c in p.terms.items()})


def fourier_component(p: WordPoly, k: int) -> WordPoly:
    """The part supported on words of length exactly k."""
    if k < 0:
        raise ValueError("component degree must be nonnegative")
    return p._like({w: c for w, c in p.terms.items() if len(w) == k})


def cesaro_mean(p: WordPoly, k: int) -> WordPoly:
    """Fejer-weighted partial sum: components of length i scaled by 1 - i/k."""
    if k < 1:
        raise ValueError("Cesaro order must be at least 1")
    return p._like(
        {w: c * Fraction(k - len(w), k) for w, c in p.terms.items() if len(w) < k}
    )
