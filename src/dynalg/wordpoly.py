"""Finite sums of words with coefficients, kept in normal form.

The semicrossed, free-product and edge-word algebras are all spanned by
words, multiply by concatenating them, and differ only in the
coefficient ring, the context that validates words (a system, a block
signature, or none) and, for the semicrossed product, the covariance
rule that moves a left coefficient past the right word.  A product
prepares the right operand once, through the hook ``_times``, as the map
from a left coefficient c to its products c' d with the right terms
(w, d), in order, where c w = w c'; free algebras keep c' = c and
multiply with ``operator.mul`` called from C, and the semicrossed
product walks each right word once.  So the kernel makes one call per
left term and, beyond the coefficient arithmetic, none per term pair.
Each pair is stored with one ``setdefault``; only a word met again is
summed, previous sum first, and stored a second time.  A subclass is a
dataclass with a ``terms`` field beside its context fields, which alone
decide whether two operands may be combined, and its ``make`` validates
words and coefficients from outside.  The kernel builds every result
itself, over the operand's context: words concatenated or selected from
valid words are valid, so it only drops zero (falsy) coefficients, and
keeps the dict it built when there are none.  Thus ``terms`` never holds
a zero, and equal elements have equal term maps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Any, Callable, Hashable, Iterable

from .dynsys import _int_in


class WordPoly:
    """Normal-form arithmetic on ``terms``, a map from words to coefficients."""

    terms: dict[tuple, Any]

    def _like(self, terms: dict[tuple, Any]) -> "WordPoly":
        """The element with these terms, zeros dropped, over the same context.

        ``terms`` is a dict the caller built for this result; it is kept,
        not copied, unless some coefficient is zero.
        """
        if not all(terms.values()):
            terms = {w: c for w, c in terms.items() if c}
        return replace(self, terms=terms)

    def _times(self, other: "WordPoly") -> Callable[[Any], Iterable[Any]]:
        """The map c -> (c' d for each term (w, d) of ``other``), where c w = w c'.

        The product prepares the right operand once; free algebras have
        c' = c.
        """
        right = tuple(other.terms.values())
        return lambda c: map(mul, repeat(c), right)

    def _check(self, other: "WordPoly") -> None:
        # Two contexts agree exactly when every field but the terms does.
        if type(other) is not type(self) or {**vars(self), "terms": None} != {**vars(other), "terms": None}:
            raise ValueError(f"{type(self).__name__} operands live over different contexts")

    def __hash__(self) -> int:
        # Dataclass subclasses assign this explicitly, or they would hash the dict.
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "WordPoly") -> "WordPoly":
        self._check(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out[word] + coeff if word in out else coeff
        return self._like(out)

    def __neg__(self) -> "WordPoly":
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "WordPoly") -> "WordPoly":
        return self + (-other)

    def __mul__(self, other: "WordPoly") -> "WordPoly":
        """Bilinear extension of (v c)(w d) = vw (c past w) d."""
        self._check(other)
        words, times = tuple(other.terms), self._times(other)
        out: dict[tuple, Any] = {}
        store = out.setdefault
        # Left terms outermost: float coefficients of equal words sum in the
        # order of the pair-by-pair test oracle, tests/oracles.py:pulled_product.
        for v, c in self.terms.items():
            for w, cd in zip(words, times(c)):
                vw = v + w
                # Each product is a new object or the shared zero scalar, which
                # is its own sum, so prev is cd only when cd was just stored.
                prev = store(vw, cd)
                if prev is not cd:
                    out[vw] = prev + cd
        return self._like(out)

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
    """The part supported on words of length exactly k, an int (not a bool) >= 0."""
    _int_in(k, "component degree", 0)
    return p._like({w: c for w, c in p.terms.items() if len(w) == k})


def cesaro_mean(p: WordPoly, k: int) -> WordPoly:
    """Fejer-weighted partial sum: components of length i scaled by 1 - i/k.

    The order k is an int (not a bool) of at least 1.
    """
    _int_in(k, "Cesaro order", 1)
    return p._like(
        {w: c * Fraction(k - len(w), k) for w, c in p.terms.items() if len(w) < k}
    )
