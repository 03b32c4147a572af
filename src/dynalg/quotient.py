"""Finite matrix quotients of symbolic elements and entry signatures.

Compressing a symbolic element to a finite subset of points yields a
square matrix indexed by the subset, with rows for targets and columns
for sources.  Matrix entries are noncommutative polynomials in free
abstract generators, one per edge (x, colour) -> y of the subset's
transition graph.  A term s_w f is compressed by walking w from each
source x, rightmost letter first: if the walk stays inside the subset
it adds f(x) at (end, x) on the word of edges it took, and if it leaves
the subset the term contributes nothing at x.  So a function
coefficient lands on the diagonal, a colour generator lands on the
edges with zero columns wherever the map leaves the subset, and
compression is multiplicative: the edge words record exactly which
paths survive.

The `entry signature` of a subset is the multiset of in-degrees per
(colour, target vertex) of its transition graph.  Equal signatures are
necessary for the compressions of two systems to correspond under any
partition-style matching of points, which is what makes the per-point
signature a sound starting colour for the partition search's colour
refinement and a cheap separating invariant in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .dynsys import FiniteSystem, SubSystem, check_point, colored_graph, restrict
from .scalars import ONE, RationalComplex
from .wordpoly import WordPoly


class EdgeGenerator(NamedTuple):
    """One abstract generator per defined entry (x, colour) -> y."""

    source: int
    target: int
    colour: int


EdgeWord = tuple[EdgeGenerator, ...]


@dataclass(frozen=True)
class FreeEdgePoly(WordPoly):
    """Finitely supported map from edge words to exact scalars."""

    terms: dict[EdgeWord, RationalComplex]

    __hash__ = WordPoly.__hash__

    @staticmethod
    def make(terms: dict[EdgeWord, RationalComplex]) -> "FreeEdgePoly":
        return FreeEdgePoly({w: c for w, c in terms.items() if not c.is_zero()})

    @staticmethod
    def zero() -> "FreeEdgePoly":
        return FreeEdgePoly({})

    @staticmethod
    def scalar(value: RationalComplex) -> "FreeEdgePoly":
        return FreeEdgePoly.make({(): value})

    @staticmethod
    def generator(edge: EdgeGenerator) -> "FreeEdgePoly":
        return FreeEdgePoly({(edge,): ONE})


@dataclass(frozen=True)
class QuotientMatrix:
    """Square matrix of edge polynomials over the points of a subset.

    ``entries[yi][xi]`` is the (points[yi], points[xi]) entry, i.e. rows
    are targets and columns are sources.
    """

    points: tuple[int, ...]
    entries: tuple[tuple[FreeEdgePoly, ...], ...]

    def entry(self, target: int, source: int) -> FreeEdgePoly:
        return self.entries[self.points.index(target)][self.points.index(source)]

    def __add__(self, other: "QuotientMatrix") -> "QuotientMatrix":
        self._check(other)
        n = len(self.points)
        return QuotientMatrix(
            self.points,
            tuple(
                tuple(self.entries[y][x] + other.entries[y][x] for x in range(n))
                for y in range(n)
            ),
        )

    def __matmul__(self, other: "QuotientMatrix") -> "QuotientMatrix":
        self._check(other)
        n = len(self.points)
        rows = []
        for y in range(n):
            row = []
            for x in range(n):
                acc = FreeEdgePoly.zero()
                for z in range(n):
                    if self.entries[y][z].is_zero() or other.entries[z][x].is_zero():
                        continue
                    acc = acc + self.entries[y][z] * other.entries[z][x]
                row.append(acc)
            rows.append(tuple(row))
        return QuotientMatrix(self.points, tuple(rows))

    def _check(self, other: "QuotientMatrix") -> None:
        if self.points != other.points:
            raise ValueError("matrices over different point sets")

    def column_is_zero(self, source: int) -> bool:
        xi = self.points.index(source)
        return all(row[xi].is_zero() for row in self.entries)


def quotient_map(sub: SubSystem, element) -> QuotientMatrix:
    """Compress a symbolic element to the subset.

    ``element`` is a normal-form polynomial over ``sub.parent`` (see
    :mod:`dynalg.semicrossed`).  Each term s_w f is walked from every
    source x of the subset with f(x) != 0, rightmost letter first; a
    walk that stays inside the subset adds f(x) at (end, x) on the edge
    word of its steps, outermost edge first.
    """
    if element.system != sub.parent:
        raise ValueError("element lives over a different system")
    tables = sub.parent.tables
    inside = set(sub.points)
    cells: dict[tuple[int, int], dict[EdgeWord, RationalComplex]] = {}
    for word, coeff in element.terms.items():
        for x in sub.points:
            value = coeff.values[x]
            if value.is_zero():
                continue
            y, edges = x, []
            for letter in reversed(word):
                z = tables[letter][y]
                if z not in inside:
                    break
                edges.append(EdgeGenerator(y, z, letter))
                y = z
            else:
                # The edge word fixes both the letters and the source, so
                # no two (term, source) pairs land on the same word.
                cells.setdefault((y, x), {})[tuple(reversed(edges))] = value
    return QuotientMatrix(
        sub.points,
        tuple(
            tuple(FreeEdgePoly.make(cells.get((y, x), {})) for x in sub.points)
            for y in sub.points
        ),
    )


EntrySignature = tuple[int, ...]


def entry_signature(sub: SubSystem) -> EntrySignature:
    """Multiset (as a sorted tuple) of in-degrees per (colour, target)."""
    graph = colored_graph(sub)
    counts: dict[tuple[int, int], int] = {}
    for _, target, colour in graph.edges:
        counts[(colour, target)] = counts.get((colour, target), 0) + 1
    return tuple(sorted(counts.values()))


def local_signature(sys: FiniteSystem, x: int) -> EntrySignature:
    """Entry signature of the one-step neighbourhood {x} u {images of x}."""
    neighbourhood = {check_point(sys, x)} | {sys.tables[i][x] for i in range(sys.arity)}
    return entry_signature(restrict(sys, neighbourhood))


def signatures_equivalent(s1: Iterable[int], s2: Iterable[int]) -> bool:
    """Multiset equality of two signatures."""
    return sorted(s1) == sorted(s2)
