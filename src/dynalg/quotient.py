"""Finite matrix quotients of symbolic elements.

Compressing a symbolic element to a finite subset of points yields a
square matrix indexed by the subset, with rows for targets and columns
for sources.  Matrix entries are noncommutative polynomials in free
abstract generators, one per edge (x, colour) -> y of the subset's
transition graph.  A generator is the plain ``(source, target, colour)``
triple, the same edge that ``EdgeColoredGraph.edges`` holds, and an
edge word is a tuple of such triples, outermost edge first.  A term
s_w f is compressed by walking w from each source x, rightmost letter
first: if the walk stays inside the subset it adds f(x) at (end, x) on
the word of edges it took, and if it leaves the subset the term
contributes nothing at x.  So a function coefficient lands on the
diagonal, a colour generator lands on the edges with zero columns
wherever the map leaves the subset, and compression is multiplicative:
the edge words record exactly which paths survive.

The entry signatures of subsets and points, which count off a system's
tables and need none of this compression, live in :mod:`dynalg.dynsys`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynsys import Edge, SubSystem, _is_int
from .scalars import ONE, RationalComplex, RationalLike, _ZERO_T, _wrap
from .wordpoly import WordPoly


EdgeWord = tuple[Edge, ...]  # outermost edge first


@dataclass(frozen=True)
class FreeEdgePoly(WordPoly):
    """Finitely supported map from edge words to exact scalars."""

    terms: dict[EdgeWord, RationalComplex]

    __hash__ = WordPoly.__hash__

    @staticmethod
    def make(terms: dict[EdgeWord, RationalLike]) -> "FreeEdgePoly":
        """Validated terms: each word a tuple of ``(source, target, colour)``
        int triples, each coefficient read by ``RationalComplex.coerce``,
        zeros dropped."""
        clean: dict[EdgeWord, RationalComplex] = {}
        for word, coeff in terms.items():
            edges = type(word) is tuple and all(type(e) is tuple and len(e) == 3 for e in word)
            if not (edges and all(_is_int(v) for e in word for v in e)):
                raise ValueError(f"edge word {word!r} is not a tuple of (source, target, colour) int triples")
            c = RationalComplex.coerce(coeff)
            if not c.is_zero():
                clean[word] = c
        return FreeEdgePoly(clean)

    @staticmethod
    def zero() -> "FreeEdgePoly":
        return FreeEdgePoly({})

    @staticmethod
    def scalar(value: RationalLike) -> "FreeEdgePoly":
        return FreeEdgePoly.make({(): value})

    @staticmethod
    def generator(edge: Edge) -> "FreeEdgePoly":
        """The one-edge word, read by the rule of :meth:`make`."""
        return FreeEdgePoly.make({(edge,): ONE})


@dataclass(frozen=True)
class QuotientMatrix:
    """Square matrix of edge polynomials over the points of a subset.

    ``entries[yi][xi]`` is the (points[yi], points[xi]) entry, i.e. rows
    are targets and columns are sources.
    """

    points: tuple[int, ...]
    entries: tuple[tuple[FreeEdgePoly, ...], ...]

    def entry(self, target: int, source: int) -> FreeEdgePoly:
        return self.entries[self._index(target)][self._index(source)]

    def _index(self, point: object) -> int:
        """The row and column of a point of the subset; ValueError naming anything else."""
        if not (_is_int(point) and point in self.points):
            raise ValueError(f"point {point!r} is not in the subset {list(self.points)}")
        return self.points.index(point)

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
        xi = self._index(source)
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
        triples = coeff._triples
        for x in sub.points:
            value = triples[x]
            if value == _ZERO_T:
                continue
            y, edges = x, []
            for letter in reversed(word):
                z = tables[letter][y]
                if z not in inside:
                    break
                edges.append((y, z, letter))
                y = z
            else:
                # The edge word fixes both the letters and the source, so
                # no two (term, source) pairs land on the same word.
                cells.setdefault((y, x), {})[tuple(reversed(edges))] = _wrap(value)
    # Every word is a walk of the subset's edges and every value nonzero:
    # nothing for FreeEdgePoly.make to check.
    return QuotientMatrix(
        sub.points,
        tuple(
            tuple(FreeEdgePoly(cells.get((y, x), {})) for x in sub.points)
            for y in sub.points
        ),
    )
