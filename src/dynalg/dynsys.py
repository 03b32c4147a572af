"""Finite multivariable dynamical systems and their word dynamics.

A system is a finite point set {0, ..., size-1} together with ``arity``
total self-maps, indexed by "colours" 0..arity-1.  Words over the
colours act by composition with the *rightmost letter applied first*:
the word (i, j) sends x to tables[i][tables[j][x]].  That convention is
fixed here once; the covariance rewriting in :mod:`dynalg.semicrossed`
depends on it.

Restricting a system to a subset of its points yields a sub-system
whose maps are partial: colour i is defined at x exactly when the image
stays inside the subset.  The defined entries of a sub-system form an
edge-coloured directed graph, the combinatorial skeleton used by the
quotient and representation layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]
Edge = tuple[int, int, int]  # (source, target, colour)


def _is_int(value: object) -> bool:
    """An integer proper; bool is an int subclass but never a count or a point."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FiniteSystem:
    """A finite point set with ``arity`` total self-maps.

    ``tables[i][x]`` is the image of point x under map i.  Instances are
    immutable and validated on construction.
    """

    size: int
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(tuple(t) for t in self.tables))
        if not _is_int(self.size):
            raise ValueError(f"size {self.size!r} is not an integer")
        if self.size < 1:
            raise ValueError("a system needs at least one point")
        if len(self.tables) < 1:
            raise ValueError("a system needs at least one map")
        for i, table in enumerate(self.tables):
            if len(table) != self.size:
                raise ValueError(
                    f"map {i} has {len(table)} entries, expected {self.size}"
                )
            for x, y in enumerate(table):
                if not _is_int(y):
                    raise ValueError(f"map {i} sends {x} to {y!r}, which is not a point")
                if not (0 <= y < self.size):
                    raise ValueError(f"map {i} sends {x} to {y}, outside 0..{self.size - 1}")

    @property
    def arity(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class SubSystem:
    """A subset of a system's points, sorted; its maps are the parent's.

    Map i is defined at a point x of the subset exactly when
    ``parent.tables[i][x]`` lies in the subset too.  Build one with
    :func:`restrict`, which validates and sorts the points.
    """

    parent: FiniteSystem
    points: tuple[int, ...]

    @property
    def arity(self) -> int:
        return self.parent.arity


@dataclass(frozen=True)
class EdgeColoredGraph:
    """Directed graph with one colour class of edges per map.

    Each (colour, source) pair carries at most one edge, because the
    maps are partial functions.  Edges are kept sorted by (colour,
    source) so downstream constructions are deterministic.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    colours: int

    def in_edges(self, vertex: int, colour: Optional[int] = None) -> tuple[Edge, ...]:
        return tuple(
            e for e in self.edges if e[1] == vertex and (colour is None or e[2] == colour)
        )


def check_point(sys: FiniteSystem, x: object) -> int:
    """x itself when it is an int (not a bool) naming a point; else ValueError."""
    if not (_is_int(x) and 0 <= x < sys.size):
        raise ValueError(f"point {x!r} outside 0..{sys.size - 1}")
    return x


def check_colour(sys: FiniteSystem, colour: object) -> int:
    """colour itself when it is an int (not a bool) naming a map; else ValueError."""
    if not (_is_int(colour) and 0 <= colour < sys.arity):
        raise ValueError(f"colour {colour!r} outside 0..{sys.arity - 1}")
    return colour


def validate_word(sys: FiniteSystem, word: Sequence[int]) -> Word:
    w = tuple(word)
    for letter in w:
        check_colour(sys, letter)
    return w


def evaluate_word(sys: FiniteSystem, word: Sequence[int], x: int) -> int:
    """Apply the composite map of ``word`` to x, rightmost letter first.

    The empty word is the identity.
    """
    w = validate_word(sys, word)
    check_point(sys, x)
    for letter in reversed(w):
        x = sys.tables[letter][x]
    return x


def map_range(sys: FiniteSystem, colour: int) -> frozenset[int]:
    """The set of values taken by map ``colour``."""
    return frozenset(sys.tables[check_colour(sys, colour)])


def ranges_pairwise_disjoint(
    sys: FiniteSystem,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Decide whether all map ranges are pairwise disjoint.

    Returns (True, None) or (False, (i, j, point)) with the
    lexicographically least overlap witness.
    """
    ranges = [map_range(sys, i) for i in range(sys.arity)]
    for i, j in itertools.combinations(range(sys.arity), 2):
        common = ranges[i] & ranges[j]
        if common:
            return False, (i, j, min(common))
    return True, None


def equivalence_classes(sys: FiniteSystem) -> tuple[frozenset[int], ...]:
    """Partition the points by the transitive closure of image collisions.

    Points x and z are merged whenever some pair of maps sends them to
    the same point; the result is the coarsest partition fixed under
    taking unions of map preimages of map images of a class.  Classes
    come back sorted by their least element.
    """
    parent = list(range(sys.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # All points hitting a common value under any pair of maps collapse.
    hitters: dict[int, list[int]] = {}
    for table in sys.tables:
        for x, y in enumerate(table):
            hitters.setdefault(y, []).append(x)
    for group in hitters.values():
        for x in group[1:]:
            union(group[0], x)

    classes: dict[int, set[int]] = {}
    for x in range(sys.size):
        classes.setdefault(find(x), set()).add(x)
    return tuple(frozenset(c) for c in sorted(classes.values(), key=min))


def restrict(sys: FiniteSystem, subset: Iterable[int]) -> SubSystem:
    """Restrict the system to a subset, with maps defined where they stay inside."""
    pts = tuple(sorted({check_point(sys, x) for x in subset}))
    if not pts:
        raise ValueError("cannot restrict to an empty subset")
    return SubSystem(parent=sys, points=pts)


def full_subsystem(sys: FiniteSystem) -> SubSystem:
    return restrict(sys, range(sys.size))


def colored_graph(sub: SubSystem) -> EdgeColoredGraph:
    """The transition graph of a sub-system: one edge per defined entry.

    The points are sorted, so the edges come out in (colour, source) order.
    """
    inside = set(sub.points)
    edges = tuple(
        (x, y, colour)
        for colour, table in enumerate(sub.parent.tables)
        for x in sub.points
        if (y := table[x]) in inside
    )
    return EdgeColoredGraph(vertices=sub.points, edges=edges, colours=sub.arity)
