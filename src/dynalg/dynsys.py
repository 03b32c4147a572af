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

The `entry signature` of a subset is the multiset of in-degrees per
(colour, target vertex) of its transition graph, counted straight off
the tables.  Equal signatures are necessary for the compressions of two
systems to correspond under any partition-style matching of points,
which is what makes the per-point signature a sound colour for the
partition search's colour refinement and a cheap separating invariant
in its own right.  :func:`local_signatures` gives every point's
signature in one pass over the tables; the partition decider calls it
as the third stage of its refinement, once the two systems' in-degrees
and then their :func:`fibre_sizes` (the sorted sizes of the fibres
through each point, which every partition witness also keeps) balance.

Every int that must lie in a range (a size, a point, a colour, and
elsewhere a block size, a degree, an order or a depth) is read by one
rule, :func:`_int_in`, which names the value and its range when it
refuses one, an int of more than 20 digits by its digit count.  Every set
of points (the subset of :func:`restrict`, the support of an indicator) is
read by that int rule and then by one rule, :func:`_distinct`, which
refuses a point listed twice, as it refuses a repeated vertex of an
:class:`EdgeColoredGraph`.
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


def _int_in(value: object, what: str, low: int, high: Optional[int] = None) -> int:
    """value itself when it is an int (not a bool) with low <= value, and
    value < high when high is given; else ValueError naming what, the value
    and the range."""
    # a plain int spares the call to _is_int
    if (type(value) is int or _is_int(value)) and low <= value and (high is None or value < high):
        return value
    span = f">= {low}" if high is None else f"in {low}..{high - 1}"
    raise ValueError(f"{what} must be an int {span}, got {_shown(value)}")


def _shown(value: object) -> str:
    """repr(value), but an int of more than 20 digits by its digit count, as
    ``<401-digit int>`` or ``-<5001-digit int>``: the whole number would make
    a message of hundreds of characters, and past the interpreter's integer
    conversion limit it cannot be printed at all."""
    if _is_int(value) and abs(value) >= 10**20:
        from decimal import Decimal  # counts the digits without printing them
        return f"{'-' if value < 0 else ''}<{Decimal(value).adjusted() + 1}-digit int>"
    return repr(value)


def _is_permutation(entries: object, size: int) -> bool:
    """A tuple or list of ints proper (no bools or floats) listing 0..size-1
    once each; a dict, a range or any other object is none."""
    ints = isinstance(entries, (tuple, list)) and len(entries) == size and all(map(_is_int, entries))
    return ints and sorted(entries) == list(range(size))


def _distinct(items: Iterable[int], what: str) -> set[int]:
    """The items as a set; ValueError naming the first one listed twice."""
    seen: set[int] = set()
    for x in items:
        if x in seen:
            raise ValueError(f"{what} {x} is listed twice")
        seen.add(x)
    return seen


_INT = {int}


@dataclass(frozen=True)
class FiniteSystem:
    """A finite point set with ``arity`` total self-maps.

    ``tables[i][x]`` is the image of point x under map i.  Instances are
    immutable and validated on construction.
    """

    size: int
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size, tables = self.size, tuple(map(tuple, self.tables))
        object.__setattr__(self, "tables", tables)
        _int_in(size, "size", 1)
        if not tables:
            raise ValueError("a system needs at least one map")
        for i, table in enumerate(tables):
            if len(table) != size:
                raise ValueError(f"map {i} has {len(table)} entries; expected {size} entries")
            # one pass over the entry types, then the range
            if {*map(type, table)} == _INT and 0 <= min(table) and max(table) < size:
                continue
            # Name the first bad entry; int subclasses other than bool pass here.
            for x, y in enumerate(table):
                _int_in(y, f"image of {x} under map {i}", 0, size)

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
    source) so downstream constructions are deterministic.  The
    constructor stores the vertices and edges as tuples and checks that
    the vertices are distinct integers and that every edge joins two of
    them in a colour 0..colours-1; an edge may repeat.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    colours: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        _int_in(self.colours, "colours", 0)
        for v in self.vertices:
            if not (type(v) is int or _is_int(v)):
                raise ValueError(f"vertex {v!r} is not an integer")
        seen = _distinct(self.vertices, "vertex")
        colours = range(self.colours)
        for edge in self.edges:
            if not (type(edge) is tuple and len(edge) == 3):
                raise ValueError(f"edge {edge!r} is not a (source, target, colour) triple")
            source, target, colour = edge
            if type(source) is type(target) is type(colour) is int:
                if source in seen and target in seen and colour in colours:
                    continue
            # Name the first bad entry; int subclasses other than bool pass here.
            for end in (source, target):
                if not (_is_int(end) and end in seen):
                    raise ValueError(f"edge {edge!r} has {end!r}, which is not a vertex")
            _int_in(colour, f"colour of the edge from {source} to {target}", 0, self.colours)


def check_point(sys: FiniteSystem, x: object) -> int:
    """x itself when it is an int (not a bool) naming a point; else ValueError."""
    return _int_in(x, "point", 0, sys.size)


def check_colour(sys: FiniteSystem, colour: object) -> int:
    """colour itself when it is an int (not a bool) naming a map; else ValueError."""
    return _int_in(colour, "colour", 0, sys.arity)


def validate_word(sys: FiniteSystem, word: Sequence[int]) -> Word:
    w = tuple(word)
    for letter in w:
        _int_in(letter, "colour", 0, sys.arity)
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
    """Restrict the system to a subset of distinct points, with maps defined
    where they stay inside."""
    pts = tuple(sorted(_distinct([check_point(sys, x) for x in subset], "point")))
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


EntrySignature = tuple[int, ...]


def _signature(tables: Sequence[Sequence[int]], points: set[int]) -> EntrySignature:
    """Entry signature of a set of points, counted straight off the tables."""
    counts: list[int] = []
    for table in tables:
        indegree: dict[int, int] = {}
        for u in points:
            if (y := table[u]) in points:
                indegree[y] = indegree.get(y, 0) + 1
        counts += indegree.values()
    return tuple(sorted(counts))


def entry_signature(sub: SubSystem) -> EntrySignature:
    """Multiset (as a sorted tuple) of in-degrees per (colour, target)."""
    return _signature(sub.parent.tables, set(sub.points))


def local_signature(sys: FiniteSystem, x: int) -> EntrySignature:
    """Entry signature of the one-step neighbourhood {x} u {images of x}."""
    tables = sys.tables
    x = check_point(sys, x)
    return _signature(tables, {x, *[table[x] for table in tables]})


def local_signatures(system: FiniteSystem) -> list[EntrySignature]:
    """The local signature of every point, in point order, in one pass."""
    tables = system.tables
    return [_signature(tables, {x, *[table[x] for table in tables]}) for x in range(system.size)]


def fibre_sizes(system: FiniteSystem) -> list[tuple[int, ...]]:
    """For every point x, in point order, the sorted sizes of the fibres
    through x, one per map: the size of sigma_i^-1(sigma_i(x)) for each i.

    A partition witness maps each sigma_i-fibre of x onto a tau_j-fibre of
    gamma(x) (with j = alpha_x(i)), so it keeps these multisets.
    """
    columns = []
    for table in system.tables:
        count = [0] * system.size
        for y in table:
            count[y] += 1
        columns.append(map(count.__getitem__, table))
    return [tuple(sorted(sizes)) for sizes in zip(*columns)]


def signatures_equivalent(s1: Iterable[int], s2: Iterable[int]) -> bool:
    """Multiset equality of two signatures."""
    return sorted(s1) == sorted(s2)
