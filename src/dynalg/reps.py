"""Concrete finite-dimensional representations and the range-overlap test.

Two families of matrices are built here.

First-row representations: given a base point x and slots (x_j, c_j)
with sigma_{c_j}(x_j) = x, which :class:`NestRep` checks on
construction, functions act diagonally through their values at
(x, x_1, ..., x_m) and the colour generator s_k acts by the 0/1 matrix
whose first row marks the slots carrying colour k.  All images
live in the pattern algebra of matrices supported on the diagonal and
the first row.  With pairwise distinct slot colours every generator
image has norm 0 or 1; two slots sharing the base point under different
colours force the row norm of the generator tuple up to sqrt(2), which
is the numerical obstruction separating the row-contractive completion
from the unconstrained one.  That dichotomy drives
:func:`decide_tensor_vs_semicrossed`: the completions agree exactly
when the map ranges are pairwise disjoint, and on the disjoint side the
range indicators are the separating bump functions.  The row operator
of the generator tuple is zero off its first row, so its norm is
exactly that row's Euclidean norm, the square root of the slot count:
:meth:`NestRep.generator_row_norm` reads it without building a matrix,
and :func:`row_norm` gives the same value by a dense SVD.

Truncated path-space families: for an edge-coloured graph, the space
spanned by composable edge paths of length at most D (plus one vacuum
per vertex) carries a partial isometry per edge and a projection per
vertex.  A basis path is the plain pair ``(vertex, edges)``: ``edges``
is a tuple of the graph's ``(source, target, colour)`` triples,
outermost edge first, starting from ``vertex``, and a vacuum is
``(vertex, ())``.  Each edge operator is a partial map from basis
positions to basis positions; the defining relations are verified
exactly on these maps, on the stated subspaces, and the dense 0/1
matrices are views derived from them.  Truncation effects are confined
to length-D paths and reported, never silently dropped.

The basis is ordered by (length, edges, vertex).  Prefixing an edge e
keeps that order among paths ending where e starts, so each level is
built from the previous one, bucketed by range vertex, already in basis
order.  A family grades its basis by range vertex and outer edge, and
keeps each edge's image as a list of positions; the build records both
as it places the paths.  Building costs one path extension per basis
path, each a tuple of the path's length.  Checking a built family then
costs O(basis size) set work; on any other basis it first costs one
grading pass and one path lookup per edge extension.

Only the dense views load numpy, on their first call:
:meth:`NestRep.function_image`, :meth:`NestRep.generator_image`,
:func:`rep_apply`, :func:`row_norm` and :meth:`CKFamily.edge_operator`.
Everything else here is pure Python.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

from .dynsys import (
    Edge, EdgeColoredGraph, FiniteSystem, _int_in, check_colour, check_point, map_range,
    ranges_pairwise_disjoint,
)
from .matching import lex_least_injective
from .semicrossed import FunctionCoeff, SemicrossedElement, _size_differs

if TYPE_CHECKING:
    import numpy as np


class InvalidSlotError(ValueError):
    """A slot (point, colour) does not map onto the base point."""


@dataclass(frozen=True)
class NestRep:
    """A first-row representation at a base point with preimage slots.

    The base is read by :func:`check_point`, and each slot (p, c) by
    :func:`check_point` and :func:`check_colour` and must satisfy
    sigma_c(p) = base; any other slot raises :class:`InvalidSlotError`
    naming it.  The slots are stored as a tuple; colours may repeat.
    """

    system: FiniteSystem
    base: int
    slots: tuple[tuple[int, int], ...]  # (point, colour) with sigma_colour(point) = base

    def __post_init__(self) -> None:
        sys, base = self.system, check_point(self.system, self.base)
        slots = tuple(self.slots)
        for p, c in slots:
            try:
                check_point(sys, p)
                check_colour(sys, c)
            except ValueError as exc:
                raise InvalidSlotError(f"slot ({p!r}, {c!r}): {exc}") from None
            if sys.tables[c][p] != base:
                raise InvalidSlotError(
                    f"slot ({p}, {c}): map {c} sends {p} to {sys.tables[c][p]}, not {base}"
                )
        object.__setattr__(self, "slots", slots)

    @property
    def m(self) -> int:
        return len(self.slots)

    @property
    def dim(self) -> int:
        return len(self.slots) + 1

    @property
    def points(self) -> tuple[int, ...]:
        return (self.base,) + tuple(p for p, _ in self.slots)

    def function_image(self, f: FunctionCoeff) -> np.ndarray:
        import numpy as np

        if f.size != self.system.size:
            _size_differs(f, self.system)
        values = [complex(a / d, b / d) for a, b, d in map(f._triples.__getitem__, self.points)]
        return np.diag(np.array(values, dtype=complex))

    def generator_image(self, colour: int) -> np.ndarray:
        import numpy as np

        check_colour(self.system, colour)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, (_, c) in enumerate(self.slots):
            if c == colour:
                out[0, j + 1] = 1.0
        return out

    def generator_row_norm(self) -> float:
        """Row norm of the generator tuple (s_0, ..., s_{arity-1}), read off the first row.

        The row operator [s_0 ... s_{arity-1}] is zero off its first row,
        which holds one 1 per slot, so its largest singular value is
        exactly the square root of the slot count: what :func:`row_norm`
        of the generator images gives, without them.
        """
        return math.sqrt(len(self.slots))


def rep_apply(rep: NestRep, element: SemicrossedElement) -> np.ndarray:
    """Multiplicative linear extension of the generator and function images."""
    if element.system != rep.system:
        raise ValueError("element lives over a different system")
    import numpy as np

    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, coeff in element.terms.items():
        mat = rep.function_image(coeff)
        for letter in reversed(word):
            mat = rep.generator_image(letter) @ mat
        acc += mat
    return acc


def nest_rep_exists(
    sys: FiniteSystem, base: int, preimages: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """Assign pairwise distinct colours sending each listed point to the base.

    Returns the lexicographically least assignment (one colour per
    listed point) or None, by :func:`dynalg.matching.lex_least_injective`
    in polynomial time.
    """
    check_point(sys, base)
    options = []
    for p in preimages:
        check_point(sys, p)
        options.append([c for c in range(sys.arity) if sys.tables[c][p] == base])
    return lex_least_injective(options)


def row_norm(mats: Sequence[np.ndarray]) -> float:
    """Largest singular value of the horizontal concatenation [T_1 ... T_k], by a dense SVD.

    Each T_k must be a 2-D matrix of numbers read by
    :func:`dynalg.freeprod._as_array`; any other entry raises ValueError
    naming its index and shape.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    import numpy as np

    from .freeprod import _as_array

    mats = [_as_array(m, "matrix entry") for m in mats]
    for k, m in enumerate(mats):
        if m.ndim != 2:
            raise ValueError(f"entry {k} has shape {m.shape}, not that of a matrix")
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(f"row counts differ: {sorted(rows)}")
    return float(np.linalg.norm(np.hstack(mats), 2))


@dataclass(frozen=True)
class TensorSemicrossedDecision:
    """Outcome of the range-disjointness test with its witness."""

    isomorphic: bool
    bump_functions: Optional[tuple[FunctionCoeff, ...]]
    overlap: Optional[tuple[int, tuple[int, int], tuple[int, int]]]
    obstruction: Optional[NestRep]


def decide_tensor_vs_semicrossed(sys: FiniteSystem) -> TensorSemicrossedDecision:
    """Ranges pairwise disjoint: bump functions; otherwise: a sqrt(2) witness.

    On the affirmative side the indicator of each map's range is
    returned: the indicators are pairwise orthogonal and equal 1 on
    their range.  On the negative side an overlap point z together with
    preimages under two different colours is returned, plus the
    first-row representation at z whose generator tuple has row norm
    sqrt(2) even though each generator image is a contraction.
    """
    disjoint, witness = ranges_pairwise_disjoint(sys)
    if disjoint:
        bumps = tuple(
            FunctionCoeff.indicator(sys.size, map_range(sys, i))
            for i in range(sys.arity)
        )
        return TensorSemicrossedDecision(
            isomorphic=True, bump_functions=bumps, overlap=None, obstruction=None
        )
    i, j, z = witness
    x1 = min(x for x in range(sys.size) if sys.tables[i][x] == z)
    x2 = min(x for x in range(sys.size) if sys.tables[j][x] == z)
    rep = NestRep(sys, z, ((x1, i), (x2, j)))
    return TensorSemicrossedDecision(
        isomorphic=False,
        bump_functions=None,
        overlap=(z, (x1, i), (x2, j)),
        obstruction=rep,
    )


# A composable edge path (vertex, edges): edges outermost first from the
# source vertex, () for the vacuum at the vertex.
_Path = tuple[int, tuple[Edge, ...]]
# Per range vertex, its basis positions by outer edge (None for a vacuum),
# each list in basis order.
_Grading = dict[int, dict[Optional[Edge], list[int]]]
# Per graph edge e, the position of e.p for each tail p in turn (see
# CKFamily._tails); and per edge, the first e.p the basis lacks.
_Images = tuple[dict[Edge, list[int]], dict[Edge, _Path]]


@dataclass(frozen=True)
class CKFamily:
    """Edge partial isometries and vertex projections on truncated path space."""

    graph: EdgeColoredGraph
    depth: int
    basis: tuple[_Path, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _by_range(self) -> _Grading:
        """The basis graded by range vertex and outer edge, in one pass."""
        out: _Grading = {}
        for k, (vertex, edges) in enumerate(self.basis):
            outer = None
            if edges:
                outer = edges[0]
                vertex = outer[1]
            out.setdefault(vertex, {}).setdefault(outer, []).append(k)
        return out

    def _tails(self, vertex: int) -> list[int]:
        """The positions of the paths p that an edge leaving ``vertex`` extends to e.p:
        those with range ``vertex`` shorter than the depth, in basis order."""
        basis, depth = self.basis, self.depth
        ranged = chain.from_iterable(self._by_range.get(vertex, {}).values())
        return sorted(k for k in ranged if len(basis[k][1]) < depth)

    @cached_property
    def _images(self) -> _Images:
        """Every edge's image list, read off one pass per source vertex.

        Each source's tails are listed once and extended by each of its
        out-edges.  An edge whose image needs a path the basis lacks is
        recorded with the first such path, in the order of the tails,
        and its image list is left short.
        """
        images: dict[Edge, list[int]] = {e: [] for e in self.graph.edges}
        leaving: dict[int, list[Edge]] = {}
        for e in images:
            leaving.setdefault(e[0], []).append(e)
        basis = self.basis
        positions = {p: k for k, p in enumerate(basis)}
        missing: dict[Edge, _Path] = {}
        for source, out_edges in leaving.items():
            tails = [basis[k] for k in self._tails(source)]
            for e in out_edges:
                image = images[e]
                for vertex, path in tails:
                    j = positions.get((vertex, (e,) + path))
                    if j is not None:
                        image.append(j)
                    elif e not in missing:
                        missing[e] = (vertex, (e,) + path)
        return images, missing

    def edge_map(self, edge: Edge) -> dict[int, int]:
        """S_e as a partial map of basis positions.

        Sends the position of p to that of e.p when p ends at the source
        of e and |p| < depth; a basis without e.p raises ValueError.
        """
        if edge not in self.graph.edges:
            raise ValueError(f"{edge} is not an edge of the graph")
        images, missing = self._images
        if edge in missing:
            raise ValueError(f"the basis lacks the path {missing[edge]}")
        return dict(zip(self._tails(edge[0]), images[edge]))

    def edge_operator(self, edge: Edge) -> np.ndarray:
        """S_e as a dense 0/1 matrix: a view of :meth:`edge_map`."""
        import numpy as np

        pairs = self.edge_map(edge)
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[list(pairs.values()), list(pairs.keys())] = 1
        return out


# Largest basis built, each path counted as 1 + its length (what it stores):
# two bijections of 4 points fit depth 14, a single loop depth 2,046.
MAX_FOCK_SIZE = 1 << 21


def build_truncated_fock(graph: EdgeColoredGraph, depth: int) -> CKFamily:
    """Composable paths of length <= depth plus one vacuum per vertex, in basis order.

    The paths are counted per range vertex first, level by level, so a
    basis that would pass MAX_FOCK_SIZE raises ValueError before any
    path is built; the count stops once no path extends.  Then level L+1
    is e.p for e in sorted edges and p in level L ending at the source
    of e, which is already in (length, edges, vertex) order when level L
    is, so nothing is sorted.  Each e.p lands at a position the build
    knows, so the family's grading and edge images are recorded as the
    paths are placed, and no path is hashed or looked up.  One extension
    per basis path.
    """
    _int_in(depth, "depth", 1)
    ends = dict.fromkeys(graph.vertices, 1)
    size = len(graph.vertices)
    levels = 0
    while ends and levels < depth:
        levels += 1
        step: dict[int, int] = {}
        for source, target, _ in graph.edges:
            if source in ends:
                step[target] = step.get(target, 0) + ends[source]
        ends = step
        size += (1 + levels) * sum(step.values())
        if size > MAX_FOCK_SIZE:
            raise ValueError(
                f"the paths of length <= {levels} pass the basis limit"
                f" ({MAX_FOCK_SIZE} path entries); use a smaller depth"
            )
    edges = sorted(graph.edges)
    basis: list[_Path] = [(v, ()) for v in sorted(graph.vertices)]
    grading: _Grading = {p[0]: {None: [k]} for k, p in enumerate(basis)}
    # per edge: its head and the positions of the paths it heads
    plan = [(e, (e,), grading[e[1]].setdefault(e, [])) for e in edges]
    tails = {p[0]: [p] for p in basis}  # level L by range vertex, in basis order
    for _ in range(levels):
        level: dict[int, list[_Path]] = {}
        for e, head, headed in plan:
            found = tails.get(e[0])
            if found:
                paths = [(v, head + p) for v, p in found]
                headed += range(len(basis), len(basis) + len(paths))
                basis += paths
                if e[1] in level:
                    level[e[1]] += paths
                else:
                    level[e[1]] = paths
        tails = level
    family = CKFamily(graph=graph, depth=depth, basis=tuple(basis))
    if len(set(edges)) == len(edges):
        # The paths e heads are e.p for the tails p at its source, in basis
        # order: these are the caches a scan of the basis would fill.
        images = {e: headed for e, _, headed in plan}
        vars(family).update(_by_range=grading, _images=(images, {}))
    return family


@dataclass(frozen=True)
class ColourDefect:
    """Support of P_v - sum of S_e S_e* over the colour's in-edges at v."""

    colour: int
    vertex: int
    vacuum_positions: tuple[int, ...]
    off_colour_positions: tuple[int, ...]
    matches_prediction: bool


@dataclass(frozen=True)
class CKReport:
    initial_projections_ok: bool
    orthogonality_ok: bool
    defects: tuple[ColourDefect, ...]
    defect_structure_ok: bool
    monochrome_cuntz_ok: bool

    @property
    def passed_exact_relations(self) -> bool:
        """The relations asserted exactly: initial, orthogonality, monochrome."""
        return self.initial_projections_ok and self.orthogonality_ok and self.monochrome_cuntz_ok


def check_ck_relations(fam: CKFamily) -> CKReport:
    """Verify the family relations exactly on the edge maps.

    (a) S_e* S_e agrees with the source projection on paths shorter
        than the depth: each map is injective (its domain is those paths
        by construction); (b) S_e* S_f = 0 for distinct edges: the images
        are disjoint; (c) per colour and receiving vertex the defect
        P_v - sum of S_e S_e*, a diagonal of [range = v] minus the number
        of images covering each position, is exactly the vacuum plus the
        paths whose outermost edge has a different colour; (d) on the
        single-colour path space away from the vacua the defect is zero.

    The image of an edge e holds only paths whose outer edge is e, on
    any basis, so for colour c at v no in-edge covers a vacuum or a
    position of another outer colour: each keeps defect 1, as
    predicted, and only the positions of outer colour c can be off.
    When (a) and (b) hold and the in-edges' images are as many as those
    positions, each is covered exactly once.  Otherwise the covers are
    counted, and the colour-c positions not covered exactly once break
    the prediction; the uncovered ones join the defect, and only their
    paths are read for (d).  Each edge's image set is built once, so a
    family built by :func:`build_truncated_fock` costs O(basis size) set
    work; any other basis first costs one grading pass and one path
    lookup per edge extension.
    """
    graph = fam.graph
    images, missing = fam._images
    if missing:
        first = next(e for e in images if e in missing)
        raise ValueError(f"the basis lacks the path {missing[first]}")
    # A map is injective when its image list repeats no position.  Images
    # of distinct edges hold paths of distinct outer edges, so only an edge
    # listed twice, with a nonempty image, breaks orthogonality.
    initial_ok = all(len(set(image)) == len(image) for image in images.values())
    orthogonality_ok = not any(images[e] for e, n in Counter(graph.edges).items() if n > 1)
    at_most_once = initial_ok and orthogonality_ok

    receiving: dict[tuple[int, int], list[Edge]] = {}
    for e in graph.edges:
        receiving.setdefault((e[2], e[1]), []).append(e)
    grading = fam._by_range
    defects: list[ColourDefect] = []
    structure_ok = True
    monochrome_ok = True
    for colour in range(graph.colours):
        for v in graph.vertices:
            in_edges = receiving.get((colour, v))
            if not in_edges:
                continue
            # S_e S_e* lives on the range of e, so the defect vanishes off v.
            by_outer = grading.get(v, {})
            own: list[list[int]] = []  # the positions of outer colour c, by edge
            off_colour: list[int] = []
            for outer, ks in by_outer.items():
                if outer:
                    if outer[2] == colour:
                        own.append(ks)
                    else:
                        off_colour += ks
            bad: list[int] = []  # the positions of own not covered exactly once
            if not at_most_once or sum(len(images[e]) for e in in_edges) != sum(map(len, own)):
                covered = Counter(k for e in in_edges for k in images[e])
                bad = [k for k in chain.from_iterable(own) if covered[k] != 1]
                off_colour += (k for k in bad if k not in covered)
                if any(all(e[2] == colour for e in fam.basis[k][1]) for k in bad):
                    monochrome_ok = False
            structure_ok = structure_ok and not bad
            vacua = tuple(by_outer.get(None, ()))
            defects.append(ColourDefect(colour, v, vacua, tuple(sorted(off_colour)), not bad))
    return CKReport(
        initial_projections_ok=initial_ok,
        orthogonality_ok=orthogonality_ok,
        defects=tuple(defects),
        defect_structure_ok=structure_ok,
        monochrome_cuntz_ok=monochrome_ok,
    )
