"""Concrete finite-dimensional representations and the range-overlap test.

Two families of matrices are built here.

First-row representations: given a base point x and slots (x_j, c_j)
with sigma_{c_j}(x_j) = x, functions act diagonally through their values
at (x, x_1, ..., x_m) and the colour generator s_k acts by the 0/1
matrix whose first row marks the slots carrying colour k.  All images
live in the pattern algebra of matrices supported on the diagonal and
the first row.  With pairwise distinct slot colours every generator
image has norm 0 or 1; two slots sharing the base point under different
colours force the row norm of the generator tuple up to sqrt(2), which
is the numerical obstruction separating the row-contractive completion
from the unconstrained one.  That dichotomy drives
:func:`decide_tensor_vs_semicrossed`: the completions agree exactly
when the map ranges are pairwise disjoint, and on the disjoint side the
range indicators are the separating bump functions.

Truncated path-space families: for an edge-coloured graph, the space
spanned by composable edge paths of length at most D (plus one vacuum
per vertex) carries a partial isometry per edge and a projection per
vertex.  Each edge operator is a partial map from basis positions to
basis positions; the defining relations are verified exactly on these
maps, on the stated subspaces, and the dense 0/1 matrices are views
derived from them.  Truncation effects are confined to length-D paths
and reported, never silently dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynsys import (
    Edge, EdgeColoredGraph, FiniteSystem, check_point, map_range, ranges_pairwise_disjoint,
)
from .matching import lex_least_injective
from .semicrossed import FunctionCoeff, SemicrossedElement


class InvalidSlotError(ValueError):
    """A slot (point, colour) does not map onto the base point."""


@dataclass(frozen=True)
class NestRep:
    """A first-row representation at a base point with preimage slots."""

    system: FiniteSystem
    base: int
    slots: tuple[tuple[int, int], ...]  # (point, colour) with sigma_colour(point) = base

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
        values = [complex(f.values[p]) for p in self.points]
        return np.diag(np.array(values, dtype=complex))

    def generator_image(self, colour: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, (_, c) in enumerate(self.slots):
            if c == colour:
                out[0, j + 1] = 1.0
        return out


def build_colour_rep(
    sys: FiniteSystem,
    base: int,
    slots: Sequence[tuple[int, int]],
    require_distinct_colours: bool = False,
) -> NestRep:
    """Validate the slots and build the representation.

    Every slot (p, c) must satisfy sigma_c(p) = base.  With
    ``require_distinct_colours`` the slot colours must be pairwise
    distinct (forcing m <= arity), which is exactly the situation in
    which every generator image is a contraction.
    """
    check_point(sys, base)
    for p, c in slots:
        if not (0 <= p < sys.size) or not (0 <= c < sys.arity):
            raise InvalidSlotError(f"slot ({p}, {c}) out of range")
        if sys.tables[c][p] != base:
            raise InvalidSlotError(
                f"slot ({p}, {c}): map {c} sends {p} to {sys.tables[c][p]}, not {base}"
            )
    colours = [c for _, c in slots]
    if require_distinct_colours and len(set(colours)) != len(colours):
        raise InvalidSlotError("slot colours must be pairwise distinct")
    return NestRep(system=sys, base=base, slots=tuple(slots))


def rep_apply(rep: NestRep, element: SemicrossedElement) -> np.ndarray:
    """Multiplicative linear extension of the generator and function images."""
    if element.system != rep.system:
        raise ValueError("element lives over a different system")
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
    listed point) or None, found by backtracking over the admissible
    colours in increasing order (exponential in the number of listed
    points in the worst case).
    """
    check_point(sys, base)
    options = []
    for p in preimages:
        check_point(sys, p)
        options.append([c for c in range(sys.arity) if sys.tables[c][p] == base])
    return lex_least_injective(options)


def row_norm(mats: Sequence[np.ndarray]) -> float:
    """Largest singular value of the horizontal concatenation [T_1 ... T_k]."""
    if not mats:
        raise ValueError("need at least one matrix")
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(f"row counts differ: {sorted(rows)}")
    stacked = np.hstack([np.asarray(m, dtype=complex) for m in mats])
    return float(np.linalg.norm(stacked, 2))


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
    rep = build_colour_rep(sys, z, [(x1, i), (x2, j)])
    return TensorSemicrossedDecision(
        isomorphic=False,
        bump_functions=None,
        overlap=(z, (x1, i), (x2, j)),
        obstruction=rep,
    )


class FockPath(NamedTuple):
    """A composable edge path; ``edges`` is outermost-first, () is a vacuum."""

    vertex: int  # the source vertex (equals the vertex itself for a vacuum)
    edges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def range_vertex(self) -> int:
        return self.edges[0][1] if self.edges else self.vertex

    @property
    def outer_colour(self) -> Optional[int]:
        return self.edges[0][2] if self.edges else None


@dataclass(frozen=True)
class CKFamily:
    """Edge partial isometries and vertex projections on truncated path space."""

    graph: EdgeColoredGraph
    depth: int
    basis: tuple[FockPath, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _positions(self) -> dict[FockPath, int]:
        return {p: k for k, p in enumerate(self.basis)}

    def vertex_indices(self, vertex: int) -> list[int]:
        """Basis positions graded at the vertex (by range of the path)."""
        if vertex not in self.graph.vertices:
            raise ValueError(f"{vertex} is not a vertex of the graph")
        return [k for k, p in enumerate(self.basis) if p.range_vertex == vertex]

    def edge_map(self, edge: Edge) -> dict[int, int]:
        """S_e as a partial map of basis positions.

        Sends the position of p to that of e.p when p ends at the source
        of e and |p| < depth; a basis without e.p raises ValueError.
        """
        if edge not in self.graph.edges:
            raise ValueError(f"{edge} is not an edge of the graph")
        out = {}
        for k, p in enumerate(self.basis):
            if p.length < self.depth and p.range_vertex == edge[0]:
                extended = FockPath(p.vertex, (edge,) + p.edges)
                if extended not in self._positions:
                    raise ValueError(f"the basis lacks the path {extended}")
                out[k] = self._positions[extended]
        return out

    def edge_operator(self, edge: Edge) -> np.ndarray:
        """S_e as a dense 0/1 matrix: a view of :meth:`edge_map`."""
        pairs = self.edge_map(edge)
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[list(pairs.values()), list(pairs.keys())] = 1
        return out

    def vertex_projection(self, vertex: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for k in self.vertex_indices(vertex):
            out[k, k] = 1
        return out


# Largest basis built, each path counted as 1 + its length (what it stores):
# two bijections of 4 points fit depth 14, a single loop depth 2,046.
MAX_FOCK_SIZE = 1 << 21


def build_truncated_fock(graph: EdgeColoredGraph, depth: int) -> CKFamily:
    """Enumerate composable paths of length <= depth plus one vacuum per vertex.

    Stops early once no path extends; raises ValueError before the basis
    would pass MAX_FOCK_SIZE.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    by_source: dict[int, list[Edge]] = {}
    for e in graph.edges:
        by_source.setdefault(e[0], []).append(e)
    paths: list[FockPath] = [FockPath(v, ()) for v in graph.vertices]
    frontier = list(paths)
    size = len(paths)
    for length in range(1, depth + 1):
        if not frontier:
            break
        size += (1 + length) * sum(len(by_source.get(p.range_vertex, ())) for p in frontier)
        if size > MAX_FOCK_SIZE:
            raise ValueError(
                f"the paths of length <= {length} pass the basis limit"
                f" ({MAX_FOCK_SIZE} path entries); use a smaller depth"
            )
        frontier = [
            FockPath(p.vertex, (e,) + p.edges)
            for p in frontier
            for e in by_source.get(p.range_vertex, [])
        ]
        paths.extend(frontier)
    paths.sort(key=lambda p: (p.length, p.edges, p.vertex))
    return CKFamily(graph=graph, depth=depth, basis=tuple(paths))


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
    """
    graph = fam.graph
    maps = {e: fam.edge_map(e) for e in graph.edges}
    initial_ok = all(len(set(m.values())) == len(m) for m in maps.values())
    images = [set(maps[e].values()) for e in graph.edges]
    orthogonality_ok = sum(map(len, images)) == len(set().union(*images))

    defects: list[ColourDefect] = []
    structure_ok = True
    monochrome_ok = True
    for colour in range(graph.colours):
        for v in graph.vertices:
            in_edges = graph.in_edges(v, colour)
            if not in_edges:
                continue
            # S_e S_e* lives on the range of e, so the defect vanishes off v.
            covered = Counter(k for e in in_edges for k in maps[e].values())
            vacua = []
            off_colour = []
            predicted = True
            for k in fam.vertex_indices(v):
                p = fam.basis[k]
                defect = 1 - covered[k]
                expected = 1 if (p.length == 0 or p.outer_colour != colour) else 0
                if defect != expected:
                    predicted = False
                if defect == 1:
                    (vacua if p.length == 0 else off_colour).append(k)
                if defect != 0 and p.length >= 1 and all(e[2] == colour for e in p.edges):
                    monochrome_ok = False
            structure_ok = structure_ok and predicted
            defects.append(
                ColourDefect(
                    colour=colour,
                    vertex=v,
                    vacuum_positions=tuple(vacua),
                    off_colour_positions=tuple(off_colour),
                    matches_prediction=predicted,
                )
            )
    return CKReport(
        initial_projections_ok=initial_ok,
        orthogonality_ok=orthogonality_ok,
        defects=tuple(defects),
        defect_structure_ok=structure_ok,
        monochrome_cuntz_ok=monochrome_ok,
    )


def compress_block(fam: CKFamily, mat: np.ndarray, source: int, target: int) -> np.ndarray:
    """The (target, source) block of a matrix graded by the path ranges."""
    rows = fam.vertex_indices(target)
    cols = fam.vertex_indices(source)
    m = np.asarray(mat)
    if m.shape != (fam.dim, fam.dim):
        raise ValueError(f"matrix must be {fam.dim}x{fam.dim} over the path basis")
    return m[np.ix_(rows, cols)]
