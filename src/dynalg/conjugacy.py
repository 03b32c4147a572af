"""Exact deciders for conjugacy notions between finite systems.

Three nested notions are decided here, each with a witness that
:func:`verify_witness` checks:

* conjugacy: a point bijection gamma intertwines the maps index by
  index (optionally after one global recolouring of the map indices);
* pointwise (piecewise) matching: gamma intertwines the maps up to a
  colour permutation alpha_x chosen separately at every point;
* partition matching: a pointwise witness whose colour field alpha is
  in addition saturated under preimages on both sides, i.e. points with
  a common image under a map must agree on that map's recolouring.

All three deciders share one depth-first search on the iterative walk
:func:`dynalg.matching.lex_first`.  Level x assigns gamma(x) in increasing
order, so bijections are met in lexicographic one-line-notation order.
Every witness of every notion makes gamma an isomorphism of the
out-multigraphs with map colours forgotten: gamma maps the multiset
{sigma_i(x)} onto {tau_j(gamma x)} at every point.  The search uses
that fact twice.

* Colour refinement: the points of both systems are refined jointly
  (1-dimensional Weisfeiler-Leman on the disjoint union), cheapest
  invariant first.  Stage one colours every point by its in-degree, one
  count over the tables, which every witness preserves.  Stage two, for
  the partition decider only, adds the per-point entry signatures
  (:func:`dynalg.dynsys.local_signatures`), which every partition
  witness preserves; they are computed only for a pair whose in-degrees
  balance.  Each later round keys a point by its colour and the colour
  multisets of its images and preimages.  Point x may only be sent to a
  point of the same refined colour, and differing colour multisets at
  any stage refute the pair without any search.  Refinement stops early
  once every class holds one point of each side, since the search then
  has a single candidate per level.  Any equitable partition is constant
  on in-degree, so stage one leaves the stable partition, and with it
  the search, as the seeds alone would give.
* Permutation lists: every point keeps the colour permutations, in
  lexicographic order, that agree with its edges assigned so far
  (conjugacy keeps one list shared by all points, which holds the
  identity alone unless recolouring is allowed).  Each assignment
  narrows the lists of the edges it completes, in place and with an undo
  trail, and a branch dies once a list is empty.  A per-point list is
  empty exactly when its assigned images no longer fit in the target's
  image multiset.

Both only remove branches that contain no witness, so the first leaf
accepted is the lexicographically least witness, exactly as a plain walk
over all n! bijections would find.  The leaf reads the witness off the
lists: the first entry at each point (piecewise), the least
preimage-saturated colour field (partition, which may fail and
backtrack), or the first entry of the shared list (conjugacy).  The
partition leaf and :func:`verify_witness` test each preimage condition
once, by comparing every point with the first point of its fibre under
sigma_i and under tau_j o gamma (:func:`_bucket_heads`), so outside the
search tree a decider call does linear work, and so does verifying any
witness, good or bad.  The worst case is still exponential: on highly
symmetric systems refinement separates nothing and many branches
survive to the leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Optional, Sequence

from .dynsys import FiniteSystem, _int_in, _is_permutation, local_signatures
from .matching import W, lex_first

Permutation = tuple[int, ...]


class IncompatibleSystemsError(ValueError):
    """The two systems do not even have matching size and arity."""


class MalformedWitnessError(ValueError):
    """A witness object violates a structural invariant."""


@dataclass(frozen=True)
class ConjugacyWitness:
    gamma: Permutation
    recolor: Optional[Permutation]  # None means same-index conjugacy


@dataclass(frozen=True)
class PiecewiseWitness:
    gamma: Permutation
    alpha: tuple[Permutation, ...]  # alpha[x] permutes colours at x


@dataclass(frozen=True)
class PartitionWitness:
    gamma: Permutation
    alpha: tuple[Permutation, ...]

    def index_set(self, i: int, j: int) -> frozenset[int]:
        """V_{i,j}: the points whose colour field sends i to j, for colours i, j."""
        arity = len(self.alpha[0]) if self.alpha else 0
        _int_in(i, "colour i", 0, arity)
        _int_in(j, "colour j", 0, arity)
        return frozenset(x for x, perm in enumerate(self.alpha) if perm[i] == j)

    def inverse(self) -> "PartitionWitness":
        """The witness from b back to a: gamma^-1, with alpha'_y = alpha_{gamma^-1 y}^-1.

        Raises :class:`MalformedWitnessError` unless gamma and every alpha_x
        are permutations, one alpha_x per point, all of one length.
        """
        _check_fields(self, len(self.gamma), len(self.alpha[0]) if self.alpha else 0)
        gamma_inv = _invert(self.gamma)
        return PartitionWitness(
            gamma=gamma_inv, alpha=tuple(_invert(self.alpha[x]) for x in gamma_inv)
        )


@dataclass(frozen=True)
class WitnessFailure:
    condition: str
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    passed: bool
    failures: tuple[WitnessFailure, ...]


def _check_compatible(a: FiniteSystem, b: FiniteSystem) -> None:
    if a.size != b.size or a.arity != b.arity:
        raise IncompatibleSystemsError(
            f"systems differ in shape: {a.size} points/{a.arity} maps"
            f" vs {b.size} points/{b.arity} maps"
        )


def _invert(perm: Permutation) -> Permutation:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _refined_colours(
    a: FiniteSystem, b: FiniteSystem, seeds: Optional[Callable[[], Sequence[Hashable]]] = None
) -> Optional[tuple[list[int], list[int]]]:
    """Joint colour refinement of the points of ``a`` and ``b``, cheapest stage first.

    The points form one disjoint union (those of ``b`` shifted by
    ``a.size``), so colour ids, numbered by first occurrence, are
    comparable across the systems.  Every witness preserves in-degree, so
    stage one colours each point by its in-degree, one count over the
    tables.  Stage two, only when ``seeds`` is given, calls it for the
    starting colours of the points of ``a`` followed by those of ``b``
    and recolours by (colour, seed).  Each later round keys a point by
    its colour and the sorted colours of its images and of its
    preimages, counted with multiplicity; the joint tables and the
    preimage lists are built for the first round.  Returns the colours
    of each side, or None as soon as the two colour multisets differ.
    It stops when a round adds no class, or once the balanced partition
    is discrete (n classes of one point per side): a further round could
    then only refute, and the search, with one candidate per level,
    refutes such a pair by itself.  Any equitable partition is constant
    on in-degree, so the stable partition is the one the seeds alone
    refine to.
    """
    n = a.size
    keys: list = [0] * (2 * n)  # stage one: in-degrees
    for shift, system in ((0, a), (n, b)):
        for v in itertools.chain.from_iterable(system.tables):
            keys[v + shift] += 1
    classes = 0  # before the last round; 0 until the first
    while True:
        palette: dict[Hashable, int] = {}
        colour = [palette.setdefault(key, len(palette)) for key in keys]
        if sorted(colour[:n]) != sorted(colour[n:]):
            return None
        if len(palette) in (n, classes):
            return colour[:n], colour[n:]
        if seeds is not None:
            keys, seeds = list(zip(colour, seeds())), None
            continue
        if not classes:
            tables = [ta + tuple(map(n.__add__, tb)) for ta, tb in zip(a.tables, b.tables)]
            into: list[list[int]] = [[] for _ in range(2 * n)]
            for table in tables:
                for u, v in enumerate(table):
                    into[v].append(u)
        classes = len(palette)
        get = colour.__getitem__
        images = [tuple(sorted(targets)) for targets in zip(*[map(get, table) for table in tables])]
        keys = list(zip(colour, images, [tuple(sorted(map(get, sources))) for sources in into]))


def _lex_search(
    a: FiniteSystem,
    b: FiniteSystem,
    seeds: Optional[Callable[[], Sequence[Hashable]]],
    start: list[list[Permutation]],
    leaf: Callable[[Permutation, list[list[Permutation]]], Optional[W]],
) -> Optional[W]:
    """Depth-first search for the least gamma whose leaf yields a witness.

    The candidates of each point are the points of ``b`` with its colour
    in :func:`_refined_colours`, which first splits by in-degree and then,
    if ``seeds`` is given and the in-degrees balance, by the colours it
    returns for the points of ``a`` followed by those of ``b``; a pair
    that refinement refutes returns None before any level.  ``start``
    holds the starting colour permutation lists, in lexicographic order:
    one list shared by every point, or one per point.  Level x assigns
    gamma(x) and narrows the lists in place: each edge p -> sigma_i(p) it
    completes keeps in the list of p the alpha with
    tau_{alpha(i)}(gamma(p)) = gamma(sigma_i(p)), and a value emptying a
    list is refused.  Every narrowing that drops an entry pushes one
    (owner, previous list) record on an undo trail, and leaving the level
    pops its records, so a level costs only the edges it completes.
    ``leaf`` receives gamma and the lists.  Only branches
    without a witness are pruned, so the first witness is the least.
    """
    colours = _refined_colours(a, b, seeds)
    if colours is None:
        return None
    ca, cb = colours
    n = a.size
    by_colour: dict[int, list[int]] = {}
    for v in range(n):
        by_colour.setdefault(cb[v], []).append(v)
    shared = len(start) == 1
    # Assigning x completes the edges p -> y = sigma_i(p) with max(p, y) == x;
    # each narrows the list of its owner k.
    new_edges: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for p in range(n):
        for i, table in enumerate(a.tables):
            y = table[p]
            new_edges[max(p, y)].append((0 if shared else p, p, i, y))
    tables_b = b.tables
    gamma = [-1] * n
    used = [False] * n
    lists = list(start)
    trail: list[tuple[int, list[Permutation]]] = []
    marks: list[int] = []  # the trail's length on entering each assigned level

    def free(x: int) -> list[int]:
        return [v for v in by_colour[ca[x]] if not used[v]]

    def undo(mark: int) -> None:
        while len(trail) > mark:
            k, previous = trail.pop()
            lists[k] = previous

    def enter(x: int, v: int) -> bool:
        gamma[x] = v
        mark = len(trail)
        for k, p, i, y in new_edges[x]:
            gp, gy = gamma[p], gamma[y]
            current = lists[k]
            narrowed = [alpha for alpha in current if tables_b[alpha[i]][gp] == gy]
            if len(narrowed) < len(current):
                if not narrowed:
                    undo(mark)
                    return False
                trail.append((k, current))
                lists[k] = narrowed
        used[v] = True
        marks.append(mark)
        return True

    def leave(x: int) -> None:
        used[gamma[x]] = False
        undo(marks.pop())

    return lex_first(n, free, enter, leave, lambda: leaf(tuple(gamma), lists))


def decide_conjugate(
    a: FiniteSystem, b: FiniteSystem, allow_recolor: bool = False
) -> Optional[ConjugacyWitness]:
    """Search for gamma with gamma o sigma_i = tau_i o gamma for all i.

    With ``allow_recolor`` a single global colour permutation beta is
    also searched: gamma o sigma_i = tau_{beta(i)} o gamma.  Every point
    shares one permutation list, so beta is the first entry left in it.
    Returns the lexicographically least witness (gamma first, then beta)
    or None.
    """
    _check_compatible(a, b)
    betas = list(itertools.permutations(range(a.arity))) if allow_recolor else [tuple(range(a.arity))]

    def witness(gamma: Permutation, lists: list[list[Permutation]]) -> ConjugacyWitness:
        return ConjugacyWitness(gamma=gamma, recolor=lists[0][0] if allow_recolor else None)

    return _lex_search(a, b, None, [betas], witness)


def decide_piecewise(a: FiniteSystem, b: FiniteSystem) -> Optional[PiecewiseWitness]:
    """Search for gamma plus a per-point colour permutation field.

    At every point x the colour permutation alpha_x must satisfy
    gamma(sigma_i(x)) = tau_{alpha_x(i)}(gamma(x)) for all i.  In a
    finite discrete space that pointwise condition is the whole of
    piecewise matching.  Each point keeps its own permutation list, so
    at a leaf every list holds exactly the admissible alpha_x and the
    leaf takes the first of each.  Returns the lexicographically least
    witness.
    """
    _check_compatible(a, b)

    def witness(gamma: Permutation, lists: list[list[Permutation]]) -> PiecewiseWitness:
        return PiecewiseWitness(gamma=gamma, alpha=tuple(admissible[0] for admissible in lists))

    perms = list(itertools.permutations(range(a.arity)))
    return _lex_search(a, b, None, [perms] * a.size, witness)


def _bucket_heads(keys: Sequence[int]) -> list[int]:
    """For each position, the first position holding the same key."""
    head: dict[int, int] = {}
    return [head.setdefault(key, x) for x, key in enumerate(keys)]


def _partition_alpha_field(
    a: FiniteSystem, b: FiniteSystem, gamma: Permutation, options: list[list[Permutation]]
) -> Optional[PartitionWitness]:
    """Complete gamma by the least field of ``options`` that meets the preimage conditions.

    Point x's permutation must agree, on colour i, with every earlier point
    in its sigma_i-preimage bucket, and on inverse colour j with every earlier
    point in its tau_j o gamma-preimage bucket.  The earlier points of a
    bucket already agree with its first point, so comparing with that one
    point is exact, and each offer costs O(arity).
    """
    inverses = {p: _invert(p) for ok in options for p in ok}
    sigma_heads = list(enumerate(_bucket_heads(table) for table in a.tables))
    tau_heads = list(enumerate(_bucket_heads([table[g] for g in gamma]) for table in b.tables))
    chosen: list[Permutation] = []

    def enter(x: int, perm: Permutation) -> bool:
        for i, heads in sigma_heads:
            y = heads[x]
            if y < x and perm[i] != chosen[y][i]:
                return False
        pinv = inverses[perm]
        for j, heads in tau_heads:
            y = heads[x]
            if y < x and pinv[j] != inverses[chosen[y]][j]:
                return False
        chosen.append(perm)
        return True

    def witness() -> PartitionWitness:
        return PartitionWitness(gamma=gamma, alpha=tuple(chosen))

    return lex_first(a.size, lambda x: options[x], enter, lambda _x: chosen.pop(), witness)


def decide_partition(a: FiniteSystem, b: FiniteSystem) -> Optional[PartitionWitness]:
    """Search for a preimage-saturated pointwise witness.

    A partition witness sends every point to one with the same local
    entry signature, so the signatures of both systems are the second
    stage of the colour refinement, computed only once the in-degrees
    balance.  Each bijection that survives the search is completed by
    the least preimage-saturated colour field, if one exists.  Returns
    the lexicographically least witness (gamma first, then alpha) or None.
    """
    _check_compatible(a, b)
    perms = list(itertools.permutations(range(a.arity)))
    leaf = partial(_partition_alpha_field, a, b)
    return _lex_search(a, b, lambda: local_signatures(a) + local_signatures(b), [perms] * a.size, leaf)


def _check_fields(witness, size: int, arity: int) -> tuple[Permutation, ...]:
    """The witness's colour field, one permutation per point.

    A :class:`ConjugacyWitness` gives the constant field: ``recolor`` at
    every point, or the identity when it is None; the other two kinds
    give their ``alpha``.  Any other object raises TypeError, and a
    witness raises :class:`MalformedWitnessError` unless gamma permutes
    0..size-1 and ``recolor``, or each of the size alpha_x, permutes
    0..arity-1.
    """
    if not isinstance(witness, (ConjugacyWitness, PiecewiseWitness, PartitionWitness)):
        raise TypeError(f"{type(witness).__name__} is not a witness")
    gamma = witness.gamma
    if not _is_permutation(gamma, size):
        raise MalformedWitnessError(f"gamma {gamma} is not a bijection of 0..{size - 1}")
    if isinstance(witness, ConjugacyWitness):
        recolor = tuple(range(arity)) if witness.recolor is None else witness.recolor
        if not _is_permutation(recolor, arity):
            raise MalformedWitnessError(f"recolor {recolor} is not a colour permutation of 0..{arity - 1}")
        return (recolor,) * size
    if len(witness.alpha) != size:
        raise MalformedWitnessError(f"alpha field has {len(witness.alpha)} entries, expected {size}")
    for x, perm in enumerate(witness.alpha):
        if not _is_permutation(perm, arity):
            raise MalformedWitnessError(
                f"alpha[{x}] = {perm} is not a colour permutation of 0..{arity - 1}"
            )
    return witness.alpha


def verify_witness(a: FiniteSystem, b: FiniteSystem, witness) -> WitnessReport:
    """Check every condition of a witness of any kind, independently of the deciders.

    Every witness is read as gamma plus a colour field alpha (see
    :func:`_check_fields`), and each kind must intertwine:
    gamma(sigma_i(x)) = tau_{alpha_x(i)}(gamma(x)) at every point x and
    colour i.  A :class:`PartitionWitness` must also meet the preimage
    conditions: alpha_x(i) is constant on each fibre of sigma_i, and
    alpha_x^-1(j) on each fibre of tau_j o gamma.  As every alpha_x is a
    permutation, these are exactly the saturation identities on the index
    sets V_{i,j} = {x : alpha_x(i) = j}.  An object of another type raises
    TypeError, and structural defects (wrong lengths, entries that are
    not ints, non-permutations) raise :class:`MalformedWitnessError`.
    Semantic defects come back as a report listing each failed condition
    with a counterexample: an intertwining failure per point and colour,
    and a preimage failure per point and colour whose value differs from
    that of the first point in its fibre.  So even a bad witness costs
    O(arity * n).
    """
    _check_compatible(a, b)
    alpha = _check_fields(witness, a.size, a.arity)
    gamma = witness.gamma
    n = a.arity
    failures: list[WitnessFailure] = []

    for x in range(a.size):
        for i in range(n):
            if gamma[a.tables[i][x]] != b.tables[alpha[x][i]][gamma[x]]:
                failures.append(
                    WitnessFailure(
                        "intertwining",
                        f"gamma(sigma_{i}({x})) = {gamma[a.tables[i][x]]} but "
                        f"tau_{alpha[x][i]}(gamma({x})) = {b.tables[alpha[x][i]][gamma[x]]}",
                    )
                )
    if not isinstance(witness, PartitionWitness):
        return WitnessReport(passed=not failures, failures=tuple(failures))

    for i in range(n):
        for x, y in enumerate(_bucket_heads(a.tables[i])):
            if alpha[y][i] != alpha[x][i]:
                failures.append(
                    WitnessFailure(
                        "sigma-preimage",
                        f"sigma_{i} merges {y} and {x} but alpha_{y}({i}) = "
                        f"{alpha[y][i]} differs from alpha_{x}({i}) = {alpha[x][i]}",
                    )
                )

    inv = [_invert(p) for p in alpha]
    for j in range(n):
        for x, y in enumerate(_bucket_heads([b.tables[j][g] for g in gamma])):
            if inv[y][j] != inv[x][j]:
                failures.append(
                    WitnessFailure(
                        "tau-preimage",
                        f"tau_{j} merges gamma({y}) and gamma({x}) but "
                        f"alpha_{y}^-1({j}) = {inv[y][j]} differs from "
                        f"alpha_{x}^-1({j}) = {inv[x][j]}",
                    )
                )

    return WitnessReport(passed=not failures, failures=tuple(failures))
