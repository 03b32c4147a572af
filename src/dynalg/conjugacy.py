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

All three deciders share one depth-first search, :func:`_lex_search`, a
single loop over an explicit stack of levels.  Level x assigns gamma(x)
in increasing order, so bijections are met in lexicographic
one-line-notation order.  Every witness of every notion makes gamma an
isomorphism of the out-multigraphs with map colours forgotten: gamma maps
the multiset {sigma_i(x)} onto {tau_j(gamma x)} at every point.  A
conjugacy witness is moreover an isomorphism of the graph whose edges are
keyed by map index.  The search uses these facts three times.

* Colour refinement: the points of both systems are refined jointly
  (1-dimensional Weisfeiler-Leman on the disjoint union) by one rule.
  Every point is first coloured by its in-degree, one count over the
  tables, which every witness preserves; a pair whose sorted in-degrees
  differ is refuted before anything else is built.  The partition
  decider then recolours once by the sorted sizes of the fibres through
  each point (:func:`dynalg.dynsys.fibre_sizes`), which every partition
  witness preserves, computed only for a pair whose in-degrees balance.
  Each later round keys a point by its colour, the colours of its images
  and the sorted colours of its preimages.  Plain conjugacy keeps the
  image colours in map order, which refines the graph keyed by map index;
  every other mode sorts them.  Point x may only be sent to a point of
  the same refined colour, and differing colour multisets at any round
  refute the pair without any search.  Refinement stops early once every
  class holds one point of each side, since the search then has a single
  candidate per level.  Any equitable partition is constant on in-degree,
  so the in-degree colouring leaves the stable partition, and with it the
  search, as the later rounds alone would give.
* The pair check: assigning x completes every pair (p, y) that some map
  of a joins, with max(p, y) = x.  The maps of b joining gamma(p) to
  gamma(y), read as one bit mask per pair of points, must be as many as
  the maps joining p to y.  At a leaf, where every pair is complete and
  every point has as many images on both sides, gamma is then exactly an
  isomorphism of the out-multigraph.  Both conjugacy modes also keep one
  mask per map i of the maps j that beta(i) may still be, shared by all
  points and narrowed by every pair the search completes, with an undo
  trail; a branch dies once a mask is empty or more maps hold one mask
  than it has bits.  Conjugacy with recolouring starts each mask from
  every map of b, and plain conjugacy from map i alone, so there every
  map joining p to y must join gamma(p) to gamma(y) under its own index,
  and the search finds isomorphisms of the graph keyed by map index.
  Under recolouring, where refinement leaves a class of two or more
  points, the masks start only from the maps of b joining the same sorted
  (colour, image colour) pairs, and an empty one refutes the pair before
  any level.  Plain conjugacy needs no such seed: once index-keyed
  refinement balances, map i joins the same colour pairs on both sides.
* Looking one edge ahead, also only where some class holds two or more
  points: gamma(x) = v is refused when a later neighbour y of x has no
  free point of its colour among the images of v (y an image of x) or the
  preimages of v (x an image of y).

Each only removes branches that contain no witness, so the first leaf
accepted is the lexicographically least witness, exactly as a plain walk
over all n! bijections would find.  The leaf reads the witness off the
masks: at each point, each colour in turn takes the least colour of b's
mask left (piecewise), and each map in turn the least map of its shared
mask left (both conjugacy modes).  At a conjugacy leaf the shared mask of
map i is exactly the set of maps of b equal to sigma_i under gamma, so
the masks are pairwise equal or disjoint and this greedy choice is the
least beta; the leaf fails, and the search goes on, when more maps hold
one mask than it has bits.  No colour permutation is listed, so no arity
is refused.  The partition leaf reads
no masks: with gamma fixed, the colours i that share a point z and a
fibre F = sigma_i^-1(z) must take the colours of b's group at gamma(z)
with fibre gamma(F), and the groups are independent, so one pass over
them gives the least field or shows there is none
(:func:`_partition_alpha_field`).  :func:`verify_witness` tests each
preimage condition once, by comparing every point with the first point of
its fibre under sigma_i and under tau_j o gamma (:func:`_bucket_heads`).
So outside the search tree a decider call does linear work, and so does
verifying any witness, good or bad.  The worst case is still exponential:
on highly symmetric systems refinement separates nothing and many
branches survive to the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, NoReturn, Optional, Sequence, TypeVar

from .dynsys import FiniteSystem, _int_in, _is_int, _is_permutation, _shown, fibre_sizes

Permutation = tuple[int, ...]
W = TypeVar("W")


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
        """V_{i,j}: the points whose colour field sends i to j, for colours i, j.

        Raises :class:`MalformedWitnessError` as :meth:`inverse` does.
        """
        alpha = _check_fields(self)
        arity = len(alpha[0]) if alpha else 0
        _int_in(i, "colour i", 0, arity)
        _int_in(j, "colour j", 0, arity)
        return frozenset(x for x, perm in enumerate(alpha) if perm[i] == j)

    def inverse(self) -> "PartitionWitness":
        """The witness from b back to a: gamma^-1, with alpha'_y = alpha_{gamma^-1 y}^-1.

        Raises :class:`MalformedWitnessError` unless gamma and every alpha_x
        are permutations, one alpha_x per point, all of one length.
        """
        alpha = _check_fields(self)
        gamma_inv = _invert(self.gamma)
        return PartitionWitness(gamma=gamma_inv, alpha=tuple(_invert(alpha[x]) for x in gamma_inv))


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


def _refined_colours(a: FiniteSystem, b: FiniteSystem, mode: str) -> Optional[tuple[list[int], list[int]]]:
    """Joint colour refinement of the points of ``a`` and ``b`` on the graph of ``mode``.

    The points form one disjoint union (those of ``b`` shifted by
    ``a.size``), so colour ids, numbered by first occurrence, are
    comparable across the systems.  Every witness preserves in-degree, so
    the first colours are the in-degrees, one count over the tables, and a
    pair whose sorted in-degrees differ is refuted before anything else is
    built.  In partition mode, once these balance, the points are
    recoloured once by (colour, :func:`dynalg.dynsys.fibre_sizes`).  Each
    later round keys a point by its colour, the colours of its images and
    the sorted colours of its preimages; the joint tables and the preimage
    lists are built for the first round.  Plain conjugacy keeps the image
    colours in map order, refining the graph keyed by map index whose
    isomorphisms are its witnesses, and every other mode sorts them, with
    the map colours forgotten.  Returns the colours of each side, or None
    as soon as the two colour multisets differ.  It stops when a round adds
    no class, or once the balanced partition is discrete (n classes of one
    point per side): a further round could then only refute, and the
    search, with one candidate per level, refutes such a pair by itself.
    Any equitable partition is constant on in-degree, so the stable
    partition is the one the later keys alone refine to.
    """
    n = a.size
    degrees = []
    for system in (a, b):
        degree = [0] * n
        for table in system.tables:
            for v in table:
                degree[v] += 1
        degrees.append(degree)
    if sorted(degrees[0]) != sorted(degrees[1]):
        return None
    keys: list = degrees[0] + degrees[1]
    seed = mode == "partition"  # the fibre sizes still to be keyed in
    classes = 0  # before the last round; 0 until the first
    while True:
        palette: dict[Hashable, int] = {}
        colour = [palette.setdefault(key, len(palette)) for key in keys]
        if sorted(colour[:n]) != sorted(colour[n:]):
            return None
        if len(palette) in (n, classes):
            return colour[:n], colour[n:]
        if seed:
            seed = False
            keys = list(zip(colour, fibre_sizes(a) + fibre_sizes(b)))
            continue
        if not classes:
            tables = [ta + tuple(map(n.__add__, tb)) for ta, tb in zip(a.tables, b.tables)]
            into: list[list[int]] = [[] for _ in range(2 * n)]
            for table in tables:
                for u, v in enumerate(table):
                    into[v].append(u)
        classes = len(palette)
        get = colour.__getitem__
        images = zip(*[map(get, table) for table in tables])
        if mode != "conjugate":
            images = [tuple(sorted(targets)) for targets in images]
        keys = list(zip(colour, images, [tuple(sorted(map(get, sources))) for sources in into]))


def _joins(tables: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """For each point u, the maps joining u to each of its images v, as a bit mask of their indices."""
    joins: list[dict[int, int]] = [{} for _ in tables[0]]
    for j, table in enumerate(tables):
        bit = 1 << j
        for joined, v in zip(joins, table):
            joined[v] = joined.get(v, 0) | bit
    return joins


Leaf = Callable[[Permutation, list[dict[int, int]], list[int]], Optional[W]]


def _lex_search(a: FiniteSystem, b: FiniteSystem, mode: str, leaf: Leaf[W]) -> Optional[W]:
    """Depth-first search for the least gamma whose leaf yields a witness.

    ``mode`` is "conjugate", "recolor", "piecewise" or "partition".  The
    candidates of each point are the points of ``b`` of its colour in
    :func:`_refined_colours` on the mode's graph, which splits by
    in-degree, in partition mode then by fibre sizes, and then by image and
    preimage colours, the image colours in map order in conjugate mode; a
    pair that refinement refutes returns None before any level.

    Level x gives gamma(x) its least free candidate left.  Each pair
    (p, y) joined by some map of ``a`` is checked at level max(p, y): the
    mask of the maps of ``b`` joining gamma(p) to gamma(y) (:func:`_joins`)
    must have as many bits as the mask from p to y.  In the two conjugacy
    modes the pair is checked once per map i joining p to y, and ANDs map
    i's shared mask with that mask, in place; a mask that empties, or that
    more maps hold than it has bits, refuses the value, and leaving a
    level pops its records off an undo trail.  The shared mask of map i
    starts as every map of ``b`` in recolor mode and as map i alone in
    conjugate mode, which the check then holds to the same mask as the
    maps from p to y.  Where some class holds two or more points, recolor
    mode's shared masks start only from the maps of ``b`` with the same
    sorted (colour, image colour) pairs, and an empty one refutes the
    pair; in every mode a value v is refused there for x when a later
    neighbour of x has no free point of its colour among the images of v
    (an out-neighbour) or its preimages (an in-neighbour).

    The levels are one explicit stack of candidate iterators, so no size
    reaches the recursion limit, and a refused value or leaf is taken back
    at the top of the loop.  ``leaf`` receives gamma, the masks of ``b``'s
    joins, and the shared masks (empty outside the conjugacy modes).  Only
    branches without a witness are pruned, so the first witness is the
    least.
    """
    colours = _refined_colours(a, b, mode)
    if colours is None:
        return None
    ca, cb = colours
    n = a.size
    by_colour: dict[int, list[int]] = {}
    for v in range(n):
        by_colour.setdefault(cb[v], []).append(v)
    branching = len(by_colour) < n
    conjugacy = mode in ("conjugate", "recolor")
    joins, joins_a = _joins(b.tables), _joins(a.tables)
    # each pair (p, y) joined by a map of a, at its level max(p, y), with the number of the maps
    # joining it; in a conjugacy mode once per map i, whose shared mask it narrows
    pairs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    if conjugacy:
        for i, table in enumerate(a.tables):
            for p, y in enumerate(table):
                pairs[p if p > y else y].append((p, y, joins_a[p][y].bit_count(), i))
    else:
        for p, joined in enumerate(joins_a):
            for y, mask in joined.items():
                pairs[p if p > y else y].append((p, y, mask.bit_count(), 0))
    # beta(i) may be any map of b under recolouring, and only i without it
    shared = [(1 << a.arity) - 1 if mode == "recolor" else 1 << i for i in range(a.arity)] if conjugacy else []
    if mode == "recolor" and branching:  # beta(i) only among the maps joining map i's colour pairs
        kinds: dict[tuple, int] = {}
        for j, table in enumerate(b.tables):
            kind = tuple(sorted(zip(cb, map(cb.__getitem__, table))))
            kinds[kind] = kinds.get(kind, 0) | 1 << j
        shared = [kinds.get(tuple(sorted(zip(ca, map(ca.__getitem__, table)))), 0) for table in a.tables]
        if not all(shared):
            return None
    # near[v][out, c]: the images (out) or preimages of v in b of colour c; ahead[x]:
    # the keys (out, colour) of the later neighbours of x in a
    ahead: list[list[tuple[bool, int]]] = [[] for _ in range(n)]
    if branching:
        near: list[dict[tuple[bool, int], list[int]]] = [{} for _ in range(n)]
        for u, joined in enumerate(joins):
            for w in joined:
                near[u].setdefault((True, cb[w]), []).append(w)
                near[w].setdefault((False, cb[u]), []).append(u)
        for p, joined in enumerate(joins_a):
            for y in joined:
                if y > p:
                    ahead[p].append((True, ca[y]))
                elif y < p:
                    ahead[y].append((False, ca[p]))
        ahead = [list(dict.fromkeys(keys)) for keys in ahead]
    gamma = [-1] * n
    used = [False] * n
    trail: list[tuple[int, int]] = []  # (map, previous mask) for each narrowing of the shared masks
    marks: list[int] = []  # the trail's length on entering each assigned level
    stack = [iter(by_colour[ca[0]])]
    while stack:
        x = len(stack) - 1
        if len(marks) > x:  # back at level x: take its value back
            used[gamma[x]] = False
            mark = marks.pop()
            while len(trail) > mark:
                i, shared[i] = trail.pop()
        for v in stack[x]:
            if not used[v]:
                break
        else:
            stack.pop()
            continue
        gamma[x] = v
        used[v] = True
        marks.append(len(trail))
        for p, y, want, i in pairs[x]:
            got = joins[gamma[p]].get(gamma[y], 0)
            if got.bit_count() != want:
                break
            if conjugacy and (narrowed := shared[i] & got) != shared[i]:
                if not narrowed or shared.count(narrowed) >= narrowed.bit_count():
                    break
                trail.append((i, shared[i]))
                shared[i] = narrowed
        else:
            for key in ahead[x]:
                if all(used[w] for w in near[v].get(key, ())):
                    break  # a later neighbour of x has no free candidate left
            else:
                if x + 1 < n:
                    stack.append(iter(by_colour[ca[x + 1]]))
                elif (found := leaf(tuple(gamma), joins, shared)) is not None:
                    return found
    return None


def decide_conjugate(
    a: FiniteSystem, b: FiniteSystem, allow_recolor: bool = False
) -> Optional[ConjugacyWitness]:
    """Search for gamma with gamma o sigma_i = tau_i o gamma for all i.

    With ``allow_recolor`` a single global colour permutation beta is
    also searched: gamma o sigma_i = tau_{beta(i)} o gamma.  Both run one
    search, which keeps one mask per map i of the maps of b that beta(i)
    may still be, shared by every point; without recolouring, map i's mask
    starts as i alone.  At a leaf each mask is exactly the set of maps of
    b that equal sigma_i under gamma, so the masks are pairwise equal or
    disjoint, and beta is the least fit of them (:func:`_least_fit`); a
    gamma for which some class of equal maps of a outnumbers its class in
    b is passed over.  Returns the lexicographically least witness (gamma
    first, then beta) or None.
    """
    _check_compatible(a, b)

    def witness(gamma: Permutation, _: list[dict[int, int]], shared: list[int]) -> Optional[ConjugacyWitness]:
        beta = _least_fit(shared)
        return None if -1 in beta else ConjugacyWitness(gamma=gamma, recolor=beta if allow_recolor else None)

    return _lex_search(a, b, "recolor" if allow_recolor else "conjugate", witness)


def _least_fit(masks: list[int]) -> Permutation:
    """The least alpha with alpha(i) in masks[i] for every colour i.

    The masks must be pairwise equal or disjoint.  Each colour in turn
    takes the least colour of its mask left, and -1 where none is left,
    which happens exactly when more colours hold a mask than it has bits.
    """
    taken = 0
    alpha = []
    for mask in masks:
        least = mask & ~taken
        least &= -least
        taken |= least
        alpha.append(least.bit_length() - 1)
    return tuple(alpha)


def decide_piecewise(a: FiniteSystem, b: FiniteSystem) -> Optional[PiecewiseWitness]:
    """Search for gamma plus a per-point colour permutation field.

    At every point x the colour permutation alpha_x must satisfy
    gamma(sigma_i(x)) = tau_{alpha_x(i)}(gamma(x)) for all i.  In a
    finite discrete space that pointwise condition is the whole of
    piecewise matching.  At a leaf the masks of the maps of b joining
    gamma(x) to gamma(sigma_i(x)) allow exactly the admissible alpha_x,
    and the leaf takes the least of each (:func:`_least_fit`).  Returns
    the lexicographically least witness or None.
    """
    _check_compatible(a, b)

    def witness(gamma: Permutation, joins: list[dict[int, int]], _: list[int]) -> PiecewiseWitness:
        alpha = tuple(_least_fit([joins[g][gamma[t[x]]] for t in a.tables]) for x, g in enumerate(gamma))
        return PiecewiseWitness(gamma=gamma, alpha=alpha)

    return _lex_search(a, b, "piecewise", witness)


def _bucket_heads(keys: Sequence[int]) -> list[int]:
    """For each position, the first position holding the same key."""
    head: dict[int, int] = {}
    return [head.setdefault(key, x) for x, key in enumerate(keys)]


def _fibre_groups(tables: Sequence[Sequence[int]]) -> dict[tuple[int, tuple[int, ...]], list[int]]:
    """The colours i of each group (z, F), least first: those whose fibre sigma_i^-1(z) is F, non-empty."""
    groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for i, table in enumerate(tables):
        fibres: dict[int, list[int]] = {}
        for x, z in enumerate(table):
            fibres.setdefault(z, []).append(x)
        for z, fibre in fibres.items():
            groups.setdefault((z, tuple(fibre)), []).append(i)
    return groups


def _partition_alpha_field(a: FiniteSystem, b: FiniteSystem, gamma: Permutation) -> Optional[PartitionWitness]:
    """Complete gamma by the least colour field that meets the preimage conditions, or None.

    The sigma_i-condition makes alpha_x(i) one colour j on the whole fibre
    F = sigma_i^-1(z) through x, and intertwining with the tau_j-condition
    makes tau_j^-1(gamma(z)) exactly gamma(F).  So the colours of a's group
    (z, F) (:func:`_fibre_groups`) may take exactly the colours of b's group
    (gamma(z), gamma(F)), one each; two colours that take one j at a point
    share a group, so the groups are independent.  Each group gives its
    colours, in increasing order, the least colours of its image group, on
    every point of F, and gamma has no field when an image group has fewer
    colours.  b's groups are read on b pulled back along gamma, whose group
    (z, F) is b's (gamma(z), gamma(F)).
    """
    inverse = _invert(gamma)
    images = _fibre_groups([[inverse[table[g]] for g in gamma] for table in b.tables])
    alpha = [[0] * a.arity for _ in gamma]
    for (z, fibre), colours in _fibre_groups(a.tables).items():
        image = images.get((z, fibre), ())
        if len(image) < len(colours):
            return None
        for x in fibre:
            for i, j in zip(colours, image):
                alpha[x][i] = j
    return PartitionWitness(gamma=gamma, alpha=tuple(map(tuple, alpha)))


def decide_partition(a: FiniteSystem, b: FiniteSystem) -> Optional[PartitionWitness]:
    """Search for a preimage-saturated pointwise witness.

    A partition witness sends every point to one with the same sorted
    fibre sizes (:func:`dynalg.dynsys.fibre_sizes`), so the colour
    refinement recolours by them once the in-degrees balance, before its
    rounds on images and preimages.  Each bijection that survives the search is completed by
    the least preimage-saturated colour field, read off the fibre groups
    of both systems (:func:`_partition_alpha_field`), if one exists.
    Returns the lexicographically least witness (gamma first, then alpha)
    or None.
    """
    _check_compatible(a, b)
    return _lex_search(a, b, "partition", lambda gamma, *_: _partition_alpha_field(a, b, gamma))


def _check_fields(witness, size: Optional[int] = None, arity: Optional[int] = None) -> tuple[Permutation, ...]:
    """The witness's colour field, one permutation per point.

    A :class:`ConjugacyWitness` gives the constant field: ``recolor`` at
    every point, or the identity when it is None; the other two kinds
    give their ``alpha``.  Any other object raises TypeError, and a
    witness raises :class:`MalformedWitnessError` unless gamma permutes
    0..size-1 and ``recolor``, or each of the size alpha_x, permutes
    0..arity-1.  Every permutation, and ``alpha`` itself, must be a tuple
    or a list (:func:`dynalg.dynsys._is_permutation`).  A partition
    witness read against itself leaves size and arity None: gamma's
    length sets the size and alpha_0's the arity, each read only once
    the field is known to be a tuple or a list.
    """
    if not isinstance(witness, (ConjugacyWitness, PiecewiseWitness, PartitionWitness)):
        raise TypeError(f"{type(witness).__name__} is not a witness")
    gamma = witness.gamma
    if size is None:
        size = len(gamma) if isinstance(gamma, (tuple, list)) else 0
    if not _is_permutation(gamma, size):
        _refuse("gamma", gamma, "bijection", size)
    if isinstance(witness, ConjugacyWitness):
        recolor = tuple(range(arity)) if witness.recolor is None else witness.recolor
        if not _is_permutation(recolor, arity):
            _refuse("recolor", recolor, "colour permutation", arity)
        return (recolor,) * size
    alpha = witness.alpha
    if not isinstance(alpha, (tuple, list)):
        raise MalformedWitnessError(f"alpha field has type {type(alpha).__name__}, not a tuple or list")
    if len(alpha) != size:
        raise MalformedWitnessError(f"alpha field has {len(alpha)} entries, expected {size}")
    if arity is None:
        arity = len(alpha[0]) if alpha and isinstance(alpha[0], (tuple, list)) else 0
    for x, perm in enumerate(alpha):
        if not _is_permutation(perm, arity):
            _refuse(f"alpha[{x}]", perm, "colour permutation", arity)
    return alpha


def _refuse(what: str, entries: object, kind: str, size: int) -> NoReturn:
    """The :class:`MalformedWitnessError` for ``entries`` that fail :func:`_is_permutation`.

    It names the first entry at fault, or the length when every entry is a
    distinct int in range, never the whole list: a gamma at n = 10,000 would
    take some 30,000 characters.
    """
    if not isinstance(entries, (tuple, list)):
        raise MalformedWitnessError(f"{what} has type {type(entries).__name__}, not a tuple or list")
    first: dict[int, int] = {}  # the position of each entry's first listing
    for k, entry in enumerate(entries):
        if not _is_int(entry):
            fault = f"{what}[{k}] has type {type(entry).__name__}"
        elif not 0 <= entry < size:
            fault = f"{what}[{k}] = {_shown(entry)} is out of range"
        elif entry in first:
            fault = f"{what}[{k}] = {entry} repeats {what}[{first[entry]}]"
        else:
            first[entry] = k
            continue
        break
    else:
        fault = f"its length is {len(entries)}"
    raise MalformedWitnessError(f"{what} is not a {kind} of 0..{size - 1}: {fault}")


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
