"""Independent brute-force oracles and random generators for the tests.

Everything here is deliberately naive: plain nested loops over complete
search spaces, written from the definitions, with none of the pruning
or backtracking the library uses.  The deciders must agree with these.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from dynalg.conjugacy import WitnessFailure, WitnessReport
from dynalg.dynsys import EdgeColoredGraph, FiniteSystem, SubSystem, entry_signature, evaluate_word, restrict
from dynalg.freeprod import BallMobius, NCSeries, PolyballPoint, U1nMatrix, voiculescu_lift
from dynalg.quotient import FreeEdgePoly, QuotientMatrix
from dynalg.reps import CKReport, ColourDefect
from dynalg.semicrossed import FunctionCoeff, SemicrossedElement, pullback, sc_multiply

# Randomized property tests honour the optional SEED environment variable;
# the default keeps every run identical.
SEED_OFFSET = int(os.environ.get("SEED", "0"))


def make_rng(seed: int) -> random.Random:
    return random.Random(seed + SEED_OFFSET)


# ---- scalar oracle -------------------------------------------------------------

FractionPairLike = Union[int, Fraction, "FractionPairComplex"]


@dataclass(frozen=True)
class FractionPairComplex:
    """re + im*i held as two Fractions: the exact scalar as it was first
    written, kept as the reference for dynalg.scalars.RationalComplex."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def coerce(value: FractionPairLike) -> "FractionPairComplex":
        if isinstance(value, FractionPairComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionPairComplex(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as an exact complex scalar")

    # ---- field operations -------------------------------------------------

    def __add__(self, other: FractionPairLike) -> "FractionPairComplex":
        other = FractionPairComplex.coerce(other)
        return FractionPairComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: FractionPairLike) -> "FractionPairComplex":
        other = FractionPairComplex.coerce(other)
        return FractionPairComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: FractionPairLike) -> "FractionPairComplex":
        return FractionPairComplex.coerce(other) - self

    def __mul__(self, other: FractionPairLike) -> "FractionPairComplex":
        other = FractionPairComplex.coerce(other)
        return FractionPairComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: FractionPairLike) -> "FractionPairComplex":
        other = FractionPairComplex.coerce(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero scalar")
        return FractionPairComplex(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other: FractionPairLike) -> "FractionPairComplex":
        return FractionPairComplex.coerce(other) / self

    def __neg__(self) -> "FractionPairComplex":
        return FractionPairComplex(-self.re, -self.im)

    def __pow__(self, exponent: int) -> "FractionPairComplex":
        if exponent < 0:
            return FRACTION_PAIR_ONE / (self ** (-exponent))
        out = FRACTION_PAIR_ONE
        for _ in range(exponent):
            out = out * self
        return out

    # ---- structure ---------------------------------------------------------

    def conjugate(self) -> "FractionPairComplex":
        return FractionPairComplex(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


FRACTION_PAIR_ONE = FractionPairComplex(Fraction(1))


# ---- partition / conjugacy oracles ----------------------------------------


def intertwines_at(a, b, gamma, x, perm) -> bool:
    """gamma(sigma_i(x)) = tau_{perm(i)}(gamma(x)) for every colour i."""
    return all(gamma[a.tables[i][x]] == b.tables[perm[i]][gamma[x]] for i in range(a.arity))


def partition_conditions_hold(a, b, gamma, alpha) -> bool:
    """Literal set-form check of all witness conditions."""
    n = a.arity
    for i in range(n):
        for j in range(n):
            v = [x for x in range(a.size) if alpha[x][i] == j]
            for x in v:
                if gamma[a.tables[i][x]] != b.tables[j][gamma[x]]:
                    return False
            image = {a.tables[i][x] for x in v}
            if {x for x in range(a.size) if a.tables[i][x] in image} != set(v):
                return False
            tau_image = {b.tables[j][gamma[x]] for x in v}
            if {x for x in range(a.size) if b.tables[j][gamma[x]] in tau_image} != set(v):
                return False
    return True


def brute_force_partition(a, b) -> Optional[tuple[tuple, tuple]]:
    """First witness in lexicographic (gamma, alpha-field) order, or None."""
    if a.size != b.size or a.arity != b.arity:
        return None
    perms = list(itertools.permutations(range(a.arity)))
    for gamma in itertools.permutations(range(a.size)):
        for alpha in itertools.product(perms, repeat=a.size):
            if partition_conditions_hold(a, b, gamma, alpha):
                return gamma, alpha
    return None


def fitting_partition(a, b) -> Optional[tuple[tuple, tuple]]:
    """First partition witness in lexicographic (gamma, alpha-field) order, or None.

    Every gamma is tried in turn, and completed by :func:`pairwise_alpha_field`
    over the permutations that intertwine at each point.  A partition
    witness intertwines at every point, so the result is
    :func:`brute_force_partition`'s, found without listing the arity!^n
    fields that fail at some point: at arity 6 and n = 3 those are 720^3.
    A gamma is passed over at the first point where no permutation
    intertwines, before the later points are listed.
    """
    perms = list(itertools.permutations(range(a.arity)))
    for gamma in itertools.permutations(range(a.size)):
        fitting = []
        for x in range(a.size):
            fitting.append([p for p in perms if intertwines_at(a, b, gamma, x, p)])
            if not fitting[-1]:
                break
        else:
            field = pairwise_alpha_field(a, b, gamma, fitting)
            if field is not None:
                return gamma, field
    return None


def brute_force_piecewise(a, b) -> Optional[tuple[tuple, tuple]]:
    """First witness in lexicographic (gamma, alpha-field) order, or None.

    The pointwise conditions are independent, so the first field in
    product order takes the first fitting permutation at every point.
    """
    perms = list(itertools.permutations(range(a.arity)))
    for gamma in itertools.permutations(range(a.size)):
        alpha = []
        for x in range(a.size):
            fitting = [p for p in perms if intertwines_at(a, b, gamma, x, p)]
            if not fitting:
                break
            alpha.append(fitting[0])
        else:
            return gamma, tuple(alpha)
    return None


def brute_force_conjugate(a, b, allow_recolor=False) -> Optional[tuple[tuple, Optional[tuple]]]:
    """First (gamma, recolor) in lexicographic order, or None.

    Without ``allow_recolor`` only the identity recolouring is tried and
    the witness reports it as None.
    """
    if allow_recolor:
        recolourings = list(itertools.permutations(range(a.arity)))
    else:
        recolourings = [tuple(range(a.arity))]
    for gamma in itertools.permutations(range(a.size)):
        for beta in recolourings:
            if all(intertwines_at(a, b, gamma, x, beta) for x in range(a.size)):
                return gamma, beta if allow_recolor else None
    return None


def brute_force_injective(options) -> Optional[tuple[int, ...]]:
    """First tuple of distinct entries in product order of the sorted options, or None."""
    for choice in itertools.product(*(sorted(set(opts)) for opts in options)):
        if len(set(choice)) == len(choice):
            return choice
    return None


# ---- decider kernels in their pairwise, run-to-stability form ----------------


def restricted_local_signature(sys: FiniteSystem, x: int) -> tuple[int, ...]:
    """Entry signature of {x} u {images of x}, through an explicit sub-system."""
    return entry_signature(restrict(sys, {x} | {table[x] for table in sys.tables}))


def stable_refined_colours(a: FiniteSystem, b: FiniteSystem, seeds, ordered=False, keyed_preimages=None):
    """Joint colour refinement with sorted palettes, run until the classes stop growing.

    Each round keys a point by its colour, its image colours, sorted, or
    in map order when ``ordered``, and its sorted preimage colours, each
    paired with the index of the map that joins it when
    ``keyed_preimages`` (by default, when ``ordered``).
    """
    n = a.size
    if keyed_preimages is None:
        keyed_preimages = ordered
    out = [[t[x] for t in a.tables] for x in range(n)]
    out += [[t[x] + n for t in b.tables] for x in range(n)]
    into: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]  # (map, preimage)
    for u, targets in enumerate(out):
        for i, v in enumerate(targets):
            into[v].append((i, u))
    keys = seeds
    classes = 0
    while True:
        palette = {key: k for k, key in enumerate(sorted(set(keys)))}
        if len(palette) == classes:
            return colour[:n], colour[n:]
        classes = len(palette)
        colour = [palette[key] for key in keys]
        if sorted(colour[:n]) != sorted(colour[n:]):
            return None
        keys = [
            (
                colour[u],
                tuple(colour[v] for v in out[u]) if ordered else tuple(sorted(colour[v] for v in out[u])),
                tuple(sorted((i, colour[v]) if keyed_preimages else colour[v] for i, v in into[u])),
            )
            for u in range(2 * n)
        ]


def _inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def pairwise_alpha_field(a: FiniteSystem, b: FiniteSystem, gamma, options):
    """Least field from ``options`` meeting the preimage conditions, or None.

    Two points constrain each other only when they share a fibre, of some
    sigma_i or of some tau_j o gamma.  So the points fall into components
    linked by shared fibres, and the least field takes the least choice of
    every component.  Each component is searched on its own, its points in
    increasing order, each permutation tested against the earlier points
    that share a fibre with it.
    """
    fibres: dict = {}
    for i, table in enumerate(a.tables):
        for x in range(a.size):
            fibres.setdefault(("sigma", i, table[x]), []).append(x)
    for j, table in enumerate(b.tables):
        for x in range(a.size):
            fibres.setdefault(("tau", j, table[gamma[x]]), []).append(x)
    linked: list[set] = [set() for _ in range(a.size)]
    for points in fibres.values():
        for x in points:
            linked[x].update(points)
    chosen: list = [None] * a.size

    def fits(x, perm) -> bool:
        pinv = _inverse(perm)
        for y in sorted(linked[x]):
            if y >= x:
                break
            other, oinv = chosen[y], _inverse(chosen[y])
            for i in range(a.arity):
                if a.tables[i][x] == a.tables[i][y] and perm[i] != other[i]:
                    return False
            for j in range(a.arity):
                if b.tables[j][gamma[x]] == b.tables[j][gamma[y]] and pinv[j] != oinv[j]:
                    return False
        return True

    def extend(component, k) -> bool:
        if k == len(component):
            return True
        x = component[k]
        for perm in options[x]:
            if fits(x, perm):
                chosen[x] = perm
                if extend(component, k + 1):
                    return True
        chosen[x] = None
        return False

    seen: set = set()
    for start in range(a.size):
        if start in seen:
            continue
        component, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            component.append(x)
            for y in linked[x] - seen:
                seen.add(y)
                stack.append(y)
        if not extend(sorted(component), 0):
            return None
    return tuple(chosen)


def pairwise_verify_partition_witness(a: FiniteSystem, b: FiniteSystem, witness) -> WitnessReport:
    """The witness report with the preimage conditions tested on every pair of points.

    A preimage failure is listed for each pair (first point of a fibre,
    later point of that fibre) whose values differ, the first point found
    by scanning all points.  The literal saturation identities on the index
    sets V_{i,j} must fail exactly when such a pair is listed for their map.
    """
    gamma, alpha = witness.gamma, witness.alpha
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
    sigma_listed, tau_listed = set(), set()
    for i in range(n):
        for y in range(a.size):
            x = min(z for z in range(a.size) if a.tables[i][z] == a.tables[i][y])
            if alpha[x][i] != alpha[y][i]:
                sigma_listed.add(i)
                failures.append(
                    WitnessFailure(
                        "sigma-preimage",
                        f"sigma_{i} merges {x} and {y} but alpha_{x}({i}) = "
                        f"{alpha[x][i]} differs from alpha_{y}({i}) = {alpha[y][i]}",
                    )
                )
    inv = [_inverse(p) for p in alpha]
    for j in range(n):
        for y in range(a.size):
            x = min(z for z in range(a.size) if b.tables[j][gamma[z]] == b.tables[j][gamma[y]])
            if inv[x][j] != inv[y][j]:
                tau_listed.add(j)
                failures.append(
                    WitnessFailure(
                        "tau-preimage",
                        f"tau_{j} merges gamma({x}) and gamma({y}) but "
                        f"alpha_{x}^-1({j}) = {inv[x][j]} differs from "
                        f"alpha_{y}^-1({j}) = {inv[y][j]}",
                    )
                )
    gamma_inv = _inverse(gamma)
    sigma_unsaturated, tau_unsaturated = set(), set()
    for i in range(n):
        for j in range(n):
            v = {x for x, perm in enumerate(alpha) if perm[i] == j}
            sigma_image = {a.tables[i][x] for x in v}
            if {x for x in range(a.size) if a.tables[i][x] in sigma_image} != v:
                sigma_unsaturated.add(i)
            tau_image = {b.tables[j][gamma[x]] for x in v}
            if {gamma_inv[y] for y in range(b.size) if b.tables[j][y] in tau_image} != v:
                tau_unsaturated.add(j)
    assert sigma_unsaturated == sigma_listed and tau_unsaturated == tau_listed
    return WitnessReport(passed=not failures, failures=tuple(failures))


# ---- one-map canonical form ----------------------------------------------------
#
# With one map the only colour permutation is the identity, so conjugacy
# (with or without recolouring), piecewise matching and partition matching
# all coincide with isomorphism of the functional digraphs x -> t(x).


def least_rotation(seq: Sequence) -> int:
    """Booth's algorithm: where the least rotation of ``seq`` starts, in linear time."""
    double = list(seq) * 2
    fail = [-1] * len(double)
    k = 0
    for j in range(1, len(double)):
        c = double[j]
        i = fail[j - k - 1]
        while i != -1 and c != double[k + i + 1]:
            if c < double[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != double[k + i + 1]:  # here i == -1
            if c < double[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def one_map_canonical_form(table: Sequence[int], ids: dict) -> tuple:
    """A form two maps share exactly when their functional digraphs are isomorphic.

    Every in-tree gets its AHU code: the integer id, numbered in ``ids``,
    of the sorted codes of its children, so forms compare only under one
    shared ``ids``.  Trees are coded leaves first, each point once its
    preimages are, and the points never reached are the cycles.  A cycle
    gives the least rotation (Booth) of its points' codes read along the
    map, and the form is the sorted cycles.  Near-linear in the size.
    """
    n = len(table)
    waiting = [0] * n  # preimages not yet coded
    for y in table:
        waiting[y] += 1
    children: list[list[int]] = [[] for _ in range(n)]
    on_cycle = [True] * n
    ready = [x for x in range(n) if not waiting[x]]
    while ready:
        x = ready.pop()
        on_cycle[x] = False
        y = table[x]
        children[y].append(ids.setdefault(tuple(sorted(children[x])), len(ids)))
        waiting[y] -= 1
        if not waiting[y]:
            ready.append(y)
    cycles = []
    for x in range(n):
        codes = []
        while on_cycle[x]:
            on_cycle[x] = False
            codes.append(ids.setdefault(tuple(sorted(children[x])), len(ids)))
            x = table[x]
        if codes:
            k = least_rotation(codes)
            cycles.append(tuple(codes[k:] + codes[:k]))
    return tuple(sorted(cycles))


def random_mapping_pair(n: int) -> tuple[FiniteSystem, FiniteSystem]:
    """The random mapping t = [rng.randrange(n) for _ in range(n)], rng =
    random.Random(n), and its relabelling by random.Random(5).shuffle: a
    conjugate one-map pair, the most ordinary there is."""
    rng = random.Random(n)
    table = [rng.randrange(n) for _ in range(n)]
    gamma = list(range(n))
    random.Random(5).shuffle(gamma)
    relabelled = [0] * n
    for x, y in enumerate(table):
        relabelled[gamma[x]] = gamma[y]
    return FiniteSystem(n, (tuple(table),)), FiniteSystem(n, (tuple(relabelled),))


def cycle_pair(n: int, k: int, l: int, seed: int) -> tuple[FiniteSystem, FiniteSystem]:
    """One map of n/k disjoint k-cycles against one of n/l disjoint l-cycles.

    Each cycle runs over a block of consecutive points, and each system is
    then relabelled by a shuffle of random.Random(seed).  For one map every
    notion is conjugacy (the only colour permutation is the identity), and
    two permutations are conjugate exactly when their cycle types agree, so
    the pair is matched in every mode exactly when k = l.  In-degrees are
    all 1 on both sides, so that count never refutes it.
    """
    if n % k or n % l:
        raise ValueError(f"{k} and {l} must divide {n}")
    rng = random.Random(seed)

    def cycles(length: int) -> FiniteSystem:
        table = tuple(x + 1 if (x + 1) % length else x + 1 - length for x in range(n))
        return relabelled(FiniteSystem(n, (table,)), rng)

    return cycles(k), cycles(l)


def chain_pair(n: int, seed: int, refuted: bool = False) -> tuple[FiniteSystem, FiniteSystem]:
    """The chain x -> min(x + 1, n - 1) against its copy relabelled by a shuffle of
    random.Random(seed), or, when ``refuted``, against a relabelled chain whose last
    point is sent back to n - 2.

    For one map every notion is conjugacy.  The chain ends in a fixed point and
    the control in a 2-cycle, so the pair is matched in every mode exactly when
    not ``refuted``.  Both sides have the sorted in-degrees 0, 1, ..., 1, 2, so
    that count never refutes the control.  Refinement separates only a point or
    two per round here, so its round count grows with n.
    """
    chain = [min(x + 1, n - 1) for x in range(n)]
    tail = chain[:-1] + [n - 2] if refuted else chain
    return FiniteSystem(n, (tuple(chain),)), relabelled(FiniteSystem(n, (tuple(tail),)), random.Random(seed))


def one_map_conjugate(a: FiniteSystem, b: FiniteSystem) -> bool:
    """Whether two one-map systems are conjugate, by their canonical forms."""
    ids: dict = {}
    return one_map_canonical_form(a.tables[0], ids) == one_map_canonical_form(b.tables[0], ids)


# ---- random generators -----------------------------------------------------


def random_system(rng: random.Random, size: int, arity: int) -> FiniteSystem:
    return FiniteSystem(
        size=size,
        tables=tuple(
            tuple(rng.randrange(size) for _ in range(size)) for _ in range(arity)
        ),
    )


def scrambled_pair(
    rng: random.Random, size: int, arity: int, constant_recolor: bool = False
) -> tuple[FiniteSystem, FiniteSystem]:
    """A pair that is piecewise matchable by construction.

    The second system reads the first through a random point bijection
    and a colour permutation chosen per point (or one global one when
    ``constant_recolor``); partition matchability then depends on the
    preimage structure.
    """
    a = random_system(rng, size, arity)
    gamma = list(range(size))
    rng.shuffle(gamma)
    perms = list(itertools.permutations(range(arity)))
    if constant_recolor:
        shared = rng.choice(perms)
        fields = [shared] * size
    else:
        fields = [rng.choice(perms) for _ in range(size)]
    tables = [[0] * size for _ in range(arity)]
    for x in range(size):
        for i in range(arity):
            tables[fields[x][i]][gamma[x]] = gamma[a.tables[i][x]]
    b = FiniteSystem(size=size, tables=tuple(tuple(t) for t in tables))
    return a, b


def relabelled(system: FiniteSystem, rng: random.Random) -> FiniteSystem:
    """The system's copy under a point bijection drawn by ``rng.shuffle``, colours kept."""
    gamma = list(range(system.size))
    rng.shuffle(gamma)
    tables = [[0] * system.size for _ in system.tables]
    for i, table in enumerate(system.tables):
        for x, y in enumerate(table):
            tables[i][gamma[x]] = gamma[y]
    return FiniteSystem(size=system.size, tables=tuple(tuple(t) for t in tables))


def relabelled_pair(
    rng: random.Random, size: int, arity: int
) -> tuple[FiniteSystem, FiniteSystem]:
    """A random system and its copy under a random point bijection, colours kept.

    The pair is conjugate index by index, so every notion has a witness.
    """
    a = random_system(rng, size, arity)
    return a, relabelled(a, rng)


def repeated_map_system(rng: random.Random, size: int, arity: int) -> FiniteSystem:
    """A random system in which two or three of the maps (arity >= 2) are equal, at shuffled indices."""
    copies = rng.randint(2, min(3, arity))
    tables = [tuple(rng.randrange(size) for _ in range(size)) for _ in range(arity - copies + 1)]
    tables += [tables[0]] * (copies - 1)
    rng.shuffle(tables)
    return FiniteSystem(size=size, tables=tuple(tables))


def repeated_map_pair(
    rng: random.Random, size: int, arity: int, related: bool = True
) -> tuple[FiniteSystem, FiniteSystem]:
    """A :func:`repeated_map_system` and, when ``related``, its relabelled copy
    with the maps shuffled, so a --recolor witness exists and beta may send
    the equal maps of a to the equal maps of b in either order; else a
    second such system drawn independently.
    """
    a = repeated_map_system(rng, size, arity)
    if not related:
        return a, repeated_map_system(rng, size, arity)
    tables = list(relabelled(a, rng).tables)
    rng.shuffle(tables)
    return a, FiniteSystem(size=size, tables=tuple(tables))


def disjoint_union(*systems: FiniteSystem) -> FiniteSystem:
    """The systems side by side, each shifted past the points of those before it."""
    offsets = list(itertools.accumulate((s.size for s in systems), initial=0))
    return FiniteSystem(
        size=offsets[-1],
        tables=tuple(
            tuple(start + y for start, s in zip(offsets, systems) for y in s.tables[i])
            for i in range(systems[0].arity)
        ),
    )


def padded_pair(
    a: FiniteSystem, b: FiniteSystem, c: FiniteSystem, rng: random.Random
) -> tuple[FiniteSystem, FiniteSystem]:
    """a beside c against b beside a copy of c relabelled by ``rng``.

    Piecewise matching is isomorphism of the out-multigraphs, and a
    multigraph is the multiset of its connected components, so by
    cancellation (Lovasz, Acta Math. Hungar. 1967) the padded pair is
    piecewise matched exactly when (a, b) is.  Conjugacy and partition
    matching each imply piecewise matching, so a core pair the
    brute-force oracles refute gives a pair no mode matches at any size;
    with b = a the pair is conjugate by construction.
    """
    return disjoint_union(a, c), disjoint_union(b, relabelled(c, rng))


def indegrees(system: FiniteSystem) -> list[int]:
    """The number of (map, point) pairs landing on each point."""
    counts = Counter(y for table in system.tables for y in table)
    return [counts[x] for x in range(system.size)]


def indegree_shifted_pair(
    rng: random.Random, size: int, arity: int
) -> tuple[FiniteSystem, FiniteSystem]:
    """A :func:`relabelled_pair` in which the first entry of b's map 0 that
    misses b's point of largest in-degree is sent onto that point.

    b's largest in-degree grows by one, so the in-degree multisets differ
    and no notion has a witness.
    """
    a, b = relabelled_pair(rng, size, arity)
    degree = indegrees(b)
    top = degree.index(max(degree))
    table = list(b.tables[0])
    table[next(x for x, y in enumerate(table) if y != top)] = top
    return a, FiniteSystem(size=size, tables=(tuple(table),) + b.tables[1:])


def classed_pair(
    rng: random.Random, size: int, arity: int, classes: int
) -> tuple[FiniteSystem, FiniteSystem, tuple, tuple]:
    """A system, its copy under (gamma, alpha), and gamma and alpha, where
    (gamma, alpha) is a partition witness by construction.

    The points fall into ``classes`` blocks, and every map sends a block
    into an image block of its own, so points that share an image share a
    block.  The colour field is one permutation per block, so it is
    constant where any map merges points, in both systems; consecutive
    blocks take different permutations when there are two or more.
    """
    points, images = list(range(size)), list(range(size))
    rng.shuffle(points)
    rng.shuffle(images)
    cuts = [0] + sorted(rng.sample(range(1, size), classes - 1)) + [size]
    image_cuts = [0] + sorted(rng.sample(range(1, size), classes - 1)) + [size]
    perms = list(itertools.permutations(range(arity)))
    rng.shuffle(perms)
    tables = [[0] * size for _ in range(arity)]
    alpha = [None] * size
    for t in range(classes):
        targets, perm = images[image_cuts[t]:image_cuts[t + 1]], perms[t % len(perms)]
        for x in points[cuts[t]:cuts[t + 1]]:
            alpha[x] = perm
            for i in range(arity):
                tables[i][x] = rng.choice(targets)
    gamma = list(range(size))
    rng.shuffle(gamma)
    relabelled = [[0] * size for _ in range(arity)]
    for x in range(size):
        for i in range(arity):
            relabelled[alpha[x][i]][gamma[x]] = gamma[tables[i][x]]
    a = FiniteSystem(size=size, tables=tuple(tuple(t) for t in tables))
    b = FiniteSystem(size=size, tables=tuple(tuple(t) for t in relabelled))
    return a, b, tuple(gamma), tuple(alpha)


# ---- semicrossed oracles -----------------------------------------------------


def direct_triple_product(
    a: SemicrossedElement, b: SemicrossedElement, c: SemicrossedElement
) -> SemicrossedElement:
    """Closed-form expansion of a*b*c, bypassing the binary product."""
    sys = a.system
    terms = {}
    for u, f in a.terms.items():
        for v, g in b.terms.items():
            for w, h in c.terms.items():
                word = u + v + w
                coeff = pullback(f, v + w, sys) * pullback(g, w, sys) * h
                terms[word] = terms[word] + coeff if word in terms else coeff
    return SemicrossedElement.make(sys, terms)


def orbit_apply(element: SemicrossedElement, x: int, vector: dict) -> dict:
    """The orbit representation at x applied to a vector: pi_x(s_w f) e_u = f(sigma_u x) e_{wu}.

    ``vector`` maps words u to scalars.  The representation is
    multiplicative, so it checks products at any size through
    ``evaluate_word`` alone.  Zero entries are dropped.
    """
    out = {}
    for u, value in vector.items():
        y = evaluate_word(element.system, u, x)
        for w, f in element.terms.items():
            word, entry = w + u, f.values[y] * value
            out[word] = out[word] + entry if word in out else entry
    return {word: entry for word, entry in out.items() if entry}


def orbit_relabel(system: FiniteSystem, alpha, x: int, word) -> tuple:
    """U_x e_u = e_{u'}: each letter i of u, met at the point y its walk
    from x has reached (rightmost letter first), becomes alpha_y(i)."""
    return tuple(alpha[evaluate_word(system, word[k + 1:], x)][word[k]] for k in range(len(word)))


def pulled_product(p, q):
    """The kernel product formed pair by pair, with no preparation per right term.

    Each left coefficient of a semicrossed element is pulled back along the
    right word by the validating ``pullback`` and then multiplied by the
    right coefficient; free algebras multiply coefficients as they are.
    Equal words sum with left terms outermost, as in the kernel.
    """
    terms = {}
    for v, c in p.terms.items():
        for w, d in q.terms.items():
            pulled = pullback(c, w, p.system) if isinstance(p, SemicrossedElement) else c
            word, coeff = v + w, pulled * d
            terms[word] = terms[word] + coeff if word in terms else coeff
    return replace(p, terms={w: c for w, c in terms.items() if c})


def random_dyadic_poly(rng: random.Random, signature, max_degree=4, terms=4):
    """Random free-product polynomial with coefficients in (1/8)Z[i].

    Dyadic coefficients with small numerators make every product and sum
    exact in double precision, so abelianization cancels exactly when it
    should and is bounded away from zero when it does not.
    """
    from dynalg.freeprod import FPPoly

    slots = [(i, j) for i, n in enumerate(signature) for j in range(n)]
    out = {}
    for _ in range(terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice(slots) for _ in range(length))
        coeff = complex(rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 8)
        out[word] = out.get(word, 0) + coeff
    return FPPoly.make(signature, out)


def random_element(
    rng: random.Random, sys: FiniteSystem, max_degree: int, terms: int = 4
) -> SemicrossedElement:
    from dynalg.scalars import RationalComplex

    out = {}
    for _ in range(terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randrange(sys.arity) for _ in range(length))
        values = tuple(
            RationalComplex(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            for _ in range(sys.size)
        )
        coeff = FunctionCoeff(values)
        out[word] = out[word] + coeff if word in out else coeff
    return SemicrossedElement.make(sys, out)


def multiplicative_hom_image(hom, element: SemicrossedElement) -> SemicrossedElement:
    """A hom's image of an element as a product of images, one letter at a time.

    The images are the paper's, built here from the witness alone and not
    read off the hom: the point mass at x maps to chi_{gamma(x)}, and the
    generator s_i to sum_j t_j chi_{gamma(V_{i,j})} with V_{i,j} from
    ``witness.index_set``.  Each function coefficient maps to the sum of
    its values times the point-mass images, and s_w f to the product of
    these images in the order of the word.
    """
    witness, size, arity = hom.witness, hom.target.size, hom.source.arity
    point_masses = [FunctionCoeff.indicator(size, {y}) for y in witness.gamma]
    gens = [
        SemicrossedElement.make(hom.target, {
            (j,): FunctionCoeff.indicator(size, {witness.gamma[x] for x in witness.index_set(i, j)})
            for j in range(arity)
        })
        for i in range(arity)
    ]
    acc = SemicrossedElement.zero(hom.target)
    for word, coeff in element.terms.items():
        image = FunctionCoeff.constant(size, 0)
        for x, value in enumerate(coeff.values):
            if not value.is_zero():
                image = image + point_masses[x].scale(value)
        term = SemicrossedElement.from_function(hom.target, image)
        for letter in reversed(word):
            term = sc_multiply(gens[letter], term)
        acc = acc + term
    return acc


# ---- quotient oracle ---------------------------------------------------------


def matrix_product_quotient(sub: SubSystem, element: SemicrossedElement) -> QuotientMatrix:
    """The compression as a product of matrices, one letter at a time.

    Each colour generator becomes the matrix with one edge generator per
    defined entry of the subset's partial map, each function coefficient
    becomes the diagonal of its values on the subset, and s_w f maps to
    the product of these matrices in the order of the word.
    """
    n = len(sub.points)
    zero = FreeEdgePoly.zero()

    def matrix(cells: dict[tuple[int, int], FreeEdgePoly]) -> QuotientMatrix:
        return QuotientMatrix(
            sub.points,
            tuple(tuple(cells.get((y, x), zero) for x in range(n)) for y in range(n)),
        )

    inside = set(sub.points)
    gens = []
    for colour, table in enumerate(sub.parent.tables):
        cells = {}
        for xi, x in enumerate(sub.points):
            y = table[x]
            if y in inside:
                cells[(sub.points.index(y), xi)] = FreeEdgePoly.generator((x, y, colour))
        gens.append(matrix(cells))
    acc = matrix({})
    for word, coeff in element.terms.items():
        diagonal = {(k, k): FreeEdgePoly.scalar(coeff.values[x]) for k, x in enumerate(sub.points)}
        m = matrix(diagonal)
        for letter in reversed(word):
            m = gens[letter] @ m
        acc = acc + m
    return acc


# ---- path-space oracle ---------------------------------------------------------


def in_edges(graph: EdgeColoredGraph, vertex: int, colour: int) -> tuple:
    """The edges of one colour arriving at the vertex, by a scan of all edges."""
    return tuple(e for e in graph.edges if e[1] == vertex and e[2] == colour)


def path_range(path: tuple) -> int:
    """The range vertex of a (vertex, edges) path: the target of its outer
    edge, or the vertex of a vacuum."""
    vertex, edges = path
    return edges[0][1] if edges else vertex


def outer_colour(path: tuple):
    """The colour of a path's outer edge; None for a vacuum."""
    edges = path[1]
    return edges[0][2] if edges else None


def sorted_fock_basis(graph: EdgeColoredGraph, depth: int) -> tuple:
    """Every composable path of length <= depth plus the vacua, enumerated then sorted."""
    by_source: dict[int, list] = {}
    for e in graph.edges:
        by_source.setdefault(e[0], []).append(e)
    paths = [(v, ()) for v in graph.vertices]
    frontier = list(paths)
    for _ in range(depth):
        if not frontier:
            break
        frontier = [
            (p[0], (e,) + p[1]) for p in frontier for e in by_source.get(path_range(p), [])
        ]
        paths.extend(frontier)
    paths.sort(key=lambda p: (len(p[1]), p[1], p[0]))
    return tuple(paths)


def scan_edge_map(fam, edge) -> dict[int, int]:
    """S_e as a partial map of basis positions, by a scan of the whole basis."""
    positions = {p: k for k, p in enumerate(fam.basis)}
    out = {}
    for k, p in enumerate(fam.basis):
        vertex, edges = p
        if len(edges) < fam.depth and path_range(p) == edge[0]:
            extended = (vertex, (edge,) + edges)
            if extended not in positions:
                raise ValueError(f"the basis lacks the path {extended}")
            out[k] = positions[extended]
    return out


def scan_ck_report(fam) -> CKReport:
    """The path-space relations read off per-edge scans of the basis.

    Quadratic: a scan per edge, and per (colour, vertex) a scan of the
    basis and of the edges.
    """
    graph = fam.graph
    maps = {e: scan_edge_map(fam, e) for e in graph.edges}
    initial_ok = all(len(set(m.values())) == len(m) for m in maps.values())
    images = [set(maps[e].values()) for e in graph.edges]
    orthogonality_ok = sum(map(len, images)) == len(set().union(*images))

    defects = []
    structure_ok = True
    monochrome_ok = True
    for colour in range(graph.colours):
        for v in graph.vertices:
            arriving = in_edges(graph, v, colour)
            if not arriving:
                continue
            covered = Counter(k for e in arriving for k in maps[e].values())
            vacua = []
            off_colour = []
            predicted = True
            for k, p in enumerate(fam.basis):
                if path_range(p) != v:
                    continue
                length = len(p[1])
                defect = 1 - covered[k]
                expected = 1 if (length == 0 or outer_colour(p) != colour) else 0
                if defect != expected:
                    predicted = False
                if defect == 1:
                    (vacua if length == 0 else off_colour).append(k)
                if defect != 0 and length >= 1 and all(e[2] == colour for e in p[1]):
                    monochrome_ok = False
            structure_ok = structure_ok and predicted
            defects.append(ColourDefect(colour, v, tuple(vacua), tuple(off_colour), predicted))
    return CKReport(initial_ok, orthogonality_ok, tuple(defects), structure_ok, monochrome_ok)


def dense_edge_operator(fam, edge) -> np.ndarray:
    """S_e as a dense 0/1 matrix, built from the definition."""
    positions = {p: k for k, p in enumerate(fam.basis)}
    out = np.zeros((fam.dim, fam.dim), dtype=np.int64)
    for k, p in enumerate(fam.basis):
        vertex, edges = p
        if len(edges) < fam.depth and path_range(p) == edge[0]:
            out[positions[(vertex, (edge,) + edges)], k] = 1
    return out


def range_positions(fam, vertex: int) -> list[int]:
    """The basis positions of the paths with range ``vertex``, by a scan of the basis."""
    if vertex not in fam.graph.vertices:
        raise ValueError(f"{vertex} is not a vertex of the graph")
    return [k for k, p in enumerate(fam.basis) if path_range(p) == vertex]


def vertex_projection(fam, vertex: int) -> np.ndarray:
    """P_v as a dense 0/1 diagonal matrix: the basis paths with range v."""
    out = np.zeros((fam.dim, fam.dim), dtype=np.int64)
    for k in range_positions(fam, vertex):
        out[k, k] = 1
    return out


def compress_block(fam, mat: np.ndarray, source: int, target: int) -> np.ndarray:
    """The (target, source) block of a matrix graded by the path ranges."""
    rows = range_positions(fam, target)
    cols = range_positions(fam, source)
    m = np.asarray(mat)
    if m.shape != (fam.dim, fam.dim):
        raise ValueError(f"matrix must be {fam.dim}x{fam.dim} over the path basis")
    return m[np.ix_(rows, cols)]


def dense_ck_report(fam) -> CKReport:
    """The path-space relations read off products of dense matrices.

    Cubic in the dimension; meant for depth <= 3.
    """
    graph = fam.graph
    sops = {e: dense_edge_operator(fam, e) for e in graph.edges}
    pops = {
        v: np.diag([1 if path_range(p) == v else 0 for p in fam.basis]).astype(np.int64)
        for v in graph.vertices
    }
    interior = [k for k, (_, edges) in enumerate(fam.basis) if len(edges) < fam.depth]

    initial_ok = True
    for e in graph.edges:
        gram = sops[e].T @ sops[e]
        target = pops[e[0]]
        if not np.array_equal(gram[np.ix_(interior, interior)], target[np.ix_(interior, interior)]):
            initial_ok = False

    orthogonality_ok = True
    for e, f in itertools.combinations(graph.edges, 2):
        if np.any(sops[e].T @ sops[f]):
            orthogonality_ok = False

    defects = []
    structure_ok = True
    monochrome_ok = True
    for colour in range(graph.colours):
        for v in graph.vertices:
            arriving = in_edges(graph, v, colour)
            if not arriving:
                continue
            defect = pops[v] - sum(sops[e] @ sops[e].T for e in arriving)
            vacua = []
            off_colour = []
            predicted = True
            if np.any(defect != np.diag(np.diag(defect))) or np.any(np.diag(defect) < 0):
                predicted = False
            for k, p in enumerate(fam.basis):
                if path_range(p) != v:
                    if defect[k, k] != 0:
                        predicted = False
                    continue
                length = len(p[1])
                expected = 1 if (length == 0 or outer_colour(p) != colour) else 0
                if defect[k, k] != expected:
                    predicted = False
                if defect[k, k] == 1:
                    (vacua if length == 0 else off_colour).append(k)
            mono = [
                k
                for k, p in enumerate(fam.basis)
                if p[1] and path_range(p) == v and all(e[2] == colour for e in p[1])
            ]
            if np.any(defect[np.ix_(mono, mono)]):
                monochrome_ok = False
            structure_ok = structure_ok and predicted
            defects.append(ColourDefect(colour, v, tuple(vacua), tuple(off_colour), predicted))
    return CKReport(initial_ok, orthogonality_ok, tuple(defects), structure_ok, monochrome_ok)


# ---- ball samples and the lift check, one sample at a time ----------------------


def looped_ball_samples(rng: random.Random, n: int, count: int, radius: float = 0.9) -> list:
    """Open-ball samples drawn and scaled one at a time, as the sampler was
    first written: the reference for dynalg.freeprod.sample_ball_points."""
    points = []
    for _ in range(count):
        vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
        norm = np.linalg.norm(vec)
        if norm == 0:
            points.append(tuple(0j for _ in range(n)))
            continue
        scale = radius * rng.random() ** (1.0 / (2 * n))
        points.append(tuple(vec / norm * scale))
    return points


def mobius_formula_apply(m: BallMobius, point: Sequence[complex]) -> np.ndarray:
    """The automorphism at a point by the involution formula, with no matrix:
    the reference for dynalg.freeprod.mobius_apply and frac_linear.

    With P the projection onto the centre a, Q = I - P and s = sqrt(1 - |a|^2),
    the involution sends lambda to (a - P lambda - s Q lambda) / (1 - <lambda, a>),
    and -lambda when a = 0; the unitary then acts on the left.
    """
    lam = np.asarray(point, dtype=complex)
    a = m.a
    norm_a_sq = float(np.vdot(a, a).real)
    if norm_a_sq == 0.0:
        base = -lam
    else:
        s = math.sqrt(1.0 - norm_a_sq)
        proj = (np.vdot(a, lam) / norm_a_sq) * a  # component of lam along a
        base = (a - proj - s * (lam - proj)) / (1.0 - np.vdot(a, lam))
    return m.unitary @ base


def truncated_series_value(series: NCSeries, point: PolyballPoint) -> complex:
    """The series at a point as its truncated sum, term by term."""
    lam = point.blocks[0]
    shift_value = sum(s * l for s, l in zip(series.shift, lam))
    affine_value = sum(v * l for v, l in zip(series.affine_vector, lam)) + series.affine_scalar
    geometric = 0j
    power = 1 + 0j
    for k in range(series.order + 1):
        geometric += series.x0_bar ** (-k - 1) * power
        power *= shift_value
    return geometric * affine_value


def looped_lift_deviation(x: U1nMatrix, order: int, samples) -> float:
    """The lift check one sample at a time: each sample becomes a point,
    every series is summed term by term there, and X^-1 = J X* J acts by
    (Y1 lambda + y2) / (y0 + <lambda, y1>)."""
    series = voiculescu_lift(x, order)
    j = np.diag([1.0] + [-1.0] * x.n)
    y = j @ x.matrix.conj().T @ j
    deviation = 0.0
    for p in samples:
        point = PolyballPoint((tuple(p),))
        lam = np.array(point.blocks[0])
        mu = np.array([truncated_series_value(s, point) for s in series])
        image = (y[1:, 1:] @ lam + y[1:, 0]) / (y[0, 0] + np.vdot(y[0, 1:].conj(), lam))
        deviation = max(deviation, float(np.max(np.abs(mu - image))))
    return deviation


# ---- the truncated Fock space over words, independent of dynalg.reps ------------


def fock_words(n: int, depth: int) -> list[tuple[int, ...]]:
    """The words in the letters 0..n-1 of length <= depth, by length, then lexicographically."""
    words, level = [()], [()]
    for _ in range(depth):
        level = [(j,) + w for j in range(n) for w in level]
        words += level
    return words


def creation_maps(n: int, depth: int) -> list[dict[int, int]]:
    """Left creation L_j e_w = e_{jw} compressed to the words of length <= depth,
    one partial map of positions in :func:`fock_words` per letter j."""
    words = fock_words(n, depth)
    position = {w: k for k, w in enumerate(words)}
    return [{k: position[(j,) + w] for k, w in enumerate(words) if len(w) < depth} for j in range(n)]


def creation_operators(n: int, depth: int) -> list[np.ndarray]:
    """The maps of :func:`creation_maps` as dense 0/1 matrices."""
    dim = len(fock_words(n, depth))
    ops = []
    for pairs in creation_maps(n, depth):
        op = np.zeros((dim, dim))
        op[list(pairs.values()), list(pairs.keys())] = 1.0
        ops.append(op)
    return ops


def lift_at(x: U1nMatrix, row: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The lifted generators of ``x`` with the square matrices ``row`` in place of the L_k.

    Each :func:`voiculescu_lift` series is read from its factored fields as
    (x0_bar I - sum_k shift_k R_k)^-1 (sum_k affine_vector_k R_k + affine_scalar I),
    the inverse solved exactly.  At the creation operators of a truncated
    Fock space the shift part is nilpotent, so this is the series summed
    to any order at least the depth, with no tail.
    """
    eye = np.eye(len(row[0]))
    out = []
    for s in voiculescu_lift(x, 0):  # every field but the order and tail is order-free
        shift = sum(c * r for c, r in zip(s.shift, row))
        affine = sum(c * r for c, r in zip(s.affine_vector, row)) + s.affine_scalar * eye
        out.append(np.linalg.solve(s.x0_bar * eye - shift, affine))
    return out
