"""Output checks written from the definitions, apart from dynalg.

A system is a plain tuple of map tables here: ``tables[i][x]`` is the
image of point x under map i.  Words act rightmost letter first.  Nothing
in this module imports dynalg; the checks read the program's outputs as
plain data (report JSON, or the attributes of returned objects).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def is_perm(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


# ---- matching notions ---------------------------------------------------------


def conjugates(a, b, gamma, beta) -> bool:
    """gamma o sigma_i = tau_{beta(i)} o gamma for every colour i."""
    n, m = len(a[0]), len(a)
    return (
        is_perm(gamma, n)
        and is_perm(beta, m)
        and all(gamma[a[i][x]] == b[beta[i]][gamma[x]] for i in range(m) for x in range(n))
    )


def matches_pointwise(a, b, gamma, alpha) -> bool:
    """gamma o sigma_i(x) = tau_{alpha_x(i)}(gamma x) at every point x."""
    n, m = len(a[0]), len(a)
    return (
        is_perm(gamma, n)
        and len(alpha) == n
        and all(is_perm(p, m) for p in alpha)
        and all(gamma[a[i][x]] == b[alpha[x][i]][gamma[x]] for i in range(m) for x in range(n))
    )


def partition_saturated(a, b, gamma, alpha) -> bool:
    """Pointwise matching plus the literal saturation of every V_{i,j}.

    V_{i,j} = {x : alpha_x(i) = j} must equal sigma_i^-1(sigma_i(V_{i,j}))
    and gamma^-1(tau_j^-1(tau_j(gamma(V_{i,j})))).
    """
    if not matches_pointwise(a, b, gamma, alpha):
        return False
    n, m = len(a[0]), len(a)
    for i in range(m):
        for j in range(m):
            v = {x for x in range(n) if alpha[x][i] == j}
            image = {a[i][x] for x in v}
            if {x for x in range(n) if a[i][x] in image} != v:
                return False
            tau_image = {b[j][gamma[x]] for x in v}
            if {x for x in range(n) if b[j][gamma[x]] in tau_image} != v:
                return False
    return True


def least_partition_witness(a, b):
    """Lexicographically least (gamma, alpha field) passing partition_saturated.

    Every bijection is enumerated in lexicographic order, skipping only
    those that break a necessary condition: gamma must send the multiset
    {sigma_i(x)} onto {tau_j(gamma x)} at every point.  Colour fields are
    enumerated in lexicographic order among the pointwise-admissible ones.
    """
    n, m = len(a[0]), len(a)
    perms = list(itertools.permutations(range(m)))
    # Points whose condition becomes checkable once 0..x are assigned.
    ready = [[] for _ in range(n)]
    for y in range(n):
        ready[max([y] + [a[i][y] for i in range(m)])].append(y)
    gamma = [0] * n
    used = [False] * n

    def fields():
        options = []
        for x in range(n):
            ok = [p for p in perms if all(gamma[a[i][x]] == b[p[i]][gamma[x]] for i in range(m))]
            if not ok:
                return
            options.append(ok)
        yield from itertools.product(*options)

    def extend(x):
        if x == n:
            for alpha in fields():
                if partition_saturated(a, b, gamma, alpha):
                    return tuple(gamma), tuple(alpha)
            return None
        for value in range(n):
            if used[value]:
                continue
            gamma[x] = value
            if all(
                sorted(gamma[a[i][y]] for i in range(m)) == sorted(b[j][gamma[y]] for j in range(m))
                for y in ready[x]
            ):
                used[value] = True
                found = extend(x + 1)
                used[value] = False
                if found is not None:
                    return found
        return None

    return extend(0)


# ---- invariants ------------------------------------------------------------------


def forgotten_indegrees(a) -> list[int]:
    """In-degrees of the out-multigraph with colours forgotten, sorted."""
    counts = [0] * len(a[0])
    for table in a:
        for y in table:
            counts[y] += 1
    return sorted(counts)


def colour_indegree_profile(a) -> list[list[int]]:
    """Per colour, the sorted in-degree sequence; the colours sorted."""
    out = []
    for table in a:
        counts = [0] * len(table)
        for y in table:
            counts[y] += 1
        out.append(sorted(counts))
    return sorted(out)


def local_signature(a, x: int) -> tuple[int, ...]:
    """In-degree multiset per (colour, target) of the graph on {x} u images of x."""
    hood = {x} | {table[x] for table in a}
    counts: dict[tuple[int, int], int] = {}
    for i, table in enumerate(a):
        for u in hood:
            if table[u] in hood:
                counts[(i, table[u])] = counts.get((i, table[u]), 0) + 1
    return tuple(sorted(counts.values()))


def signature_multiset(a) -> list[tuple[int, ...]]:
    return sorted(local_signature(a, x) for x in range(len(a[0])))


def refutation(mode: str, a, b):
    """Name of a certificate that no witness of ``mode`` exists, else None.

    The in-degree multiset of the colour-forgotten graph is necessary for
    piecewise matching and so for the two stronger notions; the local
    signature multiset for partition matching and conjugacy; the colour
    in-degree profile for conjugacy up to one recolouring.  In partition
    mode, exhaustive enumeration settles what the invariants leave open.
    """
    if forgotten_indegrees(a) != forgotten_indegrees(b):
        return "in-degree"
    if mode in ("partition", "conjugate") and signature_multiset(a) != signature_multiset(b):
        return "local-signature"
    if mode == "conjugate" and colour_indegree_profile(a) != colour_indegree_profile(b):
        return "colour-in-degree"
    if mode == "partition" and least_partition_witness(a, b) is None:
        return "exhaustive"
    return None


def collision_classes(a) -> list[set[int]]:
    """Points merged whenever two maps (or one) send them to a common point."""
    n = len(a[0])
    owner = list(range(n))

    def find(x):
        while owner[x] != x:
            owner[x] = owner[owner[x]]
            x = owner[x]
        return x

    first_hitter: dict[int, int] = {}
    for table in a:
        for x, y in enumerate(table):
            if y in first_hitter:
                owner[find(x)] = find(first_hitter[y])
            else:
                first_hitter[y] = x
    classes: dict[int, set[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), set()).add(x)
    return list(classes.values())


# ---- exact algebra -----------------------------------------------------------------

# An exact scalar is a pair (re, im) of Fractions; an element is a dict
# word -> tuple of scalars, one per point, with no all-zero coefficient.

ZERO = (Fraction(0), Fraction(0))


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def act(a, word, x: int) -> int:
    for letter in reversed(word):
        x = a[letter][x]
    return x


def triple_product(a, e1, e2, e3):
    """sum over u, v, w of s_{uvw} (f o sigma_{vw}) (g o sigma_w) h, expanded directly."""
    n = len(a[0])
    out: dict[tuple, list] = {}
    for u, f in e1.items():
        for v, g in e2.items():
            for w, h in e3.items():
                acc = out.setdefault(u + v + w, [ZERO] * n)
                for x in range(n):
                    term = cmul(cmul(f[act(a, v + w, x)], g[act(a, w, x)]), h[x])
                    acc[x] = cadd(acc[x], term)
    return {w: tuple(c) for w, c in out.items() if any(s != ZERO for s in c)}


def compression(a, subset, element):
    """Matrix entries (target, source) -> {edge word: scalar} of the compression.

    A term s_w f sends source x to the end of the path that follows w's
    letters (rightmost first) from x, provided the whole path stays in
    the subset; the entry picks up f(x) on the edge word listed outermost
    edge first.
    """
    inside = set(subset)
    out: dict[tuple[int, int], dict[tuple, tuple]] = {}
    for word, f in element.items():
        for x in sorted(inside):
            if f[x] == ZERO:
                continue
            edges = []
            y = x
            for letter in reversed(word):
                z = a[letter][y]
                if z not in inside:
                    break
                edges.append((y, z, letter))
                y = z
            else:
                entry = out.setdefault((y, x), {})
                key = tuple(reversed(edges))
                entry[key] = cadd(entry.get(key, ZERO), f[x])
    return {
        k: {w: c for w, c in entry.items() if c != ZERO}
        for k, entry in out.items()
        if any(c != ZERO for c in entry.values())
    }


def forward_generator_json(b_size: int, m: int, gamma, alpha, i: int):
    """Report form of the forward image of s_i: sum_j t_j chi_{gamma(V_{i,j})}."""
    out = []
    for j in range(m):
        image = {gamma[x] for x in range(len(alpha)) if alpha[x][i] == j}
        if image:
            out.append([[j], [["1" if y in image else "0", "0"] for y in range(b_size)]])
    return out


def reverse_generator_json(a_size: int, m: int, alpha, j: int):
    """Report form of the reverse image of t_j: sum_i s_i chi_{V_{i,j}}."""
    out = []
    for i in range(m):
        v = {x for x in range(len(alpha)) if alpha[x][i] == j}
        if v:
            out.append([[i], [["1" if x in v else "0", "0"] for x in range(a_size)]])
    return out


# ---- floating-point algebra -------------------------------------------------------


def fp_eval(terms, point) -> complex:
    """Character at a polyball point: each word gives the product of its coordinates."""
    total = 0j
    for word, coeff in terms.items():
        value = complex(coeff)
        for block, index in word:
            value *= point[block][index]
        total += value
    return total


def commutative_eval(abelian, point) -> complex:
    """Evaluate a multidegree dict with the slots in block-major order."""
    coords = [v for block in point for v in block]
    total = 0j
    for degree, coeff in abelian.items():
        value = complex(coeff)
        for c, d in zip(coords, degree, strict=True):
            value *= c**d
        total += value
    return total


def close(u: complex, v: complex, scale: float) -> bool:
    return abs(u - v) <= 1e-9 * (1.0 + scale)


def frac_linear(x: np.ndarray, lam) -> np.ndarray:
    """Fractional linear action of an (n+1)x(n+1) matrix in homogeneous form."""
    v = x @ np.concatenate(([1.0 + 0j], np.asarray(lam, dtype=complex)))
    return v[1:] / v[0]


def series_value(series, lam) -> complex:
    """sum_k c_k (shift . lam)^k times (affine . lam + scalar), from the factored form."""
    shift = sum(s * l for s, l in zip(series.shift, lam))
    affine = sum(s * l for s, l in zip(series.affine_vector, lam)) + series.affine_scalar
    return sum(c * shift**k for k, c in enumerate(series.inverse_coeffs)) * affine


def ball_samples(rng, n: int, count: int, radius: float) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
        out.append(v / np.linalg.norm(v) * radius * rng.random())
    return out


# ---- path space ------------------------------------------------------------------


def walk_dimension(a, subset, depth: int) -> int:
    """Vertices plus walks of length 1..depth in the restricted graph."""
    pts = sorted(set(subset))
    index = {x: k for k, x in enumerate(pts)}
    adj = np.zeros((len(pts), len(pts)), dtype=object)
    for table in a:
        for x in pts:
            if table[x] in index:
                adj[index[table[x]], index[x]] += 1
    total = len(pts)
    power = np.identity(len(pts), dtype=object)
    for _ in range(depth):
        power = adj.dot(power)
        total += int(power.sum())
    return total


def ranges_disjoint(a) -> bool:
    ranges = [set(t) for t in a]
    return all(not (ranges[i] & ranges[j]) for i, j in itertools.combinations(range(len(a)), 2))


def indegree_signature(a) -> list[int]:
    """Sorted multiset of in-degrees per (colour, target) over the whole system."""
    counts: dict[tuple[int, int], int] = {}
    for i, table in enumerate(a):
        for y in table:
            counts[(i, y)] = counts.get((i, y), 0) + 1
    return sorted(counts.values())
