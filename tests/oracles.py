"""Independent brute-force oracles and random generators for the tests.

Everything here is deliberately naive: plain nested loops over complete
search spaces, written from the definitions, with none of the pruning
or backtracking the library uses.  The deciders must agree with these.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from dynalg.dynsys import FiniteSystem, SubSystem
from dynalg.quotient import EdgeGenerator, FreeEdgePoly, QuotientMatrix
from dynalg.reps import CKReport, ColourDefect, FockPath
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


def brute_force_piecewise(a, b) -> Optional[tuple[tuple, tuple]]:
    """First witness in lexicographic (gamma, alpha-field) order, or None.

    The pointwise conditions are independent, so the first field in
    product order takes the first fitting permutation at every point.
    """
    perms = list(itertools.permutations(range(a.arity)))
    for gamma in itertools.permutations(range(a.size)):
        alpha = []
        for x in range(a.size):
            fitting = [
                p
                for p in perms
                if all(gamma[a.tables[i][x]] == b.tables[p[i]][gamma[x]] for i in range(a.arity))
            ]
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
            if all(
                gamma[a.tables[i][x]] == b.tables[beta[i]][gamma[x]]
                for i in range(a.arity)
                for x in range(a.size)
            ):
                return gamma, beta if allow_recolor else None
    return None


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

    Each function coefficient maps to the sum of its values times the
    point-mass images, each generator to its generator image, and s_w f
    to the product of these images in the order of the word.
    """
    gens = hom.generator_images
    acc = SemicrossedElement.zero(hom.target)
    for word, coeff in element.terms.items():
        image = FunctionCoeff.constant(hom.target.size, 0)
        for x, value in enumerate(coeff.values):
            if not value.is_zero():
                image = image + hom.point_mass_images[x].scale(value)
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
                edge = EdgeGenerator(x, y, colour)
                cells[(sub.points.index(y), xi)] = FreeEdgePoly.generator(edge)
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


def dense_edge_operator(fam, edge) -> np.ndarray:
    """S_e as a dense 0/1 matrix, built from the definition."""
    positions = {p: k for k, p in enumerate(fam.basis)}
    out = np.zeros((fam.dim, fam.dim), dtype=np.int64)
    for k, p in enumerate(fam.basis):
        if p.length < fam.depth and p.range_vertex == edge[0]:
            out[positions[FockPath(p.vertex, (edge,) + p.edges)], k] = 1
    return out


def dense_ck_report(fam) -> CKReport:
    """The path-space relations read off products of dense matrices.

    Cubic in the dimension; meant for depth <= 3.
    """
    graph = fam.graph
    sops = {e: dense_edge_operator(fam, e) for e in graph.edges}
    pops = {
        v: np.diag([1 if p.range_vertex == v else 0 for p in fam.basis]).astype(np.int64)
        for v in graph.vertices
    }
    interior = [k for k, p in enumerate(fam.basis) if p.length < fam.depth]

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
            in_edges = graph.in_edges(v, colour)
            if not in_edges:
                continue
            defect = pops[v] - sum(sops[e] @ sops[e].T for e in in_edges)
            vacua = []
            off_colour = []
            predicted = True
            if np.any(defect != np.diag(np.diag(defect))) or np.any(np.diag(defect) < 0):
                predicted = False
            for k, p in enumerate(fam.basis):
                if p.range_vertex != v:
                    if defect[k, k] != 0:
                        predicted = False
                    continue
                expected = 1 if (p.length == 0 or p.outer_colour != colour) else 0
                if defect[k, k] != expected:
                    predicted = False
                if defect[k, k] == 1:
                    (vacua if p.length == 0 else off_colour).append(k)
            mono = [
                k
                for k, p in enumerate(fam.basis)
                if p.length >= 1 and p.range_vertex == v and all(e[2] == colour for e in p.edges)
            ]
            if np.any(defect[np.ix_(mono, mono)]):
                monochrome_ok = False
            structure_ok = structure_ok and predicted
            defects.append(ColourDefect(colour, v, tuple(vacua), tuple(off_colour), predicted))
    return CKReport(initial_ok, orthogonality_ok, tuple(defects), structure_ok, monochrome_ok)
