"""Normal-form symbolic arithmetic for covariant polynomials.

An element is a finite sum  sum_w s_w f_w  where w runs over words in
the colour generators s_0, ..., s_{n-1} of a finite system and each f_w
is a function on the points with exact complex-rational values.  The
defining rewriting rule

    f * s_i  =  s_i * (f o sigma_i)

pushes every function coefficient to the right of the generators, so
the product of two normal forms is again a normal form:

    (s_v f) (s_w g)  =  s_{vw} (f o sigma_w) g.

Equality of elements is literal equality of their term maps; no norms
or adjoints are defined at this level (they belong to the concrete
matrix representations in :mod:`dynalg.reps`).

The sum, product and degree calculus are the shared word-polynomial
kernel of :mod:`dynalg.wordpoly`; this module adds the function
coefficients and the covariance rule, which enters the product only
through :func:`pullback`.  The degree-k component map and its Cesaro
means (re-exported here) are computed by exact combinatorial selection
of the words of length k.  The circle-average description of those
projections motivates the definitions but plays no computational role
here; everything below is exact rational arithmetic.

A homomorphism between two such algebras is its partition witness:
:class:`CovariantHom` holds (gamma, alpha), and :func:`apply_hom` reads
each term's image off a walk of its word, multiplying nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .conjugacy import PartitionWitness, verify_partition_witness
from .dynsys import FiniteSystem, Word, check_colour, validate_word
from .scalars import ONE, ZERO, RationalComplex
from .wordpoly import WordPoly, cesaro_mean, fourier_component, reweight_letters


@dataclass(frozen=True)
class FunctionCoeff:
    """A function on the points of a system, as a tuple of exact scalars."""

    values: tuple[RationalComplex, ...]

    def __post_init__(self) -> None:
        values = self.values
        if type(values) is not tuple or any(type(v) is not RationalComplex for v in values):
            object.__setattr__(self, "values", tuple(RationalComplex.coerce(v) for v in values))

    @staticmethod
    def constant(size: int, value: RationalComplex | int | Fraction) -> "FunctionCoeff":
        return FunctionCoeff((RationalComplex.coerce(value),) * size)

    @staticmethod
    def indicator(size: int, subset: Iterable[int]) -> "FunctionCoeff":
        inside = set(subset)
        return FunctionCoeff(tuple(ONE if x in inside else ZERO for x in range(size)))

    @staticmethod
    def one(size: int) -> "FunctionCoeff":
        return FunctionCoeff.constant(size, ONE)

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, x: int) -> RationalComplex:
        return self.values[x]

    def __add__(self, other: "FunctionCoeff") -> "FunctionCoeff":
        return FunctionCoeff(tuple(a + b for a, b in zip(self.values, other.values, strict=True)))

    def __sub__(self, other: "FunctionCoeff") -> "FunctionCoeff":
        return FunctionCoeff(tuple(a - b for a, b in zip(self.values, other.values, strict=True)))

    def __mul__(self, other: "FunctionCoeff | RationalComplex | int | Fraction") -> "FunctionCoeff":
        """Pointwise product; a scalar multiplies every value."""
        if not isinstance(other, FunctionCoeff):
            return self.scale(other)
        return FunctionCoeff(tuple(a * b for a, b in zip(self.values, other.values, strict=True)))

    def __neg__(self) -> "FunctionCoeff":
        return FunctionCoeff(tuple(-a for a in self.values))

    def scale(self, value: RationalComplex | int | Fraction) -> "FunctionCoeff":
        c = RationalComplex.coerce(value)
        return FunctionCoeff(tuple(a * c for a in self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __bool__(self) -> bool:
        return not self.is_zero()


def pullback(f: FunctionCoeff, word: Sequence[int], sys: FiniteSystem) -> FunctionCoeff:
    """f o sigma_w, the composition with the word's map (rightmost letter first)."""
    ends: Sequence[int] = range(sys.size)
    for letter in reversed(validate_word(sys, word)):
        table = sys.tables[letter]
        ends = [table[y] for y in ends]
    return FunctionCoeff(tuple(f.values[y] for y in ends))


@dataclass(frozen=True, eq=True)
class SemicrossedElement(WordPoly):
    """A normal-form polynomial sum_w s_w f_w over a finite system.

    ``terms`` never stores a zero coefficient, so two elements are
    equal exactly when their term maps coincide.
    """

    system: FiniteSystem
    terms: dict[Word, FunctionCoeff]

    __hash__ = WordPoly.__hash__

    @staticmethod
    def make(system: FiniteSystem, terms: dict[Word, FunctionCoeff]) -> "SemicrossedElement":
        clean: dict[Word, FunctionCoeff] = {}
        for word, coeff in terms.items():
            w = validate_word(system, word)
            if coeff.size != system.size:
                raise ValueError(
                    f"coefficient has {coeff.size} values, system has {system.size} points"
                )
            if not coeff.is_zero():
                clean[w] = coeff
        return SemicrossedElement(system=system, terms=clean)

    def _past(self, coeff: FunctionCoeff, word: Word) -> FunctionCoeff:
        return pullback(coeff, word, self.system)

    @staticmethod
    def zero(system: FiniteSystem) -> "SemicrossedElement":
        return SemicrossedElement.make(system, {})

    @staticmethod
    def unit(system: FiniteSystem) -> "SemicrossedElement":
        return SemicrossedElement.make(system, {(): FunctionCoeff.one(system.size)})

    @staticmethod
    def from_function(system: FiniteSystem, f: FunctionCoeff) -> "SemicrossedElement":
        return SemicrossedElement.make(system, {(): f})

    @staticmethod
    def generator(system: FiniteSystem, colour: int) -> "SemicrossedElement":
        word = (check_colour(system, colour),)
        return SemicrossedElement.make(system, {word: FunctionCoeff.one(system.size)})

    @staticmethod
    def monomial(system: FiniteSystem, word: Sequence[int], f: FunctionCoeff) -> "SemicrossedElement":
        return SemicrossedElement.make(system, {tuple(word): f})

    def __repr__(self) -> str:
        if not self.terms:
            return "SemicrossedElement(0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            head = "s" + "".join(str(l) for l in word) if word else "1"
            parts.append(f"{head}*{[str(v) for v in coeff.values]}")
        return "SemicrossedElement(" + " + ".join(parts) + ")"


def sc_multiply(a: SemicrossedElement, b: SemicrossedElement) -> SemicrossedElement:
    """Product in normal form: (s_v f)(s_w g) = s_{vw} (f o sigma_w) g."""
    return a * b


def gauge(a: SemicrossedElement, zs: Sequence[RationalComplex]) -> SemicrossedElement:
    """Scale the generators: s_w f picks up the product of z over w's letters.

    Each |z_i| must be at most 1 (checked exactly on the squared
    modulus), which keeps the map completely contractive in any
    representation; with every z_i nonzero it is injective on normal
    forms, one nonzero scalar per term.
    """
    if len(zs) != a.system.arity:
        raise ValueError(f"need {a.system.arity} gauge parameters, got {len(zs)}")
    zs = [RationalComplex.coerce(z) for z in zs]
    for z in zs:
        if z.abs_sq() > 1:
            raise ValueError(f"gauge parameter {z} lies outside the closed unit disc")
    return reweight_letters(a, zs.__getitem__)


@dataclass(frozen=True)
class CovariantHom:
    """The homomorphism carried by a partition witness: the hom is its witness.

    With V_{i,j} = {x : alpha_x(i) = j} it sends f to f o gamma^-1 and
    s_i to sum_j t_j chi_{gamma(V_{i,j})}.  :func:`apply_hom` reads
    images off walks, which match the multiplicative extension only for
    an intertwining witness, so the witness is verified on construction.
    The images of point masses and generators are derived views, which
    :func:`covariance_defects` checks independently.
    """

    source: FiniteSystem
    target: FiniteSystem
    witness: PartitionWitness

    def __post_init__(self) -> None:
        report = verify_partition_witness(self.source, self.target, self.witness)
        if not report.passed:
            conditions = ", ".join(sorted({f.condition for f in report.failures}))
            raise ValueError(f"witness fails verification: {conditions}")

    @property
    def point_mass_images(self) -> tuple[FunctionCoeff, ...]:
        return tuple(FunctionCoeff.indicator(self.target.size, {y}) for y in self.witness.gamma)

    @property
    def generator_images(self) -> tuple[SemicrossedElement, ...]:
        w, size, arity = self.witness, self.target.size, self.source.arity
        return tuple(
            SemicrossedElement.make(self.target, {
                (j,): FunctionCoeff.indicator(size, {w.gamma[x] for x in w.index_set(i, j)})
                for j in range(arity)
            })
            for i in range(arity)
        )

    def function_image(self, f: FunctionCoeff) -> FunctionCoeff:
        """f o gamma^-1."""
        return FunctionCoeff(tuple(f.values[x] for x in self.witness.inverse().gamma))


def identity_hom(system: FiniteSystem) -> CovariantHom:
    identity = tuple(range(system.arity))
    witness = PartitionWitness(gamma=tuple(range(system.size)), alpha=(identity,) * system.size)
    return CovariantHom(system, system, witness)


def apply_hom(hom: CovariantHom, a: SemicrossedElement) -> SemicrossedElement:
    """Read the image of each term off a walk through the witness.

    Each term s_w f is walked from every x with f(x) != 0, rightmost
    letter first; at each point y passed, letter i becomes alpha_y(i),
    and the term adds f(x) at gamma(x) on the resulting word.
    """
    if a.system != hom.source:
        raise ValueError("element lives over a different system than the hom's source")
    tables = hom.source.tables
    gamma, alpha = hom.witness.gamma, hom.witness.alpha
    cells: dict[Word, list[RationalComplex]] = {}
    for word, coeff in a.terms.items():
        for x, value in enumerate(coeff.values):
            if value.is_zero():
                continue
            y, letters = x, []
            for letter in reversed(word):
                letters.append(alpha[y][letter])
                y = tables[letter][y]
            # gamma(x) fixes x and each alpha_y is a permutation, so no two
            # (term, point) pairs land on the same word at the same point.
            values = cells.setdefault(tuple(reversed(letters)), [ZERO] * hom.target.size)
            values[gamma[x]] = value
    return SemicrossedElement.make(
        hom.target, {word: FunctionCoeff(tuple(values)) for word, values in cells.items()}
    )


def covariance_defects(hom: CovariantHom) -> list[tuple[int, int]]:
    """All (colour, point) pairs where the covariance relation fails."""

    def image(f: FunctionCoeff) -> SemicrossedElement:
        return SemicrossedElement.from_function(hom.target, hom.function_image(f))

    defects = []
    for i, hi in enumerate(hom.generator_images):
        for x in range(hom.source.size):
            chi = FunctionCoeff.indicator(hom.source.size, {x})
            lhs = sc_multiply(image(chi), hi)
            if lhs != sc_multiply(hi, image(pullback(chi, (i,), hom.source))):
                defects.append((i, x))
    return defects


def partition_isomorphism(
    a: FiniteSystem, b: FiniteSystem, witness: PartitionWitness
) -> tuple[CovariantHom, CovariantHom]:
    """The mutually inverse hom pair of a witness and of its inverse.

    The reverse map sends f to f o gamma and t_j to sum_i s_i chi_{V_{i,j}}.
    An invalid witness raises ``ValueError``.
    """
    return CovariantHom(a, b, witness), CovariantHom(b, a, witness.inverse())
