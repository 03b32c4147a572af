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
coefficients and the covariance rule.  That rule enters the product
once per right term s_w g: the word w is walked once over all points to
the list of its end points sigma_w(x), and each product coefficient is
then read off in one pass, f(sigma_w(x)) g(x) at x.  The degree-k component map and its
Cesaro means (re-exported here) are computed by exact combinatorial
selection of the words of length k.  The circle-average description of those
projections motivates the definitions but plays no computational role
here; everything below is exact rational arithmetic.

A homomorphism between two such algebras is its partition witness:
:class:`CovariantHom` holds (gamma, alpha), and :func:`apply_hom` reads
each term's image off a walk of its word, multiplying nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

from .conjugacy import PartitionWitness, _invert, verify_witness
from .dynsys import FiniteSystem, Word, _int_in, check_colour, validate_word
from .scalars import ONE, ZERO, RationalComplex, _product
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
        return FunctionCoeff((RationalComplex.coerce(value),) * _int_in(size, "size", 0))

    @staticmethod
    def indicator(size: int, subset: Iterable[int]) -> "FunctionCoeff":
        """1 on the subset, whose items must be int points of 0..size-1, else 0."""
        _int_in(size, "size", 0)
        inside = {_int_in(x, "subset item", 0, size) for x in subset}
        return FunctionCoeff(tuple(ONE if x in inside else ZERO for x in range(size)))

    @staticmethod
    def one(size: int) -> "FunctionCoeff":
        return FunctionCoeff.constant(size, ONE)

    @property
    def size(self) -> int:
        return len(self.values)

    def __add__(self, other: "FunctionCoeff") -> "FunctionCoeff":
        if len(self.values) != len(other.values):
            _sizes_differ(self, other)
        return _coeff(tuple(map(add, self.values, other.values)))

    def __sub__(self, other: "FunctionCoeff") -> "FunctionCoeff":
        if len(self.values) != len(other.values):
            _sizes_differ(self, other)
        return _coeff(tuple(map(sub, self.values, other.values)))

    def __mul__(self, other: "FunctionCoeff | RationalComplex | int | Fraction") -> "FunctionCoeff":
        """Pointwise product; a scalar multiplies every value."""
        if not isinstance(other, FunctionCoeff):
            return self.scale(other)
        if len(self.values) != len(other.values):
            _sizes_differ(self, other)
        return _coeff(tuple(map(mul, self.values, other.values)))

    def __neg__(self) -> "FunctionCoeff":
        return _coeff(tuple(-a for a in self.values))

    def scale(self, value: RationalComplex | int | Fraction) -> "FunctionCoeff":
        c = RationalComplex.coerce(value)
        return _coeff(tuple(a * c for a in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def __bool__(self) -> bool:
        return any(self.values)


def _sizes_differ(f: FunctionCoeff, g: FunctionCoeff) -> None:
    raise ValueError(f"coefficients have {f.size} and {g.size} values; a pointwise operation needs equal sizes")


def _size_differs(f: FunctionCoeff, system: FiniteSystem) -> None:
    raise ValueError(f"coefficient has {f.size} values, system has {system.size} points")


_new = object.__new__
_set = object.__setattr__


def _coeff(values: tuple[RationalComplex, ...]) -> FunctionCoeff:
    """A :class:`FunctionCoeff` of values already a tuple of scalars, unscanned."""
    f = _new(FunctionCoeff)
    _set(f, "values", values)
    return f


def _ends(sys: FiniteSystem, word: Word) -> Sequence[int]:
    """sigma_w(x) for every point x, for a valid word (rightmost letter first)."""
    ends: Sequence[int] = range(sys.size)
    for letter in reversed(word):
        table = sys.tables[letter]
        ends = [table[y] for y in ends]
    return ends


def pullback(f: FunctionCoeff, word: Sequence[int], sys: FiniteSystem) -> FunctionCoeff:
    """f o sigma_w, the composition with the word's map (rightmost letter first)."""
    return _coeff(tuple(f.values[y] for y in _ends(sys, validate_word(sys, word))))


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
            if not isinstance(coeff, FunctionCoeff):
                raise TypeError(f"coefficient {coeff!r} is not a FunctionCoeff")
            if coeff.size != system.size:
                _size_differs(coeff, system)
            if not coeff.is_zero():
                clean[w] = coeff
        return SemicrossedElement(system=system, terms=clean)

    def _times(self, other: "SemicrossedElement") -> Callable[[FunctionCoeff], list[FunctionCoeff]]:
        # (c o sigma_w) d is c(sigma_w(x)) d(x) at x; the kernel passes only valid words.
        right = [(_ends(self.system, w), d.values) for w, d in other.terms.items()]

        def times(c: FunctionCoeff) -> list[FunctionCoeff]:
            # _coeff inlined: one frame per left term, none per term pair.
            at, out = c.values.__getitem__, []
            for ends, d in right:
                f = _new(FunctionCoeff)
                _set(f, "values", tuple(map(_product, map(at, ends), d)))
                out.append(f)
            return out

        return times

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
        if not isinstance(self.witness, PartitionWitness):
            raise TypeError(f"a hom is carried by a PartitionWitness, not {type(self.witness).__name__}")
        report = verify_witness(self.source, self.target, self.witness)
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
        """f o gamma^-1, for f on the source's points."""
        if f.size != self.source.size:
            _size_differs(f, self.source)
        return _coeff(tuple(f.values[x] for x in _invert(self.witness.gamma)))


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
            # A row is built only for a new word, so the walk stays linear.
            image = tuple(reversed(letters))
            if image not in cells:
                cells[image] = [ZERO] * hom.target.size
            cells[image][gamma[x]] = value
    # Each alpha_y permutes the colours, so every word is valid over the
    # target, and every cell holds a nonzero value: nothing to re-check.
    return SemicrossedElement(
        system=hom.target,
        terms={word: _coeff(tuple(values)) for word, values in cells.items()},
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
    forward = CovariantHom(a, b, witness)
    # The inverse of a verified witness verifies, so the reverse hom is
    # built without repeating the check.
    reverse = object.__new__(CovariantHom)
    reverse.__dict__.update(source=b, target=a, witness=witness.inverse())
    return forward, reverse
