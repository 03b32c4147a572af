"""Free-product polynomial algebra, polyball characters and ball maps.

Polynomials live in free generators arranged in blocks: block i carries
n_i generators, words concatenate freely across blocks, and nothing
commutes.  The multiplicative functionals of the (completed) algebra
are the point evaluations at tuples of vectors drawn from the closed
unit balls, one per block; evaluating a word multiplies the coordinates
of its letters.  Abelianizing collapses each word to its commutative
multidegree, and a polynomial evaluates to zero at every such point
exactly when its abelianization vanishes.  Sums, products and the degree
calculus come from the shared kernel in :mod:`dynalg.wordpoly`.

The second half implements automorphisms of the unit ball as fractional
linear maps.  A ball automorphism factors as a vector Moebius involution
followed by a unitary; it is encoded by a matrix X in U(1, n), i.e.
X* J X = J with J = diag(1, -1, ..., -1), acting on the ball by

    lambda  |->  (X1 lambda + eta2) / (x0 + <lambda, eta1>)

where X = [[x0, eta1*], [eta2, X1]] in block form.  Such a matrix lifts
to a degree-truncated noncommutative power series per generator via the
geometric-series expansion of (conj(x0) I - L_{conj(eta2)})^{-1}; the
discarded tail has a certified geometric norm bound.  Coefficients in
this module are complex floats (the lift divides by conj(x0), so exact
arithmetic is out of reach for generic matrices); stated tolerances are
1e-12 for structural identities and 1e-10 for evaluated postconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .dynsys import _int_in, _is_permutation, _shown
from .wordpoly import WordPoly, reweight_letters

BlockSignature = tuple[int, ...]
Symbol = tuple[int, int]  # (block, index within block)
FPWord = tuple[Symbol, ...]

_STRUCT_TOL = 1e-12


def _validate_signature(signature: Sequence[int]) -> BlockSignature:
    sig = tuple(signature)
    if not sig:
        raise ValueError("a block signature needs at least one block")
    for n in sig:
        _int_in(n, "block size", 1)
    return sig


def _as_finite(value: object, what: str) -> complex:
    """A number as ``complex``: TypeError naming ``what`` for anything else,
    text and bools too, which complex() would read, and ValueError unless
    both parts are finite (an int too large for a float is not)."""
    c = value
    if type(c) is not complex:
        try:
            if isinstance(value, (str, bool, np.bool_)):
                raise TypeError  # complex() would read it
            c = complex(value)
        except TypeError:
            raise TypeError(f"{what} {value!r} is not a number") from None
        except OverflowError:
            c = complex(math.inf)
    # c - c is 0 exactly when both parts are finite; inf - inf is nan.
    if c - c:
        raise ValueError(f"{what} {_shown(value)} is not finite")
    return c


def _as_array(values: object, what: str) -> np.ndarray:
    """The values as a new complex array of their shape, by the rule of :func:`_as_finite`.

    A numeric ndarray of finite values is converted whole.  Anything else
    is read value by value, so an error names the caller's value: text,
    bools, Python objects such as ``Fraction`` or huge ints, a value that
    is not finite, and every list, since ``np.asarray([0.5, True])`` would
    read the bool as 1.0.  A ragged sequence is refused by ``what``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iufc" and np.isfinite(values).all():
        return values.astype(complex)
    try:
        shape = np.shape(values)
    except ValueError:  # numpy's message for a ragged sequence names no value
        raise ValueError(f"{what}s must all have one shape") from None
    read = [_as_finite(v, what) for v in np.asarray(values, dtype=object).flat]
    return np.array(read, dtype=complex).reshape(shape)


def _form_defect(x: np.ndarray, j: np.ndarray) -> float:
    """||X* J X - J||: how far ``x`` is from preserving the form ``j``.

    Huge finite entries overflow to inf, or to nan where inf - inf arises,
    with no warning; callers refuse unless ``defect <= tolerance``, so nan
    is refused too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(x.conj().T @ j @ x - j))


def _check_signature(got: BlockSignature, expected: BlockSignature) -> None:
    """The one shape rule for points, samples and gauge tuples: block sizes equal ``expected``."""
    if got != expected:
        raise ValueError(f"point signature {got} does not match {expected}")


def _ball_rows(rows, n: int, what: str, radius: float = 1.0, open_ball: bool = False) -> np.ndarray:
    """The one ball rule: ``rows`` as a (count, n) complex array of vectors in a ball.

    Coordinates follow the number rule of :func:`_as_array` (a scalar row
    is a 1-vector) and each row the shape rule of :func:`_check_signature`.
    A norm may reach ``radius`` up to ``_STRUCT_TOL`` (the closed ball), or
    must stay below it with ``open_ball``; a norm past the float range
    reads as inf, with no warning, and is refused.  The first bad row is
    named: ``what`` alone if it is the only row, else ``what`` and its index.
    Every norm is one rule, the float sum of squared moduli, so a row
    gets one verdict however it is given.
    """
    try:
        lam = _as_array(rows, f"{what} coordinate")
    except ValueError:  # ragged or not finite: name the first bad row
        for i, row in enumerate(rows):
            name = what if len(rows) == 1 else f"{what} {i}"
            _check_signature(_as_array(row, f"{name} coordinate").reshape(-1).shape, (n,))
        raise ValueError(f"{what}s must all have one shape") from None
    lam = lam.reshape(len(rows), -1)
    _check_signature(lam.shape[1:], (n,))
    for i, row in enumerate(lam.tolist()):
        norm = math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in row))  # inf past the float range
        if not (norm < radius if open_ball else norm <= radius + _STRUCT_TOL):
            name = what if len(rows) == 1 else f"{what} {i}"
            past = ">=" if open_ball else ">"
            raise ValueError(f"{name} has norm {norm:.4f} {past} {radius:g}")
    return lam


def _finite_values(values: Collection[complex], what: str = "coefficient") -> None:
    """ValueError naming the first computed value that overflowed the float range.

    A part that is inf or nan makes the sum's part inf or nan, so a finite
    sum clears every value, and only a sum that is not finite is scanned.
    """
    total = sum(values)
    if total - total:  # nonzero exactly when a part is inf or nan
        for c in values:
            if c - c:
                raise ValueError(f"{what} {c!r} overflowed the float range")


@dataclass(frozen=True)
class FPPoly(WordPoly):
    """Finitely supported complex polynomial in block free generators.

    Coefficients are finite: :meth:`make` refuses other inputs, and every
    result the kernel builds (sums, products, :meth:`scale`,
    :func:`fp_gauge`, components and Cesaro means) passes :meth:`_like`,
    which refuses one whose coefficients overflowed the float range.
    """

    signature: BlockSignature
    terms: dict[FPWord, complex]

    __hash__ = WordPoly.__hash__

    def _like(self, terms: dict[FPWord, complex]) -> "FPPoly":
        _finite_values(terms.values())
        return super()._like(terms)

    def scale(self, value: complex) -> "FPPoly":
        return super().scale(_as_finite(value, "scale factor"))

    @staticmethod
    def make(signature: Sequence[int], terms: Mapping[FPWord, complex]) -> "FPPoly":
        """Validated terms: symbols inside the signature, finite numeric
        coefficients (no strings or bools) stored as ``complex``, zeros dropped."""
        sig = _validate_signature(signature)
        clean: dict[FPWord, complex] = {}
        for word, coeff in terms.items():
            for block, index in word:
                _int_in(block, "symbol block", 0, len(sig))
                _int_in(index, "symbol index", 0, sig[block])
            c = _as_finite(coeff, "coefficient")
            if c != 0:
                clean[tuple(word)] = c
        return FPPoly(signature=sig, terms=clean)

    @staticmethod
    def zero(signature: Sequence[int]) -> "FPPoly":
        return FPPoly.make(signature, {})

    @staticmethod
    def unit(signature: Sequence[int]) -> "FPPoly":
        return FPPoly.make(signature, {(): 1.0})

    @staticmethod
    def generator(signature: Sequence[int], block: int, index: int) -> "FPPoly":
        return FPPoly.make(signature, {((block, index),): 1.0})


def fp_multiply(p: FPPoly, q: FPPoly) -> FPPoly:
    """Bilinear extension of word concatenation."""
    return p * q


def fp_gauge(p: FPPoly, zs: Sequence[Sequence[complex]]) -> FPPoly:
    """Scale generator (i, j) by zs[i][j] throughout; a homomorphism."""
    zs = [_as_array(zrow, "gauge parameter").tolist() for zrow in zs]
    _check_signature(tuple(len(zrow) for zrow in zs), p.signature)
    return reweight_letters(p, lambda symbol: zs[symbol[0]][symbol[1]])


@dataclass(frozen=True)
class PolyballPoint:
    """A tuple of vectors, one per block, each in the closed unit ball.

    The block sizes are a signature by the rule of :meth:`FPPoly.make`,
    and each block is read by the ball rule of :func:`_ball_rows`.
    """

    blocks: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        sig = _validate_signature([len(b) for b in self.blocks])
        rows = (_ball_rows((b,), n, f"block {i}")[0].tolist() for i, (b, n) in enumerate(zip(self.blocks, sig)))
        object.__setattr__(self, "blocks", tuple(map(tuple, rows)))

    @property
    def signature(self) -> BlockSignature:
        return tuple(len(b) for b in self.blocks)

    def coordinate(self, block: int, index: int) -> complex:
        return self.blocks[block][index]


def eval_character(p: FPPoly, point: PolyballPoint) -> complex:
    """Point evaluation: each word contributes the product of its coordinates."""
    _check_signature(point.signature, p.signature)
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        value = coeff
        for block, index in word:
            value *= point.coordinate(block, index)
        total += value
    _finite_values((total,), "character value")
    return total


def abelianize(p: FPPoly) -> dict[tuple[int, ...], complex]:
    """Collapse words to commutative multidegrees, summing coefficients.

    The multidegree vector runs over all generator slots in block-major
    order.  Entries that cancel exactly are dropped, so an empty result
    means the polynomial vanishes under every point evaluation.
    """
    slots: list[Symbol] = [
        (i, j) for i, n in enumerate(p.signature) for j in range(n)
    ]
    position = {symbol: k for k, symbol in enumerate(slots)}
    out: dict[tuple[int, ...], complex] = {}
    for word, coeff in p.terms.items():
        degree = [0] * len(slots)
        for symbol in word:
            degree[position[symbol]] += 1
        key = tuple(degree)
        out[key] = out.get(key, 0.0) + coeff
    _finite_values(out.values())
    return {k: v for k, v in out.items() if v != 0}


def kernel_eval(point: PolyballPoint, z: PolyballPoint) -> complex:
    """Product over blocks of 1 / (1 - <z_i, point_i>)."""
    _check_signature(z.signature, point.signature)
    total = 1.0 + 0.0j
    for zi, li in zip(z.blocks, point.blocks):
        denom = 1.0 - sum(a * b.conjugate() for a, b in zip(zi, li))
        if abs(denom) < 1e-14:
            raise ValueError("kernel denominator vanishes; move a point off the boundary")
        total /= denom
    return total


def _check_block_perm(perm: Sequence[int], sizes: Sequence[int]) -> None:
    """Raise ValueError unless ``perm`` permutes the blocks among blocks of equal size."""
    if not _is_permutation(perm, len(sizes)):
        raise ValueError(f"{perm} is not a permutation of the blocks")
    for i, j in enumerate(perm):
        if sizes[j] != sizes[i]:
            raise ValueError(
                f"{perm} pairs block {i} (size {sizes[i]}) with block {j} (size {sizes[j]})"
            )


def permutation_lift(alpha: Sequence[int], p: FPPoly) -> FPPoly:
    """Relabel block i as alpha(i) in every word; sizes must match."""
    sig = p.signature
    _check_block_perm(alpha, sig)
    return FPPoly.make(
        sig,
        {
            tuple((alpha[b], j) for b, j in word): c
            for word, c in p.terms.items()
        },
    )


# ---- ball automorphisms ------------------------------------------------------


@dataclass(frozen=True)
class BallMobius:
    """A ball automorphism: the standard involution at ``a`` followed by ``unitary``."""

    a: np.ndarray
    unitary: np.ndarray

    def __post_init__(self) -> None:
        n = _int_in(_as_array(self.a, "centre coordinate").size, "dimension", 1)
        a = _ball_rows((self.a,), n, "centre", open_ball=True)[0]
        u = _as_array(self.unitary, "unitary entry")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "unitary", u)
        if u.shape != (n, n):
            raise ValueError(f"unitary must be {n}x{n}, got {u.shape}")
        if not _form_defect(u, np.eye(n)) <= _STRUCT_TOL:
            raise ValueError("matrix is not unitary to 1e-12")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def involution(a: Sequence[complex]) -> "BallMobius":
        return BallMobius(a=a, unitary=np.eye(_as_array(a, "centre coordinate").size, dtype=complex))


def mobius_apply(m: BallMobius, point: Sequence[complex]) -> np.ndarray:
    """Apply the automorphism at a point of the closed ball, through its
    U(1, n) matrix acting by :func:`frac_linear`; the open ball maps onto
    the open ball.  The matrix is used unchecked: the 1e-12 form check of
    :class:`U1nMatrix` can refuse a centre near the sphere that
    :class:`BallMobius` accepts."""
    return _frac_linear_rows(_mobius_matrix(m), _ball_rows((point,), m.dim, "point"))[0]


@dataclass(frozen=True)
class PolyballAuto:
    """Automorphism of a polyball in factored form.

    First the blocks are permuted (block i reads from block
    ``block_perm[i]``, which must have the same dimension), then each
    block passes through its own ball automorphism.
    """

    block_maps: tuple[BallMobius, ...]
    block_perm: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_block_perm(self.block_perm, _validate_signature([m.dim for m in self.block_maps]))


def polyball_auto_apply(auto: PolyballAuto, point: PolyballPoint) -> PolyballPoint:
    _check_signature(point.signature, tuple(m.dim for m in auto.block_maps))
    blocks = []
    for i, m in enumerate(auto.block_maps):
        source = point.blocks[auto.block_perm[i]]
        blocks.append(tuple(mobius_apply(m, source)))
    return PolyballPoint(tuple(blocks))


@dataclass(frozen=True)
class U1nMatrix:
    """An (n+1) x (n+1) matrix X with X* J X = J, J = diag(1, -1, ..., -1).

    Block structure: X = [[x0, eta1*], [eta2, X1]].  The defining
    identity forces |x0|^2 - |eta2|^2 = 1 (and the same with eta1), so
    the fractional linear action on the ball is well defined.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _int_in(self.n, "n", 1)
        x = _as_array(self.matrix, "matrix entry")
        object.__setattr__(self, "matrix", x)
        if x.shape != (self.n + 1, self.n + 1):
            raise ValueError(f"matrix must be {self.n + 1}x{self.n + 1}, got {x.shape}")
        if not _form_defect(x, _indefinite_form(self.n)) <= _STRUCT_TOL:
            raise ValueError("matrix does not satisfy X*JX = J to 1e-12")

    @property
    def x0(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def eta1(self) -> np.ndarray:
        return self.matrix[0, 1:].conj()

    @property
    def eta2(self) -> np.ndarray:
        return self.matrix[1:, 0].copy()

    @property
    def x1(self) -> np.ndarray:
        return self.matrix[1:, 1:].copy()


def _indefinite_form(n: int) -> np.ndarray:
    j = -np.eye(n + 1, dtype=complex)
    j[0, 0] = 1.0
    return j


def mobius_to_u1n(m: BallMobius) -> U1nMatrix:
    """The matrix whose fractional linear action equals the automorphism,
    built by :func:`_mobius_matrix` and checked by :class:`U1nMatrix`."""
    return U1nMatrix(n=m.dim, matrix=_mobius_matrix(m))


def _mobius_matrix(m: BallMobius) -> np.ndarray:
    """The U(1, n) matrix of the automorphism, unchecked: the one builder
    behind :func:`mobius_to_u1n` and :func:`mobius_apply`.

    The involution at ``a`` contributes (1/s) [[1, -a*], [a, -(P + sQ)]]
    with P the projection onto a, Q its complement and s = sqrt(1-|a|^2);
    the unitary part multiplies on the left as diag(1, U).
    """
    a = m.a
    n = m.dim
    norm_a_sq = float(np.vdot(a, a).real)
    s = math.sqrt(1.0 - norm_a_sq)
    if norm_a_sq == 0.0:
        inv_block = -np.eye(n, dtype=complex)
    else:
        proj = np.outer(a, a.conj()) / norm_a_sq
        inv_block = -(proj + s * (np.eye(n, dtype=complex) - proj))
    x = np.zeros((n + 1, n + 1), dtype=complex)
    x[0, 0] = 1.0
    x[0, 1:] = -a.conj()
    x[1:, 0] = a
    x[1:, 1:] = inv_block
    x /= s
    u_part = np.eye(n + 1, dtype=complex)
    u_part[1:, 1:] = m.unitary
    return u_part @ x


def _frac_linear_rows(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`frac_linear` of the U(1, n) matrix ``m`` at every row of a (count, n) array of points."""
    # <lambda, eta1> pairs lambda with conj(eta1) = the first row of X past x0
    return (lam @ m[1:, 1:].T + m[1:, 0]) / (m[0, 0] + lam @ m[0, 1:])[:, None]


def frac_linear(x: U1nMatrix, point: Sequence[complex]) -> np.ndarray:
    """(X1 lambda + eta2) / (x0 + <lambda, eta1>) at a point of the closed ball;
    maps the open ball inside itself."""
    return _frac_linear_rows(x.matrix, _ball_rows((point,), x.n, "point"))[0]


@dataclass(frozen=True)
class NCSeries:
    """A truncated noncommutative power series in one block of generators.

    The series is the degree-``order`` truncation of a geometric
    expansion times an affine factor:

        sum_{k=0}^{order} x0_bar^-(k+1) L_{shift}^k
            (L_{affine_vector} + affine_scalar I)

    and ``certified_tail`` bounds the operator norm of everything
    discarded.  The expanded word support has size ~ n^order, so the
    series is stored in this factored form, which takes the same space
    at every order; :meth:`as_polynomial` materialises the words (use
    only for small order or dimension) and :meth:`evaluate` computes
    point evaluations with the geometric factor in closed form.
    """

    dim: int
    x0_bar: complex
    shift: tuple[complex, ...]
    affine_vector: tuple[complex, ...]
    affine_scalar: complex
    order: int
    certified_tail: float

    @property
    def signature(self) -> BlockSignature:
        return (self.dim,)

    @property
    def inverse_coeffs(self) -> tuple[complex, ...]:
        """The order + 1 geometric coefficients x0_bar^-(k+1), built on request
        for readers that sum the series term by term (perfbench/checks.py)."""
        return tuple(self.x0_bar ** (-k - 1) for k in range(self.order + 1))

    def evaluate(self, point: PolyballPoint) -> complex:
        """Point evaluation of the truncated series, from the factored form.

        The geometric factor is summed in closed form, which is well
        conditioned while |<lambda, shift>| stays below |x0_bar|, as it
        does on the closed ball for every series of :func:`voiculescu_lift`.
        """
        _check_signature(point.signature, self.signature)
        return complex(_lift_rows((self,), np.asarray(point.blocks, dtype=complex))[0, 0])

    def as_polynomial(self) -> FPPoly:
        """Materialise the truncated series as an explicit polynomial.

        The support grows like dim**order when the shift vector has
        several nonzero entries; keep this to small instances.
        """
        signature = self.signature
        shift_poly = FPPoly.make(
            signature,
            {((0, k),): v for k, v in enumerate(self.shift) if v != 0},
        )
        neumann = FPPoly.zero(signature)
        power = FPPoly.unit(signature)
        for k in range(self.order + 1):
            neumann = neumann + power.scale(self.x0_bar ** (-k - 1))
            if k < self.order:
                power = fp_multiply(power, shift_poly)
        affine = FPPoly.make(
            signature,
            {((0, k),): v for k, v in enumerate(self.affine_vector) if v != 0},
        ) + FPPoly.unit(signature).scale(self.affine_scalar)
        return fp_multiply(neumann, affine)


def _lift_rows(series: Sequence[NCSeries], lam: np.ndarray) -> np.ndarray:
    """Values of series sharing ``x0_bar``, ``shift`` and ``order`` at every row
    of a (count, dim) array, one column per series.

    With r = <lambda, conj(shift)> / x0_bar the geometric factor
    sum_{k=0}^{order} x0_bar^-(k+1) (r x0_bar)^k is
    (1 - r^(order+1)) / ((1 - r) x0_bar), whose cost does not depend on
    the order; the affine factors of all series are one product.
    """
    first = series[0]
    ratio = lam @ np.asarray(first.shift) / first.x0_bar
    geometric = (1 - ratio ** (first.order + 1)) / ((1 - ratio) * first.x0_bar)
    affine = lam @ np.array([s.affine_vector for s in series]).T + np.array(
        [s.affine_scalar for s in series]
    )
    return geometric[:, None] * affine


def voiculescu_lift(x: U1nMatrix, order: int) -> tuple[NCSeries, ...]:
    """Lift the fractional linear map to generator series.

    For the j-th generator the exact image is

        (conj(x0) I - L_{conj(eta2)})^{-1} (L_{conj(X1) e_j} - <e_j, conj(eta1)> I)

    and the inverse factor is expanded geometrically up to ``order``;
    convergence is guaranteed by |eta2| < |x0|.  The series share
    conj(x0) and the shift conj(eta2), so they take the same space at
    every order.  Each series carries the geometric tail bound it
    discards.
    """
    # the tail bound raises a float to order + 1, which must itself be a float
    if _int_in(order, "truncation order", 0) >= 2**1023:
        raise ValueError("truncation order must be below 2**1023")
    n = x.n
    q = float(np.linalg.norm(x.eta2)) / abs(x.x0)

    shift = tuple(complex(v) for v in x.eta2.conj())
    x1_bar = x.x1.conj()
    eta1 = x.eta1
    x0_bar = x.x0.conjugate()

    series = []
    for j in range(n):
        column = x1_bar[:, j]
        affine_norm = float(np.linalg.norm(column)) + abs(complex(eta1[j]))
        tail = affine_norm / abs(x.x0) * q ** (order + 1) / (1.0 - q)
        series.append(
            NCSeries(
                dim=n,
                x0_bar=x0_bar,
                shift=shift,
                affine_vector=tuple(complex(v) for v in column),
                affine_scalar=-complex(eta1[j]),
                order=order,
                certified_tail=tail,
            )
        )
    return tuple(series)


# Work admitted for one lift_dual_check, in the terms of the truncated
# sums the series stand for: order + 1 coefficients, n series of order + 1
# terms per sample, and about LIFT_SAMPLE_TERMS per sample to draw it and
# map it by X^-1.  The check sums the geometric factor in closed form, so
# its cost does not grow with the order: the largest admitted CLI lifts
# (n = 1-3, 1 to 19,000 samples) took at most 0.04 s and 35 MB peak RSS on
# a 2-core x86 VM (Python 3.11).  The bound stays as a guard on input size.
MAX_LIFT_TERMS = 6_000_000
LIFT_SAMPLE_TERMS = 300


def check_lift_work(n: int, order: int, samples: int) -> None:
    """Raise ValueError unless n >= 1, order >= 0 and samples >= 1 are ints,
    or for more than MAX_LIFT_TERMS of work."""
    _int_in(n, "dimension", 1)
    _int_in(order, "truncation order", 0)
    _int_in(samples, "sample count", 1)
    terms = (order + 1) * (1 + n * samples) + LIFT_SAMPLE_TERMS * samples
    if terms > MAX_LIFT_TERMS:
        raise ValueError(
            f"a lift of order {_shown(order)} at {_shown(samples)} samples passes the work limit"
            f" ({MAX_LIFT_TERMS} series terms); use a smaller degree or fewer samples"
        )


@dataclass(frozen=True)
class LiftDualReport:
    deviation: float
    certified_tail: float


def lift_dual_check(
    x: U1nMatrix, order: int, samples: Iterable[Sequence[complex]]
) -> LiftDualReport:
    """Evaluate the lifted series at sample points and match its boundary map.

    The lift of X realises the fractional linear action of
    X^-1 = J X* J.  The samples are read into one (count, n) array by
    the ball rule of :func:`_ball_rows` at radius 0.9, and one array
    pass pushes them all through the truncated series, with the
    geometric factor in closed form, and through that action; the worst
    coordinate deviation comes back with the series' certified tail,
    which bounds it up to rounding.  Raises ValueError, before building any series,
    for an order or a sample count :func:`check_lift_work` refuses, for
    more work than it admits, and for samples the ball rule refuses.
    """
    rows = samples if isinstance(samples, np.ndarray) else list(samples)
    check_lift_work(x.n, order, len(rows))
    lam = _ball_rows(rows, x.n, "sample", radius=0.9)
    series = voiculescu_lift(x, order)
    j = _indefinite_form(x.n)
    inverse = j @ x.matrix.conj().T @ j  # in U(1, n) with x, so not checked again
    deviation = np.abs(_lift_rows(series, lam) - _frac_linear_rows(inverse, lam)).max()
    return LiftDualReport(
        deviation=float(deviation), certified_tail=max(s.certified_tail for s in series)
    )


def sample_ball_points(rng, n: int, count: int, radius: float = 0.9) -> np.ndarray:
    """Deterministic open-ball samples from a ``random.Random`` instance.

    Each sample draws 2n ``gauss`` values (the real and imaginary part of
    each coordinate in turn) and then, unless they are all zero, one
    ``random()`` that sets its radius; the directions are normalised and
    scaled as one (count, n) array, which is returned.  A zero draw is
    the centre.  ``n`` must be a positive int, ``count`` a nonnegative
    int and ``radius`` a real number in (0, 1], read by :func:`_as_finite`;
    anything else raises before any draw.
    """
    _int_in(n, "dimension", 1)
    _int_in(count, "sample count", 0)
    r = _as_finite(radius, "radius")
    if not (r.imag == 0 and 0 < r.real <= 1):
        raise ValueError(f"radius {radius!r} is not a real number in (0, 1]")
    parts: list[float] = []
    radii: list[float] = []
    for _ in range(count):
        gauss = [rng.gauss(0, 1) for _ in range(2 * n)]
        parts += gauss
        radii.append(rng.random() if any(gauss) else 0.0)
    vectors = np.array(parts, dtype=float).view(complex).reshape(count, n)
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0  # the centre stays put
    scale = r.real * np.array(radii) ** (1.0 / (2 * n))
    return vectors / norms[:, None] * scale[:, None]
