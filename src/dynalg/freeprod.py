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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .wordpoly import WordPoly, reweight_letters

BlockSignature = tuple[int, ...]
Symbol = tuple[int, int]  # (block, index within block)
FPWord = tuple[Symbol, ...]

_STRUCT_TOL = 1e-12


def _validate_signature(signature: Sequence[int]) -> BlockSignature:
    sig = tuple(int(n) for n in signature)
    if not sig or any(n < 1 for n in sig):
        raise ValueError(f"block signature {sig} must list positive sizes")
    return sig


@dataclass(frozen=True)
class FPPoly(WordPoly):
    """Finitely supported complex polynomial in block free generators."""

    signature: BlockSignature
    terms: dict[FPWord, complex]

    __hash__ = WordPoly.__hash__

    @staticmethod
    def make(signature: Sequence[int], terms: Mapping[FPWord, complex]) -> "FPPoly":
        sig = _validate_signature(signature)
        clean: dict[FPWord, complex] = {}
        for word, coeff in terms.items():
            for block, index in word:
                if not (0 <= block < len(sig)) or not (0 <= index < sig[block]):
                    raise ValueError(f"symbol ({block},{index}) outside signature {sig}")
            c = complex(coeff)
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

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def fp_multiply(p: FPPoly, q: FPPoly) -> FPPoly:
    """Bilinear extension of word concatenation."""
    return p * q


def fp_gauge(p: FPPoly, zs: Sequence[Sequence[complex]]) -> FPPoly:
    """Scale generator (i, j) by zs[i][j] throughout; a homomorphism."""
    if len(zs) != len(p.signature):
        raise ValueError("one gauge tuple per block required")
    for block, (size, zrow) in enumerate(zip(p.signature, zs)):
        if len(zrow) != size:
            raise ValueError(f"block {block} needs {size} gauge values")
    return reweight_letters(p, lambda symbol: zs[symbol[0]][symbol[1]])


@dataclass(frozen=True)
class PolyballPoint:
    """A tuple of vectors, one per block, each in the closed unit ball."""

    blocks: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "blocks", tuple(tuple(complex(v) for v in b) for b in self.blocks)
        )
        for i, block in enumerate(self.blocks):
            norm = math.sqrt(sum(abs(v) ** 2 for v in block))
            if not norm <= 1 + 1e-9:  # also rejects NaN
                raise ValueError(f"block {i} has norm {norm:.6f} > 1")

    @property
    def signature(self) -> BlockSignature:
        return tuple(len(b) for b in self.blocks)

    def coordinate(self, block: int, index: int) -> complex:
        return self.blocks[block][index]


def eval_character(p: FPPoly, point: PolyballPoint) -> complex:
    """Point evaluation: each word contributes the product of its coordinates."""
    if point.signature != p.signature:
        raise ValueError(
            f"point signature {point.signature} does not match {p.signature}"
        )
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        value = coeff
        for block, index in word:
            value *= point.coordinate(block, index)
        total += value
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
    return {k: v for k, v in out.items() if v != 0}


def kernel_eval(point: PolyballPoint, z: PolyballPoint) -> complex:
    """Product over blocks of 1 / (1 - <z_i, point_i>)."""
    if point.signature != z.signature:
        raise ValueError("points live on different polyballs")
    total = 1.0 + 0.0j
    for zi, li in zip(z.blocks, point.blocks):
        denom = 1.0 - sum(a * b.conjugate() for a, b in zip(zi, li))
        if abs(denom) < 1e-14:
            raise ValueError("kernel denominator vanishes; move a point off the boundary")
        total /= denom
    return total


def permutation_lift(alpha: Sequence[int], p: FPPoly) -> FPPoly:
    """Relabel block i as alpha(i) in every word; sizes must match."""
    sig = p.signature
    if sorted(alpha) != list(range(len(sig))):
        raise ValueError(f"{alpha} is not a permutation of the blocks")
    for i in range(len(sig)):
        if sig[alpha[i]] != sig[i]:
            raise ValueError(
                f"permutation maps block {i} (size {sig[i]}) to block "
                f"{alpha[i]} (size {sig[alpha[i]]})"
            )
    return FPPoly.make(
        sig,
        {
            tuple((alpha[b], j) for b, j in word): c
            for word, c in p.terms.items()
        },
    )


# ---- ball automorphisms ------------------------------------------------------


def _as_vector(values: Sequence[complex]) -> np.ndarray:
    return np.asarray(values, dtype=complex).reshape(-1)


def inner(u: Sequence[complex], v: Sequence[complex]) -> complex:
    """Hermitian pairing, conjugate-linear in the second argument."""
    return complex(np.vdot(_as_vector(v), _as_vector(u)))


@dataclass(frozen=True)
class BallMobius:
    """A ball automorphism: the standard involution at ``a`` followed by ``unitary``."""

    a: np.ndarray
    unitary: np.ndarray

    def __post_init__(self) -> None:
        a = _as_vector(self.a)
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "unitary", u)
        if not (np.isfinite(a).all() and np.isfinite(u).all()):
            raise ValueError("centre and unitary must have finite entries")
        if np.linalg.norm(a) >= 1:
            raise ValueError(f"centre has norm {np.linalg.norm(a):.6f}, needs < 1")
        n = a.shape[0]
        if u.shape != (n, n):
            raise ValueError(f"unitary must be {n}x{n}, got {u.shape}")
        if np.linalg.norm(u.conj().T @ u - np.eye(n)) > _STRUCT_TOL:
            raise ValueError("matrix is not unitary to 1e-12")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def involution(a: Sequence[complex]) -> "BallMobius":
        a = _as_vector(a)
        return BallMobius(a=a, unitary=np.eye(a.shape[0], dtype=complex))


def mobius_apply(m: BallMobius, point: Sequence[complex]) -> np.ndarray:
    """Apply the automorphism; the open ball maps onto the open ball."""
    lam = _as_vector(point)
    a = m.a
    norm_a_sq = float(np.vdot(a, a).real)
    if norm_a_sq == 0.0:
        base = -lam
    else:
        s = math.sqrt(1.0 - norm_a_sq)
        proj = (np.vdot(a, lam) / norm_a_sq) * a  # component of lam along a
        base = (a - proj - s * (lam - proj)) / (1.0 - np.vdot(a, lam))
    return m.unitary @ base


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
        sizes = [m.dim for m in self.block_maps]
        if sorted(self.block_perm) != list(range(len(sizes))):
            raise ValueError(f"{self.block_perm} is not a permutation of the blocks")
        for i, p in enumerate(self.block_perm):
            if sizes[p] != sizes[i]:
                raise ValueError(
                    f"block {i} (size {sizes[i]}) cannot read from block {p}"
                    f" (size {sizes[p]})"
                )


def polyball_auto_apply(auto: PolyballAuto, point: PolyballPoint) -> PolyballPoint:
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
        x = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", x)
        if x.shape != (self.n + 1, self.n + 1):
            raise ValueError(f"matrix must be {self.n + 1}x{self.n + 1}, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("matrix entries must be finite")
        j = _indefinite_form(self.n)
        if np.linalg.norm(x.conj().T @ j @ x - j) > _STRUCT_TOL:
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
    """The matrix whose fractional linear action equals the automorphism.

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
    return U1nMatrix(n=n, matrix=u_part @ x)


def frac_linear(x: U1nMatrix, point: Sequence[complex]) -> np.ndarray:
    """(X1 lambda + eta2) / (x0 + <lambda, eta1>); maps the open ball inside itself."""
    lam = _as_vector(point)
    if lam.shape[0] != x.n:
        raise ValueError(f"point has dimension {lam.shape[0]}, matrix acts on {x.n}")
    denom = x.x0 + inner(lam, x.eta1)
    return (x.x1 @ lam + x.eta2) / denom


@dataclass(frozen=True)
class NCSeries:
    """A truncated noncommutative power series in one block of generators.

    The series is the degree-``order`` truncation of a geometric
    expansion times an affine factor:

        sum_{k=0}^{order} inverse_coeffs[k] L_{shift}^k
            (L_{affine_vector} + affine_scalar I)

    and ``certified_tail`` bounds the operator norm of everything
    discarded.  The expanded word support has size ~ n^order, so the
    series is stored in this factored form; :meth:`as_polynomial`
    materialises the words (use only for small order or dimension) and
    :meth:`evaluate` computes point evaluations directly.
    """

    dim: int
    inverse_coeffs: tuple[complex, ...]
    shift: tuple[complex, ...]
    affine_vector: tuple[complex, ...]
    affine_scalar: complex
    order: int
    certified_tail: float

    @property
    def signature(self) -> BlockSignature:
        return (self.dim,)

    def evaluate(self, point: PolyballPoint) -> complex:
        """Point evaluation of the truncated series, from the factored form."""
        if point.signature != self.signature:
            raise ValueError(
                f"point signature {point.signature} does not match {self.signature}"
            )
        lam = point.blocks[0]
        shift_value = sum(s * l for s, l in zip(self.shift, lam))
        affine_value = (
            sum(v * l for v, l in zip(self.affine_vector, lam)) + self.affine_scalar
        )
        geometric = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for coeff in self.inverse_coeffs:
            geometric += coeff * power
            power *= shift_value
        return geometric * affine_value

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
        for k, coeff in enumerate(self.inverse_coeffs):
            neumann = neumann + power.scale(coeff)
            if k + 1 < len(self.inverse_coeffs):
                power = fp_multiply(power, shift_poly)
        affine = FPPoly.make(
            signature,
            {((0, k),): v for k, v in enumerate(self.affine_vector) if v != 0},
        ) + FPPoly.unit(signature).scale(self.affine_scalar)
        return fp_multiply(neumann, affine)


def voiculescu_lift(x: U1nMatrix, order: int) -> tuple[NCSeries, ...]:
    """Lift the fractional linear map to generator series.

    For the j-th generator the exact image is

        (conj(x0) I - L_{conj(eta2)})^{-1} (L_{conj(X1) e_j} - <e_j, conj(eta1)> I)

    and the inverse factor is expanded geometrically up to ``order``;
    convergence is guaranteed by |eta2| < |x0|.  Each series carries the
    geometric tail bound it discards.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    n = x.n
    q = float(np.linalg.norm(x.eta2)) / abs(x.x0)

    eta2_bar = x.eta2.conj()
    x1_bar = x.x1.conj()
    eta1 = x.eta1
    x0_bar = x.x0.conjugate()
    inverse_coeffs = tuple(x0_bar ** (-k - 1) for k in range(order + 1))

    series = []
    for j in range(n):
        column = x1_bar[:, j]
        affine_norm = float(np.linalg.norm(column)) + abs(eta1[j])
        if q == 0.0:
            tail = 0.0
        else:
            tail = affine_norm / abs(x.x0) * q ** (order + 1) / (1.0 - q)
        series.append(
            NCSeries(
                dim=n,
                inverse_coeffs=inverse_coeffs,
                shift=tuple(complex(v) for v in eta2_bar),
                affine_vector=tuple(complex(v) for v in column),
                affine_scalar=-complex(eta1[j]),
                order=order,
                certified_tail=tail,
            )
        )
    return tuple(series)


@dataclass(frozen=True)
class LiftDualReport:
    deviation: float
    certified_tail: float


def lift_dual_check(
    x: U1nMatrix, order: int, samples: Iterable[Sequence[complex]]
) -> LiftDualReport:
    """Evaluate the lifted series at sample points and match its boundary map.

    The lift of X realises the fractional linear action of
    X^-1 = J X* J.  Each sample lambda (open ball, norm at most 0.9) is
    pushed through the truncated series coordinatewise and compared
    with that action; the worst coordinate deviation comes back with the
    series' certified tail, which bounds it up to rounding.
    """
    series = voiculescu_lift(x, order)
    tail = max(s.certified_tail for s in series)
    points = [tuple(_as_vector(p)) for p in samples]
    for p in points:
        norm = math.sqrt(sum(abs(v) ** 2 for v in p))
        if norm > 0.9 + 1e-12:
            raise ValueError(f"sample has norm {norm:.4f} > 0.9")
    j = _indefinite_form(x.n)
    inverse = U1nMatrix(n=x.n, matrix=j @ x.matrix.conj().T @ j)
    deviation = 0.0
    for p in points:
        mu = np.array([s.evaluate(PolyballPoint((p,))) for s in series], dtype=complex)
        deviation = max(deviation, float(np.max(np.abs(mu - frac_linear(inverse, p)))))
    return LiftDualReport(deviation=deviation, certified_tail=tail)


def sample_ball_points(rng, n: int, count: int, radius: float = 0.9) -> list[tuple[complex, ...]]:
    """Deterministic open-ball samples from a ``random.Random`` instance."""
    points = []
    for _ in range(count):
        vec = np.array(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        )
        norm = np.linalg.norm(vec)
        if norm == 0:
            points.append(tuple(0j for _ in range(n)))
            continue
        scale = radius * rng.random() ** (1.0 / (2 * n))
        points.append(tuple(vec / norm * scale))
    return points
