"""Exact complex numbers with rational real and imaginary parts.

The symbolic layers compare elements term by term, so their coefficient
field must be exact: two elements are equal exactly when their normal
forms coincide, and no rounding may creep into products or Fourier
weights.  ``RationalComplex`` supports the field operations plus the few
extras the algebra needs (conjugation, exact squared modulus).

The one exact value format is a plain tuple of three ints ``(a, b, d)``
meaning ``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) = 1``; zero is
``(0, 0, 1)``.  This normal form is unique, so equality and hashing
compare the triples.  Each exact operation is written once, as a private
helper below that takes triples and returns a triple, from integer
formulas with no ``Fraction`` in between, and every result passes through
the one reduction rule, :func:`_reduce`.  A ``RationalComplex`` wraps one
triple, and one rule, :func:`_lifted`, builds each of its binary
operators from a helper; the function coefficients of
:mod:`dynalg.semicrossed` hold tuples of triples and lift the same
helpers point by point by one rule of their own, building no scalar
object.  ``re`` and ``im`` are reduced ``Fraction`` views.  Inputs are
exact only: ints (not bools), ``Fraction``s and, where a constructor
takes them, "p/q" strings; an exponent is an int, not a bool.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Union

from .dynsys import _is_int

RationalLike = Union[int, Fraction, "RationalComplex"]
RationalInput = Union[int, Fraction, str]
_Triple = tuple[int, int, int]

_ZERO_T: _Triple = (0, 0, 1)


def _rational(value: RationalInput) -> Union[int, Fraction]:
    """An exact rational input, as a value with ``numerator`` and ``denominator``."""
    if isinstance(value, Fraction) or _is_int(value):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _reduce(a: int, b: int, d: int) -> _Triple:
    """(a + b*i)/d in normal form, for ints a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _mul(s: _Triple, t: _Triple) -> _Triple:
    """s * t; a zero operand gives the shared zero triple without arithmetic.

    A product of nonzero scalars is nonzero, so its parts are never both 0.
    """
    a, b, d = s
    if not (a or b):
        return _ZERO_T
    c, e, f = t
    if not (c or e):
        return _ZERO_T
    return _reduce(a * c - b * e, a * e + b * c, d * f)


def _add(s: _Triple, t: _Triple) -> _Triple:
    a, b, d = s
    c, e, f = t
    return _reduce(a * f + c * d, b * f + e * d, d * f)


def _sub(s: _Triple, t: _Triple) -> _Triple:
    a, b, d = s
    c, e, f = t
    return _reduce(a * f - c * d, b * f - e * d, d * f)


def _div(s: _Triple, t: _Triple) -> _Triple:
    """s / t; ZeroDivisionError when t is zero."""
    # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2)).
    c, e, f = t
    norm = c * c + e * e
    if norm == 0:
        raise ZeroDivisionError("division by zero scalar")
    a, b, d = s
    return _reduce((a * c + b * e) * f, (b * c - a * e) * f, d * norm)


def _neg(s: _Triple) -> _Triple:
    a, b, d = s
    return -a, -b, d


def _lifted(op: Callable[[_Triple, _Triple], _Triple]) -> Callable:
    """The ``RationalComplex`` operator of a triple helper: the operand is
    read by ``RationalComplex.coerce`` and the helper's triple is wrapped."""

    def operator(self: "RationalComplex", other: RationalLike) -> "RationalComplex":
        if type(other) is not RationalComplex:
            other = RationalComplex.coerce(other)
        return _wrap(op(self._t, other._t))

    return operator


class RationalComplex:
    """(a + b*i)/d with ints a, b and d > 0, in lowest terms: the triple ``_t``."""

    __slots__ = ("_t",)
    # numpy scalars defer to the reflected operators, which reject them.
    __array_ufunc__ = None

    def __new__(cls, re: RationalInput, im: RationalInput = 0) -> "RationalComplex":
        re, im = _rational(re), _rational(im)
        p, q = re.denominator, im.denominator
        return _wrap(_reduce(re.numerator * q, im.numerator * p, p * q))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"RationalComplex is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"RationalComplex is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return RationalComplex, (self.re, self.im)

    @staticmethod
    def coerce(value: RationalLike) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, Fraction) or _is_int(value):
            # A Fraction is in lowest terms, so (p, 0, q) is already normal.
            return _wrap((value.numerator, 0, value.denominator))
        raise TypeError(f"cannot interpret {value!r} as an exact complex scalar")

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    # ---- field operations -------------------------------------------------

    __add__ = __radd__ = _lifted(_add)
    __sub__ = _lifted(_sub)

    def __rsub__(self, other: RationalLike) -> "RationalComplex":
        return RationalComplex.coerce(other) - self

    __mul__ = __rmul__ = _lifted(_mul)
    __truediv__ = _lifted(_div)

    def __rtruediv__(self, other: RationalLike) -> "RationalComplex":
        return RationalComplex.coerce(other) / self

    def __neg__(self) -> "RationalComplex":
        return _wrap(_neg(self._t))

    def __pow__(self, exponent: int) -> "RationalComplex":
        # The one integer rule: a bool or a float exponent is not supported.
        if not _is_int(exponent):
            return NotImplemented
        if exponent < 0:
            return ONE / (self ** (-exponent))
        out = ONE
        for _ in range(exponent):
            out = out * self
        return out

    # ---- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not RationalComplex:
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    def conjugate(self) -> "RationalComplex":
        a, b, d = self._t
        return _wrap((a, -b, d))

    def abs_sq(self) -> Fraction:
        """|z|^2, exactly."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._t == _ZERO_T

    def __bool__(self) -> bool:
        return self._t != _ZERO_T

    def __complex__(self) -> complex:
        a, b, d = self._t
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


_new = object.__new__
_set_t = RationalComplex._t.__set__


def _wrap(t: _Triple) -> RationalComplex:
    """The scalar of a normal-form triple."""
    z = _new(RationalComplex)
    _set_t(z, t)
    return z


def _ratio_text(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` prints it, for d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def qc(re: RationalInput = 0, im: RationalInput = 0) -> RationalComplex:
    """Shorthand constructor; accepts ints, Fractions and "p/q" strings."""
    return RationalComplex(re, im)


ZERO = _wrap(_ZERO_T)
ONE = _wrap((1, 0, 1))
