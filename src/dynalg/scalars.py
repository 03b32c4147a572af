"""Exact complex numbers with rational real and imaginary parts.

The symbolic layers compare elements term by term, so their coefficient
field must be exact: two elements are equal exactly when their normal
forms coincide, and no rounding may creep into products or Fourier
weights.  ``RationalComplex`` supports the field operations plus the few
extras the algebra needs (conjugation, exact squared modulus).

A scalar is held as three ints ``(a, b, d)`` meaning ``(a + b*i)/d``,
with ``d > 0`` and ``gcd(a, b, d) = 1``; zero is ``(0, 0, 1)``.  This
normal form is unique, so equality and hashing compare the three ints.
Every result is built by one reducing helper from integer formulas, with
no ``Fraction`` in between; the product, which the word-polynomial
kernels call once per value, applies the same reduction inline, so it
costs one frame.  ``re`` and ``im`` are reduced ``Fraction`` views.
Inputs are exact only: ints (not bools), ``Fraction``s and, where a
constructor takes them, "p/q" strings; an exponent is an int, not a bool.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .dynsys import _is_int

RationalLike = Union[int, Fraction, "RationalComplex"]
RationalInput = Union[int, Fraction, str]


def _rational(value: RationalInput) -> Union[int, Fraction]:
    """An exact rational input, as a value with ``numerator`` and ``denominator``."""
    if isinstance(value, Fraction) or _is_int(value):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class RationalComplex:
    """(a + b*i)/d with ints a, b and d > 0, in lowest terms."""

    __slots__ = ("_a", "_b", "_d")
    # numpy scalars defer to the reflected operators, which reject them.
    __array_ufunc__ = None

    def __new__(cls, re: RationalInput, im: RationalInput = 0) -> "RationalComplex":
        re, im = _rational(re), _rational(im)
        return _reduced(
            re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator
        )

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
            return _reduced(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as an exact complex scalar")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # ---- field operations -------------------------------------------------

    def __add__(self, other: RationalLike) -> "RationalComplex":
        if type(other) is not RationalComplex:
            other = RationalComplex.coerce(other)
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "RationalComplex":
        if type(other) is not RationalComplex:
            other = RationalComplex.coerce(other)
        d, e = self._d, other._d
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other: RationalLike) -> "RationalComplex":
        return RationalComplex.coerce(other) - self

    def __mul__(self, other: RationalLike) -> "RationalComplex":
        if type(other) is not RationalComplex:
            other = RationalComplex.coerce(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "RationalComplex":
        # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2)).
        if type(other) is not RationalComplex:
            other = RationalComplex.coerce(other)
        c, e, f = other._a, other._b, other._d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self._a, self._b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other: RationalLike) -> "RationalComplex":
        return RationalComplex.coerce(other) / self

    def __neg__(self) -> "RationalComplex":
        return _reduced(-self._a, -self._b, self._d)

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
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def conjugate(self) -> "RationalComplex":
        return _reduced(self._a, -self._b, self._d)

    def abs_sq(self) -> Fraction:
        """|z|^2, exactly."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def as_strings(self) -> tuple[str, str]:
        """The real and imaginary parts as ``str(Fraction)`` prints them: "p/q", or "p"."""
        return _ratio_text(self._a, self._d), _ratio_text(self._b, self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


_new = object.__new__
_set_a = RationalComplex._a.__set__
_set_b = RationalComplex._b.__set__
_set_d = RationalComplex._d.__set__


def _reduced(a: int, b: int, d: int) -> RationalComplex:
    """(a + b*i)/d in normal form, for ints a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(RationalComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _ratio_text(n: int, d: int) -> str:
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _product(z: RationalComplex, w: RationalComplex) -> RationalComplex:
    """z * w for two scalars; a zero operand returns the shared ZERO.

    The product kernels call this once per value, so it reduces inline,
    as :func:`_reduced` does, in one frame.  A product of nonzero
    scalars is nonzero, so its parts are never both 0.
    """
    a, b = z._a, z._b
    if not (a or b):
        return ZERO
    c, e = w._a, w._b
    if not (c or e):
        return ZERO
    re, im, d = a * c - b * e, a * e + b * c, z._d * w._d
    if d != 1:
        g = gcd(re, im, d)
        if g != 1:
            re, im, d = re // g, im // g, d // g
    out = _new(RationalComplex)
    _set_a(out, re)
    _set_b(out, im)
    _set_d(out, d)
    return out


def qc(re: RationalInput = 0, im: RationalInput = 0) -> RationalComplex:
    """Shorthand constructor; accepts ints, Fractions and "p/q" strings."""
    return RationalComplex(re, im)


ZERO = RationalComplex(0)
ONE = RationalComplex(1)
