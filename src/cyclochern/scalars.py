"""Exact Gaussian-rational scalars.

Every algebraic identity in the workbench is checked as an exact equality,
so the ground field is Q(i) rather than floats.  A scalar is a pair of
exact rationals (real and imaginary part), each stored as an `int` when it
is integral and as a `fractions.Fraction` otherwise; almost every scalar
the chain operators produce is integral, and `int` arithmetic is several
times faster than `Fraction` arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
import re

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^\s*(?P<re>{_RAT})?\s*(?:(?P<sign>[+-])\s*(?P<im>{_RAT})?\s*i)?\s*$"
)


def _exact(x) -> int | Fraction:
    """Canonical part: `int` when integral, `Fraction` otherwise; no floats."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"Scalar parts must be exact rationals, not {x!r}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Scalar:
    """A Gaussian rational a + b*i with exact parts (`int` or `Fraction`)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _exact(re))
        _set_im(self, _exact(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return _scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        return _scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if not other.im and not self.im:
            return _scalar(self.re * other.re, 0)
        return _scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self) -> Scalar:
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _scalar(Fraction(self.re, n), Fraction(-self.im, n))

    def conjugate(self) -> Scalar:
        return _scalar(self.re, -self.im)

    def norm_sq(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions -----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_real(self) -> bool:
        return not self.im

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _scalar(re, im) -> Scalar:
    """Scalar from `int`/`Fraction` parts, normalized; no float check."""
    z = _new(Scalar)
    _set_re(z, re if type(re) is int or re.denominator != 1 else re.numerator)
    _set_im(z, im if type(im) is int or im.denominator != 1 else im.numerator)
    return z


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {type(value)!r} to Scalar")


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s i", "-i", "3-2i" style strings."""
    m = _SCALAR_RE.match(text)
    if not m or (m.group("re") is None and m.group("sign") is None):
        raise ValueError(f"not a scalar: {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") is not None else Fraction(0)
    im_part = Fraction(0)
    if m.group("sign") is not None:
        mag = Fraction(m.group("im")) if m.group("im") is not None else Fraction(1)
        im_part = mag if m.group("sign") == "+" else -mag
    return Scalar(re_part, im_part)


def format_scalar(z: Scalar) -> str:
    if not z.im:
        return str(z.re)
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"
