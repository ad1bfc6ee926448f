"""Exact rational-complex scalars and the one ring of the numpy kernels.

The library runs every coefficient identity in exact arithmetic and every
sampling/quadrature experiment in double precision.  Floats use Python's
built-in ``complex``; the exact side uses :class:`RationalComplex`, with
ring operations and conjugation.  Mixing the two in arithmetic is an error
by design, not a silent promotion.

Exact values have one form: Gaussian integers over one positive
denominator.  A RationalComplex is (x + iy) / d with gcd(x, y, d) = 1, so
each of its operations is integer arithmetic and one gcd.  The numpy
kernels (form sums, operator trace, conformal transport) hold coefficients
only through ``ring`` and ``join``, on either backend; an exact ``ring``
vector is the [x; y] integers of a whole vector over the lcm of its d.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

_RATIONAL = (int, Fraction)


def to_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction, anything operator.index accepts (ints,
    bools, numpy integers) or a "p/q" or decimal string.  Anything else, a
    float too, raises a ValueError that names it: the library's one check
    of an exact value."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x if isinstance(x, str) else operator.index(x))
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{x!r} is not an exact rational") from None


class RationalComplex:
    """A complex number with exact rational real and imaginary parts.

    Stored as a Gaussian integer over one denominator, (x + iy) / d with
    d > 0 and gcd(x, y, d) = 1: the form scalars.ring gives a whole vector.
    The triple is canonical, so == compares three ints, and each ring
    operation is integer arithmetic and one gcd.  An int or Fraction
    operand scales the parts directly; a float one is a TypeError.  re and
    im are read-only Fraction views.

    >>> z = RationalComplex(Fraction(1, 2), 1)
    >>> z * z.conjugate()
    RationalComplex(5/4, 0)
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        re, im = to_fraction(re), to_fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        # reduced already: a prime's full power in d is one part's whole
        # denominator, and that part's numerator is prime to it
        _set_x(self, re.numerator * (d // re.denominator))
        _set_y(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    def __reduce__(self):
        return RationalComplex, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    # ring operations -----------------------------------------------------

    def _plus(self, x: int, y: int, d: int) -> "RationalComplex":
        return _make(self._x * d + x * self._d, self._y * d + y * self._d,
                     self._d * d)

    def __add__(self, other):
        if isinstance(other, RationalComplex):
            return self._plus(other._x, other._y, other._d)
        if isinstance(other, _RATIONAL):
            return self._plus(other.numerator, 0, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RationalComplex):
            return self._plus(-other._x, -other._y, other._d)
        if isinstance(other, _RATIONAL):
            return self._plus(-other.numerator, 0, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return (-self)._plus(other.numerator, 0, other.denominator)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RationalComplex):
            x, y = other._x, other._y
            return _make(self._x * x - self._y * y, self._x * y + self._y * x,
                         self._d * other._d)
        if isinstance(other, _RATIONAL):
            p = other.numerator
            return _make(self._x * p, self._y * p, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar (rational) divisor only; full complex division is not needed
        if isinstance(other, _RATIONAL):
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __neg__(self):
        return _raw(-self._x, -self._y, self._d)

    def __pos__(self):
        return self

    def conjugate(self) -> "RationalComplex":
        return _raw(self._x, -self._y, self._d)

    # predicates and conversions ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._x or self._y)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalComplex):
            return (self._x == other._x and self._y == other._y
                    and self._d == other._d)
        if isinstance(other, _RATIONAL):
            return (self._y == 0 and self._x == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        return hash(self.re) if self._y == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._x / self._d, self._y / self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def sup_abs(self) -> Fraction:
        """Exact sup-norm max(|re|, |im|); zero iff the value is zero."""
        return Fraction(max(abs(self._x), abs(self._y)), self._d)

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


# the slots' own setters, past the __setattr__ that keeps values immutable
_set_x, _set_y, _set_d = (RationalComplex.__dict__[name].__set__
                          for name in RationalComplex.__slots__)


def _raw(x: int, y: int, d: int) -> RationalComplex:
    """(x + iy) / d as stored, unchecked: d > 0 and gcd(x, y, d) = 1."""
    z = object.__new__(RationalComplex)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _make(x: int, y: int, d: int) -> RationalComplex:
    """(x + iy) / d for d > 0, reduced by its one gcd."""
    g = math.gcd(x, y, d)
    if g == 1:
        return _raw(x, y, d)
    return _raw(x // g, y // g, d // g)


RC_ZERO = RationalComplex(0, 0)


def _product(x, y, op=np.multiply):
    return op(x, y)


def cmul(x, y, op=np.multiply):
    """[xr; xi] [yr; yi], op the product of parts (np.multiply, np.matmul,
    np.multiply.outer); a real x, one axis short of y, scales y."""
    if x.ndim < y.ndim:
        return op(x, y)
    (xr, xi), (yr, yi) = x, y
    return np.array([op(xr, yr) - op(xi, yi), op(xr, yi) + op(xi, yr)])


def ring(values, exact: bool):
    """(vec, D, mul): the complex values as one ring vector over D.  Float:
    vec is complex128, D = 1, mul(x, y, op=np.multiply) is op.  Exact: D is
    the lcm of every part's denominator, vec the (2, n) stack [re; im] of
    D v as Python ints in an object array (products of a few outgrow
    int64), mul is cmul.  A real array scales either shape with *."""
    if not exact:
        return np.array(values, dtype=complex), 1, _product
    D = math.lcm(*(v._d for v in values))
    return np.array([[v._x * (D // v._d) for v in values],
                     [v._y * (D // v._d) for v in values]],
                    dtype=object), D, cmul


def join(z, den, exact: bool):
    """The ring element z over den > 0: a RationalComplex (exact) or a
    complex."""
    if exact:
        return _make(int(z[0]), int(z[1]), den)
    z = complex(z)
    return z if den == 1 else z / den


def format_scalar(value) -> tuple[str, str]:
    """Render a coefficient as (re, im) decimal/rational strings for JSON."""
    if isinstance(value, RationalComplex):
        return str(value.re), str(value.im)
    z = complex(value)
    return repr(z.real), repr(z.imag)


def parse_scalar(re: str, im: str, backend: str):
    """Parse (re, im) strings back to a scalar of the requested backend."""
    if backend == "exact":
        return RationalComplex(Fraction(re), Fraction(im))
    if backend == "float":
        return complex(float(Fraction(re)), float(Fraction(im)))
    raise ValueError(f"unknown backend {backend!r}")
