"""Exact rational-complex scalars and the one ring of the numpy kernels.

The library runs every coefficient identity in exact arithmetic and every
sampling/quadrature experiment in double precision.  Floats use Python's
built-in ``complex``; the exact side uses :class:`RationalComplex`, a pair
of ``Fraction`` components supporting ring operations and conjugation.
Mixing the two in arithmetic is an error by design, not a silent promotion.

The numpy kernels (form sums, operator trace, conformal transport) hold
coefficients only through ``ring`` and ``join``, on either backend.
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

    >>> z = RationalComplex(Fraction(1, 2), 1)
    >>> z * z.conjugate()
    RationalComplex(5/4, 0)
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", to_fraction(re))
        object.__setattr__(self, "im", to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar (rational) divisor only; full complex division is not needed
        if isinstance(other, _RATIONAL):
            return RationalComplex(self.re / other, self.im / other)
        return NotImplemented

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    # predicates and conversions ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def sup_abs(self) -> Fraction:
        """Exact sup-norm max(|re|, |im|); zero iff the value is zero."""
        return max(abs(self.re), abs(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


def _coerce(x):
    if isinstance(x, RationalComplex):
        return x
    if isinstance(x, _RATIONAL):
        return RationalComplex(x, 0)
    return NotImplemented


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
    D = math.lcm(*(c.denominator for v in values for c in (v.re, v.im)))
    parts = [v.re for v in values], [v.im for v in values]
    return np.array([[c.numerator * (D // c.denominator) for c in part]
                     for part in parts], dtype=object), D, cmul


def join(z, den, exact: bool):
    """The ring element z over den: a RationalComplex (exact) or a complex."""
    if exact:
        return RationalComplex(Fraction(z[0], den), Fraction(z[1], den))
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
