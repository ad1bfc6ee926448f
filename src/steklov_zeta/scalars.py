"""Exact rational-complex scalars.

The library runs every coefficient identity in exact arithmetic and every
sampling/quadrature experiment in double precision.  Floats use Python's
built-in ``complex``; the exact side uses :class:`RationalComplex`, a pair
of ``Fraction`` components supporting ring operations and conjugation.
Mixing the two in arithmetic is an error by design, not a silent promotion.
:class:`GaussianInteger` (int parts) is the internal ring of the exact
operator trace and of exact form sums once denominators are cleared.
"""

from __future__ import annotations

import math
from fractions import Fraction

_RATIONAL = (int, Fraction)


def to_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or string ("p/q" or decimal) to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


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


class GaussianInteger:
    """re + i im with int parts: the ring of the exact operator trace and of
    exact form sums once denominators are cleared (clear_denominators).

    Only the ring operations that trace.BandedOperator and
    invariants._form_sum need; an int factor multiplies from the left
    (``n * z``).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianInteger(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def __rmul__(self, n: int):
        return GaussianInteger(n * self.re, n * self.im)

    def over(self, d: int) -> RationalComplex:
        """self / d, exactly."""
        return RationalComplex(Fraction(self.re, d), Fraction(self.im, d))


def clear_denominators(values) -> tuple[list, int]:
    """([g_1, ...], D) with D the lcm of the denominators of every part of
    the RationalComplex values v_i, and g_i = D v_i as a GaussianInteger."""
    values = list(values)
    D = math.lcm(*(c.denominator for v in values for c in (v.re, v.im)))
    return [GaussianInteger(v.re.numerator * (D // v.re.denominator),
                            v.im.numerator * (D // v.im.denominator))
            for v in values], D


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
