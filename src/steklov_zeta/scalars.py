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
only on a ring from ``ring``, on either backend, and lift a result through
that ring's own ``join``; an exact ``ring`` vector is the [x; y] integers
of a whole vector over the lcm of its d.  ``residue_ring``, a ring of the
same shape, carries such a vector to int64 residues modulo split Gaussian
primes and lifts back by CRT: the operator trace computes on it in words.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

_RATIONAL = (int, Fraction)

# Largest decimal exponent to_fraction reads, as Fraction expands it in full:
# the default digit limit of int() on a string, sys.get_int_max_str_digits().
_MAX_EXPONENT = 4300


def to_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction, anything operator.index accepts (ints,
    bools, numpy integers) or a "p/q" or decimal string with an exponent of
    at most _MAX_EXPONENT in magnitude.  Anything else, a float too, raises
    a ValueError that names it: the library's one check of an exact value."""
    if isinstance(x, Fraction):
        return x
    try:
        if not isinstance(x, str):
            return Fraction(operator.index(x))
        # what follows the E is the exponent, as int() reads it for Fraction
        _, e, exponent = x.upper().partition("E")
        if e and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError(x)
        return Fraction(x)
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
        try:
            return complex(self._x / self._d, self._y / self._d)
        except OverflowError:
            raise ValueError(f"{self!r} is past the double range; use the "
                             "exact backend") from None

    def __abs__(self) -> float:
        return abs(complex(self))

    def sup_abs(self) -> Fraction:
        """Exact sup-norm max(|re|, |im|); zero iff the value is zero."""
        return Fraction(max(abs(self._x), abs(self._y)), self._d)

    def __repr__(self):
        return f"RationalComplex({_show(self.re)}, {_show(self.im)})"


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
    np.multiply.outer), for two stacks of the exact ring."""
    (xr, xi), (yr, yi) = x, y
    return np.array([op(xr, yr) - op(xi, yi), op(xr, yi) + op(xi, yr)])


def ring(values, exact: bool):
    """(vec, D, mul, join): the complex values as one ring vector over D.
    Float: vec is complex128 in the shape of values (rows too), D = 1,
    mul(x, y, op=np.multiply) is op.  Exact: D is the lcm of every part's
    denominator, vec the (2, n) stack [re; im] of D v as Python ints in an
    object array (products of a few outgrow int64), mul is cmul.  mul
    takes two ring arrays; a real array scales either ring only with *.
    join(z, den), as residue_ring's, lifts z over den > 0 to a scalar."""
    if not exact:
        return np.array(values, dtype=complex), 1, _product, _float_join
    D = math.lcm(*(v._d for v in values))
    return np.array([[v._x * (D // v._d) for v in values],
                     [v._y * (D // v._d) for v in values]],
                    dtype=object), D, cmul, _exact_join


def _exact_join(z, den) -> RationalComplex:
    return _make(int(z[0]), int(z[1]), den)


def _float_join(z, den) -> complex:
    """z / den, a complex.  A float series form, trace or apply_moebius row
    that is not finite (an overflow) raises a ValueError naming it; the
    campaign's block sums (invariants._closed_forms) skip this lift, as
    the scale bound of CampaignConfig keeps them finite."""
    z = complex(z)
    z = z if den == 1 else z / den
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"float result {z} is not finite (it overflowed "
                         "double precision); use the exact backend")
    return z


WORD = 2 ** 63   # int64 holds every |value| < WORD
# prime lists kept by split_primes: one per (width, count), counts doubling
SPLIT_PRIMES_CACHE = 32


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7: exact for n < 3,215,031,751,
    the least strong pseudoprime to all four (every candidate of
    split_primes is at most 1 + isqrt(2^63 - 1) = 3,037,000,500)."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=SPLIT_PRIMES_CACHE)
def split_primes(width: int, count: int) -> tuple:
    """The count largest primes p = 1 (mod 4) with width (p - 1)^2 < 2^63,
    largest first, as pairs (p, s) with s^2 = -1 (mod p): a sum of width
    products of residues below p fits an int64.  s is c^((p - 1)/4) for
    the least quadratic non-residue c.

    The search goes on below the last prime of split_primes(width,
    count // 2), itself cached, so residue_primes' doubling counts test
    each candidate once."""
    if count > 1:
        primes = list(split_primes(width, count // 2))
        p = primes[-1][0] - 4
    else:
        p = 1 + math.isqrt((WORD - 1) // width)
        p -= (p - 1) % 4
        primes = []
    while len(primes) < count:
        if _is_prime(p):
            c = 2
            while pow(c, (p - 1) // 2, p) != p - 1:
                c += 1
            primes.append((p, pow(c, (p - 1) // 4, p)))
        p -= 4
    return tuple(primes)


def residue_primes(width: int, bound: int) -> tuple:
    """The fewest leading primes of split_primes(width, .) whose product M
    exceeds 2 bound, so that an integer of magnitude <= bound is its
    residue mod M in the symmetric range (-M/2, M/2)."""
    count = 1
    while math.prod(p for p, _ in split_primes(width, count)) <= 2 * bound:
        count *= 2
    primes, M = [], 1
    for p, s in split_primes(width, count):
        if M > 2 * bound:
            break
        primes.append((p, s))
        M *= p
    return tuple(primes)


def residue_ring(vec, width: int, bound: int):
    """(vec, mul, join): the exact ring vector vec (ring's [x; y] stack of
    Python ints) on word-size residues, for a kernel whose products sum at
    most width terms and whose result z has |re z|, |im z| <= bound.

    For a prime p = 1 (mod 4) with s^2 = -1, Z[i]/p splits into two copies
    of Z/p by x + iy -> (x + s y, x - s y).  Each prime of
    residue_primes(width, bound) gives two such channels on the leading
    axis of the int64 vec, and mul(x, y, op=np.multiply) is op per channel
    followed by % p: operands below p and width (p - 1)^2 < 2^63 keep a
    matmul inside int64.  join(z, den) takes z's channels back to x and y
    mod p, lifts each once by CRT and returns the RationalComplex
    (x + iy) / den.
    """
    primes = residue_primes(width, bound)
    P = np.repeat(np.array([p for p, _ in primes], dtype=np.int64), 2)
    x, y = vec.tolist()
    channels = np.array([[(u + t * v) % p for u, v in zip(x, y)]
                         for p, s in primes for t in (s, -s)],
                        dtype=np.int64).reshape(P.shape + vec.shape[1:])

    def mul(a, b, op=np.multiply):
        z = op(a, b)
        return z % P.reshape(P.shape + (1,) * (z.ndim - 1))

    def join(z, den):
        z, xs, ys = z.tolist(), [], []
        for (p, s), u, v in zip(primes, z[0::2], z[1::2]):
            h = (p + 1) // 2                    # 1/2 mod p
            xs.append((u + v) * h % p)
            ys.append((v - u) * s * h % p)      # 1/s = -s mod p
        return _make(*_crt((xs, ys), primes), den)

    return channels, mul, join


def _crt(rows, primes) -> list:
    """For each row of residues mod the primes, the integer with those
    residues in (-M/2, M/2), M the product of the primes."""
    M = math.prod(p for p, _ in primes)
    basis = [M // p * pow(M // p, -1, p) for p, _ in primes]
    lifts = [sum(map(operator.mul, row, basis)) % M for row in rows]
    return [z - M if 2 * z > M else z for z in lifts]


def _digits(x) -> int:
    """The decimal digits of an exact int or Fraction's larger of |numerator|
    and denominator, counted without converting it to text."""
    big = max(abs(x.numerator), x.denominator)
    digits = math.floor(math.log10(big)) + 1  # the float log may be off
    digits += big >= 10 ** digits
    return digits - (big < 10 ** (digits - 1))


def _show(x) -> str:
    """str of an exact int or Fraction, or "<N digits>" past Python's limit
    of sys.get_int_max_str_digits() digits for an int as text."""
    try:
        return str(x)
    except ValueError:
        return f"<{_digits(x)} digits>"


def _fmt_exact(x) -> str:
    """str of an exact int or Fraction.  Python converts an int of more
    than sys.get_int_max_str_digits() digits to text only on request; past
    that limit this raises a ValueError naming the value's digit count."""
    try:
        return str(x)
    except ValueError:
        digits = _digits(x)
        raise ValueError(
            f"an exact value of {digits} digits is past Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for printing an integer "
            "(raise it with PYTHONINTMAXSTRDIGITS or -X int_max_str_digits)"
        ) from None


def format_scalar(value) -> tuple[str, str]:
    """Render a coefficient as (re, im) decimal/rational strings for JSON."""
    if isinstance(value, RationalComplex):
        return _fmt_exact(value.re), _fmt_exact(value.im)
    z = complex(value)
    return repr(z.real), repr(z.imag)


def parse_scalar(re, im, backend: str):
    """Parse (re, im), strings or JSON numbers, to an "exact" scalar, else
    a "float" one; a number reads as its text, so 0.1 gives 1/10."""
    re, im = to_fraction(str(re)), to_fraction(str(im))
    if backend == "exact":
        return RationalComplex(re, im)
    return complex(float(re), float(im))
