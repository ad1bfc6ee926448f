"""Trigonometric polynomials on the unit circle.

A function a(theta) = sum_n a_n e^{i n theta} with finitely many nonzero
Fourier coefficients is stored as the sparse table {n: a_n}.  Two scalar
backends exist behind the same interface:

* ``exact``  -- coefficients are :class:`~steklov_zeta.scalars.RationalComplex`
  values; used for everything that is an exact integer/rational identity.
* ``float``  -- coefficients are Python ``complex``; used for sampling,
  pullback, and quadrature experiments.

Mixing backends inside one operation raises
:class:`~steklov_zeta.errors.BackendMismatch`.

Float point values come from one kernel, evaluate_at: the coefficients as
one dense vector over -deg..deg and plain Horner's rule in z and in
conj(z) = 1/z, deg + 1 steps per side whether the series is dense or
sparse; there is no gap stepping.  A series that is exactly real (a_0
real, a_-n == conj(a_n) bit for bit) takes one side only: a(z) =
2 Re P(z) - a_0, P(z) = sum_{n>=0} a_n z^n, one Horner pass over
2a_deg, ..., 2a_1, a_0 whose real part is the value, a float64 array for
an array z, within the same error bound.  from_samples of real samples
takes the real FFT and mirrors a_n to a_-n by exact conjugation, so a real
weight sampled and transformed stays exactly real.

Circle integrals use the trapezoid rule on equispaced grids, which is
spectrally accurate for smooth periodic integrands; grid sizes are caller
arguments with a default of 4096.  The grid points e^{i theta_m} of each
size are computed once and shared read-only (grid_points).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from functools import lru_cache

import numpy as np

from .errors import BackendMismatch, GridTooSmall, NotPositive, NotReal
from .scalars import RC_ZERO, RationalComplex, format_scalar, parse_scalar

DEFAULT_GRID = 4096

EXACT = "exact"
FLOAT = "float"


def _coerce_exact(value) -> RationalComplex:
    if isinstance(value, RationalComplex):
        return value
    pair = isinstance(value, tuple) and len(value) == 2
    return RationalComplex(*value) if pair else RationalComplex(value)


def _indices(values) -> list:
    """The values as Python ints via operator.index (ints, bools, numpy
    integers); anything else raises a ValueError naming it, never a
    truncated value.  The library's one integer check: frequencies,
    coefficient indices, orders k and every size argument (_size)."""
    out = []
    for j in values:
        try:
            out.append(operator.index(j))
        except TypeError:
            raise ValueError(f"index {j!r} is not an integer") from None
    return out


def _size(value, name: str, least: int = 1) -> int:
    """value as an int >= least, else a ValueError naming it: the one check
    of orders k, grid sizes, degrees (least 0), half-widths, step and
    sample counts."""
    (n,) = _indices((value,))
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _real(value, name: str, least=None, strict: bool = True):
    """value, unchanged, if it is a numbers.Real (numpy real scalars too; a
    bool is the int it is) whose float is finite and > least (>= least when
    not strict), else a ValueError naming it; a float past the double range
    counts as infinite.  The one check of tolerances, scales, floors,
    angles, times and kappas."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        x = math.inf
    if not (math.isfinite(x) and (
            least is None or (x > least if strict else x >= least))):
        bound = "" if least is None else f" {'>' if strict else '>='} {least}"
        raise ValueError(f"{name} must be a finite real{bound}, got {value!r}")
    return value


class TrigSeries:
    """Finitely supported Fourier coefficient table.

    Invariants: no explicitly stored zero entries; ``degree`` is the largest
    |n| with a stored coefficient (0 for the zero series).
    """

    __slots__ = ("_coeffs", "backend")

    def __init__(self, coeffs: dict, backend: str):
        if backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {backend!r}")
        clean = {}
        for n, v in zip(_indices(coeffs), coeffs.values()):
            if backend == EXACT:
                v = _coerce_exact(v)
            else:  # a ValueError naming v, as scalars.to_fraction gives
                try:
                    v = complex(v)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{v!r} is not a complex number") from None
            if v:
                clean[n] = v
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("TrigSeries is immutable")

    # construction ---------------------------------------------------------

    @classmethod
    def exact(cls, coeffs: dict) -> "TrigSeries":
        """Exact-backend series; a value is a RationalComplex, an (re, im)
        pair or a real part, each part as scalars.to_fraction takes it."""
        return cls(coeffs, EXACT)

    @classmethod
    def from_complex(cls, coeffs: dict) -> "TrigSeries":
        """Float-backend series from any complex-convertible values."""
        return cls(coeffs, FLOAT)

    @classmethod
    def zero(cls, backend: str = EXACT) -> "TrigSeries":
        return cls({}, backend)

    # accessors ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self._coeffs), default=0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def coeff(self, n: int):
        zero = RC_ZERO if self.backend == EXACT else 0j
        return self._coeffs.get(n, zero)

    def items(self):
        return sorted(self._coeffs.items())

    def __bool__(self):
        return bool(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return self.backend == other.backend and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.backend, tuple(self.items())))

    def __repr__(self):
        entries = ", ".join(f"{n}: {v}" for n, v in self.items())
        return f"TrigSeries[{self.backend}]({{{entries}}})"

    # linear structure -----------------------------------------------------

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        if self.backend != other.backend:
            raise BackendMismatch("cannot add exact and float series")
        out = dict(self._coeffs)
        for n, v in other._coeffs.items():
            out[n] = out.get(n, RC_ZERO if self.backend == EXACT else 0j) + v
        return TrigSeries(out, self.backend)

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TrigSeries":
        """An int or Fraction scales either backend, a RationalComplex an
        exact and any other number a float series; a mix is a mismatch."""
        rc = isinstance(scalar, RationalComplex)
        if not (rc or isinstance(scalar, numbers.Number)):
            return NotImplemented
        if rc != (self.backend == EXACT) and not isinstance(
                scalar, numbers.Rational):
            raise BackendMismatch(f"cannot scale {self.backend} series by "
                                  f"{scalar!r}")
        return TrigSeries({n: scalar * v for n, v in self._coeffs.items()},
                          self.backend)

    # conversions ----------------------------------------------------------

    def to_float(self) -> "TrigSeries":
        if self.backend == FLOAT:
            return self
        return TrigSeries({n: complex(v) for n, v in self._coeffs.items()}, FLOAT)

    def sum_abs(self) -> float:
        """Float value of sum_n |a_n|, the natural scale of the series."""
        return float(sum(abs(complex(v)) for v in self._coeffs.values()))


def grid_angles(size: int) -> np.ndarray:
    size = _size(size, "grid size")
    return 2.0 * np.pi * np.arange(size) / size


def grid_points(size: int) -> np.ndarray:
    """The points e^{i theta_m} of the equispaced grid, read-only.

    One array per size is kept (_grid_points), shared by every caller.  The
    size is checked first, so the cache sees only ints: as lru keys, 8192.0
    and np.int64(8192) are equal.
    """
    return _grid_points(_size(size, "grid size"))


# Grids kept by _grid_points; callers use a few sizes (DEFAULT_GRID, the
# criterion-4 8192), at 16 bytes per point.
@lru_cache(maxsize=8)
def _grid_points(size: int) -> np.ndarray:
    z = np.exp(1j * grid_angles(size))
    z.flags.writeable = False
    return z


def _horner(c: list, x: np.ndarray) -> np.ndarray:
    """c[0] x^m + c[1] x^(m-1) + ... + c[m] for a dense list of complex
    coefficients, by Horner's rule: m steps after the first coefficient,
    each one complex product and one sum."""
    acc = np.full(x.shape, c[0])
    for cj in c[1:]:
        acc *= x
        acc += cj
    return acc


def evaluate_at(a: TrigSeries, z):
    """Evaluate sum_n a_n z^n at points z on the unit circle.

    z may be a scalar (a Python complex comes back) or an array.  The
    coefficients go into one dense vector c[n + deg] = a_n over -deg..deg,
    zeros where a stores none.  A series that is exactly real (a_0 real and
    a_-n == conj(a_n) for every n, bit for bit) takes one Horner pass over
    2a_deg, ..., 2a_1, a_0 in z, and its value is the real part: a(z) =
    2 Re P(z) - a_0 with P(z) = sum_{n>=0} a_n z^n, a float64 array for an
    array z.  Any other series takes Horner's rule over a_deg ... a_0 in z
    and over a_-deg ... a_-1, 0 in conj(z), which equals 1/z on the circle,
    so no exponential is taken.  With u the unit roundoff and every
    |z| = 1, each of the deg + 1 steps per side (one complex product, one
    sum) adds at most about 3.3u * sum|a_n|; a point that is off the circle
    by a relative d moves the term a_n z^n by about |n| d |a_n|.  The real
    rule keeps within that bound: doubling is exact, the doubled
    coefficients have the same sum of moduli as the whole series (|a_-n| =
    |a_n|), so its one side of deg + 1 steps adds at most what one of the
    two sides may add, and taking the real part adds nothing.  A scalar z
    and the same point inside an array can differ in the last bit on either
    path: numpy's SIMD loops (AVX-512 on x86_64) fuse the multiply-adds of
    a complex product over an array but not for a single point ({2: 1j} at
    (3 + 4i)/5: -0.96-0.28000000000000014j alone, -0.96-0.2800000000000001j
    in a 12-point array).  Both lie within the bound above, so a certified
    minimum on the circle must take its margin from the bound, not from
    equality across array lengths.
    """
    deg = a.degree
    c = [0j] * (2 * deg + 1)
    for n, v in a.items():
        c[n + deg] = complex(v)
    w = np.asarray(z, dtype=complex)
    if c == [v.conjugate() for v in reversed(c)]:  # exactly real
        out = _horner([2 * v for v in c[:deg:-1]] + [c[deg]], w).real
    else:
        out = _horner(c[deg:][::-1], w)
        out += _horner(c[:deg] + [0j], np.conj(w))
    return complex(out) if np.ndim(z) == 0 else out


def evaluate(a: TrigSeries, theta):
    """Evaluate sum_n a_n e^{i n theta}; theta may be a scalar or an array."""
    return evaluate_at(a, np.exp(1j * np.asarray(theta, dtype=float)))


def sample_series(a: TrigSeries, size: int) -> np.ndarray:
    """The samples a(theta_m), theta_m = 2 pi m / size, of a series on the
    equispaced grid: the one grid sampler, on the points of grid_points."""
    return evaluate_at(a, grid_points(size))


def _nyquist_degree(size: int, degree: int) -> int:
    """degree as an int >= 0 that a grid of size points resolves, size >=
    2*degree + 1, else GridTooSmall: the one Nyquist check."""
    degree = _size(degree, "degree", 0)
    if size < 2 * degree + 1:
        raise GridTooSmall(
            f"grid size {size} < 2*{degree}+1 required for degree {degree}")
    return degree


def from_samples(samples, degree: int) -> TrigSeries:
    """Recover the band-limited series of the given degree from the samples
    of sample_series: one-dimensional, on a grid of len(samples) points.

    The inverse DFT is exact (up to roundoff) for inputs that are genuinely
    band-limited to the requested degree; the grid must satisfy the Nyquist
    bound size >= 2*degree + 1.  Real samples (a float, int or bool dtype)
    take the real FFT (np.fft.rfft) for a_0 ... a_degree, and a_-n is set to
    the exact conjugate of a_n, so the series of real samples is exactly
    real; complex samples take the full FFT.
    """
    samples = np.asarray(samples)
    real = samples.dtype.kind in "biuf"
    samples = samples.astype(float if real else complex, copy=False)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, got {samples.ndim}-D")
    size = len(samples)
    degree = _nyquist_degree(size, degree)
    band = range(-degree, degree + 1)  # negative n index from the end
    if real:
        half = np.fft.rfft(samples)[:degree + 1] / size
        values = np.concatenate((half[:0:-1].conj(), half))
    else:
        values = np.fft.fft(samples)[band] / size
    return TrigSeries.from_complex(dict(zip(band, values.tolist())))


def is_real(a: TrigSeries) -> bool:
    """True iff the series is conjugate-symmetric: a_{-n} = conj(a_n).

    Exact equality on the exact backend; on the float backend the check
    allows roundoff up to 1e-12 * sum|a_n|.
    """
    if a.backend == EXACT:
        return all(a.coeff(-n) == v.conjugate() for n, v in a.items())
    tol = 1e-12 * (a.sum_abs() + 1e-300)
    return all(abs(a.coeff(-n) - v.conjugate()) <= tol for n, v in a.items())


def min_on_circle(a: TrigSeries, grid_size: int = DEFAULT_GRID) -> float:
    """Minimum of a over a dense sample grid.

    A positivity *screen*, not a certificate: the true minimum can only be
    lower than the sampled one.
    """
    return float(np.min(_real_samples(a, grid_size)))


def _real_samples(a: TrigSeries, grid_size: int) -> np.ndarray:
    """Real parts of a on the equispaced grid; a must be real."""
    if not is_real(a):
        raise NotReal("min_on_circle needs a real (conjugate-symmetric) series")
    return sample_series(a, grid_size).real


def normalization_integral(a: TrigSeries, grid_size: int = DEFAULT_GRID) -> float:
    """(1/2pi) * integral of dtheta / a(theta) by the trapezoid rule.

    For a constant series {0: c} this is 1/c; rescaling a by c > 0 divides
    the integral by c.  Positivity is screened on the same samples, as in
    min_on_circle.
    """
    values = _real_samples(a, grid_size)
    if float(np.min(values)) <= 0.0:
        raise NotPositive("normalization integral requires a > 0 on the circle")
    return float(np.mean(1.0 / values))


# JSON serialization -------------------------------------------------------
#
# {"coeffs": [{"n": 2, "re": "1/2", "im": "0"}, ...]}
# with scalar components as decimal strings; exact rationals render as "p/q".


def series_to_json(a: TrigSeries) -> dict:
    rows = []
    for n, v in a.items():
        re, im = format_scalar(v)
        rows.append({"n": n, "re": re, "im": im})
    return {"coeffs": rows}


def _row_entry(i: int, row: dict, backend: str):
    """(n, a_n) of row i of a series file.  n is an int or a string of one
    (not a bool or a float); re and im are strings or numbers (not bools)
    of rational value.  Anything else raises a ValueError naming the row."""
    where = f"series JSON row {i}"
    n = row["n"]
    if isinstance(n, str):
        try:
            n = int(n)
        except ValueError:
            pass
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'{where}: "n" must be an integer, '
                         f'got {json.dumps(row["n"])}')
    parts = row.get("re", "0"), row.get("im", "0")
    for key, x in zip(("re", "im"), parts):
        if isinstance(x, bool) or not isinstance(x, (str, int, float)):
            raise ValueError(f'{where}: "{key}" must be a string or a number, '
                             f"got {json.dumps(x)}")
    try:
        return n, parse_scalar(*parts, backend)
    except (ValueError, ZeroDivisionError, OverflowError):
        got = " and ".join(json.dumps(x) for x in parts)
        raise ValueError(f'{where}: "re" and "im" must be finite rationals, '
                         f"got {got}") from None


def series_from_json(obj: dict, backend: str = EXACT) -> TrigSeries:
    """The series of {"coeffs": [{"n": ..., "re": ..., "im": ...}, ...]};
    any other shape raises a ValueError that names this one, a row entry
    of the wrong type one that names the row (see _row_entry), and two rows
    of the same frequency (2 and "2" are the same) one that names both.  An
    unknown backend is named before any row is read."""
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}")
    coeffs, row_of = {}, {}
    try:
        rows = obj["coeffs"] if isinstance(obj, dict) else None
        if not (isinstance(rows, list)
                and all(isinstance(row, dict) for row in rows)):
            raise ValueError("series JSON must be an object with a "
                             '"coeffs" list of objects')
        for i, row in enumerate(rows):
            n, value = _row_entry(i, row, backend)
            if n in coeffs:
                raise ValueError(f"series JSON rows {row_of[n]} and {i} "
                                 f"both give the frequency n = {n}")
            coeffs[n], row_of[n] = value, i
    except KeyError as exc:
        raise ValueError(f"series JSON lacks the key {exc}") from None
    return TrigSeries(coeffs, backend)


def save_series(a: TrigSeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(series_to_json(a), fh, indent=2)
        fh.write("\n")


def load_series(path, backend: str = EXACT) -> TrigSeries:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
    return series_from_json(obj, backend)
