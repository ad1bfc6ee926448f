"""Action of disc automorphisms on weight functions, in Fourier space.

The translation family of the disc is Phi_rho(z) = (z - rho) / (1 - rho z)
for rho in (-1, 1).  Transporting a weight a along the boundary map
phi = Phi_rho|_{|z|=1} (with the derivative factor that keeps the Steklov
problem equivalent) is linear on Fourier coefficients:

    b_n = sum_k mu_{nk}(rho) a_k.

Column k of M(rho) = (mu_{nk}) is the Fourier series of e^{ik phi} / phi',
with e^{i phi} = B(z) = (z - rho)/(1 - rho z) and 1/phi' =
(1 - rho z)(1 - rho/z)/(1 - rho^2).  Column 0 is thus
(-rho/z + (1 + rho^2) - rho z)/(1 - rho^2); column k+1 is column k times
(z - rho), divided by (1 - rho z) through the running sum
c_n = m_n + rho c_{n-1}.  Both steps move terms only toward higher n, so
rows n <= N of a column need only rows n <= N of the column before: the
truncation |n| <= N is exact, with no tail.  Columns k < 0 follow from
mu_{nk} = mu_{-n,-k}; the zero regions (n <= -2 for k >= -1, n >= 2 for
k <= 1) and the low rows need no branches.  For rho = p/q, d = q^2 - p^2,
mu_{nk} = U^{(k)}_n / (d q^{n+k+1}) with integers U (rows n >= -1):

    (U^{(0)}_{-1}, U^{(0)}_0, U^{(0)}_1) = (-pq, (q^2 + p^2) q, -p q^3),
    U^{(k+1)}_n = q^2 U^{(k)}_{n-1} - p U^{(k)}_n + p U^{(k+1)}_{n-1}.

The float backend runs the same recurrence with p = rho, q = 1.  There is
no alternating sum to cancel: |B| = 1 on the circle and the division
contracts for |rho| < 1, so rounding grows at most linearly in k.

Every column has two norms in closed form.  |B| = 1 on the circle, and the
derivative of e^{ik phi}/phi' is e^{ik phi}(ik + (1/phi')') with the real
(1/phi')' = 2 rho sin(theta)/(1 - rho^2), so by Parseval

    sum_n |mu_{nk}|^2     = (1 + 4 rho^2 + rho^4)/(1 - rho^2)^2,
    sum_n n^2 |mu_{nk}|^2 = k^2 + 2 rho^2/(1 - rho^2)^2.

The second, less the exact rows n <= c, is the weighted tail of column k
past c; suggest_out_degree cuts the output where those tails bound the l1
mass dropped from all columns |k| <= K by tol, so that the cut transport
of a series of degree <= K is off by at most tol max|a_k| in sup norm.

M(rho) M(rho') = M(rho'') for rho'' = (rho + rho')/(1 + rho rho'), and
M(rho) = exp(t D) for tanh t = rho, with the tridiagonal generator
d_{nk} = (n - 2) delta_{n-1,k} - (n + 2) delta_{n+1,k}.  Entries decay
super-exponentially off the band |n/k| in
[(1-|rho|)/(1+|rho|), (1+|rho|)/(1-|rho|)] but are O(1) inside it, so
identities among truncated products hold on a central block only when N
comfortably exceeds the band spread of the block; see group_law_check.

Callers move many weights along a few translations, so the work that
depends only on rho and a size is done once per key: the columns of the
recurrence (_columns, read by mu, mu_matrix and apply_moebius), mu_matrix,
the cut of suggest_out_degree and the circle map of pullback_direct.  Each
cache is a bounded lru_cache keyed on the checked values, where rho is in
the one form that _rho_value gives it; the keys are typed (Fraction(1, 2)
== 0.5 and both hash alike).  Cached values are immutable or read-only,
and every value is the one an uncached call computes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat

import numpy as np

from .errors import BackendMismatch
from .fourier import (EXACT, FLOAT, TrigSeries, _indices, _nyquist_degree,
                      _real, _size, evaluate_at, from_samples, grid_points)
from .scalars import join, ring


def _rho_value(rho):
    """The one check of a translation parameter: an int becomes a Fraction,
    a float (numpy.float64 too) a plain float, -0.0 as 0.0; either must lie
    strictly inside (-1, 1), and anything else, NaN or another type, raises
    ValueError.  mu runs it per entry, hence numerator and denominator
    rather than abs(rho) < 1."""
    if isinstance(rho, int):
        rho = Fraction(rho)
    elif isinstance(rho, float):
        rho = float(rho) + 0.0
    if (isinstance(rho, Fraction) and abs(rho.numerator) < rho.denominator
            or isinstance(rho, float) and -1.0 < rho < 1.0):
        return rho
    if not isinstance(rho, (Fraction, float)):
        rho = f"{rho!r} of type {type(rho).__name__}"
    raise ValueError(f"rho must lie in (-1, 1), got {rho}")


# Bounds of the rho-only caches below.  Callers move many weights along a
# few translations (criterion 4 and the benchmark use three each).
MU_MATRIX_CACHE = 8
CUT_CACHE = 32
CIRCLE_MAP_CACHE = 8


@lru_cache(maxsize=1024, typed=True)
def _pow(base, exponent: int):
    # typed: an int power must never come back as an equal float one
    return base ** exponent


def _rows(p, q, K: int):
    """Rows (U^{(0)}_n, ..., U^{(K)}_n) for n = -1, 0, 1, ... (module
    docstring), each from the row before; endless."""
    qq = q * q
    prev = [0] * (K + 1)
    for u in chain((-p * q, (qq + p * p) * q, -p * qq * q), repeat(0)):
        row = [u]
        for k in range(K):
            row.append(qq * prev[k] - p * row[k] + p * prev[k + 1])
        yield row
        prev = row


@lru_cache(maxsize=32, typed=True)
def _columns(r, K: int, N: int):
    """(U, q, d) with the tuple U[k][n + 1] = U^{(k)}_n (module docstring)
    for k <= K, -1 <= n <= N; a float r runs it with p = r, q = 1.0."""
    p, q = (r, 1.0) if isinstance(r, float) else (r.numerator, r.denominator)
    return tuple(zip(*islice(_rows(p, q, K), N + 2))), q, q * q - p * p


def _entry(u, e: int, q, d):
    """mu_{nk} from its numerator u = U^{(k)}_n and e = n + k + 1."""
    if isinstance(q, float):
        return u / d
    return Fraction(u, d * _pow(q, e))


def mu(n: int, k: int, rho):
    """Matrix entry mu_{nk}(rho); exact Fraction when rho is rational.
    Columns are cached per rho in power-of-two blocks for per-entry loops."""
    n, k = _indices((n, k))
    r = _rho_value(rho)
    if k < 0:
        n, k = -n, -k
    if n < -1:
        return 0.0 if isinstance(r, float) else Fraction(0)
    cols, q, d = _columns(r, 1 << max(k, 15).bit_length(),
                          1 << max(n, 15).bit_length())
    return _entry(cols[k][n + 1], n + k + 1, q, d)


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Dense truncation of an operator on frequencies n in [-N, N]: the
    read-only (2N+1)^2 array, entry (n, k) at [n + N, k + N], of Fractions
    for a rational rho and float64 otherwise.

    >>> M = mu_matrix(Fraction(1, 2), 1)
    >>> M.array[1 + 1, 0 + 1], M.at(1, 0)
    (Fraction(-2, 3), Fraction(-2, 3))
    """

    array: np.ndarray

    def at(self, n: int, k: int):
        """Entry (n, k); an index past the half-width raises ValueError."""
        n, k = _indices((n, k))
        N = len(self.array) // 2
        if abs(n) > N or abs(k) > N:
            raise ValueError(f"index ({n}, {k}) lies outside the half-width "
                             f"{N}")
        return self.array.item(n + N, k + N)


def mu_matrix(rho, N: int) -> TruncatedMatrix:
    """Truncated matrix (mu_{nk}) for |n|, |k| <= N.

    The matrix is immutable, and one is kept per checked (rho, N) in a
    typed cache of MU_MATRIX_CACHE entries (_mu_matrix), shared by every
    caller: Fraction(1, 2) and 0.5 are equal as keys, but the exact and the
    float matrix are not.  An entry holds about 0.1 MB exact and 0.04 MB
    float at N = 24, and 0.7 MB exact at N = 60.
    """
    N = _size(N, "half-width")
    r = _rho_value(rho)
    return _mu_matrix(r, N)


@lru_cache(maxsize=MU_MATRIX_CACHE, typed=True)
def _mu_matrix(r, N: int) -> TruncatedMatrix:
    cols, q, d = _columns(r, N, N)
    M = np.full((2 * N + 1,) * 2, _entry(0, 0, q, d),
                dtype=float if isinstance(q, float) else object)
    for k, col in enumerate(cols):      # zero below n = -1
        M[N - 1:, N + k] = [_entry(u, n + k + 1, q, d)
                            for n, u in enumerate(col, -1)]
    M[:, :N] = M[::-1, :N:-1]           # mu_{nk} = mu_{-n,-k}
    M.flags.writeable = False
    return TruncatedMatrix(M)


def d_matrix(N: int) -> np.ndarray:
    """Generator of the translation family (module docstring): a read-only
    int array, entry (n, k) at [n + N, k + N] as in TruncatedMatrix."""
    N = _size(N, "half-width")
    n = np.arange(-N, N + 1)
    D = np.diag(n[1:] - 2, -1) - np.diag(n[:-1] + 2, 1)
    D.flags.writeable = False
    return D


def apply_moebius(a: TrigSeries, rho, out_degree: int) -> TrigSeries:
    """Transport a through the boundary map, row by row in Fourier space.

    Builds the columns |k| <= deg(a) on rows |n| <= out_degree, the caller's
    truncation of the (infinite) output; each kept coefficient is exact, and
    at out_degree = suggest_out_degree(deg(a), rho, tol) the dropped ones
    add up to at most tol max|a_k| in sup norm.  Row n is the numerators
    U^{(k)}_n q^{E_n - e} over d q^{E_n}, E_n its largest e = n + k + 1,
    times the coefficient ring of a (scalars.ring, exact over D); join
    divides it once by d D q^{E_n}.
    """
    r = _rho_value(rho)
    out_degree = _size(out_degree, "out degree", 0)
    if a.backend == EXACT and isinstance(r, float):
        raise BackendMismatch("exact series with float rho; pass a Fraction")
    exact = a.backend == EXACT
    r = r if exact else float(r)
    vec, D, _ = ring([v for _, v in a.items()], exact)
    k = np.array(a.support, dtype=int)
    s, k = np.where(k < 0, -1, 1), np.abs(k)
    cols, q, d = _columns(r, a.degree, out_degree)
    ns = range(-out_degree, out_degree + 1)
    sn = np.multiply.outer(s, ns)
    valid = sn >= -1                # mu_{nk} = mu_{sn,|k|}, zero for sn < -1
    e = np.where(valid, sn + k[:, None] + 1, 0)
    E = e.max(axis=0, initial=0)
    powers = [q ** i for i in range(E.max() + 1)]
    U = np.array(cols, dtype=vec.dtype)[k[:, None], np.where(valid, sn + 1, 0)]
    totals = vec @ np.where(valid, U * np.array(powers, vec.dtype)[E - e], 0)
    return TrigSeries({n: join(totals[..., i], d * D * powers[E[i]], exact)
                       for i, n in enumerate(ns)}, a.backend)


def pullback_direct(a: TrigSeries, rho, grid_size: int,
                    out_degree: int) -> TrigSeries:
    """Sampling route for the same transport: b = (a o phi) / (dphi/dtheta).

    e^{i phi(theta)} = Phi_rho(e^{i theta}) = (z - rho) / (1 - rho z) with
    z = e^{i theta}, and dphi/dtheta = (1 - rho^2) / |1 - rho z|^2.  The angle
    phi itself is never formed: a is evaluated at the point w / |w| of the
    circle (w = Phi_rho(z), renormalized against rounding) by
    fourier.evaluate_at; the points z are the shared fourier.grid_points.
    A real weight a (exactly conjugate-symmetric) is sampled as a real
    function, by evaluate_at's one-sided real rule, and its fresh float64
    samples are divided by dphi/dtheta in place and go through
    from_samples' real FFT, so its pullback b is exactly real too; any
    other series is sampled and transformed as complex.  Float backend
    only; the result is the degree-out_degree interpolant from grid_size
    samples, and a grid too small for it raises GridTooSmall before any
    sampling.  The points w / |w| and dphi/dtheta depend only on
    (rho, grid_size); they are kept, read-only, in a cache of
    CIRCLE_MAP_CACHE entries (_circle_map), 24 bytes per grid point: about
    192 KiB at grid_size 8192.
    """
    r = float(_rho_value(rho))
    grid_size = _size(grid_size, "grid size")
    out_degree = _nyquist_degree(grid_size, out_degree)
    u, dphi = _circle_map(r, grid_size)
    samples = evaluate_at(a.to_float(), u)
    samples /= dphi
    return from_samples(samples, out_degree)


@lru_cache(maxsize=CIRCLE_MAP_CACHE)
def _circle_map(r: float, grid_size: int) -> tuple:
    """(u, dphi): the points w / |w| at which a is sampled, and
    dphi/dtheta, on the grid of grid_size points (pullback_direct)."""
    z = grid_points(grid_size)
    den = 1.0 - r * z
    w = (z - r) / den
    dphi = (1.0 - r * r) / np.abs(den) ** 2
    u = w / np.abs(w)
    u.flags.writeable = dphi.flags.writeable = False
    return u, dphi


def rotate(a: TrigSeries, alpha: float) -> TrigSeries:
    """Rotation pullback: coefficient n picks up the phase e^{i alpha n}.

    Float backend only (the phases are transcendental); alpha must be a
    finite real.
    """
    _real(alpha, "alpha")
    if a.backend == EXACT:
        raise BackendMismatch("rotate supports the float backend only")
    return TrigSeries.from_complex(
        {n: v * complex(math.cos(alpha * n), math.sin(alpha * n))
         for n, v in a.items()})


def conjugate(a: TrigSeries) -> TrigSeries:
    """Reflection pullback theta -> -theta: coefficient table index-flips."""
    return TrigSeries({-n: v for n, v in a.items()}, a.backend)


def group_law_check(rho, rho2, N: int, exact: bool = False,
                    block: int | None = None) -> float:
    """Max deviation of M_N(rho) M_N(rho') - M_N(rho'') on |n|,|k| <= block.

    rho'' = (rho + rho')/(1 + rho rho'), block defaults to N//2, and
    exact=True (rational rho only) runs the product on Fractions.  The
    deviation is pure truncation error: the product drops the inner terms
    |p| > N, largest at the block corners, whose band reaches furthest out.
    At rho = rho' = 3/10, block 20 it is 1.2e-3, 1.2e-8 and below 1e-14 at
    N = 40, 50, 60; with the default block the corners move out with N and
    it does NOT shrink that way (1.2e-3, 6.5e-4, 4.4e-4 at N = 40, 52, 60).
    """
    N = _size(N, "half-width")
    block = N // 2 if block is None else _size(block, "block", 0)
    if block > N:
        raise ValueError(f"block must lie in [0, N={N}], got {block}")
    r1, r2 = _rho_value(rho), _rho_value(rho2)
    if exact and (isinstance(r1, float) or isinstance(r2, float)):
        raise BackendMismatch("exact group-law check needs rational rho")
    r3 = (r1 + r2) / (1 + r1 * r2)
    A, B, C = (mu_matrix(r, N).array.astype(object if exact else float)
               for r in (r1, r2, r3))
    sl = slice(N - block, N + block + 1)
    return float(np.max(np.abs(A[sl, :] @ B[:, sl] - C[sl, sl])))


def rk4_exponential(D: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Integrate M' = D M from the identity over [0, t], classical RK4.
    D must be a square 2-D array of numbers (a bool, integer, float or
    complex dtype, or an object array of numbers such as Fractions, which
    is taken to float64 once, or to complex128 if an entry is not real) and
    t a finite real, else ValueError."""
    steps = _size(steps, "steps")
    D = np.asarray(D)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"D must be a square 2-D array, got shape {D.shape}")
    if not (D.dtype.kind in "biufc" or D.dtype.kind == "O" and all(
            isinstance(x, numbers.Number) for x in D.flat)):
        raise ValueError(f"D must hold numbers, got dtype {D.dtype}")
    _real(t, "t")
    if D.dtype.kind == "O":
        D = D.astype(float if all(isinstance(x, numbers.Real) for x in D.flat)
                     else complex)
    h = float(t) / steps
    M = np.eye(D.shape[0])
    for _ in range(steps):
        k1 = D @ M
        k2 = D @ (M + 0.5 * h * k1)
        k3 = D @ (M + 0.5 * h * k2)
        k4 = D @ (M + h * k3)
        M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return M


def exp_relation_check(rho, N: int, steps: int) -> float:
    """Max deviation on |n|, |k| <= N//2 of exp(t D_N), integrated by RK4
    in fixed steps over t = artanh(rho), from the recurrence's M_N(rho)."""
    r = _rho_value(rho)
    M = rk4_exponential(d_matrix(N), math.atanh(float(r)), steps)
    ref = np.asarray(mu_matrix(r, N).array, dtype=float)
    half = N // 2
    sl = slice(N - half, N + half + 1)
    return float(np.max(np.abs(M[sl, sl] - ref[sl, sl])))


def suggest_out_degree(max_input_freq: int, rho, tol: float, *,
                       limit: int | None = None) -> int:
    """Smallest output degree c >= K = max_input_freq at which the l1 mass
    dropped from the columns |k| <= K is provably below tol, so that
    sup|b - b_cut| <= tol max|a_k| for deg(a) <= K (module docstring).
    Cauchy-Schwarz bounds column k's by sqrt(T_k(c) / c) for its weighted
    tail T_k(c); each column must reach tol / (2K + 1).  A float rho runs
    on its exact dyadic value; every comparison is on integers.  The walk
    reads one row per degree and its integers grow with it, so a caller
    that cannot use a cut past some degree passes it as limit: the walk
    then stops there and returns limit + 1 for any cut past it, at once
    when K > limit (the cut is never below K).  The cut depends only on
    (K, Fraction(rho), float(tol), limit), the key of a cache of CUT_CACHE
    ints (_cut)."""
    K = _size(max_input_freq, "max input frequency", 0)
    r = Fraction(_rho_value(rho))
    _real(tol, "tol", 0)  # the cut runs on float(tol): 0.0 would never end it
    if limit is not None:
        limit = _size(limit, "limit", 0)
        if K > limit:
            return limit + 1
    return _cut(K, r, float(tol), limit)


@lru_cache(maxsize=CUT_CACHE)
def _cut(K: int, r: Fraction, tol: float, limit: int | None = None) -> int:
    eps = (Fraction(tol) / (2 * K + 1)) ** 2
    p, q = r.numerator, r.denominator
    qq, dd = q * q, (q * q - p * p) ** 2
    rows = _rows(p, q, K)
    # R[k] = T_k(c) d^2 q^{2(c+k+1)}, G = eps_num d^2 q^{2(c+1)}; c = -1 first
    R = [(k * k * dd + 2 * p * p * qq) * qq ** k - u * u
         for k, u in enumerate(next(rows))]
    G = eps.numerator * dd
    for c, row in enumerate(rows):
        R = [qq * x - c * c * u * u for x, u in zip(R, row)]
        G *= qq
        if c >= K and all(x * eps.denominator <= c * G * qq ** k
                          for k, x in enumerate(R)):
            return c
        if c == limit:
            return c + 1
