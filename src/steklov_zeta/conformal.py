"""Action of disc automorphisms on weight functions, in Fourier space.

The translation family of the disc is Phi_rho(z) = (z - rho) / (1 - rho z)
for rho in (-1, 1).  Transporting a weight a along the boundary map
phi = Phi_rho|_{|z|=1} (with the derivative factor that keeps the Steklov
problem equivalent) is linear on Fourier coefficients:

    b_n = sum_k mu_{nk}(rho) a_k.

The matrix entries mu_{nk} have closed forms: a finite binomial sum for
n >= 2, k >= 2; explicit rows for n in {-1, 0, 1}; the reflection symmetry
mu_{nk} = mu_{-n,-k}; and exact zero regions (n >= 2 with k <= 1, and the
reflected one).  All entries are rational functions of rho, so the exact
backend evaluates them as Fractions.  The family satisfies the group law
M(rho) M(rho') = M(rho'') with rho'' = (rho + rho')/(1 + rho rho'), and is
the exponential of a constant tridiagonal generator:

    M(rho) = exp(t D),  tanh t = rho,
    d_{nk} = (n - 2) delta_{n-1,k} - (n + 2) delta_{n+1,k}.

Truncation note: entries decay super-exponentially away from the band
|n/k| in [(1-|rho|)/(1+|rho|), (1+|rho|)/(1-|rho|)], but *inside and near*
that band they are O(1).  Identities among truncated matrices therefore
hold on a central block only when the truncation width comfortably exceeds
the band spread of the block; see group_law_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BackendMismatch
from .fourier import (CircleGrid, EXACT, FLOAT, TrigSeries, evaluate_at,
                      from_samples, grid_angles)


@dataclass(frozen=True)
class MoebiusParam:
    """Translation parameter rho in (-1, 1), exact (Fraction) or float."""

    rho: Fraction | float

    def __post_init__(self):
        _rho_value(self.rho)

    @property
    def exact(self) -> bool:
        return isinstance(self.rho, (int, Fraction))

    @property
    def t(self) -> float:
        """Hyperbolic translation length, tanh(t) = rho."""
        return math.atanh(float(self.rho))

    @classmethod
    def parse(cls, text: str) -> "MoebiusParam":
        """Parse "p/q" or an integer as an exact rational, a decimal as a
        float; any other text raises a ValueError that names these forms."""
        text = text.strip()
        try:
            if "/" in text:
                rho = Fraction(text)
            elif "." in text or "e" in text.lower():
                rho = float(text)
            else:
                rho = Fraction(int(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError('rho must be "p/q", an integer or a decimal, '
                             f"got {text!r}") from None
        return cls(rho)


def _rho_value(rho):
    """The one check of a translation parameter: an int becomes a Fraction,
    a MoebiusParam passes through, a Fraction or float must lie strictly
    inside (-1, 1); anything else, NaN too, raises ValueError.  mu runs it
    per entry, hence numerator and denominator rather than abs(rho) < 1."""
    if isinstance(rho, MoebiusParam):
        return rho.rho
    if isinstance(rho, int):
        rho = Fraction(rho)
    if (isinstance(rho, Fraction) and abs(rho.numerator) < rho.denominator
            or isinstance(rho, float) and -1.0 < rho < 1.0):
        return rho
    raise ValueError(f"rho must lie in (-1, 1), got {rho}")


def binom(r: int, s: int) -> int:
    """Binomial coefficient, zero whenever r < 0, s < 0, or s > r."""
    if r < 0 or s < 0 or s > r:
        return 0
    return math.comb(r, s)


@lru_cache(maxsize=1024, typed=True)
def _pow(base, exponent: int):
    # typed: 0.5 and Fraction(1, 2) are equal keys, but an exact call must
    # not get a float power back
    return base ** exponent


def _mu_main(n: int, k: int, rho):
    # n >= 2, k >= 2.  With rho = p/q every term
    # rho^{n+k+2-2l} (1-rho^2)^{l-1} has the denominator q^{n+k}, so an
    # exact rho sums the numerators in int; a float rho runs the same sum
    # with p = rho, q = 1.0.
    exact = isinstance(rho, Fraction)
    p, q = (rho.numerator, rho.denominator) if exact else (rho, 1.0)
    w = q * q - p * p
    total = p * 0
    for l in range(3, min(n, k) + 2):
        term = (binom(n - 2, l - 3) * binom(k + 1, l)
                * p ** (n + k + 2 - 2 * l) * w ** (l - 1))
        total += -term if l % 2 else term
    # global factor (-1)^{k+1}
    if k % 2 == 0:
        total = -total
    return Fraction(total, q ** (n + k)) if exact else total


def mu(n: int, k: int, rho):
    """Matrix entry mu_{nk}(rho); exact Fraction when rho is rational.

    Covers all integer (n, k) through the zero regions, the reflection
    symmetry, and the explicit low rows.
    """
    r = _rho_value(rho)
    if r == 0:
        one, zero = r + 1, r * 0
        return one if n == k else zero
    if n >= 2:
        return r * 0 if k <= 1 else _mu_main(n, k, r)
    if n <= -2:
        return r * 0 if k >= -1 else _mu_main(-n, -k, r)
    omr2 = 1 - r * r
    if n == 0:
        kk = abs(k)
        return _pow(-r, kk) * ((kk + 1) - (kk - 1) * r * r) / omr2
    if n == -1:
        if k >= -1:
            return _pow(-r, k + 1) / omr2
        return mu(1, -k, r)
    # n == 1
    if k >= -1:
        poly = ((k * (k + 1)) // 2 - (k * k - 1) * r * r
                + ((k * (k - 1)) // 2) * _pow(r, 4))
        return _pow(-r, k - 1) * poly / omr2 if k >= 1 else \
            poly / (_pow(-r, 1 - k) * omr2)
    return mu(-1, -k, r)


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Dense truncation of an operator on frequencies n in [-N, N]."""

    half_width: int
    entries: tuple  # rows of entries, each a tuple
    exact: bool

    def at(self, n: int, k: int):
        return self.entries[n + self.half_width][k + self.half_width]

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def iter_entries(self):
        N = self.half_width
        for n in range(-N, N + 1):
            for k in range(-N, N + 1):
                yield n, k, self.entries[n + N][k + N]


def mu_matrix(rho, N: int) -> TruncatedMatrix:
    """Truncated matrix (mu_{nk}) for |n|, |k| <= N."""
    if N < 1:
        raise ValueError("half-width must be >= 1")
    r = _rho_value(rho)
    idx = range(-N, N + 1)
    ent = tuple(tuple(mu(n, k, r) for k in idx) for n in idx)
    return TruncatedMatrix(N, ent, exact=not isinstance(r, float))


def d_matrix(N: int) -> TruncatedMatrix:
    """Generator of the translation family: two shifted diagonals."""
    if N < 1:
        raise ValueError("half-width must be >= 1")
    idx = range(-N, N + 1)
    ent = tuple(
        tuple((n - 2) if k == n - 1 else -(n + 2) if k == n + 1 else 0
              for k in idx)
        for n in idx)
    return TruncatedMatrix(N, ent, exact=True)


def apply_moebius(a: TrigSeries, rho, out_degree: int) -> TrigSeries:
    """Transport a through the boundary map, row by row in Fourier space.

    Each output coefficient is the finite exact sum over the input support;
    out_degree is the caller's truncation of the (infinite) output, best
    chosen with suggest_out_degree.
    """
    r = _rho_value(rho)
    if a.backend == EXACT and isinstance(r, float):
        raise BackendMismatch("exact series with float rho; pass a Fraction")
    if a.backend == FLOAT:
        r = float(r)
    coeffs = {}
    for n in range(-out_degree, out_degree + 1):
        total = None
        for k, v in a.items():
            term = mu(n, k, r) * v
            total = term if total is None else total + term
        if total is not None:
            coeffs[n] = total
    return TrigSeries(coeffs, a.backend)


def pullback_direct(a: TrigSeries, rho, grid_size: int,
                    out_degree: int) -> TrigSeries:
    """Sampling route for the same transport: b = (a o phi) / (dphi/dtheta).

    e^{i phi(theta)} = Phi_rho(e^{i theta}) = (z - rho) / (1 - rho z) with
    z = e^{i theta}, and dphi/dtheta = (1 - rho^2) / |1 - rho z|^2.  The angle
    phi itself is never formed: a is evaluated at the point w / |w| of the
    circle (w = Phi_rho(z), renormalized against rounding) by
    fourier.evaluate_at.  Float backend only; the result is the
    degree-out_degree interpolant from grid_size samples.
    """
    r = float(_rho_value(rho))
    z = np.exp(1j * grid_angles(grid_size))
    den = 1.0 - r * z
    w = (z - r) / den
    dphi = (1.0 - r * r) / np.abs(den) ** 2
    samples = evaluate_at(a.to_float(), w / np.abs(w)) / dphi
    return from_samples(CircleGrid(grid_size, samples), out_degree)


def rotate(a: TrigSeries, alpha: float) -> TrigSeries:
    """Rotation pullback: coefficient n picks up the phase e^{i alpha n}.

    Float backend only (the phases are transcendental).
    """
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

    rho'' = (rho + rho')/(1 + rho rho') and block defaults to N//2.  The
    deviation is pure truncation error: the product drops every inner term
    sum_p mu_{np}(rho) mu_{pk}(rho') with |p| > N, and it is largest at the
    block corners, whose band reaches furthest out (see module docstring).
    At a fixed block it shrinks super-exponentially as N grows past the
    band spread of the block; at rho = rho' = 3/10, block 20 it is 1.2e-3,
    1.2e-8 and below 1e-14 at N = 40, 50, 60.  With the default block N//2
    the corners move out with N and stay near the band edge, so the
    deviation does NOT shrink that way (1.2e-3, 6.5e-4, 4.4e-4 at
    N = 40, 52, 60).  With exact=True (rational parameters only) the
    same product is carried out on Fraction entries.
    """
    if block is None:
        block = N // 2
    if not 0 <= block <= N:
        raise ValueError(f"block must lie in [0, N={N}], got {block}")
    r1, r2 = _rho_value(rho), _rho_value(rho2)
    if exact and (isinstance(r1, float) or isinstance(r2, float)):
        raise BackendMismatch("exact group-law check needs rational rho")
    r3 = (r1 + r2) / (1 + r1 * r2)
    A, B, C = (np.array(mu_matrix(r, N).entries,
                        dtype=object if exact else float) for r in (r1, r2, r3))
    sl = slice(N - block, N + block + 1)
    return float(np.max(np.abs(A[sl, :] @ B[:, sl] - C[sl, sl])))


def rk4_exponential(D: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Integrate M' = D M from the identity over [0, t], classical RK4."""
    if steps < 1:
        raise ValueError("need at least one step")
    h = t / steps
    M = np.eye(D.shape[0])
    for _ in range(steps):
        k1 = D @ M
        k2 = D @ (M + 0.5 * h * k1)
        k3 = D @ (M + 0.5 * h * k2)
        k4 = D @ (M + h * k3)
        M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return M


def exp_relation_check(rho, N: int, steps: int) -> float:
    """Max deviation of exp(t D_N) from M_N(rho) on the central block.

    Integrates the generator flow with a fixed-step 4th-order scheme over
    t = artanh(rho) and compares against the closed-form entries on
    |n|, |k| <= N//2.
    """
    r = _rho_value(rho)
    D = d_matrix(N).to_array()
    M = rk4_exponential(D, MoebiusParam(r).t, steps)
    ref = mu_matrix(r, N).to_array()
    half = N // 2
    sl = slice(N - half, N + half + 1)
    return float(np.max(np.abs(M[sl, sl] - ref[sl, sl])))


def decay_constant(k: int) -> float:
    """Constant C_k in the tail bound |mu_{nk}| <= C_k n^{|k|} |rho|^{n/2}."""
    kk = abs(k)
    return float(sum(Fraction(binom(kk + 1, l), math.factorial(l - 3))
                     for l in range(3, kk + 2))) or 1.0


def suggest_out_degree(max_input_freq: int, rho, tol: float) -> int:
    """Smallest output degree whose dropped-tail bound is below tol.

    Uses the decay bound |mu_{nk}| <= C_k n^{|k|} |rho|^{n/2} (valid for
    |n| >= 2|k|), summed over both signs of n past the cut.
    """
    r = abs(float(_rho_value(rho)))
    if r == 0.0:
        return max_input_freq
    k = max(1, abs(max_input_freq))
    log_ck = math.log(decay_constant(k))
    log_r = math.log(r)

    def tail_bound(cut: int) -> float:
        total = 0.0
        for n in range(cut + 1, cut + 10001):
            lt = math.log(2.0) + log_ck + k * math.log(n) + 0.5 * n * log_r
            if lt > 700.0:
                return math.inf
            t = math.exp(lt)
            total += t
            if t < tol * 1e-6:
                break
        return total

    lo = max(2 * k, max_input_freq)
    hi = lo
    while tail_bound(hi) >= tol:
        hi = 2 * hi + 8
        if hi > 10**6:
            raise ValueError("no feasible truncation below 10^6 frequencies")
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return lo
