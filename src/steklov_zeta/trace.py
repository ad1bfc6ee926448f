"""Operator-trace route to the invariants.

On the basis e^{i n theta} the two first-order operators built from a
weight a act as

    (a L) e^{i n theta}      = |n| a e^{i n theta}     (L = DN operator)
    (a D_theta) e^{i n theta} = n  a e^{i n theta}

so their matrices are banded: entry (m, n) = a_{m-n} |n|, resp. a_{m-n} n,
vanishing outside |m - n| <= deg(a).  The trace of the difference of 2k-th
powers is a spectral quantity that equals the combinatorial invariant:

    Tr[ (a L)^{2k} - (a D_theta)^{2k} ] = Z_k(a).

Write A = a L and split it by the sign of the column, A = A_+ + A_-
(columns n > 0, resp. n < 0; column 0 vanishes).  Then a D_theta =
A_+ - A_-, and expanding both 2k-th powers over words in A_+ and A_- the
words with an even number of A_- factors cancel, at every truncation N.
What is left is twice the words with an odd number.  Cutting such a word
after k letters leaves an even and an odd half, so

    Tr[ (a L)^{2k} - (a D_theta)^{2k} ] = 2 Tr(E_k O_k + O_k E_k)
                                       = 4 Tr(E_k O_k)       (truncated),

where E_k, O_k sum the words of length k with an even, resp. odd, number
of A_- factors: E_1 = A_+, O_1 = A_-, E_{j+1} = E_j A_+ + O_j A_- and
O_{j+1} = O_j A_+ + E_j A_-.  No two traces are subtracted, so float
values keep their relative accuracy (see trace_difference).

The infinite difference truncates *exactly* at the half-width
W = max(deg(a), k deg(a) - 1).  An odd word is a closed index path
n_1 -> n_2 -> ... -> n_{2k} -> n_1 with steps of length <= deg(a) that
visits both signs (a path through n = 0 weighs 0).  It reaches a maximum
M > 0 and a minimum -m < 0 and runs from one to the other and back in 2k
steps, so 2 (M + m) <= 2k deg(a), i.e. M, m <= k deg(a) - 1.  Hence
every path that counts lies inside |n| <= k deg(a) - 1, and the truncated
difference at any N >= W is the infinite one (N >= deg(a) is
operator_matrix's own precondition).

An exact weight runs on word-size residues.  Scaled by the lcm D of its
denominators, A has Gaussian-integer entries |n| D a_{m-n}; let amax be
the largest |x| + |y| over the coefficients x + iy of D a and w the size
of its support.  |x| + |y| is submultiplicative and a column of A has at
most w entries, so every entry of E_j and O_j is at most B_j in that
norm, with B_1 = N amax and B_{j+1} = B_j w N amax, and |re|, |im| of
4 Tr(E_k O_k), a sum of S^2 products (S = 2N + 1), are at most
4 S^2 B_k^2.  The recurrence runs modulo primes p = 1 (mod 4), each
split into two channels of Z/p (scalars.residue_ring), whose product
exceeds twice that bound, and the one trace is lifted back by CRT.
Overflow rule: every p has S (p - 1)^2 < 2^63, so an int64 matmul of
reduced S x S operands cannot overflow; each product is reduced mod p
before the next, and the final sum of S^2 reduced terms, times 4, stays
below 4 S^2 p < 2^63 for every S < 2^19.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import TruncationTooSmall
from .fourier import EXACT, FLOAT, TrigSeries, _size
from .scalars import RC_ZERO, join, residue_ring, ring

KIND_DN = "dn"            # symbol |n|
KIND_DTHETA = "dtheta"    # symbol n

_ZERO = {EXACT: RC_ZERO, FLOAT: 0j}


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Finite section of a banded operator on frequencies [-N, N], rows
    keyed by frequency."""

    half_width: int
    rows: dict          # m -> {n: scalar}
    backend: str        # EXACT or FLOAT

    def entry(self, m: int, n: int):
        return self.rows.get(m, {}).get(n, _ZERO[self.backend])

    def matmul(self, other: "BandedOperator") -> "BandedOperator":
        if self.half_width != other.half_width or self.backend != other.backend:
            raise ValueError("operator shapes/backends differ")
        rows: dict = {}
        for m, arow in self.rows.items():
            acc: dict = {}
            for p, av in arow.items():
                brow = other.rows.get(p)
                if not brow:
                    continue
                for n, bv in brow.items():
                    t = av * bv
                    acc[n] = acc[n] + t if n in acc else t
            if acc:
                rows[m] = acc
        return BandedOperator(self.half_width, rows, self.backend)

    def trace_of_square(self):
        """Tr(P^2) without forming P^2: sum_{m,n} P[m,n] P[n,m]."""
        total = _ZERO[self.backend]
        for m, row in self.rows.items():
            for n, v in row.items():
                w = self.rows.get(n, {}).get(m)
                if w is not None:
                    total = total + v * w
        return total


def _banded(items, kind: str, N: int, backend: str) -> BandedOperator:
    """Matrix (m, n) -> symbol(n) a_{m-n} on [-N, N] from a's (n, a_n)."""
    if kind not in (KIND_DN, KIND_DTHETA):
        raise ValueError(f"kind must be {KIND_DN!r} or {KIND_DTHETA!r}")
    if N < max((abs(off) for off, _ in items), default=0):
        raise ValueError("half-width must be at least deg(a)")
    rows: dict = {}
    for m in range(-N, N + 1):
        row = {}
        for off, coeff in items:
            n = m - off
            if -N <= n <= N and n != 0:
                row[n] = (abs(n) if kind == KIND_DN else n) * coeff
        if row:
            rows[m] = row
    return BandedOperator(N, rows, backend)


def operator_matrix(a: TrigSeries, kind: str, N: int) -> BandedOperator:
    """Truncated matrix of a*L (kind "dn") or a*D_theta (kind "dtheta")."""
    return _banded(a.items(), kind, _size(N, "half-width", 0), a.backend)


def _trace_difference_at(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}] truncated at half-width N, as is:
    4 Tr(E_k O_k) (module docstring), from X = [E; O] = [A_+; A_-].  The
    rows of X A are E A and O A, and E A is E A_+ on the columns n > 0 and
    E A_- on n < 0, so swapping its E and O halves on the negative columns
    gives the next X.  One kernel serves both backends.

    A = aL, S x S with S = 2N + 1, is built on the coefficient ring of a:
    complex128 for a float weight (scalars.ring); for an exact one the
    integers of D a (D the lcm of the denominators) on the int64 residues
    of scalars.residue_ring, sized by _trace_bound.  The trace is
    homogeneous of degree 2k in a, so join divides it once by D^{2k}.
    """
    exact = a.backend == EXACT
    vec, D, mul = ring([v for _, v in a.items()], exact)
    S = 2 * N + 1
    lift = partial(join, exact=False)
    if exact:
        vec, mul, lift = residue_ring(vec, S, _trace_bound(vec, k, N))
    symbol = np.abs(np.arange(-N, N + 1)).astype(vec.dtype)
    rows = np.add.outer(np.array(a.support, int), np.arange(S))  # of a_off |n|
    i, j = np.nonzero((rows >= 0) & (rows < S))
    A = np.zeros(vec.shape[:-1] + (S, S), vec.dtype)
    A[..., rows[i, j], j] = mul(vec, symbol, np.multiply.outer)[..., i, j]
    X = np.concatenate([A, A], axis=-2)     # [E; O] = [A_+; A_-]
    X[..., :S, :N] = X[..., S:, N:] = 0
    for _ in range(k - 1):
        X = mul(X, A, np.matmul)
        X[..., :N] = np.roll(X[..., :N], S, axis=-2)
    trace = mul(X[..., :S, :], X[..., S:, :].mT).sum(axis=(-2, -1))
    return lift(4 * trace, D ** (2 * k))


def _trace_bound(vec, k: int, N: int) -> int:
    """4 S^2 B_k^2, a bound on |re|, |im| of 4 Tr(E_k O_k) at half-width N
    for the exact ring vector vec ([x; y] integers, one column per
    coefficient; module docstring)."""
    amax = max(np.abs(vec).sum(axis=0), default=0)
    B = N * amax * (vec.shape[-1] * N * amax) ** (k - 1)      # B_k
    return 4 * (2 * N + 1) ** 2 * B * B


def exact_width(a: TrigSeries, k: int) -> int:
    """The half-width W = max(deg(a), k deg(a) - 1) at which the truncated
    trace difference is the infinite one (module docstring)."""
    return max(a.degree, _size(k, "order k") * a.degree - 1)


def trace_difference(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}], exact for the rational backend.

    Requires N >= exact_width(a, k) (TruncationTooSmall otherwise) and
    evaluates at that width, so every admissible N gives the same value.
    A float value never subtracts two traces: within 1e-12 relative of
    z1_closed / z2_closed on the criterion-4 series and their degree-60
    pullbacks (3.2e-16 at worst, where subtracting two traces loses up to
    1.1e-6), and within 1e-13 of the exact zeta_invariant at k = 3, 4 on
    dyadic degree-3 series (3.1e-16 at worst; tests/test_trace.py).
    """
    k, N = _size(k, "order k"), _size(N, "half-width", 0)
    W = exact_width(a, k)
    if N < W:
        raise TruncationTooSmall(f"half-width {N} < exact width "
                                 f"max(deg(a), k*deg(a) - 1) = {W}")
    return _trace_difference_at(a, k, W)
