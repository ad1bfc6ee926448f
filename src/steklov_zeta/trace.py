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
of A_- factors.  _trace_difference_at builds them as one chain P = C^k
over the states (frequency n, parity of the negative frequencies visited
so far): C maps (m, s) to (n, s xor [n < 0]) with entry A_{mn}, so
P[(x, 0), (y, q)] is E_k[x, y] for q = 0 and O_k[x, y] for q = 1, and
P[(y, 0), (x, 1 - q)] is the other of the two at (y, x).  Nothing is
subtracted, so float values keep their relative accuracy.

The infinite difference truncates *exactly* at the half-width
W = max(deg(a), k deg(a) - 1).  An odd word is a closed index path
n_1 -> n_2 -> ... -> n_{2k} -> n_1 with steps of length <= deg(a) that
visits both signs (a path through n = 0 weighs 0).  It reaches a maximum
M > 0 and a minimum -m < 0 and runs from one to the other and back in 2k
steps, so 2 (M + m) <= 2k deg(a), i.e. M, m <= k deg(a) - 1.  Hence
every path that counts lies inside |n| <= k deg(a) - 1, and the truncated
difference at any N >= W is the infinite one (N >= deg(a) is
operator_matrix's own precondition).

An exact weight is multiplied by the lcm D of its coefficient
denominators, so the band-aware products run on Gaussian integers; the
truncated trace is homogeneous of degree 2k in a, so one division by
D^{2k} at the end gives the exact rational value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationTooSmall
from .fourier import EXACT, FLOAT, TrigSeries, _size
from .scalars import RC_ZERO, GaussianInteger, clear_denominators

KIND_DN = "dn"            # symbol |n|
KIND_DTHETA = "dtheta"    # symbol n
GAUSSIAN = "gaussian"     # entries of an exact weight with cleared denominators

_ZERO = {EXACT: RC_ZERO, FLOAT: 0j, GAUSSIAN: GaussianInteger(0, 0)}


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Finite section of a banded operator on frequencies [-N, N]; a key
    is a frequency n or a parity-chain state (n, parity)."""

    half_width: int
    rows: dict          # row key -> {column key: scalar}
    backend: str        # EXACT, FLOAT or GAUSSIAN

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
    4 Tr(E_k O_k) from the one parity chain P = C^k (module docstring).

    An exact weight runs on Gaussian integers: a is scaled by the lcm D of
    its coefficient denominators and the trace divided once by D^{2k}.
    """
    items, backend = a.items(), a.backend
    if backend == EXACT:
        values, D = clear_denominators(v for _, v in items)
        items = [(n, g) for (n, _), g in zip(items, values)]
        backend = GAUSSIAN
    C = {(m, s): {(n, s ^ (n < 0)): v for n, v in row.items()}
         for m, row in _banded(items, KIND_DN, N, backend).rows.items()
         for s in (0, 1)}
    chain = BandedOperator(N, C, backend)
    P = BandedOperator(N, {key: row for key, row in C.items() if not key[1]},
                       backend)
    for _ in range(k - 1):
        P = P.matmul(chain)
    t = _ZERO[backend]
    for (x, _), row in P.rows.items():
        for (y, q), v in row.items():
            w = P.rows.get((y, 0), {}).get((x, 1 - q))
            if w is not None:
                t = t + v * w
    t = 2 * t
    return t if backend == FLOAT else t.over(D ** (2 * k))


def exact_width(a: TrigSeries, k: int) -> int:
    """The half-width W = max(deg(a), k deg(a) - 1) at which the truncated
    trace difference is the infinite one (module docstring)."""
    return max(a.degree, _size(k, "order k") * a.degree - 1)


def trace_difference(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}], exact for the rational backend.

    Requires N >= exact_width(a, k) (TruncationTooSmall otherwise) and
    evaluates at that width, so every admissible N gives the same value.
    A float value adds products of entries of aL and subtracts nothing:
    within 1e-12 relative of z1_closed / z2_closed on the criterion-4
    series and their degree-60 pullbacks (tests/test_trace.py; 1.2e-14 at
    worst, where subtracting two traces loses up to 1.1e-6).
    """
    k, N = _size(k, "order k"), _size(N, "half-width", 0)
    W = exact_width(a, k)
    if N < W:
        raise TruncationTooSmall(f"half-width {N} < exact width "
                                 f"max(deg(a), k*deg(a) - 1) = {W}")
    return _trace_difference_at(a, k, W)
