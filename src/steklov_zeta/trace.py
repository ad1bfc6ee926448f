"""Operator-trace route to the invariants.

On the basis e^{i n theta} the two first-order operators built from a
weight a act as

    (a L) e^{i n theta}      = |n| a e^{i n theta}     (L = DN operator)
    (a D_theta) e^{i n theta} = n  a e^{i n theta}

so their matrices are banded: entry (m, n) = a_{m-n} |n|, resp. a_{m-n} n,
vanishing outside |m - n| <= deg(a).  The trace of the difference of 2k-th
powers is a spectral quantity that equals the combinatorial invariant:

    Tr[ (a L)^{2k} - (a D_theta)^{2k} ] = Z_k(a),

and the infinite trace truncates *exactly*: only basis indices
|n| <= 2k deg(a) contribute (the sign pattern needs a root of the index
path's product), and closed paths from those start indices stay inside
|n| <= 4k deg(a).  Powers are computed by band-aware multiplication so the
whole route runs in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationTooSmall
from .fourier import EXACT, TrigSeries
from .scalars import RC_ZERO

KIND_DN = "dn"            # symbol |n|
KIND_DTHETA = "dtheta"    # symbol n


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Finite section of a banded operator on frequencies [-N, N]."""

    half_width: int
    rows: dict          # row m -> {column n: scalar}
    backend: str

    def entry(self, m: int, n: int):
        zero = RC_ZERO if self.backend == EXACT else 0j
        return self.rows.get(m, {}).get(n, zero)

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

    def power(self, k: int) -> "BandedOperator":
        if k < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(k - 1):
            out = out.matmul(self)
        return out

    def trace_of_square(self):
        """Tr(P^2) without forming P^2: sum_{m,n} P[m,n] P[n,m]."""
        total = RC_ZERO if self.backend == EXACT else 0j
        for m, row in self.rows.items():
            for n, v in row.items():
                w = self.rows.get(n, {}).get(m)
                if w is not None:
                    total = total + v * w
        return total


def operator_matrix(a: TrigSeries, kind: str, N: int) -> BandedOperator:
    """Truncated matrix of a*L (kind "dn") or a*D_theta (kind "dtheta")."""
    if kind not in (KIND_DN, KIND_DTHETA):
        raise ValueError(f"kind must be {KIND_DN!r} or {KIND_DTHETA!r}")
    if N < a.degree:
        raise ValueError("half-width must be at least deg(a)")
    items = a.items()
    rows: dict = {}
    for m in range(-N, N + 1):
        row = {}
        for off, coeff in items:
            n = m - off
            if -N <= n <= N and n != 0:
                row[n] = coeff * (abs(n) if kind == KIND_DN else n)
        if row:
            rows[m] = row
    return BandedOperator(N, rows, a.backend)


def _trace_difference_at(a: TrigSeries, k: int, N: int):
    A = operator_matrix(a, KIND_DN, N)
    B = operator_matrix(a, KIND_DTHETA, N)
    return A.power(k).trace_of_square() - B.power(k).trace_of_square()


def trace_difference(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}] at truncation N; exact for the
    rational backend once N >= 4k deg(a) (enforced)."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    need = 4 * k * a.degree
    if N < need:
        raise TruncationTooSmall(f"half-width {N} < 4k*deg(a) = {need}")
    return _trace_difference_at(a, k, N)


def stabilization_sweep(a: TrigSeries, k: int, max_half_width: int = 512):
    """Doubling sweep of the trace difference: [(N, value), ...].

    Stops two doublings after the value first repeats, or at the width cap.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    N = max(1, a.degree)
    sweep = []
    while N <= max_half_width:
        sweep.append((N, _trace_difference_at(a, k, N)))
        if len(sweep) >= 3 and sweep[-1][1] == sweep[-2][1] == sweep[-3][1]:
            return sweep
        N *= 2
    raise RuntimeError("trace difference did not stabilize within the sweep")


def stabilization_check(a: TrigSeries, k: int, max_half_width: int = 512) -> int:
    """Smallest N in the doubling sweep at which the trace difference is
    constant across two successive doublings.

    Empirical confirmation of the truncation threshold: the returned N never
    exceeds 4k deg(a) for non-constant a.
    """
    sweep = stabilization_sweep(a, k, max_half_width)
    return sweep[-3][0]
