"""Operator-trace route to the invariants.

On the basis e^{i n theta} the two first-order operators built from a
weight a act as

    (a L) e^{i n theta}      = |n| a e^{i n theta}     (L = DN operator)
    (a D_theta) e^{i n theta} = n  a e^{i n theta}

so their matrices are banded: entry (m, n) = a_{m-n} |n|, resp. a_{m-n} n,
vanishing outside |m - n| <= deg(a).  The trace of the difference of 2k-th
powers is a spectral quantity that equals the combinatorial invariant:

    Tr[ (a L)^{2k} - (a D_theta)^{2k} ] = Z_k(a).

The infinite trace truncates *exactly* at the half-width

    W = max(deg(a), k deg(a) - 1).

Each trace is a sum over closed index paths n_1 -> n_2 -> ... -> n_{2k} ->
n_1 with steps of length <= deg(a), weighted by the product of the a_{m-n}
along the path times prod |n_i|, resp. prod n_i.  A path that stays on one
side of 0 has prod |n_i| = prod n_i (2k factors), so it cancels in the
difference at every truncation, and a path through n = 0 weighs 0.  A path
that visits both signs reaches a maximum M > 0 and a minimum -m < 0 and
runs from one to the other and back in 2k steps, so 2 (M + m) <=
2k deg(a), i.e. M, m <= k deg(a) - 1.  Hence every path that survives lies
inside |n| <= k deg(a) - 1, and the truncated difference at any N >= W is
the infinite one (N >= deg(a) is operator_matrix's own precondition).

An exact weight is multiplied by the lcm D of its coefficient
denominators, so the band-aware products run on Gaussian integers; the
truncated trace is homogeneous of degree 2k in a, so one division by
D^{2k} at the end gives the exact rational value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationTooSmall
from .fourier import EXACT, FLOAT, TrigSeries
from .scalars import RC_ZERO, GaussianInteger, clear_denominators

KIND_DN = "dn"            # symbol |n|
KIND_DTHETA = "dtheta"    # symbol n
GAUSSIAN = "gaussian"     # entries of an exact weight with cleared denominators

_ZERO = {EXACT: RC_ZERO, FLOAT: 0j, GAUSSIAN: GaussianInteger(0, 0)}


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Finite section of a banded operator on frequencies [-N, N]."""

    half_width: int
    rows: dict          # row m -> {column n: scalar}
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

    def power(self, k: int) -> "BandedOperator":
        if k < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(k - 1):
            out = out.matmul(self)
        return out

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
    return _banded(a.items(), kind, N, a.backend)


def _trace_difference_at(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}] truncated at half-width N, as is.

    An exact weight runs on Gaussian integers: a is scaled by the lcm D of
    its coefficient denominators and the trace divided once by D^{2k}.
    """
    items, backend = a.items(), a.backend
    if backend == EXACT:
        values, D = clear_denominators(v for _, v in items)
        items = [(n, g) for (n, _), g in zip(items, values)]
        backend = GAUSSIAN
    t = (_banded(items, KIND_DN, N, backend).power(k).trace_of_square()
         - _banded(items, KIND_DTHETA, N, backend).power(k).trace_of_square())
    if backend == FLOAT:
        return t
    return t.over(D ** (2 * k))


def exact_width(a: TrigSeries, k: int) -> int:
    """The half-width W = max(deg(a), k deg(a) - 1) at which the truncated
    trace difference is the infinite one (module docstring)."""
    return max(a.degree, k * a.degree - 1)


def trace_difference(a: TrigSeries, k: int, N: int):
    """Tr[(aL)^{2k} - (aD_theta)^{2k}], exact for the rational backend.

    Requires N >= exact_width(a, k) (TruncationTooSmall otherwise) and
    evaluates at that width, so every admissible N gives the same value.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    W = exact_width(a, k)
    if N < W:
        raise TruncationTooSmall(f"half-width {N} < exact width "
                                 f"max(deg(a), k*deg(a) - 1) = {W}")
    return _trace_difference_at(a, k, W)


def stabilization_sweep(a: TrigSeries, k: int, max_half_width: int = 512):
    """Doubling sweep of the trace difference: [(N, value), ...].

    Each value is the raw truncation at N, so the sweep tests the width
    bound by experiment.  Stops two doublings after the value first
    repeats, or at the width cap.
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

    Empirical confirmation of the truncation width: the value is exact from
    W = exact_width(a, k) on, the width trace_difference evaluates at, so
    the returned N is at most the first width of the sweep that reaches W.
    """
    sweep = stabilization_sweep(a, k, max_half_width)
    return sweep[-3][0]
