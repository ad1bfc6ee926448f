"""Exact truncation of an infinite operator trace.

The difference Tr[(aL)^{2k} - (aD)^{2k}] over the frequency basis is a
finite number even though each trace alone diverges with the truncation.
Only closed index paths that visit an odd number of negative frequencies
survive the difference, and they all lie inside the half-width
exact_width(a, k) = max(deg(a), k deg(a) - 1), so the truncated difference
is exact from there on.  trace_difference rejects a smaller N and
evaluates at that width.  This script shows the rejection one below the
width and the agreement with the combinatorial invariant at and above it.
"""

from fractions import Fraction

from steklov_zeta import (KIND_DN, TrigSeries, TruncationTooSmall,
                          exact_width, operator_matrix, trace_difference,
                          zeta_invariant)

a = TrigSeries.exact({2: 1, -2: 1, 1: (0, Fraction(1, 2)),
                      -1: (0, Fraction(-1, 2))})
print("weight:", a)

A = operator_matrix(a, KIND_DN, 4)
print("\na few matrix entries (m, n) -> a_{m-n} |n|:")
for m, n in ((2, 0), (3, 1), (0, -2), (1, 2)):
    print(f"  ({m:2d},{n:2d}) -> {A.entry(m, n)}")

k = 2
width = exact_width(a, k)
print(f"\nexact width max(deg, k deg - 1) for k = {k}: {width}")
try:
    trace_difference(a, k, width - 1)
except TruncationTooSmall as exc:
    print(f"  N = {width - 1:3d}: rejected ({exc})")
else:
    raise AssertionError("a half-width below the exact width was accepted")

combinatorial = zeta_invariant(a, k)
for N in (width, width + 5):
    value = trace_difference(a, k, N)
    print(f"  N = {N:3d}: {value.re}")
    assert value == combinatorial
print(f"combinatorial  : {combinatorial.re}")
