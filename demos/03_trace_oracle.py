"""Exact truncation of an infinite operator trace.

The difference Tr[(aL)^{2k} - (aD)^{2k}] over the frequency basis is a
finite number even though each trace alone diverges with the truncation.
Better: the difference becomes *exactly constant* once the truncation
half-width reaches the true width max(deg(a), k deg(a) - 1), since only
closed index paths that visit both signs survive the difference.
trace_difference still requires N >= 4k deg(a), and evaluates at the
true width.  This script shows the stabilization sweep and the agreement
with the combinatorial invariant.
"""

from fractions import Fraction

from steklov_zeta import (KIND_DN, TrigSeries, operator_matrix,
                          stabilization_check, trace_difference,
                          zeta_invariant)
from steklov_zeta.trace import _trace_difference_at

a = TrigSeries.exact({2: 1, -2: 1, 1: (0, Fraction(1, 2)),
                      -1: (0, Fraction(-1, 2))})
print("weight:", a)

A = operator_matrix(a, KIND_DN, 4)
print("\na few matrix entries (m, n) -> a_{m-n} |n|:")
for m, n in ((2, 0), (3, 1), (0, -2), (1, 2)):
    print(f"  ({m:2d},{n:2d}) -> {A.entry(m, n)}")

k = 2
print(f"\ndoubling sweep of the trace difference (k = {k}):")
N = a.degree
while N <= 32:
    print(f"  N = {N:3d}: {_trace_difference_at(a, k, N).re}")
    N *= 2

stable_at = stabilization_check(a, k)
width = max(a.degree, k * a.degree - 1)
bound = 4 * k * a.degree
print(f"stabilizes at N = {stable_at} (true width max(deg, k deg - 1) = "
      f"{width}; trace_difference requires N >= 4k deg = {bound})")
print(f"raw truncation at the true width: {_trace_difference_at(a, k, width).re}")

exact = trace_difference(a, k, bound)
combinatorial = zeta_invariant(a, k)
print(f"trace value    : {exact.re}")
print(f"combinatorial  : {combinatorial.re}")
assert exact == combinatorial
