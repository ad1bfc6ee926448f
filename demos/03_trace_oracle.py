"""Exact truncation of an infinite operator trace.

The difference Tr[(aL)^{2k} - (aD)^{2k}] over the frequency basis is a
finite number even though each trace alone diverges with the truncation.
Better: the difference becomes *exactly constant* once the truncation
half-width reaches exact_width(a, k) = max(deg(a), k deg(a) - 1), since
only closed index paths that visit both signs survive the difference.
trace_difference requires N >= exact_width(a, k) and evaluates there.
This script shows the stabilization sweep and the agreement with the
combinatorial invariant.
"""

from fractions import Fraction

from steklov_zeta import (KIND_DN, TrigSeries, exact_width, operator_matrix,
                          stabilization_sweep, trace_difference,
                          zeta_invariant)

a = TrigSeries.exact({2: 1, -2: 1, 1: (0, Fraction(1, 2)),
                      -1: (0, Fraction(-1, 2))})
print("weight:", a)

A = operator_matrix(a, KIND_DN, 4)
print("\na few matrix entries (m, n) -> a_{m-n} |n|:")
for m, n in ((2, 0), (3, 1), (0, -2), (1, 2)):
    print(f"  ({m:2d},{n:2d}) -> {A.entry(m, n)}")

k = 2
print(f"\ndoubling sweep of the trace difference (k = {k}):")
sweep = stabilization_sweep(a, k)
for N, value in sweep:
    print(f"  N = {N:3d}: {value.re}")

width = exact_width(a, k)
print(f"stabilizes at N = {sweep[-3][0]} (exact width max(deg, k deg - 1) "
      f"= {width})")

exact = trace_difference(a, k, width)
combinatorial = zeta_invariant(a, k)
print(f"trace value    : {exact.re}")
print(f"combinatorial  : {combinatorial.re}")
assert exact == combinatorial
