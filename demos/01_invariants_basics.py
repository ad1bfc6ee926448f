"""Four independent routes to the same spectral invariant.

The invariants Z_k(a) of a weight a on the circle are defined by a
combinatorial sum over zero-sum frequency tuples.  This script computes
Z_1 and Z_2 of a few weights through every route the library offers and
shows that they agree exactly:

  1. the brute-force coefficient sum (big-integer arithmetic),
  2. the closed-form expressions for orders 1 and 2,
  3. the operator-trace identity Tr[(aL)^{2k} - (aD)^{2k}].
"""

from fractions import Fraction

from steklov_zeta import (TrigSeries, brute_n, exact_width, symmetrize_z,
                          trace_difference, z1_closed, z2_closed,
                          zeta_invariant)

# a = 2 + cos(theta) + (2/3) cos(3 theta), written as exact coefficients
a = TrigSeries.exact({
    0: 2,
    1: Fraction(1, 2), -1: Fraction(1, 2),
    3: Fraction(1, 3), -3: Fraction(1, 3),
})
print("weight:", a)

print("\nunsymmetrized coefficients are cyclic but not symmetric:")
print("  N(2,2,-1,-3) =", brute_n((2, 2, -1, -3)))
print("  N(2,-1,2,-3) =", brute_n((2, -1, 2, -3)))
print("  symmetrized Z(2,2,-1,-3) =", symmetrize_z((2, 2, -1, -3)))

for k in (1, 2):
    brute = zeta_invariant(a, k)
    closed = z1_closed(a) if k == 1 else z2_closed(a)
    trace = trace_difference(a, k, exact_width(a, k))
    print(f"\nZ_{k}(a):")
    print("  combinatorial sum :", brute.re)
    print("  closed form       :", closed.re)
    print("  operator trace    :", trace.re)
    assert brute == closed == trace

# every invariant vanishes identically on frequencies {-1, 0, 1}
low = TrigSeries.exact({0: 5, 1: (1, 2), -1: (1, -2)})
print("\nlow-frequency weight:", low)
print("Z_1, Z_2, Z_3 =", [zeta_invariant(low, k).re for k in (1, 2, 3)])
