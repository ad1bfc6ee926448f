"""The disc-automorphism action on weights, seen in Fourier space.

Transporting a weight along the boundary restriction of the Moebius map
(z - rho)/(1 - rho z) is a linear map on Fourier coefficients.  This
script prints the structure of its matrix, checks the group law and the
exponential form numerically, and verifies that the invariants Z_1, Z_2
do not move under the transport.
"""

from fractions import Fraction

from steklov_zeta import (TrigSeries, apply_moebius, exp_relation_check,
                          group_law_check, mu, mu_matrix, pullback_direct,
                          z1_closed, z2_closed)

rho = Fraction(2, 5)

print("central 5x5 block of the action matrix at rho = 2/5:")
M = mu_matrix(rho, 2)
for n in range(-2, 3):
    print("  ", [str(M.at(n, k)) for k in range(-2, 3)])

print("\n1 + cos(theta) is an eigenfunction, eigenvalue (1-rho)/(1+rho):")
a = TrigSeries.exact({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)})
b = apply_moebius(a, rho, 4)
print("  input :", a)
print("  output:", b, " (eigenvalue", (1 - rho) / (1 + rho), ")")

print("\nthe column recurrence matches the direct sampling pullback:")
g = TrigSeries.from_complex({0: 1.5, 2: 0.3 + 0.2j, -2: 0.3 - 0.2j})
m = apply_moebius(g, 0.3, 12)
p = pullback_direct(g, 0.3, 4096, 12)
print("  max coefficient difference:",
      max(abs(m.coeff(n) - p.coeff(n)) for n in range(-12, 13)))

print("\ninvariance of Z_1 and Z_2 under the transport (rho = 0.3):")
big = pullback_direct(g, 0.3, 8192, 40)
for k, z in ((1, z1_closed), (2, z2_closed)):
    before = complex(z(g)).real
    after = complex(z(big)).real
    print(f"  Z_{k}: {before:.12f} -> {after:.12f}")

print("\ncomposition law M(r) M(r') = M((r + r')/(1 + r r')),")
print("checked on the central block at growing truncation:")
for N in (20, 30, 40):
    dev = group_law_check(Fraction(1, 5), Fraction(1, 5), N)
    print(f"  N = {N:2d}: deviation {dev:.3e}")

print("\nexponential form: the matrix is exp(t D) with tanh t = rho:")
dev = exp_relation_check(Fraction(1, 5), 30, 1000)
print(f"  RK4 vs mu_matrix at rho = 1/5, N = 30: {dev:.3e}")
