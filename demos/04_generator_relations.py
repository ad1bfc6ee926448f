"""Infinitesimal conformal invariance as exact linear relations.

Invariance of Z_k under the automorphism group, differentiated at the
identity, says that certain integer-weighted sums of the symmetric
coefficients vanish.  No direct combinatorial proof is known for general
k, which makes a large exact sweep genuinely informative: every relation
is a falsifiable instance.  A relation is symmetric in its indices, so the
sweep checks it once, on its sorted multiset.  Everything below runs in
rational arithmetic.
"""

from steklov_zeta import (GENERATORS, TrigSeries, apply_generator,
                          bracket_check, lowering_relation_check,
                          raising_relation_check, raising_relation_sweep)

probe = TrigSeries.exact({-2: (1, 1), 0: 3, 1: (0, 1), 3: 2})

print("bracket table of the generators (0 = identity holds exactly):")
for g, h in (("C", "D"), ("C", "E"), ("D", "E"),
             ("D0", "Dminus"), ("D0", "Dplus"), ("Dminus", "Dplus")):
    print(f"  [{g:6s}, {h:6s}] deviation: {bracket_check(g, h, probe)}")

print("\ngenerator action on a single mode (degree grows by one):")
e1 = TrigSeries.exact({1: 1})
for g in GENERATORS:
    print(f"  {g:6s}: {apply_generator(g, e1)}")

print("\nthe raising relation on the sum = -1 plane, k = 1, radius 10:")
values = [value for _, value in raising_relation_sweep(1, 10)]
bad = sum(value != 0 for value in values)
print(f"  all {len(values)} multisets vanish (violations: {bad})")

print("\none k = 3 instance spelled out:")
idx = (2, -1, 1, -2, 0, -1)
print(f"  indices {idx}  ->  {raising_relation_check(idx)}")

print("\nthe two relations on a k = 2 tuple and its mirror image:")
idx = (3, -4, 2, -2)
mirror = tuple(-j for j in idx)
print(f"  raising  {idx}  ->  {raising_relation_check(idx)}")
print(f"  lowering {mirror}  ->  {lowering_relation_check(mirror)}")
