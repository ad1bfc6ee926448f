"""Is Z_2 always non-negative on real weights?  An open question.

This script reruns the supporting experiment: a seeded, reproducible
campaign of random conjugate-symmetric weights, with Z_2 evaluated through
the closed form and any float-negative candidate re-verified in exact
arithmetic before it may count as a failure.  It then looks at the
structure behind the question: Z_2 as a quadratic in the mean coefficient
a_0, whose leading Hermitian form should be positive definite if the
conjecture holds.
"""

import numpy as np

from steklov_zeta import (CampaignConfig, TrigSeries, a_kappa_form,
                          positive_definite_check, trinomial_extract,
                          z2_nonneg_campaign)

cfg = CampaignConfig(seed=424242, count=200, max_degree=5)
report = z2_nonneg_campaign(cfg)
print(f"campaign: {cfg.count} samples, degree <= {cfg.max_degree}, "
      f"seed {cfg.seed}")
print(f"  min Z_2      : {report.min_z2:.6f}")
print(f"  min Z_k-ratio: {report.min_ratio:.6f}")
print(f"  failures     : {len(report.failures)}")

print("\nZ_2 restricted to a_1 = kappa a_0 is a quadratic in a_0:")
tail = TrigSeries.from_complex({2: 0.4 + 0.1j, -2: 0.4 - 0.1j,
                                4: 0.25, -4: 0.25})
for kappa in (0.0, 0.5):
    A, B, N0 = trinomial_extract(tail, kappa)
    print(f"  kappa = {kappa}: A = {A:.6f},  B = {B:.6f},  N0 = {N0:.6f}")

print("\nleading coefficient as a Hermitian form on (a_2, ..., a_m):")
for kappa in (0.0, 0.5, 1.0):
    H = a_kappa_form(kappa, 10)
    pd = positive_definite_check(H)
    eigs = np.linalg.eigvalsh((H + H.T) / 2)
    print(f"  kappa = {kappa}: positive definite = {pd}, "
          f"smallest eigenvalue = {eigs[0]:.3f}")
