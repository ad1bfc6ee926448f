"""Zeta-invariants of the disc Steklov spectrum.

A library for the spectral invariants Z_k(a) of the weighted
Dirichlet-to-Neumann operator on the unit circle, cross-verified through
four independent routes: brute-force combinatorial sums, closed-form
polynomials (orders 1 and 2), invariance under the conformal group acting
on Fourier coefficients, and an exact operator-trace identity.
"""

__version__ = "0.1.0"

from .conformal import (TruncatedMatrix, apply_moebius, conjugate, d_matrix,
                        exp_relation_check, group_law_check, mu, mu_matrix,
                        pullback_direct, rotate, suggest_out_degree)
from .errors import (BackendMismatch, DegenerateDenominator, GridTooSmall,
                     NonZeroSum, NotHermitian, NotPositive, NotReal,
                     SteklovZetaError, TruncationTooSmall, UnknownBracket,
                     WrongSum)
from .explorer import (CampaignConfig, CampaignReport, SampleRecord,
                       a_kappa_form, inequality_ratio,
                       positive_definite_check, random_positive_series,
                       random_real_series, trinomial_extract,
                       z2_nonneg_campaign)
from .fourier import (TrigSeries, evaluate, evaluate_at, from_samples,
                      is_real, load_series, min_on_circle,
                      normalization_integral, sample_series, save_series,
                      series_from_json, series_to_json)
from .invariants import (brute_n, coeff_bound_check, symmetrize_z,
                         z1_closed, z2_closed, z2_coeff_closed, z_coeff,
                         z_coeff_closed, zeta, zeta_invariant)
from .lie import (GENERATORS, RELATION_PLANES, apply_generator,
                  bracket_check, lowering_relation_check,
                  raising_relation_check, raising_relation_sweep,
                  relation_sweep)
from .scalars import RationalComplex
from .trace import (BandedOperator, KIND_DN, KIND_DTHETA, exact_width,
                    operator_matrix, trace_difference)

__all__ = [name for name in dir() if not name.startswith("_")]
