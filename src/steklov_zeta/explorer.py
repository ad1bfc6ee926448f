"""Randomized campaigns for the open nonnegativity questions.

The second invariant is conjectured non-negative for every real weight;
this module reproduces the supporting experiment: draw conjugate-symmetric
random coefficient tables, evaluate Z_2 through the closed form, and flag
any negative value.  Floating-point negatives are re-checked in exact
rational arithmetic before they may enter the failure list, so a confirmed
failure would be a genuine finding, not roundoff.

Reproducibility contract: sample i of a campaign with seed s draws from
numpy's ``default_rng([s, i])``, so reports are byte-identical across runs
and the campaign can be partitioned arbitrarily without changing results.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateDenominator, NotHermitian, NotReal
from .fourier import EXACT, TrigSeries, _size, is_real, min_on_circle
from .invariants import z1_closed, z2_closed, zeta
from .scalars import RationalComplex


KAPPA_FORM_SIZE = 10  # the tail size m of each kappa's a_kappa_form


@dataclass(frozen=True)
class CampaignConfig:
    seed: int
    count: int
    max_degree: int
    coeff_scale: float = 1.0
    kappas: tuple = ()

    def __post_init__(self):
        # stored as ints, so a numpy integer still serializes to JSON
        object.__setattr__(self, "seed", _size(self.seed, "seed", 0))
        object.__setattr__(self, "count", _size(self.count, "count"))
        object.__setattr__(self, "max_degree",
                           _size(self.max_degree, "max degree", 2))
        # a sample's values are below (2 n0 + 1)^4 max|Z| scale^4 in modulus,
        # max|Z| <= 2 (8 n0)^5 (coeff_bound_check)
        n0, scale = self.max_degree, self.coeff_scale
        if not _finite(lambda: (2 * n0 + 1) ** 4 * 2 * (8 * n0) ** 5
                       * (float(scale) if scale >= 0 else math.nan) ** 4):
            raise ValueError("coeff_scale must be a real >= 0 whose sample "
                             f"values stay finite, got {scale!r}")
        if not all(_finite(lambda: a_kappa_form(kappa, KAPPA_FORM_SIZE))
                   for kappa in self.kappas):
            raise ValueError("kappas must give finite a_kappa_forms, got "
                             f"{self.kappas!r}")


def _finite(compute) -> bool:
    """Whether compute() gives finite values; failing to compute is no."""
    try:
        return bool(np.isfinite(compute()).all())
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class SampleRecord:
    index: int
    z1: float
    z2: float
    ratio: float | None
    flagged: bool = False
    z2_exact: str | None = None


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    samples: tuple
    min_z2: float
    min_ratio: float | None
    failures: tuple = ()
    kappa_checks: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "samples": [asdict(s) for s in self.samples],
            "summary": {
                "min_z2": self.min_z2,
                "min_ratio": self.min_ratio,
                "failures": [asdict(s) for s in self.failures],
                "kappa_checks": [list(kc) for kc in self.kappa_checks],
            },
        }

    def to_csv_rows(self):
        yield ("index", "z1", "z2", "ratio", "flagged", "z2_exact")
        for s in self.samples:
            yield (s.index, repr(s.z1), repr(s.z2),
                   "" if s.ratio is None else repr(s.ratio),
                   int(s.flagged), s.z2_exact or "")

    def to_text(self, fmt: str) -> str:
        """The report as a file's text: sorted-key JSON or CSV rows."""
        if fmt == "json":
            return json.dumps(self.to_json_dict(), indent=2,
                              sort_keys=True) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows(self.to_csv_rows())
            return buf.getvalue()
        raise ValueError(f"unknown format {fmt!r}")

    def save(self, path, fmt: str = "json") -> None:
        text = self.to_text(fmt)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The documented per-sample stream split: default_rng([seed, index])."""
    return np.random.default_rng([seed, index])


def random_real_series(n0: int, scale: float,
                       rng: np.random.Generator) -> TrigSeries:
    """Random conjugate-symmetric series with |a_n| <= scale, support <= n0.

    a_0 is uniform real in [-scale, scale]; for 1 <= n <= n0 the real and
    imaginary parts of a_n are uniform in [-scale/sqrt(2), scale/sqrt(2)]
    and a_{-n} is the conjugate.
    """
    n0 = _size(n0, "n0")
    coeffs = {0: complex(rng.uniform(-scale, scale), 0.0)}
    s = scale / math.sqrt(2.0)
    for n in range(1, n0 + 1):
        v = complex(rng.uniform(-s, s), rng.uniform(-s, s))
        coeffs[n] = v
        coeffs[-n] = v.conjugate()
    return TrigSeries.from_complex(coeffs)


def random_positive_series(n0: int, scale: float, rng: np.random.Generator,
                           floor: float = 0.5,
                           grid_size: int = 2048) -> TrigSeries:
    """Random real series shifted to stay above a positive floor (screened
    on a dense grid)."""
    a = random_real_series(n0, scale, rng)
    m = min_on_circle(a, grid_size)
    if m < floor:
        shift = TrigSeries.from_complex({0: floor - m})
        a = a + shift
    return a


def rationalize_series(a: TrigSeries) -> TrigSeries:
    """Exact rational copy of a float series, keeping conjugate symmetry by
    construction (negative rows mirror the positive ones).  A float is a
    dyadic rational, so nothing is rounded: an exact re-check sees the very
    series that was flagged."""
    coeffs = {}
    for n, v in a.items():
        if n < 0:
            continue
        re = Fraction(v.real)
        im = Fraction(v.imag)
        coeffs[n] = RationalComplex(re, im)
        if n > 0:
            coeffs[-n] = RationalComplex(re, -im)
    return TrigSeries.exact(coeffs)


def _ratio_denominator(a: TrigSeries, k: int, two_sided: bool = False) -> float:
    """sum_{n>=2} n^{2k+1} |a_n|^{2k} of a real series (also n <= -2 when
    two_sided), the denominator of inequality_ratio."""
    if not is_real(a):
        raise NotReal("the ratio is defined for real series")
    denom = 0.0
    for n, v in a.items():
        if n >= 2 or (two_sided and n <= -2):
            denom += abs(n) ** (2 * k + 1) * abs(complex(v)) ** (2 * k)
    if denom == 0.0:
        raise DegenerateDenominator("no frequencies >= 2 in the series")
    return denom


def inequality_ratio(a: TrigSeries, k: int, two_sided: bool = False) -> float:
    """Z_k(a) divided by sum_{n>=2} n^{2k+1} |a_n|^{2k}.

    The denominator counts positive frequencies only by default (the
    convention used throughout the reports); two_sided=True also adds the
    n <= -2 terms, which doubles the denominator of a real series.
    """
    denom = _ratio_denominator(a, k, two_sided)
    return float(complex(zeta(a, k)).real) / denom


def z2_nonneg_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Evaluate Z_2 on random real series; flag (after exact re-check) any
    negative value.  Deterministic given the config."""
    samples = []
    failures = []
    for i in range(cfg.count):
        rng = sample_rng(cfg.seed, i)
        a = random_real_series(cfg.max_degree, cfg.coeff_scale, rng)
        z1 = complex(z1_closed(a)).real
        z2 = complex(z2_closed(a)).real
        tol = 1e-9 * (1.0 + a.sum_abs()) ** 4
        flagged = False
        z2_exact = None
        if z2 < -tol:
            exact_val = z2_closed(rationalize_series(a))
            z2_exact = str(exact_val.re)
            if exact_val.re < 0:
                flagged = True
        try:
            ratio = z2 / _ratio_denominator(a, 2)
        except DegenerateDenominator:
            ratio = None
        rec = SampleRecord(i, z1, z2, ratio, flagged, z2_exact)
        samples.append(rec)
        if flagged:
            failures.append(rec)
    ratios = [s.ratio for s in samples if s.ratio is not None]
    kappa_checks = tuple(
        (kappa, bool(positive_definite_check(
            a_kappa_form(kappa, KAPPA_FORM_SIZE))))
        for kappa in cfg.kappas)
    return CampaignReport(
        config=cfg,
        samples=tuple(samples),
        min_z2=min(s.z2 for s in samples),
        min_ratio=min(ratios) if ratios else None,
        failures=tuple(failures),
        kappa_checks=kappa_checks,
    )


# the leading Hermitian form of Z_2 as a quadratic in a_0 -------------------


def a_kappa_form(kappa: float, m: int) -> np.ndarray:
    """Hermitian form on the tail coordinates (a_2, ..., a_m).

    With a_1 = kappa * a_0, the invariant Z_2 is a quadratic trinomial in
    a_0 whose leading coefficient is this form: a pentadiagonal matrix with
    diagonal (1 + 2 kappa^2) n (n^2-1)(n^2 - 2/3), first off-diagonal
    2 kappa n (n^2-1)(n+2)(n+1/2), second off-diagonal
    kappa^2 n (n^2-1)(n+2)(n+3), all scaled by 4/5.
    """
    m = _size(m, "m", 2)
    kappa = float(kappa)
    size = m - 1
    H = np.zeros((size, size))
    for n in range(2, m + 1):
        H[n - 2, n - 2] = (1.0 + 2.0 * kappa**2) * n * (n * n - 1) * (n * n - 2.0 / 3.0)
    for n in range(2, m):
        H[n - 2, n - 1] = H[n - 1, n - 2] = \
            2.0 * kappa * n * (n * n - 1) * (n + 2) * (n + 0.5)
    for n in range(2, m - 1):
        H[n - 2, n] = H[n, n - 2] = \
            kappa**2 * n * (n * n - 1) * (n + 2) * (n + 3)
    return 0.8 * H


def trinomial_extract(tail: TrigSeries, kappa):
    """Coefficients (A, B, N0) of Z_2 = A a_0^2 + 2 B a_0 + N0 along the
    line a_1 = a_{-1} = kappa a_0 over the given tail.

    Determined by evaluating Z_2 at a_0 in {0, 1, -1} and solving the
    three-point interpolation; exact when the tail and kappa are exact.
    """
    if any(abs(n) <= 1 for n in tail.support):
        raise ValueError("tail series must vanish on frequencies |n| <= 1")
    exact = tail.backend == EXACT and isinstance(kappa, (int, Fraction))
    base = tail if exact else tail.to_float()
    kappa = Fraction(kappa) if exact else float(kappa)

    def z2_at(x):
        kx = kappa * x
        z = z2_closed(base + TrigSeries({0: x, 1: kx, -1: kx}, base.backend))
        return z.re if exact else z.real

    z0 = z2_at(0)
    zp = z2_at(1)
    zm = z2_at(-1)
    A = (zp + zm) / 2 - z0
    B = (zp - zm) / 4
    return A, B, z0


def positive_definite_check(H) -> bool:
    """True iff the (Hermitian, within 1e-12 relative) matrix is positive
    definite with pivots above 1e-10 * max|H|."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("need a square matrix")
    scale = float(np.max(np.abs(H))) or 1.0
    if float(np.max(np.abs(H - H.conj().T))) > 1e-12 * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    sym = (H + H.conj().T) / 2.0
    try:
        L = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(np.diag(L).real) ** 2 > 1e-10 * scale)
