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

A campaign draws each sample as one complex row of coefficients on the
support -n0..n0 (_draw, shared with random_real_series) and evaluates
Z_1 and Z_2 of CAMPAIGN_BLOCK rows at a time with one call of the form
evaluator, invariants._form_sum, per form, which walks the (R, S) rows in
slices of a few (at most 8192 row x term entries each).  Each row's sums
run in the order of that row alone, the one-row block of z1_closed and
z2_closed, so every value is the double they give for the sample's series.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateDenominator, NotHermitian, NotReal
from . import invariants
from .fourier import EXACT, TrigSeries, _real, _size, is_real, min_on_circle
from .invariants import z2_closed, zeta
from .scalars import RationalComplex, ring


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
        n0 = self.max_degree
        scale = _real(self.coeff_scale, "coeff_scale", 0, strict=False)
        try:
            finite = math.isfinite(
                (2 * n0 + 1) ** 4 * 2 * (8 * n0) ** 5 * float(scale) ** 4)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("coeff_scale must keep the sample values finite, "
                             f"got {scale!r}")
        kappas = []
        for kappa in self.kappas:
            try:
                a_kappa_form(kappa, KAPPA_FORM_SIZE)
            except ValueError as exc:
                raise ValueError(f"kappas must give finite a_kappa_forms: "
                                 f"{exc}") from None
            kappas.append(float(kappa))
        # floats, so a Fraction or numpy.float32 scale or kappa serializes too
        object.__setattr__(self, "coeff_scale", float(scale))
        object.__setattr__(self, "kappas", tuple(kappas))


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
            "config": dict(vars(self.config)),
            "samples": [dict(vars(s)) for s in self.samples],
            "summary": {
                "min_z2": self.min_z2,
                "min_ratio": self.min_ratio,
                "failures": [dict(vars(s)) for s in self.failures],
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


def _draw(n0: int, scale, rng: np.random.Generator) -> np.ndarray:
    """One random real series as the complex row a_{-n0}, ..., a_{n0}.

    a_0 is one uniform draw in [-scale, scale]; then one call draws the
    pairs (Re a_n, Im a_n), n = 1..n0, in that order, uniform in
    [-scale/sqrt(2), scale/sqrt(2)]: the same doubles as one scalar call
    per part.  a_{-n} is the conjugate of a_n.  The caller checks scale.
    """
    s = scale / math.sqrt(2.0)
    row = np.empty(2 * n0 + 1, complex)
    row[n0] = rng.uniform(-scale, scale)
    pairs = rng.uniform(-s, s, 2 * n0).view(complex)
    row[n0 + 1:] = pairs
    row[:n0] = pairs[::-1].conj()
    return row


def _series(n0: int, values: list) -> TrigSeries:
    """The series of a drawn row's values, entered in the order a_0, a_1,
    a_{-1}, a_2, ... (TrigSeries.sum_abs adds them in that order)."""
    coeffs = {0: values[n0]}
    for n in range(1, n0 + 1):
        coeffs[n] = values[n0 + n]
        coeffs[-n] = values[n0 - n]
    return TrigSeries.from_complex(coeffs)


def random_real_series(n0: int, scale: float,
                       rng: np.random.Generator) -> TrigSeries:
    """Random conjugate-symmetric series with |a_n| <= scale, support <= n0.

    a_0 is uniform real in [-scale, scale]; for 1 <= n <= n0 the real and
    imaginary parts of a_n are uniform in [-scale/sqrt(2), scale/sqrt(2)]
    and a_{-n} is the conjugate.  A scale that is not a finite real >= 0,
    or whose double 2 * scale is not finite, raises a ValueError.
    """
    n0 = _size(n0, "n0")
    if not math.isfinite(2.0 * float(_real(scale, "scale", 0, strict=False))):
        raise ValueError(f"scale must keep 2 * scale finite, got {scale!r}")
    return _series(n0, _draw(n0, scale, rng).tolist())


def random_positive_series(n0: int, scale: float, rng: np.random.Generator,
                           floor: float = 0.5) -> TrigSeries:
    """Random real series shifted to stay above a positive floor (screened
    on a grid of 2048 points).  A floor that is not a finite real > 0
    raises a ValueError."""
    _real(floor, "floor", 0)
    a = random_real_series(n0, scale, rng)
    m = min_on_circle(a, 2048)
    if m < floor:
        shift = TrigSeries.from_complex({0: float(floor) - m})
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


def _ratio_denominator(items, k: int) -> float:
    """sum_{n>=2} n^{2k+1} |a_n|^{2k} over the (n, a_n) pairs of a real
    series in increasing n, the denominator of inequality_ratio.  A zero
    a_n adds exactly 0."""
    denom = 0.0
    for n, v in items:
        if n >= 2:
            denom += n ** (2 * k + 1) * abs(complex(v)) ** (2 * k)
    if denom == 0.0:
        raise DegenerateDenominator("no frequencies >= 2 in the series")
    return denom


def inequality_ratio(a: TrigSeries, k: int) -> float:
    """Z_k(a) divided by sum_{n>=2} n^{2k+1} |a_n|^{2k}, the positive
    frequencies only (the convention used throughout the reports)."""
    k = _size(k, "order k")
    if not is_real(a):
        raise NotReal("the ratio is defined for real series")
    denom = _ratio_denominator(a.items(), k)
    return float(complex(zeta(a, k)).real) / denom


# Rows R of the (R, S) block of one _form_sum in z2_nonneg_campaign, walked
# in slices of at most invariants._SUM_BLOCK row x term entries (8 rows of
# the 949 Z_2 terms at n0 = 15): temporaries stay at or under about 128 KiB
# whatever the block, and nothing grows with the count.
CAMPAIGN_BLOCK = 32


def _closed_forms(support: tuple, rows: np.ndarray) -> list:
    """[Z_1, Z_2] of each float row of coefficients on support, rows
    (R, S), as real parts: one _form_sum per form over all the rows."""
    vec, _, mul = ring(rows, False)
    return [invariants._form_sum(support, vec, mul, slots, coeff)[0].real
            for slots, coeff in ((2, invariants._pair_coeff_closed),
                                 (4, invariants.z2_coeff_closed))]


def z2_nonneg_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Evaluate Z_2 on random real series; flag (after exact re-check) any
    negative value.  Deterministic given the config.

    Samples are drawn as complex rows over the support -n0..n0 and
    evaluated CAMPAIGN_BLOCK rows at a time, one _form_sum per form and
    block.  A row's sums run along its own axis, so each value is the one
    z1_closed and z2_closed give its series; a row with a zero coefficient
    (its series has a smaller support, so its sum another order) is
    evaluated on its own support.  Only a sample whose Z_2 is negative
    becomes a TrigSeries, for the threshold 1e-9 (1 + sum|a_n|)^4 and the
    exact re-check of a value below minus it.
    """
    n0 = cfg.max_degree
    support = tuple(range(-n0, n0 + 1))
    above_1 = support[n0 + 2:]  # the frequencies of the ratio denominator
    samples = []
    failures = []
    for start in range(0, cfg.count, CAMPAIGN_BLOCK):
        block = range(start, min(start + CAMPAIGN_BLOCK, cfg.count))
        rows = np.array([_draw(n0, cfg.coeff_scale, sample_rng(cfg.seed, i))
                         for i in block])
        z1s, z2s = _closed_forms(support, rows)
        for j in np.flatnonzero(~rows.all(-1)):
            kept = tuple(n for n, v in zip(support, rows[j]) if v)
            z1s[j:j + 1], z2s[j:j + 1] = _closed_forms(
                kept, rows[j:j + 1, rows[j] != 0])
        for i, values, z1, z2 in zip(block, rows.tolist(), z1s.tolist(),
                                     z2s.tolist()):
            flagged = False
            z2_exact = None
            if z2 < 0:  # the threshold is positive
                a = _series(n0, values)
                if z2 < -1e-9 * (1.0 + a.sum_abs()) ** 4:
                    exact_val = z2_closed(rationalize_series(a))
                    z2_exact = str(exact_val.re)
                    flagged = exact_val.re < 0
            try:
                ratio = z2 / _ratio_denominator(
                    zip(above_1, values[n0 + 2:]), 2)
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

    A kappa that is not a finite real (fourier._real), or whose form would
    hold an infinite entry, raises a ValueError.
    """
    m = _size(m, "m", 2)
    k = float(_real(kappa, "kappa"))
    kappa2 = k ** 2 if abs(k) < 1e154 else math.inf  # else 2 k^2 overflows
    H = np.zeros((m - 1, m - 1))
    for n in range(2, m + 1):
        H[n - 2, n - 2] = (1.0 + 2.0 * kappa2) * n * (n * n - 1) * (n * n - 2.0 / 3.0)
    for n in range(2, m):
        H[n - 2, n - 1] = H[n - 1, n - 2] = \
            2.0 * k * n * (n * n - 1) * (n + 2) * (n + 0.5)
    for n in range(2, m - 1):
        H[n - 2, n] = H[n, n - 2] = \
            kappa2 * n * (n * n - 1) * (n + 2) * (n + 3)
    H = 0.8 * H
    if not np.isfinite(H).all():
        raise ValueError(f"kappa must keep its a_kappa_form finite, "
                         f"got {kappa!r}")
    return H


def trinomial_extract(tail: TrigSeries, kappa):
    """Coefficients (A, B, N0) of Z_2 = A a_0^2 + 2 B a_0 + N0 along the
    line a_1 = a_{-1} = kappa a_0 over the given tail.

    Determined by evaluating Z_2 at a_0 in {0, 1, -1} and solving the
    three-point interpolation; exact when the tail and kappa are exact.
    A float kappa must pass a_kappa_form's check.
    """
    if any(abs(n) <= 1 for n in tail.support):
        raise ValueError("tail series must vanish on frequencies |n| <= 1")
    exact = tail.backend == EXACT and isinstance(kappa, (int, Fraction))
    if not exact:
        a_kappa_form(kappa, max(tail.degree, 2))
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
