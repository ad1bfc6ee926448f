"""The three benchmark workloads and the per-op correctness gate.

An op is one unit of user work.  Every op returns the cross-route checks it
made; the gate counts an op as failed when any check fails or the op raises,
and the run goes on.  Inputs derive only from the benchmark seed and the op
index, so a seed fixes every input.  Library calls go through module
attributes (``invariants.z2_closed``, not a name bound at import) so the
tracer in ``layers`` sees them.

Why these workloads:

* ``float-z2-highdeg`` -- the criterion-4 shape and the float hot spot:
  ``z2_closed`` on a degree-60 pullback enumerates 51,071 zero-sum
  multisets and keeps a 51k-entry ``z2_coeff_closed`` cache.  It exercises
  enumeration, closed coefficients, cache bounds and any faster Z_2 route.
* ``exact-routes`` -- exact trace, conformal and Lie routes in Fraction /
  RationalComplex arithmetic.  ``trace`` and ``scalars`` dominate; it barely
  touches ``z2_closed``, so it is the bypass side for float ``invariants``
  changes.  Float ``mu_matrix`` is deliberately not run: its cancellation
  defect at large N is a known open correctness item (ROADMAP.md, float
  stability of ``mu``) whose checks belong to the test suite.
* ``campaign-n15`` -- the CLI exploration harness end to end: many small
  forms on one 956-multiset support, re-enumerated on every ``z2_closed``
  call, with a small, fully warm cache -- the opposite cache profile to
  ``float-z2-highdeg``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from steklov_zeta import cli, conformal, explorer, invariants, lie, trace
from steklov_zeta.fourier import TrigSeries
from steklov_zeta.scalars import RationalComplex

# Inputs are drawn in set-up for this many op indices; op i uses entry
# i % POOL.  A run completes far fewer ops than this.
POOL = 128


@dataclass(frozen=True)
class Check:
    """One cross-route comparison: ok, and the deviation against tolerance."""

    name: str
    deviation: float
    tolerance: float
    ok: bool


def rel_check(name: str, ref: float, got: float, tol: float) -> Check:
    """|got - ref| / (1 + |ref|) <= tol, the acceptance-suite measure."""
    dev = abs(got - ref) / (1.0 + abs(ref))
    return Check(name, dev, tol, dev <= tol)


def exact_check(name: str, ref, got) -> Check:
    """Exact equality; the deviation is |got - ref| for the report."""
    ok = got == ref
    return Check(name, 0.0 if ok else abs(complex(got - ref)), 0.0, ok)


class Gate:
    """Runs ops, counts attempted and failed ones, keeps the worst check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.worst: dict = {}  # check name -> [deviation, tolerance]

    def record(self, index: int, checks) -> None:
        self.attempted += 1
        bad = [c for c in checks if not c.ok]
        for c in checks:
            w = self.worst.setdefault(c.name, [0.0, c.tolerance])
            w[0] = max(w[0], c.deviation)
        if bad or not checks:
            self.failed += 1
            self.errors.append(f"op {index}: failed checks "
                               + ", ".join(f"{c.name} dev={c.deviation!r}"
                                           for c in bad))

    def run(self, op, index: int) -> None:
        try:
            checks = op(index)
        except Exception:  # an op that raises counts as failed; the run goes on
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"op {index}: " + traceback.format_exc(limit=4))
            return
        self.record(index, checks)


# float-z2-highdeg -------------------------------------------------------------


class FloatZ2HighDeg:
    name = "float-z2-highdeg"
    RHOS = (0.1, 0.3, 0.5)
    GRID = 8192
    OUT_DEGREE = 60
    TOL = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self.params = {
            "op": "random_positive_series(5, 0.6, floor=0.5); pullback_direct "
                  "at rho = RHOS[i % 3]; z1_closed, z2_closed before and after",
            "input_degree": 5, "scale": 0.6, "floor": 0.5,
            "rho": list(self.RHOS), "grid": self.GRID,
            "out_degree": self.OUT_DEGREE, "tolerance": self.TOL,
        }

    def op(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        a = explorer.random_positive_series(5, 0.6, rng, floor=0.5)
        b = conformal.pullback_direct(a, self.RHOS[i % 3], self.GRID,
                                      self.OUT_DEGREE)
        return [rel_check(f"z{k}_pullback",
                          complex(fn(a)).real, complex(fn(b)).real, self.TOL)
                for k, fn in ((1, invariants.z1_closed),
                              (2, invariants.z2_closed))]


# exact-routes -----------------------------------------------------------------


def _fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))


def random_rational_series(rng, degree: int) -> TrigSeries:
    """Rational-complex series with parts p/q, |p| <= 9, 1 <= q <= 9, and
    exact degree (the top coefficient is pinned nonzero)."""
    coeffs = {n: RationalComplex(_fraction(rng), _fraction(rng))
              for n in range(-degree, degree + 1)}
    if not coeffs[degree]:
        coeffs[degree] = RationalComplex(1, 0)
    return TrigSeries.exact(coeffs)


class ExactRoutes:
    name = "exact-routes"
    DEGREE = 3
    KS = (1, 2, 3)
    RHOS = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
    MU_HALF_WIDTH = 24
    OUT_TOL = 1e-12       # suggest_out_degree tail bound
    GRID = 8192
    FLOAT_TOL = 1e-10
    LIE_K, LIE_RADIUS = 2, 5
    STRIDES = (5, 14)     # per-op stride drawn from [5, 14)

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = []
        for i in range(POOL):
            rng = np.random.default_rng([self.seed, i])
            self.inputs.append((random_rational_series(rng, self.DEGREE),
                                int(rng.integers(*self.STRIDES))))
        self.params = {
            "op": "trace_difference == zeta_invariant for k in KS; exact "
                  "mu_matrix and apply_moebius at rho = RHOS[i % 3] vs float "
                  "pullback_direct; raising_relation_sweep slice, source "
                  "brute/closed alternating",
            "degree": self.DEGREE, "k": list(self.KS),
            "N": [4 * k * self.DEGREE for k in self.KS],
            "rho": [str(r) for r in self.RHOS],
            "mu_half_width": self.MU_HALF_WIDTH,
            "out_degree_tol": self.OUT_TOL, "grid": self.GRID,
            "float_tolerance": self.FLOAT_TOL,
            "lie": {"k": self.LIE_K, "radius": self.LIE_RADIUS,
                    "stride": list(self.STRIDES)},
        }

    def op(self, i: int) -> list:
        a, stride = self.inputs[i % POOL]
        checks = []
        for k in self.KS:
            checks.append(exact_check(
                f"trace_k{k}", invariants.zeta_invariant(a, k),
                trace.trace_difference(a, k, 4 * k * a.degree)))

        rho = self.RHOS[i % 3]
        out_degree = conformal.suggest_out_degree(a.degree, rho, self.OUT_TOL)
        M = conformal.mu_matrix(rho, self.MU_HALF_WIDTH)
        b = conformal.apply_moebius(a, rho, out_degree)
        # the exact matrix and the row-by-row transport agree exactly
        h = min(self.MU_HALF_WIDTH, out_degree)
        worst = Fraction(0)
        for n in range(-h, h + 1):
            row = sum((M.at(n, k) * v for k, v in a.items()), RationalComplex())
            worst = max(worst, (row - b.coeff(n)).sup_abs())
        checks.append(Check("mu_matrix_rows", float(worst), 0.0, worst == 0))
        bf = conformal.pullback_direct(a.to_float(), float(rho), self.GRID,
                                       out_degree)
        dev = max(abs(complex(b.coeff(n)) - bf.coeff(n))
                  for n in range(-out_degree, out_degree + 1))
        checks.append(Check("moebius_vs_pullback", dev, self.FLOAT_TOL,
                            dev <= self.FLOAT_TOL))

        source = ("brute", "closed")[i % 2]
        worst = Fraction(0)
        count = 0
        for _, value in lie.raising_relation_sweep(
                self.LIE_K, self.LIE_RADIUS, stride=stride, source=source):
            worst = max(worst, abs(value))
            count += 1
        checks.append(Check(f"raising_{source}", float(worst), 0.0,
                            worst == 0 and count > 0))
        return checks


# campaign-n15 -----------------------------------------------------------------


class CampaignN15:
    name = "campaign-n15"
    COUNT = 20
    N0 = 15

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        rng = np.random.default_rng([seed])
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=POOL)]
        self.out_path = os.path.join(work_dir, f"campaign-{os.getpid()}.json")
        self.params = {
            "op": "cli.main(['explore', '--seed', s_i, '--count', '20', "
                  "'--n0', '15', '--out', FILE])",
            "count": self.COUNT, "n0": self.N0, "scale": 1.0,
        }

    def op(self, i: int) -> list:
        argv = ["explore", "--seed", str(self.seeds[i % POOL]),
                "--count", str(self.COUNT), "--n0", str(self.N0),
                "--out", self.out_path]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        with open(self.out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        failures = report["summary"]["failures"]
        return [Check("exit_code", float(code), 0.0, code == 0),
                Check("failures", float(len(failures)), 0.0, failures == []),
                Check("samples", float(abs(len(report["samples"]) - self.COUNT)),
                      0.0, len(report["samples"]) == self.COUNT)]


NAMES = (FloatZ2HighDeg.name, ExactRoutes.name, CampaignN15.name)


def build(name: str, seed: int, work_dir: str):
    if name == FloatZ2HighDeg.name:
        return FloatZ2HighDeg(seed)
    if name == ExactRoutes.name:
        return ExactRoutes(seed)
    if name == CampaignN15.name:
        return CampaignN15(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
