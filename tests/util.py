"""Shared helpers for the test suite."""

import importlib.util
import itertools
import math
import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction

from steklov_zeta import RationalComplex, TrigSeries, brute_n


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def random_fraction(rng: random.Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_exact_series(rng: random.Random, degree: int,
                        real: bool = False) -> TrigSeries:
    """Random rational-complex series with the exact requested degree."""
    coeffs = {}
    for n in range(0, degree + 1):
        re, im = random_fraction(rng), random_fraction(rng)
        if n == 0 and real:
            im = Fraction(0)
        coeffs[n] = RationalComplex(re, im)
        if n > 0:
            coeffs[-n] = (RationalComplex(re, -im) if real
                          else RationalComplex(random_fraction(rng),
                                               random_fraction(rng)))
    # pin the top coefficient so the degree is exact
    if degree > 0 and not coeffs[degree]:
        coeffs[degree] = RationalComplex(1, 0)
        if real:
            coeffs[-degree] = RationalComplex(1, 0)
    return TrigSeries.exact(coeffs)


def large_rational_series():
    """Degree 1, 2, 3 series with every part a numerator near 1e9 over a
    denominator near 1e6: cleared to integers, their parts outgrow int64
    (the inputs of test_exact_trace_with_large_numerators_and_denominators)."""
    rng = random.Random(20250819)

    def big():
        return Fraction(rng.randint(10**9 - 10**3, 10**9 + 10**3),
                        rng.randint(10**6 - 10**3, 10**6 + 10**3))

    for deg in (1, 2, 3):
        yield TrigSeries.exact({n: (big(), big())
                                for n in range(-deg, deg + 1)})


def random_zero_sum_tuple(rng: random.Random, k: int, bound: int) -> tuple:
    """Zero-sum multi-index of length 2k with entries in [-bound, bound]."""
    while True:
        head = tuple(rng.randint(-bound, bound) for _ in range(2 * k - 1))
        last = -sum(head)
        if abs(last) <= bound:
            return head + (last,)


def symmetrize_z_orderings(indices) -> Fraction:
    """Z as the paper defines it: brute_n averaged over the (2k-1)!
    orderings of the first 2k - 1 slots, the last slot fixed (the oracle of
    symmetrize_z's parity recurrence)."""
    idx = tuple(indices)
    last = idx[-1]
    perms = Counter(itertools.permutations(idx[:-1]))
    total = sum(cnt * brute_n(p + (last,)) for p, cnt in perms.items())
    return Fraction(total, math.factorial(len(idx) - 1))


def symmetrize_z_full(indices) -> Fraction:
    """brute_n averaged over all (2k)! orderings; equal to the average with
    the last slot fixed by the cyclic invariance of N."""
    idx = tuple(indices)
    perms = Counter(itertools.permutations(idx))
    total = sum(cnt * brute_n(p) for p, cnt in perms.items())
    return Fraction(total, math.factorial(len(idx)))
