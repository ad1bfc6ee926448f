import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (KIND_DN, KIND_DTHETA, RationalComplex,
                          TrigSeries, TruncationTooSmall, exact_width,
                          operator_matrix, pullback_direct,
                          random_positive_series, trace_difference,
                          z1_closed, z2_closed, zeta_invariant)
from steklov_zeta import scalars
from steklov_zeta.explorer import rationalize_series, sample_rng
from steklov_zeta.scalars import WORD, join, residue_primes, ring, split_primes
from steklov_zeta.trace import _trace_bound, _trace_difference_at

from util import large_rational_series, load_perfbench, random_exact_series


def test_constant_weight_gives_diagonal_dn():
    A = operator_matrix(TrigSeries.exact({0: 1}), KIND_DN, 4)
    for m in range(-4, 5):
        for n in range(-4, 5):
            expected = abs(n) if m == n else 0
            assert A.entry(m, n) == expected


def test_single_mode_weight_shifts():
    B = operator_matrix(TrigSeries.exact({1: 1}), KIND_DTHETA, 2)
    for m in range(-2, 3):
        for n in range(-2, 3):
            expected = n if m == n + 1 else 0
            assert B.entry(m, n) == expected


def test_real_weight_matrix_symmetry():
    a = TrigSeries.exact({0: 2, 1: (1, 1), -1: (1, -1)})
    A = operator_matrix(a, KIND_DN, 5)
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert A.entry(m, n).conjugate() == A.entry(-m, -n)


def test_operator_matrix_kind_validation():
    with pytest.raises(ValueError):
        operator_matrix(TrigSeries.exact({0: 1}), "nope", 3)
    with pytest.raises(ValueError):
        operator_matrix(TrigSeries.exact({3: 1, -3: 1}), KIND_DN, 2)


def test_constant_weight_trace_difference_vanishes():
    a = TrigSeries.exact({0: Fraction(5, 7)})
    for k in (1, 2, 3):
        assert trace_difference(a, k, 8) == 0


def criterion3_series():
    """The 50 random series of acceptance criterion 3, degrees 1..3."""
    rng = random.Random(20250808)
    for _ in range(50):
        yield random_exact_series(rng, rng.randint(1, 3))


def test_truncation_guard():
    """trace_difference takes exactly the N >= exact_width(a, k)."""
    pair = TrigSeries.exact({2: 1, -2: 1})
    assert trace_difference(pair, 1, 7) == 4  # below the former 4k deg
    for a in list(criterion3_series())[:10]:
        for k in (1, 2, 3):
            W = exact_width(a, k)
            with pytest.raises(TruncationTooSmall, match=f"= {W}$"):
                trace_difference(a, k, W - 1)
            with pytest.raises(ValueError):
                trace_difference(a, k, W - 1)
            assert trace_difference(a, k, W) == zeta_invariant(a, k)


def test_trace_equals_invariant_single_pair():
    a = TrigSeries.exact({2: 1, -2: 1})
    assert trace_difference(a, 1, 16) == zeta_invariant(a, 1) == 4


def test_trace_equals_invariant_degree_three():
    a = TrigSeries.exact({1: Fraction(1, 2), -1: Fraction(1, 2),
                          3: Fraction(1, 3), -3: Fraction(1, 3), 0: 2})
    assert trace_difference(a, 2, 40) == zeta_invariant(a, 2)


def test_trace_equals_invariant_random():
    rng = random.Random(61)
    for _ in range(6):
        deg = rng.randint(1, 3)
        a = random_exact_series(rng, deg)
        for k in (1, 2):
            assert trace_difference(a, k, 4 * k * deg) == zeta_invariant(a, k)


def test_trace_value_stable_beyond_threshold():
    rng = random.Random(67)
    a = random_exact_series(rng, 2)
    k = 2
    W = exact_width(a, k)
    base = trace_difference(a, k, W)
    for extra in (1, 5, 16):
        assert trace_difference(a, k, W + extra) == base


def test_homogeneity():
    rng = random.Random(71)
    a = random_exact_series(rng, 2)
    c = Fraction(-3, 2)
    for k in (1, 2):
        scaled = trace_difference(c * a, k, 8 * k)
        assert scaled == c ** (2 * k) * trace_difference(a, k, 8 * k)


def test_stabilization_low_frequency_series():
    a = TrigSeries.exact({0: 3, 1: (1, 1), -1: (1, -1)})
    assert zeta_invariant(a, 2) == 0
    for N in range(1, 9):  # zero at every width
        assert _trace_difference_at(a, 2, N) == 0


def test_stabilization_single_pair():
    a = TrigSeries.exact({2: 1, -2: 1})
    for N in range(2, 17):  # W = deg = 2 for k = 1
        assert _trace_difference_at(a, 1, N) == 4


def test_stabilization_degree_three():
    a = TrigSeries.exact({3: 1, -3: 1, 1: (0, 1), -1: (0, -1)})
    z = zeta_invariant(a, 2)
    W = exact_width(a, 2)
    assert _trace_difference_at(a, 2, W - 1) != z
    for N in range(W, 25):
        assert _trace_difference_at(a, 2, N) == z


def test_stabilization_sweep_evidence():
    """The raw truncation stays at Z_1 over doubling widths up to 256."""
    a = TrigSeries.exact({2: 1, -2: 1})
    z = zeta_invariant(a, 1)
    N = a.degree
    while N <= 256:
        assert _trace_difference_at(a, 1, N) == z
        N *= 2


def test_float_backend_trace_close_to_exact():
    rng = random.Random(73)
    a = random_exact_series(rng, 2)
    exact = complex(trace_difference(a, 2, 16))
    approx = trace_difference(a.to_float(), 2, 16)
    assert approx == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_float_trace_matches_closed_forms():
    """Float trace_difference is within 1e-12 relative of z1_closed on the
    criterion-4 series and their degree-60 pullbacks, and of z2_closed on
    the series and the rho = 0.5 pullback of the first one; subtracting
    two traces is off by up to 3e-9 (k = 1) and 1.1e-6 (k = 2) here."""
    def rel(a, k, closed):
        z = closed(a)
        return abs(trace_difference(a, k, exact_width(a, k)) - z) / abs(z)

    worst = 0.0
    for i in range(10):
        a = random_positive_series(5, 0.6, sample_rng(20250804, i), floor=0.5)
        pullbacks = [pullback_direct(a, rho, 8192, 60)
                     for rho in (0.1, 0.3, 0.5)]
        worst = max(worst, rel(a, 2, z2_closed),
                    *(rel(b, 1, z1_closed) for b in [a] + pullbacks))
        if i == 0:
            worst = max(worst, rel(pullbacks[-1], 2, z2_closed))
    assert worst <= 1e-12


def test_float_trace_matches_exact_invariant_at_high_order():
    """At k = 3, 4 the float trace of a dyadic degree-3 series is within
    1e-13 relative of the exact zeta_invariant of the same series (2.4e-16
    at worst)."""
    for i in range(10):
        exact = rationalize_series(
            random_positive_series(3, 0.6, sample_rng(20250818, i), floor=0.5))
        a = exact.to_float()
        for k in (3, 4):
            z = complex(zeta_invariant(exact, k))
            got = trace_difference(a, k, exact_width(a, k))
            assert isinstance(got, complex)
            assert abs(got - z) <= 1e-13 * abs(z)


def test_exact_trace_with_large_numerators_and_denominators():
    """Numerators near 1e9 over denominators near 1e6: the cleared entries
    and their products of 2k factors outgrow int64, and the trace stays
    exact."""
    rng = random.Random(20250819)

    def big():
        return Fraction(rng.randint(10**9 - 10**3, 10**9 + 10**3),
                        rng.randint(10**6 - 10**3, 10**6 + 10**3))

    for deg in (1, 2, 3):
        a = TrigSeries.exact({n: (big(), big()) for n in range(-deg, deg + 1)})
        for k in (1, 2, 3):
            assert trace_difference(a, k, exact_width(a, k)) == \
                zeta_invariant(a, k)


def true_width(a, k):
    return max(a.degree, k * a.degree - 1)


def test_exact_width_is_the_true_width():
    for a in criterion3_series():
        for k in (1, 2, 3):
            assert exact_width(a, k) == true_width(a, k)
    assert exact_width(TrigSeries.exact({0: 3}), 2) == 0


def test_true_width_is_exact_and_sharp():
    """On the criterion-3 series the raw truncation at max(deg, k deg - 1)
    is Z_k every time; one below it misses Z_k somewhere for every k >= 2,
    deg >= 2.  (For k = 1 the width is deg, the matrices' own minimum.)"""
    misses = {(k, deg): 0 for k in (2, 3) for deg in (2, 3)}
    for a in criterion3_series():
        deg = a.degree
        for k in (1, 2, 3):
            z = zeta_invariant(a, k)
            assert _trace_difference_at(a, k, true_width(a, k)) == z
            if (k, deg) in misses:
                misses[k, deg] += \
                    _trace_difference_at(a, k, true_width(a, k) - 1) != z
    assert all(misses.values()), misses


def rational_complex_trace(a, k, N):
    """The trace route before Gaussian integers: the banded kernel run on
    the RationalComplex entries of operator_matrix."""
    traces = []
    for kind in (KIND_DN, KIND_DTHETA):
        M = P = operator_matrix(a, kind, N)
        for _ in range(k - 1):
            P = P.matmul(M)
        traces.append(P.trace_of_square())
    return traces[0] - traces[1]


@pytest.mark.parametrize("coeffs", [
    {0: Fraction(2, 3), 1: (Fraction(1, 4), Fraction(-5, 6)),
     -2: (Fraction(7, 9), Fraction(1, 8))},                 # mixed denominators
    {1: (0, Fraction(1, 2)), -1: (0, Fraction(-1, 3)),
     3: (0, 2)},                                            # purely imaginary
    {0: Fraction(-5, 7)},                                   # degree 0
    {},                                                     # zero weight
], ids=["mixed", "imaginary", "degree0", "zero"])
def test_gaussian_integer_trace_matches_rational_kernel(coeffs):
    a = TrigSeries.exact(coeffs)
    for k in (1, 2, 3):
        for N in sorted({a.degree, true_width(a, k), true_width(a, k) + 3}):
            got = _trace_difference_at(a, k, N)
            want = rational_complex_trace(a, k, N)
            assert isinstance(got, RationalComplex) and got == want
        assert trace_difference(a, k, 4 * k * a.degree) == \
            rational_complex_trace(a, k, 4 * k * a.degree)


def ring_trace(a, k, N):
    """The kernel on scalars.ring alone, the oracle of the residue kernel:
    for an exact weight the same recurrence on ring's object stack [x; y]
    of Python ints, products under cmul, one join; for a float weight the
    complex128 path, which the kernel keeps bit for bit."""
    exact = a.backend == "exact"
    vec, D, mul = ring([v for _, v in a.items()], exact)
    S = 2 * N + 1
    symbol = np.abs(np.arange(-N, N + 1)).astype(vec.dtype)
    A = np.zeros(vec.shape[:-1] + (S, S), vec.dtype)
    for i, off in enumerate(a.support):
        j = np.arange(max(0, -off), S - max(0, off))
        A[..., j + off, j] = np.multiply.outer(vec[..., i], symbol[j])
    X = np.concatenate([A, A], axis=-2)
    X[..., :S, :N] = X[..., S:, N:] = 0
    for _ in range(k - 1):
        X = mul(X, A, np.matmul)
        X[..., :N] = np.roll(X[..., :N], S, axis=-2)
    trace = mul(X[..., :S, :], X[..., S:, :].mT).sum(axis=(-2, -1))
    return join(4 * trace, D ** (2 * k), exact)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_residue_trace_matches_object_oracle_on_benchmark_pool(k):
    """Every input of the exact-routes pool (seed 1) at its exact width."""
    for a, _ in load_perfbench("workloads").ExactRoutes(1).inputs:
        N = exact_width(a, k)
        got = _trace_difference_at(a, k, N)
        assert isinstance(got, RationalComplex)
        assert got == ring_trace(a, k, N)


def test_float_trace_is_the_complex128_recurrence_bit_for_bit():
    """On the criterion-4 series, a degree-60 pullback and a random
    complex series, at k = 1..3 and two widths."""
    a = random_positive_series(5, 0.6, sample_rng(20250804, 0), floor=0.5)
    series = [a, pullback_direct(a, 0.5, 8192, 60),
              random_exact_series(random.Random(5), 3).to_float()]
    for b in series:
        for k in (1, 2, 3):
            for N in (exact_width(b, k), exact_width(b, k) + 2):
                got = _trace_difference_at(b, k, N)
                assert repr(got) == repr(ring_trace(b, k, N))


@pytest.mark.parametrize("coeffs", [
    {},                                                     # empty
    {0: Fraction(-5, 7)},                                   # single modes
    {3: (2, -5)},
    {-2: (Fraction(7, 3), Fraction(1, 9))},
] + list(large_rational_series()),                          # ~1e9 / ~1e6
    ids=["empty", "mode0", "mode3", "mode-2", "big1", "big2", "big3"])
def test_residue_trace_matches_object_oracle(coeffs):
    a = coeffs if isinstance(coeffs, TrigSeries) else TrigSeries.exact(coeffs)
    for k in (1, 2, 3):
        W = exact_width(a, k)
        for N in (W, W + 3):
            assert _trace_difference_at(a, k, N) == ring_trace(a, k, N)


def test_residue_trace_at_a_wide_truncation():
    """At S = 129 the primes of S = 1 would overflow an int64 matmul, so
    the prime size shrinks; the trace stays exact."""
    S = 129
    p1 = split_primes(1, 1)[0][0]
    assert S * (p1 - 1) ** 2 >= WORD
    assert split_primes(S, 1)[0][0] < p1
    a = random_exact_series(random.Random(3), 2)
    for k in (2, 3):
        got = _trace_difference_at(a, k, 64)
        assert got == ring_trace(a, k, 64) == zeta_invariant(a, k)


def test_lift_needs_every_prime_the_bound_asks_for():
    """a = c (e^{2i theta} + e^{-2i theta}) with c as large as the first
    three primes of width S = 7 allow: the bound asks for all three, and
    Z_2 = 48 c^4 lies past the symmetric range of the first two, so a lift
    on one prime fewer than the bound asks for is wrong."""
    k, N = 2, 3
    primes = split_primes(2 * N + 1, 3)
    M = math.prod(p for p, _ in primes)

    def bound(a):
        return _trace_bound(ring([v for _, v in a.items()], True)[0], k, N)

    unit = bound(TrigSeries.exact({2: 1, -2: 1}))   # the bound is 4-homogeneous
    c = math.isqrt(math.isqrt((M - 1) // (2 * unit)))
    a = TrigSeries.exact({2: c, -2: c})
    assert residue_primes(2 * N + 1, bound(a)) == primes
    z = trace_difference(a, k, N)
    assert z == ring_trace(a, k, N) == 48 * c ** 4
    assert 2 * abs(z.re) > M // primes[-1][0]


def sieve(n):
    """The primes below n."""
    prime = np.ones(n, bool)
    prime[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if prime[d]:
            prime[d * d::d] = False
    return np.flatnonzero(prime)


_SMALL_PRIMES = sieve(55110)  # up to the root of every candidate (3.04e9)


def by_trial_division(n):
    """Primality of n < 55110^2 by trial division."""
    divisors = _SMALL_PRIMES[_SMALL_PRIMES <= math.isqrt(n)]
    return n > 1 and not (n % divisors == 0).any()


def straight_split_primes(width, count):
    """split_primes as a search from the top for every count."""
    p = 1 + math.isqrt((WORD - 1) // width)
    p -= (p - 1) % 4
    primes = []
    while len(primes) < count:
        if scalars._is_prime(p):
            c = 2
            while pow(c, (p - 1) // 2, p) != p - 1:
                c += 1
            primes.append((p, pow(c, (p - 1) // 4, p)))
        p -= 4
    return tuple(primes)


def test_split_primes_go_on_from_the_cached_half(monkeypatch):
    """At every width, residue_primes' doubling counts test no candidate
    twice, and every count is the straight search's list."""
    tested = []
    is_prime = scalars._is_prime
    monkeypatch.setattr(scalars, "_is_prime",
                        lambda n: tested.append(n) or is_prime(n))
    split_primes.cache_clear()
    for width in range(3, 256):
        del tested[:]
        for count in (1, 2, 4, 8, 16):
            split_primes(width, count)
        assert len(tested) == len(set(tested)), width
        straight = straight_split_primes(width, 16)
        for count in range(1, 17):
            assert split_primes(width, count) == straight[:count]
    split_primes.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2 ** 20))
def test_split_primes_keep_a_width_of_products_inside_int64(S):
    """Each prime p of width S has S (p - 1)^2 < 2^63, is prime,
    p = 1 (mod 4) and s^2 = -1 (mod p); the first is the largest such."""
    primes = split_primes(S, 3)
    for p, s in primes:
        assert S * (p - 1) ** 2 < WORD
        assert p % 4 == 1 and by_trial_division(p) and (s * s + 1) % p == 0
    assert [p for p, _ in primes] == sorted({p for p, _ in primes},
                                            reverse=True)
    limit = 1 + math.isqrt((WORD - 1) // S)       # the largest p allowed
    assert S * limit ** 2 >= WORD
    first = primes[0][0]
    assert not any(by_trial_division(q) for q in range(first + 4, limit + 1, 4))
