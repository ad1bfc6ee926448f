import random
from fractions import Fraction

import pytest

from steklov_zeta import (KIND_DN, KIND_DTHETA, RationalComplex,
                          TrigSeries, TruncationTooSmall, exact_width,
                          operator_matrix, pullback_direct,
                          random_positive_series, trace_difference,
                          z1_closed, z2_closed, zeta_invariant)
from steklov_zeta.explorer import rationalize_series, sample_rng
from steklov_zeta.trace import _trace_difference_at

from util import random_exact_series


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
