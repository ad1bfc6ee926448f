import cmath
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from steklov_zeta import (BackendMismatch, GridTooSmall, TrigSeries,
                          apply_moebius, conformal, conjugate,
                          d_matrix, exp_relation_check, group_law_check, mu,
                          mu_matrix, pullback_direct, rotate,
                          suggest_out_degree, z1_closed, z2_closed)
from steklov_zeta.cli import main
from steklov_zeta.conformal import _columns, _rows, rk4_exponential
from steklov_zeta.explorer import random_positive_series
from steklov_zeta.fourier import evaluate_at, from_samples, grid_points
from steklov_zeta.scalars import RC_ZERO

from util import large_rational_series, random_exact_series


def mu_contour(n, k, rho, nodes=4096):
    """Independent oracle: trapezoid contour integral on |z| = 1 of
    (1-rho^2)^2 (1+rho z)^{n-2} (z+rho)^{-(n+2)} z^{k+1} / (2 pi i)."""
    total = 0j
    for m in range(nodes):
        z = cmath.exp(2j * math.pi * m / nodes)
        total += (1 + rho * z) ** (n - 2) / (z + rho) ** (n + 2) \
            * z ** (k + 1) * 1j * z
    return (1 - rho ** 2) ** 2 / (2j * math.pi) * total * (2 * math.pi / nodes)


CASES = [(2, 2), (3, 4), (5, 7), (0, 3), (1, 2), (-1, 2), (1, 5), (0, -4),
         (-3, -5), (4, 2), (-1, -3), (1, -1), (0, 0), (2, 5), (-4, -2),
         (1, 0), (-1, -1), (6, 3), (-6, -3)]


@pytest.mark.parametrize("n,k", CASES)
def test_mu_matches_contour_integral(n, k):
    rho = 0.37
    assert mu(n, k, rho) == pytest.approx(mu_contour(n, k, rho).real,
                                          abs=1e-12)


def test_mu_exact_value_against_contour():
    exact = mu(3, 4, Fraction(1, 2))
    assert isinstance(exact, Fraction)
    assert float(exact) == pytest.approx(mu_contour(3, 4, 0.5).real, abs=1e-12)


def test_mu_center_entry():
    r = Fraction(2, 7)
    assert mu(0, 0, r) == (1 + r * r) / (1 - r * r)


def test_mu_zero_region_entry():
    assert mu(5, 1, Fraction(1, 3)) == 0


def test_mu_row_minus_one():
    r = Fraction(1, 3)
    assert mu(-1, 2, r) == -r**3 / (1 - r * r)


def test_mu_at_zero_is_identity():
    for n in range(-4, 5):
        for k in range(-4, 5):
            assert mu(n, k, Fraction(0)) == (1 if n == k else 0)


def test_center_block_closed_form():
    for r in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        d = 1 - r * r
        expected = [[1 / d, -r / d, r * r / d],
                    [-2 * r / d, (1 + r * r) / d, -2 * r / d],
                    [r * r / d, -r / d, 1 / d]]
        for i, n in enumerate((-1, 0, 1)):
            for j, k in enumerate((-1, 0, 1)):
                assert mu(n, k, r) == expected[i][j]


def test_zero_patterns():
    r = Fraction(1, 3)
    for n in range(-15, 16):
        for k in range(-15, 16):
            v = mu(n, k, r)
            if n <= -2 and k >= -1:
                assert v == 0
            if n >= 2 and k <= 1:
                assert v == 0
            if abs(n) >= 2 and abs(k) <= 1:
                assert v == 0


def test_evenness_exact():
    params = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2),
              Fraction(3, 5), Fraction(-2, 7))
    for r in params:
        for n in range(-20, 21):
            for k in range(-20, 21):
                assert mu(n, k, r) == mu(-n, -k, r)


def test_mu_float_agrees_with_exact():
    r = Fraction(3, 10)
    for n in range(-20, 21, 2):
        for k in range(-20, 21, 3):
            assert mu(n, k, 0.3) == pytest.approx(float(mu(n, k, r)),
                                                  rel=1e-11, abs=1e-13)


def mu_main_in_rho_arithmetic(n, k, rho):
    """Exact oracle for n, k >= 2: the closed-form alternating binomial sum
    for mu_{nk}, every term in Fraction arithmetic."""
    omr2 = 1 - rho * rho
    total = rho * 0
    for l in range(3, min(n, k) + 2):
        term = (math.comb(n - 2, l - 3) * math.comb(k + 1, l)
                * rho ** (n + k + 2 - 2 * l) * omr2 ** (l - 1))
        total += -term if l % 2 else term
    return total if k % 2 else -total


MU_RHOS = [Fraction(1, 10), Fraction(-1, 10), Fraction(3, 10), Fraction(1, 2),
           Fraction(-1, 2), Fraction(9, 10), Fraction(5, 7)]


@pytest.mark.parametrize("rho", MU_RHOS, ids=str)
def test_mu_matrix_matches_binomial_sum(rho):
    M = mu_matrix(rho, 40)
    for n in range(2, 41):
        for k in range(2, 41):
            assert type(M.at(n, k)) is Fraction
            assert M.at(n, k) == mu_main_in_rho_arithmetic(n, k, rho)


@pytest.mark.parametrize("N", [60, 100])
@pytest.mark.parametrize("rho", [Fraction(3, 10), Fraction(1, 2),
                                 Fraction(9, 10)], ids=str)
def test_float_mu_matrix_is_accurate(rho, N):
    """Float entries within 1e-12 of the largest exact entry at widths where
    an alternating binomial sum for mu cancels catastrophically."""
    exact = mu_matrix(rho, N).array.astype(float)
    got = mu_matrix(float(rho), N).array
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_mu_exact_after_float_at_equal_rho():
    """A float call must not leave powers or columns in a cache that an
    exact call at an equal-valued rho then reuses."""
    cases = [(n, k) for n in (-1, 0, 1, 10) for k in (-3, 0, 2, 9)]
    code = ("from fractions import Fraction; from steklov_zeta import mu; "
            f"print([repr(mu(n, k, Fraction(1, 2))) for n, k in {cases}])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
    got = []
    for n, k in cases:
        mu(n, k, 0.5)
        got.append(mu(n, k, Fraction(1, 2)))
    assert all(type(v) is Fraction for v in got)
    assert repr([repr(v) for v in got]) == fresh


def test_mu_matrix_layout():
    M = mu_matrix(Fraction(1, 2), 3)
    assert M.array.dtype == object and M.array.shape == (7, 7)
    assert M.at(0, 0) == mu(0, 0, Fraction(1, 2))
    for n, k in ((0, 0), (2, -1), (-3, 3)):
        assert M.array[n + 3, k + 3] is M.at(n, k)


def test_d_matrix_entries():
    D = d_matrix(6)
    assert D.shape == (13, 13) and D.dtype.kind == "i"
    assert D[3 + 6, 2 + 6] == 1
    assert D[3 + 6, 4 + 6] == -5
    assert D[0 + 6, 5 + 6] == 0
    assert D[0 + 6, 1 + 6] == -2 and D[0 + 6, -1 + 6] == -2


@pytest.mark.parametrize("make", [lambda: mu_matrix(Fraction(3, 10), 2).array,
                                  lambda: mu_matrix(0.3, 2).array,
                                  lambda: d_matrix(2)],
                         ids=["mu_matrix-exact", "mu_matrix-float", "d_matrix"])
def test_transport_arrays_are_read_only(make):
    """The cached matrix is shared by every caller: a write raises and
    leaves it as it was."""
    A = make()
    before = A.tolist()
    with pytest.raises(ValueError, match="read-only"):
        A[2, 2] = 7
    with pytest.raises(ValueError, match="read-only"):
        A[:, 0] *= 2
    assert make().tolist() == before


@pytest.mark.parametrize("rho", [Fraction(1, 10), Fraction(3, 10),
                                 Fraction(1, 2), Fraction(-2, 7),
                                 Fraction(0.3)], ids=str)
def test_column_norms_have_closed_forms(rho):
    """sum_n |mu_{nk}|^2 and sum_n n^2 |mu_{nk}|^2 (module docstring) against
    the exact rows n <= 400: each closed form exceeds its finite sum by
    less than 1e-200, and is never below it."""
    N = 400
    cols, q, d = _columns(rho, 5, N)
    s = rho * rho
    for k in (0, 1, 3, 5):
        for power, closed in ((0, (1 + 4 * s + s * s) / (1 - s) ** 2),
                              (2, k * k + 2 * s / (1 - s) ** 2)):
            total = sum(n ** power * u * u * q ** (2 * (N - n))
                        for n, u in enumerate(cols[k], -1))
            gap = closed - Fraction(total, d * d * q ** (2 * (N + k + 1)))
            assert 0 <= gap < 1e-200, (k, power)


# transport of series -------------------------------------------------------


def test_apply_moebius_constant_profile():
    # the constant weight maps to the k = 0 column: three nonzero entries
    r = Fraction(2, 5)
    b = apply_moebius(TrigSeries.exact({0: 1}), r, 8)
    d = 1 - r * r
    assert b.support == (-1, 0, 1)
    assert b.coeff(0) == (1 + r * r) / d
    assert b.coeff(1) == b.coeff(-1) == -r / d
    for n in range(-8, 9):
        assert b.coeff(n) == mu(n, 0, r)


def test_apply_moebius_identity_at_zero():
    a = TrigSeries.exact({2: (1, 1), -1: 3})
    assert apply_moebius(a, Fraction(0), 5) == a


def test_eigenfunction_exact():
    a = TrigSeries.exact({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)})
    for r in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
        lam = (1 - r) / (1 + r)
        b = apply_moebius(a, r, 6)
        for n in range(-6, 7):
            assert b.coeff(n) == lam * a.coeff(n)


def test_apply_moebius_backend_guard():
    with pytest.raises(BackendMismatch):
        apply_moebius(TrigSeries.exact({0: 1}), 0.5, 4)


def test_pullback_identity_at_zero():
    a = TrigSeries.from_complex({0: 1.0, 1: 0.25, -1: 0.25, 2: 0.1j, -2: -0.1j})
    b = pullback_direct(a, 0.0, 512, 4)
    for n in range(-4, 5):
        assert abs(b.coeff(n) - a.coeff(n)) <= 1e-12


def test_pullback_constant_matches_row_formula():
    b = pullback_direct(TrigSeries.from_complex({0: 1.0}), 0.5, 4096, 10)
    for n in range(-10, 11):
        assert abs(b.coeff(n) - float(mu(n, 0, Fraction(1, 2)))) <= 1e-10


def test_pullback_eigenfunction():
    a = TrigSeries.from_complex({-1: 0.5, 0: 1.0, 1: 0.5})
    b = pullback_direct(a, 0.3, 4096, 10)
    lam = 0.7 / 1.3
    for n in range(-10, 11):
        assert abs(b.coeff(n) - lam * a.coeff(n)) <= 1e-10


def test_exact_transport_with_large_numerators_and_denominators():
    rho = Fraction(1, 3)
    for a in large_rational_series():
        b = apply_moebius(a, rho, 12)
        for n in range(-12, 13):
            want = sum((mu(n, k, rho) * v for k, v in a.items()),
                       RC_ZERO)
            assert b.coeff(n) == want


def test_apply_moebius_agrees_with_pullback():
    rng = random.Random(23)
    for _ in range(3):
        a = random_exact_series(rng, 3).to_float()
        for rho in (0.2, 0.45):
            m = apply_moebius(a, rho, 15)
            p = pullback_direct(a, rho, 8192, 15)
            for n in range(-15, 16):
                assert abs(m.coeff(n) - p.coeff(n)) <= 1e-9


def test_rotate_and_conjugate():
    a = TrigSeries.from_complex({2: 1 + 1j, 0: 0.5})
    assert rotate(a, 0.0) == a
    assert conjugate(conjugate(a)) == a
    assert conjugate(TrigSeries.exact({2: (1, 1)})) == TrigSeries.exact({-2: (1, 1)})
    with pytest.raises(BackendMismatch):
        rotate(TrigSeries.exact({0: 1}), 0.1)


@pytest.mark.parametrize("alpha", ["x", None, math.inf, -math.inf, math.nan,
                                   1j, 10 ** 400],
                         ids=["str", "None", "inf", "-inf", "nan", "complex",
                              "huge-int"])
def test_rotate_rejects_a_bad_angle(alpha):
    a = TrigSeries.from_complex({2: 1 + 1j, -1: 0.5})
    with pytest.raises(ValueError) as info:
        rotate(a, alpha)
    assert str(info.value) == f"alpha must be a finite real, got {alpha!r}"


def test_rotate_takes_an_int_fraction_or_float_angle():
    a = TrigSeries.from_complex({2: 1 + 1j, -1: 0.5})
    assert rotate(a, 1) == rotate(a, 1.0)
    assert rotate(a, Fraction(1, 2)) == rotate(a, 0.5)
    assert rotate(a, 2 * math.pi).coeff(2) == pytest.approx(1 + 1j)


@pytest.mark.parametrize("alpha", [np.float32(0.5), np.float64(0.5)],
                         ids=["float32", "float64"])
def test_rotate_takes_a_numpy_real_angle(alpha):
    a = TrigSeries.from_complex({2: 1 + 1j, -1: 0.5})
    assert rotate(a, alpha) == rotate(a, 0.5)


def test_invariance_under_rotation_and_conjugation():
    rng = random.Random(31)
    a = random_exact_series(rng, 4)
    for k, z_of in ((1, z1_closed), (2, z2_closed)):
        base = complex(z_of(a))
        rot = complex(z_of(rotate(a.to_float(), 0.83)))
        assert rot == pytest.approx(base, rel=1e-10, abs=1e-10)
        assert z_of(conjugate(a)) == z_of(a)  # exact


# group law and exponential --------------------------------------------------


def test_group_law_trivial_cases():
    assert group_law_check(Fraction(1, 5), Fraction(0), 12) == 0.0
    # inverse pair: the product approaches the identity as truncation grows
    assert group_law_check(Fraction(1, 5), Fraction(-1, 5), 40) <= 1e-8


def test_group_law_exact_equals_float_path():
    ex = group_law_check(Fraction(1, 5), Fraction(1, 5), 10, exact=True)
    fl = group_law_check(Fraction(1, 5), Fraction(1, 5), 10)
    assert fl == pytest.approx(ex, rel=1e-9, abs=1e-13)


def test_group_law_deviation_shrinks_with_width():
    d24 = group_law_check(Fraction(1, 5), Fraction(1, 5), 24)
    d40 = group_law_check(Fraction(1, 5), Fraction(1, 5), 40)
    assert d40 < d24 / 10


def test_group_law_fixed_block_truncation_gap():
    # N = 40 cannot meet 1e-8 on block 20: the inner terms |p| > 40 carry
    # ~1.19e-3 at the block corner.  Both paths must see the same gap, so it
    # is a genuine truncation effect, not float rounding.
    r = Fraction(3, 10)
    fl = group_law_check(r, r, 40, block=20)
    ex = group_law_check(r, r, 40, exact=True, block=20)
    assert fl == pytest.approx(1.1908e-3, rel=1e-3)
    assert fl == pytest.approx(ex, rel=1e-9)


def test_group_law_block_default_and_bounds():
    r = Fraction(1, 5)
    assert group_law_check(r, r, 12, block=6) == group_law_check(r, r, 12)
    assert group_law_check(r, r, 12, block=12) >= group_law_check(r, r, 12)
    for bad in (-1, 13):
        with pytest.raises(ValueError):
            group_law_check(r, r, 12, block=bad)


def group_law_triple_loop(rho, rho2, N, block):
    """Reference: the Fraction triple loop of the exact group-law check."""
    A, B = mu_matrix(rho, N), mu_matrix(rho2, N)
    C = mu_matrix((rho + rho2) / (1 + rho * rho2), N)
    worst = Fraction(0)
    rng = range(-block, block + 1)
    for n in rng:
        for k in rng:
            s = sum(A.at(n, p) * B.at(p, k) for p in range(-N, N + 1))
            worst = max(worst, abs(s - C.at(n, k)))
    return float(worst)


@pytest.mark.parametrize("N", [10, 12])
def test_group_law_exact_equals_triple_loop(N):
    for rho, rho2 in ((Fraction(1, 5), Fraction(1, 5)),
                      (Fraction(3, 10), Fraction(-1, 7)),
                      (Fraction(1, 2), Fraction(1, 3))):
        for block in (0, 3, N // 2, N):
            assert group_law_check(rho, rho2, N, exact=True, block=block) \
                == group_law_triple_loop(rho, rho2, N, block)


def test_exp_relation_trivial_at_zero():
    assert exp_relation_check(Fraction(0), 8, 10) <= 1e-15


def test_exp_relation_converges():
    dev = exp_relation_check(Fraction(1, 5), 24, 400)
    assert dev <= 1e-8


@pytest.mark.parametrize("D, t, message", [
    (np.eye(3)[0], 0.1, r"square 2-D array, got shape \(3,\)"),
    (np.ones((2, 3)), 0.1, r"square 2-D array, got shape \(2, 3\)"),
    (np.float64(1.0), 0.1, r"square 2-D array, got shape \(\)"),
    (np.eye(3), "x", "t must be a finite real, got 'x'"),
    (np.eye(3), math.nan, "t must be a finite real, got nan"),
    (np.eye(3), -math.inf, "t must be a finite real, got -inf"),
    (np.eye(3), 10 ** 400, "t must be a finite real"),
    (np.eye(3), 0.1j, "t must be a finite real")],
    ids=["1-D", "2x3", "0-D", "t-str", "t-nan", "t-neg-inf", "t-huge-int",
         "t-complex"])
def test_rk4_rejects_a_bad_generator_or_time(D, t, message):
    with pytest.raises(ValueError, match=message):
        rk4_exponential(D, t, 4)


@pytest.mark.parametrize("D, dtype", [
    (np.array([["a", "b"], ["c", "d"]]), "<U1"),
    (np.array([[None, None], [None, None]]), "object")],
    ids=["str", "object-none"])
def test_rk4_rejects_a_generator_of_non_numbers(D, dtype):
    with pytest.raises(ValueError, match=f"must hold numbers, got dtype {dtype}"):
        rk4_exponential(D, 0.1, 4)


def test_rk4_takes_a_generator_of_fractions():
    D = np.array([[Fraction(0), Fraction(1, 2)],
                  [Fraction(-1, 3), Fraction(1, 4)]], dtype=object)
    M = rk4_exponential(D, 0.5, 8)
    assert np.array_equal(M.astype(float),
                          rk4_exponential(D.astype(float), 0.5, 8))


@pytest.mark.parametrize("entry, dtype", [(Fraction(2, 7), float),
                                          (0.25j, complex)],
                         ids=["fractions", "a-complex-entry"])
def test_rk4_runs_an_object_generator_in_floats(entry, dtype):
    """An object D of numbers is taken to float64 (complex128 when an entry
    is not real) before the steps: the result is that dtype and the same
    bits as for the converted D."""
    D = np.array([[Fraction(0), Fraction(1, 3), Fraction(-5, 9)],
                  [Fraction(-1, 3), entry, 2],
                  [Fraction(7, 11), Fraction(-2), Fraction(1, 6)]],
                 dtype=object)
    M = rk4_exponential(D, 0.7, 12)
    assert M.dtype == dtype
    assert M.tobytes() == rk4_exponential(
        np.array(D.tolist(), dtype=dtype), 0.7, 12).tobytes()

def test_rk4_takes_an_exact_time_as_a_float():
    """A Fraction t runs in floats, not as an object array."""
    D = d_matrix(3)
    M = rk4_exponential(D, Fraction(1, 4), 8)
    assert M.dtype == float
    assert np.array_equal(M, rk4_exponential(D, 0.25, 8))


def test_rk4_is_fourth_order():
    # Richardson: halving the step scales the error by ~16
    D = d_matrix(8)
    t = math.atanh(0.5)
    coarse = rk4_exponential(D, t, 8)
    mid = rk4_exponential(D, t, 16)
    fine = rk4_exponential(D, t, 32)
    e1 = np.max(np.abs(coarse - mid))
    e2 = np.max(np.abs(mid - fine))
    assert 8 < e1 / e2 < 32


def test_suggest_out_degree_controls_tail():
    rho = 0.5
    deg = suggest_out_degree(5, rho, 1e-9)
    tail = sum(abs(mu(n, kk, rho)) + abs(mu(-n, kk, rho))
               for kk in range(-5, 6)
               for n in range(deg + 1, deg + 80))
    assert tail < 1e-9
    assert suggest_out_degree(5, rho, 1e-6) <= deg


@pytest.mark.parametrize("rho, cut, heuristic_cut", [
    (Fraction(1, 10), 17, 35), (Fraction(3, 10), 31, 72),
    (Fraction(1, 2), 53, 132), (0.3, 31, 72)], ids=str)
def test_exact_cut_bounds_the_dropped_mass(rho, cut, heuristic_cut):
    """The cut of a degree-3 input at tol 1e-12 is pinned, at most the one
    of the former decay heuristic, and the exact l1 mass dropped from the
    columns |k| <= 3 (rows to cut + 400; column -k mirrors column k) is
    below tol."""
    tol = 1e-12
    assert suggest_out_degree(3, rho, tol) == cut <= heuristic_cut
    cols, q, d = _columns(Fraction(rho), 3, cut + 400)
    dropped = sum((1 if k == 0 else 2) * abs(Fraction(u, d * q ** (n + k + 1)))
                  for k in range(4)
                  for n, u in enumerate(cols[k][cut + 2:], cut + 1))
    assert 0 < dropped < tol


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0, -1,
                                 "1e-9"], ids=repr)
def test_bad_tol_is_rejected(tol):
    with pytest.raises(ValueError, match="tol must be a finite real > 0"):
        suggest_out_degree(3, 0.5, tol)


@pytest.mark.parametrize("tol", [10 ** 400, Fraction(1, 10 ** 400)],
                         ids=["past_float_max", "rounds_to_zero"])
def test_tol_outside_the_float_range_is_rejected(tol):
    """The cut runs on float(tol): a huge tol would overflow it and a tiny
    one round it to 0.0, where the walk never ends."""
    with pytest.raises(ValueError, match="tol must be a finite real > 0"):
        suggest_out_degree(3, 0.5, tol)


def test_cut_at_rho_zero_is_the_input_degree():
    assert [suggest_out_degree(K, 0, 1e-12) for K in (0, 1, 4)] == [0, 1, 4]


@pytest.mark.parametrize("limit", [0, 2, 30, 31, 52, 53, 200])
def test_limited_walk_returns_the_cut_or_one_past_the_limit(limit):
    """With a limit the walk stops there: the cut when it is at most limit
    (degree 3, rho 1/2, tol 1e-12: 53), limit + 1 otherwise."""
    assert suggest_out_degree(3, Fraction(1, 2), 1e-12, limit=limit) \
        == min(53, limit + 1)


def test_limited_walk_reads_rows_up_to_the_limit(monkeypatch):
    rows = []

    def counted(*args):
        for row in _rows(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(conformal, "_rows", counted)
    conformal._cut.cache_clear()
    # rho = 0.99's cut of a degree-3 input at tol 1e-9 is 2444
    assert suggest_out_degree(3, 0.99, 1e-9, limit=120) == 121
    assert len(rows) == 122          # row n = -1 and rows c = 0..120


def test_limit_below_the_input_degree_skips_the_walk(monkeypatch):
    """The cut is never below K, so for K > limit the answer is limit + 1
    without reading a row, even at a degree whose walk would never end in
    practice; the walk itself agrees."""
    assert conformal._cut.__wrapped__(121, Fraction(0.3), 1e-9, 120) == 121

    def no_walk(*args):
        raise AssertionError("walked the cut past the limit")

    monkeypatch.setattr(conformal, "_rows", no_walk)
    conformal._cut.cache_clear()
    for K in (121, 10 ** 6):
        assert suggest_out_degree(K, 0.3, 1e-9, limit=120) == 121
    with pytest.raises(ValueError, match="tol must be"):
        suggest_out_degree(10 ** 6, 0.3, math.nan, limit=120)


@pytest.mark.parametrize("limit, message", [
    (-1, "limit must be >= 0"), (2.5, "2.5 is not an integer"),
    ("3", "'3' is not an integer")], ids=repr)
def test_bad_limit_is_rejected(limit, message):
    with pytest.raises(ValueError, match=message):
        suggest_out_degree(3, 0.5, 1e-9, limit=limit)


_SERIES = TrigSeries.from_complex({1: 1.0, -1: 1.0})
RHO_CALLS = {
    "mu": lambda r: mu(3, 2, r),
    "mu_matrix": lambda r: mu_matrix(r, 3),
    "apply_moebius": lambda r: apply_moebius(_SERIES, r, 4),
    "pullback_direct": lambda r: pullback_direct(_SERIES, r, 64, 4),
    "group_law_check": lambda r: group_law_check(r, Fraction(1, 3), 4),
    "group_law_check_rho2": lambda r: group_law_check(Fraction(1, 3), r, 4),
    "exp_relation_check": lambda r: exp_relation_check(r, 4, 10),
    "suggest_out_degree": lambda r: suggest_out_degree(3, r, 1e-9),
}


@pytest.mark.parametrize("rho", [1, -1, Fraction(3, 2), 1.5, math.nan, "x"],
                         ids=repr)
@pytest.mark.parametrize("name", sorted(RHO_CALLS))
def test_bad_rho_is_rejected_everywhere(name, rho):
    with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\)"):
        RHO_CALLS[name](rho)


def test_rho_check_accepts_the_open_interval():
    assert mu(0, 0, 0) == 1 and isinstance(mu(0, 0, 0), Fraction)
    assert isinstance(mu(2, 2, Fraction(-99, 100)), Fraction)
    assert mu(2, 2, 0.99) == pytest.approx(float(mu(2, 2, Fraction(99, 100))))


@pytest.mark.parametrize("rho", [np.float32(0.5), np.int64(0), "0.5", None,
                                 0.5j], ids=repr)
@pytest.mark.parametrize("name", sorted(RHO_CALLS))
def test_rho_of_another_type_is_named(name, rho):
    """A rho of a type outside int, Fraction and float is named by its repr
    and type, never by a value that lies inside the interval."""
    with pytest.raises(ValueError) as info:
        RHO_CALLS[name](rho)
    assert str(info.value) == ("rho must lie in (-1, 1), got "
                               f"{rho!r} of type {type(rho).__name__}")


def test_moebius_param_validation():
    """The type of rho picks the backend, and exp_relation_check flows for
    the time t with tanh(t) = rho."""
    with pytest.raises(ValueError):
        mu_matrix(Fraction(3, 2), 2)
    assert mu_matrix(Fraction(3, 10), 2).array.dtype == object
    assert mu_matrix(0.3, 2).array.dtype == float
    assert mu_matrix(0, 2).array.dtype == object
    M = rk4_exponential(d_matrix(4), math.atanh(0.5), 10)
    ref = mu_matrix(Fraction(1, 2), 4).array.astype(float)
    assert exp_relation_check(Fraction(1, 2), 4, 10) \
        == float(np.max(np.abs(M[2:7, 2:7] - ref[2:7, 2:7])))


def test_moebius_param_parse(capsys):
    """The --rho grammar of the CLI: "p/q" and integers are exact,
    decimals float, and any other text is a usage error that names the
    accepted forms."""
    def mu_matrix_cli(text):
        code = main(["mu-matrix", f"--rho={text}", "--half-width", "1",
                     "--format", "json"])
        return (code, *capsys.readouterr())

    for text, rho, backend in ((" 3/10 ", "3/10", "exact"),
                               ("-1/2", "-1/2", "exact"),
                               ("0", "0", "exact"),
                               ("0.25", "0.25", "float"),
                               ("-2.5e-1", "-0.25", "float")):
        code, out, err = mu_matrix_cli(text)
        assert code == 0 and f" | backend={backend} | " in err
        assert json.loads(out)["rho"] == rho
    for text in ("abc", "", "1/x", "3/0", "0.3.1", "nan"):
        assert mu_matrix_cli(text) == (
            2, "", 'error: rho must be "p/q", an integer or a decimal, '
                   f"got {text!r}\n")
    assert mu_matrix_cli("3/2") \
        == (2, "", "error: rho must lie in (-1, 1), got 3/2\n")


def test_truncated_matrix_at_rejects_indices_past_the_half_width():
    """A negative index must not wrap around to the far end of a row, and
    a wrong index raises a ValueError, never IndexError or TypeError."""
    M = mu_matrix(Fraction(1, 2), 3)
    assert M.at(0, -3) == mu(0, -3, Fraction(1, 2))
    assert M.at(np.int64(3), 0) == mu(3, 0, Fraction(1, 2))
    for n, k in ((0, -4), (4, 0), (-4, 0), (0, 4)):
        with pytest.raises(ValueError, match="half-width 3"):
            M.at(n, k)
    with pytest.raises(ValueError, match="not an integer"):
        M.at(0.0, 0)


@pytest.mark.parametrize("order",
                         [(Fraction(1, 2), 0.5), (0.5, Fraction(1, 2))],
                         ids=["exact_first", "float_first"])
def test_mu_matrix_cache_keeps_exact_and_float_apart(order):
    """Fraction(1, 2) == 0.5 and both hash alike; the typed cache still
    gives each its own matrix, whichever comes first."""
    conformal._mu_matrix.cache_clear()
    for rho in order:
        M = mu_matrix(rho, 4)
        exact = isinstance(rho, Fraction)
        assert (M.array.dtype == object) is exact
        assert {type(v) for v in M.array.ravel().tolist()} \
            == {Fraction if exact else float}
    assert conformal._mu_matrix.cache_info().currsize == 2
    assert mu_matrix(Fraction(2, 4), 4) is mu_matrix(Fraction(1, 2), 4)
    assert conformal._mu_matrix.cache_info().currsize == 2


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)], ids=str)
def test_rho_caches_share_one_entry_for_a_signed_zero_rho(order):
    """_rho_value reads -0.0 as 0.0: in either order both zeros share one
    entry of each cache, equal (signed zeros included) to an uncached 0.0
    call."""
    for cache in (conformal._mu_matrix, conformal._columns):
        cache.cache_clear()
    fresh = conformal._mu_matrix.__wrapped__(0.0, 3)
    cols, q, d = conformal._columns.__wrapped__(0.0, 32, 32)
    ref = [repr(conformal._entry(u, n + k + 1, q, d))
           for k, col in enumerate(cols[:3]) for n, u in enumerate(col[:6], -1)]
    for rho in order:
        assert repr(mu_matrix(rho, 3).array.tolist()) \
            == repr(fresh.array.tolist())
        assert [repr(mu(n, k, rho)) for k in range(3)
                for n in range(-1, 5)] == ref
    assert mu_matrix(-0.0, 3) is mu_matrix(0.0, 3)
    assert conformal._mu_matrix.cache_info().currsize == 1
    # one column table for mu's block and one for _mu_matrix's (3, 3)
    assert conformal._columns.cache_info().currsize == 2


def test_float_subclass_rho_shares_the_plain_float_entry():
    """A numpy.float64 rho is read as the plain float: one cache entry,
    and plain floats out of mu, mu_matrix and apply_moebius."""
    for cache in (conformal._mu_matrix, conformal._columns):
        cache.cache_clear()
    r64 = np.float64(0.5)
    assert mu_matrix(r64, 2) is mu_matrix(0.5, 2)
    assert {type(v) for v in mu_matrix(r64, 2).array.ravel().tolist()} \
        == {float}
    assert type(mu(1, 1, r64)) is float and mu(1, 1, r64) == mu(1, 1, 0.5)
    assert apply_moebius(_SERIES, r64, 6) == apply_moebius(_SERIES, 0.5, 6)
    assert conformal._mu_matrix.cache_info().currsize == 1
    # (0.5, 2, 2) of mu_matrix, mu's (32, 32) block, (0.5, 1, 6) of
    # apply_moebius
    assert conformal._columns.cache_info().currsize == 3
    for key in ((0.5, 2, 2), (0.5, 32, 32), (0.5, 1, 6)):
        cols, q, d = conformal._columns(*key)
        assert type(q) is float and type(d) is float
        # the recurrence's zero rows are int 0; no numpy scalar anywhere
        assert {type(u) for col in cols for u in col} <= {float, int}


def test_exact_and_float_rho_keep_apart_in_the_column_cache():
    for cache in (conformal._mu_matrix, conformal._columns):
        cache.cache_clear()
    for rho in (Fraction(1, 2), 0.5):
        mu_matrix(rho, 3)
    assert conformal._mu_matrix.cache_info().currsize == 2
    assert conformal._columns.cache_info().currsize == 2
    exact, _, _ = conformal._columns(Fraction(1, 2), 3, 3)
    floats, _, _ = conformal._columns(0.5, 3, 3)
    assert {type(u) for col in exact for u in col} == {int}
    # column 0 of a float table ends in the int 0 of the recurrence's seed
    assert {type(u) for col in floats for u in col} == {float, int}


def test_repeated_apply_moebius_is_a_columns_cache_hit():
    a = TrigSeries.exact({n: Fraction(1, 1 + abs(n)) for n in range(-3, 4)})
    conformal._columns.cache_clear()
    first = apply_moebius(a, Fraction(3, 10), 12)
    info = conformal._columns.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert apply_moebius(a, Fraction(3, 10), 12) == first
    info = conformal._columns.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    cols, _, _ = conformal._columns(Fraction(3, 10), 3, 12)
    assert isinstance(cols, tuple) and isinstance(cols[0], tuple)


def test_repeated_calls_return_the_cached_values():
    for rho in (Fraction(3, 10), 0.3, -0.7):
        assert mu_matrix(rho, 6) is mu_matrix(rho, 6)
    for rho, K in ((Fraction(1, 10), 3), (0.3, 3), (Fraction(1, 2), 5)):
        got = suggest_out_degree(K, rho, 1e-12)
        assert suggest_out_degree(K, rho, 1e-12) == got \
            == conformal._cut.__wrapped__(K, Fraction(rho), 1e-12)
    assert suggest_out_degree(3, Fraction(1, 2), 1e-12) \
        == suggest_out_degree(3, 0.5, 1e-12)


def pullback_inline(a, rho, grid_size, out_degree):
    """pullback_direct's formula with the circle map computed in place."""
    z = grid_points(grid_size)
    den = 1.0 - rho * z
    w = (z - rho) / den
    dphi = (1.0 - rho * rho) / np.abs(den) ** 2
    samples = evaluate_at(a.to_float(), w / np.abs(w)) / dphi
    return from_samples(samples, out_degree)


def test_cached_circle_map_is_bit_identical_to_the_inline_formula():
    conformal._circle_map.cache_clear()
    a = random_positive_series(5, 0.6, np.random.default_rng(24), floor=0.5)
    for grid_size in (4096, 8192):
        for rho in (0.1, 0.3, 0.5, -0.7):
            ref = repr(pullback_inline(a, rho, grid_size, 60).items())
            for hits in (0, 1):
                assert repr(pullback_direct(a, rho, grid_size, 60).items()) \
                    == ref
                assert conformal._circle_map.cache_info().hits == hits
            conformal._circle_map.cache_clear()
    u, dphi = conformal._circle_map(0.3, 4096)
    for arr in (u, dphi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_too_small_grid_fails_before_any_sampling(monkeypatch):
    """GridTooSmall comes before the grid is sampled, and a failed call
    leaves no circle map in the cache."""
    def no_sampling(*args):
        raise AssertionError("sampled a grid too small for the degree")

    monkeypatch.setattr(conformal, "evaluate_at", no_sampling)
    before = conformal._circle_map.cache_info()
    with pytest.raises(GridTooSmall, match="grid size 64 < 2"):
        pullback_direct(_SERIES, 0.37, 64, 32)
    after = conformal._circle_map.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_rho_caches_are_bounded():
    for cache, bound in ((conformal._mu_matrix, conformal.MU_MATRIX_CACHE),
                         (conformal._cut, conformal.CUT_CACHE),
                         (conformal._circle_map, conformal.CIRCLE_MAP_CACHE),
                         (conformal._columns, 32),
                         (conformal._pow, 1024)):
        assert cache.cache_info().maxsize == bound < math.inf
