import copy
import json
import math
import pickle
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (BackendMismatch, GridTooSmall, NotPositive,
                          NotReal, RationalComplex, TrigSeries,
                          evaluate, evaluate_at, from_samples, fourier,
                          is_real, min_on_circle, normalization_integral,
                          random_real_series, sample_series, save_series,
                          series_from_json, series_to_json)
from steklov_zeta import cli
from steklov_zeta.conformal import (apply_moebius, d_matrix,
                                    exp_relation_check, group_law_check,
                                    mu_matrix, pullback_direct, rotate,
                                    rk4_exponential, suggest_out_degree)
from steklov_zeta.explorer import (CampaignConfig, a_kappa_form,
                                   random_positive_series, rationalize_series,
                                   sample_rng)
from steklov_zeta.fourier import grid_angles, grid_points
from steklov_zeta.scalars import _MAX_EXPONENT, to_fraction
from steklov_zeta.trace import KIND_DN, operator_matrix, trace_difference


def test_stored_zeros_are_dropped():
    a = TrigSeries.exact({0: 1, 3: 0, -2: Fraction(0)})
    assert a.support == (0,)
    assert a.degree == 0


@pytest.mark.parametrize("make, coeffs", [
    (TrigSeries.exact, {2.5: 1, -2: 1}),
    (TrigSeries.from_complex, {2.7: 1.0}),
    (TrigSeries.exact, {"1": 1}),
], ids=["exact-2.5", "float-2.7", "string"])
def test_frequency_must_be_an_integer(make, coeffs):
    bad = next(iter(coeffs))
    with pytest.raises(ValueError, match=f"index {bad!r} is not an integer"):
        make(coeffs)


def test_numpy_integer_frequencies_are_accepted():
    a = TrigSeries.exact({np.int64(3): 1, np.int32(-3): 2})
    assert a.items() == TrigSeries.exact({3: 1, -3: 2}).items()
    assert all(type(n) is int for n in a.support)
    assert TrigSeries.from_complex({np.int64(2): 1.0}).degree == 2


def test_degree_tracks_support():
    a = TrigSeries.exact({4: 1, -7: (0, 1)})
    assert a.degree == 7


def test_evaluate_constant():
    assert evaluate(TrigSeries.exact({0: 1}), 1.7) == pytest.approx(1.0)


def test_evaluate_cosine_at_zero():
    a = TrigSeries.exact({2: Fraction(1, 2), -2: Fraction(1, 2)})
    assert evaluate(a, 0.0) == pytest.approx(1.0)


def test_evaluate_minus_sine():
    # (i/2) e^{i t} - (i/2) e^{-i t} = -sin t
    a = TrigSeries.exact({1: (0, Fraction(1, 2)), -1: (0, Fraction(-1, 2))})
    assert evaluate(a, math.pi / 2) == pytest.approx(-1.0)
    assert evaluate(a, 0.7) == pytest.approx(-math.sin(0.7))


def test_evaluate_vectorized_matches_scalar():
    a = TrigSeries.from_complex({0: 1.5, 2: 0.25j, -1: 0.3})
    thetas = np.linspace(0, 2 * np.pi, 7)
    vals = evaluate(a, thetas)
    for th, v in zip(thetas, vals):
        assert evaluate(a, float(th)) == pytest.approx(v)



# the Horner point kernel against exact arithmetic ---------------------------

EPS = np.finfo(float).eps
# rational points of the unit circle, their conjugates and their negatives
CIRCLE_POINTS = [RationalComplex(Fraction(s * x, h), Fraction(s * t * y, h))
                 for x, y, h in ((3, 4, 5), (5, 12, 13), (8, 15, 17))
                 for t in (1, -1) for s in (1, -1)]


def exact_sum_at(a: TrigSeries, z: RationalComplex) -> RationalComplex:
    """sum_n a_n z^n in exact arithmetic; z^{-1} = conj(z) since |z| = 1."""
    total = RationalComplex(0, 0)
    for n, v in a.items():
        base = z if n >= 0 else z.conjugate()
        power = RationalComplex(1, 0)
        for _ in range(abs(n)):
            power = power * base
        total = total + v * power
    return total


def horner_bound(a: TrigSeries) -> float:
    """Derived error bound of evaluate_at at a rounded point of the circle.

    u = eps/2.  Each Horner step is one complex product (error <= sqrt(5) u)
    and one sum (<= u) of terms bounded by sum|a_n|, <= 3.3u sum|a_n|.
    There are at most deg + 1 steps on each side, one final sum, and the
    rounding of the coefficients, so 4 (deg + 1) eps sum|a_n| covers the
    arithmetic.  The rounded point is off by at most
    u |z| per component, which moves z^n by about |n| eps: eps sum|n a_n|.
    """
    s = sum(abs(complex(v)) for _, v in a.items())
    s1 = sum(abs(n) * abs(complex(v)) for n, v in a.items())
    return 4 * (a.degree + 1) * EPS * s + EPS * s1


def series_cases():
    rng = np.random.default_rng(20261018)
    dense = random_real_series(60, 0.6, rng)
    sparse = TrigSeries.from_complex({0: 0.75, 40: 0.3 - 0.2j,
                                      -40: 0.3 + 0.2j})
    return {"dense-60": dense, "sparse-0-40": sparse}


@pytest.mark.parametrize("case", ["dense-60", "sparse-0-40"])
def test_evaluate_at_within_its_bound_at_rational_points(case):
    a = rationalize_series(series_cases()[case])
    f = a.to_float()
    assert f == series_cases()[case]  # the same dyadic coefficients
    points = np.array([complex(z) for z in CIRCLE_POINTS])
    bound = horner_bound(a)
    for z, zf, value in zip(CIRCLE_POINTS, points, evaluate_at(f, points)):
        ref = exact_sum_at(a, z)
        scalar = evaluate_at(f, zf)
        assert type(scalar) is complex
        for got in (value, scalar):
            err = abs(complex(float(Fraction(got.real) - ref.re),
                              float(Fraction(got.imag) - ref.im)))
            assert err <= bound, (z, err, bound)


def exp_loop_evaluate(a: TrigSeries, theta: np.ndarray) -> np.ndarray:
    """The earlier kernel, one exponential per coefficient; the oracle."""
    out = np.zeros(theta.shape, dtype=complex)
    for n, v in a.items():
        out += complex(v) * np.exp(1j * n * theta)
    return out


@pytest.mark.parametrize("case", ["dense-60", "sparse-0-40"])
def test_evaluate_equals_exp_loop_on_the_grid(case):
    # both kernels see the same float angles.  evaluate_at is within
    # horner_bound of the exact sum at exp(i theta) (the rounded point is
    # within eps of the circle).  The loop rounds n * theta (<= pi eps |n|),
    # then the exponential, product and sums: <= 4 (deg + 1) eps sum|a_n|
    # + 4 eps sum|n a_n|.  Their difference is within the sum of the two.
    a = series_cases()[case]
    theta = grid_angles(8192)
    s = a.sum_abs()
    s1 = sum(abs(n) * abs(v) for n, v in a.items())
    bound = 8 * (a.degree + 1) * EPS * s + 5 * EPS * s1
    diff = np.max(np.abs(evaluate(a, theta) - exp_loop_evaluate(a, theta)))
    assert diff <= bound


def test_evaluate_at_degenerate_series():
    z = np.array([1.0, 1j, -1.0])
    assert np.array_equal(evaluate_at(TrigSeries.zero("float"), z),
                          np.zeros(3, dtype=complex))
    only_negative = TrigSeries.exact({-2: 1})  # no n >= 0 terms
    assert np.allclose(evaluate_at(only_negative, z), [1.0, -1.0, 1.0])
    assert evaluate_at(TrigSeries.exact({0: 3}), 1j) == 3


KERNEL_DEGREE = 64


def exact_powers(z: RationalComplex) -> list:
    """z^0, z^1, ..., z^KERNEL_DEGREE in exact arithmetic."""
    out = [RationalComplex(1, 0)]
    for _ in range(KERNEL_DEGREE):
        out.append(out[-1] * z)
    return out


CIRCLE_POWERS = [exact_powers(z) for z in CIRCLE_POINTS]

_DYADIC = st.builds(lambda m, e: m / 2.0 ** e,
                    st.integers(-2 ** 30, 2 ** 30), st.integers(0, 40))


@st.composite
def kernel_series(draw):
    """A float series with dyadic parts, degree <= 64, in one of five
    patterns: dense, sparse, negative frequencies only, no constant term,
    and real (a_0 real, a_-n = conj(a_n): evaluate_at's real rule)."""
    deg = draw(st.integers(0, KERNEL_DEGREE))
    pattern = draw(st.sampled_from(["dense", "sparse", "negative",
                                    "no-constant", "real"]))
    if pattern == "real":
        half = {n: complex(draw(_DYADIC), draw(_DYADIC) if n else 0.0)
                for n in range(deg + 1)}
        return TrigSeries.from_complex(
            {**half, **{-n: v.conjugate() for n, v in half.items()}})
    if pattern == "sparse":
        freqs = {draw(st.sampled_from([deg, -deg]))}
        freqs |= draw(st.sets(st.integers(-deg, deg), max_size=3))
    else:
        low, high = -deg, -1 if pattern == "negative" else deg
        freqs = {n for n in range(low, high + 1)
                 if n or pattern == "dense"}
    return TrigSeries.from_complex({n: complex(draw(_DYADIC), draw(_DYADIC))
                                    for n in sorted(freqs)})


@settings(max_examples=60, deadline=None)
@given(kernel_series())
def test_evaluate_at_property_within_its_bound(f):
    a = TrigSeries.exact({n: RationalComplex(Fraction(v.real),
                                             Fraction(v.imag))
                          for n, v in f.items()})
    assert a.to_float() == f  # dyadic parts: the oracle sees the same series
    points = np.array([complex(z) for z in CIRCLE_POINTS])
    bound = horner_bound(a)
    values = evaluate_at(f, points)
    for powers, zf, value in zip(CIRCLE_POWERS, points, values):
        ref = RationalComplex(0, 0)
        for n, v in a.items():
            ref = ref + v * (powers[n] if n >= 0 else powers[-n].conjugate())
        # numpy's vector loops may fuse the multiply-adds of a complex
        # product (AVX-512 ones do), and a 0-d or 1-element product may not,
        # so an array element and the scalar call can differ in the last
        # bits: each is held to the bound, so they agree within twice it
        scalar = evaluate_at(f, zf)
        assert type(scalar) is complex
        for got in (value, scalar):
            err = abs(complex(float(Fraction(got.real) - ref.re),
                              float(Fraction(got.imag) - ref.im)))
            assert err <= bound, (zf, err, bound)


def two_sided(a: TrigSeries, z: np.ndarray) -> np.ndarray:
    """Horner's rule in z and in conj(z) over the dense vector: evaluate_at
    on a series that is not exactly real, kept as the oracle of that path."""
    deg = a.degree
    c = [0j] * (2 * deg + 1)
    for n, v in a.items():
        c[n + deg] = complex(v)
    out = fourier._horner(c[deg:][::-1], z)
    out += fourier._horner(c[:deg] + [0j], np.conj(z))
    return out


def test_only_an_exactly_real_series_takes_the_real_rule():
    z = grid_points(64)
    real = {0: 1.0, 2: 0.5 + 0.25j, -2: 0.5 - 0.25j}
    r = TrigSeries.from_complex(real)
    values = evaluate_at(r, z)
    assert values.dtype == np.float64
    assert type(evaluate_at(r, z[3])) is complex
    off = np.nextafter(0.25, 1.0)
    for near in ({**real, 0: 1 + 1e-300j}, {**real, -2: 0.5 - off * 1j}):
        a = TrigSeries.from_complex(near)
        got = evaluate_at(a, z)
        assert got.dtype == np.complex128
        assert got.tobytes() == two_sided(a, z).tobytes()
        assert np.max(np.abs(got.real - values)) <= 1e-15
    # each rule is within horner_bound of the exact value
    assert np.max(np.abs(values - two_sided(r, z))) <= 2 * horner_bound(r)


def test_pullback_of_a_real_weight_is_exactly_real():
    a = random_positive_series(5, 0.6, np.random.default_rng(36), floor=0.5)
    for rho in (0.1, 0.5, -0.7):
        b = pullback_direct(a, rho, 2048, 60)
        pos = np.array([b.coeff(n) for n in range(1, 61)])
        assert b.support == tuple(range(-60, 61))
        assert np.array([b.coeff(-n) for n in range(1, 61)]).tobytes() \
            == pos.conj().tobytes()
        assert b.coeff(0).imag == 0.0
        assert sample_series(b, 256).dtype == np.float64


def test_from_samples_round_trip_single_mode():
    a = TrigSeries.exact({3: 1})
    b = from_samples(sample_series(a, 16), 3)
    assert b.coeff(3) == pytest.approx(1.0, abs=1e-14)
    for n in (-3, -2, -1, 0, 1, 2):
        assert abs(b.coeff(n)) < 1e-14


def test_from_samples_zero():
    assert not from_samples(np.zeros(8, dtype=complex), 2)


def test_from_samples_cosine():
    a = TrigSeries.from_complex({1: 0.5, -1: 0.5})
    b = from_samples(sample_series(a, 32), 1)
    assert b.coeff(1) == pytest.approx(0.5)
    assert b.coeff(-1) == pytest.approx(0.5)


def test_from_samples_grid_too_small():
    with pytest.raises(GridTooSmall):
        from_samples(np.zeros(6, dtype=complex), 3)


def test_from_samples_takes_the_grid_size_from_a_1d_input():
    samples = sample_series(TrigSeries.from_complex({1: 0.5, -1: 0.5}), 16)
    assert from_samples(samples.tolist(), 1) == from_samples(samples, 1)
    with pytest.raises(GridTooSmall, match="grid size 0 < 2\\*0\\+1"):
        from_samples(np.array([], dtype=complex), 0)
    for bad in (samples.reshape(4, 4), np.zeros((1, 16)), samples[0]):
        with pytest.raises(ValueError, match=f"must be 1-D, got {bad.ndim}-D"):
            from_samples(bad, 1)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(-5, 5),
                       st.complex_numbers(max_magnitude=10, allow_nan=False,
                                          allow_infinity=False),
                       max_size=8))
def test_round_trip_property(coeffs):
    a = TrigSeries.from_complex(coeffs)
    d = a.degree
    b = from_samples(sample_series(a, 2 * d + 1 + 5), d)
    for n in range(-d, d + 1):
        target = a.coeff(n)
        if abs(target) >= 1e-6:
            assert abs(b.coeff(n) - target) <= 1e-12 * max(1.0, abs(target))


def test_is_real_examples():
    assert is_real(TrigSeries.exact({0: 1, 1: Fraction(1, 2), -1: Fraction(1, 2)}))
    assert not is_real(TrigSeries.exact({1: (0, 1)}))
    assert is_real(TrigSeries.exact({2: (1, 1), -2: (1, -1)}))


def test_real_series_evaluates_real():
    a = TrigSeries.from_complex({0: 1.0, 2: 0.5 + 0.25j, -2: 0.5 - 0.25j})
    vals = evaluate(a, np.linspace(0, 6.28, 100))
    assert np.max(np.abs(vals.imag)) <= 1e-12 * a.sum_abs()


def test_min_on_circle():
    assert min_on_circle(TrigSeries.exact({0: 2})) == pytest.approx(2.0)
    cos = TrigSeries.exact({1: Fraction(1, 2), -1: Fraction(1, 2)})
    assert min_on_circle(cos, 4096) == pytest.approx(-1.0, abs=1e-5)
    a = TrigSeries.exact({0: 3, 2: 1, -2: 1})
    assert min_on_circle(a, 4096) == pytest.approx(1.0, abs=1e-5)


def test_min_on_circle_requires_real():
    with pytest.raises(NotReal):
        min_on_circle(TrigSeries.exact({1: 1}))


def test_normalization_constant():
    assert normalization_integral(TrigSeries.exact({0: 1})) == pytest.approx(1.0)
    assert normalization_integral(TrigSeries.exact({0: 2})) == pytest.approx(0.5)


def test_normalization_classical_value():
    # (1/2pi) int dtheta / (2 + cos theta) = 1/sqrt(3)
    a = TrigSeries.exact({0: 2, 1: Fraction(1, 2), -1: Fraction(1, 2)})
    assert normalization_integral(a) == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_normalization_scaling():
    a = TrigSeries.exact({0: 2, 1: Fraction(1, 2), -1: Fraction(1, 2)})
    base = normalization_integral(a)
    assert normalization_integral(Fraction(3) * a) == pytest.approx(base / 3,
                                                                    rel=1e-12)


def test_normalization_samples_the_grid_once(monkeypatch):
    calls = []
    real_sample = fourier.sample_series
    monkeypatch.setattr(fourier, "sample_series",
                        lambda *args: calls.append(1) or real_sample(*args))
    a = TrigSeries.exact({0: 2, 1: Fraction(1, 2), -1: Fraction(1, 2)})
    assert normalization_integral(a, 64) == pytest.approx(1 / math.sqrt(3),
                                                          rel=1e-12)
    assert len(calls) == 1
    with pytest.raises(NotReal):
        normalization_integral(TrigSeries.exact({1: 1}))


def test_normalization_requires_positive():
    with pytest.raises(NotPositive):
        normalization_integral(TrigSeries.exact({1: Fraction(1, 2),
                                                 -1: Fraction(1, 2)}))


def test_backend_mixing_rejected():
    with pytest.raises(BackendMismatch):
        TrigSeries.exact({0: 1}) + TrigSeries.from_complex({0: 1.0})


_EXACT_ONE = TrigSeries.exact({1: (1, 2), -2: 3})
_FLOAT_ONE = _EXACT_ONE.to_float()


@pytest.mark.parametrize("scalar, a", [
    (0.5, _EXACT_ONE), (1j, _EXACT_ONE), (np.float64(0.5), _EXACT_ONE),
    (RationalComplex(1, 1), _FLOAT_ONE)], ids=repr)
def test_scaling_by_a_scalar_of_the_other_backend_is_a_mismatch(scalar, a):
    with pytest.raises(BackendMismatch, match=f"cannot scale {a.backend} "):
        scalar * a


def test_scaling_keeps_rational_scalars_on_either_backend():
    for scalar in (2, Fraction(-1, 3), np.int64(3), True):
        for a in (_EXACT_ONE, _FLOAT_ONE):
            b = scalar * a
            assert b.backend == a.backend
            assert b.items() == [(n, scalar * v) for n, v in a.items()]
    assert (RationalComplex(0, 1) * _EXACT_ONE).coeff(-2) \
        == RationalComplex(0, 3)
    assert (0.5j * _FLOAT_ONE).coeff(-2) == 1.5j
    with pytest.raises(TypeError):
        None * _FLOAT_ONE


def test_json_round_trip_exact():
    a = TrigSeries.exact({2: (Fraction(1, 3), Fraction(-2, 7)), 0: 5})
    b = series_from_json(series_to_json(a), "exact")
    assert a == b
    assert json.dumps(series_to_json(a))  # serializable


def test_json_round_trip_float():
    a = TrigSeries.from_complex({1: 0.25 - 0.125j, -4: 3.0})
    b = series_from_json(series_to_json(a), "float")
    assert a == b


@pytest.mark.parametrize("value", [10 ** 5000, (0, Fraction(1, 10 ** 5000))],
                         ids=["re", "im"])
def test_json_names_the_digits_of_an_exact_value_past_the_limit(value,
                                                                tmp_path):
    """Past Python's int-to-text limit a coefficient is named by its digit
    count, as the CLI names it (scalars._fmt_exact)."""
    a = TrigSeries.exact({0: value})
    with pytest.raises(ValueError, match="an exact value of 5001 digits"):
        series_to_json(a)
    with pytest.raises(ValueError, match="an exact value of 5001 digits"):
        save_series(a, tmp_path / "a.json")


def test_json_reads_rational_strings_into_floats():
    obj = {"coeffs": [{"n": 0, "re": "1/4", "im": "0"}]}
    a = series_from_json(obj, "float")
    assert a.coeff(0) == 0.25


@pytest.mark.parametrize("obj, key", [({"terms": []}, "'coeffs'"),
                                      ({"coeffs": [{"re": "1"}]}, "'n'")])
def test_json_missing_key_is_a_value_error(obj, key):
    with pytest.raises(ValueError, match=f"lacks the key {key}"):
        series_from_json(obj)


def test_json_repeated_frequency_is_a_value_error():
    # "2" and 2 are the same frequency; the error names both rows
    obj = {"coeffs": [{"n": 2, "re": "1"}, {"n": -2, "re": "1"},
                      {"n": "2", "re": "5"}]}
    for backend in ("exact", "float"):
        with pytest.raises(ValueError, match="rows 0 and 2 .* n = 2$"):
            series_from_json(obj, backend)


@pytest.mark.parametrize("rows", [[], [{"n": 1, "re": "1"}]],
                         ids=["no-rows", "one-row"])
def test_json_unknown_backend_is_named_before_the_rows(rows):
    with pytest.raises(ValueError, match="^unknown backend 'bogus'$"):
        series_from_json({"coeffs": rows}, "bogus")


@pytest.mark.parametrize("exponent", ["4300", "-4300", "+4_300", "0"])
def test_to_fraction_reads_an_exponent_up_to_the_int_digit_limit(exponent):
    assert _MAX_EXPONENT == sys.int_info.default_max_str_digits
    assert to_fraction(f"3e{exponent}") == 3 * Fraction(10) ** int(exponent)
    assert to_fraction(f"-0.5E{exponent}") == (
        Fraction(-1, 2) * Fraction(10) ** int(exponent))


@pytest.mark.parametrize("text", ["1e4301", "1E-4301", "2.5e+4_301",
                                  "1e10000000", "-1e-10000000"])
def test_to_fraction_refuses_a_larger_exponent_at_once(text):
    # Fraction would expand it in full: "1e10000000" once took 11 s
    start = time.perf_counter()
    with pytest.raises(ValueError,
                       match=re.escape(f"'{text}' is not an exact rational")):
        to_fraction(text)
    assert time.perf_counter() - start < 1


def test_series_is_immutable():
    a = TrigSeries.exact({0: 1})
    with pytest.raises(AttributeError):
        a.backend = "float"


def test_rational_complex_basics():
    z = RationalComplex(Fraction(1, 2), 1)
    assert z * z.conjugate() == RationalComplex(Fraction(5, 4), 0)
    assert complex(z) == 0.5 + 1j
    assert (z - z) == 0
    with pytest.raises(TypeError):
        z * 0.5  # no silent float promotion


# RationalComplex against a pair of Fractions --------------------------------

_BIG = 10 ** 40
_PARTS = st.one_of(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
                   st.builds(Fraction, st.integers(-_BIG, _BIG),
                             st.integers(1, _BIG)))
_PAIRS = st.tuples(_PARTS, _PARTS)
_RATIONALS = st.one_of(st.integers(-_BIG, _BIG), _PARTS)


def assert_rational_complex(z, re, im):
    """z is the value re + i im, stored as its canonical triple."""
    assert isinstance(z, RationalComplex)
    assert (z.re, z.im) == (re, im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z._d > 0 and math.gcd(z._x, z._y, z._d) == 1
    assert z == RationalComplex(re, im)
    assert hash(z) == hash(RationalComplex(re, im))


@settings(max_examples=200, deadline=None)
@given(_PAIRS, _PAIRS)
def test_rational_complex_ring_matches_a_pair_of_fractions(p, q):
    (a, b), (c, d) = p, q
    z, w = RationalComplex(a, b), RationalComplex(c, d)
    assert_rational_complex(z, a, b)
    assert_rational_complex(z + w, a + c, b + d)
    assert_rational_complex(z - w, a - c, b - d)
    assert_rational_complex(z * w, a * c - b * d, a * d + b * c)
    assert_rational_complex(-z, -a, -b)
    assert_rational_complex(+z, a, b)
    assert_rational_complex(z.conjugate(), a, -b)
    assert_rational_complex(z - z, 0, 0)
    assert (z == w) == ((a, b) == (c, d))


@settings(max_examples=200, deadline=None)
@given(_PAIRS, _RATIONALS)
def test_rational_complex_takes_int_and_fraction_operands(p, r):
    a, b = p
    z = RationalComplex(a, b)
    assert_rational_complex(z + r, a + r, b)
    assert_rational_complex(r + z, a + r, b)
    assert_rational_complex(z - r, a - r, b)
    assert_rational_complex(r - z, r - a, -b)
    assert_rational_complex(z * r, a * r, b * r)
    assert_rational_complex(r * z, a * r, b * r)
    if r:
        assert_rational_complex(z / r, a / Fraction(r), b / Fraction(r))
    assert (z == r) == (r == z) == (b == 0 and a == r)


@settings(max_examples=200, deadline=None)
@given(_PAIRS)
def test_rational_complex_predicates_and_conversions(p):
    a, b = p
    z = RationalComplex(a, b)
    assert z.sup_abs() == max(abs(a), abs(b)) and type(z.sup_abs()) is Fraction
    assert bool(z) == (a != 0 or b != 0)
    # bit-identical to rounding each Fraction part
    assert repr(complex(z)) == repr(complex(float(a), float(b)))
    assert abs(z) == abs(complex(float(a), float(b)))
    assert repr(z) == f"RationalComplex({a}, {b})"
    # equal values built different ways hash alike, also beside a Fraction
    built = (z + RationalComplex(1, 1)) - RationalComplex(1, 1)
    assert built == z and hash(built) == hash(z)
    if b == 0:
        assert z == a and hash(z) == hash(a) and len({z, a}) == 1


def test_equal_values_collapse_in_a_set_with_ints_and_fractions():
    values = {RationalComplex(Fraction(1, 2), 0), Fraction(1, 2),
              RationalComplex(3), 3, Fraction(6, 2), True, RationalComplex(1),
              RationalComplex(0, 0), 0, RationalComplex(1, 1),
              RationalComplex(Fraction(2, 2), Fraction(3, 3))}
    assert len(values) == 5  # 1/2, 3, 1, 0 and 1 + i


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda z: pickle.loads(pickle.dumps(z))],
                         ids=["copy", "deepcopy", "pickle"])
def test_rational_complex_copies_and_pickles(copy_of):
    for z in (RationalComplex(1, 2), RationalComplex(Fraction(-1, 6), "3/4"),
              RationalComplex()):
        c = copy_of(z)
        assert type(c) is RationalComplex
        assert c == z and hash(c) == hash(z) and repr(c) == repr(z)
        assert (c._x, c._y, c._d) == (z._x, z._y, z._d)


def test_rational_complex_is_immutable():
    z = RationalComplex(1, 2)
    for name in ("re", "im", "_x", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 0)
    assert z == RationalComplex(1, 2)


# one check of every exact value ---------------------------------------------

EXACT_SPELLINGS = [(1, 1), (True, 1), (np.int64(-2), -2), (np.uint8(3), 3),
                   (Fraction(1, 2), Fraction(1, 2)), ("1/2", Fraction(1, 2)),
                   ("-3", -3), ("0.25", Fraction(1, 4))]
NOT_EXACT = [0.5, np.float64(1.0), 1j, None, "abc", "1/0", [1]]


@pytest.mark.parametrize("value, want", EXACT_SPELLINGS, ids=repr)
def test_exact_values_accept_one_set_of_spellings(value, want):
    # a bare value and either part of an (re, im) pair take the same values
    assert TrigSeries.exact({0: value}).coeff(0) == RationalComplex(want, 0)
    assert TrigSeries.exact({0: (value, 0)}).coeff(0) == want
    assert TrigSeries.exact({0: (0, value)}).coeff(0) == RationalComplex(0, want)
    assert RationalComplex(value, value) == RationalComplex(want, want)


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
def test_other_exact_values_raise_value_error_naming_them(value):
    for make in (lambda: TrigSeries.exact({0: value}),
                 lambda: TrigSeries.exact({0: (1, value)}),
                 lambda: RationalComplex(value),
                 lambda: RationalComplex(1, value)):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} "):
            make()


@pytest.mark.parametrize("value", [None, [1], object(), "abc"],
                         ids=["none", "list", "object", "str"])
def test_float_values_raise_value_error_naming_them(value):
    with pytest.raises(ValueError,
                       match=f"^{re.escape(repr(value))} is not a complex"):
        TrigSeries.from_complex({1: value})

# one check of every size argument ------------------------------------------

_WEIGHT = TrigSeries.from_complex({0: 2.0, 1: 1.0, -1: 1.0})  # 2 + 2 cos
SIZE_CALLS = {  # name: (call of the size, least admissible size)
    "grid_angles": (grid_angles, 1),
    "grid_points": (grid_points, 1),
    "min_on_circle": (lambda n: min_on_circle(_WEIGHT, n), 1),
    "normalization_integral":
        (lambda n: normalization_integral(_WEIGHT, n), 1),
    "sample_series": (lambda n: sample_series(_WEIGHT, n), 1),
    "pullback_direct-grid": (lambda n: pullback_direct(_WEIGHT, 0.5, n, 0), 1),
    "from_samples": (lambda n: from_samples(sample_series(_WEIGHT, 64), n), 0),
    "apply_moebius": (lambda n: apply_moebius(_WEIGHT, 0.5, n), 0),
    "pullback_direct-degree":
        (lambda n: pullback_direct(_WEIGHT, 0.5, 64, n), 0),
    "d_matrix": (d_matrix, 1),
    "mu_matrix": (lambda n: mu_matrix(0.5, n), 1),
    "operator_matrix": (lambda n: operator_matrix(_WEIGHT, KIND_DN, n), 0),
    "trace_difference": (lambda n: trace_difference(_WEIGHT, 2, n), 0),
    "suggest_out_degree": (lambda n: suggest_out_degree(n, 0.5, 1e-9), 0),
    "group_law_check-N": (lambda n: group_law_check(0.5, 0.5, n), 1),
    "group_law_check-block":
        (lambda n: group_law_check(0.5, 0.5, 4, block=n), 0),
    "rk4_exponential": (lambda n: rk4_exponential(np.eye(3), 0.1, n), 1),
    "exp_relation_check": (lambda n: exp_relation_check(0.5, 4, n), 1),
    "random_real_series": (lambda n: random_real_series(
        n, 1.0, np.random.default_rng(0)), 1),
    "a_kappa_form": (lambda n: a_kappa_form(0.5, n), 2),
    "CampaignConfig.count":
        (lambda n: CampaignConfig(seed=1, count=n, max_degree=5), 1),
    "CampaignConfig.max_degree":
        (lambda n: CampaignConfig(seed=1, count=1, max_degree=n), 2),
}


@pytest.mark.parametrize("bad", ["float", "string", "below"])
@pytest.mark.parametrize("name", sorted(SIZE_CALLS))
def test_bad_size_is_rejected_everywhere(name, bad):
    call, least = SIZE_CALLS[name]
    value, message = {
        "float": (2.5, "index 2.5 is not an integer"),
        "string": ("4", "index '4' is not an integer"),
        "below": (least - 1, f"must be >= {least}, got {least - 1}"),
    }[bad]
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("name", sorted(SIZE_CALLS))
def test_integer_like_sizes_are_accepted(name):
    call, least = SIZE_CALLS[name]
    call(np.int64(least + 2))


def _check_invariance(tol, tmp_path):
    path = tmp_path / "a.json"
    save_series(_WEIGHT, path)
    args = cli.build_parser().parse_args([
        "check-invariance", "--series", str(path), "--rho", "0.3", "--k", "1",
        "--grid", "64", "--out-degree", "8"])
    args.tol = tol
    return cli.cmd_check_invariance(args)


REAL_CALLS = {  # name: (call of the value and a scratch directory,
    #                    the argument's name, its bound)
    "rotate": (lambda x, _: rotate(_WEIGHT, x), "alpha", ""),
    "rk4_exponential": (lambda x, _: rk4_exponential(np.eye(2), x, 2), "t", ""),
    "suggest_out_degree":
        (lambda x, _: suggest_out_degree(2, 0.5, x), "tol", " > 0"),
    "random_positive_series": (lambda x, _: random_positive_series(
        2, 1.0, sample_rng(1, 0), floor=x), "floor", " > 0"),
    "random_real_series": (lambda x, _: random_real_series(
        2, x, sample_rng(1, 0)), "scale", " >= 0"),
    "CampaignConfig": (lambda x, _: CampaignConfig(
        seed=1, count=1, max_degree=2, coeff_scale=x), "coeff_scale", " >= 0"),
    "a_kappa_form": (lambda x, _: a_kappa_form(x, 4), "kappa", ""),
    "check-invariance": (_check_invariance, "--tol", " >= 0"),
}
_TINY = Fraction(1, 10 ** 400)  # finite, but its float is 0.0
BAD_REALS = {"str": "0.5", "complex": 1j, "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf, "huge-int": 10 ** 400}


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5),
                                   Fraction(1, 2), 1],
                         ids=["float32", "float64", "Fraction", "int"])
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_real_arguments_pass_without_a_warning(name, value, tmp_path):
    """Every caller of fourier._real takes any finite real, and a numpy
    scalar raises no numpy warning on the way."""
    call, _, _ = REAL_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(value, tmp_path)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{kind}")
    for name, (_, _, bound) in sorted(REAL_CALLS.items())
    for kind, value in [*BAD_REALS.items(),
                        *[("tiny-Fraction", _TINY)] * (bound == " > 0")]])
def test_bad_real_is_rejected_everywhere(name, value, tmp_path):
    """The one message of fourier._real: a string, a complex, a value that
    is not finite or past the double range, and below a strict bound of 0
    a value whose float is 0.0."""
    call, arg, bound = REAL_CALLS[name]
    message = f"{arg} must be a finite real{bound}, got {value!r}"
    with pytest.raises(ValueError) as info:
        call(value, tmp_path)
    assert str(info.value) == message


# the shared grid ---------------------------------------------------------------


def uncached_points(size: int) -> np.ndarray:
    """The grid points formed afresh on every call, as before the grid was
    shared: the oracle of grid_points."""
    return np.exp(1j * grid_angles(size))


def per_n_from_samples(samples: np.ndarray, degree: int) -> TrigSeries:
    """from_samples as a loop over n: the oracle of its one-slice read.
    Real samples take the real FFT for n >= 0 and exact conjugates for
    n < 0; complex ones the full FFT."""
    size = len(samples)
    if np.isrealobj(samples):
        spec = np.fft.rfft(samples) / size
        return TrigSeries.from_complex(
            {n: spec[n] if n >= 0 else spec[-n].conjugate()
             for n in range(-degree, degree + 1)})
    spec = np.fft.fft(np.asarray(samples, dtype=complex)) / size
    return TrigSeries.from_complex({n: spec[n % size]
                                    for n in range(-degree, degree + 1)})


def uncached_pullback(a: TrigSeries, rho: float, grid_size: int,
                      out_degree: int) -> TrigSeries:
    """pullback_direct on uncached points and per_n_from_samples."""
    z = uncached_points(grid_size)
    den = 1.0 - rho * z
    w = (z - rho) / den
    dphi = (1.0 - rho * rho) / np.abs(den) ** 2
    samples = evaluate_at(a.to_float(), w / np.abs(w)) / dphi
    return per_n_from_samples(samples, out_degree)


def series_bits(a: TrigSeries) -> tuple:
    """The support and the bytes of the coefficients: equal only for the
    same bits (== would equate 0.0 and -0.0)."""
    return a.support, np.array([v for _, v in a.items()]).tobytes()


def test_grid_points_are_one_read_only_array_per_size():
    assert 0 < fourier._grid_points.cache_info().maxsize < 100
    z = grid_points(64)
    assert grid_points(np.int64(64)) is z
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0
    assert z.tobytes() == uncached_points(64).tobytes()


def test_float_grid_size_misses_the_cache():
    # the lru key (8192.0,) equals (np.int64(8192),), so the check has to
    # come before the lookup
    grid_points(8192)
    grid_points(np.int64(8192))
    for bad in (8192.0, "8192"):
        with pytest.raises(ValueError, match="is not an integer"):
            grid_points(bad)
        with pytest.raises(ValueError, match="is not an integer"):
            sample_series(_WEIGHT, bad)


@pytest.mark.parametrize("size", [64, 2048, 8192])
def test_grid_samplers_equal_the_uncached_formula(size):
    a = random_positive_series(5, 0.6, np.random.default_rng(size), floor=0.5)
    samples = evaluate(a, grid_angles(size))
    assert sample_series(a, size).tobytes() == samples.tobytes()
    assert min_on_circle(a, size) == float(np.min(samples.real))
    assert normalization_integral(a, size) \
        == float(np.mean(1.0 / samples.real))
    degree = min(60, (size - 1) // 2)
    for rho in (0.1, 0.5, -0.3):
        assert series_bits(pullback_direct(a, rho, size, degree)) \
            == series_bits(uncached_pullback(a, rho, size, degree))


@pytest.mark.parametrize("size, degree", [(1, 0), (7, 3), (64, 31),
                                          (8192, 60)])
def test_from_samples_equals_the_per_n_loop(size, degree):
    rng = np.random.default_rng(size)
    samples = rng.normal(size=size) + 1j * rng.normal(size=size)
    assert series_bits(from_samples(samples, degree)) \
        == series_bits(per_n_from_samples(samples, degree))
    real = samples.real.copy()
    assert series_bits(from_samples(real, degree)) \
        == series_bits(per_n_from_samples(real, degree))
