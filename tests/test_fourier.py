import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (BackendMismatch, CircleGrid, GridTooSmall,
                          NotPositive, NotReal, RationalComplex, TrigSeries,
                          evaluate, from_samples, is_real, min_on_circle,
                          normalization_integral, sample_series,
                          series_from_json, series_to_json)


def test_stored_zeros_are_dropped():
    a = TrigSeries.exact({0: 1, 3: 0, -2: Fraction(0)})
    assert a.support == (0,)
    assert a.degree == 0


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


def test_from_samples_round_trip_single_mode():
    a = TrigSeries.exact({3: 1})
    b = from_samples(sample_series(a, 16), 3)
    assert b.coeff(3) == pytest.approx(1.0, abs=1e-14)
    for n in (-3, -2, -1, 0, 1, 2):
        assert abs(b.coeff(n)) < 1e-14


def test_from_samples_zero():
    g = CircleGrid(8, np.zeros(8, dtype=complex))
    assert not from_samples(g, 2)


def test_from_samples_cosine():
    a = TrigSeries.from_complex({1: 0.5, -1: 0.5})
    b = from_samples(sample_series(a, 32), 1)
    assert b.coeff(1) == pytest.approx(0.5)
    assert b.coeff(-1) == pytest.approx(0.5)


def test_from_samples_grid_too_small():
    with pytest.raises(GridTooSmall):
        from_samples(CircleGrid(6, np.zeros(6, dtype=complex)), 3)


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


def test_normalization_requires_positive():
    with pytest.raises(NotPositive):
        normalization_integral(TrigSeries.exact({1: Fraction(1, 2),
                                                 -1: Fraction(1, 2)}))


def test_backend_mixing_rejected():
    with pytest.raises(BackendMismatch):
        TrigSeries.exact({0: 1}) + TrigSeries.from_complex({0: 1.0})


def test_json_round_trip_exact():
    a = TrigSeries.exact({2: (Fraction(1, 3), Fraction(-2, 7)), 0: 5})
    b = series_from_json(series_to_json(a), "exact")
    assert a == b
    assert json.dumps(series_to_json(a))  # serializable


def test_json_round_trip_float():
    a = TrigSeries.from_complex({1: 0.25 - 0.125j, -4: 3.0})
    b = series_from_json(series_to_json(a), "float")
    assert a == b


def test_json_reads_rational_strings_into_floats():
    obj = {"coeffs": [{"n": 0, "re": "1/4", "im": "0"}]}
    a = series_from_json(obj, "float")
    assert a.coeff(0) == 0.25


@pytest.mark.parametrize("obj, key", [({"terms": []}, "'coeffs'"),
                                      ({"coeffs": [{"re": "1"}]}, "'n'")])
def test_json_missing_key_is_a_value_error(obj, key):
    with pytest.raises(ValueError, match=f"lacks the key {key}"):
        series_from_json(obj)


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
