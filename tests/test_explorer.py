import json
import math

import numpy as np
import pytest

from steklov_zeta import (CampaignConfig, DegenerateDenominator, NotHermitian,
                          TrigSeries, a_kappa_form, inequality_ratio, is_real,
                          positive_definite_check, random_positive_series,
                          random_real_series, min_on_circle, trinomial_extract,
                          z1_closed, z2_closed, z2_nonneg_campaign)
from steklov_zeta.explorer import rationalize_series, sample_rng


def test_random_series_deterministic():
    a = random_real_series(2, 1.0, sample_rng(99, 0))
    b = random_real_series(2, 1.0, sample_rng(99, 0))
    c = random_real_series(2, 1.0, sample_rng(99, 1))
    assert a == b
    assert a != c


def test_random_series_is_real_and_bounded():
    rng = sample_rng(1, 0)
    a = random_real_series(5, 0.7, rng)
    assert is_real(a)
    assert all(abs(v) <= 0.7 + 1e-12 for _, v in a.items())


def test_random_series_zero_scale():
    assert not random_real_series(3, 0.0, sample_rng(2, 0))


def test_random_positive_series_screened():
    for i in range(5):
        a = random_positive_series(5, 1.0, sample_rng(3, i), floor=0.5)
        assert min_on_circle(a, 2048) >= 0.5 - 1e-9


def test_campaign_deterministic_and_clean():
    cfg = CampaignConfig(seed=2024, count=40, max_degree=5)
    r1 = z2_nonneg_campaign(cfg)
    r2 = z2_nonneg_campaign(cfg)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == \
        json.dumps(r2.to_json_dict(), sort_keys=True)
    assert not r1.failures
    assert r1.min_z2 >= 0.0
    assert all(s.z1 >= 0.0 for s in r1.samples)


def test_campaign_single_sample_matches_direct_value():
    cfg = CampaignConfig(seed=5150, count=1, max_degree=3)
    rep = z2_nonneg_campaign(cfg)
    a = random_real_series(3, 1.0, sample_rng(5150, 0))
    assert rep.samples[0].z2 == pytest.approx(complex(z2_closed(a)).real)


def test_campaign_report_serialization(tmp_path):
    cfg = CampaignConfig(seed=8, count=3, max_degree=2, kappas=(0.0, 0.5))
    rep = z2_nonneg_campaign(cfg)
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    rep.save(jpath)
    rep.save(cpath, fmt="csv")
    assert jpath.read_text() == rep.to_text("json")
    assert cpath.read_bytes() == rep.to_text("csv").encode()
    obj = json.loads(jpath.read_text())
    assert obj["config"] == {"seed": 8, "count": 3, "max_degree": 2,
                             "coeff_scale": 1.0, "kappas": [0.0, 0.5]}
    assert obj["summary"]["failures"] == []
    assert [kc[1] for kc in obj["summary"]["kappa_checks"]] == [True, True]
    assert cpath.read_text().startswith("index,")


def test_rationalize_preserves_reality():
    a = random_real_series(4, 1.0, sample_rng(10, 0))
    b = rationalize_series(a)
    assert b.backend == "exact" and is_real(b)
    for n, v in a.items():
        assert complex(b.coeff(n)) == v


def test_inequality_ratio_single_pair():
    a = TrigSeries.from_complex({2: 1.0, -2: 1.0})
    assert inequality_ratio(a, 1) == pytest.approx(0.5)
    # two-sided convention doubles the denominator
    assert inequality_ratio(a, 1, two_sided=True) == pytest.approx(0.25)


def test_inequality_ratio_single_mode_limit():
    # (2/3)(n^3 - n)/n^3 climbs toward 2/3
    prev = 0.0
    for n in (2, 5, 11, 25):
        a = TrigSeries.from_complex({n: 1.0, -n: 1.0})
        r = inequality_ratio(a, 1)
        assert r == pytest.approx((2 / 3) * (n**3 - n) / n**3)
        assert r > prev
        prev = r
    assert prev < 2 / 3


def test_inequality_ratio_degenerate():
    with pytest.raises(DegenerateDenominator):
        inequality_ratio(TrigSeries.from_complex({0: 1.0, 1: 0.5, -1: 0.5}), 2)


def test_coefficient_bound_from_z1():
    # term bound: |a_n|^2 <= 3 Z_1 / (2 (n^3 - n)) for every n >= 2
    for i in range(8):
        a = random_real_series(5, 1.0, sample_rng(77, i))
        z1 = complex(z1_closed(a)).real
        for n, v in a.items():
            if n >= 2:
                assert abs(v) <= math.sqrt(3 * z1 / (2 * (n**3 - n))) + 1e-12


def test_a_kappa_form_diagonal_kappa_zero():
    H = a_kappa_form(0.0, 6)
    assert H.shape == (5, 5)
    assert np.count_nonzero(H - np.diag(np.diag(H))) == 0
    for n in range(2, 7):
        assert H[n - 2, n - 2] == pytest.approx(
            0.8 * n * (n * n - 1) * (n * n - 2 / 3))


def test_a_kappa_form_smallest_case():
    H = a_kappa_form(0.0, 2)
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(16.0)


def test_a_kappa_form_positive_definite_sample():
    for kappa in (0.0, 0.5, -0.5, 1.0, -1.0):
        H = a_kappa_form(kappa, 10)
        assert positive_definite_check(H)


def test_trinomial_zero_tail():
    A, B, N0 = trinomial_extract(TrigSeries.zero(), 0)
    assert (A, B, N0) == (0, 0, 0)


def test_trinomial_exact_pair_tail():
    tail = TrigSeries.exact({2: 1, -2: 1})
    A, B, N0 = trinomial_extract(tail, 0)
    assert A == 16 and B == 0
    assert N0 == z2_closed(tail).re == 48


def test_trinomial_rejects_low_frequency_tail():
    for n in (0, 1, -1):
        with pytest.raises(ValueError, match=r"\|n\| <= 1"):
            trinomial_extract(TrigSeries.from_complex({n: 1.0, 3: 0.5}), 0.5)


def test_trinomial_constant_term_is_tail_invariant():
    tail = TrigSeries.from_complex({2: 0.3 + 0.1j, -2: 0.3 - 0.1j, 3: 0.2,
                                    -3: 0.2})
    _, _, N0 = trinomial_extract(tail, 0.4)
    assert N0 == pytest.approx(complex(z2_closed(tail)).real)


def test_trinomial_leading_matches_hermitian_form():
    rng = sample_rng(123, 0)
    m = 5
    coeffs = {}
    for n in range(2, m + 1):
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[n] = v
        coeffs[-n] = v.conjugate()
    tail = TrigSeries.from_complex(coeffs)
    for kappa in (0.0, 0.5, -1.0):
        A, _, _ = trinomial_extract(tail, kappa)
        v = np.array([tail.coeff(n) for n in range(2, m + 1)])
        H = a_kappa_form(kappa, m)
        quad = float(np.real(v.conj() @ H @ v))
        assert A == pytest.approx(quad, rel=1e-9, abs=1e-9)


def test_trinomial_quadratic_extrapolates():
    # the three-point fit must reproduce Z_2 at a fourth head value
    tail = TrigSeries.from_complex({2: 0.4, -2: 0.4, 4: 0.1j, -4: -0.1j})
    kappa = 0.3
    A, B, N0 = trinomial_extract(tail, kappa)
    head = TrigSeries.from_complex({0: 2.0, 1: 2 * kappa, -1: 2 * kappa})
    direct = complex(z2_closed(tail + head)).real
    fitted = A * 4 + 2 * B * 2 + N0
    assert fitted == pytest.approx(direct, rel=1e-9)


def test_positive_definite_check_basics():
    assert positive_definite_check(np.eye(3))
    assert not positive_definite_check(np.diag([1.0, -1.0]))
    with pytest.raises(NotHermitian):
        positive_definite_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_campaign_validation():
    with pytest.raises(ValueError):
        CampaignConfig(seed=1, count=0, max_degree=5)
    with pytest.raises(ValueError):
        CampaignConfig(seed=1, count=1, max_degree=1)
    for seed in (1.5, -1, "1"):
        with pytest.raises(ValueError):
            CampaignConfig(seed=seed, count=1, max_degree=2)
    cfg = CampaignConfig(seed=np.int64(1), count=np.int64(1),
                         max_degree=np.int64(2))
    assert {type(cfg.seed), type(cfg.count), type(cfg.max_degree)} == {int}
    z2_nonneg_campaign(cfg).to_text("json")


@pytest.mark.parametrize("field, value", [
    ("coeff_scale", math.nan), ("coeff_scale", math.inf),
    ("coeff_scale", -2.0), ("coeff_scale", "1"), ("coeff_scale", 1e100),
    ("kappas", (math.nan,)), ("kappas", (-math.inf,)), ("kappas", (1e308,)),
    ("kappas", (1j,))])
def test_campaign_rejects_unusable_floats(field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        CampaignConfig(seed=1, count=1, max_degree=15, **{field: value})


def test_largest_admitted_scale_keeps_every_value_finite():
    # the bound admits 1e72 at n0 = 15, where Z_2 reaches about 1e295
    report = z2_nonneg_campaign(CampaignConfig(
        seed=1, count=3, max_degree=15, coeff_scale=1e72, kappas=(1e100,)))
    values = [v for s in report.samples for v in (s.z1, s.z2, s.ratio)]
    assert all(math.isfinite(v) for v in values)
    assert max(s.z2 for s in report.samples) > 1e290
