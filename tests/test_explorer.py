import json
import math
from fractions import Fraction

import numpy as np
import pytest

from steklov_zeta import (CampaignConfig, DegenerateDenominator, NotHermitian,
                          RationalComplex, TrigSeries, a_kappa_form,
                          explorer, inequality_ratio, invariants, is_real,
                          positive_definite_check, random_positive_series,
                          random_real_series, min_on_circle, trinomial_extract,
                          z1_closed, z2_closed, z2_nonneg_campaign)
from steklov_zeta.explorer import (CAMPAIGN_BLOCK, _ratio_denominator,
                                   rationalize_series, sample_rng)


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


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -1.0,
                                   1e308, "1"])
def test_random_series_rejects_an_unusable_scale(scale):
    # 1e308 is finite, but the draw range 2 * scale is not
    with pytest.raises(ValueError, match="^scale must "):
        random_real_series(3, scale, sample_rng(1, 0))


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


@pytest.mark.parametrize("n0", [2, 5, 15])
def test_campaign_values_are_the_single_series_values(n0):
    # bit for bit, over more than one block of rows
    count = CAMPAIGN_BLOCK + 3
    rep = z2_nonneg_campaign(CampaignConfig(seed=606, count=count,
                                            max_degree=n0))
    assert len(rep.samples) == count
    for s in rep.samples:
        a = random_real_series(n0, 1.0, sample_rng(606, s.index))
        assert s.z1 == complex(z1_closed(a)).real
        assert s.z2 == complex(z2_closed(a)).real
        assert s.ratio == s.z2 / _ratio_denominator(a.items(), 2)


def test_campaign_row_with_a_zero_coefficient_keeps_its_series_values(
        monkeypatch):
    # its series drops a_3 and a_{-3}: another support, whose form sums
    # add the same terms in another order
    draw = explorer._draw

    def draw_without_a_3(n0, scale, rng):
        row = draw(n0, scale, rng)
        row[n0 + 3] = row[n0 - 3] = 0
        return row

    monkeypatch.setattr(explorer, "_draw", draw_without_a_3)
    rep = z2_nonneg_campaign(CampaignConfig(seed=11, count=40,
                                            max_degree=15))
    for s in rep.samples:
        a = random_real_series(15, 1.0, sample_rng(11, s.index))
        assert 3 not in a.support
        assert (s.z1, s.z2) == (complex(z1_closed(a)).real,
                                complex(z2_closed(a)).real)


def test_campaign_evaluates_at_most_one_block_of_rows(monkeypatch):
    rows = []
    form_sum = invariants._form_sum

    def spy(support, vec, *args):
        rows.append(vec.shape[:-1])
        return form_sum(support, vec, *args)

    monkeypatch.setattr(invariants, "_form_sum", spy)
    z2_nonneg_campaign(CampaignConfig(seed=5, count=2 * CAMPAIGN_BLOCK + 1,
                                      max_degree=3))
    # Z_1 and Z_2 of each block
    assert rows == [(CAMPAIGN_BLOCK,)] * 4 + [(1,)] * 2


def _lower_z2_of_sample_0(monkeypatch):
    """Make the float Z_2 of sample 0 of a one-block campaign -1."""
    closed_forms = explorer._closed_forms

    def lowered(support, rows):
        z1s, z2s = closed_forms(support, rows)
        z2s[0] = -1.0
        return z1s, z2s

    monkeypatch.setattr(explorer, "_closed_forms", lowered)


def test_campaign_rechecks_a_negative_float_value_exactly(monkeypatch):
    _lower_z2_of_sample_0(monkeypatch)
    rep = z2_nonneg_campaign(CampaignConfig(seed=31, count=3, max_degree=4))
    a = random_real_series(4, 1.0, sample_rng(31, 0))
    exact = z2_closed(rationalize_series(a))
    assert exact.re > 0
    first = rep.samples[0]
    assert (first.z2, first.z2_exact, first.flagged) == (
        -1.0, str(exact.re), False)
    assert rep.failures == () and rep.min_z2 == -1.0
    assert all(s.z2_exact is None for s in rep.samples[1:])


def test_campaign_flags_an_exactly_negative_value(monkeypatch):
    _lower_z2_of_sample_0(monkeypatch)
    monkeypatch.setattr(explorer, "z2_closed",
                        lambda a: RationalComplex(Fraction(-1, 3), 0))
    rep = z2_nonneg_campaign(CampaignConfig(seed=31, count=3, max_degree=4))
    first = rep.samples[0]
    assert (first.z2_exact, first.flagged) == ("-1/3", True)
    assert rep.failures == (first,)
    assert json.loads(rep.to_text("json"))["summary"]["failures"] == [
        {"index": 0, "z1": first.z1, "z2": -1.0, "ratio": first.ratio,
         "flagged": True, "z2_exact": "-1/3"}]


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


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 1e155,
                                   -3e152, 1j, "half"])
def test_a_kappa_form_rejects_an_unusable_kappa(kappa):
    # above about 1.3e154 kappa^2 overflows; from about 3e151 the largest
    # entry of the m = 10 form does
    with pytest.raises(ValueError, match="^kappa must "):
        a_kappa_form(kappa, 10)
    with pytest.raises(ValueError, match="^kappas must "):
        CampaignConfig(seed=1, count=1, max_degree=2, kappas=(0.5, kappa))


def test_a_kappa_form_admits_a_large_finite_kappa():
    assert np.isfinite(a_kappa_form(1e151, 10)).all()


def test_trinomial_rejects_an_unusable_float_kappa():
    tail = TrigSeries.from_complex({2: 0.5, -2: 0.5})
    for kappa in (math.nan, 1e155):
        with pytest.raises(ValueError, match="^kappa must "):
            trinomial_extract(tail, kappa)


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
