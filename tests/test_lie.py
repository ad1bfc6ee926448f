import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (GENERATORS, RationalComplex, TrigSeries, UnknownBracket,
                          WrongSum, apply_generator, bracket_check, is_real,
                          lie, lowering_relation_check,
                          raising_relation_check, raising_relation_sweep,
                          relation_sweep, symmetrize_z)
from steklov_zeta.invariants import zero_sum_multisets
from steklov_zeta.lie import RELATION_PLANES, _bump_sum

from util import random_exact_series, random_zero_sum_tuple

I = RationalComplex(0, 1)


def test_apply_generator_examples():
    up = apply_generator("Dplus", TrigSeries.exact({1: 1}))
    assert up == TrigSeries.exact({0: 2})
    assert not apply_generator("C", TrigSeries.exact({0: 5}))
    d = apply_generator("D", TrigSeries.exact({0: 1}))
    assert d == TrigSeries.exact({1: -1, -1: -1})


def test_generator_degree_growth():
    a = TrigSeries.exact({3: 1, -3: 1})
    for g in GENERATORS:
        assert apply_generator(g, a).degree <= 4


def test_unknown_generator():
    with pytest.raises(ValueError):
        apply_generator("X", TrigSeries.exact({0: 1}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATORS), st.integers(-3, 3), st.integers(-3, 3))
def test_generator_linearity(g, alpha, beta):
    rng = random.Random(alpha * 17 + beta)
    a = random_exact_series(rng, 3)
    b = random_exact_series(rng, 2)
    combo = alpha * a + beta * b
    lhs = apply_generator(g, combo)
    rhs = alpha * apply_generator(g, a) + beta * apply_generator(g, b)
    assert lhs == rhs


def test_complex_basis_change():
    rng = random.Random(41)
    a = random_exact_series(rng, 4)
    # D0 = -i C
    d0 = apply_generator("D0", a)
    minus_i_c = (-I) * apply_generator("C", a)
    assert d0 == minus_i_c
    # D- = (D + iE)/2 and D+ = (-D + iE)/2
    D = apply_generator("D", a)
    E = apply_generator("E", a)
    half = Fraction(1, 2)
    assert apply_generator("Dminus", a) == half * (D + I * E)
    assert apply_generator("Dplus", a) == half * ((-1) * D + I * E)


def test_real_generators_preserve_reality():
    rng = random.Random(43)
    a = random_exact_series(rng, 4, real=True)
    assert is_real(a)
    for g in ("C", "D", "E"):
        assert is_real(apply_generator(g, a))


def test_bracket_table_exact():
    rng = random.Random(47)
    a = random_exact_series(rng, 4)
    for g, h in (("C", "D"), ("C", "E"), ("D", "E"),
                 ("D0", "Dminus"), ("D0", "Dplus"), ("Dminus", "Dplus")):
        assert bracket_check(g, h, a) == 0
        assert bracket_check(h, g, a) == 0  # antisymmetric pair


def test_bracket_on_basis_vector():
    a = TrigSeries.exact({3: 1})
    assert bracket_check("C", "D", a) == 0
    assert bracket_check("Dminus", "Dplus", TrigSeries.exact({2: 1})) == 0


def test_bracket_zero_series():
    assert bracket_check("C", "D", TrigSeries.zero()) == 0


def test_unknown_bracket_pair():
    with pytest.raises(UnknownBracket):
        bracket_check("C", "D0", TrigSeries.exact({1: 1}))


def test_bracket_float_backend():
    a = TrigSeries.from_complex({2: 0.5 + 0.25j, -1: 1.0})
    assert bracket_check("C", "D", a) <= 1e-12


# linear relations -----------------------------------------------------------


def test_raising_relation_pair_example():
    # (3-1) Z_{4,-4} + (-4-1) Z_{3,-3} = 2*20 - 5*8 = 0
    assert symmetrize_z((4, -4)) == 20 and symmetrize_z((3, -3)) == 8
    assert raising_relation_check((3, -4)) == 0


def test_raising_relation_examples():
    assert raising_relation_check((0, 0, 0, -1), source="closed") == 0
    assert raising_relation_check((0, 0, 0, -1), source="brute") == 0
    assert raising_relation_check((1, 1, -1, -1, 0, -1)) == 0


def test_raising_relation_wrong_sum():
    with pytest.raises(WrongSum):
        raising_relation_check((1, -1))


def test_raising_relation_closed_needs_low_order():
    with pytest.raises(ValueError):
        raising_relation_check((0, 0, 0, 0, 0, -1), source="closed")


def test_lowering_relation_examples():
    assert lowering_relation_check((3, -2)) == 0
    assert lowering_relation_check((0, 0, 0, 1), source="closed") == 0
    assert lowering_relation_check((0, 0, 0, 1), source="brute") == 0
    assert lowering_relation_check((-1, -1, 1, 1, 0, 1)) == 0


def test_lowering_relation_wrong_sum():
    for idx in ((1, -1), (2, -3), (0, 0, 0, -1)):
        with pytest.raises(WrongSum, match="must sum to 1,"):
            lowering_relation_check(idx)


@pytest.mark.parametrize("idx", [(), (1,), (1, 0, 0)])
def test_relation_checks_need_even_length(idx):
    for check in (raising_relation_check, lowering_relation_check):
        with pytest.raises(ValueError, match="even length"):
            check(idx)


def test_generator_variants_identities():
    rng = random.Random(53)
    for _ in range(10):
        idx = random_zero_sum_tuple(rng, 2, 4)
        idx = idx[:-1] + (idx[-1] - 1,)  # shift onto the sum = -1 plane
        up = raising_relation_check(idx)
        assert up == 0
        # sign-flipped input lands on the +1 plane of the mirror relation
        flipped = tuple(-j for j in idx)
        assert lowering_relation_check(flipped) == -up


def fake_coeff(idx):
    """Not conformally invariant, so the relations do not vanish for it and
    their values show how the two bump sums combine."""
    return Fraction(sum(j * j for j in idx))


# (the +1 bump sum, the -1 bump sum) of fake_coeff, by hand; e.g. for (2, -3)
# up = (2-1)(3^2 + 3^2) + (-3-1)(2^2 + 2^2) = -14,
# down = (2+1)(1^2 + 3^2) + (-3+1)(2^2 + 4^2) = -10
FAKE_BUMP_SUMS = {(2, -3): (-14, -10), (0, -1): (-2, 2),
                  (1, 0, 0, -2): (-18, 10), (3, -2): (10, 14)}


def test_bump_sum_with_non_invariant_coefficient():
    for idx, (up, down) in FAKE_BUMP_SUMS.items():
        assert _bump_sum(idx, 1, fake_coeff) == up
        assert _bump_sum(idx, -1, fake_coeff) == down


def test_relation_variants_combine_the_bump_sums(monkeypatch):
    monkeypatch.setattr(lie, "z_coeff", fake_coeff)
    monkeypatch.setattr(lie, "z_coeff_closed", lambda idx: 2 * fake_coeff(idx))
    for idx, (up, down) in FAKE_BUMP_SUMS.items():
        if sum(idx) == -1:
            assert raising_relation_check(idx) == up
            assert raising_relation_check(idx, "closed") == 2 * up
        else:
            assert lowering_relation_check(idx) == down
            assert lowering_relation_check(idx, "closed") == 2 * down


@pytest.mark.parametrize("k", [1, 2])
def test_lowering_mirrors_raising(monkeypatch, k):
    """For a sign-flip symmetric coefficient, invariant or not, the lowering
    sum at -idx is minus the raising sum at idx; an odd one breaks this."""
    idxs = [idx for idx in itertools.product(range(-4, 5), repeat=2 * k)
            if sum(idx) == -1]
    monkeypatch.setattr(lie, "z_coeff", fake_coeff)
    for idx in idxs:
        flipped = tuple(-j for j in idx)
        assert lowering_relation_check(flipped) == -raising_relation_check(idx)
    monkeypatch.setattr(lie, "z_coeff", lambda idx: Fraction(idx[0]))
    assert any(lowering_relation_check(tuple(-j for j in idx))
               != -raising_relation_check(idx) for idx in idxs)


def test_all_variants_vanish_on_sample():
    rng = random.Random(59)
    for _ in range(6):
        idx = random_zero_sum_tuple(rng, 1, 6)
        assert raising_relation_check((idx[0], idx[1] - 1)) == 0
        assert lowering_relation_check((idx[0], idx[1] + 1)) == 0
    for _ in range(6):
        idx = random_zero_sum_tuple(rng, 2, 4)
        for source in ("brute", "closed"):
            assert raising_relation_check(idx[:-1] + (idx[-1] - 1,), source) == 0
            assert lowering_relation_check(idx[:-1] + (idx[-1] + 1,), source) == 0


def test_sweep_small_radius():
    results = list(raising_relation_sweep(1, 6))
    assert len(results) == 6  # j1 in [-6, -1], j2 = -1 - j1 >= j1
    assert all(value == 0 for _, value in results)


def test_sweep_stride_subsamples_deterministically():
    full = [idx for idx, _ in raising_relation_sweep(1, 10)]
    strided = [idx for idx, _ in raising_relation_sweep(1, 10, stride=3)]
    assert strided == full[::3]


def test_sweep_closed_source_k2():
    for idx, value in raising_relation_sweep(2, 2, source="closed"):
        assert value == 0


def box_filter_tuples(k, radius):
    """Reference enumeration: the whole box, as {plane: ordered tuples}."""
    planes = {}
    for idx in itertools.product(range(-radius, radius + 1), repeat=2 * k):
        planes.setdefault(sum(idx), []).append(idx)
    return planes


@pytest.mark.parametrize("k, radii", [(1, range(1, 6)), (2, range(1, 6)),
                                      (3, range(1, 4))])
def test_plane_tuples_equal_box_filter(k, radii):
    """The sorted multisets of the box tuples on each plane are what
    zero_sum_multisets yields for it, and the relation sweep walks them
    with [::stride] semantics.  On the relation planes every ordered tuple
    has its multiset's relation value (both sources for k <= 2): the value
    is symmetric, so the sweep checks each relation once."""
    sources = ("brute", "closed") if k <= 2 else ("brute",)
    checks = {-1: raising_relation_check, 1: lowering_relation_check}
    for radius in radii:
        box = box_filter_tuples(k, radius)
        values = range(-radius, radius + 1)
        for plane in (-1, 0, 1, 2 * k * radius, 2 * k * radius + 1):
            multisets = sorted({tuple(sorted(idx))
                                for idx in box.get(plane, ())})
            assert list(zero_sum_multisets(values, 2 * k, plane)) \
                == multisets, (k, radius, plane)
        for variant, plane in lie.RELATION_PLANES.items():
            multisets = sorted({tuple(sorted(idx)) for idx in box[plane]})
            for stride in (1, 3, 7):
                got = [idx for idx, _ in relation_sweep(k, radius, variant,
                                                        stride)]
                assert got == multisets[::stride], (k, radius, plane, stride)
            for source in sources:
                swept = dict(relation_sweep(k, radius, variant,
                                            source=source))
                for idx in box[plane]:
                    assert checks[plane](idx, source) \
                        == swept[tuple(sorted(idx))], (idx, source)


@pytest.mark.parametrize("k, radius, stride", [
    (0, 3, 1), (1, 0, 1), (1, -1, 1), (1, 3, 0),
    (1.5, 2, 1), (1, 2.5, 1), (1, 3, 2.0), ("2", 3, 1)])
def test_plane_tuples_rejects_bad_parameters(k, radius, stride):
    """The relation sweep takes its integers through fourier._indices: a
    value below 1 or a non-integer is a ValueError, never a TypeError."""
    with pytest.raises(ValueError):
        raising_relation_sweep(k, radius, stride)
    with pytest.raises(ValueError):
        relation_sweep(k, radius, "Dminus", stride)


def test_relation_sweep_rejects_unknown_variant_and_source():
    with pytest.raises(ValueError, match="a variant in"):
        relation_sweep(1, 2, "Dplus")
    with pytest.raises(ValueError, match="unknown coefficient source"):
        list(raising_relation_sweep(1, 2, source="exact"))


@pytest.mark.parametrize("k, source, message", [
    (1, "nope", "unknown coefficient source 'nope'"),
    (3, "closed", r"closed coefficients are available for k in \{1, 2\} only")])
def test_relation_sweep_checks_its_source_at_the_call(k, source, message):
    """A bad source raises when the sweep is called, before any item."""
    for variant in RELATION_PLANES:
        with pytest.raises(ValueError, match=message):
            relation_sweep(k, 1, variant, source=source)


