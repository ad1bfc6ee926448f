import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (NonZeroSum, RationalComplex, TrigSeries, brute_n,
                          coeff_bound_check, symmetrize_z, symmetrize_z_full,
                          z1_closed, z2_closed, z2_coeff_closed, z_coeff,
                          z_coeff_closed, zeta, zeta_invariant)
from steklov_zeta.conformal import pullback_direct
from steklov_zeta.explorer import (random_positive_series, rationalize_series,
                                   sample_rng)
from steklov_zeta import invariants
from steklov_zeta.invariants import (_COEFF_CACHE_SIZE, _form_table,
                                     _orderings, _p1, _p2, zero_sum_multisets)
from steklov_zeta.lie import raising_relation_sweep
from steklov_zeta.scalars import RC_ZERO

from util import random_exact_series, random_zero_sum_tuple


def oracle_n(indices):
    """Independent re-implementation: literal sum of |f(n)| - f(n) over a
    range twice the root bound, with f built afresh per n."""
    span = sum(abs(j) for j in indices)
    total = 0
    for n in range(-2 * span - 1, 2 * span + 2):
        f = math.prod(n + sum(indices[:i]) for i in range(len(indices)))
        total += abs(f) - f
    return total


zero_sum_pairs = st.integers(-12, 12).map(lambda j: (j, -j))


@st.composite
def zero_sum_indices(draw, k_max=3, bound=4):
    k = draw(st.integers(1, k_max))
    head = draw(st.lists(st.integers(-bound, bound), min_size=2 * k - 1,
                         max_size=2 * k - 1))
    total = sum(head)
    if abs(total) > bound:
        head[0] -= total
        total = sum(head)
    return tuple(head) + (-total,)


# brute N ---------------------------------------------------------------


def test_brute_n_examples():
    assert brute_n((1, -1)) == 0
    assert brute_n((2, -2)) == 2
    assert brute_n((0, 0, 0, 0)) == 0
    assert brute_n((2, 2, -1, -3)) == oracle_n((2, 2, -1, -3)) == 12


def test_brute_n_matches_oracle_on_random_tuples():
    rng = random.Random(20240809)
    for _ in range(150):
        k = rng.randint(1, 3)
        idx = random_zero_sum_tuple(rng, k, 4)
        assert brute_n(idx) == oracle_n(idx)


def test_brute_n_rejects_nonzero_sum():
    with pytest.raises(NonZeroSum):
        brute_n((1, 2))
    with pytest.raises(ValueError):
        brute_n((1, -1, 0))  # odd length


@settings(max_examples=150, deadline=None)
@given(zero_sum_indices())
def test_brute_n_even_nonnegative_integer(idx):
    v = brute_n(idx)
    assert v >= 0 and v % 2 == 0


@settings(max_examples=120, deadline=None)
@given(zero_sum_indices())
def test_brute_n_sign_flip_invariance(idx):
    assert brute_n(tuple(-j for j in idx)) == brute_n(idx)


@settings(max_examples=120, deadline=None)
@given(zero_sum_indices())
def test_brute_n_cyclic_invariance(idx):
    assert brute_n(idx[1:] + idx[:1]) == brute_n(idx)


def test_brute_n_not_fully_symmetric_in_general():
    # (2,2,-1,-3) = 12 but a transposition changes the value
    assert brute_n((2, 2, -1, -3)) != brute_n((2, -1, 2, -3))


# symmetrized Z ---------------------------------------------------------


def test_symmetrize_examples():
    assert symmetrize_z((3, -3)) == 8
    for j in range(-6, 7):
        assert symmetrize_z((j, -j)) == brute_n((j, -j))
    assert symmetrize_z((1, 1, -1, -1)) == symmetrize_z_full((1, 1, -1, -1)) == 0


def test_reduced_equals_full_symmetrization():
    rng = random.Random(7)
    for _ in range(25):
        idx = random_zero_sum_tuple(rng, 2, 4)
        assert symmetrize_z(idx) == symmetrize_z_full(idx)
    for _ in range(4):
        idx = random_zero_sum_tuple(rng, 3, 2)
        assert symmetrize_z(idx) == symmetrize_z_full(idx)


def test_z_coeff_full_symmetry_and_evenness():
    rng = random.Random(11)
    for _ in range(30):
        idx = random_zero_sum_tuple(rng, 2, 5)
        perm = tuple(rng.sample(idx, len(idx)))
        assert symmetrize_z(idx) == symmetrize_z(perm)
        assert symmetrize_z(idx) == symmetrize_z(tuple(-j for j in idx))


def test_pair_closed_form_small_range():
    for j in range(-20, 21):
        assert symmetrize_z((j, -j)) == Fraction(abs(j**3 - j), 3)


def test_z_coeff_off_plane_is_zero():
    assert z_coeff((1, 2, 3, -4)) == 0


# the invariants themselves ----------------------------------------------


def test_vanishing_on_low_frequency_subspace():
    a = TrigSeries.exact({0: 5, 1: (1, 2), -1: 7})
    for k in (1, 2, 3):
        assert zeta_invariant(a, k) == 0


def test_zeta_invariant_single_pair_k1():
    a = TrigSeries.exact({2: 1, -2: 1})
    assert zeta_invariant(a, 1) == 4


def test_zeta_invariant_single_pair_k2_against_direct_sum():
    a = TrigSeries.exact({2: 1, -2: 1})
    # independent route: raw sum over ordered quadruples from the support
    total = Fraction(0)
    for q in itertools.product((2, -2), repeat=4):
        if sum(q) == 0:
            total += symmetrize_z(q)
    val = zeta_invariant(a, 2)
    assert val == RationalComplex(total, 0)
    assert val == 48


def test_zeta_invariant_full_enumeration_cross_check():
    rng = random.Random(3)
    a = random_exact_series(rng, 3)
    direct = RationalComplex(0, 0)
    for q in itertools.product(range(-3, 4), repeat=4):
        if sum(q) != 0:
            continue
        c = symmetrize_z(q)
        if c:
            prod = a.coeff(q[0]) * a.coeff(q[1]) * a.coeff(q[2]) * a.coeff(q[3])
            direct = direct + c * prod
    assert zeta_invariant(a, 2) == direct


def test_z1_closed_examples():
    assert z1_closed(TrigSeries.exact({2: 1, -2: 1})) == 4
    assert z1_closed(TrigSeries.exact({0: 3, 1: (1, 1), -1: (2, 0)})) == 0
    a = TrigSeries.exact({3: (0, 1), -3: (0, -1)})
    assert z1_closed(a) == 16


def test_z1_closed_equals_invariant():
    rng = random.Random(5)
    for _ in range(10):
        a = random_exact_series(rng, rng.randint(1, 6))
        assert z1_closed(a) == zeta_invariant(a, 1)


def test_z2_closed_equals_invariant():
    rng = random.Random(6)
    for deg in (2, 3, 4, 5, 6):
        a = random_exact_series(rng, deg)
        assert z2_closed(a) == zeta_invariant(a, 2)


def test_zeta_dispatch_equals_invariant():
    a = random_exact_series(random.Random(7), 3)
    for k in (1, 2, 3):
        assert zeta(a, k) == zeta_invariant(a, k)


def test_z2_closed_with_zero_mode():
    a = TrigSeries.exact({0: 1, 2: Fraction(1, 2), -2: Fraction(1, 2)})
    assert z2_closed(a) == zeta_invariant(a, 2)


def test_reality_of_invariants():
    rng = random.Random(9)
    for _ in range(5):
        a = random_exact_series(rng, 4, real=True)
        for k in (1, 2):
            v = zeta_invariant(a, k)
            assert v.im == 0


# quadruple closed form ---------------------------------------------------


def test_z2_coeff_nonzero_sum_is_zero():
    assert z2_coeff_closed(1, 2, 3, -4) == 0


def test_z2_coeff_trivial_zeroes():
    assert z2_coeff_closed(0, 0, 0, 0) == 0
    assert z2_coeff_closed(1, 0, 0, -1) == 0


def test_z2_coeff_matches_brute_spot_values():
    v = z2_coeff_closed(2, -2, 0, 0)
    assert v == z_coeff((2, -2, 0, 0)) == Fraction(4, 3)
    assert (3 * v).denominator == 1 and (3 * v).numerator % 2 == 0
    assert z2_coeff_closed(-3, 2, 2, -1) == z_coeff((-3, 2, 2, -1)) == 8


def test_z2_coeff_matches_brute_ball_radius_5():
    for i in range(-5, 6):
        for j in range(-5, 6):
            for k in range(-5, 6):
                l = -(i + j + k)
                if abs(l) <= 5:
                    assert z2_coeff_closed(i, j, k, l) == z_coeff((i, j, k, l))


def test_z_coeff_closed_matches_brute_on_box():
    box = range(-3, 4)
    for slots in (2, 4):
        for idx in itertools.product(box, repeat=slots):
            assert z_coeff_closed(idx) == z_coeff(idx), idx
    with pytest.raises(ValueError):
        z_coeff_closed((1, -1, 2, -2, 0, 0))


def test_closed_polynomials_are_odd():
    pts = range(-3, 4)
    for i in pts:
        for j in pts:
            for k in pts:
                assert _p1(-i, -j, -k) == -_p1(i, j, k)
                assert _p2(-i, -j, -k) == -_p2(i, j, k)


def test_coeff_bound_examples():
    assert coeff_bound_check((2, -2))
    assert coeff_bound_check((0, 0))
    assert coeff_bound_check((5, -1, -1, -3))


def test_homogeneity_of_forms():
    rng = random.Random(13)
    a = random_exact_series(rng, 3)
    c = Fraction(3, 2)
    for k in (1, 2):
        assert zeta_invariant(c * a, k) == c ** (2 * k) * zeta_invariant(a, k)


def test_zero_sum_multisets_enumeration():
    got = set(zero_sum_multisets((-2, -1, 0, 1, 2), 2))
    assert got == {(-2, 2), (-1, 1), (0, 0)}
    quad = list(zero_sum_multisets((-2, 2), 4))
    assert quad == [(-2, -2, 2, 2)]


def test_float_backend_matches_exact():
    rng = random.Random(17)
    a = random_exact_series(rng, 4)
    f = a.to_float()
    for k in (1, 2):
        exact = complex(zeta_invariant(a, k))
        approx = zeta_invariant(f, k)
        assert approx == pytest.approx(exact, rel=1e-10, abs=1e-9)
        assert type(approx) is complex  # not a numpy scalar
    assert complex(z2_closed(a)) == pytest.approx(z2_closed(f), rel=1e-10,
                                                  abs=1e-9)
    assert type(z1_closed(f)) is type(z2_closed(f)) is complex


# kernels against their earlier, slower implementations ---------------------


def recursive_zero_sum_multisets(values, slots):
    """The earlier recursive enumerator, kept as the oracle."""
    vals = sorted(set(values))
    if not vals:
        return
    vmax = vals[-1]
    out = []

    def rec(start, left, total):
        if left == 0:
            if total == 0:
                yield tuple(out)
            return
        if total + left * vmax < 0:
            return
        for i in range(start, len(vals)):
            v = vals[i]
            if total + left * v > 0:
                break
            out.append(v)
            yield from rec(i, left - 1, total + v)
            out.pop()

    yield from rec(0, slots, 0)


def test_zero_sum_multisets_equals_recursive_oracle():
    rng = random.Random(20261018)
    value_sets = [[], [0], [3], [-4], [-3, -1], [1, 2, 5], [0, 0, 2, -2],
                  [5, -1, 3, -4, 0, 2, 2, -1]]
    for _ in range(300):
        lo = rng.randint(-12, 4)
        hi = rng.randint(lo, 12)
        value_sets.append([rng.randint(lo, hi)
                           for _ in range(rng.randint(0, 10))])
    for values in value_sets:
        for slots in range(7):
            got = list(zero_sum_multisets(values, slots))
            assert got == list(recursive_zero_sum_multisets(values, slots)), \
                (values, slots)


def test_zero_sum_multisets_is_a_generator():
    gen = zero_sum_multisets(range(-3, 4), 4)
    assert iter(gen) is gen
    assert next(gen) == (-3, -3, 3, 3)
    assert list(zero_sum_multisets((1, -1), 0)) == [()]
    assert list(zero_sum_multisets((), 0)) == []


def _in_case1(t):
    return t[0] >= 0 and t[1] >= 0 and t[2] >= 0


def _in_case2(t):
    i, j, k, _ = t
    return (i <= 0 and j >= 0 and k >= 0
            and i + j <= 0 and i + k <= 0 and i + j + k >= 0)


def image_search_z2_coeff(i, j, k, l):
    """The earlier canonicalization over all 48 permutation and sign images,
    kept as the oracle."""
    q = (i, j, k, l)
    if sum(q) != 0:
        return Fraction(0)
    images = set()
    for sign in (1, -1):
        flipped = tuple(sign * x for x in q)
        for perm in itertools.permutations(flipped):
            images.add(perm)
    case1 = [t for t in images if _in_case1(t)]
    if case1:
        t = min(case1)
        return _p1(t[0], t[1], t[2])
    case2 = [t for t in images if _in_case2(t)]
    t = min(case2)
    return _p2(t[0], t[1], t[2])


def test_z2_coeff_closed_equals_image_search_on_box_14():
    count = 0
    for i, j, k in itertools.product(range(-14, 15), repeat=3):
        l = -(i + j + k)
        if abs(l) <= 14:
            count += 1
            got = z2_coeff_closed.__wrapped__(i, j, k, l)
            assert got == image_search_z2_coeff(i, j, k, l), (i, j, k, l)
    assert count == 16269
    assert z2_coeff_closed.__wrapped__(1, 2, 3, 4) == 0


def test_orderings_is_the_multinomial_count():
    for length in range(7):
        for ms in itertools.combinations_with_replacement(range(-2, 3), length):
            expected = len(set(itertools.permutations(ms)))
            assert _orderings(ms) == expected, ms


def float_z2_closed_error(degree: int):
    """(float z2_closed, exact z2_closed) of the criterion-4 pullback at
    rho = 0.5 and the given out-degree, on the same dyadic coefficients."""
    a = random_positive_series(5, 0.6, sample_rng(20261018, 0), floor=0.5)
    exact = rationalize_series(pullback_direct(a, 0.5, 8192, degree))
    return z2_closed(exact.to_float()), z2_closed(exact)


def test_float_z2_closed_error_bound_degree_30():
    approx, ref = float_z2_closed_error(30)
    err = abs(Fraction(approx.real) - ref.re) + abs(Fraction(approx.imag) - ref.im)
    assert ref.re > 0
    assert err <= Fraction(1, 10**13) * ref.re


def test_float_z2_closed_error_bound_degree_60():
    approx, ref = float_z2_closed_error(60)  # the criterion-4 shape
    assert type(approx) is complex
    err = abs(Fraction(approx.real) - ref.re) + abs(Fraction(approx.imag) - ref.im)
    assert ref.re > 0
    assert err <= Fraction(1, 10**13) * ref.re


# form tables and coefficient caches ------------------------------------------


def test_forms_on_degenerate_supports():
    # the zero series; a one-value support whose only zero-sum row has a
    # zero coefficient; a support with no zero-sum row at all
    for coeffs in ({}, {0: 3}, {1: 2, 2: (1, 1)}):
        a = TrigSeries.exact(coeffs)
        f = a.to_float()
        for value in (z1_closed(a), z2_closed(a), zeta_invariant(a, 3)):
            assert value == RC_ZERO and isinstance(value, RationalComplex)
        for value in (z1_closed(f), z2_closed(f), zeta_invariant(f, 3)):
            assert value == 0j and type(value) is complex


@pytest.fixture
def fresh_tables():
    """Empty form-table cache before and after the test, so no table built
    from a stand-in coefficient outlives it."""
    _form_table.cache_clear()
    yield
    _form_table.cache_clear()


def test_routes_never_share_a_table(monkeypatch, fresh_tables):
    a = random_exact_series(random.Random(23), 3)
    closed = z2_closed(a)
    # a closed table exists for this support; the brute route neither reads
    # it nor calls z2_coeff_closed
    monkeypatch.setattr(invariants, "z2_coeff_closed", lambda *ms: Fraction(7))
    assert zeta_invariant(a, 2) == closed
    # the swapped-in function is the one a new closed table calls
    assert z2_closed(a) != closed
    monkeypatch.undo()

    _form_table.cache_clear()
    brute = zeta_invariant(a, 2)
    monkeypatch.setattr(invariants, "z_coeff", lambda idx: Fraction(7))
    assert z2_closed(a) == brute
    monkeypatch.undo()

    # with a closed table cached, the brute route still builds its own
    _form_table.cache_clear()
    z2_closed(a)
    monkeypatch.setattr(invariants, "z_coeff", lambda idx: Fraction(7))
    assert zeta_invariant(a, 2) != closed


def test_one_table_per_support(fresh_tables):
    rng = random.Random(29)
    a, b = random_exact_series(rng, 4), random_exact_series(rng, 4)
    assert a.support == b.support and a != b
    for x, y in ((a, b), (a.to_float(), b.to_float())):
        z2_closed(x)
        value = z2_closed(y)
        info = _form_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        _form_table.cache_clear()
    assert value == pytest.approx(complex(zeta_invariant(b, 2)), rel=1e-13)


def test_coefficient_caches_are_bounded():
    # perfbench/layers.py reads z2_coeff_closed.cache_info() and
    # len(_Z_CACHE) after every traced run
    size = z2_coeff_closed.cache_info().maxsize
    assert size == _COEFF_CACHE_SIZE
    assert size >= 2048 and size & (size - 1) == 0
    for _ in raising_relation_sweep(2, 5):
        pass
    assert 0 < len(invariants._Z_CACHE) <= _COEFF_CACHE_SIZE


def test_z_cache_drops_its_oldest_entries(monkeypatch):
    monkeypatch.setattr(invariants, "_Z_CACHE", {})
    monkeypatch.setattr(invariants, "symmetrize_z",
                        lambda key: Fraction(key[1]))
    for j in range(_COEFF_CACHE_SIZE + 10):
        assert z_coeff((j, -j)) == j
    cache = invariants._Z_CACHE
    assert len(cache) == _COEFF_CACHE_SIZE
    assert next(iter(cache)) == (-10, 10) and (-9, 9) not in cache
