import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_zeta import (NonZeroSum, RationalComplex, TrigSeries, brute_n,
                          coeff_bound_check, symmetrize_z, z1_closed,
                          z2_closed, z2_coeff_closed, z_coeff,
                          z_coeff_closed, zeta, zeta_invariant)
from steklov_zeta.conformal import mu, mu_matrix, pullback_direct
from steklov_zeta.explorer import (inequality_ratio, random_positive_series,
                                   rationalize_series, sample_rng)
from steklov_zeta import invariants, lie
from steklov_zeta.invariants import (_COEFF_CACHE_SIZE, _form_table,
                                     _p1_90, _p2_90, zero_sum_multisets)
from steklov_zeta.lie import raising_relation_sweep
from steklov_zeta.scalars import RC_ZERO, ring
from steklov_zeta.trace import exact_width, trace_difference

from util import (large_rational_series, random_exact_series,
                  random_fraction, random_zero_sum_tuple, symmetrize_z_full,
                  symmetrize_z_orderings)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_recurrence_equals_the_ordering_sum_on_every_small_multiset(k):
    """Every zero-sum 2k-multiset over [-3, 3] (4, 18, 58 and 151 of them),
    each in a shuffled order so that the fixed last slot varies."""
    rng = random.Random(k)
    for ms in zero_sum_multisets(range(-3, 4), 2 * k):
        idx = tuple(rng.sample(ms, len(ms)))
        assert symmetrize_z(idx) == symmetrize_z_orderings(idx), idx


@pytest.mark.parametrize("idx", [
    (-2, -2, -2, -2, 1, 1, 1, 1, 2, 2),     # head l1 norm 14: int64
    (2, 2, 2, 1, -1, -1, -2, -2, -1, 0),    # 14: int64
    (2, 2, 2, 2, 2, -2, -2, -2, -2, -2),    # 18: Python ints
])
def test_recurrence_equals_the_ordering_sum_at_k5(idx):
    assert symmetrize_z(idx) == symmetrize_z_orderings(idx)


@pytest.mark.parametrize("idx, fits", [
    ((60, 60, -50, -50, 38, -58), True),    # h = 258, the last on int64
    ((60, 60, -50, -50, 39, -59), False),   # h = 259, the first past it
])
def test_recurrence_on_either_side_of_the_int64_bound(idx, fits):
    head = idx[:-1]
    assert invariants._int64_fits(sum(map(abs, head)), len(head)) is fits
    assert symmetrize_z(idx) == symmetrize_z_orderings(idx)


def test_recurrence_walks_a_wide_range_of_n_in_blocks():
    """(j, -j) with j = 2^20 + 3 walks j + 1 values of n, several blocks of
    at most invariants._BLOCK entries, and equals |j^3 - j| / 3."""
    j = 2 ** 20 + 3
    assert (j + 1) * 2 * 2 > invariants._BLOCK
    assert symmetrize_z((j, -j)) == symmetrize_z((-j, j)) \
        == Fraction(j ** 3 - j, 3)


def test_recurrence_past_the_int64_range():
    """A head whose sum over n, sum_n O_head(n), is itself past 2^63: an
    int64 walk would wrap."""
    idx = (1000, 1000, -900, -900, -900, 700)
    z = symmetrize_z(idx)
    assert z * math.factorial(5) / (2 * 2 * 6) > 2 ** 63
    assert z == symmetrize_z_orderings(idx)


# _BLOCK values for the block walk: the default; about one row of the
# widest six-slot pattern over [-3, 3] per chunk (2 x 32 sub-multisets x 16
# values of n); one column per chunk, so that every row of l1 norm h >= 1
# spans several chunks
WALK_BLOCKS = pytest.mark.parametrize("walk_block", [None, 1024, 2],
                                      ids=["default", "row", "column"])


@functools.lru_cache(maxsize=None)
def _ordering_coeff(*ms) -> Fraction:
    """symmetrize_z_orderings as a coefficient function, memoized."""
    return symmetrize_z_orderings(ms)


def _ordering_sums(rows):
    return [_ordering_coeff(*ms) for ms in rows]


@WALK_BLOCKS
@pytest.mark.parametrize("slots", [2, 4, 6, 8])
def test_block_walk_equals_the_ordering_sum(monkeypatch, slots, walk_block):
    """Every zero-sum multiset over [-3, 3] (4, 18, 58 and 151 of them) in
    one block, and each of its rows alone."""
    if walk_block:
        monkeypatch.setattr(invariants, "_BLOCK", walk_block)
    rows = list(zero_sum_multisets(range(-3, 4), slots))
    expected = _ordering_sums(rows)
    assert invariants._z_block(rows) == expected
    assert [symmetrize_z(ms) for ms in rows] == expected


@WALK_BLOCKS
def test_block_walk_on_either_side_of_the_int64_bound(monkeypatch,
                                                      walk_block):
    """Six slots over (-300, -1, 0, 1, 300): heads of l1 norm 3 and 900
    share the pattern (2, 2, 1), so one group runs on int64 and on Python
    ints."""
    if walk_block:
        monkeypatch.setattr(invariants, "_BLOCK", walk_block)
    rows = list(zero_sum_multisets((-300, -1, 0, 1, 300), 6))
    fits = {invariants._int64_fits(sum(map(abs, ms[:-1])), 5) for ms in rows}
    assert fits == {True, False}
    assert {(-1, -1, 0, 0, 1, 1), (-300, -300, 0, 0, 300, 300)} <= set(rows)
    assert invariants._z_block(rows) == _ordering_sums(rows)


def test_cold_brute_table_walks_once_per_pattern(monkeypatch, fresh_tables):
    """A cold degree-3 Z_3 table looks up one lattice per multiplicity
    pattern of its heads (7), not one per multiset (58), and leaves the
    coefficient cache of single lookups alone."""
    lattices = []
    lattice = invariants._lattice

    def counting(counts):
        lattices.append(counts)
        return lattice(counts)

    monkeypatch.setattr(invariants, "_lattice", counting)
    monkeypatch.setattr(invariants, "_Z_CACHE", {})
    a = random_exact_series(random.Random(37), 3)
    zeta_invariant(a, 3)
    patterns = {tuple(sorted(Counter(ms[:-1]).values(), reverse=True))
                for ms in zero_sum_multisets(a.support, 6)}
    assert sorted(lattices) == sorted(patterns) and len(patterns) == 7
    assert invariants._Z_CACHE == {}


@pytest.mark.parametrize("block", [1, 2, 7, None])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("slots, support", [
    (2, tuple(range(-3, 4))), (4, tuple(range(-3, 4))),
    (6, tuple(range(-3, 4))), (6, (-7, -2, 0, 1, 3, 5))],
    ids=["2-dense", "4-dense", "6-dense", "6-sparse"])
def test_brute_table_equals_the_ordering_sum_build(monkeypatch, slots,
                                                  support, backend, block):
    """The brute table, built by the block walk, against the term-by-term
    build with the ordering sum as its coefficient: the same bits."""
    if block:
        monkeypatch.setattr(invariants, "_TABLE_BLOCK", block)
    rows, starts, weights, den = flat_table(support, slots,
                                            invariants._z_block, backend)
    ref_rows, ref_starts, ref_weights, ref_den = reference_form_table(
        support, slots, _ordering_coeff, backend)
    assert len(ref_weights) > 0
    assert rows.dtype == ref_rows.dtype and np.array_equal(rows, ref_rows)
    assert starts.dtype == ref_starts.dtype
    assert np.array_equal(starts, ref_starts)
    assert den == ref_den
    if backend == "exact":
        assert weights.dtype == object
        assert all(type(w) is int for w in weights)
        assert weights.tolist() == ref_weights
    else:
        assert weights.dtype == ref_weights.dtype
        assert weights.tobytes() == ref_weights.tobytes()


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
#
# The paper's quintics on the two normal regions of a zero-sum quadruple
# (see image_search_z2_coeff), and their averages over the orders of the
# symmetric slots: all of (i, j, k) for P1, (j, k) for P2.  The library
# evaluates the averages in their symmetric variables; these literal forms
# are the oracle.


def _q1(i: int, j: int, k: int) -> int:
    return (3 * i**5 + 15 * i**4 * j + 10 * i**3 * j**2 + 10 * i**3 * j * k
            - 5 * i**3 - 25 * i**2 * j - 10 * i * j * k + 2 * i)


def _p1(i: int, j: int, k: int) -> Fraction:
    total = sum(_q1(*p) for p in itertools.permutations((i, j, k)))
    return Fraction(total, 6 * 15)


def _q2(i: int, j: int, k: int) -> int:
    return (5 * i**5 + 25 * i**4 * j + 10 * i**3 * j**2 + 20 * i**3 * j * k
            - 10 * i**2 * j**3 - 15 * i * j**4 - 20 * i * j**3 * k
            - 4 * j**5 - 5 * j**4 * k + 10 * j**3 * k**2
            - 5 * i**3 - 15 * i**2 * j + 5 * i * j**2 - 5 * j**2 * k + 4 * j)


def _p2(i: int, j: int, k: int) -> Fraction:
    return Fraction(_q2(i, j, k) + _q2(i, k, j), 2 * 45)


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
    # the oracle quintics are odd, and the library's symmetric forms are 90
    # times them, hence odd too
    for i, j, k in itertools.product(range(-6, 7), repeat=3):
        assert _p1(-i, -j, -k) == -_p1(i, j, k)
        assert _p2(-i, -j, -k) == -_p2(i, j, k)
        assert _p1_90(i, j, k) == 90 * _p1(i, j, k)
        assert _p2_90(i, j, k) == 90 * _p2(i, j, k)
        assert _p1_90(-i, -j, -k) == -_p1_90(i, j, k)
        assert _p2_90(-i, -j, -k) == -_p2_90(i, j, k)
    assert _p1_90(2, 0, 0) == 120  # 90 * 4/3, as in the module comment


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


def recursive_zero_sum_multisets(values, slots, total=0):
    """The earlier recursive enumerator, kept as the oracle, with its
    target moved from 0 to total."""
    vals = sorted(set(values))
    if not vals:
        return
    vmax = vals[-1]
    out = []

    def rec(start, left, rest):
        if left == 0:
            if rest == 0:
                yield tuple(out)
            return
        if left * vmax < rest:
            return
        for i in range(start, len(vals)):
            v = vals[i]
            if left * v > rest:
                break
            out.append(v)
            yield from rec(i, left - 1, rest - v)
            out.pop()

    yield from rec(0, slots, total)


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
            for total in (-1, 1, rng.randint(-30, 30)):
                got = list(zero_sum_multisets(values, slots, total))
                assert got == list(recursive_zero_sum_multisets(
                    values, slots, total)), (values, slots, total)


def test_zero_sum_multisets_is_a_generator():
    gen = zero_sum_multisets(range(-3, 4), 4)
    assert iter(gen) is gen
    assert next(gen) == (-3, -3, 3, 3)
    assert list(zero_sum_multisets((1, -1), 0)) == [()]
    assert list(zero_sum_multisets((), 0)) == []
    assert list(zero_sum_multisets((1, -1), 0, 1)) == []
    assert list(zero_sum_multisets((1, -1), 1, -1)) == [(-1,)]


@pytest.mark.parametrize("args, message", [
    (((1, -1), None), "index None is not an integer"),
    (((1, -1), 2.0), "index 2.0 is not an integer"),
    (((1, -1), -1), "slots must be >= 0, got -1"),
    (((1, -1), 2, 0.5), "index 0.5 is not an integer"),
    (((1.5, -1.5, 0), 2), "index 1.5 is not an integer")],
    ids=["slots-none", "slots-float", "slots-negative", "total-float",
         "values-float"])
def test_zero_sum_multisets_checks_its_arguments(args, message):
    # at the call, before the first multiset is asked for
    with pytest.raises(ValueError, match=message):
        zero_sum_multisets(*args)


def test_zero_sum_multisets_takes_integer_like_arguments():
    got = list(zero_sum_multisets(np.arange(-2, 3), np.int64(2), True))
    assert got == [(-1, 2), (0, 1)]
    assert all(type(j) is int for ms in got for j in ms)

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


def test_z2_coeff_closed_equals_image_search_on_large_random_quadruples():
    rng = random.Random(20261018)
    for _ in range(3000):
        q = list(random_zero_sum_tuple(rng, 2, 5000))
        rng.shuffle(q)
        got = z2_coeff_closed.__wrapped__(*q)
        assert got == image_search_z2_coeff(*q), q


def _unit_coeff(*ms) -> Fraction:
    return Fraction(1)


def test_orderings_is_the_multinomial_count():
    # with every coefficient 1 a table weight is the orderings alone; a
    # table column is one multiset, as pair indices p * S + q
    for support in (tuple(range(-3, 4)), (-5, -2, 0, 1, 4)):
        for slots in (2, 4, 6):
            pairs, _, weights, den = flat_table(support, slots, _unit_coeff,
                                                "exact")
            assert den == 1
            assert pairs.shape == (slots // 2, len(weights))
            assert len(weights) > 0
            for column, w in zip(pairs.T.tolist(), weights):
                ms = tuple(support[p] for pair in column
                           for p in divmod(pair, len(support)))
                assert w == len(set(itertools.permutations(ms))), ms


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


def complex_dyadic_series(degree: int, seed: int):
    """(float series, exact copy): a non-real series with every coefficient
    on [-degree, degree], and the same dyadic coefficients as Fractions."""
    rng = sample_rng(seed, degree)
    f = TrigSeries.from_complex(
        {n: complex(*rng.uniform(-1.0, 1.0, 2)) for n in range(-degree,
                                                             degree + 1)})
    exact = TrigSeries.exact({n: RationalComplex(Fraction(v.real),
                                                 Fraction(v.imag))
                              for n, v in f.items()})
    return f, exact


@pytest.mark.parametrize("form, degree", [
    (z1_closed, 8), (z2_closed, 8), (lambda a: zeta_invariant(a, 3), 3)],
    ids=["z1", "z2", "z3"])
def test_float_pair_table_matches_exact(form, degree):
    # the float table reads 1, 2 and 3 pair products per row for Z_1, Z_2
    # and Z_3; any pair that is not two slots of the same row moves the sum
    f, exact = complex_dyadic_series(degree, 20261018)
    approx, ref = form(f), form(exact)
    assert type(approx) is complex
    err = abs(complex(float(Fraction(approx.real) - ref.re),
                      float(Fraction(approx.imag) - ref.im)))
    assert err <= 1e-13 * abs(complex(ref))



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
    # (its tables take their coefficients from the module's _z_block)
    _form_table.cache_clear()
    z2_closed(a)
    monkeypatch.setattr(invariants, "_z_block",
                        lambda rows: [Fraction(7)] * len(rows))
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


def flat_table(support, slots, coeff, backend):
    """A new _form_table with each term's pairs as flat indices p * S + q
    into the S x S pair space, reference_form_table's layout:
    (pairs, starts, weights, den)."""
    ends, pairs, starts, weights, den = _form_table.__wrapped__(
        support, slots, coeff, backend)
    return ends[0][pairs] * len(support) + ends[1][pairs], starts, weights, den


def reference_form_table(support, slots, coeff, backend):
    """The term-by-term table build, one multiset at a time, kept as the
    oracle for the table's pairs, group starts, weights and den.  A group
    starts at each term whose first two slots differ from the last term's."""
    where = {v: i for i, v in enumerate(support)}
    rows, starts, weights = [], [], []
    for ms in zero_sum_multisets(support, slots):
        c = coeff(*ms)
        if not c:
            continue
        if not rows or ms[:2] != tuple(support[p] for p in rows[-1][:2]):
            starts.append(len(rows))
        rows.append([where[v] for v in ms])
        o = math.factorial(slots)
        for run in Counter(ms).values():
            o //= math.factorial(run)
        weights.append(c * o if backend == "exact"
                       else c.numerator * o / c.denominator)
    rows = np.array(rows, dtype=np.intp).reshape(len(rows), slots)
    pairs = np.ascontiguousarray(
        (rows[:, 0::2] * len(support) + rows[:, 1::2]).T)
    starts = np.array(starts, dtype=np.intp)
    if backend == "exact":
        den = math.lcm(*(w.denominator for w in weights))
        return pairs, starts, [w.numerator * (den // w.denominator)
                               for w in weights], den
    return pairs, starts, np.array(weights, dtype=float), 1


def term_by_term_form_sum(a, slots, coeff):
    """The exact form sum, kept as the oracle of _form_sum: per zero-sum
    multiset, the Fraction weight coefficient * orderings times the product
    of its coefficients in RationalComplex arithmetic, summed row by row.
    It shares no denominator clearing with the code it checks."""
    total = RC_ZERO
    for ms in zero_sum_multisets(a.support, slots):
        c = coeff(*ms)
        if c:
            o = math.factorial(slots)
            for run in Counter(ms).values():
                o //= math.factorial(run)
            prod = RationalComplex(c * o)
            for v in ms:
                prod = prod * a.coeff(v)
            total = total + prod
    return total


def _six_slot_coeff(*ms) -> Fraction:
    """A stand-in coefficient with zeros and mixed denominators (the brute
    six-slot coefficient is too slow for thousands of multisets)."""
    return Fraction((ms[0] * ms[-1] + ms[2]) % 7, 1 + ms[1] % 5)


SPARSE_SUPPORT = (-29, -17, -11, -6, -2, 0, 1, 2, 6, 7, 11, 18, 25, 29)


TABLE_CASES = pytest.mark.parametrize("slots, coeff, support", [
    (2, invariants._pair_coeff_closed, tuple(range(-30, 31))),
    (4, z2_coeff_closed, tuple(range(-30, 31))),
    # range(-30, 31) holds 787,986 six-slot multisets
    (6, _six_slot_coeff, tuple(range(-12, 13))),
    (2, invariants._pair_coeff_closed, SPARSE_SUPPORT),
    (4, z2_coeff_closed, SPARSE_SUPPORT),
    (6, _six_slot_coeff, SPARSE_SUPPORT)],
    ids=["2-dense", "4-dense", "6-dense", "2-sparse", "4-sparse", "6-sparse"])


@pytest.mark.parametrize("backend", ["exact", "float"])
@TABLE_CASES
def test_form_table_equals_term_by_term_build(slots, coeff, support,
                                              backend):
    rows, starts, weights, den = flat_table(support, slots, coeff, backend)
    ref_rows, ref_starts, ref_weights, ref_den = reference_form_table(
        support, slots, coeff, backend)
    assert len(ref_weights) > 0
    assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
    assert np.array_equal(rows, ref_rows)
    assert starts.dtype == ref_starts.dtype
    assert np.array_equal(starts, ref_starts)
    assert den == ref_den
    if backend == "exact":
        assert weights.dtype == object
        assert all(type(w) is int for w in weights)
        assert weights.tolist() == ref_weights
    else:
        assert weights.dtype == ref_weights.dtype
        assert weights.tobytes() == ref_weights.tobytes()


@TABLE_CASES
def test_first_pairs_are_non_decreasing(slots, coeff, support):
    # _form_sum sums each run of equal first pairs as one group, so every
    # run must be one contiguous block; the table is not sorted, it relies
    # on the lexicographic order of zero_sum_multisets
    for backend in ("exact", "float"):
        first = _form_table.__wrapped__(support, slots, coeff, backend)[1][0]
        assert len(first) > 0
        assert np.all(first[1:] >= first[:-1])


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("backend", ["exact", "float"])
@TABLE_CASES
def test_form_table_is_the_same_in_any_block(monkeypatch, slots, coeff,
                                             support, backend, block):
    # runs of equal first pairs cross the block edges; starts and den are
    # taken over the joined blocks
    monkeypatch.setattr(invariants, "_TABLE_BLOCK", block)
    test_form_table_equals_term_by_term_build(slots, coeff, support, backend)


@pytest.mark.parametrize("slots, coeff, block", [
    (4, z2_coeff_closed, 31),   # all 31 multisets in one block
    (6, _six_slot_coeff, 79),   # 237 multisets in three blocks
    (6, _six_slot_coeff, 67)],  # 201 terms in three blocks of terms
    ids=["4-one-block", "6-three-blocks", "6-three-term-blocks"])
def test_form_table_over_a_whole_number_of_blocks(monkeypatch, slots, coeff,
                                                  block):
    """A full last block is followed by one more, empty read."""
    multisets = sum(1 for _ in zero_sum_multisets(SPARSE_SUPPORT, slots))
    terms = len(reference_form_table(SPARSE_SUPPORT, slots, coeff,
                                     "float")[2])
    assert multisets % block == 0 or terms % block == 0
    blocks = []
    table_block = invariants._table_block

    def counting_block(*args):
        out = table_block(*args)
        blocks.append(out[0])
        return out

    monkeypatch.setattr(invariants, "_TABLE_BLOCK", block)
    monkeypatch.setattr(invariants, "_table_block", counting_block)
    for backend in ("exact", "float"):
        blocks.clear()
        test_form_table_equals_term_by_term_build(slots, coeff,
                                                  SPARSE_SUPPORT, backend)
        assert blocks == [block] * (multisets // block) + [multisets % block]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("support", [(), (1, 2)], ids=["empty", "no-zero-sum"])
def test_form_table_without_terms(support, backend):
    ends, pairs, starts, weights, den = _form_table.__wrapped__(
        support, 4, z2_coeff_closed, backend)
    assert ends.shape == (2, 0) and ends.dtype == pairs.dtype
    pairs = ends[0][pairs] * len(support) + ends[1][pairs]
    ref_pairs, ref_starts, ref_weights, ref_den = reference_form_table(
        support, 4, z2_coeff_closed, backend)
    assert pairs.shape == ref_pairs.shape == (2, 0)
    assert pairs.dtype == ref_pairs.dtype
    assert starts.dtype == ref_starts.dtype and len(starts) == 0
    assert weights.dtype == (object if backend == "exact" else float)
    assert len(weights) == len(ref_weights) == 0
    assert den == ref_den == 1


_COLD_TABLE_MEMORY = """
import tracemalloc
from steklov_zeta import invariants
tracemalloc.start()
table = invariants._form_table(tuple(range(-60, 61)), 4,
                               invariants.z2_coeff_closed, "float")
kept, peak = tracemalloc.get_traced_memory()
print(kept, peak, sum(a.nbytes for a in table[:3]))
"""


def test_cold_table_build_peaks_below_twice_what_it_keeps():
    """The cold closed Z_2 table of a degree-60 support, built in a fresh
    interpreter (no table or coefficient cache warmed by other tests), peaks
    at most at twice the memory it leaves allocated: the table and the
    coefficient cache.  A build that holds the whole table in Python lists
    before numpy sees it peaks at about 3.6 times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _COLD_TABLE_MEMORY],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    kept, peak, table = map(int, proc.stdout.split())
    assert table <= kept <= peak <= 2 * kept, (kept, peak, table)


def _sparse_exact_series(rng):
    return TrigSeries.exact({n: RationalComplex(random_fraction(rng),
                                                random_fraction(rng))
                             for n in SPARSE_SUPPORT})


ORACLE_FORMS = {
    "z1": (z1_closed, 2, invariants._pair_coeff_closed),
    "z2": (z2_closed, 4, z2_coeff_closed),
    "z3": (lambda a: zeta_invariant(a, 3), 6, lambda *ms: z_coeff(ms)),
}


@pytest.mark.parametrize("series", ["dense", "sparse", "empty-table"])
@pytest.mark.parametrize("form", sorted(ORACLE_FORMS))
def test_form_sum_equals_term_by_term_oracle(form, series):
    evaluate, slots, coeff = ORACLE_FORMS[form]
    rng = random.Random(31)
    if series == "dense":
        # degree 30 for Z_1 and Z_2; Z_3 at degree 30 would need 787,986
        # brute six-slot coefficients, so its dense series has degree 3
        a = random_exact_series(rng, 3 if form == "z3" else 30)
    elif series == "sparse":
        a = _sparse_exact_series(rng)
    else:
        a = TrigSeries.exact({1: 2, 2: (1, 1)})  # no zero-sum multiset
    value = evaluate(a)
    assert isinstance(value, RationalComplex)
    assert value == term_by_term_form_sum(a, slots, coeff)
    assert (value == RC_ZERO) == (series == "empty-table")


def _dense_float_series(degree: int) -> TrigSeries:
    """A float series on every n in [-degree, degree] whose coefficients
    are quotients of small integers, the same bits on every platform."""
    return TrigSeries.from_complex({
        n: complex((1 + 7 * n % 11) / (3 + n * n),
                   (5 * n % 13 - 6) / (7 + abs(n)))
        for n in range(-degree, degree + 1)})


@pytest.mark.parametrize("degree, form, bits", [
    (60, "z1", ("0x1.d4e83bdffd598p+12", "0x1.914c7d9f52d9dp+4")),
    (60, "z2", ("0x1.c064115c3cc82p+27", "0x1.baea0b73a7d0cp+28")),
    (5, "z1", ("0x1.0c75a4d7590abp+5", "0x1.3a730ba16a78ap+4")),
    (5, "z2", ("0x1.0555ca07edb2bp+13", "0x1.74b3a89bb1b69p+11")),
    (5, "z3", ("0x1.306abcee2bcdbp+23", "0x1.0568b0e29b5c0p+20"))])
def test_float_form_bits_are_pinned(degree, form, bits):
    # the bits of the closed Z_1, Z_2 and brute Z_3 float sums, which an
    # evaluator change that reorders a sum would move
    z = ORACLE_FORMS[form][0](_dense_float_series(degree))
    assert (z.real.hex(), z.imag.hex()) == bits


def test_float_result_that_overflows_raises():
    a = TrigSeries.from_complex({n: 1e100 for n in (-2, 0, 2)})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite.*exact backend"):
            z2_closed(a)
        with pytest.raises(ValueError, match="not finite.*exact backend"):
            trace_difference(a, 2, exact_width(a, 2))
    assert complex(z1_closed(TrigSeries.from_complex(
        {n: 1e100 for n in (-2, 2)}))) == pytest.approx(4e200)


SLICE_FORMS = pytest.mark.parametrize("slots, coeff", [
    (2, invariants._pair_coeff_closed), (4, z2_coeff_closed),
    (6, invariants._z_block)], ids=["z1", "z2", "brute-z3"])


def _row_block(exact: bool, rows: int, support: tuple):
    """(vec, mul) of a block of random rows on support in the ring of
    scalars.ring: (rows, S) complex128, or the (2, rows, S) stack of ints
    over one D for all rows."""
    rng = random.Random(43)
    if not exact:
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(rows * len(support))]
    else:
        values = [RationalComplex(random_fraction(rng), random_fraction(rng))
                  for _ in range(rows * len(support))]
    vec, _, mul = ring(values, exact)
    return vec.reshape(*vec.shape[:-1], rows, len(support)), mul


@pytest.mark.parametrize("step", [1, 2, 7, None],
                         ids=["1-row", "2-rows", "7-rows", "one-slice"])
@pytest.mark.parametrize("backend", ["exact", "float"])
@SLICE_FORMS
def test_form_sum_of_a_block_is_each_row_alone(monkeypatch, slots, coeff,
                                               backend, step):
    """_form_sum walks a block's rows in slices of _SUM_BLOCK // M rows for
    a table of M terms; each row's sum has the same bits as the row on its
    own, whatever the slices."""
    support = tuple(range(-4, 5))
    exact = backend == "exact"
    rows = 10
    vec, mul = _row_block(exact, rows, support)
    terms = len(_form_table(support, slots, coeff, backend)[3])
    assert terms > 0
    monkeypatch.setattr(invariants, "_SUM_BLOCK", terms * (step or rows))
    products = []

    def spy(x, y, *args):
        products.append(x.shape[-2])
        return mul(x, y, *args)

    block, den = invariants._form_sum(support, vec, spy, slots, coeff)
    # a slice takes slots / 2 products, the first its rows' pair product
    slices = products[::slots // 2]
    assert len(products) == len(slices) * (slots // 2)
    if step:
        assert slices == [step] * (rows // step) + [rows % step] * (
            rows % step > 0)
    else:
        assert slices == [rows]
    for i in range(rows):
        row = vec[..., i:i + 1, :]
        alone, alone_den = invariants._form_sum(support, row, mul, slots,
                                                coeff)
        assert alone_den == den
        if exact:
            assert all(type(z) is int for z in block[:, i])
            assert block[:, i].tolist() == alone[:, 0].tolist()
        else:
            assert block[i].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("backend", ["exact", "float"])
@TABLE_CASES
def test_table_ends_are_the_used_pairs(slots, coeff, support, backend):
    ends, pairs, *_ = _form_table.__wrapped__(support, slots, coeff, backend)
    ref_pairs = reference_form_table(support, slots, coeff, backend)[0]
    used = sorted({divmod(p, len(support)) for p in ref_pairs.ravel().tolist()})
    assert list(map(tuple, ends.T.tolist())) == used
    assert np.all(ends[0] <= ends[1])
    assert pairs.min() == 0 and pairs.max() == len(used) - 1


@pytest.mark.parametrize("backend", ["exact", "float"])
@SLICE_FORMS
def test_form_sum_multiplies_only_the_used_pairs(slots, coeff, backend):
    """The pair products are taken on the used pairs of the table only (14
    for Z_1 at n0 = 15 against the 961 of the whole S x S pair space), and
    no product is ever S x S."""
    support = tuple(range(-15, 16)) if slots < 6 else tuple(range(-4, 5))
    S = len(support)
    used = len(_form_table(support, slots, coeff, backend)[0][0])
    vec, mul = _row_block(backend == "exact", 3, support)
    shapes = []

    def spy(x, y, *args):
        shapes.append((x.shape, y.shape))
        return mul(x, y, *args)

    invariants._form_sum(support, vec, spy, slots, coeff)
    assert shapes[0] == (vec.shape[:-1] + (used,),) * 2
    assert used < S * S
    if slots == 2:
        assert used == 14
    for shape in itertools.chain(*shapes):
        assert shape[-1] != S * S and shape[-2:] != (S, S)


def test_exact_forms_with_large_numerators_and_denominators():
    for a in large_rational_series():
        for k in (1, 2, 3):
            assert zeta_invariant(a, k) == term_by_term_form_sum(
                a, 2 * k, lambda *ms: z_coeff(ms))
        assert z1_closed(a) == term_by_term_form_sum(
            a, 2, invariants._pair_coeff_closed)
        assert z2_closed(a) == term_by_term_form_sum(a, 4, z2_coeff_closed)


def test_closed_table_calls_the_module_coefficient_once_per_multiset(
        monkeypatch, fresh_tables):
    # the benchmark tracer counts z2_coeff_closed calls by swapping the
    # module attribute; a table build must call it once per multiset that
    # the module's zero_sum_multisets yields
    yielded, called = [], []
    enumerate_multisets = invariants.zero_sum_multisets
    closed = invariants.z2_coeff_closed

    def counting_multisets(values, slots):
        for ms in enumerate_multisets(values, slots):
            yielded.append(ms)
            yield ms

    def counting_coeff(*ms):
        called.append(ms)
        return closed(*ms)

    monkeypatch.setattr(invariants, "zero_sum_multisets", counting_multisets)
    monkeypatch.setattr(invariants, "z2_coeff_closed", counting_coeff)
    f, exact = complex_dyadic_series(8, 20261018)
    count = sum(1 for _ in enumerate_multisets(f.support, 4))
    for a in (f, exact):
        del yielded[:], called[:]
        z2_closed(a)
        assert len(called) == len(yielded) == count == 177
        assert called == yielded
        z2_closed(a)  # a warm table calls neither
        assert len(called) == len(yielded) == count


def test_brute_table_calls_the_module_walk_once_per_block(monkeypatch,
                                                          fresh_tables):
    # the brute route passes _z_block itself; a new table calls the one the
    # module binds once per block of multisets (a last, shorter one
    # included, empty after a full block) and no single-lookup coefficient
    blocks = []
    walk = invariants._z_block

    def counting_walk(rows):
        blocks.append(list(rows))
        return walk(rows)

    a = random_exact_series(random.Random(41), 3)
    multisets = list(zero_sum_multisets(a.support, 6))
    expected = zeta_invariant(a, 3)
    _form_table.cache_clear()
    monkeypatch.setattr(invariants, "_TABLE_BLOCK", 7)
    monkeypatch.setattr(invariants, "_z_block", counting_walk)
    monkeypatch.setattr(invariants, "z_coeff", None)
    monkeypatch.setattr(invariants, "symmetrize_z", None)
    assert zeta_invariant(a, 3) == expected
    assert [len(rows) for rows in blocks] == (
        [7] * (len(multisets) // 7) + [len(multisets) % 7])
    assert sum(blocks, []) == multisets
    zeta_invariant(a, 3)  # a warm table walks no block
    assert len(blocks) == len(multisets) // 7 + 1


# one index check -----------------------------------------------------------


@pytest.mark.parametrize("call, bad", [
    (lambda: z_coeff((2.5, -2.5)), "2.5"),
    (lambda: brute_n((2.9, -2.9)), "2.9"),
    (lambda: symmetrize_z((1, Fraction(1, 2), -1, Fraction(-1, 2))),
     "Fraction"),
    (lambda: coeff_bound_check((1.0, -1)), "1.0"),
    (lambda: z_coeff_closed(("1", "-1")), "'1'"),
    (lambda: z_coeff_closed((1.5, -1.5)), "1.5"),
    (lambda: z_coeff_closed((1, -1, 0.5, -0.5)), "0.5"),
    (lambda: z2_coeff_closed(1.5, -1.5, 0, 0), "1.5"),
    (lambda: lie.raising_relation_check((0.5, -1.5)), "0.5"),
    (lambda: lie.lowering_relation_check(("2", -1), "closed"), "'2'")],
    ids=["z_coeff", "brute_n", "symmetrize_z", "coeff_bound_check",
         "closed-str", "closed-pair", "closed-quad", "z2_coeff_closed",
         "raising", "lowering"])
def test_non_integer_indices_raise_value_error(call, bad):
    with pytest.raises(ValueError, match=f"index .*{bad}.* is not an integer"):
        call()


_ORDER_SERIES = TrigSeries.exact({1: 1, -1: 1, 2: (1, 2)})


@pytest.mark.parametrize("call, message", [
    (lambda: zeta_invariant(_ORDER_SERIES, 1.5), "index 1.5 is not"),
    (lambda: zeta_invariant(_ORDER_SERIES, 0), "order k must be >= 1, got 0"),
    (lambda: zeta(_ORDER_SERIES, "3"), "index '3' is not"),
    (lambda: zeta(_ORDER_SERIES, 2.0), "index 2.0 is not"),
    (lambda: inequality_ratio(TrigSeries.exact({2: 1, -2: 1}), 1.0),
     "index 1.0 is not"),
    (lambda: trace_difference(_ORDER_SERIES, 1.5, 10), "index 1.5 is not"),
    (lambda: trace_difference(_ORDER_SERIES, -1, 10), "got -1"),
    (lambda: exact_width(_ORDER_SERIES, 0), "order k must be >= 1, got 0"),
    (lambda: exact_width(_ORDER_SERIES, 2.0), "index 2.0 is not"),
    (lambda: mu("2", 1, Fraction(1, 2)), "index '2' is not"),
    (lambda: mu(2, 1.0, 0.5), "index 1.0 is not"),
    (lambda: mu_matrix(Fraction(1, 2), 2.5), "index 2.5 is not"),
    (lambda: mu_matrix(0.5, 0), "half-width must be >= 1")],
    ids=["zeta_invariant-float", "zeta_invariant-zero", "zeta-str",
         "zeta-float", "inequality_ratio-float",
         "trace_difference-float", "trace_difference-negative",
         "exact_width-zero", "exact_width-float", "mu-n", "mu-k",
         "mu_matrix-float", "mu_matrix-zero"])
def test_order_and_sizes_raise_value_error(call, message):
    """k and the size of mu_matrix go through fourier._size, the indices of
    mu through fourier._indices: a ValueError, never a TypeError or a
    silent value."""
    with pytest.raises(ValueError, match=message):
        call()


def test_a_cached_quadruple_does_not_admit_floats():
    assert z2_coeff_closed(2, -2, 0, 0) == Fraction(4, 3)
    with pytest.raises(ValueError, match="is not an integer"):
        z2_coeff_closed(2.0, -2.0, 0, 0)


def test_integer_like_indices_are_accepted():
    two = np.int64(2)
    assert z_coeff((two, -two)) == z_coeff((2, -2)) == 2
    assert brute_n((two, np.int32(-2))) == 2
    got = z2_coeff_closed(two, -two, np.int64(0), 0)
    assert got == Fraction(4, 3) and type(got) is Fraction
    assert z_coeff_closed((True, -1)) == z_coeff_closed((1, -1)) == 0
    assert lie.raising_relation_check((two, np.int64(-3)), "closed") == 0
    assert exact_width(_ORDER_SERIES, two) == 3
    assert mu(two, np.int64(1), Fraction(1, 2)) == mu(2, 1, Fraction(1, 2))
