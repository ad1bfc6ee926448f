"""Zeta-invariants of a weight function on the circle.

For a series a with coefficients a_n, the invariants are the 2k-forms

    Z_k(a) = sum_{j_1 + ... + j_{2k} = 0} N_{j_1...j_{2k}} a_{j_1} ... a_{j_{2k}},

    N_{j_1...j_{2k}} = sum_n ( |f(n)| - f(n) ),
    f(n) = n (n + j_1) (n + j_1 + j_2) ... (n + j_1 + ... + j_{2k-1}).

Only finitely many n contribute: f is a monic polynomial of degree 2k whose
roots lie in [-|j|, |j|] with |j| = |j_1| + ... + |j_{2k}|, so the sum runs
over that integer interval.  N coefficients are non-negative even integers,
invariant under cyclic index shifts and under flipping the signs of all
indices, but not fully symmetric; the symmetrized coefficients

    Z_{j_1...j_{2k}} = (1/(2k-1)!) sum over permutations of the first 2k-1
                       slots of N with the last slot fixed

are fully symmetric and define the same form.  Everything here is exact:
coefficients are big integers or Fractions, never floats.

Closed forms are implemented for the two lowest orders: the pair
coefficient Z_{j,-j} = |j^3 - j| / 3, and the quadruple coefficients, which
are piecewise odd quintic polynomials evaluated after canonicalizing the
quadruple under permutations and a global sign flip.

Every form is summed from a table that depends only on the support of a,
not on its values: the zero-sum multisets of support values, as pair
indices into the outer product of the coefficient vector, each with its
weight coefficient times orderings, grouped by their first pair (see
_form_table).  A table is cached on (support, slots, coefficient function,
backend), so a series with a new support pays the build once and every
later series on that support pays one gather per pair of slots after the
first, a product, a sum per group, one gather of the distinct first pairs
and a sum.  A build calls the coefficient function once per zero-sum
multiset, which is most of its cost (the coefficient caches never hit
there), and does the rest of its bookkeeping in numpy and on ints; the
closed Z_2 table of a degree-60 support, 51,071 multisets, takes about
0.2 s, against about 0.5 ms for a warm float Z_2 of a degree-60 series
(2-vCPU x86_64 VM, Python 3.11).  Both backends run one evaluator
(_form_sum) on rows of coefficients on the ring of scalars.ring; a series
is one row, and the campaign of explorer passes a block of rows on one
support.  Exact values are exact; float values may differ from a
term-by-term loop in the last bits (another order), but not between a row
alone and the same row in a block.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NonZeroSum
from .fourier import EXACT, TrigSeries, _indices, _size
from .scalars import join, ring


def _validate_index(indices) -> tuple:
    """The multi-index as a tuple of Python ints, of even length >= 2.

    Every entry goes through fourier._indices, the library's one integer
    check (a float or a string raises a ValueError naming it); lie's
    relation checks, z_coeff_closed and a z2_coeff_closed miss call it too.
    """
    idx = _indices(indices)
    if len(idx) < 2 or len(idx) % 2:
        raise ValueError(f"multi-index must have even length >= 2, "
                         f"got {tuple(idx)}")
    return tuple(idx)


def brute_n(indices) -> int:
    """Brute-force coefficient N for a zero-sum multi-index.

    Sums |f(n)| - f(n) over the integer interval [-|j|, |j|] that contains
    every root of f.  Always a non-negative even integer.
    """
    idx = _validate_index(indices)
    if sum(idx) != 0:
        raise NonZeroSum(f"indices must sum to zero, got {idx}")
    partial = []
    s = 0
    for j in (0,) + idx[:-1]:
        s += j
        partial.append(s)
    span = sum(abs(j) for j in idx)
    total = 0
    for n in range(-span, span + 1):
        p = 1
        for s in partial:
            f = n + s
            if f == 0:
                p = 0
                break
            p *= f
        if p < 0:
            total -= 2 * p
    return total


def symmetrize_z(indices) -> Fraction:
    """Symmetrized coefficient Z for a zero-sum multi-index.

    Averages brute_n over the (2k-1)! permutations that fix the last slot;
    cyclic invariance of N makes this equal to the average over all (2k)!
    permutations (see symmetrize_z_full, kept as a cross-check).
    """
    idx = _validate_index(indices)
    if sum(idx) != 0:
        raise NonZeroSum(f"indices must sum to zero, got {idx}")
    last = idx[-1]
    perms = Counter(itertools.permutations(idx[:-1]))
    total = sum(cnt * brute_n(p + (last,)) for p, cnt in perms.items())
    return Fraction(total, math.factorial(len(idx) - 1))


def symmetrize_z_full(indices) -> Fraction:
    """Slow full symmetrization over all (2k)! permutations; validation only."""
    idx = _validate_index(indices)
    if sum(idx) != 0:
        raise NonZeroSum(f"indices must sum to zero, got {idx}")
    perms = Counter(itertools.permutations(idx))
    total = sum(cnt * brute_n(p) for p, cnt in perms.items())
    return Fraction(total, math.factorial(len(idx)))


# Entries kept by each coefficient cache (_Z_CACHE, z2_coeff_closed).  They
# serve the relation sweeps and single lookups, which revisit keys; a k = 2,
# radius-5 raising-relation sweep (one check per multiset) touches about a
# hundred.  A table build gains nothing from them: it looks each multiset up
# once, so its hit ratio is 0.
_COEFF_CACHE_SIZE = 4096

_Z_CACHE: dict[tuple, Fraction] = {}


def z_coeff(indices) -> Fraction:
    """Symmetric coefficient Z, extended by zero off the zero-sum plane.

    Memoized on the sorted index tuple (Z is fully symmetric) in _Z_CACHE,
    which keeps the _COEFF_CACHE_SIZE newest keys.
    """
    idx = _validate_index(indices)
    if sum(idx) != 0:
        return Fraction(0)
    key = tuple(sorted(idx))
    val = _Z_CACHE.get(key)
    if val is None:
        val = symmetrize_z(key)
        if len(_Z_CACHE) >= _COEFF_CACHE_SIZE:
            del _Z_CACHE[next(iter(_Z_CACHE))]
        _Z_CACHE[key] = val
    return val


# enumeration of zero-sum index multisets -----------------------------------


def zero_sum_multisets(values, slots: int, total: int = 0):
    """Non-decreasing tuples of the given length over the distinct values
    with sum ``total``, in lexicographic order (``slots = 0``: ``()`` once
    if total = 0).  The library's one enumerator of index planes.

    Iterative depth-first search.  With running sum t and m slots left
    (this one included), a slot takes the values v >= the previous slot's
    value with t + m*v <= total (larger values overshoot, since later slots
    are no smaller) and t + v + (m-1)*max >= total (smaller ones can never
    climb back to it); both bounds are found by bisection.  The last slot
    is closed by looking up total - t among the values, not by a scan: the
    bounds of the slot before it already make total - t lie in [v, max].
    """
    vals = sorted(set(values))
    if not vals or slots < 0:
        return
    if slots < 2:  # () sums to 0, (v,) to v
        if total in (vals if slots else (0,)):
            yield (total,) * slots
        return
    present = set(vals)
    last = slots - 1
    vmax = vals[-1]
    out = [0] * slots
    sums = [0] * last       # sums[d]: running sum of out[:d]
    at = [0] * last         # next index to try in each open slot
    stop = [0] * last       # one past the last admissible index
    stop[0] = bisect_right(vals, total // slots)
    at[0] = bisect_left(vals, total - last * vmax)
    d = 0
    while d >= 0:
        i = at[d]
        if i >= stop[d]:
            d -= 1
            continue
        at[d] = i + 1
        v = vals[i]
        out[d] = v
        t = sums[d] + v
        if d + 1 < last:
            d += 1
            sums[d] = t
            left = slots - d
            at[d] = max(i, bisect_left(vals, total - t - (left - 1) * vmax))
            stop[d] = bisect_right(vals, (total - t) // left)
            continue
        if total - t in present:
            out[last] = total - t
            yield tuple(out)


@lru_cache(maxsize=16)
def _form_table(support: tuple, slots: int, coeff, backend: str):
    """The zero-sum terms of a form on one support:
    (pairs, starts, weights, den).

    There is one term per zero-sum multiset of support values whose
    coefficient coeff(*multiset) is nonzero, and its weight is coefficient
    times orderings.  pairs is the (slots/2, M) array of pair indices
    p * S + q into the S x S outer product of the coefficient vector, where
    (p, q) are the positions in the sorted support of slots (2i, 2i + 1) of
    the multiset; slots is even for every form.  For the float backend the
    weights are float64 and den is 1; for the exact one they are an object
    array of ints over one common denominator den.

    zero_sum_multisets yields in lexicographic order, so the terms come
    grouped by their first pair: pairs[0] is non-decreasing, and starts
    holds the index of the first term of each run of equal pairs[0].

    coeff is called once per multiset that zero_sum_multisets yields; the
    rest is numpy on the kept (M, slots) array of values.  Positions come
    from a search in the support.  The orderings of a sorted multiset are
    the multinomial slots! / prod(run!) over its runs of equal values, and
    prod(run!) is the product, over the slots, of the run length reached
    at each slot.  Each weight is reduced to n / d on integers, with no
    Fraction: a coefficient c is in lowest terms, so c * o reduces by
    gcd(o, c.denominator).
    """
    flat, nums, dens = [], [], []
    for ms in zero_sum_multisets(support, slots):
        c = coeff(*ms)
        if c:
            flat.extend(ms)
            nums.append(c.numerator)
            dens.append(c.denominator)
    values = np.asarray(support)
    rows = np.searchsorted(values, np.array(flat, dtype=values.dtype))
    rows = rows.reshape(len(nums), slots)
    del flat  # a Python int list of M * slots entries; keeps the peak low
    run = np.ones(len(nums), dtype=np.int64)
    runs = run.copy()
    for same in (rows[:, 1:] == rows[:, :-1]).T:
        run = np.where(same, run + 1, 1)
        runs *= run
    orderings = (math.factorial(slots) // runs).tolist()
    gcds = list(map(math.gcd, orderings, dens))
    nums = list(map(operator.mul, nums,
                    map(operator.floordiv, orderings, gcds)))
    dens = list(map(operator.floordiv, dens, gcds))
    pairs = rows[:, 0::2] * len(support) + rows[:, 1::2]
    pairs = np.ascontiguousarray(pairs.T)
    starts = np.flatnonzero(np.diff(pairs[0], prepend=-1))
    if backend == EXACT:
        den = math.lcm(*dens)
        return pairs, starts, np.array(
            [n * (den // d) for n, d in zip(nums, dens)], dtype=object), den
    # n / d is the correctly rounded quotient of the rational c * o
    return pairs, starts, np.fromiter(map(operator.truediv, nums, dens),
                                      float, len(nums)), 1


def _form_sum(support: tuple, vec, mul, slots: int, coeff, backend: str):
    """Rows of sums over zero-sum index tuples of
    coeff * a_{j_1} * ... * a_{j_slots}: (sums, den).

    vec holds the coefficients on the given sorted support as rows (..., S)
    on the ring of scalars.ring, mul its product: complex128 rows for the
    float backend, the [re; im] stack (2, ..., S) of ints over the ring's D
    for the exact one.  A TrigSeries is one row (_series_form); a campaign
    passes a block of rows on one support and pays the table lookup once.
    sums has one ring element per row, over den * D^slots.

    coeff is the coefficient function of one route, called with the indices
    of a sorted multiset: _z_coeff_of (brute), _pair_coeff_closed or
    z2_coeff_closed (closed).  The terms come from _form_table, cached on
    (support, slots, coeff, backend).  The routes pass different functions,
    so they never share a table; the caller passes the function its module
    binds at call time, so one swapped in for z2_coeff_closed (the benchmark
    tracer's counting wrapper) gets tables of its own and is the one they
    call.

    One evaluation for both backends: the outer product of each row with
    itself by broadcasting; the weights times one gather per other pair of
    slots (1 for Z_2, 2 for k = 3; none for Z_1), summed per first pair
    (see _form_table) with np.add.reduceat; times one gather of the
    distinct first pairs; one sum per row.  Every reduction runs along the
    last axis, so a row's sum is the same in a block as on its own.
    """
    pairs, starts, weights, den = _form_table(support, slots, coeff, backend)
    products = mul(vec[..., :, None], vec[..., None, :])
    products = products.reshape(*products.shape[:-2], -1)
    terms = weights  # Z_1: one pair, so every group is a single term
    if len(pairs) > 1:
        # in place: a new block-sized broadcast product takes several times
        # longer (20 rows at n0 = 15, 2-vCPU x86_64 VM: 0.3 ms against 0.05)
        terms = products.take(pairs[1], -1)
        terms *= weights
        for i in range(2, len(pairs)):  # cheaper than iterating the rows
            terms = mul(terms, products.take(pairs[i], -1))
        terms = np.add.reduceat(terms, starts, -1)
    terms = mul(terms, products.take(pairs[0][starts], -1))
    return np.add.reduce(terms, -1), den


def _series_form(a: TrigSeries, slots: int, coeff):
    """The form of one series: its items as one row of _form_sum, the sum
    joined to a backend scalar."""
    exact = a.backend == EXACT
    support, values = zip(*a.items()) if a else ((), ())
    vec, D, mul = ring(values, exact)
    z, den = _form_sum(support, vec, mul, slots, coeff, a.backend)
    return join(z, den * D ** slots, exact)


def _z_coeff_of(*indices) -> Fraction:
    """z_coeff of the given indices: the brute route's form coefficient."""
    return z_coeff(indices)


def zeta_invariant(a: TrigSeries, k: int):
    """Z_k(a) for a finite series: an exact finite sum, no tail truncation.

    Returns a backend scalar (RationalComplex or complex); the value is real
    whenever a is conjugate-symmetric.
    """
    return _series_form(a, 2 * _size(k, "order k"), _z_coeff_of)


def _pair_coeff_closed(i: int, j: int) -> Fraction:
    """Pair coefficient Z_{i,j}: |i^3 - i| / 3 when i + j = 0, else 0."""
    return Fraction(abs(i**3 - i), 3) if i + j == 0 else Fraction(0)


def z1_closed(a: TrigSeries):
    """First invariant in closed form: (1/3) sum_j |j^3 - j| a_j a_{-j}."""
    return _series_form(a, 2, _pair_coeff_closed)


# closed form for quadruple coefficients -------------------------------------
#
# A zero-sum quadruple always has a permutation/sign image in one of two
# normal regions:
#   all-same-sign:  i >= 0, j >= 0, k >= 0           (0 counts as both signs)
#   mixed-sign:     i <= 0, j >= 0, k >= 0, i+j <= 0, i+k <= 0, i+j+k >= 0
# and on each region Z is an odd quintic of the first three entries: P1, the
# paper's quintic q1 averaged over all six orders of (i, j, k), and P2, its
# q2 averaged over the two orders of (j, k).  The code evaluates them in
# those symmetries (tests/test_invariants.py keeps q1 and q2 as the oracle);
# 90 * P is an integer polynomial, so e.g. _p1_90(2, 0, 0) = 120 is
# 90 * 4/3.


def _p1_90(a: int, b: int, c: int) -> int:
    """90 * P1(a, b, c), in the elementary symmetric polynomials of a, b, c."""
    e1 = a + b + c
    e2 = a * b + b * c + c * a
    e3 = a * b * c
    sq = e1 * e1
    return (e1 * (sq * (6 * sq - 15 * e2 - 10) - 5 * e2 * e2 + 5 * e2 + 4)
            + e3 * (15 * sq - 5 * e2 - 15))


def _p2_90(i: int, j: int, k: int) -> int:
    """90 * P2(i, j, k), symmetric in j, k: Horner's rule in u = j + k with
    coefficients in i and t = i^2 + j k."""
    u = j + k
    ii = i * i
    t = ii + j * k
    return (10 * i * t * (t - 1)
            + u * (5 * t * (t - 1) + 20 * ii * t - 10 * ii + 4
                   + u * (40 * i * t - 30 * ii * i + 5 * i
                          + u * (15 * t - 25 * ii - u * (15 * i + 4 * u)))))


@lru_cache(maxsize=_COEFF_CACHE_SIZE, typed=True)
def z2_coeff_closed(i: int, j: int, k: int, l: int) -> Fraction:
    """Quadruple coefficient Z_{ijkl} from the closed-form quintics.

    Zero off the zero-sum plane.  Otherwise the quadruple is canonicalized
    under the 48-element group (24 permutations, optional simultaneous sign
    flip): the lexicographically smallest image in the all-same-sign region
    wins, else the smallest image in the mixed-sign region.

    No image is built; the sorted s0 <= s1 <= s2 <= s3 decides.  With at
    most one negative index (s1 >= 0) the winner is (s1, s2, s3, s0); with
    at most one positive (s2 <= 0) it is the same for the sign flip,
    (-s2, -s1, -s0, -s3).  Otherwise s0 <= s1 < 0 < s2 <= s3, and the
    mixed-sign winner is (s0, s2, s3, s1) when s3 <= -s0 and the flip's
    (-s3, -s1, -s0, -s2) when -s0 <= s3; when both hold the two are the
    same tuple.  The value is P1 or P2 of the winner's first three entries.

    The cache is typed, so an argument that is not an int misses it and
    meets the index check, which runs on misses only.
    """
    i, j, k, l = _validate_index((i, j, k, l))
    if i + j + k + l != 0:
        return Fraction(0)
    s0, s1, s2, s3 = sorted((i, j, k, l))
    if s1 >= 0:
        n = _p1_90(s1, s2, s3)
    elif s2 <= 0:
        n = _p1_90(-s2, -s1, -s0)
    elif s3 <= -s0:
        n = _p2_90(s0, s2, s3)
    else:
        n = _p2_90(-s3, -s1, -s0)
    return Fraction(n, 90)


def z2_closed(a: TrigSeries):
    """Second invariant via the closed-form quadruple coefficients."""
    return _series_form(a, 4, z2_coeff_closed)


def z_coeff_closed(indices) -> Fraction:
    """Symmetric coefficient Z from its closed form, zero off the zero-sum
    plane: |j^3 - j| / 3 for a pair (j, -j), z2_coeff_closed for a quadruple.

    No closed form is known for six or more slots.
    """
    idx = _validate_index(indices)
    if len(idx) == 2:
        return _pair_coeff_closed(*idx)
    if len(idx) == 4:
        return z2_coeff_closed(*idx)
    raise ValueError("closed coefficients are available for k in {1, 2} only")


def zeta(a: TrigSeries, k: int):
    """Z_k(a) through the closed forms for k = 1, 2, else zeta_invariant.

    The closed forms give the same coefficients as the brute sum, faster.
    """
    k = _size(k, "order k")
    if k == 1:
        return z1_closed(a)
    if k == 2:
        return z2_closed(a)
    return zeta_invariant(a, k)


def coeff_bound_check(indices) -> bool:
    """Check 0 <= Z_{j_1...j_{2k}} <= 2 (2|j|)^{2k+1} exactly."""
    idx = _validate_index(indices)
    if sum(idx) != 0:
        raise NonZeroSum(f"indices must sum to zero, got {idx}")
    z = z_coeff(idx)
    span = sum(abs(j) for j in idx)
    bound = 2 * (2 * span) ** (len(idx) + 1)
    return 0 <= z <= bound
