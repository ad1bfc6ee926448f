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
not on its values: the zero-sum multisets of support values, as rows of
positions into the sorted support, each with its weight coefficient times
orderings (see _form_table).  A table is cached on (support, slots,
coefficient function, backend), so a series with a new support pays the
enumeration once and every later series on that support pays one gather,
product and sum.  The exact backend sums on Gaussian integers and divides
once, so its values are exact; the float backend sums in numpy, in another
order than a term-by-term loop, so float values may differ from such a loop
in the last bits.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CanonicalizationFailure, NonZeroSum
from .fourier import EXACT, TrigSeries
from .scalars import RC_ZERO, GaussianInteger, clear_denominators


def _validate_index(indices) -> tuple:
    idx = tuple(int(j) for j in indices)
    if len(idx) < 2 or len(idx) % 2:
        raise ValueError(f"multi-index must have even length >= 2, got {idx}")
    return idx


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


# Entries kept by each coefficient cache (_Z_CACHE, z2_coeff_closed).  Form
# sums read coefficients through their tables, so the caches only serve
# table builds and relation sweeps; a k = 2, radius-5 raising-relation sweep
# touches about a thousand keys.
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


def zero_sum_multisets(values, slots: int):
    """Non-decreasing zero-sum tuples of the given length over the distinct
    values, in lexicographic order; ``slots = 0`` yields ``()`` once.

    Iterative depth-first search.  With running sum t and m slots left
    (this one included), a slot takes the values v >= the previous slot's
    value with t + m*v <= 0 (larger values overshoot, since later slots are
    no smaller) and t + v + (m-1)*max >= 0 (smaller ones can never climb
    back to zero); both bounds are found by bisection.  The last slot is
    closed by looking up -t among the values, not by a scan: the bounds of
    the slot before it already make -t lie in [v, max].
    """
    vals = sorted(set(values))
    if not vals or slots < 0:
        return
    if slots == 0:
        yield ()
        return
    present = set(vals)
    last = slots - 1
    if last == 0:
        if 0 in present:
            yield (0,)
        return
    vmax = vals[-1]
    out = [0] * slots
    sums = [0] * last       # sums[d]: running sum of out[:d]
    at = [0] * last         # next index to try in each open slot
    stop = [0] * last       # one past the last admissible index
    stop[0] = bisect_right(vals, 0)
    at[0] = bisect_left(vals, -last * vmax)
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
            at[d] = max(i, bisect_left(vals, -t - (left - 1) * vmax))
            stop[d] = bisect_right(vals, -t // left)
            continue
        if -t in present:
            out[last] = -t
            yield tuple(out)


def _orderings(multiset: tuple) -> int:
    """Distinct orderings of a non-decreasing tuple: the multinomial
    len! / prod(run!) over its runs of equal values."""
    count = math.factorial(len(multiset))
    run = 0
    prev = None
    for v in multiset:
        if v == prev:
            run += 1
        else:
            count //= math.factorial(run)
            run = 1
            prev = v
    return count // math.factorial(run)


@lru_cache(maxsize=16)
def _form_table(support: tuple, slots: int, coeff, backend: str):
    """The zero-sum terms of a form on one support: (rows, weights, den).

    rows is an (M, slots) array of positions into the sorted support, one
    row per zero-sum multiset of support values whose coefficient
    coeff(*multiset) is nonzero; each row's weight is coefficient times
    orderings.  For the exact backend the weights are ints over one common
    denominator den; for the float one they are float64 and den is 1.
    """
    where = {v: i for i, v in enumerate(support)}
    rows, weights = [], []
    for ms in zero_sum_multisets(support, slots):
        c = coeff(*ms)
        if not c:
            continue
        rows.append([where[v] for v in ms])
        o = _orderings(ms)
        # float(c * o) without the Fraction: the same correctly rounded
        # quotient of the same rational
        weights.append(c * o if backend == EXACT
                       else c.numerator * o / c.denominator)
    rows = np.array(rows, dtype=np.intp).reshape(len(rows), slots)
    if backend == EXACT:
        den = math.lcm(*(w.denominator for w in weights))
        return rows, [w.numerator * (den // w.denominator)
                      for w in weights], den
    return rows, np.array(weights, dtype=float), 1


def _form_sum(a: TrigSeries, slots: int, coeff):
    """sum over zero-sum index tuples of coeff * a_{j_1} * ... * a_{j_slots}.

    coeff is the coefficient function of one route, called with the indices
    of a sorted multiset: _z_coeff_of (brute), _pair_coeff_closed or
    z2_coeff_closed (closed).  The terms come from _form_table, cached on
    (a.support, slots, coeff, a.backend).  The routes pass different
    functions, so they never share a table; the caller passes the function
    its module binds at call time, so one swapped in for z2_coeff_closed
    (the benchmark tracer's counting wrapper) gets tables of its own and is
    the one they call.  The exact backend sums the rows on
    Gaussian integers, with the coefficients of a scaled by the lcm D of
    their denominators, and divides once by den * D^slots; the float backend
    gathers the coefficients of each row, multiplies them into the weights
    and sums in numpy, returning a Python complex.
    """
    exact = a.backend == EXACT
    if not a:
        return RC_ZERO if exact else 0j
    rows, weights, den = _form_table(a.support, slots, coeff, a.backend)
    if exact:
        vec, D = clear_denominators(a.coeff(v) for v in a.support)
        total = GaussianInteger(0, 0)
        for w, row in zip(weights, rows.tolist()):
            prod = vec[row[0]]
            for p in row[1:]:
                prod = prod * vec[p]
            total = total + w * prod
        return total.over(den * D ** slots)
    vec = np.array([a.coeff(v) for v in a.support], dtype=complex)
    terms = weights * vec[rows[:, 0]]
    for s in range(1, slots):
        terms *= vec[rows[:, s]]
    return complex(terms.sum())


def _z_coeff_of(*indices) -> Fraction:
    """z_coeff of the given indices: the brute route's form coefficient."""
    return z_coeff(indices)


def zeta_invariant(a: TrigSeries, k: int):
    """Z_k(a) for a finite series: an exact finite sum, no tail truncation.

    Returns a backend scalar (RationalComplex or complex); the value is real
    whenever a is conjugate-symmetric.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    return _form_sum(a, 2 * k, _z_coeff_of)


def _pair_coeff_closed(i: int, j: int) -> Fraction:
    """Pair coefficient Z_{i,j}: |i^3 - i| / 3 when i + j = 0, else 0."""
    return Fraction(abs(i**3 - i), 3) if i + j == 0 else Fraction(0)


def z1_closed(a: TrigSeries):
    """First invariant in closed form: (1/3) sum_j |j^3 - j| a_j a_{-j}."""
    return _form_sum(a, 2, _pair_coeff_closed)


# closed form for quadruple coefficients -------------------------------------
#
# A zero-sum quadruple always has a permutation/sign image in one of two
# normal regions:
#   all-same-sign:  i >= 0, j >= 0, k >= 0           (0 counts as both signs)
#   mixed-sign:     i <= 0, j >= 0, k >= 0, i+j <= 0, i+k <= 0, i+j+k >= 0
# and on each region Z is an odd quintic, symmetrized over the indicated
# index sets (an average, so e.g. _p1(2,0,0) = 4/3).


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


@lru_cache(maxsize=_COEFF_CACHE_SIZE)
def z2_coeff_closed(i: int, j: int, k: int, l: int) -> Fraction:
    """Quadruple coefficient Z_{ijkl} from the closed-form quintics.

    Zero off the zero-sum plane.  Otherwise the quadruple is canonicalized
    under the 48-element group (24 permutations, optional simultaneous sign
    flip): the lexicographically smallest image in the all-same-sign region
    wins, else the smallest image in the mixed-sign region.

    The images are not built.  Sort q and -q; for each sorted s0 <= s1 <=
    s2 <= s3, some permutation lies in the all-same-sign region iff s1 >= 0
    (at most one negative index), and the smallest one is s itself when
    s0 >= 0, else (s1, s2, s3, s0).  Some permutation lies in the mixed-sign
    region iff s1 <= 0 <= s2 and s3 <= -s0, and the smallest one is
    (s0, s2, s3, s1): the most negative index leads and the other
    non-positive one goes last.  The same tie-break then picks among the
    (at most two) candidates of each region.
    """
    if i + j + k + l != 0:
        return Fraction(0)
    s = tuple(sorted((i, j, k, l)))
    signs = (s, (-s[3], -s[2], -s[1], -s[0]))
    case1 = [t if t[0] >= 0 else (t[1], t[2], t[3], t[0])
             for t in signs if t[1] >= 0]
    if case1:
        t = min(case1)
        return _p1(t[0], t[1], t[2])
    case2 = [(t[0], t[2], t[3], t[1])
             for t in signs if t[1] <= 0 <= t[2] and t[3] <= -t[0]]
    if case2:
        t = min(case2)
        return _p2(t[0], t[1], t[2])
    raise CanonicalizationFailure(f"no normal-form image for {(i, j, k, l)}")


def z2_closed(a: TrigSeries):
    """Second invariant via the closed-form quadruple coefficients."""
    return _form_sum(a, 4, z2_coeff_closed)


def z_coeff_closed(indices) -> Fraction:
    """Symmetric coefficient Z from its closed form, zero off the zero-sum
    plane: |j^3 - j| / 3 for a pair (j, -j), z2_coeff_closed for a quadruple.

    No closed form is known for six or more slots.
    """
    idx = tuple(indices)
    if len(idx) == 2:
        return _pair_coeff_closed(*idx)
    if len(idx) == 4:
        return z2_coeff_closed(*idx)
    raise ValueError("closed coefficients are available for k in {1, 2} only")


def zeta(a: TrigSeries, k: int):
    """Z_k(a) through the closed forms for k = 1, 2, else zeta_invariant.

    The closed forms give the same coefficients as the brute sum, faster.
    """
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
