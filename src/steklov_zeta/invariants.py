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

symmetrize_z visits no ordering.  The last slot never enters f, and an
ordering of the first m = 2k - 1 slots (the head) is a chain
{} = T_0 < T_1 < ... < T_m of sub-multisets of the head, one slot added
at a time, with f(n) = prod_i (n + sum T_i).  For a sub-multiset U and
each n, let E_U(n) and O_U(n) sum |prod_{i <= |U|} (n + sum T_i)| over
the chains from {} to U (counted once per distinct value sequence) with
an even, resp. odd, number of negative factors; a zero factor ends a
chain.  Then E_{} = max(n, 0), O_{} = max(-n, 0), and with
g = n + sum U, p = max(g, 0), q = max(-g, 0), summing over the U' that U
covers,

    E_U = p sum E_U' + q sum O_U',     O_U = p sum O_U' + q sum E_U'.

f(n) < 0 exactly on the chains with an odd number of negative factors,
where |f| - f = 2|f|, so the sum of N over the m! orderings is
2 prod_v c_v! sum_n O_head(n), c_v the multiplicity of value v in the head
(each value sequence is that many orderings).  The walk carries
A = E - O and B = E + O, the sums of the signed and of the absolute
products, whose recurrences do not couple:

    A_U = g sum A_U',     B_U = |g| sum B_U',     2 O = B - A,

so one gather of the covered rows, one sum over them and one product per
level serve a block of n at once.  Let P and Q be the sums of the positive
and of the negated negative head entries and h = P + Q the head's l1 norm.
Every sum T lies in [-Q, P], so outside n in [-P, Q] all 2k factors share
a sign and f > 0: n runs over those h + 1 values, n = -P + t for t in
[0, h].  On them every factor has |n + sum T| <= h.  Overflow bound: a
chain to U has |U| + 1 factors and U has at most |U|! value sequences, so
|A_U(n)| <= B_U(n) <= m! h^(m + 1) = (2k-1)! h^(2k); a grouped sum or
product is bounded by the B entry it builds (the B terms are >= 0 and
bound the A terms), and each sum over n is at most (h + 1) (2k-1)! h^(2k).
Below 2^63 the walk runs on int64 and past it on Python ints; the last
products are taken on Python ints.  The int64 rule holds up to h = 4338,
258, 49 and 16 at k = 2, 3, 4 and 5.

The walk depends on a head only through its multiplicity pattern (the
lattice) and its level sums, so _z_block walks all heads of one pattern
in a block at once, their columns n side by side, each column under its
own head's bound, _BLOCK entries at a time; symmetrize_z is its one-row
call.

Closed forms are implemented for the two lowest orders: the pair
coefficient Z_{j,-j} = |j^3 - j| / 3, and the quadruple coefficients, which
are piecewise odd quintic polynomials evaluated after canonicalizing the
quadruple under permutations and a global sign flip.

Every form is summed from a table that depends only on the support of a,
not on its values: the zero-sum multisets of support values, each with its
weight coefficient times orderings, grouped by their first pair, and the
distinct pairs of support positions their pairs of slots use (see
_form_table).  A table is cached on (support, slots, coefficient function,
backend), so a series with a new support pays the build once and every
later series on that support pays the products of the used pairs, one
gather per pair of slots after the first (Z_1: of its one pair), a sum per
group and one gather of the distinct first pairs (from Z_2 on), and a sum.
A build reads the multisets one block at a time and does its bookkeeping
in numpy and on ints, so that only the finished table grows with the
support.  The brute route's coefficient function is _z_block itself,
called once per block (one walk per multiplicity pattern of the heads);
the closed routes' functions are called once per multiset, which is most
of their cost.  The closed Z_2 table of a degree-60 support, 51,071
multisets, takes about 0.2 s and peaks at 1.3 times the memory it keeps,
against about 0.3 ms for a warm float Z_2 of a degree-60 series; the brute
k = 3 table over [-15, 15], 32,134 multisets, takes about 0.5 s (fresh
processes on a shared 2-vCPU x86_64 VM, Python 3.11.7, numpy 2.4.6).
Both backends run one evaluator (_form_sum) on rows (..., R, S) on the
ring of scalars.ring, a few rows at a time; a series is a one-row block,
explorer's campaign a block of many.  Exact
values are exact; float values may differ from a term-by-term loop in the
last bits (another order), but not between a row alone and the same row in
a block.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, product

import numpy as np

from .errors import NonZeroSum
from .fourier import EXACT, FLOAT, TrigSeries, _indices, _size
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


def _zero_sum_index(indices) -> tuple:
    """_validate_index, and NonZeroSum unless the entries sum to zero."""
    idx = _validate_index(indices)
    if sum(idx) != 0:
        raise NonZeroSum(f"indices must sum to zero, got {idx}")
    return idx


def brute_n(indices) -> int:
    """Brute-force coefficient N for a zero-sum multi-index.

    Sums |f(n)| - f(n) over the integer interval [-|j|, |j|] that contains
    every root of f.  Always a non-negative even integer.
    """
    idx = _zero_sum_index(indices)
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


def _int64_fits(h: int, m: int) -> bool:
    """Whether symmetrize_z's recurrence for m = 2k - 1 head slots of l1
    norm h stays in int64: (h + 1) m! h^(m + 1) < 2^63 (module docstring)."""
    return (h + 1) * math.factorial(m) * h ** (m + 1) < 2 ** 63


# Lattices kept by _lattice, one per multiplicity pattern of the head; the
# partitions of 2k - 1 number 7, 15 and 30 at k = 3, 4, 5.
_LATTICE_CACHE_SIZE = 64

# Entries of one chunk of _z_block's walk (sub-multisets x 2 x columns n).
# A chunk of 2^15 int64 entries (256 KiB) stays in a core's cache: the
# cold brute k = 3 table over [-15, 15] took about half the time it took
# at 2^20 (2-vCPU x86_64 VM).
_BLOCK = 1 << 15

# Multisets that _form_table turns into table columns at a time: only one
# block of them is ever held in Python lists.
_TABLE_BLOCK = 4096

# Row x term entries that _form_sum evaluates at a time: 8192 complex128
# entries are 128 KiB, so a campaign block's temporaries stay in a core's
# cache and are reused rather than mapped afresh for every block.
_SUM_BLOCK = 8192


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _lattice(counts: tuple):
    """The sub-multisets of a head with these multiplicities, as rows of
    multiplicities ordered by size, and for each size i >= 1 the slice
    (lo, hi) of its rows and their covers: the (c, hi - lo) array whose
    column u - lo holds the rows of size i - 1 that row u covers, padded
    with the row index len(rows), which the walk keeps at zero, to the
    largest count c of that level.  The arrays are shared by every call
    with this pattern and only read."""
    grid = sorted(product(*(range(c + 1) for c in counts)), key=sum)
    index = {u: i for i, u in enumerate(grid)}
    covers = [[index[u[:v] + (u[v] - 1,) + u[v + 1:]]
               for v in range(len(u)) if u[v]] for u in grid]
    sizes = [sum(u) for u in grid]
    levels = []
    for size in range(1, sizes[-1] + 1):
        lo, hi = bisect_left(sizes, size), bisect_right(sizes, size)
        level = covers[lo:hi]
        levels.append((lo, hi, np.array(
            [[c[j] if j < len(c) else len(grid) for c in level]
             for j in range(max(map(len, level)))])))
    return np.array(grid), tuple(levels)


def symmetrize_z(indices) -> Fraction:
    """Symmetrized coefficient Z for a zero-sum multi-index.

    The average of N over the (2k-1)! orderings of the first 2k - 1 slots
    with the last slot fixed; cyclic invariance of N makes this the
    average over all (2k)! orderings.  No ordering is visited: the sum
    runs by the parity recurrence over the sub-multisets of those slots
    (module docstring), which carries per sub-multiset the sums over its
    chains of the signed and of the absolute products, on int64 while
    (h + 1) (2k-1)! h^(2k) < 2^63 for the l1 norm h of the slots (the
    bound proved there) and on Python ints past it.  It is the one-row
    call of _z_block, the walk of a table's whole block.
    """
    idx = _zero_sum_index(indices)
    return _z_block([idx])[0]


def _z_block(rows) -> list:
    """symmetrize_z of each row of a block, in order.  The rows are checked
    zero-sum tuples of Python ints, all of one length; the last slot of
    each is the fixed one and the others its head.

    The rows are grouped by the multiplicity pattern of their head, and
    each group walks the recurrence once, on one _lattice.  A row of head
    sums P, Q and h = P + Q (module docstring) becomes the h + 1 columns
    n = -P + t, t in [0, h]; a group lays the columns of its rows side by
    side, with no padding, each column added to its own row's level sums.
    An entry obeys the bound of its own row, so a run of columns whose
    widest row fits _int64_fits runs on int64: the rows are sorted by h,
    the int64 columns come first and the rest run on Python ints.  The
    columns are walked at most _BLOCK entries (sub-multisets x 2 x columns)
    at a time, so a wide row can span several chunks; each row's sums over
    n are taken per chunk and added up on Python ints.
    """
    groups: dict = {}
    for i, row in enumerate(rows):
        head = row[:-1]
        values = sorted(set(head), key=head.count, reverse=True)
        pos = sum(j for j in head if j > 0)
        # h = P + Q = 2P - sum(head), and the row sums to zero
        groups.setdefault(tuple(map(head.count, values)), []).append(
            (2 * pos + row[-1], pos, i, values))
    out = [None] * len(rows)
    for counts, members in groups.items():
        members.sort()
        hs, pos, where, values = zip(*members)
        m = sum(counts)
        grid, levels = _lattice(counts)
        widths = [h + 1 for h in hs]
        ends = list(accumulate(widths))
        # row r has the columns start_r + t, so at column c it has
        # n = c - start_r - P_r and g = sum T + n = base[:, r] + c
        base = grid @ np.array(values, dtype=np.int64).T - np.array(
            [e - w + p for e, w, p in zip(ends, widths, pos)])
        step = max(1, _BLOCK // (2 * len(grid)))
        signed, absolute = [], []
        for c0 in range(0, ends[-1], step):
            c1 = min(c0 + step, ends[-1])
            r0, r1 = bisect_right(ends, c0), bisect_left(ends, c1) + 1
            runs = widths[r0:r1]  # less the overhang of the end rows
            runs[0] -= c0 - (ends[r0] - widths[r0])
            runs[-1] -= ends[r1 - 1] - c1
            g = base[:, r0:r1].repeat(runs, axis=1) + np.arange(c0, c1)
            # walk[U] = (A_U, B_U) over these columns, in place of the
            # factors, and a last row of zeros for the padded covers
            walk = np.empty((len(grid) + 1, 2 * (c1 - c0)),
                            np.int64 if _int64_fits(hs[r1 - 1], m) else object)
            walk[:-1, :c1 - c0] = g
            walk[:-1, c1 - c0:] = np.abs(g)
            walk[-1] = 0
            for lo, hi, covers in levels:
                walk[lo:hi] *= np.add.reduce(walk[covers])
            # the top row's A and B halves, summed over each row's run
            starts = [0, *accumulate(runs[:-1])]
            sums = np.add.reduceat(walk[-2], starts + [
                c1 - c0 + t for t in starts]).tolist()
            a, b = sums[:r1 - r0], sums[r1 - r0:]
            if r0 < len(signed):  # the last row of the chunk before goes on
                signed[-1] += a.pop(0)
                absolute[-1] += b.pop(0)
            signed += a
            absolute += b
        repeats = math.prod(map(math.factorial, counts))
        den = math.factorial(m)
        for i, a, b in zip(where, signed, absolute):
            out[i] = Fraction(repeats * (b - a), den)
    return out


# Entries kept by each coefficient cache (_Z_CACHE, z2_coeff_closed).  They
# serve the relation sweeps and single lookups, which revisit keys; a k = 2,
# radius-5 raising-relation sweep (one check per multiset) touches about a
# hundred.  A table build gains nothing from them, as it looks each multiset
# up once: the brute one walks its blocks past _Z_CACHE, and a closed one
# fills z2_coeff_closed's cache at a hit ratio of 0.
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

    The arguments are checked at the call, before the first multiset:
    values and total must be integers (fourier._indices) and slots an
    integer >= 0, else ValueError.
    """
    vals = sorted(set(_indices(values)))
    (total,) = _indices((total,))
    return _zero_sum_walk(vals, _size(slots, "slots", 0), total)


def _zero_sum_walk(vals: list, slots: int, total: int):
    """zero_sum_multisets on checked arguments: vals sorted and distinct."""
    if not vals:
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
    (ends, pairs, starts, weights, den).

    There is one term per zero-sum multiset of support values whose
    coefficient coeff(*multiset) is nonzero, and its weight is coefficient
    times orderings.  The pair of slots (2i, 2i + 1) of a multiset is the
    pair (p, q) of their positions in the sorted support, p <= q since the
    multiset is sorted.  ends is the (2, U) array of the U distinct pairs
    the terms use, in the order of p * S + q, and pairs the (slots/2, M)
    array of each term's pairs as indices into ends; slots is even for
    every form.  For the float backend the weights are float64 and den is
    1; for the exact one they are an object array of ints over one common
    denominator den.

    zero_sum_multisets yields in lexicographic order, so the terms come
    grouped by their first pair: pairs[0] is non-decreasing, and starts
    holds the index of the first term of each run of equal pairs[0].

    The multisets are read _TABLE_BLOCK at a time, and each block becomes
    its pair columns p * S + q and weights (_table_block) before the next
    is read; the blocks are joined once at the end.  So the build's Python
    lists never hold more than one block.  The used pairs are marked in a
    mask over the S x S pair space, and the columns are remapped to their
    ranks among the marked ones row by row, in place, so finding ends
    sorts nothing and holds no second copy of the columns: the cold closed
    Z_2 build of a degree-60 support peaks at 3.5 MB under tracemalloc and
    keeps 2.8 MB (the table and the coefficient cache).  starts is found
    on the joined pairs[0], since a run of equal first pairs can cross a
    block edge, and the exact den is the lcm of the blocks' denominators.
    """
    multisets = zero_sum_multisets(support, slots)
    pairs, weights, dens = [], [], []
    read = _TABLE_BLOCK
    while read == _TABLE_BLOCK:
        read, p, w, d = _table_block(islice(multisets, _TABLE_BLOCK),
                                     support, slots, coeff, backend)
        pairs.append(p)
        weights.append(w)
        dens.append(d)
    pairs = np.concatenate(pairs, axis=1)
    starts = np.flatnonzero(np.diff(pairs[0], prepend=-1))
    used = np.zeros(len(support) ** 2, dtype=bool)
    used[pairs] = True
    ends = np.flatnonzero(used)
    rank = np.empty(len(used), dtype=pairs.dtype)
    rank[ends] = np.arange(len(ends))
    for row in pairs:
        row[:] = rank[row]
    ends = np.array(np.divmod(ends, len(support)))
    den = math.lcm(*dens)
    # an exact block is over its own lcm, a divisor of den; a float one over 1
    weights = np.concatenate([w * (den // d) if d != den else w
                              for w, d in zip(weights, dens)])
    return ends, pairs, starts, weights, den


def _table_block(multisets, support: tuple, slots: int, coeff,
                 backend: str):
    """The terms of the multisets of one block for _form_table:
    (read, pairs, weights, den), where read counts the multisets, pairs
    holds each term's pairs as flat indices p * S + q into the S x S pair
    space, and the weights are over the block's own common denominator
    den (1 for the float backend).

    coeff is called once on the whole block when it is _z_block (the
    brute route), and once per multiset otherwise.  The rest is
    numpy on the kept (b, slots) array of values.  Positions come from a
    search in the support.  The orderings of a sorted multiset are the
    multinomial slots! / prod(run!) over its runs of equal values, and
    prod(run!) is the product, over the slots, of the run length reached
    at each slot.  Each weight is reduced to n / d on integers, with no
    Fraction: a coefficient c is in lowest terms, so c * o reduces by
    gcd(o, c.denominator).
    """
    multisets = list(multisets)
    coeffs = (_z_block(multisets) if coeff is _z_block
              else [coeff(*ms) for ms in multisets])
    flat, nums, dens = [], [], []
    for ms, c in zip(multisets, coeffs):
        if c:
            flat.extend(ms)
            nums.append(c.numerator)
            dens.append(c.denominator)
    values = np.asarray(support)
    rows = np.searchsorted(values, np.array(flat, dtype=values.dtype))
    rows = rows.reshape(len(nums), slots)
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
    pairs = np.ascontiguousarray((rows[:, 0::2] * len(support)
                                  + rows[:, 1::2]).T)
    if backend == EXACT:
        den = math.lcm(*dens)
        return len(multisets), pairs, np.array(
            [n * (den // d) for n, d in zip(nums, dens)], dtype=object), den
    # n / d is the correctly rounded quotient of the rational c * o
    return len(multisets), pairs, np.fromiter(
        map(operator.truediv, nums, dens), float, len(nums)), 1


def _form_sum(support: tuple, vec, mul, slots: int, coeff):
    """Rows of sums over zero-sum index tuples of
    coeff * a_{j_1} * ... * a_{j_slots}: (sums, den).

    vec holds rows (..., R, S) of coefficients on the sorted support, on
    the ring of scalars.ring, mul its product: complex128 for the float
    backend, the [re; im] stack (2, ..., R, S) of object ints over the
    ring's D for the exact one, whose dtype picks the exact table.  A
    TrigSeries is a one-row block (_series_form); a campaign passes many
    rows on one support and pays the table lookup once.  sums has one ring
    element per row, over den * D^slots.

    coeff is the coefficient function of one route: _z_block (brute),
    called on a block of sorted multisets, or _pair_coeff_closed or
    z2_coeff_closed (closed), called with the indices of one (see
    _table_block).  The terms come from _form_table, cached on
    (support, slots, coeff, backend).  The routes pass different functions,
    so they never share a table; the caller passes the function its module
    binds at call time, so one swapped in for z2_coeff_closed (the benchmark
    tracer's counting wrapper) gets tables of its own and is the one they
    call.

    The rows are summed in one loop over slices of _SUM_BLOCK // M rows
    for a table of M terms (at least one), so a block holds no larger
    temporaries than a few rows would.  Every reduction runs along the last
    axis, so a row's sum is the same in a block as on its own.
    """
    ends, pairs, starts, weights, den = _form_table(
        support, slots, coeff, EXACT if vec.dtype == object else FLOAT)
    step = max(1, _SUM_BLOCK // max(1, len(weights)))
    sums = np.empty(vec.shape[:-1], vec.dtype)
    for i in range(0, vec.shape[-2], step):
        rows = vec[..., i:i + step, :]
        products = mul(rows.take(ends[0], -1), rows.take(ends[1], -1))
        # weights in place, one temporary instead of two: at n0 = 15 (2-vCPU
        # x86_64 VM) 8 rows take 56 us against 58 for Z_2, 5.8 against 6.1
        # for Z_1, and an unsliced block of 20 rows 133 against 339
        terms = products.take(pairs[min(1, len(pairs) - 1)], -1)
        terms *= weights
        if len(pairs) > 1:  # Z_1's groups are single terms
            for j in range(2, len(pairs)):  # cheaper than iterating the rows
                terms = mul(terms, products.take(pairs[j], -1))
            terms = mul(np.add.reduceat(terms, starts, -1),
                        products.take(pairs[0][starts], -1))
        sums[..., i:i + step] = np.add.reduce(terms, -1)
    return sums, den


def _series_form(a: TrigSeries, slots: int, coeff):
    """The form of one series: its items as the one row of _form_sum, the
    sum joined to a backend scalar."""
    exact = a.backend == EXACT
    support, values = zip(*a.items()) if a else ((), ())
    vec, D, mul = ring(values, exact)
    z, den = _form_sum(support, vec[..., None, :], mul, slots, coeff)
    return join(z[..., 0], den * D ** slots, exact)


def zeta_invariant(a: TrigSeries, k: int):
    """Z_k(a) for a finite series: an exact finite sum, no tail truncation.

    Returns a backend scalar (RationalComplex or complex); the value is real
    whenever a is conjugate-symmetric.
    """
    return _series_form(a, 2 * _size(k, "order k"), _z_block)


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
    idx = _zero_sum_index(indices)
    z = z_coeff(idx)
    span = sum(abs(j) for j in idx)
    bound = 2 * (2 * span) ** (len(idx) + 1)
    return 0 <= z <= bound
