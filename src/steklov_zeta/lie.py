"""Generators of the conformal algebra on Fourier coefficients.

The three-dimensional algebra of boundary vector fields acts on weight
functions; on coefficient tables the basis operators are

    (C a)_n  = i n a_n                       (rotations)
    (D a)_n  = (n-2) a_{n-1} - (n+2) a_{n+1} (translations)
    (E a)_n  = -i [ (n-2) a_{n-1} + (n+2) a_{n+1} ]

with complexified basis D0 = -iC, D- = (D + iE)/2, D+ = (-D + iE)/2:

    (D0 a)_n = n a_n,   (D- a)_n = (n-2) a_{n-1},   (D+ a)_n = (n+2) a_{n+1}.

Because the group acts on functions from the right, the operator bracket
matching the algebra tables is the reversed commutator
[g, h] a = h(g(a)) - g(h(a)); with that convention

    [C, D] = E,   [C, E] = -D,   [D, E] = -4 C,
    [D0, D-] = -D-,   [D0, D+] = D+,   [D-, D+] = 2 D0,

all exact on the rational backend.

Invariance of every Z_k under the group is equivalent to linear relations
among the symmetric coefficients.  The reduced one (from D+) reads

    sum_alpha (j_alpha - 1) Z_{j_1 .. j_alpha + 1 .. j_{2k}} = 0
                     whenever j_1 + ... + j_{2k} = -1,

and is checked here as an exact rational identity, never in floats, like
its mirror from D-: sum_alpha (j_alpha + 1) Z_{.. j_alpha - 1 ..} = 0 on the
plane sum = +1.  As Z vanishes off the zero-sum plane, the relations of D and
E are combinations of these two.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import UnknownBracket, WrongSum
from .fourier import EXACT, TrigSeries, _size
from .invariants import (_validate_index, z_coeff, z_coeff_closed,
                         zero_sum_multisets)
from .scalars import RationalComplex

GENERATORS = ("C", "D", "E", "D0", "Dminus", "Dplus")

# each rule: list of (index shift, weight as rational+imaginary pair of m)
_RULES = {
    "C": ((0, lambda m: (0, m)),),
    "D0": ((0, lambda m: (m, 0)),),
    "Dminus": ((1, lambda m: (m - 1, 0)),),
    "Dplus": ((-1, lambda m: (m + 1, 0)),),
    "D": ((1, lambda m: (m - 1, 0)), (-1, lambda m: (-(m + 1), 0))),
    "E": ((1, lambda m: (0, -(m - 1))), (-1, lambda m: (0, -(m + 1)))),
}


def apply_generator(name: str, a: TrigSeries) -> TrigSeries:
    """Apply one generator coefficientwise; degree grows by at most 1."""
    if name not in _RULES:
        raise ValueError(f"unknown generator {name!r}; choose from {GENERATORS}")
    exact = a.backend == EXACT
    out: dict = {}
    for shift, weight in _RULES[name]:
        for m, v in a.items():
            re, im = weight(m)
            w = RationalComplex(re, im) if exact else complex(re, im)
            n = m + shift
            term = w * v
            out[n] = out[n] + term if n in out else term
    return TrigSeries(out, a.backend)


_BRACKETS = {
    ("C", "D"): (1, "E"),
    ("C", "E"): (-1, "D"),
    ("D", "E"): (-4, "C"),
    ("D0", "Dminus"): (-1, "Dminus"),
    ("D0", "Dplus"): (1, "Dplus"),
    ("Dminus", "Dplus"): (2, "D0"),
}


def bracket_check(g: str, h: str, a: TrigSeries):
    """Deviation of [g, h] a from the bracket-table value on a.

    The bracket is the right-action commutator h(g(a)) - g(h(a)) (see module
    docstring).  Returns an exact Fraction on the rational backend (zero iff
    the identity holds exactly) and a float on the float backend.
    """
    if (g, h) in _BRACKETS:
        factor, target = _BRACKETS[(g, h)]
    elif (h, g) in _BRACKETS:
        factor, target = _BRACKETS[(h, g)]
        factor = -factor
    else:
        raise UnknownBracket(f"no table entry for [{g}, {h}]")
    lhs = apply_generator(h, apply_generator(g, a)) \
        - apply_generator(g, apply_generator(h, a))
    diff = lhs - factor * apply_generator(target, a)
    if a.backend == EXACT:
        worst = Fraction(0)
        for _, v in diff.items():
            worst = max(worst, v.sup_abs())
        return worst
    return max((abs(v) for _, v in diff.items()), default=0.0)


# linear relations among the symmetric coefficients -------------------------


def _coeff_source(source: str):
    if source == "brute":
        return z_coeff
    if source == "closed":
        return z_coeff_closed
    raise ValueError(f"unknown coefficient source {source!r}")


# variant -> the plane sum(indices) = c on which its relation is not
# vacuous: off it every bumped tuple misses the zero-sum plane.
RELATION_PLANES = {"reduced": -1, "Dminus": 1}


def _bump_sum(idx: tuple, step: int, coeff) -> Fraction:
    """sum_alpha (j_alpha - step) coeff(idx with j_alpha -> j_alpha + step):
    the +1 (D+) sum for step = 1, the -1 (D-) sum for step = -1."""
    total = Fraction(0)
    for alpha, j in enumerate(idx):
        total += (j - step) * coeff(idx[:alpha] + (j + step,) + idx[alpha + 1:])
    return total


def _relation_check(indices, step: int, source: str) -> Fraction:
    """The bump sum of one side, on its plane sum(indices) = -step only."""
    idx = _validate_index(indices)
    if sum(idx) != -step:
        raise WrongSum(f"indices must sum to {-step}, got {idx} "
                       f"(sum {sum(idx)})")
    return _bump_sum(idx, step, _coeff_source(source))


def raising_relation_check(indices, source: str = "brute") -> Fraction:
    """Exact value of sum_alpha (j_alpha - 1) Z_{..., j_alpha + 1, ...}.

    Requires sum(indices) = -1 (the relation is vacuous elsewhere); the
    conformal invariance of Z_k makes the value exactly zero.
    """
    return _relation_check(indices, 1, source)


def lowering_relation_check(indices, source: str = "brute") -> Fraction:
    """The mirror of raising_relation_check: the exact value of
    sum_alpha (j_alpha + 1) Z_{..., j_alpha - 1, ...} on sum(indices) = +1."""
    return _relation_check(indices, -1, source)


def relation_sweep(k: int, radius: int, variant: str = "reduced",
                   stride: int = 1, source: str = "brute"):
    """(multiset, exact value) for every stride-th sorted multiset of length
    2k over [-radius, radius] on the variant's plane, in lexicographic order.
    The value is symmetric in the indices, so each relation is checked once.
    """
    k, radius, stride = (_size(k, "k"), _size(radius, "radius"),
                         _size(stride, "stride"))
    if variant not in RELATION_PLANES:
        raise ValueError(f"need a variant in {tuple(RELATION_PLANES)}, "
                         f"got {variant!r}")
    if _coeff_source(source) is z_coeff_closed:
        z_coeff_closed((0,) * (2 * k))  # its check of k, at the call
    plane = RELATION_PLANES[variant]
    check = raising_relation_check if plane == -1 else lowering_relation_check
    multisets = zero_sum_multisets(range(-radius, radius + 1), 2 * k, plane)
    return ((idx, check(idx, source))
            for idx in islice(multisets, None, None, stride))


def raising_relation_sweep(k: int, radius: int, stride: int = 1,
                           source: str = "brute"):
    """relation_sweep of the reduced (D+) relation, on the plane sum = -1."""
    return relation_sweep(k, radius, "reduced", stride, source)
