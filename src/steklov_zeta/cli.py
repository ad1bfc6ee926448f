"""Command-line surface.

Every run prints a header line to stderr with the library version, scalar
backend, seed (when one is involved), and a digest of the effective
configuration, so saved reports are self-describing.  Data goes to stdout
or to --out.  Exit codes: 0 success / all checks pass, 1 check failure,
2 usage error, bad value or unusable file (one "error:" line).

An optional config file (--config PATH or --config=PATH, "key = value"
lines) supplies defaults for any long flag of the chosen command; explicit
flags win.  Each value is read as its flag would be, with the same type and
choice checks.  Switches take true / false.  A key of another command is
skipped, so one file can serve several commands; a key that names no flag
of any command is a usage error.

The parsers are built once per process, on the first main() call, and no
call writes into them, so main() can be called many times in one process
with nothing carried over from one call to the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import platform
import sys
from fractions import Fraction
from itertools import islice

import numpy as np

from . import __version__
from .conformal import (_rho_value, mu_matrix, pullback_direct,
                        suggest_out_degree)
from .errors import SteklovZetaError
from .explorer import CampaignConfig, z2_nonneg_campaign
from .fourier import TrigSeries, _real, _size, is_real, load_series
from .invariants import (_TABLE_BLOCK, _z_block, brute_n, coeff_bound_check,
                         symmetrize_z, z2_coeff_closed, z_coeff,
                         zero_sum_multisets, zeta, zeta_invariant)
from .lie import GENERATORS, RELATION_PLANES, bracket_check, relation_sweep
from .scalars import RationalComplex, _fmt_exact
from .trace import exact_width, trace_difference

# The largest output degree check-invariance evaluates Z_k of a pullback
# at.  The cold Z_2 form table grows like the cube of the degree: a cold
# z2_closed of a dense pullback took 0.21 s at degree 60, 0.74 s at 90 and
# 1.6 s at 120 (medians of 5 fresh processes on a shared 2-vCPU x86_64 VM,
# Python 3.11.7, numpy 2.4.6), its process peaking at 42, 49 and 64 MB, so
# about 8,000 s at the degree-2020 default cut of rho = 0.99.  A larger
# cut is a usage error.
MAX_OUT_DEGREE = 120

_VERSIONS = (f"steklov-zeta {__version__}",
             f"python={platform.python_version()}", f"numpy={np.__version__}")


def _digest(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "config")}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _header(args, backend: str, seed=None) -> None:
    bits = [*_VERSIONS, f"backend={backend}"]
    if seed is not None:
        bits.append(f"seed={seed}")
    bits.append(f"config={_digest(args)}")
    print(" | ".join(bits), file=sys.stderr)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_indices(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise ValueError("--indices takes comma-separated integers, "
                         f"got {text!r}") from None


def _fmt_scalar(value, real: bool = False) -> str:
    """Exact values print as rationals, "re+imi" when im != 0.  A float is
    printed as a bare real iff the caller says it is one (real=True, e.g. Z_k
    of a real series), never from its round-off imaginary part."""
    if isinstance(value, RationalComplex):
        if value.im == 0:
            return _fmt_exact(value.re)
        return (f"{_fmt_exact(value.re)}{'+' if value.im >= 0 else ''}"
                f"{_fmt_exact(value.im)}i")
    if isinstance(value, Fraction):
        return _fmt_exact(value)
    z = complex(value)
    return repr(z.real) if real else repr(z)


# command handlers ----------------------------------------------------------


def cmd_compute_z(args) -> int:
    _header(args, args.backend)
    a = load_series(args.series, args.backend)
    if args.method == "closed" and args.k > 2:
        raise ValueError("closed forms exist for k in {1, 2} only")
    if args.method == "brute":
        value = zeta_invariant(a, args.k)
    else:
        value = zeta(a, args.k)
    _emit(_fmt_scalar(value, real=is_real(a)) + "\n", args.out)
    return 0


def cmd_brute_n(args) -> int:
    _header(args, "exact")
    if args.indices:
        idx = _parse_indices(args.indices)
        if args.coeff == "n":
            _emit(f"{brute_n(idx)}\n", args.out)
        else:
            _emit(_fmt_scalar(symmetrize_z(idx)) + "\n", args.out)
        return 0
    if args.k is None or args.radius is None:
        raise ValueError("need either --indices or both --k and --radius")
    slots = 2 * _size(args.k, "--k")
    radius = _size(args.radius, "--radius", 0)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"j{i+1}" for i in range(slots)]
                    + ["numerator", "denominator"])
    multisets = zero_sum_multisets(range(-radius, radius + 1), slots)
    while block := list(islice(multisets, _TABLE_BLOCK)):
        values = (map(Fraction, map(brute_n, block)) if args.coeff == "n"
                  else _z_block(block))
        for ms, v in zip(block, values):
            writer.writerow(list(ms) + [v.numerator, v.denominator])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_z2_coeff(args) -> int:
    _header(args, "exact")
    idx = _parse_indices(args.indices)
    if len(idx) != 4:
        raise ValueError("z2-coeff needs exactly four indices")
    closed = z2_coeff_closed(*idx)
    lines = [f"closed: {_fmt_exact(closed)}"]
    code = 0
    if args.verify:
        brute = z_coeff(idx)
        lines.append(f"brute: {_fmt_exact(brute)}")
        lines.append(f"match: {closed == brute}")
        if sum(idx) == 0:
            lines.append(f"bound: {coeff_bound_check(idx)}")
        if closed != brute:
            code = 1
    _emit("\n".join(lines) + "\n", args.out)
    return code


def _parse_rho(text: str):
    """--rho: "p/q" or an integer as an exact rational, a decimal as a
    float, checked by conformal._rho_value; any other text raises a
    ValueError that names these forms."""
    text = text.strip()
    try:
        if "/" in text:
            rho = Fraction(text)
        elif "." in text or "e" in text.lower():
            rho = float(text)
        else:
            rho = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError('rho must be "p/q", an integer or a decimal, '
                         f"got {text!r}") from None
    return _rho_value(rho)


def cmd_mu_matrix(args) -> int:
    rho = _parse_rho(args.rho)
    exact = not isinstance(rho, float)
    _header(args, "exact" if exact else "float")
    N = args.half_width
    rows = mu_matrix(rho, N).array.tolist()     # Fractions or floats
    fmt = _fmt_exact if exact else str
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "k", "value"])
        writer.writerows([n - N, k - N, fmt(v)] for n, row in enumerate(rows)
                         for k, v in enumerate(row))
        _emit(buf.getvalue(), args.out)
    else:
        obj = {
            "half_width": N,
            "rho": str(rho),
            "exact": exact,
            "entries": [[fmt(v) if exact else v for v in row]
                        for row in rows],
        }
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_check_invariance(args) -> int:
    tol = _real(args.tol, "--tol", 0, strict=False)
    rho = _parse_rho(args.rho)
    _header(args, "float")
    a = load_series(args.series, "float")
    out_degree = args.out_degree
    if out_degree is None:
        # the exact cut's walk stops at the cap: past it, its end is unused
        out_degree = suggest_out_degree(a.degree, rho, 1e-9,
                                        limit=MAX_OUT_DEGREE)
    if out_degree > MAX_OUT_DEGREE:
        what = (f"output degree {out_degree}" if args.out_degree is not None
                else f"the default output degree at rho {rho}")
        raise ValueError(f"{what} is past the check-invariance cap "
                         f"{MAX_OUT_DEGREE}; pass a smaller --out-degree or "
                         f"a rho nearer 0")
    b = pullback_direct(a, rho, args.grid, out_degree)
    za = complex(zeta(a, args.k)).real
    zb = complex(zeta(b, args.k)).real
    dev = abs(za - zb)
    limit = tol * (1.0 + abs(za))
    ok = dev <= limit
    report = {
        "k": args.k, "rho": str(rho), "grid": args.grid,
        "out_degree": out_degree, "z_original": za, "z_pullback": zb,
        "deviation": dev, "tolerance": limit, "pass": ok,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_check_relations(args) -> int:
    _header(args, "exact")
    results = list(relation_sweep(args.k, args.radius, args.variant,
                                  args.stride, args.source))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"j{i+1}" for i in range(2 * args.k)]
                    + ["numerator", "denominator", "pass"])
    all_ok = True
    for idx, value in results:
        ok = value == 0
        all_ok = all_ok and ok
        writer.writerow(list(idx) + [value.numerator, value.denominator, int(ok)])
    _emit(buf.getvalue(), args.out)
    print(f"checked {len(results)} tuples, all_zero={all_ok}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_trace_check(args) -> int:
    _header(args, "exact")
    a = load_series(args.series, "exact")
    k = args.k
    N = exact_width(a, k)
    tdiff = trace_difference(a, k, N)
    zval = zeta_invariant(a, k)
    equal = tdiff == zval
    report = {
        "k": k, "degree": a.degree, "half_width": N,
        "trace_difference": _fmt_scalar(tdiff),
        "zeta_invariant": _fmt_scalar(zval),
        "equal": equal,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if equal else 1


def cmd_explore(args) -> int:
    cfg = CampaignConfig(seed=args.seed, count=args.count,
                         max_degree=args.n0, coeff_scale=args.scale,
                         kappas=tuple(args.kappa or ()))
    _header(args, "float", seed=args.seed)
    report = z2_nonneg_campaign(cfg)
    _emit(report.to_text(args.format), args.out)
    n_fail = len(report.failures)
    print(f"samples={args.count} min_z2={report.min_z2!r} failures={n_fail}",
          file=sys.stderr)
    return 0 if n_fail == 0 else 1


def cmd_bracket_check(args) -> int:
    _header(args, "exact")
    if args.series:
        a = load_series(args.series, "exact")
    else:
        a = TrigSeries.exact({-2: (1, 1), 0: 3, 1: (0, 1), 3: 2})
    dev = bracket_check(args.g, args.h, a)
    _emit(f"{dev}\n", args.out)
    return 0 if dev == 0 else 1


# parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov-zeta",
        description="Zeta-invariants of the disc Steklov spectrum: "
                    "exact coefficients, closed forms, conformal checks.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-z", help="evaluate Z_k of a series file")
    p.add_argument("--series", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--backend", choices=["exact", "float"], default="exact")
    p.add_argument("--method", choices=["auto", "brute", "closed"],
                   default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compute_z)

    p = sub.add_parser("brute-n", help="N/Z coefficients, single or CSV table")
    p.add_argument("--indices",
                   help="comma separated; use --indices=-3,2,2,-1 when the "
                        "first index is negative")
    p.add_argument("--k", type=int, help="order for table dumps")
    p.add_argument("--radius", type=int, help="index bound for table dumps")
    p.add_argument("--coeff", choices=["n", "z"], default="z")
    p.add_argument("--out")
    p.set_defaults(func=cmd_brute_n)

    p = sub.add_parser("z2-coeff", help="closed-form quadruple coefficient")
    p.add_argument("--indices", required=True,
                   help="comma separated; use --indices=-3,2,2,-1 when the "
                        "first index is negative")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute coefficient")
    p.add_argument("--out")
    p.set_defaults(func=cmd_z2_coeff)

    p = sub.add_parser("mu-matrix", help="export the truncated action matrix")
    p.add_argument("--rho", required=True, help='"p/q" exact or decimal float')
    p.add_argument("--half-width", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mu_matrix)

    p = sub.add_parser("check-invariance",
                       help="compare Z_k before/after boundary pullback")
    p.add_argument("--series", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--out-degree", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("check-relations",
                       help="exact sweep of the invariance relations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--variant", choices=list(RELATION_PLANES),
                   default="reduced")
    p.add_argument("--source", choices=["brute", "closed"], default="brute")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_relations)

    p = sub.add_parser("trace-check",
                       help="operator-trace oracle vs the combinatorial sum")
    p.add_argument("--series", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace_check)

    p = sub.add_parser("explore", help="random Z_2 nonnegativity campaign")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--n0", type=int, default=5)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--kappa", type=float, action="append")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("bracket-check", help="generator bracket identities")
    p.add_argument("--g", choices=list(GENERATORS), required=True)
    p.add_argument("--h", choices=list(GENERATORS), required=True)
    p.add_argument("--series")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bracket_check)

    return parser


def _load_config(path: str) -> dict:
    """The "key = value" lines of a config file; blank and "#" lines are
    skipped, and any other line without "=" raises a ValueError naming the
    file and the line number."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path} line {number}: expected "
                                 f"key = value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _config_tokens(subparser: argparse.ArgumentParser, raw: dict) -> list:
    """Config values as flag tokens, so the subparser checks each one as it
    checks the command line: type, choices and required."""
    tokens = []
    for action in subparser._actions:
        if action.dest not in raw or not action.option_strings:
            continue
        flag, text = action.option_strings[0], raw[action.dest]
        if action.nargs == 0:  # a switch such as --verify
            value = {"true": True, "false": False}.get(text.lower())
            if value is None:
                raise ValueError(f"config {action.dest} = {text!r}: "
                                 "expected true or false")
            if value == action.const:
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={text}")
    return tokens


@functools.cache
def _parsers() -> tuple:
    """The command parser, the --config pre-parser, the subparsers by
    command name and the config keys any of them takes, built on the first
    main() call and only read after that."""
    parser = build_parser()
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")  # as argparse reads it: PATH or =PATH
    pre.add_argument("command", nargs="?")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    keys = frozenset(a.dest for sub in commands.values()
                     for a in sub._actions if a.option_strings)
    return parser, pre, commands, keys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, pre, commands, keys = _parsers()
    try:
        known = pre.parse_known_args(argv)[0]
        if known.config is not None:
            raw = _load_config(known.config)
            # a key of another command is fine: one file serves several
            unknown = ", ".join(repr(key) for key in raw if key not in keys)
            if unknown:
                raise ValueError("config keys naming no flag of any "
                                 f"command: {unknown}")
            subparser = commands.get(known.command)
            if subparser is not None:
                # right after the command name: explicit flags come later
                # and win, and an append flag gets [config, explicit...]
                cut = len(argv) - len(known.rest)
                argv[cut:cut] = _config_tokens(subparser, raw)
        args = parser.parse_args(argv)
        # no numpy warning: scalars.join names a non-finite float result
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # reported like a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SteklovZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
