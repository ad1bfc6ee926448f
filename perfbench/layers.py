"""Per-layer tracing of the steklov_zeta modules, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
public functions of the eight library modules at run time:

* span functions record a span (name, parent, start, end) around each call;
* ``zero_sum_multisets`` is a generator, so its span covers each
  ``__next__`` (the enumeration work), not the call that creates it;
* count-only functions (hot, cheap entry points such as
  ``z2_coeff_closed`` or the ``RationalComplex`` ring operations) only bump
  a counter, so tracing does not swamp the work it measures.

A replaced function is swapped in every ``steklov_zeta`` module namespace
that holds it, so calls between library modules are traced too.  Spans are
kept in memory for one op and folded into per-name self times when the op
ends; a span's self time is its duration minus the part of it that its
child spans cover (``self_times``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs traced with spans
SPAN_FUNCTIONS = (
    ("invariants", "z2_closed"), ("invariants", "z1_closed"),
    ("invariants", "zeta_invariant"), ("invariants", "brute_n"),
    ("trace", "operator_matrix"), ("trace", "trace_difference"),
    ("conformal", "mu_matrix"), ("conformal", "apply_moebius"),
    ("conformal", "suggest_out_degree"), ("conformal", "pullback_direct"),
    ("fourier", "evaluate"), ("fourier", "from_samples"),
    ("fourier", "min_on_circle"),
    ("lie", "raising_relation_check"),
    ("explorer", "z2_nonneg_campaign"), ("explorer", "random_real_series"),
    ("explorer", "inequality_ratio"),
    ("cli", "main"),
)
SPAN_METHODS = (("trace", "BandedOperator", "matmul"),
                ("trace", "BandedOperator", "trace_of_square"))
GENERATORS = (("invariants", "zero_sum_multisets"),)
COUNT_FUNCTIONS = (("invariants", "z2_coeff_closed"), ("invariants", "z_coeff"),
                   ("conformal", "mu"), ("explorer", "rationalize_series"))
# RationalComplex ring operations, counted under "mul" and "add"
RC_OPERATORS = (("__mul__", "mul"), ("__rmul__", "mul"),
                ("__add__", "add"), ("__radd__", "add"))

# Per-layer metrics: (name, unit, how to compute).  Values per op are
# averaged over every op of the traced sequence, the cold first op included.
PER_OP = "per_op"
METRICS = (
    ("invariants.zero_sum_multisets.calls", "count/op", PER_OP),
    ("invariants.zero_sum_multisets.yielded", "count/op", PER_OP),
    ("invariants.zero_sum_multisets.self_s", "s/op", PER_OP),
    ("invariants.z2_coeff_closed.calls", "count/op", PER_OP),
    ("invariants.z2_coeff_closed.cache_hit_ratio", "ratio", "state"),
    ("invariants.z2_coeff_closed.cache_size", "count", "state"),
    ("invariants.z2_closed.calls", "count/op", PER_OP),
    ("invariants.z2_closed.self_s", "s/op", PER_OP),
    ("invariants.z1_closed.calls", "count/op", PER_OP),
    ("invariants.z1_closed.self_s", "s/op", PER_OP),
    ("invariants.zeta_invariant.calls", "count/op", PER_OP),
    ("invariants.zeta_invariant.self_s", "s/op", PER_OP),
    ("invariants.z_coeff.calls", "count/op", PER_OP),
    ("invariants.z_cache.size", "count", "state"),
    ("invariants.brute_n.calls", "count/op", PER_OP),
    ("invariants.brute_n.self_s", "s/op", PER_OP),
    ("trace.operator_matrix.self_s", "s/op", PER_OP),
    ("trace.trace_difference.self_s", "s/op", PER_OP),
    ("trace.BandedOperator.matmul.calls", "count/op", PER_OP),
    ("trace.BandedOperator.matmul.self_s", "s/op", PER_OP),
    ("trace.BandedOperator.trace_of_square.calls", "count/op", PER_OP),
    ("trace.BandedOperator.trace_of_square.self_s", "s/op", PER_OP),
    ("trace.matmul.out_nnz", "count/op", PER_OP),
    ("scalars.RationalComplex.mul.calls", "count/op", PER_OP),
    ("scalars.RationalComplex.add.calls", "count/op", PER_OP),
    ("conformal.mu_matrix.self_s", "s/op", PER_OP),
    ("conformal.apply_moebius.self_s", "s/op", PER_OP),
    ("conformal.suggest_out_degree.self_s", "s/op", PER_OP),
    ("conformal.pullback_direct.self_s", "s/op", PER_OP),
    ("conformal.mu.calls", "count/op", PER_OP),
    ("conformal.pow_cache.size", "count", "state"),
    ("fourier.evaluate.calls", "count/op", PER_OP),
    ("fourier.evaluate.self_s", "s/op", PER_OP),
    ("fourier.from_samples.calls", "count/op", PER_OP),
    ("fourier.from_samples.self_s", "s/op", PER_OP),
    ("fourier.min_on_circle.calls", "count/op", PER_OP),
    ("fourier.min_on_circle.self_s", "s/op", PER_OP),
    ("lie.raising_relation_check.calls", "count/op", PER_OP),
    ("lie.raising_relation_check.self_s", "s/op", PER_OP),
    ("explorer.z2_nonneg_campaign.self_s", "s/op", PER_OP),
    ("explorer.random_real_series.self_s", "s/op", PER_OP),
    ("explorer.inequality_ratio.self_s", "s/op", PER_OP),
    ("explorer.rationalize_series.calls", "count/op", PER_OP),
    ("cli.main.self_s", "s/op", PER_OP),
    ("cli.out_bytes", "B/op", PER_OP),
)


def self_times(spans) -> dict:
    """Sum of self time per span name.

    ``spans`` is a sequence of (name, parent, start, end) where parent is
    the index of the enclosing span in the same sequence, or -1.  A span's
    self time is end - start minus the length of the union of its
    children's intervals, each clipped to the span.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self._restore: list = []
        self._originals: dict = {}

    # spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def fold(self) -> None:
        """Add the self times of the recorded spans and forget the spans."""
        if self._stack:
            raise RuntimeError("fold called with open spans")
        for name, t in self_times(self.spans).items():
            self.self_s[name] += t
        self.spans.clear()

    # wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _generator_wrapper(self, name, fn):
        tracer = self
        calls = self.calls

        class Traced:
            __slots__ = ("_it",)

            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.open(name)
                try:
                    item = next(self._it)
                finally:
                    tracer.close(idx)
                calls[name + ".yielded"] += 1
                return item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return Traced(fn(*args, **kwargs))
        return wrapper

    def _matmul_wrapper(self, name, fn):
        span = self._span_wrapper(name, fn)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(*args, **kwargs)
            calls["trace.matmul.out_nnz"] += sum(len(r) for r in out.rows.values())
            return out
        return wrapper

    def _emit_wrapper(self, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(text, out_path):
            calls["cli.out_bytes"] += len(text.encode("utf-8"))
            return fn(text, out_path)
        return wrapper

    def _swap(self, modname: str, attr: str, wrapper_for) -> None:
        """Replace steklov_zeta.<modname>.<attr> wherever a library module
        holds it (modules import each other's functions by name)."""
        orig = getattr(sys.modules["steklov_zeta." + modname], attr)
        self._originals[f"{modname}.{attr}"] = orig
        wrapped = wrapper_for(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "steklov_zeta"
                                   or mod_name.startswith("steklov_zeta.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _swap_method(self, cls, attr: str, wrapped) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap the traced functions of the eight steklov_zeta modules."""
        import steklov_zeta.cli  # noqa: F401  (loads every module)
        from steklov_zeta import scalars, trace

        for mod, fn in SPAN_FUNCTIONS:
            self._swap(mod, fn, functools.partial(self._span_wrapper, f"{mod}.{fn}"))
        for mod, fn in GENERATORS:
            self._swap(mod, fn, functools.partial(self._generator_wrapper, f"{mod}.{fn}"))
        for mod, fn in COUNT_FUNCTIONS:
            self._swap(mod, fn, functools.partial(self._count_wrapper, f"{mod}.{fn}"))
        self._swap("cli", "_emit", self._emit_wrapper)
        for mod, cls_name, meth in SPAN_METHODS:
            name = f"{mod}.{cls_name}.{meth}"
            orig = getattr(trace.BandedOperator, meth)
            make = self._matmul_wrapper if meth == "matmul" else self._span_wrapper
            self._swap_method(trace.BandedOperator, meth, make(name, orig))
        rc = scalars.RationalComplex
        for dunder, op in RC_OPERATORS:
            orig = rc.__dict__[dunder]
            self._swap_method(rc, dunder, self._count_wrapper(
                f"scalars.RationalComplex.{op}", orig))

    def uninstall(self) -> None:
        self._originals.clear()
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # metrics -------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Every per-layer metric in METRICS, as {name: (value, unit)}."""
        from steklov_zeta import conformal, invariants

        z2_cached = self._originals.get("invariants.z2_coeff_closed",
                                        invariants.z2_coeff_closed)
        info = z2_cached.cache_info()
        lookups = info.hits + info.misses
        state = {
            "invariants.z2_coeff_closed.cache_hit_ratio":
                info.hits / lookups if lookups else 0.0,
            "invariants.z2_coeff_closed.cache_size": info.currsize,
            "invariants.z_cache.size": len(invariants._Z_CACHE),
            "conformal.pow_cache.size": conformal._pow.cache_info().currsize,
        }
        out = {}
        for name, unit, kind in METRICS:
            if kind != PER_OP:
                out[name] = (state[name], unit)
                continue
            base, _, quantity = name.rpartition(".")
            if quantity == "self_s":
                total = self.self_s.get(base, 0.0)
            elif quantity == "calls":
                total = self.calls.get(base, 0)
            else:  # yielded, out_nnz, out_bytes
                total = self.calls.get(name, 0)
            out[name] = (total / n_ops, unit)
        return out
