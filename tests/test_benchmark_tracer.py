"""The benchmark tracer (perfbench/layers.py) wraps library functions by
module and name, and reads library caches by name for its state metrics;
the benchmark workloads (perfbench/workloads.py) call the library by name
and signature.  This pins both contracts inside the test suite, so that
renaming or deleting a traced name, a cache or a called function fails
here and not only under ``perfbench/run.py``."""

import subprocess
import sys

from steklov_zeta import TrigSeries, cli, invariants, lie, trace

from util import PERFBENCH, load_perfbench


def load_layers():
    return load_perfbench("layers")


def test_tracer_counts_the_relation_check_and_restores_originals():
    originals = (invariants.z2_coeff_closed, lie.raising_relation_check,
                 trace.BandedOperator.matmul, cli._emit)
    layers = load_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        results = list(lie.raising_relation_sweep(1, 3))
        z2 = trace.trace_difference(TrigSeries.exact({2: 1, -2: 1}), 2, 3)
        # the state metrics read library caches by name
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert list(metrics) == [name for name, _, _ in layers.METRICS]
    # one check per sorted multiset on the plane, each enumerated through
    # the traced zero_sum_multisets
    assert len(results) == 3 and all(value == 0 for _, value in results)
    assert tracer.calls["lie.raising_relation_check"] == 3
    assert tracer.calls["invariants.zero_sum_multisets"] == 1
    assert tracer.calls["invariants.zero_sum_multisets.yielded"] == 3
    # the trace route runs through the traced trace_difference
    assert z2 == 48
    assert tracer.calls["trace.trace_difference"] == 1
    assert (invariants.z2_coeff_closed, lie.raising_relation_check,
            trace.BandedOperator.matmul, cli._emit) == originals


def test_benchmark_workloads_run_their_first_op(tmp_path):
    """Op 0 of every workload, untimed: each returned check is ok."""
    workloads = load_perfbench("workloads")
    for name in workloads.NAMES:
        workload = workloads.build(name, 1, str(tmp_path))
        checks = workload.op(0)
        assert checks, name
        assert all(isinstance(c, workloads.Check) and c.ok
                   for c in checks), (name, checks)


def test_perfbench_suite_passes():
    """The benchmark's own tests (python -m pytest perfbench) pass; they pin
    the traced names and the caches that the tracer reads."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(PERFBENCH)], cwd=PERFBENCH.parent, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout.splitlines()[-1], proc.stdout
