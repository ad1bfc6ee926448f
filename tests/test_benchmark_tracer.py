"""The benchmark tracer (perfbench/layers.py) wraps library functions by
module and name, and reads library caches by name for its state metrics.
This pins that contract inside the test suite, so that renaming or
deleting a traced name or a cache fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib.util
import pathlib

from steklov_zeta import TrigSeries, cli, invariants, lie, trace

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert len(results) == 6 and all(value == 0 for _, value in results)
    assert tracer.calls["lie.raising_relation_check"] == 6
    # the trace chain runs through the traced BandedOperator.matmul
    assert z2 == 48
    assert tracer.calls["trace.BandedOperator.matmul"] == 1
    assert tracer.calls["trace.matmul.out_nnz"] > 0
    assert (invariants.z2_coeff_closed, lie.raising_relation_check,
            trace.BandedOperator.matmul, cli._emit) == originals
