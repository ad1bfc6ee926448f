"""Tests of the benchmark's own machinery: python -m pytest perfbench"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from steklov_zeta import RationalComplex, TrigSeries, invariants, trace  # noqa: E402


# correctness gate ---------------------------------------------------------------


def test_gate_counts_a_wrong_value_and_goes_on():
    gate = workloads.Gate()
    ref = 12.5

    def op(i):
        got = ref * (1 + 1e-3) if i == 1 else ref  # op 1 returns a wrong value
        return [workloads.rel_check("z2", ref, got, 1e-6)]

    for i in range(3):
        gate.run(op, i)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert gate.errors[0].startswith("op 1: failed checks z2")
    assert gate.worst["z2"][0] == pytest.approx(12.5e-3 / 13.5)


def test_gate_counts_a_raising_op_and_an_exact_mismatch():
    gate = workloads.Gate()

    def raising(i):
        raise ZeroDivisionError("boom")

    gate.run(raising, 0)
    gate.run(lambda i: [workloads.exact_check("trace", Fraction(1, 3),
                                              Fraction(1, 3))], 1)
    gate.run(lambda i: [workloads.exact_check("trace", Fraction(1, 3),
                                              Fraction(1, 3) + Fraction(1, 10**30))], 2)
    assert (gate.attempted, gate.failed) == (3, 2)
    assert "ZeroDivisionError" in gate.errors[0]
    assert gate.errors[1].startswith("op 2:")


# self time from spans -----------------------------------------------------------


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ("op", -1, 0.0, 10.0),     # 0: children cover [1, 4] and [5, 9]
        ("z2", 0, 1.0, 4.0),       # 1: child covers [2, 3]
        ("enum", 1, 2.0, 3.0),     # 2: leaf
        ("z2", 0, 5.0, 9.0),       # 3: children overlap: union is [5, 8]
        ("enum", 3, 5.0, 7.0),     # 4
        ("enum", 3, 6.0, 8.0),     # 5
        ("late", 0, 9.5, 11.0),    # 6: clipped to [9.5, 10] for its parent
    ]
    got = layers.self_times(spans)
    assert got["op"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert got["z2"] == pytest.approx((3.0 - 1.0) + (4.0 - 3.0))
    assert got["enum"] == pytest.approx(1.0 + 2.0 + 2.0)
    assert got["late"] == pytest.approx(1.5)


def test_tracer_records_library_calls_and_uninstalls():
    a = TrigSeries.from_complex({0: 2.0, 1: 0.5, -1: 0.5, 3: 0.25j, -3: -0.25j})
    plain = invariants.z2_closed(a)
    originals = (invariants.z2_closed, invariants.zero_sum_multisets,
                 trace.BandedOperator.matmul, RationalComplex.__mul__)
    tracer = layers.Tracer()
    tracer.install()
    try:
        root = tracer.open("op")
        traced = invariants.z2_closed(a)
        tracer.close(root)
        op_s = tracer.spans[root][3] - tracer.spans[root][2]
        tracer.fold()
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert originals == (invariants.z2_closed, invariants.zero_sum_multisets,
                         trace.BandedOperator.matmul, RationalComplex.__mul__)
    assert set(metrics) == {name for name, _, _ in layers.METRICS}
    n_multisets = sum(1 for _ in invariants.zero_sum_multisets(a.support, 4))
    assert metrics["invariants.z2_closed.calls"][0] == 1
    assert metrics["invariants.zero_sum_multisets.yielded"][0] == n_multisets
    assert metrics["invariants.z2_coeff_closed.calls"][0] == n_multisets
    layer_s = sum(tracer.self_s[n] for n in tracer.self_s if n != "op")
    assert 0 < layer_s <= op_s


# benchmark definition ----------------------------------------------------------


def test_percentiles_report_the_tail_behind_p90():
    pct = run.percentiles([float(v) for v in range(1, 101)])
    assert pct["p50"] == 50.5
    assert pct["p90"] == pytest.approx(90.1)
    assert (pct["n"], pct["p90_tail"]) == (100, 10)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert list(run.NAMES) == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer[:len(layers.METRICS)] \
        == [(name, unit) for name, unit, _ in layers.METRICS]
    assert {name for name, _ in per_layer[len(layers.METRICS):]} == {
        "tracing.ops", "tracing.op_s.p50.untraced", "tracing.op_s.p50.traced",
        "tracing.overhead"}
