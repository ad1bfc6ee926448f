"""One workload process of the benchmark; started by run.py, never by hand.

Each workload process is a fresh interpreter, so the unbounded library
caches start empty and one workload cannot warm another.  The process
prints one JSON line on stdout:

* ``ready``: time.monotonic() when set-up ended (imports of numpy and
  steklov_zeta plus the seed's inputs); the parent subtracts its own
  monotonic clock reading taken just before the spawn.
* ``main`` mode: op ``--first-op`` cold, then the next ops warm until
  ``--seconds`` have passed; every op time, and ru_maxrss.
* ``traced`` mode: ops 0 .. ``--ops`` - 1 with the layer tracer installed;
  every op time and the per-layer metrics.

Around every op the process times a fixed pure-Python reference loop, once
before and once after (``ref_s``: their mean), so that run.py can tell the
program's cost from the machine's speed at that moment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402,F401  (set-up includes importing numpy)
import steklov_zeta  # noqa: E402,F401

import workloads  # noqa: E402

# A run completes at least this many warm ops, however slow they are, so
# that the warm percentiles exist.
MIN_WARM = 3
REF_LOOP_N = 50_000


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop (no library code)."""
    start = time.perf_counter()
    d = {}
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i
        d[i & 1023] = s
    return time.perf_counter() - start


def timed(gate, op, index: int, times: list, refs: list) -> None:
    before = reference_loop()
    start = time.perf_counter()
    gate.run(op, index)
    times.append(time.perf_counter() - start)
    refs.append((before + reference_loop()) / 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["main", "traced"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=1)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.work_dir)
    ready = time.monotonic()
    gate = workloads.Gate()
    out = {"ready": ready, "params": wl.params}

    times, refs = [], []
    if args.mode == "main":
        timed(gate, wl.op, args.first_op, times, refs)
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(times) <= MIN_WARM:
            timed(gate, wl.op, args.first_op + len(times), times, refs)
        out["window_s"] = time.perf_counter() - start
    else:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        for i in range(args.ops):
            root = tracer.open("op")
            try:
                timed(gate, wl.op, i, times, refs)
            finally:
                tracer.close(root)
            tracer.fold()
            if time.perf_counter() - start > args.seconds:
                break
        out["layers"] = tracer.metrics(len(times))
    out["op_s"] = times
    out["ref_s"] = refs

    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["attempted"] = gate.attempted
    out["failed"] = gate.failed
    out["errors"] = gate.errors[:5]
    out["worst"] = gate.worst
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
