"""steklov-zeta benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload float-z2-highdeg --seed 1 \
        --seconds 25 --trace 0

Load is a closed loop with one caller in one process: no threads, no
process pools.  Each workload process is a fresh interpreter (worker.py)
that sets up, runs one op with every library cache empty, then the next
ops warm for its share of --seconds.

--trace 0 runs ROUNDS such processes one after another, each for
--seconds / ROUNDS; process j starts cold at op j (so the cold figure is
not one input's), and prints the end-to-end metrics:

  setup_s      interpreter start until the first op can be issued (imports
               of numpy and steklov_zeta, the seed's inputs); wall time,
               median of the rounds
  first_op_s   the cold op, every library cache empty; median of the rounds
  op_s.p50     median latency of the warm ops of all rounds
  op_s.p90     90th percentile of the same ops; it is trustworthy only with
               at least ten of them above it (p90_tail in the report)
  ops_per_s    warm ops completed per second of (reference-speed) op time
  peak_rss_mb  ru_maxrss of a workload process, median of the rounds

Op times are reported at reference machine speed.  The machines this runs
on are shared: a fixed pure-Python loop runs at two speeds about 45% apart,
switching many times a second, in proportions that drift over minutes.
Raw wall times of the same op therefore spread by 15-30% from run to run,
more than any bound a regression check can use.  worker.py times a fixed
reference loop just before and after every op; run.py scales each op's
wall time by REF_LOOP_S / (the loop's mean time over that process), where
REF_LOOP_S is the loop's time at full speed on the baseline machine.  The
mean over the process, not the two loops next to the op, because a single
loop catches one of the two speeds while an op of a second or two sees the
mix.  The result is the op's wall time at full machine speed; library code
cannot change the loop, so a slower program still reads slower.  Raw wall times are kept in the report
(op_wall_s, first_op_wall_s, wall_ops_per_s).

--trace 1 prints the per-layer metrics of layers.METRICS.  It runs the
workload untraced for half of --seconds, then the same op indices again in
a fresh traced process, and reports both warm medians and their ratio as
the tracing overhead.  Layer times (s/op) are scaled to reference speed
like op times.

Every op runs its cross-route check; an op that fails a check or raises is
counted in "failed" and the run goes on.  The last stdout line is the JSON
result; the exit code is 1 when any op failed, 2 on bad usage or a missing
library, 3 when a workload process died.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "steklov_zeta")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")

NAMES = ("float-z2-highdeg", "exact-routes", "campaign-n15")
ROUNDS = 4                # fresh workload processes in an untraced run
# worker.reference_loop() at full speed on the baseline machine (Intel Xeon,
# 2 vCPU, Python 3.11.7): the fast mode of its time, 5th percentile of 600.
REF_LOOP_S = 5.5e-3
DEADLINE_S = 170.0        # a run ends within this, whatever --seconds says
END_TO_END = (("setup_s", "s"), ("first_op_s", "s"), ("op_s.p50", "s"),
              ("op_s.p90", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


class WorkerDied(RuntimeError):
    pass


def percentiles(values) -> dict:
    """p50, p90 by linear interpolation, the sample count, and the number
    of samples above p90 (p90 wants at least ten)."""
    if len(values) < 2:
        raise ValueError("need at least two samples")
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    p90 = cuts[8]
    return {"p50": statistics.median(values), "p90": p90, "n": len(values),
            "p90_tail": sum(1 for v in values if v > p90)}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the library sources (a checkout may have no .git)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def spawn(args, deadline: float, **extra) -> tuple:
    """Run one workload process; return (setup seconds, its JSON record)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", WORK_DIR]
    for key, value in extra.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerDied("no time left for another workload process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerDied(f"workload process timed out: {cmd}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerDied(f"workload process exited {proc.returncode}: {cmd}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["ready"] - spawned, record


def speed_scale(rec) -> float:
    """Factor from a process's wall times to full machine speed (above)."""
    return REF_LOOP_S / statistics.fmean(rec["ref_s"])


def at_reference_speed(rec) -> list:
    scale = speed_scale(rec)
    return [t * scale for t in rec["op_s"]]


def run_untraced(args, deadline: float) -> tuple:
    setups, rounds = [], []
    for j in range(ROUNDS):
        setup, rec = spawn(args, deadline, mode="main", first_op=j,
                           seconds=args.seconds / ROUNDS)
        setups.append(setup)
        rounds.append(rec)
    scaled = [at_reference_speed(r) for r in rounds]
    firsts = [s[0] for s in scaled]
    warm = [t for s in scaled for t in s[1:]]
    pct = percentiles(warm)
    values = {
        "setup_s": statistics.median(setups),
        "first_op_s": statistics.median(firsts),
        "op_s.p50": pct["p50"],
        "op_s.p90": pct["p90"],
        "ops_per_s": len(warm) / sum(warm),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    refs = [x for r in rounds for x in r["ref_s"]]
    samples = {
        "rounds": ROUNDS,
        "setup_s": setups,
        "first_op_s": firsts,
        "first_op_wall_s": [r["op_s"][0] for r in rounds],
        "op_s": pct,
        "op_wall_s": percentiles([t for r in rounds for t in r["op_s"][1:]]),
        "ops_per_s": {"ops": len(warm), "op_s_sum": sum(warm),
                      "wall_ops_per_s": len(warm) / sum(r["window_s"] for r in rounds)},
        "ref_loop_s": {"full_speed": REF_LOOP_S, "min": min(refs),
                       "median": statistics.median(refs), "n": len(refs)},
    }
    return metrics, samples, rounds


def run_traced(args, deadline: float) -> tuple:
    from layers import METRICS

    _, plain = spawn(args, deadline, mode="main", seconds=args.seconds / 2)
    n_ops = len(plain["op_s"])
    _, traced = spawn(args, deadline, mode="traced", ops=n_ops,
                      seconds=2 * args.seconds)
    plain_p50 = statistics.median(at_reference_speed(plain)[1:])
    traced_p50 = statistics.median(at_reference_speed(traced)[1:])
    scale = speed_scale(traced)
    metrics = {}
    for name, unit, _ in METRICS:
        value = traced["layers"][name][0]
        metrics[name] = {"value": value * scale if unit == "s/op" else value,
                         "unit": unit}
    metrics["tracing.ops"] = {"value": len(traced["op_s"]), "unit": "count"}
    metrics["tracing.op_s.p50.untraced"] = {"value": plain_p50, "unit": "s"}
    metrics["tracing.op_s.p50.traced"] = {"value": traced_p50, "unit": "s"}
    metrics["tracing.overhead"] = {"value": traced_p50 / plain_p50 - 1.0,
                                   "unit": "ratio"}
    samples = {"untraced_ops": n_ops, "traced_ops": len(traced["op_s"])}
    return metrics, samples, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one steklov-zeta benchmark workload.")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"perfbench: no steklov_zeta sources under {ROOT}/src; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.trace:
            metrics, samples, procs = run_traced(args, deadline)
        else:
            metrics, samples, procs = run_untraced(args, deadline)
    except WorkerDied as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    worst: dict = {}
    for p in procs:
        for name, (dev, tol) in p["worst"].items():
            if name not in worst or dev > worst[name]["deviation"]:
                worst[name] = {"deviation": dev, "tolerance": tol}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), **source_identity(),
        "params": procs[-1]["params"], "samples": samples,
        "ops": attempted, "fail_frac": failed / attempted,
        "worst_checks": worst,
        "errors": [e for p in procs for e in p["errors"]][:5],
    }
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']!r:>24} {m['unit']}")
    print(f"  {'fail_frac':46s} {failed / attempted!r:>24} "
          f"({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
