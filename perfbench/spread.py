"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] \
        [--seconds 25] [--out perfbench/runs.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json.  A spread above a third of the bound is
marked "wide".  Runs are made one after another; every run's result line is
kept in --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    runs = []
    failed = False
    for name in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                failed = True
                continue
            runs.append({"workload": name, "seed": seed, "result": result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    summary = {}
    print(f"\n{'workload':18s} {'metric':12s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in workloads:
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == name]
        if len(mine) < 2:
            continue
        for metric in bench["end_to_end"]:
            values = [m[metric["name"]]["value"] for m in mine]
            med, sp = statistics.median(values), spread(values)
            summary.setdefault(name, {})[metric["name"]] = {
                "median": med, "spread": sp, "unit": metric["unit"],
                "runs": len(values)}
            mark = "wide" if sp > metric["bound"] / 3 else ""
            print(f"{name:18s} {metric['name']:12s} {med:12.5g} "
                  f"{sp:8.4f} {metric['bound']:6.2f} {mark}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "seeds": seeds,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
