"""Run each workload N times and report how steady every metric is.

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(n=4)``) and the quartile
spread as a share of the median, next to the metric's ``bound`` from
``BENCHMARK.json``.  A spread above a third of the bound is marked
``wide``, above the bound ``NOISY``.  The deterministic accuracy lines
a run prints must repeat exactly; any that do not are marked
``NOT REPEATED``.  The spread of the unscaled host-second figures is
printed beside, for comparison.  The exit status is 1 if any run failed its output
check, any spread exceeded its bound or any deterministic metric moved.

    python3 perfbench/steadiness.py --runs 10                 # seeds 1..10
    python3 perfbench/steadiness.py --runs 5 --workloads service-replay
    python3 perfbench/steadiness.py --runs 3 --same-seed 7    # one seed

Runs are sequential, one process at a time, and skip the held-out seed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
DETERMINISTIC = re.compile(r"^\s+(\S+) (\S+) (\S+) \(deterministic\)$")
RAW = re.compile(r"(ops_per_s|op_p50_s|op_tail_s) ([0-9.e+-]+)")


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["deterministic"] = {m.group(1): m.group(2) for m in
                            map(DETERMINISTIC.match, lines) if m}
    host = next((line for line in lines if "host seconds as measured" in line), "")
    out["raw"] = {name: float(value) for name, value in RAW.findall(host)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--same-seed", type=int, default=None, metavar="SEED",
                        help="run one seed every time instead of 1..N")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT))
    from perfbench.run import HELD_OUT_SEED

    if args.same_seed is not None:
        seeds = [args.same_seed] * args.runs
    else:
        seeds = [s for s in range(1, args.runs + 2) if s != HELD_OUT_SEED][:args.runs]
    bad = False
    for workload in args.workloads:
        runs: List[Dict] = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}",
                  file=sys.stderr, flush=True)
        bad |= not all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, bad = "NOISY", True
                elif spread > bound / 3:
                    mark = "wide"
            print(f"  {metric:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bound!s:>6} {mark:<5} "
                  + " ".join(f"{v:.4g}" for v in values))
        for metric in runs[0]["raw"]:
            values = [r["raw"][metric] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric + ' (host s)':<24} spread "
                  f"{(q3 - q1) / statistics.median(values):.2%} "
                  + " ".join(f"{v:.4g}" for v in values))
        for metric in runs[0]["deterministic"]:
            seen = {r["deterministic"].get(metric) for r in runs}
            mark = "repeats" if len(seen) == 1 else "NOT REPEATED"
            bad |= len(seen) != 1
            print(f"  {metric:<22} {sorted(seen)} {mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
