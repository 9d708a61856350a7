"""Compare the simulated answers of two checkouts, point by point.

Runs every point the benchmark can draw (``perfbench.population.
everything()``, the run ``perfbench/record_expected.py`` makes) once in
each checkout, in a subprocess with that checkout's ``src`` first on
``PYTHONPATH``, and compares ``iteration_time`` and ``epoch_time`` at full
precision.  It prints, per point family (the label's first part: grid,
tuner, faults, rail, fastpath, fresh), how many points differ and the max
and median relative |Δ| of each quantity::

    python3 tools/answer_diff.py OLD_CHECKOUT NEW_CHECKOUT

Compare against a run of the parent commit, not ``perfbench/expected.
json``: the benchmark checks answers only at printed precision, so the
committed values may differ from a checkout's in their last bits.

Exits 0 when every answer is bit-identical, 1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

#: Run in each checkout: every point's answers as JSON (floats keep full
#: precision through ``json``), ``null`` for a point that did not answer.
_RUN = """
import json, sys
from perfbench.population import everything
from repro.runner import SweepRunner, SweepSpec
from repro.runner.spec import FailurePolicy, OomPolicy
points = list(dict(everything()).items())
spec = SweepSpec.explicit(
    "answer-diff", [point for _, point in points],
    oom_policy=OomPolicy.RECORD, failure_policy=FailurePolicy.RECORD)
results = SweepRunner().run(spec)
json.dump({label: ([o.result.iteration_time, o.result.epoch_time]
                   if o.ok else None)
           for (label, _), o in zip(points, results.outcomes)}, sys.stdout)
"""

QUANTITIES = ("iteration_time", "epoch_time")

Answers = Dict[str, Optional[List[float]]]


def run_checkout(root: pathlib.Path) -> Answers:
    """Every point's ``[iteration_time, epoch_time]`` in one checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _RUN], cwd=root, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{root}: the sweep failed\n{done.stderr}")
    return json.loads(done.stdout)


def _relative(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def compare(old: Answers, new: Answers) -> Tuple[Dict[str, dict], List[str]]:
    """Per-family differences, and the labels only one side answered.

    Each family maps to ``{"points", "changed", quantity: [relative |Δ|
    of each changed point]}``.
    """
    families: Dict[str, dict] = {}
    unmatched = sorted(set(old) ^ set(new))
    for label in sorted(set(old) & set(new)):
        family = families.setdefault(label.split("/", 1)[0], {
            "points": 0, "changed": 0, **{q: [] for q in QUANTITIES}})
        family["points"] += 1
        a, b = old[label], new[label]
        if a == b:
            continue
        family["changed"] += 1
        if a is None or b is None:
            unmatched.append(label)
            continue
        for q, x, y in zip(QUANTITIES, a, b):
            if x != y:
                family[q].append(_relative(x, y))
    return families, unmatched


def render(families: Dict[str, dict], unmatched: List[str]) -> str:
    lines = [f"{'family':10s} {'points':>6s} {'changed':>7s}  "
             + "  ".join(f"{q + ' max/median |Δ|':>32s}" for q in QUANTITIES)]
    for name, family in sorted(families.items()):
        cells = []
        for q in QUANTITIES:
            deltas = family[q]
            cells.append(f"{max(deltas):15.3e} {statistics.median(deltas):15.3e}"
                         if deltas else f"{'-':>15s} {'-':>15s}")
        lines.append(f"{name:10s} {family['points']:6d} {family['changed']:7d}  "
                     + "  ".join(f"{c:>32s}" for c in cells))
    total = sum(f["points"] for f in families.values())
    changed = sum(f["changed"] for f in families.values())
    lines.append(f"{changed} of {total} points changed "
                 "(relative |Δ|, full precision)")
    lines.extend(f"answered on one side only: {label}" for label in unmatched)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path, help="reference checkout")
    parser.add_argument("new", type=pathlib.Path, help="changed checkout")
    args = parser.parse_args(argv)
    answers = []
    for root in (args.old, args.new):
        started = time.perf_counter()
        answers.append(run_checkout(root.resolve()))
        print(f"{root}: {len(answers[-1])} points in "
              f"{time.perf_counter() - started:.0f}s", file=sys.stderr)
    families, unmatched = compare(*answers)
    print(render(families, unmatched))
    return 0 if not unmatched and not any(
        f["changed"] for f in families.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
