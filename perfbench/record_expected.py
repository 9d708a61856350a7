"""Record the simulated answer of every point the benchmark can draw.

Writes ``perfbench/expected.json``: ``{label: [iteration_time,
epoch_time]}`` in seconds, full precision.  The benchmark compares its
answers with these at the precision ``results/*.txt`` prints (epoch time
to 0.01 s, iteration time to 0.01 ms), so any change to a simulated
number shows up as a wrong answer.  Regenerate only when a change is
meant to move simulated results, and say so in the change::

    python3 perfbench/record_expected.py

It rebuilds the whole file from ``population.everything()`` (about 5
minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.population import everything  # noqa: E402
from repro.runner import SweepRunner, SweepSpec  # noqa: E402
from repro.runner.spec import FailurePolicy, OomPolicy  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    points = list(dict(everything()).items())
    spec = SweepSpec.explicit(
        "expected", [point for _, point in points],
        oom_policy=OomPolicy.RECORD, failure_policy=FailurePolicy.RECORD,
    )
    started = time.perf_counter()
    results = SweepRunner().run(spec)
    table = {}
    for (label, _), outcome in zip(points, results.outcomes):
        if not outcome.ok:
            print(f"{label}: not ok ({outcome.oom or outcome.failure})",
                  file=sys.stderr)
            return 1
        table[label] = [outcome.result.iteration_time,
                        outcome.result.epoch_time]
    OUT.write_text("{\n" + ",\n".join(
        f"{json.dumps(label)}: {json.dumps(value)}"
        for label, value in sorted(table.items())) + "\n}\n")
    print(f"{len(table)} points recorded in "
          f"{time.perf_counter() - started:.0f}s -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
