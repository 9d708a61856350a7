"""The repository's benchmark: one command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
op sequence twice, untraced then traced, and prints the per-layer
metrics plus ``trace.overhead_ratio`` (traced / untraced ``ops_per_s``).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A traced
run also writes one Chrome trace to ``.perfbench/`` at the root.

Workloads and the layers they exercise are described in
``perfbench/workloads.py``; the seed picks the ops (``HELD_OUT_SEED`` is
reserved for re-checking a claim on a seed nobody tuned against).
Answers are checked against ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("paper-cold", "strict-faults", "service-replay")

#: A seed kept out of all tuning: re-run a claimed gain on it.
HELD_OUT_SEED = 20261017

#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) (continued fraction)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 300):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return math.exp(log_front) * f / a


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta-weighted mean of all order statistics, centred on rank
    ``p * n``: unlike one order statistic it does not jump between two
    ops of different cost when host noise swaps their order.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The latency at the highest percentile with ``TAIL_BEYOND`` samples
    beyond it, and that percentile."""
    n = len(latencies)
    p = max(1, n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


async def _maybe(value: Any) -> Any:
    return await value if inspect.isawaitable(value) else value


def make_workload(name: str, seed: int, seconds: float,
                  workdir: pathlib.Path):
    from perfbench.workloads import ServiceWorkload, SweepWorkload

    if name == "service-replay":
        return ServiceWorkload(seed, seconds, workdir)
    return SweepWorkload(name, seed, seconds, workdir)


async def untraced(name: str, seed: int, seconds: float,
                   workdir: pathlib.Path, reps: Optional[int] = None):
    """Set up ``reps`` times (default: the workload's ``setup_reps``),
    timing each in reference-machine seconds, then run the timed phase on
    the last set-up."""
    from perfbench.workloads import HostClock

    workload = make_workload(name, seed, seconds, workdir)
    setup_times = []
    for rep in range(reps or workload.setup_reps):
        if rep:
            await _maybe(workload.teardown(state))
        clock = HostClock(samples=3)
        t0 = time.perf_counter()
        state = await _maybe(workload.setup(rep))
        setup_times.append((time.perf_counter() - t0) * clock.scale())
    try:
        result = await _maybe(workload.run(state))
    finally:
        await _maybe(workload.teardown(state))
    return setup_times, result


async def traced(name: str, seed: int, seconds: float,
                 workdir: pathlib.Path):
    """One traced set-up and timed phase; per-layer deltas of each."""
    from perfbench import tracing

    workload = make_workload(name, seed, seconds, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s0 = tracer.snapshot()
        state = await _maybe(workload.setup(0))
        s1 = tracer.snapshot()
        w1: Dict[str, Any] = {}
        w2: Dict[str, Any] = {}
        try:
            if name == "service-replay":
                # The service's one pool worker was forked with tracing on;
                # its totals come back through the pool itself.
                pool = state["service"].executor._ensure_pool()
                loop = asyncio.get_running_loop()
                w1 = await loop.run_in_executor(pool, tracing.worker_snapshot)
            result = await _maybe(workload.run(state))
            s2 = tracer.snapshot()
            if name == "service-replay":
                w2 = await loop.run_in_executor(pool, tracing.worker_snapshot)
        finally:
            await _maybe(workload.teardown(state))
        timed = tracing.merge(tracing.delta(s2, s1), tracing.delta(w2, w1))
        setup = tracing.delta(s1, s0)
        trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        tracing.write_trace(trace_path, tracing.delta(s2, s0), w2,
                            {"workload": name, "seed": seed})
    finally:
        tracer.uninstall()
    return result, timed, setup, trace_path


def ops_per_s(result) -> float:
    """Completed (not failed, refused or wrong) ops per timed second."""
    return (result.attempted - result.failed) / result.wall


def end_to_end(setup_times: List[float], result) -> Dict[str, Tuple[float, str]]:
    latency_tail, _ = tail(result.latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s(result), "1/s"),
        "op_p50_s": (quantile(result.latencies, 0.5), "s"),
        "op_tail_s": (latency_tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - result.failed / result.attempted, "ratio"),
    }


def per_layer(name: str, result, d: Dict[str, Any], setup: Dict[str, Any],
              overhead: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from one traced timed phase (see README)."""
    from perfbench.tracing import span_totals, tally

    n = result.attempted
    facts = result.facts
    c = d["counters"]
    events = c.get("sim.events", 0)
    _, _, measure_self, measure_direct = span_totals(d, "trainer.measure")

    def total(span: str) -> float:
        return span_totals(d, span)[1]

    def per_call(entry: str) -> float:
        calls, seconds = tally(d, entry)[:2]
        return seconds / calls if calls else 0.0

    records = [tally(d, f"profile.record_{k}") for k in ("kernel", "transfer", "api")]
    runs = tally(d, "SweepRunner.run")
    loads = tally(d, "store.load_entry")
    replay = tally(setup, "store.replay_journal")
    points = facts.get("points", 0)
    sweep = name != "service-replay"
    overhead_s = (runs[1] - total("Trainer.run") - total("trainer.compile")
                  if runs[0] else 0.0)

    def share(key: str) -> float:
        return facts.get(key, 0) / points if points else 0.0

    m = {
        "sim.events_per_op": (events / n, "count"),
        "sim.us_per_event": (
            1e6 * (measure_self - measure_direct) / events if events else 0.0,
            "us"),
        "gpu.kernels_per_op": (tally(d, "profile.record_kernel")[0] / n, "count"),
        "gpu.schedule_s_per_op": (total("costmodel.schedule") / n, "s"),
        "topology.dmas_per_op": (c.get("fabric.dmas", 0) / n, "count"),
        "topology.bytes_per_op": (c.get("fabric.bytes", 0) / n, "B"),
        "comm.collectives_per_op": (c.get("nccl.collectives", 0) / n, "count"),
        "comm.nccl_pipeline_s_per_op": (total("nccl.pipeline") / n, "s"),
        "comm.nccl_build_s_per_op": (total("nccl.build") / n, "s"),
        "comm.p2p_plan_s_per_op": (total("p2p.plan") / n, "s"),
        "train.compile_s_per_op": (total("trainer.compile") / n, "s"),
        "train.build_s_per_op": (total("trainer.build") / n, "s"),
        "train.measure_self_s_per_op": (measure_self / n, "s"),
        "train.iterations_per_op": (c.get("trainer.iterations", 0) / n, "count"),
        "profile.records_per_op": (sum(r[0] for r in records) / n, "count"),
        "profile.record_s_per_op": (sum(r[1] for r in records) / n, "s"),
        "checks.evaluations_per_op": (c.get("checks.evaluations", 0) / n, "count"),
        "checks.payloads_per_op": (c.get("checks.payloads", 0) / n, "count"),
        "checks.check_s_per_op": (tally(d, "checks.check")[1] / n, "s"),
        "checks.post_measure_s_per_op": (total("trainer.checks") / n, "s"),
        "faults.faulted_ops": (facts.get("faulted", 0), "count"),
        "faults.segments_per_op": (facts.get("segments", 0) / n, "count"),
        "runner.overhead_s_per_op": (max(0.0, overhead_s) / n, "s"),
        "runner.memo_hit_ratio": (
            facts["memo_hits"] / facts["lookups"]
            if sweep and facts["lookups"] else 0.0, "ratio"),
        "runner.store_hit_ratio": (loads[2] / loads[0] if loads[0] else 0.0,
                                   "ratio"),
        "runner.store_load_s_per_call": (per_call("store.load_entry"), "s"),
        "runner.store_write_s_per_call": (per_call("store.store"), "s"),
        "runner.journal_replay_s": (replay[1], "s"),
        "runner.journal_replayed": (replay[3], "count"),
        "service.admit_s_per_req": (per_call("service.admit"), "s"),
        "service.execute_s_per_point": (per_call("service.execute"), "s"),
        "service.analytic_s_per_call": (per_call("service.analytic_estimate"), "s"),
        "service.dedup_ratio": (share("deduped"), "ratio"),
        "service.disk_ratio": (share("disk_hits"), "ratio"),
        "service.degraded_ratio": (share("degraded"), "ratio"),
        "service.executed_per_req": (
            facts.get("executed", 0) / n if not sweep else 0.0, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


def report(metrics: Dict[str, Tuple[float, str]]) -> None:
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {unit}")


def emit(result, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    t0 = time.perf_counter()
    import perfbench.workloads  # noqa: F401 - timed: the import cost
    import_s = time.perf_counter() - t0

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} (held-out seed: {HELD_OUT_SEED})")
    print(f"  import_s {import_s:.3f} s (not part of setup_s)")
    try:
        if args.trace:
            _, base = asyncio.run(untraced(
                args.workload, args.seed, args.seconds, workdir, reps=1))
            result, timed, setup, trace_path = asyncio.run(traced(
                args.workload, args.seed, args.seconds, workdir))
            overhead = ops_per_s(result) / ops_per_s(base)
            metrics = per_layer(args.workload, result, timed, setup, overhead)
            result.failed += base.failed
            result.wrong += base.wrong
            print(f"  trace written to {trace_path.relative_to(ROOT)}")
        else:
            setup_times, result = asyncio.run(untraced(
                args.workload, args.seed, args.seconds, workdir))
            metrics = end_to_end(setup_times, result)
            _, pct = tail(result.latencies)
            print(f"  setup reps {len(setup_times)}: "
                  + " ".join(f"{s:.3f}" for s in setup_times) + " s")
            print(f"  op_tail_s is p{pct:.1f} of {result.attempted} ops "
                  f"({TAIL_BEYOND} beyond)")
            if result.host_factors:
                print(f"  host seconds as measured: ops_per_s "
                      f"{(result.attempted - result.failed) / result.raw_wall:.6g}, "
                      f"op_p50_s "
                      f"{quantile(result.raw_latencies, 0.5):.6g}, "
                      f"op_tail_s {tail(result.raw_latencies)[0]:.6g}; "
                      f"host speed factor median "
                      f"{statistics.median(result.host_factors):.3f} (range "
                      f"{min(result.host_factors):.3f}-"
                      f"{max(result.host_factors):.3f})")
            print(f"  fail_ratio {result.failed / result.attempted:.6g}")
            for key, (value, unit) in result.accuracy.items():
                print(f"  {key} {value!r} {unit} (deterministic)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.wrong[:20]:
        print(f"  WRONG {line}")
    report(metrics)
    emit(result, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
