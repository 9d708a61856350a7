"""``repro-experiments selfcheck``: strict invariant self-verification.

Re-runs the paper's headline sweeps -- Figure 3 (full strong-scaling
grid), Figure 4 (NCCL stage breakdown) and Table II (single-GPU NCCL
overhead) -- plus a 2-node hierarchical cluster pair (event and analytic
fast paths) and deliberately fault-injected runs (a single-chassis
NVLink isolation, a cluster rail failure, and a node crash), all under
``strict`` invariant enforcement (:mod:`repro.checks`), and prints a
per-invariant pass/violation report::

    repro-experiments selfcheck --fast
    repro-experiments selfcheck --jobs 4 --cache-dir results/selfcheck

A healthy simulator produces zero violations; any violation (fresh from
a simulation, or replayed from a cached result that recorded one when it
was first executed) makes the command exit non-zero, which is what the
CI smoke job keys on.  Cache statistics go to stderr in the same
``total: ...`` format as the main driver, so a second invocation against
a warm cache demonstrates that violation records survive the result
store round-trip.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.checks import all_checkers
from repro.core.config import CommMethodName, TrainingConfig
from repro.core.errors import SweepInterrupted
from repro.experiments import (
    fig3_training_time,
    fig4_breakdown,
    table2_nccl_overhead,
)
from repro.faults import (
    FaultPlan,
    NodeCrashFault,
    RailFault,
    ResiliencePolicy,
)
from repro.runner import SweepPoint, SweepRunner, SweepSpec
from repro.runner.spec import FailurePolicy, OomPolicy
from repro.topology import build_dgx1v

#: Reduced grid used by ``--fast`` (matches the main driver's ``--fast``).
FAST_BATCHES = (16,)
FAST_GPUS = (1, 4)

DEFAULT_CACHE_DIR = pathlib.Path("results/selfcheck-cache")


def _faulted_spec() -> SweepSpec:
    """One fault-injected NCCL run: invariants must hold through the
    mid-flight re-ring onto the degraded topology."""
    plan = FaultPlan.isolate_gpu(build_dgx1v(), 0, at=0.05)
    config = TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.NCCL)
    return SweepSpec(
        name="selfcheck-faulted",
        points=(SweepPoint.make(config, overrides={"faults": plan}),),
    )


def _tuned_spec() -> SweepSpec:
    """Two tuner-mode NCCL points (pinned tree, full auto) so the tree
    structural checkers and the protocol-aware cost model are exercised
    alongside the paper's compat-ring grids."""
    return SweepSpec(
        name="selfcheck-tuned",
        points=(
            SweepPoint.make(TrainingConfig(
                "resnet", 16, 4, comm_method=CommMethodName.NCCL,
                nccl_algorithm="tree", nccl_protocol="simple",
            )),
            SweepPoint.make(TrainingConfig(
                "resnet", 16, 8, comm_method=CommMethodName.NCCL_ALLREDUCE,
                nccl_algorithm="auto", nccl_protocol="auto",
            )),
        ),
    )


def _cluster_spec() -> SweepSpec:
    """Hierarchical cluster-tier points (event and analytic fast paths on
    a 2-node rail fabric) so the ``comm.hierarchical`` checkers and the
    analytic/event agreement are exercised under strict enforcement."""
    return SweepSpec(
        name="selfcheck-cluster",
        points=tuple(
            SweepPoint.make(TrainingConfig(
                "resnet", 16, 16,
                comm_method=CommMethodName.NCCL_ALLREDUCE,
                cluster_nodes=2, cluster_fabric="single-switch",
                cluster_collective="hierarchical-ring",
                cluster_fast_path=fast_path,
            ))
            for fast_path in ("event", "analytic")
        ),
    )


def _cluster_faulted_spec() -> SweepSpec:
    """Fault-injected cluster-tier points: a mid-epoch rail failure (the
    collective re-rails onto the survivors, exercising the
    ``rail-rebalance`` and ``degraded-rail-floor`` checkers) and a node
    crash recovered by SHRINK (the analytic fast path must fall back to
    the event path, exercising ``fallback-agreement``)."""

    def config() -> TrainingConfig:
        return TrainingConfig(
            "alexnet", 16, 16,
            comm_method=CommMethodName.NCCL_ALLREDUCE,
            cluster_nodes=2, cluster_fabric="single-switch",
            cluster_collective="hierarchical-ring",
            cluster_fast_path="auto",
        )

    rail_plan = FaultPlan(
        rail_faults=(RailFault(node=0, rail=1, at=0.05, bandwidth_scale=0.0),),
    )
    crash_plan = FaultPlan(
        node_crashes=(NodeCrashFault(node=1, at_iteration=3),),
        policy=ResiliencePolicy.SHRINK,
    )
    return SweepSpec(
        name="selfcheck-cluster-faulted",
        points=(
            SweepPoint.make(config(), overrides={"faults": rail_plan}),
            SweepPoint.make(config(), overrides={"faults": crash_plan}),
        ),
    )


def _specs(fast: bool) -> List[SweepSpec]:
    if fast:
        grid = dict(batch_sizes=FAST_BATCHES, gpu_counts=FAST_GPUS)
        t2 = dict(batch_sizes=FAST_BATCHES)
    else:
        grid = {}
        t2 = {}
    specs = [
        fig3_training_time.sweep_spec(**grid),
        fig4_breakdown.sweep_spec(**grid),
        table2_nccl_overhead.sweep_spec(**t2),
        _tuned_spec(),
        _cluster_spec(),
        _faulted_spec(),
        _cluster_faulted_spec(),
    ]
    # Record rather than raise: a strict-mode violation (FailureInfo) or
    # an OOM point must land in the report, not abort the remaining grid.
    return [
        dataclasses.replace(
            spec,
            oom_policy=OomPolicy.RECORD,
            failure_policy=FailurePolicy.RECORD,
        )
        for spec in specs
    ]


def _render_report(
    runner: SweepRunner,
    replayed: int,
    failures: List[Tuple[str, str]],
    ooms: int,
    points: int,
) -> Tuple[str, bool]:
    """The per-invariant report text and whether everything passed."""
    lines = [
        f"selfcheck: {points} point(s) verified under "
        f"{runner.invariants} invariant enforcement",
        "",
        f"{'invariant':<34} {'checked':>10} {'violated':>9}  status",
    ]
    total_violated = 0
    for checker in all_checkers():
        checked, violated = runner.check_stats.get(checker.invariant, (0, 0))
        total_violated += violated
        if violated:
            status = "VIOLATED"
        elif checked:
            status = "pass"
        else:
            status = "not exercised"
        lines.append(
            f"{checker.invariant:<34} {checked:>10} {violated:>9}  {status}"
        )
    lines.append("")
    lines.append(f"replayed violation records from cache: {replayed}")
    for label, reason in failures:
        lines.append(f"failed point: {label}: {reason}")
    if ooms:
        lines.append(f"out-of-memory points: {ooms}")
    ok = not total_violated and not replayed and not failures and not ooms
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


def main(argv: Optional[list] = None) -> int:
    """Entry point for the ``selfcheck`` subcommand (exit 0 iff PASS)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments selfcheck",
        description="Re-run the paper's headline sweeps (Fig. 3, Fig. 4, "
                    "Table II, plus a fault-injected run) under strict "
                    "physical-invariant verification and print a "
                    "per-invariant pass/violation report.",
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced grid (batch 16, 1 and 4 GPUs)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run simulations on N worker processes")
    parser.add_argument("--cache-dir", type=pathlib.Path,
                        default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="persistent result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the persistent cache")
    parser.add_argument("--invariants", choices=("warn", "strict"),
                        default="strict", metavar="MODE",
                        help="enforcement mode (default: strict)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-simulation progress to stderr")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    from repro.experiments.cli import _build_runner

    runner = _build_runner(args.jobs, args.cache_dir, args.no_cache,
                           args.progress, args.invariants)
    replayed = 0
    failures: List[Tuple[str, str]] = []
    ooms = 0
    points = 0
    try:
        for spec in _specs(args.fast):
            for outcome in runner.run(spec):
                points += 1
                if outcome.failure is not None:
                    failures.append((
                        outcome.point.describe(),
                        f"{outcome.failure.error_type}: "
                        f"{outcome.failure.message}",
                    ))
                elif outcome.oom is not None:
                    ooms += 1
                elif outcome.source in ("memory", "disk"):
                    replayed += len(
                        getattr(outcome.result, "violations", ()) or ()
                    )
    except (SweepInterrupted, KeyboardInterrupt):
        return 130
    finally:
        if runner.store is not None:
            runner.store.close()
    report, ok = _render_report(runner, replayed, failures, ooms, points)
    print(report)
    print(f"total: {runner.stats.describe()}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
