"""Command-line driver: regenerate any table or figure of the paper.

Usage::

    repro-experiments table1 fig2          # specific artifacts
    repro-experiments all                  # everything
    repro-experiments fig3 --fast          # reduced sweep for a quick look
    repro-experiments fig4 -o results/     # also write the text output
    repro-experiments all --jobs 4         # simulate on 4 worker processes
    repro-experiments all --no-cache       # ignore the persistent cache

``--fast`` restricts sweeps to batch 16 and {1, 4} GPUs, which keeps the
whole run under a few seconds while preserving the qualitative shapes.

Every sweep executes through one shared :class:`~repro.runner.SweepRunner`:
``--jobs N`` fans simulations out over a process pool (the simulator is
deterministic, so output is identical to a serial run), and results are
persisted as JSON under ``--cache-dir`` (default ``results/cache``) keyed
by a content hash of the full configuration -- a second invocation
re-renders every table without running a single simulation.  Timing and
cache statistics go to stderr; stdout carries only the artifacts.

The ``obs`` (alias ``trace``) subcommand profiles one training run with
the full observability stack and exports it in any combination of
formats::

    repro-experiments obs --network resnet --gpus 4 --comm nccl \\
        --formats prometheus,jsonl,chrome,csv -o results/obs
    repro-experiments trace --network alexnet --print-gpu-summary

The ``selfcheck`` subcommand re-runs the paper's headline sweeps under
strict physical-invariant verification (:mod:`repro.checks`) and prints
a per-invariant pass/violation report::

    repro-experiments selfcheck --fast

``--self-profile TRACE`` profiles the simulator itself (:mod:`repro.perf`)
during any experiment run and exports a Chrome trace of its self-time::

    repro-experiments fig3 --fast --self-profile self.trace.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable, Dict, Optional

from repro.experiments import (
    ablations,
    async_study,
    bandwidth_sweep,
    capacity_study,
    cluster_faults,
    cluster_scaling,
    faults_study,
    multinode_study,
    nccl_ablation,
    strategies as strategies_study,
    fig2_topology,
    fig3_training_time,
    fig4_breakdown,
    fig5_weak_scaling,
    table1_networks,
    table2_nccl_overhead,
    table3_sync_overhead,
    table4_memory,
)
from repro.runner import ResultStore, SweepRunner

FAST_BATCHES = (16,)
FAST_GPUS = (1, 4)

DEFAULT_CACHE_DIR = pathlib.Path("results/cache")


def _run_experiment(name: str, cache: SweepRunner, fast: bool) -> str:
    if name == "table1":
        return table1_networks.render(table1_networks.run())
    if name == "fig2":
        return fig2_topology.render(fig2_topology.run())
    if name == "fig3":
        kwargs = dict(batch_sizes=FAST_BATCHES, gpu_counts=FAST_GPUS) if fast else {}
        return fig3_training_time.render(fig3_training_time.run(cache, **kwargs))
    if name == "table2":
        kwargs = dict(batch_sizes=FAST_BATCHES) if fast else {}
        return table2_nccl_overhead.render(table2_nccl_overhead.run(cache, **kwargs))
    if name == "fig4":
        kwargs = dict(batch_sizes=FAST_BATCHES, gpu_counts=FAST_GPUS) if fast else {}
        return fig4_breakdown.render(fig4_breakdown.run(cache, **kwargs))
    if name == "table3":
        kwargs = dict(batch_sizes=FAST_BATCHES, gpu_counts=FAST_GPUS) if fast else {}
        return table3_sync_overhead.render(table3_sync_overhead.run(cache, **kwargs))
    if name == "table4":
        return table4_memory.render(table4_memory.run())
    if name == "fig5":
        kwargs = dict(batch_sizes=FAST_BATCHES, gpu_counts=FAST_GPUS) if fast else {}
        return fig5_weak_scaling.render(fig5_weak_scaling.run(cache, **kwargs))
    if name == "ablate":
        networks = ("alexnet",) if fast else ("alexnet", "inception-v3")
        return ablations.render(ablations.run(networks=networks, runner=cache))
    if name == "async":
        kwargs = dict(networks=("lenet",), gpu_counts=(2, 4)) if fast else {}
        return async_study.render(async_study.run(runner=cache, **kwargs))
    if name == "capacity":
        kwargs = dict(networks=("resnet",), num_gpus=4) if fast else {}
        return capacity_study.render(capacity_study.run(runner=cache, **kwargs))
    if name == "faults":
        kwargs = (
            dict(networks=("alexnet",), gpu_counts=(4,)) if fast else {}
        )
        return faults_study.render(faults_study.run(runner=cache, **kwargs))
    if name == "report":
        from repro.experiments import report as report_module

        return report_module.generate(cache, fast=fast)
    if name == "multinode":
        kwargs = dict(networks=("resnet",), node_counts=(1, 2)) if fast else {}
        return multinode_study.render(multinode_study.run(runner=cache, **kwargs))
    if name == "cluster":
        kwargs = (
            dict(networks=("resnet",), node_counts=(1, 2, 128)) if fast else {}
        )
        return cluster_scaling.render(
            cluster_scaling.run(runner=cache, **kwargs))
    if name == "cluster-faults":
        kwargs = (
            dict(networks=("alexnet",), node_counts=(2,)) if fast else {}
        )
        return cluster_faults.render(
            cluster_faults.run(runner=cache, **kwargs))
    if name == "nccl":
        kwargs = dict(networks=("alexnet",)) if fast else {}
        return nccl_ablation.render(nccl_ablation.run(runner=cache, **kwargs))
    if name == "strategies":
        kwargs = (
            dict(networks=("lenet", "alexnet"), batch_size=16)
            if fast else {}
        )
        return strategies_study.render(
            strategies_study.run(runner=cache, **kwargs))
    if name == "validate":
        from repro.analysis import validation

        report = validation.validate(cache)
        return validation.render(report)
    if name == "bandwidth":
        kwargs = (
            dict(networks=("alexnet",), scales=(1.0, 4.0), num_gpus=4)
            if fast else {}
        )
        return bandwidth_sweep.render(bandwidth_sweep.run(runner=cache, **kwargs))
    raise SystemExit(f"unknown experiment {name!r}")


EXPERIMENTS = (
    "table1", "fig2", "fig3", "table2", "fig4", "table3", "table4", "fig5",
    "ablate", "async", "bandwidth", "capacity", "cluster", "cluster-faults",
    "faults", "multinode", "nccl", "strategies", "validate", "report",
)

OBS_FORMATS = ("prometheus", "jsonl", "chrome", "csv", "summary")


def all_subcommands() -> tuple:
    """Every name ``repro-experiments`` accepts as its first argument.

    The docs gate (``tools/check_docs.py``) compares this list against the
    CLI reference in ``docs/API.md``, so the two cannot drift apart.
    """
    return EXPERIMENTS + ("all", "obs", "trace", "selfcheck", "serve")


def obs_main(argv: Optional[list] = None) -> int:
    """``repro-experiments obs``: profile one run, export every format."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs",
        description="Profile one training run with the repro.obs stack and "
                    "export metrics/events (Prometheus, JSONL, Chrome trace, "
                    "CSV, nvprof-style summary).",
    )
    parser.add_argument("--network", default="resnet",
                        help="network to train (default: resnet)")
    parser.add_argument("--batch", type=int, default=16, help="batch size")
    parser.add_argument("--gpus", type=int, default=4, help="GPU count")
    parser.add_argument("--comm", default="nccl",
                        help="communication method (p2p, nccl, nccl-allreduce)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="warm-up iterations excluded from measurement")
    parser.add_argument("--iterations", type=int, default=2,
                        help="measured iterations")
    parser.add_argument("--formats", default="prometheus,jsonl,chrome",
                        help=f"comma list of {', '.join(OBS_FORMATS)}, or 'all'")
    parser.add_argument("--print-gpu-summary", action="store_true",
                        help="print the nvprof-style GPU summary report")
    parser.add_argument("-o", "--output-dir", type=pathlib.Path,
                        default=pathlib.Path("results/obs"),
                        help="directory for exported artifacts")
    parser.add_argument("--debug", action="store_true",
                        help="show the full traceback on simulation errors "
                             "instead of a one-line message")
    args = parser.parse_args(argv)

    formats = (
        list(OBS_FORMATS) if args.formats == "all"
        else [f.strip() for f in args.formats.split(",") if f.strip()]
    )
    for fmt in formats:
        if fmt not in OBS_FORMATS:
            parser.error(f"unknown format {fmt!r}; choose from {OBS_FORMATS}")

    from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
    from repro.core.errors import ReproError
    from repro.obs import (
        ObsSession,
        render_gpu_summary,
        render_prometheus,
        write_profile_csv,
    )
    from repro.profile import export_chrome_trace
    from repro.train import Trainer

    try:
        comm = CommMethodName(args.comm)
    except ValueError:
        parser.error(f"unknown comm method {args.comm!r}; choose from "
                     f"{tuple(m.value for m in CommMethodName)}")
    session = ObsSession()
    try:
        config = TrainingConfig(args.network, args.batch, args.gpus,
                                comm_method=comm)
        trainer = Trainer(
            config,
            sim=SimulationConfig(warmup_iterations=args.warmup,
                                 measure_iterations=args.iterations),
            keep_profiler=True,
            obs=session,
        )
        result = trainer.run()
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiler = result.profiler

    stem = f"{args.network}_b{args.batch}_g{args.gpus}_{args.comm}"
    out_dir = args.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"profiled {config.describe()}: "
          f"iteration = {result.iteration_time * 1e3:.2f} ms, "
          f"{len(profiler.kernels)} kernels, "
          f"{len(profiler.transfers)} transfers, "
          f"{len(session.recorder.events)} bus events")

    if "prometheus" in formats:
        path = out_dir / f"{stem}.prom"
        path.write_text(render_prometheus(session.registry))
        print(f"wrote {path} (Prometheus text format)")
    if "jsonl" in formats:
        path = out_dir / f"{stem}.jsonl"
        with path.open("w") as fp:
            lines = session.recorder.write(fp)
        print(f"wrote {path} ({lines} events)")
    if "chrome" in formats:
        path = out_dir / f"{stem}.trace.json"
        with path.open("w") as fp:
            export_chrome_trace(profiler, fp)
        print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    if "csv" in formats:
        path = out_dir / f"{stem}.csv"
        with path.open("w") as fp:
            rows = write_profile_csv(profiler, fp)
        print(f"wrote {path} ({rows} rows)")
    if "summary" in formats or args.print_gpu_summary:
        print(render_gpu_summary(profiler))
    return 0


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("obs", "trace"):
        return obs_main(list(argv[1:]))
    if argv and argv[0] == "selfcheck":
        from repro.experiments import selfcheck

        return selfcheck.main(list(argv[1:]))
    if argv and argv[0] == "serve":
        from repro.service import server

        return server.main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures from simulation "
                    "(or profile one run via the 'obs'/'trace' subcommand). "
                    "All sweeps share one runner: --jobs parallelizes the "
                    "simulations, and finished results are cached on disk so "
                    "repeat invocations are instant.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"any of {', '.join(EXPERIMENTS)}, or 'all' "
             "(or: obs/trace [--help] for the observability exporter, "
             "selfcheck [--help] for strict invariant verification, "
             "serve [--help] for the resilient sweep service)",
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced sweep (batch 16, 1 and 4 GPUs)")
    parser.add_argument("-o", "--output-dir", type=pathlib.Path, default=None,
                        help="also write each artifact to <dir>/<name>.txt")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run simulations on N worker processes "
                             "(default: 1, serial; output is identical)")
    parser.add_argument("--cache-dir", type=pathlib.Path,
                        default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="persistent result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the persistent cache")
    parser.add_argument("--progress", action="store_true",
                        help="print per-simulation progress (with live "
                             "throughput and ETA) to stderr")
    parser.add_argument("--self-profile", type=pathlib.Path, default=None,
                        metavar="TRACE",
                        help="profile the simulator itself: write a Chrome "
                             "trace of simulator self-time to TRACE and "
                             "print a span report to stderr")
    parser.add_argument("--invariants", choices=("off", "warn", "strict"),
                        default="off", metavar="MODE",
                        help="physical-invariant verification for executed "
                             "simulations: off (default), warn (record and "
                             "report violations) or strict (a violation "
                             "fails the point)")
    parser.add_argument("--strict-invariants", action="store_true",
                        help="shorthand for --invariants strict")
    parser.add_argument("--debug", action="store_true",
                        help="show the full traceback on simulation errors "
                             "instead of a one-line message")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    invariants = "strict" if args.strict_invariants else args.invariants

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")

    from repro.perf.spans import PERF

    if args.self_profile is not None:
        PERF.reset()
        PERF.enable()
    try:
        return _render_experiments(args, names, invariants)
    finally:
        # On every exit, an interrupt or error included, so no later
        # in-process caller keeps paying for spans.
        if args.self_profile is not None:
            PERF.disable()


def _render_experiments(args: argparse.Namespace, names: list,
                        invariants: str) -> int:
    """Render each named experiment through one shared runner."""
    from repro.core.errors import ReproError, SweepInterrupted

    cache = _build_runner(args.jobs, args.cache_dir, args.no_cache,
                          args.progress, invariants)
    try:
        for name in names:
            start = time.perf_counter()
            text = _run_experiment(name, cache, args.fast)
            elapsed = time.perf_counter() - start
            print(f"==== {name} " + "=" * 40)
            print(text)
            print(f"{name}: {elapsed:.1f}s ({cache.stats.describe()})",
                  file=sys.stderr)
            if args.output_dir is not None:
                args.output_dir.mkdir(parents=True, exist_ok=True)
                (args.output_dir / f"{name}.txt").write_text(text)
    except (SweepInterrupted, KeyboardInterrupt) as exc:
        # The runner already flushed completed points and reported the
        # partial tally; use the conventional SIGINT exit status.
        if isinstance(exc, SweepInterrupted):
            print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    else:
        print(f"total: {cache.stats.describe()}", file=sys.stderr)
        timing = cache.stats.describe_timing()
        if timing is not None:
            print(timing, file=sys.stderr)
        fault_line = cache.stats.describe_faults()
        if fault_line is not None:
            print(fault_line, file=sys.stderr)
        if invariants != "off":
            violated = sum(v[1] for v in cache.check_stats.values())
            checked = sum(v[0] for v in cache.check_stats.values())
            print(f"invariants ({invariants}): {checked} checks, "
                  f"{violated} violation(s)", file=sys.stderr)
        if args.self_profile is not None:
            _write_self_profile(args.self_profile)
        return 0
    finally:
        # Checkpoints and removes the store's journal on every exit.
        if cache.store is not None:
            cache.store.close()


def _write_self_profile(path: pathlib.Path) -> None:
    """Export the enabled :data:`PERF` profiler and report to stderr."""
    from repro.perf.spans import PERF, render_perf_report
    from repro.perf.trace import export_perf_chrome_trace

    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fp:
        export_perf_chrome_trace(PERF, fp)
    print(render_perf_report(PERF, top=15), file=sys.stderr)
    print(f"self-profile trace: {path} (open in ui.perfetto.dev)",
          file=sys.stderr)


def _build_runner(jobs: int, cache_dir: pathlib.Path, no_cache: bool,
                  progress: bool, invariants: str = "off") -> SweepRunner:
    """One shared runner for every requested experiment."""
    store = None if no_cache else ResultStore(cache_dir)
    bus = None
    if progress:
        from repro.obs.bus import EventBus
        from repro.obs.events import SweepPointDone, SweepPointOom

        bus = EventBus()
        printer = _ProgressPrinter()
        bus.subscribe(SweepPointDone, printer)
        bus.subscribe(SweepPointOom, printer)
    return SweepRunner(jobs=jobs, store=store, bus=bus, invariants=invariants)


class _ProgressPrinter:
    """Per-point progress lines with live throughput and ETA.

    One instance is subscribed to both ``SweepPointDone`` and
    ``SweepPointOom``; it keeps a wall-clock anchor per sweep name, so
    throughput is points finished since that sweep's first completion and
    the ETA extrapolates it over the points still outstanding.
    """

    def __init__(self) -> None:
        self._anchors: Dict[str, float] = {}
        self._finished: Dict[str, int] = {}

    def _pace(self, event) -> str:
        anchor = self._anchors.setdefault(event.sweep, time.perf_counter())
        done = self._finished.get(event.sweep, 0) + 1
        self._finished[event.sweep] = done
        window = time.perf_counter() - anchor
        if done < 2 or window <= 0:
            return ""
        # The anchor is the *first* completion, so pace covers done-1 points.
        rate = (done - 1) / window
        remaining = event.total - (event.index + 1)
        if remaining <= 0:
            return f" [{rate:.1f} pt/s]"
        return f" [{rate:.1f} pt/s, ETA {remaining / rate:.0f}s]"

    def __call__(self, event) -> None:
        from repro.obs.events import SweepPointOom

        status = ("OOM" if isinstance(event, SweepPointOom)
                  else event.source if event.source != "executed"
                  else f"{event.elapsed:.2f}s")
        print(f"  [{event.sweep} {event.index + 1}/{event.total}] "
              f"{event.label}: {status}{self._pace(event)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
