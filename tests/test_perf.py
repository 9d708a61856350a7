"""Tests for repro.perf: spans, trace, cache perf field, runner timing, host calls."""

import json
import os
import sys

import pytest

import repro
from repro.analysis.serialization import result_to_dict
from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.perf.spans import PERF, PerfProfiler, render_perf_report
from repro.perf.trace import PID_SELF, export_perf_chrome_trace
from repro.runner import OomInfo, ResultStore, SweepPoint, SweepRunner, SweepSpec
from repro.runner.store import CacheEntry
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def _config(**kwargs):
    defaults = dict(network="lenet", batch_size=16, num_gpus=1,
                    comm_method=CommMethodName.P2P)
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


# ----------------------------------------------------------------------
# Spans and counters
# ----------------------------------------------------------------------
def test_disabled_span_is_shared_noop():
    perf = PerfProfiler()
    assert perf.span("a") is perf.span("b")
    perf.count("c", 5)
    assert perf.records == [] and perf.counters == {}


def test_span_nesting_builds_slash_paths():
    perf = PerfProfiler(enabled=True)
    with perf.span("outer"):
        with perf.span("inner"):
            pass
        with perf.span("inner"):
            pass
    agg = perf.aggregate()
    assert set(agg) == {"outer", "outer/inner"}
    assert agg["outer/inner"].calls == 2
    assert agg["outer"].calls == 1
    # Self time excludes the directly enclosed children.
    assert agg["outer"].self_time <= agg["outer"].total
    assert agg["outer"].total >= agg["outer/inner"].total


def test_span_closes_and_records_under_exceptions():
    perf = PerfProfiler(enabled=True)
    with pytest.raises(ValueError):
        with perf.span("outer"):
            with perf.span("inner"):
                raise ValueError("boom")
    # Both spans recorded, stack fully unwound.
    assert sorted(r.path for r in perf.records) == ["outer", "outer/inner"]
    assert perf._stack == []
    # The profiler is still usable afterwards, at depth 0.
    with perf.span("after"):
        pass
    assert perf.records[-1].path == "after"


def test_span_abandoned_child_is_popped():
    perf = PerfProfiler(enabled=True)
    outer = perf.span("outer")
    outer.__enter__()
    inner = perf.span("inner")
    inner.__enter__()  # never exited: simulates a raise mid-__enter__ chain
    outer.__exit__(None, None, None)
    assert perf._stack == []
    assert [r.name for r in perf.records] == ["outer"]


def test_counters_accumulate_and_snapshot_sorted():
    perf = PerfProfiler(enabled=True)
    perf.count("b", 2)
    perf.count("a")
    perf.count("b", 3)
    assert perf.counters_dict() == {"a": 1, "b": 5}


def test_reset_clears_everything():
    perf = PerfProfiler(enabled=True)
    with perf.span("x"):
        perf.count("n")
    perf.reset()
    assert perf.records == [] and perf.counters == {} and perf._stack == []


def test_to_registry_publishes_gauges():
    from repro.obs.metrics import MetricsRegistry

    perf = PerfProfiler(enabled=True)
    with perf.span("stage"):
        perf.count("events", 7)
    registry = MetricsRegistry()
    perf.to_registry(registry)
    seconds = registry.gauge("perf_span_seconds", "", labelnames=("path",))
    assert seconds.labels(path="stage").value > 0
    counter = registry.gauge("perf_counter_total", "", labelnames=("name",))
    assert counter.labels(name="events").value == 7


def test_render_perf_report_lists_spans_and_counters():
    perf = PerfProfiler(enabled=True)
    with perf.span("alpha"):
        perf.count("widgets", 3)
    report = render_perf_report(perf)
    assert "alpha" in report and "widgets" in report


# ----------------------------------------------------------------------
# Byte-identity: profiling must not perturb simulated outputs
# ----------------------------------------------------------------------
def test_enabled_profiling_keeps_results_byte_identical():
    config = _config(comm_method=CommMethodName.NCCL, num_gpus=2)
    baseline = result_to_dict(Trainer(config, sim=FAST).run())
    assert not PERF.enabled
    PERF.reset()
    PERF.enable()
    try:
        profiled = result_to_dict(Trainer(config, sim=FAST).run())
    finally:
        PERF.disable()
        recorded = len(PERF.records)
        PERF.reset()
    assert json.dumps(profiled, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    assert recorded > 0  # the run really was instrumented


def test_global_perf_disabled_by_default():
    assert not PERF.enabled


# ----------------------------------------------------------------------
# Host work per event: Python calls into repro per simulated point
# ----------------------------------------------------------------------
#: Ceilings on the Python calls (frames, including generator resumes)
#: whose code lives under ``src/repro`` that one run of each point makes
#: with the compile memo warm.  Counting only repro's own frames keeps the
#: number independent of the interpreter's library internals; CPython
#: 3.12 inlines comprehensions and counts a little lower.  Lower a ceiling
#: when a change removes calls; never raise one.
CALL_CEILINGS = {
    # 84,284 / 17,242 before hot-path events were built directly, then
    # 49,618 / 11,315 before joins, free grants and pokes were dropped.
    "p2p": 44_146,
    "nccl": 11_235,
}


def _repro_calls(config) -> int:
    root = os.path.dirname(repro.__file__)
    Trainer(config).run()  # warm the compile memo and the route cache
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(profile)
    try:
        Trainer(config).run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("comm", sorted(CALL_CEILINGS))
def test_alexnet_8gpu_host_calls_stay_under_ceiling(comm):
    calls = _repro_calls(_config(network="alexnet", num_gpus=8,
                                 comm_method=CommMethodName(comm)))
    assert 0 < calls <= CALL_CEILINGS[comm], (comm, calls)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_export_perf_chrome_trace(tmp_path):
    perf = PerfProfiler(enabled=True)
    with perf.span("outer"):
        with perf.span("inner"):
            perf.count("things", 2)
    path = tmp_path / "self.trace.json"
    with path.open("w") as fp:
        export_perf_chrome_trace(perf, fp)
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    assert all(e["pid"] == PID_SELF for e in events)
    durations = [e for e in events if e.get("ph") == "X"]
    assert {e["name"] for e in durations} == {"outer", "inner"}
    # Rebased to t=0 at the earliest span.
    assert min(e["ts"] for e in durations) == 0.0
    assert trace["metadata"]["perf_counters"] == {"things": 2}
    # Process metadata names the self-time lane.
    meta = [e for e in events if e.get("ph") == "M"]
    assert any(e["args"]["name"] == "Simulator self-time" for e in meta)


# ----------------------------------------------------------------------
# ResultStore perf field and runner timing stats
# ----------------------------------------------------------------------
def test_store_perf_field_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    oom = OomInfo(device=0, requested=10, free=5, message="nope")
    store.store("k", oom, elapsed=1.25, check_stats={"inv": (4, 1)})
    entry = store.load_entry("k")
    assert isinstance(entry, CacheEntry)
    assert entry.value == oom
    assert entry.elapsed == 1.25
    assert entry.check_stats == {"inv": (4, 1)}
    # load() still returns the bare value.
    assert store.load("k") == oom


def test_store_entry_without_perf_defaults(tmp_path):
    store = ResultStore(tmp_path)
    oom = OomInfo(device=0, requested=10, free=5, message="nope")
    store.store("k", oom)  # no perf metadata (old-writer shape)
    entry = store.load_entry("k")
    assert entry.elapsed == 0.0 and entry.check_stats is None


def test_store_malformed_perf_is_ignored(tmp_path):
    store = ResultStore(tmp_path)
    oom = OomInfo(device=0, requested=10, free=5, message="nope")
    path = store.store("k", oom, elapsed=2.0)
    data = json.loads(path.read_text())
    data["perf"] = {"elapsed": "garbage", "check_stats": [1, 2]}
    path.write_text(json.dumps(data))
    entry = store.load_entry("k")
    assert entry.value == oom
    assert entry.elapsed == 0.0 and entry.check_stats is None


def test_runner_credits_saved_seconds_from_cache(tmp_path):
    spec = SweepSpec(name="t", points=(SweepPoint(config=_config()),))
    first = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    first.run(spec)
    assert first.stats.executed == 1
    assert first.stats.sim_seconds > 0
    assert first.stats.describe_timing() is not None

    second = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    second.run(spec)
    assert second.stats.disk_hits == 1
    assert second.stats.saved_seconds > 0
    # A memo hit in the same runner credits the recorded cost too.
    second.run(spec)
    assert second.stats.memory_hits == 1
    assert second.stats.saved_seconds > first.stats.sim_seconds * 0.5


def test_runner_stats_describe_format_is_stable():
    from repro.runner.runner import RunnerStats

    stats = RunnerStats()
    assert stats.describe() == (
        "0 simulated, 0 from disk cache, 0 memoized, 0 OOM"
    )
    assert stats.describe_timing() is None
