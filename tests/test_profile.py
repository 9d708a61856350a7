"""Tests for the profiler, summaries, timeline export and smi monitor."""

import io
import json

import pytest

from repro.dnn import build_network, compile_network, network_input_shape
from repro.gpu.kernel import KernelSpec
from repro.profile import (
    MemoryMonitor,
    Profiler,
    export_chrome_trace,
    summarize_apis,
    summarize_stages,
)
from repro.profile.summary import gpu_busy_fractions


def _kernel(name="k", layer="l", stage="fp"):
    return KernelSpec(name=name, layer=layer, stage=stage, duration=1.0,
                      flops=0.0, bytes_moved=0)


@pytest.fixture()
def profiler():
    p = Profiler()
    p.record_kernel(0, _kernel("a", stage="fp"), 0.0, 1.0)
    p.record_kernel(0, _kernel("b", stage="bp"), 1.0, 3.0)
    p.record_kernel(1, _kernel("c", stage="fp"), 0.0, 1.5)
    p.record_transfer("p2p", 1, 0, 1000, 3.0, 3.5)
    p.record_transfer("nccl", 0, -1, 2000, 3.5, 4.0)
    p.record_api("cudaStreamSynchronize", 0, 3.0, 4.0)
    p.record_api("cudaLaunchKernel", 0, 0.0, 0.1)
    p.record_span("fp", 0, 0, 0.0, 1.0)
    p.record_span("fp", 1, 0, 0.0, 1.5)
    p.record_span("bp", 0, 0, 1.0, 3.0)
    p.record_span("bp", 1, 0, 1.5, 3.0)
    p.record_span("wu", -1, 0, 3.0, 4.0)
    p.record_span("iteration", -1, 0, 0.0, 4.2)
    return p


def test_disabled_profiler_records_nothing():
    p = Profiler(enabled=False)
    p.record_kernel(0, _kernel(), 0.0, 1.0)
    p.record_api("x", 0, 0.0, 1.0)
    p.record_span("fp", 0, 0, 0.0, 1.0)
    p.record_transfer("p2p", 0, 1, 10, 0.0, 1.0)
    assert not p.kernels and not p.apis and not p.spans and not p.transfers


def test_reset_clears_everything(profiler):
    profiler.reset()
    assert not profiler.kernels and not profiler.transfers
    assert not profiler.apis and not profiler.spans


def test_kernel_time_filters(profiler):
    assert profiler.kernel_time() == pytest.approx(4.5)
    assert profiler.kernel_time(gpu=0) == pytest.approx(3.0)
    assert profiler.kernel_time(stage="fp") == pytest.approx(2.5)
    assert profiler.kernel_time(gpu=1, stage="fp") == pytest.approx(1.5)


def test_bytes_transferred(profiler):
    assert profiler.bytes_transferred() == 3000
    assert profiler.bytes_transferred("p2p") == 1000


def test_api_time(profiler):
    assert profiler.api_time("cudaStreamSynchronize") == pytest.approx(1.0)
    assert profiler.api_time() == pytest.approx(1.1)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_stage_breakdown_takes_straggler_max(profiler):
    stages = summarize_stages(profiler)
    assert stages.fp == pytest.approx(1.5)   # max over the two GPUs
    assert stages.bp == pytest.approx(2.0)
    assert stages.wu == pytest.approx(1.0)
    assert stages.iteration == pytest.approx(4.2)
    assert stages.fp_bp == pytest.approx(3.5)
    assert 0 < stages.wu_fraction < 1


def test_stage_breakdown_empty():
    stages = summarize_stages(Profiler())
    assert stages.iteration == 0.0 and stages.wu_fraction == 0.0


def test_api_summary_ordering(profiler):
    summary = summarize_apis(profiler)
    assert summary.totals[0][0] == "cudaStreamSynchronize"
    assert summary.percent_of("cudaStreamSynchronize") == pytest.approx(
        100 * 1.0 / 1.1
    )
    assert summary.time_of("missing") == 0.0
    assert summary.percent_of("cudaLaunchKernel") < 50


def test_gpu_busy_fractions(profiler):
    busy = gpu_busy_fractions(profiler)
    assert busy[0] == pytest.approx(3.0 / 4.2)
    assert busy[1] == pytest.approx(1.5 / 4.2)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def test_chrome_trace_round_trips(profiler):
    buf = io.StringIO()
    export_chrome_trace(profiler, buf)
    data = json.loads(buf.getvalue())
    assert data["displayTimeUnit"] == "ms"
    duration_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert len(duration_events) == len(profiler.kernels) + len(
        profiler.transfers
    ) + len(profiler.apis) + len(profiler.spans)
    for event in duration_events:
        assert event["dur"] >= 0


def test_chrome_trace_lane_metadata(profiler):
    buf = io.StringIO()
    export_chrome_trace(profiler, buf)
    meta = [e for e in json.loads(buf.getvalue())["traceEvents"] if e["ph"] == "M"]
    process_names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert {"GPU kernels", "Fabric transfers", "Host (CUDA APIs)",
            "Stages"} <= process_names
    assert {"GPU 0", "GPU 1"} <= thread_names   # one lane per GPU index


def test_chrome_trace_collective_destination(profiler):
    buf = io.StringIO()
    export_chrome_trace(profiler, buf)
    events = json.loads(buf.getvalue())["traceEvents"]
    names = [e["name"] for e in events]
    assert "nccl:0->all" in names
    # Collectives get their own named lane instead of a bogus p2p one.
    lane_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "nccl collectives (all GPUs)" in lane_names
    collective = next(e for e in events if e["name"] == "nccl:0->all")
    p2p = next(e for e in events if e["name"].startswith("p2p:"))
    assert collective["tid"] != p2p["tid"]


# ----------------------------------------------------------------------
# Memory monitor
# ----------------------------------------------------------------------
def test_memory_monitor_shape():
    stats = compile_network(build_network("alexnet"), network_input_shape("alexnet"))
    readings = MemoryMonitor().sample(stats, 32, num_gpus=4)
    assert len(readings) == 8  # 4 pre-training + 4 training
    pre = [r for r in readings if r.phase == "pretraining"]
    train = [r for r in readings if r.phase == "training"]
    assert len({r.total_gb for r in pre}) == 1          # identical pre-training
    assert train[0].total_gb > train[1].total_gb        # GPU0 above workers
    assert len({r.total_gb for r in train[1:]}) == 1    # workers identical


def test_memory_monitor_single_gpu_has_no_server():
    stats = compile_network(build_network("lenet"), network_input_shape("lenet"))
    readings = MemoryMonitor().sample(stats, 16, num_gpus=1)
    train = [r for r in readings if r.phase == "training"]
    assert train[0].usage.server_buffers == 0


# ----------------------------------------------------------------------
# Summary mode
# ----------------------------------------------------------------------
def _record_fixture_sequence(p):
    p.record_kernel(0, _kernel("a", stage="fp"), 0.0, 1.0)
    p.record_kernel(1, _kernel("c", stage="fp"), 0.0, 1.5)
    p.record_kernel(0, _kernel("b", stage="bp"), 1.0, 3.0)
    p.record_transfer("p2p", 1, 0, 1000, 3.0, 3.5)
    p.record_api("cudaLaunchKernel", 0, 0.0, 0.1)
    p.record_api("cudaStreamSynchronize", 0, 3.0, 4.0)
    p.record_api("cudaLaunchKernel", 1, 0.0, 0.1)
    p.record_span("iteration", -1, 0, 0.0, 4.2)


def test_summary_mode_sums_equal_the_record_mode_summaries():
    full, summary = Profiler(), Profiler(records=False)
    for p in (full, summary):
        _record_fixture_sequence(p)
    assert summarize_apis(summary) == summarize_apis(full)
    assert gpu_busy_fractions(summary) == gpu_busy_fractions(full)
    assert summarize_stages(summary) == summarize_stages(full)
    assert summary.spans == full.spans


def test_summary_mode_builds_no_kernel_transfer_or_api_event():
    p = Profiler(records=False)
    seen = []
    p.bus.subscribe(None, seen.append)
    _record_fixture_sequence(p)
    assert [type(e).__name__ for e in seen] == ["SpanEvent"]
    assert not p.kernels and not p.transfers and not p.apis
    assert dict(p.kernel_busy) == {0: 3.0, 1: 1.5}


def test_summary_mode_respects_the_window_and_reset():
    p = Profiler(enabled=False, records=False)
    p.record_kernel(0, _kernel(), 0.0, 1.0)
    p.record_api("cudaLaunchKernel", 0, 0.0, 1.0)
    assert not p.kernel_busy and not p.api_totals
    p.enabled = True
    _record_fixture_sequence(p)
    p.reset()
    assert not p.kernel_busy and not p.api_totals and not p.spans


@pytest.mark.parametrize("records", [True, False])
def test_sums_count_only_the_profilers_own_records(records):
    from repro.obs.bus import EventBus
    from repro.obs.events import ApiEvent, KernelEvent

    bus = EventBus()
    mine, other = Profiler(bus=bus, records=records), Profiler(bus=bus)
    other.record_kernel(0, _kernel(), 0.0, 1.0)
    other.record_api("cudaLaunchKernel", 0, 0.0, 1.0)
    bus.publish(KernelEvent(gpu=1, name="k", layer="l", stage="fp",
                            start=0.0, end=2.0))
    bus.publish(ApiEvent(name="cudaFree", gpu=1, start=0.0, end=2.0))
    assert not mine.kernel_busy and not mine.api_totals
    assert len(mine.kernels) == (2 if records else 0)
    mine.record_kernel(1, _kernel(), 0.0, 0.5)
    assert dict(mine.kernel_busy) == {1: 0.5}


def test_detach_stops_the_record_lists_but_not_the_bus():
    from repro.obs.bus import EventBus

    bus = EventBus()
    seen = []
    bus.subscribe(None, seen.append)
    p = Profiler(bus=bus)
    _record_fixture_sequence(p)
    counts = (len(p.kernels), len(p.transfers), len(p.apis), len(p.spans))
    p.detach()
    _record_fixture_sequence(Profiler(bus=bus))
    assert (len(p.kernels), len(p.transfers), len(p.apis),
            len(p.spans)) == counts
    assert len(seen) == 2 * sum(counts)


@pytest.mark.parametrize("net", ["lenet", "alexnet"])
@pytest.mark.parametrize("gpus", [1, 2, 4, 8])
@pytest.mark.parametrize("comm", ["p2p", "nccl"])
def test_result_is_byte_identical_in_summary_and_record_mode(net, gpus, comm):
    from repro import CommMethodName, TrainingConfig
    from repro.analysis.serialization import result_to_dict
    from repro.train import Trainer

    config = TrainingConfig(net, 32, gpus, comm_method=CommMethodName(comm))
    summary = Trainer(config)
    record = Trainer(config, keep_profiler=True)
    assert not summary._profiler_records and record._profiler_records
    assert (json.dumps(result_to_dict(summary.run()))
            == json.dumps(result_to_dict(record.run())))


def _measured_profiler(trainer):
    env, profiler, fabric, router, devices, comm = trainer._build_system()
    trainer._measure(env, profiler, fabric, router, devices, comm)
    return profiler


def test_records_are_kept_only_when_something_reads_them():
    from repro import CommMethodName, TrainingConfig
    from repro.checks.engine import CheckEngine
    from repro.obs.session import ObsSession
    from repro.train import Trainer

    config = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.P2P)
    readers = {
        "keep_profiler": dict(keep_profiler=True),
        "obs": dict(obs=ObsSession()),
    }
    for name, kwargs in readers.items():
        profiler = _measured_profiler(Trainer(config, **kwargs))
        assert profiler.records, name
        assert profiler.kernels and profiler.transfers and profiler.apis, name
    # The invariant checkpoints read spans and sums only.
    for kwargs in ({}, dict(checks=CheckEngine("off")),
                   dict(checks=CheckEngine("strict"))):
        profiler = _measured_profiler(Trainer(config, **kwargs))
        assert not profiler.records
        assert not (profiler.kernels or profiler.transfers or profiler.apis)
        assert profiler.kernel_busy and profiler.api_totals and profiler.spans
        assert profiler.transfer_bytes["p2p"] > 0
    kept = Trainer(config, keep_profiler=True).run().profiler
    assert kept is not None and kept.kernels
