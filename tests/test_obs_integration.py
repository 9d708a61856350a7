"""End-to-end observability: a profiled 4-GPU NCCL run through the stack.

This is the issue's acceptance scenario: run training with an
:class:`~repro.obs.session.ObsSession` attached, export all three formats,
and check the Prometheus output carries non-zero per-NVLink traffic and
contention-wait counters.
"""

import io
import json

import pytest

from repro import CommMethodName, SimulationConfig, TrainingConfig
from repro.experiments.cli import main as cli_main
from repro.obs import ObsSession, render_prometheus, write_profile_csv
from repro.profile import export_chrome_trace
from repro.train import Trainer

SIM = SimulationConfig(warmup_iterations=1, measure_iterations=2)


@pytest.fixture(scope="module")
def nccl_run():
    obs = ObsSession()
    config = TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.NCCL)
    result = Trainer(config, sim=SIM, keep_profiler=True, obs=obs).run()
    return obs, result


def _nvlink_children(registry, name):
    return [
        (labels, registry.counter_value(name, **labels))
        for labels in registry.label_sets(name)
        if labels["link_type"] == "nvlink"
    ]


def test_nvlink_pairs_carry_bytes(nccl_run):
    obs, _ = nccl_run
    pairs = _nvlink_children(obs.registry, "link_bytes_total")
    assert pairs, "no NVLink pair ever carried traffic"
    assert any(value > 0 for _, value in pairs)


def test_nvlink_contention_wait_counters_exported(nccl_run):
    obs, _ = nccl_run
    pairs = _nvlink_children(obs.registry, "link_wait_time_total")
    assert pairs, "wait counters missing for NVLink pairs"
    # Collectives queue on the NCCL stream behind each other, so the ring
    # links accumulate real (non-zero) contention wait.
    assert any(value > 0 for _, value in pairs)


def test_prometheus_export_of_real_run(nccl_run):
    obs, _ = nccl_run
    text = render_prometheus(obs.registry)
    assert 'link_bytes_total{src="gpu' in text
    assert "link_wait_time_total" in text
    assert "kernel_time_total" in text
    assert "ring_step_seconds_bucket" in text
    assert "sim_event_queue_depth" in text


def test_queue_depth_was_sampled(nccl_run):
    obs, _ = nccl_run
    assert obs.registry.get("sim_event_queue_depth_max").value > 0


def test_ring_steps_recorded_per_collective(nccl_run):
    obs, _ = nccl_run
    reduce_steps = obs.registry.counter_value("ring_steps_total",
                                              collective="reduce")
    bcast_steps = obs.registry.counter_value("ring_steps_total",
                                             collective="broadcast")
    assert reduce_steps > 0 and bcast_steps > 0
    # 4-GPU ring: N-1 = 3 step windows per collective per array.
    assert reduce_steps % 3 == 0


def test_jsonl_recorder_captured_run_events(nccl_run):
    obs, result = nccl_run
    types = {type(e).__name__ for e in obs.recorder.events}
    assert {"KernelEvent", "TransferEvent", "ApiEvent", "SpanEvent",
            "RingStepEvent", "LinkBusyEvent", "QueueDepthEvent"} <= types
    buf = io.StringIO()
    lines = obs.recorder.write(buf)
    assert lines == len(obs.recorder.events)
    json.loads(buf.getvalue().splitlines()[0])


def test_all_three_formats_export_from_one_run(nccl_run):
    obs, result = nccl_run
    prom = render_prometheus(obs.registry)
    jsonl = io.StringIO()
    obs.recorder.write(jsonl)
    chrome = io.StringIO()
    export_chrome_trace(result.profiler, chrome)
    csv_buf = io.StringIO()
    write_profile_csv(result.profiler, csv_buf)
    assert prom and jsonl.getvalue() and csv_buf.getvalue()
    trace = json.loads(chrome.getvalue())
    assert trace["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "M" for e in trace["traceEvents"])


def test_warmup_iterations_stay_out_of_metrics():
    """The metrics window matches the profiler's measurement window."""
    obs = ObsSession()
    config = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL)
    result = Trainer(config, sim=SIM, keep_profiler=True, obs=obs).run()
    measured_kernels = sum(
        obs.registry.counter_value("kernels_total", gpu=gpu, stage=stage)
        for gpu in (0, 1) for stage in ("fp", "bp", "wu")
    )
    assert measured_kernels == len(result.profiler.kernels)


def test_fabric_wait_time_accounting():
    """P2P training contends on real fabric links; waits are accounted."""
    obs = ObsSession()
    config = TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.P2P)
    Trainer(config, sim=SIM, keep_profiler=True, obs=obs).run()
    waits = [
        obs.registry.counter_value("link_wait_time_total", **labels)
        for labels in obs.registry.label_sets("link_wait_time_total")
    ]
    assert waits and any(w > 0 for w in waits)


def test_results_unchanged_with_observability_attached():
    """Attaching an ObsSession must not perturb simulated timing."""
    config = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL)
    plain = Trainer(config, sim=SIM).run()
    observed = Trainer(config, sim=SIM, obs=ObsSession()).run()
    assert observed.iteration_time == pytest.approx(plain.iteration_time)
    assert observed.epoch_time == pytest.approx(plain.epoch_time)


# ----------------------------------------------------------------------
# CLI subcommand
# ----------------------------------------------------------------------
def test_cli_obs_subcommand_exports_all_formats(tmp_path, capsys):
    rc = cli_main([
        "obs", "--network", "lenet", "--batch", "16", "--gpus", "2",
        "--comm", "nccl", "--formats", "all", "-o", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "==PROF==" in out   # summary format prints the nvprof report
    stem = "lenet_b16_g2_nccl"
    prom = (tmp_path / f"{stem}.prom").read_text()
    assert "link_bytes_total" in prom
    jsonl = (tmp_path / f"{stem}.jsonl").read_text()
    assert json.loads(jsonl.splitlines()[0])["type"]
    trace = json.loads((tmp_path / f"{stem}.trace.json").read_text())
    assert trace["displayTimeUnit"] == "ms"
    assert (tmp_path / f"{stem}.csv").read_text().startswith("record,")


def test_cli_trace_alias_and_summary_flag(tmp_path, capsys):
    rc = cli_main([
        "trace", "--network", "lenet", "--gpus", "1", "--formats",
        "prometheus", "--print-gpu-summary", "-o", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GPU activities:" in out


def test_cli_obs_rejects_unknown_format(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["obs", "--formats", "xml", "-o", str(tmp_path)])


# ----------------------------------------------------------------------
# Emitters build only what someone wants
# ----------------------------------------------------------------------
_GATED = ("RingStepEvent", "LinkWaitEvent", "LinkBusyEvent",
          "EngineWaitEvent", "CollectiveChunkEvent", "ProtocolChoiceEvent")


def _count_constructions(monkeypatch):
    import repro.obs.events as events

    built = {name: 0 for name in _GATED}
    for name in _GATED:
        cls = getattr(events, name)

        def counting(self, *args, _name=name, _init=cls.__init__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


_GATED_RUNS = {
    "nccl": TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.NCCL),
    "nccl-tree": TrainingConfig("alexnet", 16, 4,
                                comm_method=CommMethodName.NCCL,
                                nccl_algorithm="auto", nccl_protocol="auto"),
    "p2p": TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.P2P),
}


@pytest.mark.parametrize("run", sorted(_GATED_RUNS))
def test_unobserved_run_builds_no_gated_events(monkeypatch, run):
    from repro.checks import CheckEngine

    built = _count_constructions(monkeypatch)
    Trainer(_GATED_RUNS[run], sim=SIM, checks=CheckEngine("strict")).run()
    assert built == {name: 0 for name in _GATED}
    # The same run observed builds them, so the zero above is not vacuous.
    Trainer(_GATED_RUNS[run], sim=SIM, obs=ObsSession()).run()
    assert built["LinkBusyEvent"] > 0 and built["EngineWaitEvent"] > 0
    if run != "p2p":
        assert built["RingStepEvent"] + built["CollectiveChunkEvent"] > 0


@pytest.mark.parametrize("run", sorted(_GATED_RUNS))
def test_subscribers_see_the_stream_every_event_would_give(monkeypatch, run):
    # Forcing wants() true builds every event, as emitters did before
    # they asked: the JSONL recorder (a wildcard) and the metrics bridge
    # (typed subscriptions) must see exactly that stream.
    from repro.obs import EventBus, write_events_jsonl

    def observe():
        obs = ObsSession()
        Trainer(_GATED_RUNS[run], sim=SIM, obs=obs).run()
        buf = io.StringIO()
        write_events_jsonl(obs.recorder.events, buf)
        return buf.getvalue(), render_prometheus(obs.registry)

    def bridge_only():
        obs = ObsSession(record_events=False)
        Trainer(_GATED_RUNS[run], sim=SIM, obs=obs).run()
        return render_prometheus(obs.registry)

    gated, gated_bridge = observe(), bridge_only()
    monkeypatch.setattr(EventBus, "wants", lambda self, event_type: True)
    assert observe() == gated
    assert bridge_only() == gated_bridge
