"""End-to-end trainer tests."""

import pytest

from repro import (
    CommMethodName,
    OutOfMemoryError,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
    train,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.shapes import Shape
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def _train(net="lenet", batch=16, gpus=1, method=CommMethodName.P2P, **kwargs):
    return train(
        TrainingConfig(net, batch, gpus, comm_method=method), sim=FAST, **kwargs
    )


def test_result_basic_invariants():
    r = _train()
    assert r.iteration_time > 0
    assert r.epoch_time > r.fixed_overhead
    assert r.iterations_per_epoch == 256 * 1024 // 16
    # A provably periodic run measures one iteration, not the window.
    assert r.iteration_times == (r.iteration_time,)
    assert r.images_per_second > 0


def test_epoch_extrapolation():
    r = _train()
    assert r.epoch_time == pytest.approx(
        r.iterations_per_epoch * r.iteration_time + r.fixed_overhead
    )


def test_determinism():
    a, b = _train(), _train()
    assert a.epoch_time == b.epoch_time
    assert a.iteration_times == b.iteration_times


def test_stage_spans_cover_iteration():
    r = _train(gpus=4, method=CommMethodName.NCCL)
    st = r.stages
    assert 0 < st.fp < st.iteration
    assert 0 < st.bp < st.iteration
    assert st.wu >= 0
    assert st.fp + st.bp + st.wu <= st.iteration + 1e-9


def test_multi_gpu_reduces_epoch_time():
    one = _train(gpus=1)
    four = _train(gpus=4)
    assert four.epoch_time < one.epoch_time


def test_per_iteration_time_grows_with_gpus():
    """Per-iteration cost rises with GPU count (comm + sync overheads)."""
    one = _train(gpus=1)
    eight = _train(gpus=8)
    assert eight.iteration_time > one.iteration_time


def test_oom_configuration_raises():
    with pytest.raises(OutOfMemoryError):
        _train(net="inception-v3", batch=128, gpus=4, method=CommMethodName.NCCL)


def test_oom_check_can_be_disabled():
    r = _train(net="inception-v3", batch=128, gpus=1,
               method=CommMethodName.NCCL, check_memory=False)
    assert r.epoch_time > 0


def test_overlap_helps():
    base = TrainingConfig("googlenet", 16, 4, comm_method=CommMethodName.NCCL)
    no_overlap = TrainingConfig("googlenet", 16, 4, comm_method=CommMethodName.NCCL,
                                overlap_bp_wu=False)
    with_overlap = train(base, sim=FAST)
    without = train(no_overlap, sim=FAST)
    assert with_overlap.epoch_time < without.epoch_time


def test_weak_scaling_runs_more_iterations():
    strong = _train(gpus=4)
    weak = train(
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P,
                       scaling=ScalingMode.WEAK),
        sim=FAST,
    )
    assert weak.iterations_per_epoch == 4 * strong.iterations_per_epoch


def test_string_enum_config_trains_like_the_enum_config():
    by_string = train(TrainingConfig("lenet", 16, 2, comm_method="p2p",
                                     scaling="weak"), sim=FAST)
    by_enum = train(TrainingConfig("lenet", 16, 2,
                                   comm_method=CommMethodName.P2P,
                                   scaling=ScalingMode.WEAK), sim=FAST)
    assert by_string.epoch_time == by_enum.epoch_time
    assert by_string.iteration_time == by_enum.iteration_time
    assert by_string.iterations_per_epoch == by_enum.iterations_per_epoch


def test_nccl_has_fixed_overhead_p2p_does_not():
    p2p = _train(method=CommMethodName.P2P)
    nccl = _train(method=CommMethodName.NCCL)
    assert nccl.fixed_overhead > p2p.fixed_overhead


def test_memory_readings_attached():
    r = _train(gpus=4)
    assert len(r.memory) == 8
    phases = {m.phase for m in r.memory}
    assert phases == {"pretraining", "training"}


def test_profiler_kept_on_request():
    r = _train(keep_profiler=True)
    assert r.profiler is not None
    assert r.profiler.kernels
    assert _train().profiler is None


def test_gpu_busy_reported_per_gpu():
    r = _train(gpus=2)
    assert set(r.gpu_busy) == {0, 1}
    assert all(0 < b <= 1 for b in r.gpu_busy.values())


def test_custom_network_override():
    b = NetworkBuilder("custom")
    b.conv(8, 3, pad=1, name="c1")
    b.global_avgpool()
    b.dense(10)
    b.softmax()
    config = TrainingConfig("custom", 16, 2, comm_method=CommMethodName.P2P,
                            custom_network=True)
    trainer = Trainer(config, sim=FAST, network=b.build(), input_shape=Shape(3, 16, 16))
    result = trainer.run()
    assert result.epoch_time > 0


def test_custom_network_requires_input_shape():
    b = NetworkBuilder("custom")
    b.conv(8, 3)
    with pytest.raises(ValueError):
        Trainer(TrainingConfig("custom", 16, 1, custom_network=True),
                network=b.build())


def test_describe_mentions_config():
    r = _train()
    assert "lenet/b16/g1/p2p" in r.describe()


def test_sync_api_recorded():
    r = _train(gpus=4, method=CommMethodName.NCCL)
    assert r.apis.time_of("cudaStreamSynchronize") > 0
    assert r.apis.percent_of("cudaStreamSynchronize") > 50


# ----------------------------------------------------------------------
# Exact periodicity: one measured iteration when it provably repeats
# ----------------------------------------------------------------------
SYNC_STRATEGIES = {
    "p2p-tree": CommMethodName.P2P,
    "nccl-collective": CommMethodName.NCCL,
    "nccl-allreduce-replicated": CommMethodName.NCCL_ALLREDUCE,
    "ps-cpu": CommMethodName.LOCAL,
    "ps-gpu": CommMethodName.P2P,
}


def _without_violations(result):
    import dataclasses

    return dataclasses.replace(result, violations=())


def test_periodic_run_simulates_one_measured_iteration():
    # The fresh environment is already a steady boundary, so the run
    # answers with iteration 0 and simulates nothing else.
    from repro.perf.spans import PERF

    PERF.reset()
    PERF.enable()
    try:
        r = _train(gpus=4, method=CommMethodName.NCCL)
        simulated = PERF.counters["trainer.iterations"]
    finally:
        PERF.disable()
        PERF.reset()
    assert r.iteration_times == (r.iteration_time,)
    assert simulated == 1


def test_time_varying_straggler_keeps_the_full_window():
    from repro.faults import SlowdownProfile

    profile = SlowdownProfile(steps=((0.0, 1.0), (0.002, 2.0)))
    r = _train(gpus=2, gpu_speed_factors={0: profile})
    assert len(r.iteration_times) == FAST.measure_iterations


def test_time_varying_straggler_discards_its_warmup():
    # The fallback window keeps iteration 0 out of the answer and out of
    # every profiler summary: compare with the same run measured from 0.
    from repro.faults import SlowdownProfile

    profile = SlowdownProfile(steps=((0.0, 1.0), (0.002, 2.0)))
    config = TrainingConfig("lenet", 16, 2)
    r = train(config, sim=FAST, gpu_speed_factors={0: profile},
              keep_profiler=True)
    cold = train(config, sim=SimulationConfig(warmup_iterations=0,
                                              measure_iterations=3),
                 gpu_speed_factors={0: profile})
    assert r.iteration_times == cold.iteration_times[1:]
    assert r.iteration_times[0] != cold.iteration_times[0]
    warmup_end = cold.iteration_times[0]
    windows = [s for s in r.profiler.spans if s.name == "iteration"]
    assert [s.iteration for s in windows] == [1, 2]
    assert {s.iteration for s in r.profiler.spans} == {1, 2}
    assert r.stages.iteration == pytest.approx(
        sum(r.iteration_times) / len(r.iteration_times))
    assert len(r.profiler.apis) == 2 * 2 * FAST.measure_iterations
    assert min(a.start for a in r.profiler.apis) >= warmup_end
    assert r.apis.time_of("cudaStreamSynchronize") > 0


def test_no_warmup_answers_with_iteration_zero():
    # warmup_iterations only sizes the fallback window: a periodic run
    # answers with iteration 0 whatever it is, bit for bit.
    config = TrainingConfig("lenet", 16, 2)
    none = train(config, sim=SimulationConfig(warmup_iterations=0,
                                              measure_iterations=3))
    default = train(config)
    assert len(none.iteration_times) == 1
    assert none == default


def test_checked_periodic_run_compares_the_whole_window(monkeypatch):
    # Under warn the periodic run still simulates warmup + measure
    # iterations, the former warm-up included, and all of them are
    # bit-equal to iteration 0.
    from repro.checks import CheckEngine

    payloads = []
    check = CheckEngine.check

    def spy(self, point, **payload):
        if point == "trainer.periodic":
            payloads.append(payload)
        return check(self, point, **payload)

    monkeypatch.setattr(CheckEngine, "check", spy)
    r = _train(gpus=4, method=CommMethodName.NCCL,
               checks=CheckEngine("warn"))
    assert r.violations == ()
    [payload] = payloads
    times = payload["times"]
    assert payload["periodic"] is True
    assert len(times) == FAST.warmup_iterations + FAST.measure_iterations
    assert set(times) == {r.iteration_time}
    assert r.iteration_times == times[:1]


@pytest.mark.parametrize("strategy", sorted(SYNC_STRATEGIES))
def test_strict_and_off_results_are_equal(strategy):
    from repro.checks import CheckEngine

    config = TrainingConfig("lenet", 16, 4, strategy=strategy,
                            comm_method=SYNC_STRATEGIES[strategy])
    off = train(config)
    strict = train(config, checks=CheckEngine("strict"))
    assert strict.violations == ()
    assert off.iteration_times == (off.iteration_time,)
    assert _without_violations(strict) == off


def test_strict_and_off_results_are_equal_under_random_faults():
    from repro.checks import CheckEngine
    from repro.faults import FaultPlan

    config = TrainingConfig("alexnet", 16, 8, comm_method=CommMethodName.NCCL)
    plan = FaultPlan.random(seed=3, num_gpus=8)
    off = train(config, faults=plan)
    strict = train(config, faults=plan, checks=CheckEngine("strict"))
    assert len(off.faults.segments) > 1
    assert len(off.iteration_times) == len(off.faults.segments)
    assert _without_violations(strict) == off


def test_periodic_invariant_flags_unequal_iterations(monkeypatch):
    # Claim steady boundaries where a time-varying straggler breaks
    # periodicity: the checked run must flag the unequal window, the
    # former warm-up included, yet still answer with iteration 0.
    from repro.checks import CheckEngine
    from repro.faults import SlowdownProfile

    monkeypatch.setattr(Trainer, "_steady_boundary",
                        staticmethod(lambda env, devices, input_ready: True))
    profile = SlowdownProfile(steps=((0.0, 1.0), (0.002, 2.0)))
    r = _train(gpus=2, gpu_speed_factors={0: profile},
               checks=CheckEngine("warn"))
    flagged = [v for v in r.violations if v.invariant == "temporal.periodic"]
    assert len(flagged) == 1
    assert len(r.iteration_times) == 1


def test_checked_run_searches_each_pcie_path_once(monkeypatch):
    # Routes are memoized per topology: a checked 7-iteration 8-GPU run
    # derives each GPU's input route once, not once per iteration.
    from repro.checks import CheckEngine
    from repro.topology import system
    from repro.train.trainer import _shared_topology

    # The default topology is shared per process; start from an unsearched one.
    _shared_topology.cache_clear()
    searches = []
    original = system.shortest_paths

    def counting(adj, source):
        searches.append(source)
        return original(adj, source)

    monkeypatch.setattr(system, "shortest_paths", counting)
    sim = SimulationConfig(warmup_iterations=2, measure_iterations=5)
    config = TrainingConfig("lenet", 16, 8, comm_method=CommMethodName.P2P)
    r = train(config, sim=sim, checks=CheckEngine("strict"))
    assert r.violations == ()
    assert 0 < len(searches) <= 8
    assert len(set(searches)) == len(searches)


def test_default_builder_trainers_share_one_topology():
    from repro.topology import build_dgx1v

    config = TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.NCCL)
    first, second = Trainer(config, sim=FAST), Trainer(config, sim=FAST)
    assert first._base_topology() is second._base_topology()
    a, b = first.run(), second.run()
    assert a.iteration_times == b.iteration_times
    assert a.epoch_time == b.epoch_time
    # The shared graph answers exactly like a freshly built one.
    fresh = Trainer(config, sim=FAST,
                    topology_builder=lambda: build_dgx1v()).run()
    assert fresh.iteration_times == a.iteration_times
    assert fresh.epoch_time == a.epoch_time


def test_cluster_topology_shared_per_spec_and_custom_builders_rebuild():
    import functools

    from repro.topology import build_dgx1v

    def cluster(nodes, fabric):
        return Trainer(TrainingConfig(
            "lenet", 16, 8 * nodes, comm_method=CommMethodName.NCCL_ALLREDUCE,
            cluster_nodes=nodes, cluster_fabric=fabric), sim=FAST)

    assert (cluster(2, "single-switch")._base_topology()
            is cluster(2, "single-switch")._base_topology())
    assert (cluster(2, "single-switch")._base_topology()
            is not cluster(2, "fat-tree")._base_topology())
    custom = Trainer(TrainingConfig("lenet", 16, 2), sim=FAST,
                     topology_builder=functools.partial(build_dgx1v, nvlink=False))
    assert custom._base_topology() is not custom._base_topology()


def test_fault_segments_leave_the_shared_topology_intact():
    from repro.faults import FaultPlan
    from repro.topology import build_dgx1v

    config = TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.NCCL)
    trainer = Trainer(config, sim=FAST,
                      faults=FaultPlan.isolate_gpu(build_dgx1v(), 0, at=0.05))
    shared = trainer._base_topology()
    links = shared.links
    r = trainer.run()
    assert r.faults is not None and len(r.faults.segments) > 1
    assert trainer._base_topology() is shared
    assert shared.links == links


def test_obs_session_leaves_a_faulted_result_unchanged():
    # Every segment's profiler shares the session's bus; the dominant
    # (first) segment must not also collect the later segment's events.
    from repro.analysis.serialization import result_to_dict
    from repro.faults import FaultPlan
    from repro.obs.session import ObsSession
    from repro.topology import build_dgx1v

    config = TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.NCCL)
    epoch = Trainer(config).run().epoch_time
    plan = FaultPlan.isolate_gpu(build_dgx1v(), 0, at=0.8 * epoch)
    plain = result_to_dict(Trainer(config, faults=plan).run())
    observed = result_to_dict(Trainer(config, faults=plan,
                                      obs=ObsSession()).run())
    segments = [s["iterations"] for s in plain["faults"]["segments"]]
    assert len(segments) == 2 and segments[0] > segments[1]
    assert observed == plain


# ----------------------------------------------------------------------
# The compile memo
# ----------------------------------------------------------------------
def test_memoized_compile_equals_a_fresh_compile():
    from repro.dnn import build_network, compile_network, network_input_shape
    from repro.gpu import KernelCostModel
    from repro.profile import MemoryMonitor
    from repro.train.optimizers import get_optimizer

    config = TrainingConfig("alexnet", 32, 4)
    Trainer(config)
    trainer = Trainer(config)   # the second one is served by the memo
    stats = compile_network(build_network("alexnet"),
                            network_input_shape("alexnet"))
    cost_model = KernelCostModel()
    fwd = cost_model.forward_schedule(stats, 32)
    bwd = cost_model.backward_schedule(stats, 32)
    assert trainer.stats == stats
    assert trainer.optimizer == get_optimizer(config.optimizer)
    assert trainer.cost_model.use_tensor_cores is True
    assert list(trainer._fwd) == fwd
    assert [(layer, list(ks)) for layer, ks in trainer._bwd] == bwd
    assert trainer._compiled.kernels_per_iter == len(fwd) + sum(len(k) for _, k in bwd)
    assert trainer._kernel_seconds == (
        sum(k.duration for k in fwd)
        + sum(k.duration for _, ks in bwd for k in ks))
    assert trainer._compiled.compute_utilization == (
        cost_model.compute_utilization(stats, 32))
    monitor = MemoryMonitor(optimizer=trainer.optimizer)
    assert trainer._compiled.memory_readings(4) == tuple(
        monitor.sample(stats, 32, 4))
    assert trainer._compiled.memory_readings(2) == tuple(
        monitor.sample(stats, 32, 2))


def test_a_compile_builds_each_schedule_once(monkeypatch):
    from repro.core.constants import CALIBRATION
    from repro.dnn import build_network, network_input_shape
    from repro.gpu import KernelCostModel
    from repro.gpu.spec import TESLA_V100
    from repro.train.trainer import _compile

    builds = []
    for name in ("forward_schedule", "backward_schedule"):
        real = getattr(KernelCostModel, name)

        def counted(self, *args, _real=real, _name=name):
            builds.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(KernelCostModel, name, counted)
    for network in ("lenet", "googlenet", "lstm"):
        for tensor_cores in (False, True):
            del builds[:]
            compiled = _compile(build_network(network),
                                network_input_shape(network), 64, TESLA_V100,
                                CALIBRATION, tensor_cores, "sgd")
            assert sorted(builds) == ["backward_schedule", "forward_schedule"]
            # Bit-identical to the utilization built from fresh schedules:
            # it is serialized into stored results.
            fresh = compiled.cost_model.compute_utilization(compiled.stats, 64)
            assert compiled.compute_utilization.hex() == fresh.hex()


def test_memoized_schedules_are_immutable_tuples():
    trainer = Trainer(TrainingConfig("lenet", 16, 2))
    assert isinstance(trainer._fwd, tuple)
    assert isinstance(trainer._bwd, tuple)
    assert all(isinstance(entry, tuple) and isinstance(entry[1], tuple)
               for entry in trainer._bwd)
    with pytest.raises(TypeError):
        trainer._fwd[0] = trainer._fwd[1]
    with pytest.raises(AttributeError):
        trainer._bwd[0][1].append(trainer._fwd[0])


def test_compile_memo_is_keyed_on_everything_the_compile_reads():
    base = TrainingConfig("lenet", 16, 2)
    first = Trainer(base)._compiled
    # GPU count, comm method and sim settings are not part of the key.
    assert Trainer(base, sim=FAST)._compiled is first
    assert Trainer(TrainingConfig("lenet", 16, 4,
                                  comm_method=CommMethodName.NCCL)
                   )._compiled is first
    assert Trainer(TrainingConfig("lenet", 32, 2))._compiled is not first
    adam = Trainer(TrainingConfig("lenet", 16, 2, optimizer="adam"))._compiled
    assert adam is not first and adam.optimizer.name == "adam"
    no_tc = Trainer(base, use_tensor_cores=False)._compiled
    assert no_tc is not first and not no_tc.cost_model.use_tensor_cores


def test_custom_network_never_reaches_the_compile_memo():
    from repro.train.trainer import _compiled_zoo_network

    builder = NetworkBuilder("tiny")
    builder.conv(8, 3, pad=1, name="c1")
    builder.global_avgpool()
    builder.dense(10)
    net = builder.build()
    config = TrainingConfig("tiny", 8, 1, custom_network=True)
    before = _compiled_zoo_network.cache_info()
    a = Trainer(config, network=net, input_shape=Shape(3, 16, 16))
    b = Trainer(config, network=net, input_shape=Shape(3, 16, 16))
    after = _compiled_zoo_network.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert a._compiled is not b._compiled
    assert a.run().iteration_time == b.run().iteration_time


def test_compile_counter_counts_memo_misses_only():
    from repro.perf.spans import PERF
    from repro.train.trainer import _compiled_zoo_network

    _compiled_zoo_network.cache_clear()
    PERF.reset()
    PERF.enable()
    try:
        Trainer(TrainingConfig("lenet", 16, 2))
        Trainer(TrainingConfig("lenet", 16, 2))
        Trainer(TrainingConfig("lenet", 16, 8))
        one_key = PERF.counters.get("trainer.compiles", 0)
        Trainer(TrainingConfig("lenet", 32, 2))
        two_keys = PERF.counters.get("trainer.compiles", 0)
    finally:
        PERF.disable()
        PERF.reset()
    assert (one_key, two_keys) == (1, 2)
