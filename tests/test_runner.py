"""Tests for the repro.runner subsystem: specs, fingerprints, store, runner."""

import dataclasses
import json

import pytest

from repro.analysis.serialization import (
    SCHEMA_VERSION,
    result_to_dict,
)
from repro.core.config import (
    CommMethodName,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
)
from repro.core.constants import CALIBRATION
from repro.core.errors import OutOfMemoryError, SweepInterrupted
from repro.obs.bus import EventBus
from repro.obs.events import SweepPointDone, SweepPointOom, SweepPointStart
from repro.runner import (
    CacheSchemaError,
    OomInfo,
    OomPolicy,
    ResultStore,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    Unfingerprintable,
    canonical,
    point_fingerprint,
)
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)

#: A configuration the memory model rejects (inception at batch 512).
OOM_CONFIG = TrainingConfig("inception-v3", 512, 1,
                            comm_method=CommMethodName.P2P)


def _point(network="lenet", batch=16, gpus=1, method=CommMethodName.P2P,
           **kwargs):
    return SweepPoint.make(
        TrainingConfig(network, batch, gpus, comm_method=method), **kwargs
    )


# ----------------------------------------------------------------------
# SweepSpec construction
# ----------------------------------------------------------------------
def test_grid_cross_product_and_order():
    spec = SweepSpec.grid(
        "g",
        networks=("lenet", "alexnet"),
        comm_methods=(CommMethodName.P2P, CommMethodName.NCCL),
        batch_sizes=(16, 32),
        gpu_counts=(1, 2),
    )
    assert len(spec) == 2 * 2 * 2 * 2
    # Canonical nesting: network > method > scaling > batch > gpus.
    cfgs = [p.config for p in spec]
    assert [c.network for c in cfgs[:8]] == ["lenet"] * 8
    assert (cfgs[0].batch_size, cfgs[0].num_gpus) == (16, 1)
    assert (cfgs[1].batch_size, cfgs[1].num_gpus) == (16, 2)
    assert (cfgs[2].batch_size, cfgs[2].num_gpus) == (32, 1)
    assert cfgs[0].comm_method == CommMethodName.P2P
    assert cfgs[4].comm_method == CommMethodName.NCCL


def test_grid_config_extra_and_tags():
    spec = SweepSpec.grid(
        "g", networks=("lenet",), batch_sizes=(16,), gpu_counts=(8,),
        config_extra={"cluster_nodes": 2}, tags={"study": "multinode"},
    )
    point = spec.points[0]
    assert point.config.cluster_nodes == 2
    assert point.tag_dict() == {"study": "multinode"}


def test_spec_addition_keeps_stricter_policy():
    raising = SweepSpec.explicit("a", [_point()], oom_policy=OomPolicy.RAISE)
    skipping = SweepSpec.explicit("b", [_point(batch=32)],
                                  oom_policy=OomPolicy.SKIP)
    combined = skipping + raising
    assert len(combined) == 2
    assert combined.oom_policy is OomPolicy.RAISE


def test_point_rejects_unknown_mode():
    # The execution model is ``config.strategy``; a point has no mode.
    with pytest.raises(TypeError):
        SweepPoint(config=OOM_CONFIG, mode="turbo")


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_sensitive():
    key = point_fingerprint(_point(), FAST, CALIBRATION)
    assert key == point_fingerprint(_point(), FAST, CALIBRATION)
    assert key != point_fingerprint(_point(batch=32), FAST, CALIBRATION)
    assert key != point_fingerprint(_point(), SimulationConfig(), CALIBRATION)


def test_fingerprint_changes_with_constants():
    tweaked = dataclasses.replace(
        CALIBRATION, kernel_launch_overhead=CALIBRATION.kernel_launch_overhead * 2
    )
    assert point_fingerprint(_point(), FAST, CALIBRATION) != point_fingerprint(
        _point(), FAST, tweaked
    )


def test_fingerprint_covers_protocol_constants():
    """The NCCL protocol constants invalidate cached sweep results."""
    tweaked = dataclasses.replace(
        CALIBRATION, nccl_ll_hop_latency=CALIBRATION.nccl_ll_hop_latency * 2
    )
    assert point_fingerprint(_point(), FAST, CALIBRATION) != point_fingerprint(
        _point(), FAST, tweaked
    )


def test_fingerprint_covers_protocol_config_knobs():
    """Points differing only in algorithm/protocol cache separately."""
    compat = _point(method=CommMethodName.NCCL)
    tuned = SweepPoint.make(
        TrainingConfig("lenet", 16, 1, comm_method=CommMethodName.NCCL,
                       nccl_algorithm="auto", nccl_protocol="auto")
    )
    assert point_fingerprint(compat, FAST, CALIBRATION) != point_fingerprint(
        tuned, FAST, CALIBRATION
    )


def test_lambda_override_is_uncacheable():
    point = _point(overrides={"topology_builder": lambda: None})
    assert point_fingerprint(point, FAST, CALIBRATION) is None


def _full_payload_key(point, sim, constants, trainer_kwargs=None):
    """The key as one ``json.dumps`` of the whole payload spells it."""
    import hashlib

    payload = {
        "schema": SCHEMA_VERSION,
        "config": canonical(point.config),
        "sim": canonical(sim),
        "constants": canonical(constants),
        "overrides": canonical(point.override_dict()),
        "trainer_kwargs": canonical(dict(trainer_kwargs or {})),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_fingerprint_splices_the_full_payload_encoding():
    import functools

    from repro.topology import build_dgx1v

    anchor = SweepPoint.make(TrainingConfig(
        "alexnet", 16, 4, comm_method=CommMethodName.NCCL))
    override = _point(overrides={"topology_builder": functools.partial(
        build_dgx1v, nvlink_bandwidth_scale=0.5)})
    builder = {"topology_builder": functools.partial(
        build_dgx1v, nvlink_bandwidth_scale=2.0)}
    # Equal constants that encode differently: each key must follow its
    # own value's encoding.
    zero_int = dataclasses.replace(CALIBRATION, kernel_launch_overhead=0)
    zero_float = dataclasses.replace(CALIBRATION, kernel_launch_overhead=0.0)
    assert zero_int == zero_float
    cases = [
        (anchor, SimulationConfig(), CALIBRATION, None),
        (override, FAST, CALIBRATION, None),
        (_point(), FAST, CALIBRATION, builder),
        (_point(batch=32), SimulationConfig(3, 7), CALIBRATION, None),
        (_point(), FAST, zero_int, None),
        (_point(), FAST, zero_float, None),
    ]
    for _ in range(2):                        # cold, then memoized parts
        for point, sim, constants, kwargs in cases:
            assert point_fingerprint(point, sim, constants, kwargs) == (
                _full_payload_key(point, sim, constants, kwargs))
    assert len({point_fingerprint(*case) for case in cases}) == len(cases)


def test_unfingerprintable_points_still_have_no_key():
    lam = _point(overrides={"topology_builder": lambda: None})
    assert point_fingerprint(lam, FAST, CALIBRATION) is None
    assert point_fingerprint(_point(), FAST, CALIBRATION,
                             {"topology_builder": lambda: None}) is None
    # A refused point leaves the memoized parts intact.
    assert point_fingerprint(_point(), FAST, CALIBRATION) == (
        _full_payload_key(_point(), FAST, CALIBRATION))


def test_canonical_rejects_arbitrary_objects():
    with pytest.raises(Unfingerprintable):
        canonical(object())


def test_canonical_handles_partials_and_enums():
    import functools

    from repro.topology import build_dgx1v

    form = canonical(functools.partial(build_dgx1v, nvlink_bandwidth_scale=2.0))
    assert form["kwargs"] == {"nvlink_bandwidth_scale": 2.0}
    assert canonical(CommMethodName.NCCL) == "nccl"


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
def test_store_round_trip(tmp_path):
    runner = SweepRunner(sim=FAST)
    result = runner.get("lenet", 16, 1, CommMethodName.P2P)
    store = ResultStore(tmp_path)
    store.store("k1", result)
    loaded = store.load("k1")
    assert result_to_dict(loaded) == result_to_dict(result)
    assert len(store) == 1


def test_store_oom_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    oom = OomInfo(device="gpu0", requested=123, free=45, message="boom")
    store.store("k1", oom)
    assert store.load("k1") == oom


def test_store_corrupt_file_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
    store.path_for("bad").write_text("{not json")
    assert store.load("bad") is None


def test_store_schema_mismatch_is_loud(tmp_path):
    store = ResultStore(tmp_path)
    store.path_for("old").parent.mkdir(parents=True, exist_ok=True)
    store.path_for("old").write_text(
        json.dumps({"schema": SCHEMA_VERSION - 1, "kind": "training",
                    "result": {}})
    )
    with pytest.raises(CacheSchemaError):
        store.load("old")


# ----------------------------------------------------------------------
# SweepRunner execution
# ----------------------------------------------------------------------
def test_runner_memoizes_across_sweeps():
    runner = SweepRunner(sim=FAST)
    spec = SweepSpec.explicit("s", [_point(), _point(batch=32)])
    runner.run(spec)
    assert runner.stats.executed == 2
    runner.run(spec)
    assert runner.stats.executed == 2
    assert runner.stats.memory_hits == 2


def test_runner_disk_cache_hit(tmp_path):
    spec = SweepSpec.explicit("s", [_point(), _point(batch=32)])
    first = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    r1 = first.run(spec)
    assert first.stats.executed == 2

    second = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    r2 = second.run(spec)
    assert second.stats.executed == 0
    assert second.stats.disk_hits == 2
    for a, b in zip(r1, r2):
        assert result_to_dict(a.result) == result_to_dict(b.result)


def test_runner_cache_invalidated_by_constant_change(tmp_path):
    spec = SweepSpec.explicit("s", [_point()])
    SweepRunner(sim=FAST, store=ResultStore(tmp_path)).run(spec)

    tweaked = dataclasses.replace(
        CALIBRATION, kernel_launch_overhead=CALIBRATION.kernel_launch_overhead * 2
    )
    recal = SweepRunner(sim=FAST, constants=tweaked,
                        store=ResultStore(tmp_path))
    recal.run(spec)
    assert recal.stats.executed == 1       # stale entry never addressed
    assert recal.stats.disk_hits == 0


def test_parallel_results_identical_to_serial():
    spec = SweepSpec.grid(
        "par", networks=("lenet",), batch_sizes=(16, 32), gpu_counts=(1, 2),
        comm_methods=(CommMethodName.P2P,),
    )
    serial = SweepRunner(sim=FAST).run(spec)
    parallel = SweepRunner(sim=FAST, jobs=2).run(spec)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a.point == b.point
        assert result_to_dict(a.result) == result_to_dict(b.result)


def _async_point(gpus):
    return SweepPoint(config=dataclasses.replace(
        _point(gpus=gpus).config, strategy="async-update"))


def test_parallel_async_points():
    spec = SweepSpec.explicit("amix", [_async_point(2)])
    serial = SweepRunner(sim=FAST).run(spec).outcomes[0].result
    parallel = SweepRunner(sim=FAST, jobs=2)
    # jobs>1 with one pending point falls back to serial; force two points.
    two = spec + SweepSpec.explicit("amix2", [_async_point(4)])
    results = parallel.run(two)
    pooled = results.outcomes[0].result
    assert pooled.async_stats is not None
    assert result_to_dict(pooled) == result_to_dict(serial)
    direct = Trainer(_async_point(2).config, sim=FAST).run()
    assert result_to_dict(pooled) == result_to_dict(direct)


def test_oom_policy_raise():
    spec = SweepSpec.explicit("oom", [SweepPoint(config=OOM_CONFIG)])
    with pytest.raises(OutOfMemoryError):
        SweepRunner(sim=FAST).run(spec)


def test_oom_policy_skip_and_record():
    points = [_point(), SweepPoint(config=OOM_CONFIG)]
    skip = SweepRunner(sim=FAST).run(
        SweepSpec.explicit("oom", points, oom_policy=OomPolicy.SKIP)
    )
    assert len(skip) == 1 and skip.outcomes[0].ok

    record = SweepRunner(sim=FAST).run(
        SweepSpec.explicit("oom", points, oom_policy=OomPolicy.RECORD)
    )
    assert len(record) == 2
    assert record.outcomes[1].oom is not None
    assert record.outcomes[1].result is None
    with pytest.raises(OutOfMemoryError):
        record.result(network="inception-v3")
    assert record.try_result(network="inception-v3") is None


def test_results_lookup_by_tag_mode_and_config():
    runner = SweepRunner(sim=FAST)
    spec = SweepSpec.explicit("look", [
        _point(tags={"role": "base"}),
        _point(batch=32, tags={"role": "big"}),
    ])
    results = runner.run(spec)
    assert results.outcome(role="big").point.config.batch_size == 32
    assert results.outcome(batch_size=16).point.tag_dict()["role"] == "base"
    assert results.outcome(strategy="auto", role="base").ok
    with pytest.raises(KeyError):
        results.outcome(role="missing")
    with pytest.raises(KeyError):
        results.outcome(strategy="auto")   # ambiguous
    with pytest.raises(KeyError):
        results.outcome(mode="sync")       # points have no mode


def test_runner_publishes_progress_events():
    bus = EventBus()
    seen = []
    bus.subscribe(SweepPointStart, seen.append)
    bus.subscribe(SweepPointDone, seen.append)
    bus.subscribe(SweepPointOom, seen.append)
    runner = SweepRunner(sim=FAST, bus=bus)
    runner.run(SweepSpec.explicit("evt", [
        _point(), SweepPoint(config=OOM_CONFIG),
    ], oom_policy=OomPolicy.RECORD))
    starts = [e for e in seen if isinstance(e, SweepPointStart)]
    dones = [e for e in seen if isinstance(e, SweepPointDone)]
    ooms = [e for e in seen if isinstance(e, SweepPointOom)]
    assert len(starts) == 2 and len(dones) == 1 and len(ooms) == 1
    assert starts[0].total == 2 and dones[0].source == "executed"


@pytest.mark.parametrize("event_type", [SweepPointDone, SweepPointOom])
def test_an_interrupt_in_a_subscriber_counts_the_finished_point(event_type):
    # A SIGTERM handled while a subscriber runs must find the point whose
    # event it is already counted as finished.
    def interrupt(event):
        raise KeyboardInterrupt

    bus = EventBus()
    bus.subscribe(event_type, interrupt)
    finished = _point() if event_type is SweepPointDone else SweepPoint(config=OOM_CONFIG)
    runner = SweepRunner(sim=FAST, bus=bus)
    with pytest.raises(SweepInterrupted) as info:
        runner.run(SweepSpec.explicit("interrupted", [
            finished, _point(batch=32)], oom_policy=OomPolicy.RECORD))
    assert (info.value.completed, info.value.total) == (1, 2)


def test_runcache_compat_interface():
    runner = SweepRunner(sim=FAST)
    result = runner.get("lenet", 16, 2, CommMethodName.NCCL)
    assert result.config.num_gpus == 2
    assert len(runner) == 1
    assert runner.try_get("inception-v3", 512, 1, CommMethodName.P2P) is None
    # weak-scaling variant is a distinct memo entry
    runner.get("lenet", 16, 2, CommMethodName.NCCL, ScalingMode.WEAK)
    assert len(runner) == 3  # incl. the OOM record


def test_uncacheable_points_still_execute(tmp_path):
    from repro.analysis.crossover import SYNTHETIC_INPUT, synthetic_conv_network

    network = synthetic_conv_network(2)
    point = SweepPoint.make(
        TrainingConfig(network.name, 16, 2, comm_method=CommMethodName.P2P,
                       custom_network=True),
        overrides={"network": network, "input_shape": SYNTHETIC_INPUT,
                   "check_memory": False},
    )
    runner = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    spec = SweepSpec.explicit("synth", [point])
    runner.run(spec)
    runner.run(spec)
    assert runner.stats.executed == 2      # never cached, by design
    assert len(ResultStore(tmp_path)) == 0


# ----------------------------------------------------------------------
# Serialization round-trips (async-update results round-trip with every
# other strategy in tests/test_train_strategies.py)
# ----------------------------------------------------------------------
def test_result_round_trip_preserves_extended_config_fields():
    runner = SweepRunner(sim=FAST)
    config = TrainingConfig("lenet", 16, 8, comm_method=CommMethodName.NCCL,
                            cluster_nodes=2)
    result = runner.run_point(SweepPoint(config=config))
    data = json.loads(json.dumps(result_to_dict(result)))
    from repro.analysis.serialization import result_from_dict

    back = result_from_dict(data)
    assert back.config == config
    assert back.config.cluster_nodes == 2
    assert back.epoch_time == result.epoch_time


# ----------------------------------------------------------------------
# Invariant verification (schema v7: cluster-tier fault fields)
# ----------------------------------------------------------------------
def test_store_rejects_stale_schema_entries(tmp_path):
    """Entries written before the schema gained the ``violations`` field
    (schema 3), the ``strategy``/``async_stats`` fields (schema 4), the
    cluster-tier config fields (schema 5), the cluster-tier fault
    fields (schema 6), the periodic-exit ``iteration_times`` (schema 7),
    the later-window ``apis`` rounding (schema 8), the separate
    ``"async"`` entry kind and fingerprinted point mode (schema 9) or
    the optimizer-blind update costs (schema 10) must be refused loudly,
    not deserialized without them."""
    assert SCHEMA_VERSION == 12
    store = ResultStore(tmp_path)
    for stale in (3, 4, 5, 6, 7, 8, 9, 10):
        key = f"v{stale}"
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text(json.dumps({
            "schema": stale, "kind": "training",
            "result": {"schema": stale, "config": {},
                       "iteration_time": 0.1},
        }))
        with pytest.raises(CacheSchemaError):
            store.load(key)


def _violation():
    from repro.checks.engine import Violation

    return Violation("capacity.link-bandwidth", "fabric.dma",
                     "1000 bytes crossed too fast", 0.25)


def test_violations_serialization_round_trip():
    from repro.analysis.serialization import result_from_dict

    runner = SweepRunner(sim=FAST)
    result = runner.get("lenet", 16, 1, CommMethodName.P2P)
    tagged = dataclasses.replace(result, violations=(_violation(),))
    data = json.loads(json.dumps(result_to_dict(tagged)))
    assert data["violations"] == [{
        "invariant": "capacity.link-bandwidth", "checkpoint": "fabric.dma",
        "message": "1000 bytes crossed too fast", "at": 0.25,
    }]
    assert result_from_dict(data).violations == (_violation(),)


def test_store_replays_violation_records(tmp_path):
    runner = SweepRunner(sim=FAST)
    result = runner.get("lenet", 16, 1, CommMethodName.P2P)
    store = ResultStore(tmp_path)
    store.store("k1", dataclasses.replace(result, violations=(_violation(),)))
    assert store.load("k1").violations == (_violation(),)


def test_tuning_and_custom_network_config_fields_round_trip():
    from repro.analysis.serialization import _config_from_dict, _config_to_dict

    config = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL,
                            nccl_algorithm="ring", nccl_protocol="simple")
    assert _config_from_dict(_config_to_dict(config)) == config


def test_runner_invariants_validated_and_collected():
    with pytest.raises(Exception):
        SweepRunner(sim=FAST, invariants="loud")
    runner = SweepRunner(sim=FAST, invariants="warn")
    runner.run(SweepSpec(name="w", points=(_point(gpus=2),)))
    assert runner.check_stats
    assert all(v == 0 for _, v in runner.check_stats.values())
    off = SweepRunner(sim=FAST)
    off.run(SweepSpec(name="o", points=(_point(gpus=2),)))
    assert off.check_stats == {}


def test_invariants_mode_not_part_of_fingerprint(tmp_path):
    """Checks observe a run without changing it, so strict and off share
    cache entries."""
    spec = SweepSpec(name="s", points=(_point(),))
    SweepRunner(sim=FAST, store=ResultStore(tmp_path),
                invariants="strict").run(spec)
    second = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    second.run(spec)
    assert second.stats.disk_hits == 1
    assert second.stats.executed == 0


def test_parallel_runner_collects_check_stats():
    runner = SweepRunner(sim=FAST, jobs=2, invariants="warn")
    runner.run(SweepSpec(name="p", points=(_point(gpus=2),
                                           _point(gpus=4))))
    assert runner.check_stats
    assert all(v == 0 for _, v in runner.check_stats.values())


# ----------------------------------------------------------------------
# Graceful interruption (SIGINT/SIGTERM -> SweepInterrupted)
# ----------------------------------------------------------------------
def test_interrupt_flushes_completed_points(tmp_path, monkeypatch, capsys):
    from repro.core.errors import SweepInterrupted
    from repro.runner import runner as runner_module

    real = runner_module._execute_point
    calls = {"n": 0}

    def interrupt_second(point, sim, constants, kwargs, invariants="off"):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        return real(point, sim, constants, kwargs, invariants)

    monkeypatch.setattr(runner_module, "_execute_point", interrupt_second)
    first = _point()
    spec = SweepSpec(name="s", points=(first, _point(gpus=2)))
    runner = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    with pytest.raises(SweepInterrupted) as exc:
        runner.run(spec)
    assert exc.value.completed == 1
    assert exc.value.total == 2
    assert "interrupted" in capsys.readouterr().err
    # The completed point reached the disk store before the interrupt.
    fresh = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    fresh.run(SweepSpec(name="s2", points=(first,)))
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.executed == 0
