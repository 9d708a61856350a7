"""Steady-state twins: epoch-size variants answered from one simulation.

A point that differs from its twin (strong scaling, the paper's dataset)
only in ``scaling`` or ``dataset_images`` must get, from
:func:`repro.train.steady.rebase`, exactly the result its own simulation
returns -- compared as whole dataclasses.  Points whose result may depend
on the epoch size some other way must have no twin, and the sweep
runner must simulate each twin at most once per batch.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.population import (  # noqa: E402
    fastpath_point, grid_point, rail_point, tuner_point,
)
from repro.checks.engine import CheckEngine  # noqa: E402
from repro.core.config import (  # noqa: E402
    PAPER_DATASET_IMAGES,
    CommMethodName,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
)
from repro.faults import FaultPlan  # noqa: E402
from repro.obs.session import ObsSession  # noqa: E402
from repro.runner import (  # noqa: E402
    OomPolicy,
    ResultStore,
    SweepPoint,
    SweepRunner,
    SweepSpec,
)
from repro.runner import runner as runner_module  # noqa: E402
from repro.runner.runner import steady_twin_point  # noqa: E402
from repro.runner.spec import FailureInfo  # noqa: E402
from repro.train.steady import rebase, steady_twin  # noqa: E402
from repro.train.trainer import Trainer  # noqa: E402

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)

#: A configuration the memory model rejects (inception at batch 512).
OOM_CONFIG = TrainingConfig("inception-v3", 512, 1,
                            comm_method=CommMethodName.P2P)


def _variants(config):
    """The weak variant and two dataset sizes of ``config``."""
    return (
        dataclasses.replace(config, scaling=ScalingMode.WEAK),
        dataclasses.replace(config, dataset_images=100_000),
        dataclasses.replace(config, scaling=ScalingMode.WEAK,
                            dataset_images=1_281_167),
    )


def _cases():
    cases = {label: point for label, point in (
        grid_point(net, 16, gpus, comm)
        for net in ("lenet", "alexnet", "resnet")
        for comm in ("p2p", "nccl")
        for gpus in (1, 2, 8))}
    cases["ps-cpu"] = SweepPoint(config=TrainingConfig(
        "alexnet", 16, 4, comm_method=CommMethodName.LOCAL,
        strategy="ps-cpu"))
    label, point = tuner_point("alexnet", 4, "ring", "ll128")
    cases[label] = point
    cases["straggler/alexnet/g4/nccl"] = SweepPoint.make(
        grid_point("alexnet", 16, 4, "nccl")[1].config,
        overrides={"gpu_speed_factors": {1: 1.5}})
    # The rail family's healthy configuration (its fault plan dropped).
    cases["rail/lenet/n2/healthy"] = SweepPoint(
        config=rail_point("lenet", 0, 0, 0.5)[1].config)
    label, point = fastpath_point(16)
    cases[label] = point
    return cases


CASES = _cases()


@pytest.mark.parametrize("label", sorted(CASES))
def test_rebased_twin_equals_own_simulation(label):
    point = CASES[label]
    kwargs = point.override_dict()
    twin_result = Trainer(point.config, **kwargs).run()
    for config in _variants(point.config):
        assert steady_twin(config, kwargs) == point.config
        own = Trainer(config, **kwargs).run()
        assert rebase(twin_result, config) == own
        if config.iterations_per_epoch != point.config.iterations_per_epoch:
            assert own.epoch_time != twin_result.epoch_time


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
WEAK = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL,
                      scaling=ScalingMode.WEAK)


def test_twin_is_strong_scaling_on_the_paper_dataset():
    twin = steady_twin(WEAK)
    assert twin.scaling is ScalingMode.STRONG
    assert twin.dataset_images == PAPER_DATASET_IMAGES
    assert dataclasses.replace(twin, scaling=ScalingMode.WEAK) == WEAK
    assert steady_twin(twin) is None                  # its own twin
    assert steady_twin(WEAK, {"faults": FaultPlan()}) == twin  # empty plan


@pytest.mark.parametrize("invariants", ["warn", "strict"])
def test_checked_points_have_no_twin(invariants):
    assert steady_twin_point(SweepPoint(config=WEAK), {}, "off") is not None
    assert steady_twin_point(SweepPoint(config=WEAK), {}, invariants) is None


def test_async_mode_has_no_twin():
    point = SweepPoint(config=dataclasses.replace(
        WEAK, comm_method=CommMethodName.P2P, strategy="async-update"))
    assert steady_twin_point(point, {}, "off") is None


def test_fault_plan_has_no_twin():
    plan = FaultPlan.random(seed=1, num_gpus=2)
    assert not plan.empty
    assert steady_twin(WEAK, {"faults": plan}) is None
    point = SweepPoint.make(WEAK, overrides={"faults": plan})
    assert steady_twin_point(point, {}, "off") is None
    assert steady_twin_point(SweepPoint(config=WEAK), {"faults": plan},
                             "off") is None


@pytest.mark.parametrize("name,value", [
    ("obs", ObsSession()),
    ("checks", CheckEngine("off")),
    ("keep_profiler", True),
])
def test_run_observers_have_no_twin(name, value):
    assert steady_twin(WEAK, {name: value}) is None
    point = SweepPoint.make(WEAK, overrides={name: value})
    assert steady_twin_point(point, {}, "off") is None
    assert steady_twin_point(SweepPoint(config=WEAK), {name: value},
                             "off") is None


@pytest.mark.parametrize("strategy", ["async-update"])
def test_strategies_reading_the_dataset_have_no_twin(strategy):
    config = TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.P2P,
                            scaling=ScalingMode.WEAK, strategy=strategy)
    assert steady_twin(config) is None


# ----------------------------------------------------------------------
# SweepRunner
# ----------------------------------------------------------------------
def _family(batch=16):
    """Strong, weak and dataset-size variants of one lenet config."""
    base = TrainingConfig("lenet", batch, 2, comm_method=CommMethodName.P2P)
    return [SweepPoint(config=c) for c in (base, *_variants(base))]


@pytest.fixture
def serial_calls(monkeypatch):
    calls = []
    real = runner_module._execute_point

    def counting(point, *args):
        calls.append(point)
        return real(point, *args)

    monkeypatch.setattr(runner_module, "_execute_point", counting)
    return calls


@pytest.fixture
def pool_calls(monkeypatch):
    calls = []

    class CountingDriver(runner_module.PoolDriver):
        def submit(self, fn, *args):
            if fn is runner_module._execute_point:
                calls.append(args[0])
            return super().submit(fn, *args)

    monkeypatch.setattr(runner_module, "PoolDriver", CountingDriver)
    return calls


def test_runner_simulates_each_family_once_serially(serial_calls):
    points = _family()
    runner = SweepRunner(sim=FAST)
    results = runner.run(SweepSpec.explicit("fam", points))
    assert [p.config for p in serial_calls] == [points[0].config]
    assert [o.source for o in results] == ["executed"] + ["derived"] * 3
    assert runner.stats.executed == 1 and runner.stats.derived == 3
    assert runner.stats.total == 4
    assert "3 derived" in runner.stats.describe()
    assert "3 derived point(s)" in runner.stats.describe_timing()
    for outcome in results:
        assert outcome.result == Trainer(outcome.point.config, sim=FAST).run()


def test_runner_without_twins_keeps_its_ledger_format():
    runner = SweepRunner(sim=FAST)
    runner.run(SweepSpec.explicit("one", _family()[:1]))
    assert runner.stats.describe() == (
        "1 simulated, 0 from disk cache, 0 memoized, 0 OOM")
    assert "derived" not in runner.stats.describe_timing()


def test_runner_runs_a_missing_twin_once_for_its_variants(serial_calls):
    variants = _family()[1:]
    runner = SweepRunner(sim=FAST)
    results = runner.run(SweepSpec.explicit("vars", variants))
    assert [p.config for p in serial_calls] == [_family()[0].config]
    assert [o.source for o in results] == ["derived"] * 3
    assert runner.stats.executed == 1 and runner.stats.derived == 3
    # The twin was recorded under its own key: asking for it is a hit.
    runner.run(SweepSpec.explicit("twin", _family()[:1]))
    assert runner.stats.memory_hits == 1 and len(serial_calls) == 1


def test_pool_runner_simulates_each_family_once(pool_calls):
    points = _family(16) + _family(32)
    runner = SweepRunner(sim=FAST, jobs=2)
    results = runner.run(SweepSpec.explicit("fam", points))
    assert sorted(p.config.batch_size for p in pool_calls) == [16, 32]
    assert all(p.config.scaling is ScalingMode.STRONG for p in pool_calls)
    assert runner.stats.executed == 2 and runner.stats.derived == 6
    serial = SweepRunner(sim=FAST).run(SweepSpec.explicit("fam", points))
    for a, b in zip(results, serial):
        assert a.source == b.source and a.result == b.result


def test_pool_runner_runs_missing_twins_as_jobs(pool_calls):
    variants = _family(16)[1:] + _family(32)[1:]
    runner = SweepRunner(sim=FAST, jobs=2)
    results = runner.run(SweepSpec.explicit("vars", variants))
    assert len(pool_calls) == 2
    assert [o.source for o in results] == ["derived"] * 6


def test_derived_entries_reach_the_store(tmp_path):
    spec = SweepSpec.explicit("fam", _family())
    first = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    r1 = first.run(spec)
    assert len(ResultStore(tmp_path)) == 4
    second = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    r2 = second.run(spec)
    assert second.stats.disk_hits == 4 and second.stats.executed == 0
    assert second.stats.derived == 0
    for a, b in zip(r1, r2):
        assert a.result.epoch_time == b.result.epoch_time


def test_twin_found_in_the_store_is_not_simulated(tmp_path, serial_calls):
    SweepRunner(sim=FAST, store=ResultStore(tmp_path)).run(
        SweepSpec.explicit("twin", _family()[:1]))
    assert len(serial_calls) == 1
    runner = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    results = runner.run(SweepSpec.explicit("vars", _family()[1:]))
    assert len(serial_calls) == 1
    assert [o.source for o in results] == ["derived"] * 3
    assert runner.stats.saved_seconds > 0


def test_twin_oom_gives_each_variant_an_oom_record(serial_calls):
    points = [SweepPoint(config=c) for c in _variants(OOM_CONFIG)]
    runner = SweepRunner(sim=FAST)
    results = runner.run(SweepSpec.explicit(
        "oom", points, oom_policy=OomPolicy.RECORD))
    assert len(serial_calls) == 1
    assert all(o.oom is not None and o.source == "derived" for o in results)
    own = SweepRunner(sim=FAST).run(SweepSpec.explicit(
        "own", points[:1], oom_policy=OomPolicy.RECORD,
    )).outcomes[0]
    assert results.outcomes[0].oom == own.oom
    assert runner.stats.oom == 3


def _failing(monkeypatch, should_fail):
    """Make ``_execute_point`` crash for points ``should_fail`` picks."""
    calls = []
    real = runner_module._execute_point

    def flaky(point, *args):
        calls.append(point)
        if should_fail(point):
            return FailureInfo("RuntimeError", "boom", 1), 0.0, {}
        return real(point, *args)

    monkeypatch.setattr(runner_module, "_execute_point", flaky)
    return calls


def _is_twin(point):
    return steady_twin(point.config) is None


def test_twin_failure_makes_the_variant_run_itself(monkeypatch):
    calls = _failing(monkeypatch, _is_twin)
    weak = _family()[1]
    runner = SweepRunner(sim=FAST, retries=2, retry_backoff=0.0)
    outcome = runner.run(SweepSpec.explicit("w", [weak])).outcomes[0]
    assert [_is_twin(p) for p in calls] == [True, False]
    assert outcome.source == "executed" and outcome.ok
    assert runner.stats.retried == 0 and runner.stats.derived == 0


def test_failing_variant_keeps_todays_retry_counts(monkeypatch):
    _failing(monkeypatch, lambda point: True)
    strong, weak = _family()[:2]
    counts = []
    for point in (strong, weak):
        runner = SweepRunner(sim=FAST, retries=2, retry_backoff=0.0)
        outcome = runner.run(SweepSpec.explicit("f", [point])).outcomes[0]
        counts.append((outcome.failure.attempts, runner.stats.retried,
                       runner.stats.failed))
    assert counts[0] == counts[1] == (3, 2, 1)
