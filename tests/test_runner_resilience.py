"""Tests for sweep-runner resilience: retries, timeouts, failure policies,
and cache-corruption recovery."""

import json
import os
import time

import pytest

from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.core.constants import CALIBRATION
from repro.core.errors import SweepPointError
from repro.obs.bus import EventBus
from repro.obs.events import SweepPointFailed, SweepPointRetry
from repro.runner import runner as runner_module
from repro.runner import (
    CacheCorruptionWarning,
    FailurePolicy,
    ResultStore,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    point_fingerprint,
)

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)
CONFIG = TrainingConfig("lenet", 16, 1, comm_method=CommMethodName.P2P)


def _crashing_builder():
    """A topology builder that always fails (module-level: pool-picklable)."""
    raise RuntimeError("injected topology crash")


def _hanging_builder():
    """A topology builder that never returns (module-level: pool-picklable)."""
    time.sleep(3600)


_real_execute_point = runner_module._execute_point
#: Flag file whose absence makes the batch-32 point kill its worker.
_DIE_FLAG = None


def _exit_once_execute_point(point, *args):
    """Pool worker stand-in: the first batch-32 attempt kills its process."""
    if point.config.batch_size == 32 and not os.path.exists(_DIE_FLAG):
        open(_DIE_FLAG, "w").close()
        os._exit(1)
    return _real_execute_point(point, *args)


def _good_point(**kwargs):
    return SweepPoint.make(CONFIG, **kwargs)


def _crash_point():
    return SweepPoint.make(
        CONFIG, overrides={"topology_builder": _crashing_builder},
        tags={"bad": True},
    )


# ----------------------------------------------------------------------
# Failure recording and retry
# ----------------------------------------------------------------------
def test_crashing_point_recorded_after_retries():
    spec = SweepSpec.explicit("rec", [_good_point(), _crash_point()])
    runner = SweepRunner(sim=FAST, retries=2, retry_backoff=0.001)
    results = runner.run(spec)
    assert results.outcomes[0].ok
    bad = results.outcomes[1]
    assert not bad.ok
    assert bad.failure.error_type == "RuntimeError"
    assert bad.failure.attempts == 3              # 1 initial + 2 retries
    assert not bad.failure.timed_out
    assert runner.stats.retried == 2
    assert runner.stats.failed == 1
    assert "2 retried, 1 failed" in runner.stats.describe()
    with pytest.raises(SweepPointError, match="after 3 attempt"):
        results.result(bad=True)
    assert results.try_result(bad=True) is None


def test_failure_policy_raise_and_skip():
    points = [_good_point(), _crash_point()]
    with pytest.raises(SweepPointError):
        SweepRunner(sim=FAST, retries=0).run(
            SweepSpec.explicit("r", points, failure_policy=FailurePolicy.RAISE)
        )
    skipped = SweepRunner(sim=FAST, retries=0).run(
        SweepSpec.explicit("s", points, failure_policy=FailurePolicy.SKIP)
    )
    assert len(skipped) == 1 and skipped.outcomes[0].ok


def test_failures_never_memoized_or_persisted(tmp_path):
    spec = SweepSpec.explicit("nomemo", [_crash_point()])
    runner = SweepRunner(sim=FAST, retries=0, store=ResultStore(tmp_path))
    runner.run(spec)
    runner.run(spec)
    assert runner.stats.executed == 2             # re-attempted, not memoized
    assert len(ResultStore(tmp_path)) == 0        # never written to disk


def test_retry_and_failure_events_published():
    bus = EventBus()
    retries, failures = [], []
    bus.subscribe(SweepPointRetry, retries.append)
    bus.subscribe(SweepPointFailed, failures.append)
    runner = SweepRunner(sim=FAST, retries=1, retry_backoff=0.001, bus=bus)
    runner.run(SweepSpec.explicit("evt", [_crash_point()]))
    assert len(retries) == 1
    assert retries[0].attempt == 1 and retries[0].max_attempts == 2
    assert retries[0].backoff == pytest.approx(0.001)
    assert len(failures) == 1
    assert failures[0].attempts == 2
    assert "injected topology crash" in failures[0].reason


def test_pool_execution_records_failures_too():
    spec = SweepSpec.explicit("pool", [_good_point(), _crash_point()])
    runner = SweepRunner(sim=FAST, jobs=2, retries=1, retry_backoff=0.001)
    results = runner.run(spec)
    assert results.outcomes[0].ok
    assert not results.outcomes[1].ok
    assert results.outcomes[1].failure.attempts == 2
    assert runner.stats.retried == 1 and runner.stats.failed == 1


def test_dead_worker_is_retried_on_a_fresh_pool(tmp_path, monkeypatch):
    # The pool forks lazily inside run(), so its workers inherit both
    # patches; the worker that runs the batch-32 point dies outright,
    # which breaks the pool for every in-flight point.
    monkeypatch.setattr(runner_module, "_execute_point",
                        _exit_once_execute_point)
    monkeypatch.setitem(globals(), "_DIE_FLAG", str(tmp_path / "died"))
    points = [SweepPoint.make(TrainingConfig("lenet", batch, 1))
              for batch in (16, 32, 64)]
    runner = SweepRunner(sim=FAST, jobs=2, retries=1, retry_backoff=0.001)
    results = runner.run(SweepSpec.explicit(
        "dead-worker", points, failure_policy=FailurePolicy.RECORD))
    assert (tmp_path / "died").exists()
    assert [o.ok for o in results.outcomes] == [True, True, True]
    assert runner.stats.retried >= 1
    assert runner.stats.failed == 0


def test_runner_validates_resilience_knobs():
    with pytest.raises(ValueError):
        SweepRunner(retries=-1)
    with pytest.raises(ValueError):
        SweepRunner(retry_backoff=-0.1)
    with pytest.raises(ValueError):
        SweepRunner(point_timeout=0.0)


# ----------------------------------------------------------------------
# Per-point wall-clock timeout
# ----------------------------------------------------------------------
def test_hanging_point_times_out_and_sweep_completes():
    hang = SweepPoint.make(
        CONFIG, overrides={"topology_builder": _hanging_builder},
        tags={"hang": True},
    )
    spec = SweepSpec.explicit("t", [_good_point(), hang])
    start = time.monotonic()
    runner = SweepRunner(sim=FAST, jobs=2, point_timeout=1.0, retries=3)
    results = runner.run(spec)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0                         # did not wait for the hang
    assert results.outcomes[0].ok
    bad = results.outcomes[1]
    assert bad.failure.timed_out
    assert bad.failure.error_type == "TimeoutError"
    assert bad.failure.attempts == 1              # timeouts are not retried
    assert runner.stats.failed == 1 and runner.stats.retried == 0


def test_serial_runner_with_timeout_routes_through_pool():
    hang = SweepPoint.make(
        CONFIG, overrides={"topology_builder": _hanging_builder},
    )
    runner = SweepRunner(sim=FAST, jobs=1, point_timeout=1.0, retries=0)
    results = runner.run(SweepSpec.explicit("t1", [hang]))
    assert results.outcomes[0].failure.timed_out


# ----------------------------------------------------------------------
# Cache corruption: warned miss + atomic repair
# ----------------------------------------------------------------------
def _key(point):
    return point_fingerprint(point, FAST, CALIBRATION)


def test_corrupted_cache_file_is_a_warned_miss(tmp_path):
    point = _good_point()
    first = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    first.run(SweepSpec.explicit("c", [point]))
    path = ResultStore(tmp_path).path_for(_key(point))
    assert path.is_file()
    path.write_text('{"truncat')                  # simulate a torn write

    second = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    with pytest.warns(CacheCorruptionWarning, match="invalid JSON"):
        second.run(SweepSpec.explicit("c", [point]))
    assert second.stats.executed == 1             # re-simulated
    # ... and the bad file was atomically repaired:
    third = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    third.run(SweepSpec.explicit("c", [point]))
    assert third.stats.executed == 0 and third.stats.disk_hits == 1


@pytest.mark.parametrize("payload,why", [
    ("[1, 2, 3]", "not a schema-stamped"),
    ('{"kind": "training", "result": {}}', "not a schema-stamped"),
    ('"just a string"', "not a schema-stamped"),
])
def test_unstamped_cache_payloads_warn_and_miss(tmp_path, payload, why):
    store = ResultStore(tmp_path)
    store.path_for("k").parent.mkdir(parents=True, exist_ok=True)
    store.path_for("k").write_text(payload)
    with pytest.warns(CacheCorruptionWarning, match=why):
        assert store.load("k") is None


def test_unknown_kind_and_missing_fields_warn_and_miss(tmp_path):
    from repro.analysis.serialization import SCHEMA_VERSION

    store = ResultStore(tmp_path)
    store.path_for("k").parent.mkdir(parents=True, exist_ok=True)
    store.path_for("k").write_text(
        json.dumps({"schema": SCHEMA_VERSION, "kind": "exotic", "result": {}})
    )
    with pytest.warns(CacheCorruptionWarning, match="unknown result kind"):
        assert store.load("k") is None
    store.path_for("k").write_text(
        json.dumps({"schema": SCHEMA_VERSION, "kind": "oom",
                    "result": {"device": "gpu0"}})
    )
    with pytest.warns(CacheCorruptionWarning, match="missing/invalid"):
        assert store.load("k") is None


def test_store_write_is_atomic(tmp_path, monkeypatch):
    """A crash mid-write must leave neither the entry nor temp litter."""
    point = _good_point()
    result = SweepRunner(sim=FAST).run_point(point)
    store = ResultStore(tmp_path)
    store.store("good", result)

    def boom(*args, **kwargs):
        raise KeyboardInterrupt("killed mid-write")

    # The journal append succeeds; the point file's rename is cut off.
    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(KeyboardInterrupt):
        store.store("partial", result)
    monkeypatch.undo()
    assert store.load("partial") is None          # plain miss, no warning
    assert store.load("good") is not None         # neighbors untouched
    shard = store.path_for("partial").parent
    assert shard.is_dir()                         # the write got that far
    assert not list(shard.glob("*.tmp"))          # temp file cleaned up
