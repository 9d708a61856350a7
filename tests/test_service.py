"""Tests for the resilient sweep service: protocol, admission control,
circuit breaker, in-flight dedup, the analytic degraded path, the sharded
crash-safe store, seeded retry jitter, and the in-process service loop.

Process-level chaos (SIGKILL of workers and of the server itself) lives
in ``tests/test_service_chaos.py``; everything here runs in-process.
"""

import asyncio
import dataclasses
import io
import json
import os
import pathlib

import pytest

from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.core.constants import CALIBRATION
from repro.obs.bus import EventBus
from repro.obs.events import ServiceRequestEvent
from repro.obs.export import (
    JsonlRecorder,
    event_to_dict,
    render_prometheus,
    write_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.runner import ResultStore, SweepPoint, SweepRunner
from repro.runner.fingerprint import point_fingerprint
from repro.runner.spec import OomInfo
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    InflightRegistry,
    ProtocolError,
    ServiceConfig,
    SweepService,
    analytic_estimate,
)
from repro.service import protocol
from repro.service import server as server_module
from repro.service.server import install_service_metrics
from repro.service.analytic import AnalyticUnsupported
from repro.train.trainer import Trainer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)
#: Cheapest sim fidelity, for tests that really execute points.
TINY = SimulationConfig(warmup_iterations=0, measure_iterations=1)
CONFIG = TrainingConfig("lenet", 16, 1, comm_method=CommMethodName.P2P)


def _point(batch=16, gpus=1, **kwargs):
    return SweepPoint.make(
        TrainingConfig("lenet", batch, gpus, comm_method=CommMethodName.P2P),
        **kwargs,
    )


def _wire_point(batch=16, gpus=1):
    return {"network": "lenet", "batch_size": batch, "num_gpus": gpus,
            "comm_method": "p2p"}


#: The strategies the synchronous DAG floor does not model.
NON_SYNC = ("async-update", "model-parallel")


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_parse_request_ops_and_rejections():
    assert protocol.parse_request('{"op": "ping"}')["op"] == "ping"
    for bad in ('not json', '[1]', '{"op": "launch_missiles"}', '{}'):
        with pytest.raises(ProtocolError):
            protocol.parse_request(bad)


def test_point_roundtrip_through_wire_format():
    for point in (_point(), _point(batch=64, gpus=4),
                  SweepPoint.make(dataclasses.replace(
                      CONFIG, strategy="async-update"))):
        again = protocol.point_from_dict(protocol.point_to_dict(point))
        assert again == point


def test_point_from_dict_rejects_malformed_points():
    with pytest.raises(ProtocolError, match="must be an object"):
        protocol.point_from_dict([1, 2])
    # A point has no mode: asynchronous SGD is ``strategy: async-update``.
    for mode in ("psycho", "async"):
        with pytest.raises(ProtocolError, match="unknown point field 'mode'"):
            protocol.point_from_dict({"network": "lenet", "batch_size": 16,
                                      "mode": mode})
    with pytest.raises(ProtocolError, match="unknown point field"):
        protocol.point_from_dict({"network": "lenet", "batch_size": 16,
                                  "topology_builder": "evil"})
    with pytest.raises(ProtocolError, match="must be an integer"):
        protocol.point_from_dict({"network": "lenet", "batch_size": "16"})
    with pytest.raises(ProtocolError, match="at least"):
        protocol.point_from_dict({"network": "lenet"})
    # TrainingConfig's own eager validation is surfaced as ProtocolError.
    with pytest.raises(ProtocolError, match="invalid point"):
        protocol.point_from_dict({"network": "lenet", "batch_size": 0})
    with pytest.raises(ProtocolError):
        protocol.point_from_dict({"network": "lenet", "batch_size": 16,
                                  "comm_method": "pigeon"})


def test_parse_sweep_validates_envelope_fields():
    base = {"op": "sweep", "points": [_wire_point()]}
    request = protocol.parse_sweep(dict(base, client="ci", budget=2,
                                        deadline=1.5, degrade=False))
    assert request.client == "ci" and request.budget == 2
    assert request.deadline == 1.5 and request.degrade is False
    assert protocol.parse_sweep(base).client == "anonymous"
    for bad in (dict(base, client=""), dict(base, points=[]),
                dict(base, budget=-1), dict(base, budget=True),
                dict(base, deadline=0), dict(base, deadline="soon"),
                dict(base, degrade="yes")):
        with pytest.raises(ProtocolError):
            protocol.parse_sweep(bad)


def test_value_payload_is_deterministic_and_sorted():
    result = SweepRunner(sim=FAST).run_point(_point())
    payload = protocol.value_payload("p", result)
    assert payload["kind"] == "training" and payload["degraded"] is False
    assert payload["iteration_time"] == result.iteration_time
    line = protocol.encode(payload)
    assert line.endswith(b"\n")
    assert line == protocol.encode(json.loads(line))  # stable re-encode


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_per_client_quota_and_release():
    adm = AdmissionController(max_inflight_per_client=2,
                              queue_high=10, queue_low=5)
    assert adm.admit("a", 0) is None
    assert adm.admit("a", 0) is None
    assert adm.admit("a", 0) == "quota"
    assert adm.admit("b", 0) is None          # quotas are per-client
    adm.release("a")
    assert adm.admit("a", 0) is None


def test_admission_backpressure_is_hysteretic():
    adm = AdmissionController(max_inflight_per_client=10,
                              queue_high=4, queue_low=2)
    assert adm.admit("a", 3) is None          # below high: admitted
    assert adm.admit("a", 4) == "backpressure"
    # Latched: still shedding between low and high.
    assert adm.admit("a", 3) == "backpressure"
    # Only once the backlog drains to the low watermark does it reopen.
    assert adm.admit("a", 2) is None


def test_admission_validates_knobs():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight_per_client=0)
    with pytest.raises(ValueError):
        AdmissionController(queue_high=0)
    with pytest.raises(ValueError):
        AdmissionController(queue_high=4, queue_low=5)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_full_state_machine_with_fake_clock():
    now = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                             clock=lambda: now[0])
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"          # below threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    now[0] = 9.9
    assert not breaker.allow()                # cooldown not elapsed
    now[0] = 10.0
    assert breaker.allow()                    # the half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow()                # exactly one probe at a time
    breaker.record_failure()                  # probe failed: re-open
    assert breaker.state == "open" and not breaker.allow()
    now[0] = 25.0
    assert breaker.allow()
    breaker.record_success()                  # probe succeeded: close
    assert breaker.state == "closed"
    assert breaker.allow() and breaker.allow()


def test_breaker_success_resets_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"          # failures were not consecutive


# ----------------------------------------------------------------------
# In-flight dedup
# ----------------------------------------------------------------------
def test_inflight_registry_leader_follower_lifecycle():
    async def go():
        reg = InflightRegistry()
        leader, future = reg.claim("k")
        assert leader and len(reg) == 1
        follower, same = reg.claim("k")
        assert not follower and same is future
        reg.resolve("k", 42)
        assert await asyncio.shield(same) == 42
        assert len(reg) == 0
        again, _ = reg.claim("k")             # resolved keys claimable anew
        assert again
        reg.fail("k", RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            await _
    asyncio.run(go())


def test_inflight_abandon_all_fails_every_waiter():
    async def go():
        reg = InflightRegistry()
        _, fa = reg.claim("a")
        _, fb = reg.claim("b")
        assert reg.abandon_all(ConnectionResetError("drain")) == 2
        for future in (fa, fb):
            with pytest.raises(ConnectionResetError):
                await future
        assert len(reg) == 0
    asyncio.run(go())


# ----------------------------------------------------------------------
# Analytic degraded path
# ----------------------------------------------------------------------
def test_analytic_estimate_is_a_marked_floor_of_the_simulation():
    point = _point()
    est = analytic_estimate(point)
    assert est["degraded"] is True and est["kind"] == "analytic"
    assert est["path"] == "analytic-dag"
    floors = est["floors"]
    assert est["iteration_time"] == pytest.approx(
        max(floors["input"] + floors["compute"], floors["wire"])
        + floors["host"]
    )
    assert est["images_per_second"] == pytest.approx(
        16 / est["iteration_time"])
    # The DAG floors are lower bounds: the analytic answer is a sound
    # optimistic estimate of the simulated one.
    simulated = SweepRunner(sim=FAST).run_point(point)
    assert 0.0 < est["iteration_time"] <= simulated.iteration_time + 1e-9


def test_analytic_refuses_async_and_override_points():
    for strategy in NON_SYNC:
        config = dataclasses.replace(CONFIG, num_gpus=2, strategy=strategy)
        with pytest.raises(AnalyticUnsupported, match=strategy):
            analytic_estimate(SweepPoint.make(config))
    with pytest.raises(AnalyticUnsupported, match="overrides"):
        analytic_estimate(SweepPoint.make(
            CONFIG, overrides={"check_memory": False}))


# ----------------------------------------------------------------------
# Crash-safe store
# ----------------------------------------------------------------------
def _stored_value():
    return SweepRunner(sim=FAST).run_point(_point())


def test_sharded_store_layout_and_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    value = _stored_value()
    for key in ("alpha", "beta", "gamma"):
        store.store(key, value, elapsed=1.25)
    assert len(store) == 3
    for key in ("alpha", "beta", "gamma"):
        path = store.path_for(key)
        assert path.parent == store.shard_for(key)
        assert path.parent.name.startswith("shard-")
        entry = store.load_entry(key)
        assert entry.value.iteration_time == value.iteration_time
        assert entry.elapsed == 1.25
    store.close()
    # A fresh store (fresh process in real life) sees the same entries.
    assert len(ResultStore(tmp_path)) == 3


def _kill(store):
    """What a SIGKILL leaves of a writer: its journal, not removed, and
    unlocked, as the kernel closes a dead process's files."""
    store._wal_fp.close()
    store._wal_fp = None


def test_sharded_store_replays_journal_after_simulated_sigkill(tmp_path):
    store = ResultStore(tmp_path)
    data = store._encode(_stored_value(), elapsed=2.5)
    # SIGKILL between the journal append and the point-file rename:
    # the journal line exists, the point file does not, close() never ran.
    store._append_journal("victim", data)
    assert store._wal_path.read_text().strip()
    assert not store.path_for("victim").exists()
    _kill(store)

    recovered = ResultStore(tmp_path)
    assert recovered.replayed == 1
    entry = recovered.load_entry("victim")
    assert entry is not None and entry.elapsed == 2.5
    # Consumed logs are removed; a second startup replays nothing.
    assert ResultStore(tmp_path).replayed == 0


def test_sharded_store_skips_torn_trailing_journal_line(tmp_path):
    store = ResultStore(tmp_path)
    data = store._encode(_stored_value(), elapsed=1.0)
    store._append_journal("committed", data)
    # The writer died mid-append: a torn, undecodable trailing line.
    with open(store._wal_path, "a") as fp:
        fp.write('{"key": "torn", "data": {"schema"')
    _kill(store)

    recovered = ResultStore(tmp_path)
    assert recovered.replayed == 1
    assert recovered.load_entry("committed") is not None
    assert recovered.load_entry("torn") is None       # never acknowledged


def test_sharded_store_does_not_replay_over_intact_entries(tmp_path):
    store = ResultStore(tmp_path)
    store.store("done", _stored_value(), elapsed=1.0)
    # Killed after the rename but before any flush: wal still has the line.
    assert store._wal_path.read_text().strip()
    _kill(store)
    recovered = ResultStore(tmp_path)
    assert recovered.replayed == 0                    # file was intact
    assert not list(recovered.journal_dir.glob("wal-*.jsonl"))


def test_sharded_store_journal_is_bounded(tmp_path):
    store = ResultStore(tmp_path)
    store.checkpoint_every = 2
    value = _stored_value()
    store.store("one", value)
    assert store._wal_path.stat().st_size > 0
    store.store("two", value)                         # hits the checkpoint
    assert store._wal_path.stat().st_size == 0
    store.store("three", value)
    store.flush()
    assert store._wal_path.stat().st_size == 0
    store.close()
    assert not store._wal_path.exists()
    assert len(ResultStore(tmp_path)) == 3


def test_atomic_temp_names_embed_pid_and_monotonic_counter(tmp_path, monkeypatch):
    """Two concurrent writers in one directory can never race on the same
    temp path (the satellite fix over the old fixed-suffix naming)."""
    from repro.runner import store as store_module

    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append(pathlib.Path(src).name)
        real_replace(src, dst)

    monkeypatch.setattr(store_module.os, "replace", spy)
    store_module._atomic_write_json(tmp_path / "a.json", {"x": 1})
    store_module._atomic_write_json(tmp_path / "a.json", {"x": 2})
    assert len(seen) == 2 and len(set(seen)) == 2     # distinct temp paths
    pid = str(os.getpid())
    counters = []
    for name in seen:
        parts = name.split(".")
        assert parts[-1] == "tmp" and parts[-3] == pid
        counters.append(int(parts[-2]))
    assert counters[1] > counters[0]                  # monotonic
    assert json.loads((tmp_path / "a.json").read_text()) == {"x": 2}
    assert not list(tmp_path.glob("*.tmp"))


class _Killed(BaseException):
    """Stands in for a SIGKILL at the point it is raised: nothing in the
    store or the service catches it."""


def test_store_many_writes_the_bytes_store_writes(tmp_path):
    value = _stored_value()
    one = ResultStore(tmp_path / "one")
    many = ResultStore(tmp_path / "many")
    for key in ("a", "b"):
        one.store(key, value, elapsed=1.5, check_stats={"x": (3, 0)})
    paths = many.store_many([(key, value, 1.5, {"x": (3, 0)})
                             for key in ("a", "b")])
    assert paths == [many.path_for("a"), many.path_for("b")]
    assert many._wal_path.read_bytes() == one._wal_path.read_bytes()
    for key in ("a", "b"):
        assert many.path_for(key).read_bytes() == one.path_for(key).read_bytes()
    data = one._encode(value, elapsed=1.5, check_stats={"x": (3, 0)})
    assert one._wal_path.read_text().splitlines()[0] == json.dumps(
        {"key": "a", "data": data})
    assert one.path_for("a").read_text() == json.dumps(data)
    assert many.store_many([]) == []


def test_a_batch_cut_off_during_its_renames_is_restored_on_reopen(
        tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    value = _stored_value()
    keys = ["k0", "k1", "k2", "k3"]
    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        if len(renamed) == 2:
            raise _Killed("killed after the journal fsync, mid-renames")
        renamed.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(_Killed):
        store.store_many([(key, value, 1.0, None) for key in keys])
    monkeypatch.undo()
    assert [store.path_for(k).exists() for k in keys] == [
        True, True, False, False]
    _kill(store)

    recovered = ResultStore(tmp_path)
    assert recovered.replayed == 2
    for key in keys:
        assert recovered.load_entry(key).elapsed == 1.0
    assert not list(recovered.journal_dir.glob("wal-*.jsonl"))


def test_a_second_store_skips_a_live_writers_journal(tmp_path):
    writer = ResultStore(tmp_path)
    writer._append_journal("pending", writer._encode(_stored_value()))
    other = ResultStore(tmp_path)                     # same process, live log
    assert other.replayed == 0
    assert writer._wal_path.exists()
    assert other._wal_path != writer._wal_path
    _kill(writer)
    assert ResultStore(tmp_path).replayed == 1


def test_a_forked_child_does_not_hold_its_parents_journal_lock(tmp_path):
    store = ResultStore(tmp_path)
    store.store("k", OomInfo("gpu0", 2, 1, "boom"))
    ResultStore(tmp_path)                             # opened while locked
    assert store._wal_path.exists()
    started, forked = os.pipe()
    stop, stopping = os.pipe()
    pid = os.fork()
    if pid == 0:                                      # a pool worker, say
        os.write(forked, b"x")
        os.read(stop, 1)
        os._exit(0)
    try:
        os.read(started, 1)
        _kill(store)                                  # the parent dies
        assert ResultStore(tmp_path).replayed == 0    # entry intact ...
        assert not list(tmp_path.glob("journal/wal-*.jsonl"))  # ... log gone
    finally:
        os.write(stopping, b"x")
        os.waitpid(pid, 0)
        for fd in (started, forked, stop, stopping):
            os.close(fd)


# ----------------------------------------------------------------------
# Seeded retry jitter (service backoff)
# ----------------------------------------------------------------------
def test_retry_jitter_is_seeded_and_bounded():
    from repro.service.executor import RETRY_BACKOFF, RETRY_JITTER, PoolExecutor

    def sleeps():
        executor = PoolExecutor(jobs=1)
        return [executor._backoff(a) for a in range(1, 5)]

    first = sleeps()
    assert sleeps() == first                          # seeded: reproducible
    for attempt, backoff in enumerate(first, start=1):
        base = RETRY_BACKOFF * 2 ** (attempt - 1)
        assert base <= backoff < base * (1 + RETRY_JITTER)   # bounded jitter
    # Jitter is on, and one executor's successive factors differ.
    factors = [b / (RETRY_BACKOFF * 2 ** a) for a, b in enumerate(first)]
    assert len(set(factors)) > 1


def test_retry_jitter_defaults_off_and_validates():
    runner = SweepRunner(retry_backoff=0.01)
    assert [runner._backoff(a) for a in range(1, 4)] == [0.01, 0.02, 0.04]
    with pytest.raises(ValueError):
        SweepRunner(retry_backoff=-0.1)


# ----------------------------------------------------------------------
# The service loop, in-process
# ----------------------------------------------------------------------
async def _request(port, message):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    return json.loads(line)


async def _drained(service):
    service.request_drain()
    await service._stopped.wait()


def _config(cache_dir=None, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("sim", TINY)
    return ServiceConfig(cache_dir=cache_dir, **kwargs)


def test_service_drains_over_a_passed_store(tmp_path):
    """A store handed in by the caller is journaled and closed on drain."""
    async def go():
        service = SweepService(_config(), store=ResultStore(tmp_path))
        await service.start()
        message = {"op": "sweep", "client": "t", "points": [_wire_point(16)]}
        response = await _request(service.port, message)
        assert list(tmp_path.glob("journal/wal-*.jsonl"))  # journaled
        await asyncio.wait_for(_drained(service), timeout=60)
        return response

    assert asyncio.run(go())["status"] == "ok"
    assert not list(tmp_path.glob("journal/wal-*.jsonl"))
    assert len(ResultStore(tmp_path)) == 1


def test_service_cold_then_warm_requests(tmp_path, capsys):
    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        message = {"op": "sweep", "client": "t",
                   "points": [_wire_point(16), _wire_point(32)]}
        cold = await _request(service.port, message)
        warm = await _request(service.port, message)
        pong = await _request(service.port, {"op": "ping"})
        stats = await _request(service.port, {"op": "stats"})
        await _drained(service)
        return cold, warm, pong, stats

    cold, warm, pong, stats = asyncio.run(go())
    assert cold["status"] == warm["status"] == "ok"
    assert cold["sourcing"]["executed"] == 2
    assert warm["sourcing"]["executed"] == 0
    assert warm["sourcing"]["disk_hits"] == 2
    assert warm["sourcing"]["saved_seconds"] > 0
    # The deterministic halves are identical between cold and warm runs.
    assert cold["results"] == warm["results"]
    assert pong == {"status": "ok", "pong": True}
    payload = stats["stats"]
    assert payload["points_executed"] == 2 and payload["points_disk"] == 2
    assert payload["breaker"] == "closed" and payload["store_entries"] == 2
    assert "drained: journal flushed" in capsys.readouterr().err


def test_service_serves_async_update_points_as_async_kind(tmp_path):
    wire = dict(_wire_point(16, gpus=2), strategy="async-update")

    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        message = {"op": "sweep", "client": "t", "points": [wire]}
        cold = await _request(service.port, message)
        warm = await _request(service.port, message)
        await _drained(service)
        return cold, warm

    cold, warm = asyncio.run(go())
    assert cold["status"] == warm["status"] == "ok"
    assert warm["sourcing"]["disk_hits"] == 1
    assert cold["results"] == warm["results"]
    [result] = cold["results"]
    direct = Trainer(protocol.point_from_dict(wire).config, sim=TINY).run()
    assert result["kind"] == "async"
    assert result["staleness_mean"] == direct.async_stats.staleness_mean
    assert result["epoch_time"] == direct.epoch_time
    assert result["images_per_second"] == direct.images_per_second


def test_service_dedups_concurrent_identical_points():
    async def go():
        service = SweepService(_config())
        await service.start()
        message = {"op": "sweep",
                   "points": [_wire_point(16), _wire_point(32)]}
        a, b = await asyncio.gather(
            _request(service.port, dict(message, client="a")),
            _request(service.port, dict(message, client="b")),
        )
        await _drained(service)
        return a, b

    a, b = asyncio.run(go())
    assert a["status"] == b["status"] == "ok"
    executed = a["sourcing"]["executed"] + b["sourcing"]["executed"]
    deduped = a["sourcing"]["deduped"] + b["sourcing"]["deduped"]
    assert executed == 2 and deduped == 2             # each point ran once
    assert a["results"] == b["results"]
    assert sum(s["saved_seconds"] for s in
               (a["sourcing"], b["sourcing"])) > 0


def test_service_budget_degrades_overflow_to_analytic():
    async def go():
        service = SweepService(_config())
        await service.start()
        response = await _request(service.port, {
            "op": "sweep", "client": "t", "budget": 1,
            "points": [_wire_point(16), _wire_point(32), _wire_point(64)],
        })
        await _drained(service)
        return response

    response = asyncio.run(go())
    assert response["status"] == "ok"
    assert response["sourcing"]["executed"] == 1
    assert response["sourcing"]["degraded"] == 2
    degraded = [r for r in response["results"] if r["degraded"]]
    assert len(degraded) == 2
    assert all(r["kind"] == "analytic" and r["iteration_time"] > 0
               for r in degraded)


def _weak_wire_point(batch=16, gpus=2):
    return dict(_wire_point(batch, gpus), scaling="weak")


def _count_executions(service):
    """Record every point the service hands to its worker pool."""
    calls = []
    real = service.executor.execute

    async def counting(point):
        calls.append(point)
        return await real(point)

    service.executor.execute = counting
    return calls


def _served_twin_then_weak(cache_dir, invariants):
    async def go():
        service = SweepService(_config(cache_dir=cache_dir,
                                       invariants=invariants))
        await service.start()
        await _request(service.port, {
            "op": "sweep", "client": "t", "points": [_wire_point(16, 2)]})
        calls = _count_executions(service)
        weak = await _request(service.port, {
            "op": "sweep", "client": "t", "points": [_weak_wire_point()]})
        stats = await _request(service.port, {"op": "stats"})
        await _drained(service)
        return weak, stats["stats"], calls

    return asyncio.run(go())


def test_service_derives_a_point_from_its_stored_twin(tmp_path):
    weak, stats, calls = _served_twin_then_weak(tmp_path / "cache", "off")
    assert weak["status"] == "ok"
    assert weak["sourcing"]["derived"] == 1
    assert weak["sourcing"]["executed"] == 0
    assert weak["sourcing"]["saved_seconds"] > 0
    assert calls == []                                  # pool stayed idle
    assert stats["points_derived"] == 1 and stats["store_entries"] == 2
    point = protocol.point_from_dict(_weak_wire_point())
    own = Trainer(point.config, sim=TINY).run()
    assert weak["results"] == json.loads(json.dumps(
        [protocol.value_payload(point.describe(), own)]))


def test_service_strict_invariants_execute_the_point(tmp_path):
    weak, stats, calls = _served_twin_then_weak(tmp_path / "cache", "strict")
    assert weak["sourcing"]["derived"] == 0
    assert weak["sourcing"]["executed"] == 1
    assert len(calls) == 1 and stats["points_derived"] == 0


def test_service_simulates_a_missing_twin_under_its_own_key(tmp_path):
    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        calls = _count_executions(service)
        weak = await _request(service.port, {
            "op": "sweep", "client": "t",
            "points": [_weak_wire_point(), dict(_weak_wire_point(),
                                                dataset_images=100_000)]})
        strong = await _request(service.port, {
            "op": "sweep", "client": "t", "points": [_wire_point(16, 2)]})
        await _drained(service)
        return weak, strong, calls

    weak, strong, calls = asyncio.run(go())
    assert len(calls) == 1 and calls[0].config.scaling.value == "strong"
    assert weak["sourcing"]["derived"] == 2
    assert weak["sourcing"]["executed"] == 0
    assert weak["sourcing"]["sim_seconds"] > 0
    assert strong["sourcing"]["disk_hits"] == 1


def test_service_rejects_over_budget_when_degradation_forbidden():
    async def go():
        service = SweepService(_config())
        await service.start()
        refused = await _request(service.port, {
            "op": "sweep", "client": "t", "budget": 0, "degrade": False,
            "points": [_wire_point(16)],
        })
        non_sync = [
            await _request(service.port, {
                "op": "sweep", "client": "t", "budget": 0,
                "points": [_wire_point(16),
                           dict(_wire_point(16, gpus=2), strategy=strategy)],
            })
            for strategy in NON_SYNC
        ]
        await _drained(service)
        return refused, non_sync

    refused, non_sync = asyncio.run(go())
    assert refused["status"] == "rejected" and refused["reason"] == "budget"
    # Non-synchronous strategies cannot degrade to the synchronous DAG
    # floor, so a request holding one is refused too.
    for response in non_sync:
        assert response["status"] == "rejected"
        assert response["reason"] == "budget"


def test_service_rejects_while_draining_and_malformed_lines():
    async def go():
        service = SweepService(_config())
        await service.start()
        bad = await _request(service.port, {"op": "sweep", "points": "nope"})
        garbage = await _request(service.port, {"op": "teleport"})
        service.draining = True                       # drain announced
        shed = await _request(service.port, {
            "op": "sweep", "client": "late", "points": [_wire_point()],
        })
        service.draining = False
        await _drained(service)
        return bad, garbage, shed

    bad, garbage, shed = asyncio.run(go())
    assert bad["status"] == "error" and "points" in bad["error"]
    assert garbage["status"] == "error"
    assert shed["status"] == "rejected" and shed["reason"] == "draining"


def test_service_quota_returns_busy_under_concurrent_pressure():
    async def go():
        service = SweepService(_config(max_inflight_per_client=1))
        await service.start()
        message = {"op": "sweep", "client": "greedy",
                   "points": [_wire_point(16), _wire_point(32)]}
        responses = await asyncio.gather(*(
            _request(service.port, message) for _ in range(4)))
        await _drained(service)
        return responses

    responses = asyncio.run(go())
    statuses = sorted(r["status"] for r in responses)
    assert "ok" in statuses and "busy" in statuses
    for response in responses:
        if response["status"] == "busy":
            assert response["reason"] == "quota"


# ----------------------------------------------------------------------
# Per-request service stats in the obs JSONL exporter
# ----------------------------------------------------------------------
#: Fixed event stream behind the service JSONL golden file.
SERVICE_GOLDEN_EVENTS = (
    ServiceRequestEvent(client="ci-a", status="ok", points=4, executed=2,
                        disk_hits=1, deduped=1, degraded=0, shed_reason="",
                        elapsed=0.25),
    ServiceRequestEvent(client="ci-b", status="ok", points=4, executed=0,
                        disk_hits=2, deduped=0, degraded=2, shed_reason="",
                        elapsed=0.0125),
    ServiceRequestEvent(client="ci-b", status="busy", points=4, executed=0,
                        disk_hits=0, deduped=0, degraded=0,
                        shed_reason="quota", elapsed=0.0001),
    ServiceRequestEvent(client="ci-c", status="rejected", points=2,
                        executed=0, disk_hits=0, deduped=0, degraded=0,
                        shed_reason="draining", elapsed=0.0002),
)


def test_service_jsonl_output_matches_golden():
    buf = io.StringIO()
    count = write_events_jsonl(SERVICE_GOLDEN_EVENTS, buf)
    golden = (GOLDEN_DIR / "service_events.jsonl").read_text()
    assert count == 4
    assert buf.getvalue() == golden


def test_service_request_events_are_json_clean():
    for event in SERVICE_GOLDEN_EVENTS:
        payload = event_to_dict(event)
        assert payload["type"] == "ServiceRequestEvent"
        json.dumps(payload)


def test_service_request_event_reports_derived_points_when_nonzero():
    base = SERVICE_GOLDEN_EVENTS[0]
    assert base.derived == 0 and "derived" not in event_to_dict(base)
    derived = dataclasses.replace(base, derived=3)
    assert event_to_dict(derived)["derived"] == 3


def test_service_publishes_request_events_on_its_bus():
    bus = EventBus()
    recorder = JsonlRecorder(bus)

    async def go():
        service = SweepService(_config(), bus=bus)
        await service.start()
        await _request(service.port, {
            "op": "sweep", "client": "obs", "budget": 1,
            "points": [_wire_point(16), _wire_point(32)],
        })
        service.draining = True
        await _request(service.port, {
            "op": "sweep", "client": "late", "points": [_wire_point()],
        })
        service.draining = False
        await _drained(service)

    asyncio.run(go())
    events = [e for e in recorder.events
              if isinstance(e, ServiceRequestEvent)]
    assert len(events) == 2
    ok, shed = events
    assert ok.client == "obs" and ok.status == "ok"
    assert ok.points == 2 and ok.executed == 1 and ok.degraded == 1
    assert ok.shed_reason == "" and ok.elapsed > 0
    assert shed.client == "late" and shed.status == "rejected"
    assert shed.shed_reason == "draining"


# ----------------------------------------------------------------------
# The service's LRU of served store entries
# ----------------------------------------------------------------------
async def _request_line(port, message):
    """The raw response line, for byte-for-byte comparisons."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    return line


def _commit(root, points, value):
    """Store ``value`` under each point's key, as another process would."""
    store = ResultStore(root)
    for point in points:
        store.store(point_fingerprint(point, TINY, CALIBRATION), value,
                    elapsed=0.5)
    store.close()


def _count_reads(monkeypatch):
    """Count the fingerprints and store loads the service makes."""
    counts = {"fingerprint": 0, "load_entry": 0}
    real_fingerprint = server_module.point_fingerprint
    real_load = ResultStore.load_entry

    def fingerprint(*args, **kwargs):
        counts["fingerprint"] += 1
        return real_fingerprint(*args, **kwargs)

    def load_entry(self, key):
        counts["load_entry"] += 1
        return real_load(self, key)

    monkeypatch.setattr(server_module, "point_fingerprint", fingerprint)
    monkeypatch.setattr(ResultStore, "load_entry", load_entry)
    return counts


def test_repeated_warm_request_reads_neither_hash_nor_disk(
        tmp_path, monkeypatch):
    message = {"op": "sweep", "client": "t",
               "points": [_wire_point(16), _wire_point(32)]}

    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        await _request(service.port, message)
        first = await _request_line(service.port, message)
        counts = _count_reads(monkeypatch)
        second = await _request_line(service.port, message)
        await _drained(service)
        return first, second, counts

    first, second, counts = asyncio.run(go())
    assert counts == {"fingerprint": 0, "load_entry": 0}
    assert second == first
    sourcing = json.loads(second)["sourcing"]
    assert sourcing["disk_hits"] == 2 and sourcing["executed"] == 0
    assert sourcing["saved_seconds"] > 0


def test_a_miss_is_never_kept_in_memory(tmp_path):
    root = tmp_path / "cache"
    point = _point(16)
    message = {"op": "sweep", "client": "t", "points": [_wire_point(16)]}

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        calls = _count_executions(service)
        # Budget 0 answers the absent point analytically: nothing stored.
        shed = await _request(service.port, dict(message, budget=0))
        _commit(root, [point], SweepRunner(sim=TINY).run_point(point))
        served = await _request(service.port, message)
        await _drained(service)
        return shed, served, calls

    shed, served, calls = asyncio.run(go())
    assert shed["sourcing"]["degraded"] == 1
    assert served["status"] == "ok" and calls == []
    assert served["sourcing"]["disk_hits"] == 1
    assert served["sourcing"]["executed"] == 0
    assert served["results"][0]["degraded"] is False


def test_lru_holds_the_bound_and_evicts_least_recently_used(
        tmp_path, monkeypatch):
    monkeypatch.setattr(SweepService, "SERVED_POINTS", 4)
    root = tmp_path / "cache"
    batches = (8, 16, 32, 64, 128, 256)
    points = {b: _point(b) for b in batches}
    _commit(root, points.values(), _stored_value())

    async def sweep(service, *wanted):
        response = await _request(service.port, {
            "op": "sweep", "client": "t",
            "points": [_wire_point(b) for b in wanted]})
        assert response["sourcing"]["disk_hits"] == len(wanted)

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        await sweep(service, 8, 16, 32, 64)
        await sweep(service, 8)             # 8 becomes most recently used
        await sweep(service, 128, 256)      # evicts 16, then 32
        held = list(service._served)
        await _drained(service)
        return held

    held = asyncio.run(go())
    assert held == [points[b] for b in (64, 8, 128, 256)]


def test_stored_oom_entry_is_served_from_memory(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    oom = OomInfo(device=0, requested=2 ** 34, free=2 ** 33,
                  message="out of memory")
    _commit(root, [_point(16)], oom)
    message = {"op": "sweep", "client": "t", "points": [_wire_point(16)]}

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        first = await _request_line(service.port, message)
        counts = _count_reads(monkeypatch)
        second = await _request_line(service.port, message)
        await _drained(service)
        return first, second, counts

    first, second, counts = asyncio.run(go())
    assert counts == {"fingerprint": 0, "load_entry": 0}
    assert second == first
    [result] = json.loads(second)["results"]
    assert result["kind"] == "oom" and result["message"] == "out of memory"


# ----------------------------------------------------------------------
# Per-point memos: wire points, store keys, served payloads
# ----------------------------------------------------------------------
def _count_work(monkeypatch):
    """Count configs built, keys hashed, payloads made and store loads,
    plus the keys each load asked for."""
    counts = _count_reads(monkeypatch)
    counts.update(configs=0, payloads=0)
    loaded = []
    real_config = protocol.TrainingConfig
    real_payload = protocol.value_payload
    counting_load = ResultStore.load_entry

    def config(*args, **kwargs):
        counts["configs"] += 1
        return real_config(*args, **kwargs)

    def payload(*args, **kwargs):
        counts["payloads"] += 1
        return real_payload(*args, **kwargs)

    def load_entry(self, key):
        loaded.append(key)
        return counting_load(self, key)

    monkeypatch.setattr(protocol, "TrainingConfig", config)
    monkeypatch.setattr(protocol, "value_payload", payload)
    monkeypatch.setattr(ResultStore, "load_entry", load_entry)
    return counts, loaded


def _memos(service):
    return {"parsed": len(service._parsed), "keys": len(service._keys),
            "served": len(service._served)}


def test_memoized_wire_points_are_still_validated():
    service = SweepService(_config())
    good = {"network": "lenet", "batch_size": 16}
    point = service._wire_point(good)
    assert point == protocol.point_from_dict(good)
    # True == 1 and hash(True) == hash(1): a key taken before the type
    # checks would hand the boolean the memoized point of batch 1.
    service._wire_point(dict(good, batch_size=1))
    assert len(service._parsed) == 2
    for bad, match in (
            (dict(good, batch_size=True), "must be an integer"),
            (dict(good, batch_size="16"), "must be an integer"),
            (dict(good, topology_builder="evil"), "unknown point field"),
            ({"batch_size": 16}, "at least"),
    ):
        with pytest.raises(ProtocolError, match=match):
            service._wire_point(bad)
    # A config the trainer refuses is refused on every request: an
    # exception is never kept.
    for _ in range(3):
        with pytest.raises(ProtocolError, match="invalid point"):
            service._wire_point(dict(good, batch_size=0))
    assert len(service._parsed) == 2
    # Key order and an explicit default do not make a new point.
    assert service._wire_point({"batch_size": 16, "network": "lenet"}) is point
    assert service._wire_point(dict(good, num_gpus=1)) is point


def test_memoized_wire_points_refuse_whole_requests():
    async def go():
        service = SweepService(_config())
        ok = await service._dispatch(json.dumps({
            "op": "sweep", "budget": 0, "points": [_wire_point(16)]}))
        bad = [await service._dispatch(json.dumps({
            "op": "sweep", "budget": 0,
            "points": [_wire_point(16), dict(_wire_point(16), **extra)]}))
            for extra in ({"batch_size": True}, {"batch_size": 0},
                          {"batch_size": 0})]
        return ok, bad

    ok, bad = asyncio.run(go())
    assert ok["status"] == "ok" and ok["sourcing"]["degraded"] == 1
    assert [r["status"] for r in bad] == ["error"] * 3
    assert "must be an integer" in bad[0]["error"]
    assert bad[1]["error"] == bad[2]["error"]
    assert "invalid point" in bad[2]["error"]


def test_parse_sweep_defaults_to_point_from_dict():
    message = {"op": "sweep", "points": [_wire_point(16), _wire_point(32)]}
    seen = []

    def point_of(raw):
        seen.append(raw)
        return protocol.point_from_dict(raw)

    assert protocol.parse_sweep(message, point_of) == protocol.parse_sweep(
        message)
    assert seen == message["points"]


def test_repeated_warm_request_does_no_per_point_work(tmp_path, monkeypatch):
    message = {"op": "sweep", "client": "t",
               "points": [_wire_point(16), _wire_point(32)]}

    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        await _request(service.port, message)
        first = await _request_line(service.port, message)
        counts, _ = _count_work(monkeypatch)
        second = await _request_line(service.port, message)
        await _drained(service)
        return first, second, counts

    first, second, counts = asyncio.run(go())
    assert counts == {"fingerprint": 0, "load_entry": 0, "configs": 0,
                      "payloads": 0}
    assert second == first


def test_repeated_degraded_request_rehashes_nothing(tmp_path, monkeypatch):
    message = {"op": "sweep", "client": "t", "budget": 0,
               "points": [_wire_point(16), _wire_point(32)]}

    async def go():
        service = SweepService(_config(cache_dir=tmp_path / "cache"))
        await service.start()
        first = await _request(service.port, message)
        counts, _ = _count_work(monkeypatch)
        second = await _request(service.port, message)
        await _drained(service)
        return first, second, counts

    first, second, counts = asyncio.run(go())
    assert first == second and second["sourcing"]["degraded"] == 2
    # Each miss still probes the store: another process may fill it.
    assert counts == {"fingerprint": 0, "load_entry": 2, "configs": 0,
                      "payloads": 0}


def test_a_writes_twin_is_read_from_the_store_once(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    twin = protocol.point_from_dict(_wire_point(16, 2))
    _commit(root, [twin], SweepRunner(sim=TINY).run_point(twin))
    twin_key = point_fingerprint(twin, TINY, CALIBRATION)
    writes = [dict(_weak_wire_point(), dataset_images=images)
              for images in (1000, 2000, 3000)]

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        calls = _count_executions(service)
        counts, loaded = _count_work(monkeypatch)
        responses = [await _request(service.port, {
            "op": "sweep", "client": "t", "points": [write]})
            for write in writes]
        await _drained(service)
        return responses, counts, loaded, calls

    responses, counts, loaded, calls = asyncio.run(go())
    assert calls == []
    assert [r["sourcing"]["derived"] for r in responses] == [1, 1, 1]
    assert loaded.count(twin_key) == 1
    assert counts["load_entry"] == 4       # each write's own miss + twin
    assert counts["fingerprint"] == 4      # three writes and one twin


def test_a_new_service_starts_with_empty_memos(tmp_path):
    first = SweepService(_config(cache_dir=tmp_path / "cache"))
    first._wire_point(_wire_point(16))
    assert _memos(SweepService(_config(cache_dir=tmp_path / "cache"))) == {
        "parsed": 0, "keys": 0, "served": 0}


def test_every_memo_holds_the_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(SweepService, "SERVED_POINTS", 4)
    root = tmp_path / "cache"
    batches = (8, 16, 32, 64, 128, 256)
    _commit(root, [_point(b) for b in batches], _stored_value())

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        response = await _request(service.port, {
            "op": "sweep", "client": "t",
            "points": [_wire_point(b) for b in batches]})
        memos = _memos(service)
        await _drained(service)
        return response, memos

    response, memos = asyncio.run(go())
    assert response["sourcing"]["disk_hits"] == len(batches)
    assert memos == {"parsed": 4, "keys": 4, "served": 4}


def _points_lines(registry):
    return [line for line in render_prometheus(registry).splitlines()
            if line.startswith("service_points_total")]


def test_points_metric_matches_per_point_increments(tmp_path):
    root = tmp_path / "cache"
    _commit(root, [_point(16), _point(32)], _stored_value())
    requests = (
        {"budget": 0, "points": [_wire_point(16), _wire_point(32),
                                 _wire_point(64)]},
        {"budget": 0, "points": [_wire_point(64)]},         # zero hits
        {"points": [_wire_point(16), _wire_point(8)]},      # one executes
        {"points": [_weak_wire_point()]},                   # derived
    )

    async def go(cache_dir, messages):
        service = SweepService(_config(cache_dir=cache_dir))
        await service.start()
        responses = [await _request(service.port, dict(m, op="sweep"))
                     for m in messages]
        await _drained(service)
        return service, responses

    service, responses = asyncio.run(go(root, requests))
    reference = MetricsRegistry()
    points = install_service_metrics(reference)["points"]
    sources = {"executed": "executed", "disk_hits": "disk",
               "deduped": "dedup", "degraded": "degraded",
               "derived": "derived"}
    for response in responses:
        for field, source in sources.items():
            for _ in range(response["sourcing"][field]):
                points.labels(source=source).inc()
    lines = _points_lines(service.registry)
    assert lines == _points_lines(reference)
    assert 'service_points_total{source="disk"} 3' in lines
    assert 'service_points_total{source="derived"} 1' in lines

    cold, _ = asyncio.run(go(tmp_path / "empty", requests[:2]))
    assert not any('source="disk"' in line
                   for line in _points_lines(cold.registry))


# ----------------------------------------------------------------------
# The write path: one journal fsync per request
# ----------------------------------------------------------------------
def _count_fsyncs(monkeypatch):
    """Record the file descriptor of every ``os.fsync`` call."""
    calls = []
    real = os.fsync

    def fsync(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def _writes(count):
    """``count`` weak points that all derive from one twin (lenet b16 g2)."""
    return [dict(_weak_wire_point(), dataset_images=1000 * (i + 1))
            for i in range(count)]


def _commit_twin(root):
    twin = protocol.point_from_dict(_wire_point(16, 2))
    _commit(root, [twin], SweepRunner(sim=TINY).run_point(twin))


def test_a_write_request_deriving_six_points_makes_one_fsync(
        tmp_path, monkeypatch):
    root = tmp_path / "cache"
    _commit_twin(root)

    async def go():
        service = SweepService(_config(cache_dir=root))
        await service.start()
        fsyncs = _count_fsyncs(monkeypatch)
        response = await _request(service.port, {
            "op": "sweep", "client": "t", "points": _writes(6)})
        during = len(fsyncs)
        await _drained(service)
        return response, during

    response, fsyncs = asyncio.run(go())
    assert response["sourcing"]["derived"] == 6
    assert fsyncs == 1
    assert len(ResultStore(root)) == 7

    # A runner still stores, and fsyncs, once per point.
    runner = SweepRunner(sim=TINY, store=ResultStore(tmp_path / "runner"))
    fsyncs = _count_fsyncs(monkeypatch)
    runner.run_point(_point())
    assert len(fsyncs) == 1 and len(runner.store) == 1


def test_a_torn_batch_replays_its_complete_lines_and_is_never_answered(
        tmp_path, monkeypatch):
    root = tmp_path / "cache"
    _commit_twin(root)
    writes = _writes(3)
    keys = [point_fingerprint(protocol.point_from_dict(w), TINY, CALIBRATION)
            for w in writes]
    store = ResultStore(root)
    real_journal = store._journal

    def torn(lines, count):
        # Killed mid-write: the first line and part of the second reach
        # the log.
        real_journal(lines[:lines.index("\n") + 41], 1)
        raise _Killed("killed mid-journal-write")

    monkeypatch.setattr(store, "_journal", torn)

    async def go():
        service = SweepService(_config(), store=store)
        await service.start()
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       service.port)
        writer.write(protocol.encode(
            {"op": "sweep", "client": "t", "points": writes}))
        await writer.drain()
        answer = await reader.readline()
        writer.close()
        _kill(store)
        await asyncio.wait_for(_drained(service), timeout=60)
        return answer

    assert asyncio.run(go()) == b""                   # never answered
    recovered = ResultStore(root)
    assert recovered.replayed == 1
    assert recovered.load_entry(keys[0]) is not None
    assert recovered.load_entry(keys[1]) is None      # torn line
    assert recovered.load_entry(keys[2]) is None      # never written


def test_request_event_reports_store_seconds_of_writes_only(tmp_path):
    root = tmp_path / "cache"
    _commit_twin(root)

    async def go():
        service = SweepService(_config(cache_dir=root))
        recorder = JsonlRecorder(service.bus)
        await service.start()
        for points in (_writes(3), [_wire_point(16, 2)]):
            await _request(service.port, {
                "op": "sweep", "client": "t", "points": points})
        await _drained(service)
        return recorder.events

    write, read = asyncio.run(go())
    assert write.derived == 3 and 0 < write.store_s <= write.elapsed
    assert event_to_dict(write)["store_s"] == write.store_s
    assert read.disk_hits == 1 and read.store_s == 0.0
    assert "store_s" not in event_to_dict(read)


def test_a_failing_store_close_still_drains_and_exits_nonzero(
        tmp_path, capsys):
    store = ResultStore(tmp_path)

    def full_disk():
        raise OSError(28, "No space left on device")

    store.close = full_disk

    async def go():
        service = SweepService(_config(), store=store)
        run = asyncio.create_task(service.run())
        while service.port is None:
            await asyncio.sleep(0.01)
        service.request_drain()
        return service, await asyncio.wait_for(run, timeout=30)

    service, status = asyncio.run(go())
    assert status == 1
    assert isinstance(service.drain_error, OSError)
    assert service.drain_error.errno == 28
    err = capsys.readouterr().err
    assert "drain failed: OSError: [Errno 28] No space left on device" in err
    assert "drained: journal flushed" not in err
