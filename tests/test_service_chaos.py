"""Chaos tests: the service survives SIGKILLed workers, a SIGKILLed
server, pool saturation and SIGTERM drain -- the ISSUE 10 acceptance
criteria, exercised against real subprocesses.

Every test here spawns ``repro-experiments serve`` (or a small runner
driver) as a child process and does real signal delivery, so this file is
deliberately slower than ``tests/test_service.py``; keep fast-path logic
tests there.
"""

import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

from repro.service.client import ServiceClient

REPO = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))

#: A grid whose points are individually slow enough (~100ms/iteration)
#: to SIGKILL a worker mid-simulation.
SLOW_POINTS = [
    {"network": "resnet", "batch_size": 32, "num_gpus": 4,
     "comm_method": "nccl"},
    {"network": "resnet", "batch_size": 64, "num_gpus": 4,
     "comm_method": "nccl"},
]
FAST_POINTS = [
    {"network": "lenet", "batch_size": batch, "num_gpus": 1,
     "comm_method": "p2p"}
    for batch in (16, 32, 64)
]


@contextlib.contextmanager
def _start_server(*extra_args, timeout=60.0,
                  command=("-m", "repro.experiments.cli", "serve")):
    """Spawn ``repro-experiments serve`` (or ``command``, given the same
    arguments), wait for its ready line and yield ``(proc, port)``.

    The server runs in its own session, so its pool workers share its
    process group.  On exit that group is SIGKILLed if anything in it is
    still alive: a failed assertion, or a SIGKILL that orphaned the
    workers, never leaves a process behind the test.
    """
    proc = subprocess.Popen(
        [sys.executable, "-u", *command,
         "--port", "0", "--warmup", "0", *map(str, extra_args)],
        cwd=REPO, env=ENV, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            _kill_group(proc)
            raise AssertionError(
                f"server failed to start: {line!r}\n{proc.stderr.read()}")
        yield proc, int(line.rsplit(":", 1)[1])
    finally:
        _kill_group(proc)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def _kill_group(proc):
    """SIGKILL every live process in ``proc``'s process group."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def _finish(proc, sig=None, timeout=30.0, read_stderr=True):
    """Deliver ``sig`` (if any), reap the server, return (rc, stderr).

    ``read_stderr=False`` is for SIGKILLed servers: their orphaned pool
    workers inherit the stderr pipe, so a blocking read would hang until
    the orphans die.  (A graceful drain terminates the workers itself.)
    """
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        raise
    finally:
        stderr = proc.stderr.read() if read_stderr else ""
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, stderr


def _sweep_in_thread(port, points, client, out, **kwargs):
    """Run one sweep on its own connection; stash response or exception."""
    def work():
        try:
            with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
                out[client] = c.sweep(points, client=client, **kwargs)
        except Exception as exc:                        # noqa: BLE001
            out[client] = exc
    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread


#: ``serve`` whose pool workers announce each point they take on stdout,
#: ``simulating <pid>``, then hold it until the gate file (argv[1])
#: exists.  The handshake proves a point is in flight in that worker;
#: a gate that never opens makes the worker hang.
GATED_POINTS = textwrap.dedent("""
    import os, sys, time
    from repro.service import server
    from repro.train.trainer import Trainer

    gate, run = sys.argv[1], Trainer.run

    def gated_run(self):
        # One write per line: workers share the pipe.
        os.write(1, f"simulating {os.getpid()}\\n".encode())
        while not os.path.exists(gate):
            time.sleep(0.01)
        return run(self)

    Trainer.run = gated_run
    sys.exit(server.main(sys.argv[2:]))
""")


def _gated_server(gate, *extra_args):
    """:func:`_start_server` running :data:`GATED_POINTS` behind ``gate``."""
    return _start_server(*extra_args,
                         command=("-c", GATED_POINTS, str(gate)))


def _await_simulating(proc, timeout=30.0):
    """The pid of the first pool worker that announces a held point."""
    line = []
    reader = threading.Thread(
        target=lambda: line.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    assert line and line[0].startswith("simulating "), (
        f"no point reached a worker: {line}")
    return int(line[0].split()[1])


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Dedup across concurrent clients
# ----------------------------------------------------------------------
def test_concurrent_identical_sweeps_simulate_each_point_once():
    with _start_server("--no-cache", "--jobs", "2",
                       "--iterations", "10") as (proc, port):
        out = {}
        threads = [
            _sweep_in_thread(port, SLOW_POINTS, name, out)
            for name in ("chaos-a", "chaos-b")
        ]
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        a, b = out["chaos-a"], out["chaos-b"]
        assert a["status"] == b["status"] == "ok", (a, b)
        executed = (a["sourcing"]["executed"] + b["sourcing"]["executed"])
        deduped = (a["sourcing"]["deduped"] + b["sourcing"]["deduped"])
        assert executed == len(SLOW_POINTS)            # zero duplicates
        assert deduped == len(SLOW_POINTS)             # coalesced in flight
        assert a["results"] == b["results"]
        rc, _ = _finish(proc, signal.SIGTERM)
        assert rc == 0


# ----------------------------------------------------------------------
# SIGKILL of a busy worker
# ----------------------------------------------------------------------
def test_sigkilled_busy_worker_recovers_and_sweep_completes(tmp_path):
    gate = tmp_path / "gate"
    with _gated_server(gate, "--no-cache", "--jobs", "2",
                       "--iterations", "60") as (proc, port):
        out = {}
        thread = _sweep_in_thread(port, SLOW_POINTS, "victim", out)

        # The victim holds a point until the gate opens, so the kill
        # lands mid-simulation however loaded the machine is.
        victim = _await_simulating(proc)
        with ServiceClient("127.0.0.1", port) as c:
            workers = c.stats()["stats"]["workers"]
        assert len(workers) == 2
        assert victim in workers
        os.kill(victim, signal.SIGKILL)                # mid-simulation
        gate.touch()

        thread.join(timeout=180)
        assert not thread.is_alive()
        response = out["victim"]
        assert not isinstance(response, Exception), response
        assert response["status"] == "ok"
        # The pool was rebuilt and every point retried to completion.
        assert all(r["kind"] == "training" for r in response["results"])
        assert response["sourcing"]["executed"] == len(SLOW_POINTS)

        with ServiceClient("127.0.0.1", port) as c:
            stats = c.stats()["stats"]
            assert stats["rebuilds"] >= 1
            assert stats["breaker"] == "closed"
            new_workers = stats["workers"]
        assert victim not in new_workers
        rc, _ = _finish(proc, signal.SIGTERM)
        assert rc == 0


# ----------------------------------------------------------------------
# SIGKILL of the server mid-write: journal replay on restart
# ----------------------------------------------------------------------
def test_sigkilled_server_loses_no_committed_entries(tmp_path):
    cache = tmp_path / "cache"
    with _start_server("--cache-dir", cache, "--jobs", "1",
                       "--iterations", "2") as (proc, port):
        with ServiceClient("127.0.0.1", port) as c:
            cold = c.sweep(FAST_POINTS, client="cold")
        assert cold["status"] == "ok"
        assert cold["sourcing"]["executed"] == len(FAST_POINTS)
        # No drain, no flush; leaving the block reaps the orphaned workers.
        _finish(proc, signal.SIGKILL, timeout=15, read_stderr=False)

    # The journal survived the kill (no graceful close ever truncated it);
    # tear one committed point file as if the kill had raced its rename.
    wals = list(cache.glob("journal/wal-*.jsonl"))
    assert wals and wals[0].stat().st_size > 0
    entries = sorted(cache.glob("shard-*/*.json"))
    assert len(entries) == len(FAST_POINTS)
    entries[0].write_text(entries[0].read_text()[:10])

    with _start_server("--cache-dir", cache, "--jobs", "1",
                       "--iterations", "2") as (proc, port):
        with ServiceClient("127.0.0.1", port) as c:
            warm = c.sweep(FAST_POINTS, client="warm")
            stats = c.stats()["stats"]
        # Replay restored the torn entry: nothing lost, nothing re-run.
        assert warm["status"] == "ok"
        assert warm["sourcing"]["executed"] == 0       # zero duplicate sims
        assert warm["sourcing"]["disk_hits"] == len(FAST_POINTS)
        assert warm["sourcing"]["saved_seconds"] > 0
        assert warm["results"] == cold["results"]      # byte-identical data
        assert stats["store_entries"] == len(FAST_POINTS)
        assert not list(cache.glob("journal/wal-*.jsonl"))  # consumed
        rc, stderr = _finish(proc, signal.SIGTERM)
        assert rc == 0 and "drained: journal flushed" in stderr


# ----------------------------------------------------------------------
# SIGKILL after a write is answered, before its point files are placed
# ----------------------------------------------------------------------
#: ``serve`` with point-file placement held back, as if a request were
#: mid-dispatch for as long as the process lives.
HELD_PLACEMENTS = textwrap.dedent("""
    import sys
    from repro.runner.store import ResultStore
    from repro.service import server

    ResultStore.place = lambda self, limit=None: None
    sys.exit(server.main(sys.argv[1:]))
""")

#: Weak-scaling and dataset variants of lenet b16 g2 P2P: each derives
#: from that one strong twin.
DERIVED_POINTS = [
    {"network": "lenet", "batch_size": 16, "num_gpus": 2,
     "comm_method": "p2p", "scaling": "weak", "dataset_images": images}
    for images in (1000, 2000, 3000, 4000)
] + [
    {"network": "lenet", "batch_size": 16, "num_gpus": 2,
     "comm_method": "p2p", "dataset_images": images}
    for images in (5000, 6000)
]


def test_an_answered_write_survives_a_sigkill_before_placement(tmp_path):
    from repro.core.config import SimulationConfig
    from repro.core.constants import CALIBRATION
    from repro.runner import ResultStore, SweepRunner
    from repro.runner.fingerprint import point_fingerprint
    from repro.runner.runner import derive_value
    from repro.service.protocol import point_from_dict

    cache = tmp_path / "cache"
    sim = SimulationConfig(warmup_iterations=0, measure_iterations=2)
    twin = point_from_dict({"network": "lenet", "batch_size": 16,
                            "num_gpus": 2, "comm_method": "p2p"})
    twin_value = SweepRunner(sim=sim).run_point(twin)
    seeded = ResultStore(cache)
    seeded.store(point_fingerprint(twin, sim, CALIBRATION), twin_value,
                 elapsed=0.5)
    seeded.close()

    with _start_server("--cache-dir", cache, "--jobs", "1",
                       "--iterations", "2",
                       command=("-c", HELD_PLACEMENTS)) as (proc, port):
        with ServiceClient("127.0.0.1", port) as c:
            written = c.sweep(DERIVED_POINTS, client="writer")
        assert written["status"] == "ok"
        assert written["sourcing"]["derived"] == len(DERIVED_POINTS)
        _finish(proc, signal.SIGKILL, timeout=15, read_stderr=False)

    # Answered, journaled, and not one point file placed.
    points = [point_from_dict(p) for p in DERIVED_POINTS]
    keys = [point_fingerprint(p, sim, CALIBRATION) for p in points]
    assert not any(list(cache.glob(f"shard-*/{key}.json")) for key in keys)
    [wal] = cache.glob("journal/wal-*.jsonl")
    assert len(wal.read_text().splitlines()) == len(keys)

    recovered = ResultStore(cache)
    assert recovered.replayed == len(keys)
    reference = ResultStore(tmp_path / "reference")
    for point, key in zip(points, keys):
        reference.store(key, derive_value(twin_value, point.config),
                        elapsed=0.5)
        assert (recovered.path_for(key).read_bytes()
                == reference.path_for(key).read_bytes())

    with _start_server("--cache-dir", cache, "--jobs", "1",
                       "--iterations", "2") as (proc, port):
        with ServiceClient("127.0.0.1", port) as c:
            replay = c.sweep(DERIVED_POINTS, client="reader")
        assert replay["results"] == written["results"]
        assert replay["sourcing"]["disk_hits"] == len(DERIVED_POINTS)
        rc, _ = _finish(proc, signal.SIGTERM)
        assert rc == 0
    assert not list(cache.glob("journal/wal-*.jsonl"))


# ----------------------------------------------------------------------
# Two writers on one store: a second open leaves a live journal alone
# ----------------------------------------------------------------------
#: Process A: stores one entry, waits for a line on stdin, then journals
#: a second entry and hangs in that entry's rename until it is killed.
WRITER = textwrap.dedent("""
    import os, sys, time
    from repro.runner import OomInfo, ResultStore

    store = ResultStore(sys.argv[1])
    store.store("first", OomInfo("gpu0", 2, 1, "first"))
    print("stored", flush=True)
    sys.stdin.readline()

    def hang(src, dst):
        print("journaled", flush=True)
        time.sleep(600)

    os.replace = hang
    store.store("second", OomInfo("gpu0", 2, 1, "second"))
""")


def test_a_second_open_keeps_a_live_writers_journal(tmp_path):
    from repro.runner import OomInfo, ResultStore

    writer = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(tmp_path)], env=ENV, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        assert writer.stdout.readline().strip() == "stored"
        assert ResultStore(tmp_path).replayed == 0    # B opens the store
        writer.stdin.write("go\n")
        writer.stdin.flush()
        assert writer.stdout.readline().strip() == "journaled"
    finally:
        writer.kill()
        writer.wait(timeout=30)
        writer.stdin.close()
        writer.stdout.close()
    assert not list(tmp_path.glob("shard-*/second.json"))  # never renamed
    recovered = ResultStore(tmp_path)
    assert recovered.replayed == 1
    assert recovered.load("second") == OomInfo("gpu0", 2, 1, "second")
    assert recovered.load("first") == OomInfo("gpu0", 2, 1, "first")
    assert not list(tmp_path.glob("journal/wal-*.jsonl"))


# ----------------------------------------------------------------------
# Saturation: BUSY or degraded, never a hang
# ----------------------------------------------------------------------
def test_saturated_pool_sheds_but_never_hangs():
    with _start_server("--no-cache", "--jobs", "1", "--iterations", "20",
                       "--queue-high", "1",
                       "--queue-low", "0") as (proc, port):
        out = {}
        first = _sweep_in_thread(port, SLOW_POINTS, "flood-0", out)
        # Only once the pool is demonstrably saturated does the flood
        # start, so the backpressure watermark is deterministically hit.
        with ServiceClient("127.0.0.1", port) as c:
            assert _wait_for(
                lambda: c.stats()["stats"]["queue_depth"] >= 1)
        threads = [
            _sweep_in_thread(
                port,
                [dict(p, batch_size=p["batch_size"] + i) for p in SLOW_POINTS],
                f"flood-{i}", out)
            for i in range(1, 5)
        ]
        for thread in [first, *threads]:
            thread.join(timeout=180)
            assert not thread.is_alive()               # nobody hangs
        statuses = {}
        for name, response in out.items():
            assert not isinstance(response, Exception), (name, response)
            statuses[name] = response["status"]
            assert response["status"] in ("ok", "busy"), response
            if response["status"] == "busy":
                assert response["reason"] in ("backpressure", "quota")
        assert statuses["flood-0"] == "ok"             # not total refusal
        assert "busy" in statuses.values()             # shedding happened

        # A zero-budget request during the same load answers analytically
        # (degraded: true) instead of queueing -- graceful, not binary.
        with ServiceClient("127.0.0.1", port) as c:
            degraded = c.sweep(FAST_POINTS, client="cheap", budget=0)
        if degraded["status"] == "ok":
            assert all(r["degraded"] for r in degraded["results"])
            assert degraded["sourcing"]["degraded"] == len(FAST_POINTS)
        else:
            assert degraded["status"] == "busy"        # admission said no
        rc, _ = _finish(proc, signal.SIGTERM)
        assert rc == 0


# ----------------------------------------------------------------------
# SIGTERM drain: clean exit with an empty journal
# ----------------------------------------------------------------------
def test_sigterm_drain_exits_zero_with_empty_journal(tmp_path):
    cache = tmp_path / "cache"
    with _start_server("--cache-dir", cache, "--jobs", "2",
                       "--iterations", "2") as (proc, port):
        with ServiceClient("127.0.0.1", port) as c:
            response = c.sweep(FAST_POINTS, client="drainer")
        assert response["status"] == "ok"
        rc, stderr = _finish(proc, signal.SIGTERM)
    assert rc == 0
    assert "drained: journal flushed, exiting" in stderr
    assert len(list(cache.glob("shard-*/*.json"))) == len(FAST_POINTS)
    assert not list(cache.glob("journal/wal-*.jsonl"))  # flushed + removed


def test_sigterm_drain_with_hung_worker_still_exits_zero(tmp_path):
    """Satellite: SIGTERM under ``jobs>1`` with a worker that will not
    finish inside the grace period -- the drain must kill it and still
    exit 0 rather than wait forever."""
    # The gate never opens: the worker holding a point is hung.
    with _gated_server(tmp_path / "gate", "--no-cache", "--jobs", "2",
                       "--iterations", "2000",
                       "--drain-timeout", "2") as (proc, port):
        out = {}
        thread = _sweep_in_thread(port, SLOW_POINTS, "stuck", out)
        _await_simulating(proc)
        started = time.monotonic()
        rc, stderr = _finish(proc, signal.SIGTERM, timeout=30)
    assert rc == 0
    assert time.monotonic() - started < 25             # did not wait for it
    assert "drained" in stderr
    thread.join(timeout=30)
    assert not thread.is_alive()
    # The abandoned client observed a closed connection, not a hang.
    assert isinstance(out["stuck"], (Exception, dict))


# ----------------------------------------------------------------------
# Runner-level satellite: SIGTERM, jobs>1, hung worker point
# ----------------------------------------------------------------------
DRIVER = textwrap.dedent("""\
    import sys
    import time

    from repro.core.config import (
        CommMethodName, SimulationConfig, TrainingConfig,
    )
    from repro.core.errors import SweepInterrupted
    from repro.obs import EventBus
    from repro.obs.events import SweepPointDone
    from repro.runner import SweepPoint, SweepRunner, SweepSpec

    def _hang():
        time.sleep(3600)

    good = SweepPoint.make(
        TrainingConfig("lenet", 16, 1, comm_method=CommMethodName.P2P))
    hung = SweepPoint.make(
        TrainingConfig("lenet", 32, 1, comm_method=CommMethodName.P2P),
        overrides={"topology_builder": _hang},
    )
    bus = EventBus()

    def _done(event):
        if event.label == good.describe():
            print("done", flush=True)

    bus.subscribe(SweepPointDone, _done)
    runner = SweepRunner(
        sim=SimulationConfig(warmup_iterations=0, measure_iterations=1),
        jobs=2, bus=bus,
    )
    print("running", flush=True)
    try:
        runner.run(SweepSpec.explicit("sigterm", [good, hung]))
    except SweepInterrupted as exc:
        print(f"completed={exc.completed}/{exc.total}", flush=True)
        sys.exit(130)
    sys.exit(0)
""")


def test_runner_sigterm_with_hung_pool_worker_reports_partials(tmp_path):
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    proc = subprocess.Popen(
        [sys.executable, "-u", str(driver)], cwd=REPO, env=ENV, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    lines, done = [], threading.Event()

    def _read_stdout():
        for line in proc.stdout:
            lines.append(line)
            if line.strip() == "done":
                done.set()

    try:
        assert proc.stdout.readline().strip() == "running"
        reader = threading.Thread(target=_read_stdout, daemon=True)
        reader.start()
        # Signal only once the good point has finished; the hung one is
        # asleep in a worker.
        assert done.wait(timeout=120), f"good point never finished: {lines}"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)                          # no atexit hang
    except BaseException:
        proc.kill()
        raise
    reader.join(timeout=10)
    assert not reader.is_alive()
    stdout, stderr = "".join(lines), proc.stderr.read()
    assert proc.returncode == 130
    assert "completed=1/2" in stdout
    assert "interrupted: 1/2 point(s) finished and flushed" in stderr
