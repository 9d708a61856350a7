"""Engine fast paths leave every simulated answer unchanged.

``tests/data/engine_agreement.json`` holds the full-precision ``repr`` of
``iteration_time``, ``epoch_time``, ``iteration_times`` and ``stages`` for
a handful of sweep points, recorded before the event engine learnt its
fast paths (slotted events, one dispatch loop, inline compute streams,
idle-engine grants) and re-recorded once when the clock became
translation-invariant (docs/PERF.md, "Exact periodicity").  Each point
must still reproduce those strings exactly.  The fixture also pins how
many events an 8-GPU AlexNet NCCL point dispatches once the warm-up is
the steady iteration (docs/PERF.md): a ceiling the engine must not
exceed.

Every point also pins the sha256 and line count of the JSONL event stream
an :class:`~repro.obs.session.ObsSession` records for it, so a refactor
that keeps the answers but reorders, adds or drops an observable event
(a ring step, a link wait, a stream wait) fails too.  The points cover
every communicator: P2P, NCCL (ring and tree), NCCL AllReduce, the CPU
(``ps-cpu``) and GPU (``ps-gpu``) parameter servers, and the hierarchical
cluster AllReduce with a ring and a tree inter-node phase, event-level
and analytic.

Every point also pins the *set* of lines of that stream: the sha256 of
its sorted lines without the ``QueueDepthEvent`` samples (the queue depth
counts engine events, not modelled work).  An engine change that drops
bookkeeping events (a join, a grant for a free slot, a resume poke) may
reorder the stream's same-time lines and its depth samples, but every
kernel, DMA, ring step and wait it records must stay, bit for bit.

Every point also pins the raw dispatch sequence: the sha256 and length of
the ``(now, queue depth)`` samples an ``every=1`` observer on each of its
environments sees.  It catches what the stream cannot: an added, dropped
or moved event that publishes nothing, and a swap of same-time events
that changes a queue depth.  An engine change that only trims host work
must leave these digests as they are.

Recording keeps every pinned answer, stream set and event count, and adds
only those of new points, so record a new point from a commit whose
answers are the reference.  It re-records the ordered streams and the
dispatch digests, which a change that drops engine events moves.  Lower
the pinned event count by hand, on purpose, when a change removes
events::

    PYTHONPATH=src python tests/test_engine_agreement.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.population import (  # noqa: E402
    fastpath_point, fault_point, grid_point, rail_point, tuner_point,
)
from repro.core.config import CommMethodName, TrainingConfig  # noqa: E402
from repro.obs import ObsSession  # noqa: E402
from repro.perf.spans import PERF  # noqa: E402
from repro.runner import SweepPoint  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.train import trainer as trainer_module  # noqa: E402
from repro.train.trainer import Trainer  # noqa: E402

FIXTURE = pathlib.Path(__file__).parent / "data" / "engine_agreement.json"

#: The point whose dispatched-event count the fixture pins.
EVENTS_LABEL = "grid/alexnet/b16/g8/nccl/strong"
#: Largest allowed ratio of its event count now to the pinned one.
EVENTS_RATIO = 1.0


def _points():
    out = [grid_point(net, 16, gpus, comm)
           for net in ("lenet", "alexnet", "resnet")
           for comm in ("p2p", "nccl")
           for gpus in (1, 2, 8)]
    out.append(fault_point("alexnet", "nccl", 8, 3))
    out.append(rail_point("alexnet", 1, 2, 0.5))
    out.append(fastpath_point(16))
    out.extend(grid_point("alexnet", 16, gpus, "nccl-allreduce")
               for gpus in (2, 8))
    out.append(grid_point("alexnet", 16, 8, "local"))
    # Relayed, chunk-pipelined P2P legs, and a 4-GPU binomial tree.
    out.append(grid_point("inception-v3", 16, 8, "p2p"))
    out.append(grid_point("googlenet", 16, 4, "p2p"))
    out.append(("strategy/alexnet/b16/g4/ps-gpu", SweepPoint(
        config=TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.P2P,
                              strategy="ps-gpu"))))
    out.append(tuner_point("alexnet", 8, "tree", "auto"))
    for fast_path in ("event", "analytic"):
        out.append((f"cluster/alexnet/n2/hierarchical-tree/{fast_path}",
                    SweepPoint(config=TrainingConfig(
                        "alexnet", 16, 16,
                        comm_method=CommMethodName.NCCL_ALLREDUCE,
                        cluster_nodes=2, cluster_fabric="single-switch",
                        cluster_collective="hierarchical-tree",
                        cluster_fast_path=fast_path))))
    return dict(out)


POINTS = _points()


def _simulate(point):
    """Run one point; return its answer strings and dispatched events."""
    PERF.reset()
    PERF.enable()
    try:
        result = Trainer(point.config, **point.override_dict()).run()
        events = int(PERF.counters.get("sim.events", 0))
    finally:
        PERF.disable()
        PERF.reset()
    answer = {
        "iteration_time": repr(result.iteration_time),
        "epoch_time": repr(result.epoch_time),
        "iteration_times": [repr(t) for t in result.iteration_times],
        "stages": repr(result.stages),
    }
    return answer, events


def _stream(point):
    """The ordered stream's sha256 and line count, and its line set's."""
    obs = ObsSession()
    Trainer(point.config, obs=obs, **point.override_dict()).run()
    buf = io.StringIO()
    lines = obs.recorder.write(buf)
    text = buf.getvalue()
    modelled = sorted(line for line in text.splitlines()
                      if json.loads(line)["type"] != "QueueDepthEvent")
    stream_set = {"sha256": hashlib.sha256(
        "\n".join(modelled).encode()).hexdigest(), "lines": len(modelled)}
    return ({"sha256": hashlib.sha256(text.encode()).hexdigest(),
             "lines": lines}, stream_set)


def _dispatches(point):
    """The sha256 and length of one point's ``(now, depth)`` samples."""
    digest = hashlib.sha256()
    samples = 0

    def observe(now, depth):
        nonlocal samples
        samples += 1
        digest.update(f"{now!r} {depth}\n".encode())

    class Observed(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.set_observer(observe, every=1)

    trainer_module.Environment = Observed
    try:
        Trainer(point.config, **point.override_dict()).run()
    finally:
        trainer_module.Environment = Environment
    return {"sha256": digest.hexdigest(), "samples": samples}


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_point(fixture):
    assert sorted(fixture["answers"]) == sorted(POINTS)
    assert sorted(fixture["streams"]) == sorted(POINTS)
    assert sorted(fixture["stream_sets"]) == sorted(POINTS)
    assert sorted(fixture["dispatches"]) == sorted(POINTS)


@pytest.mark.parametrize("label", sorted(POINTS))
def test_answers_are_unchanged(label, fixture):
    answer, _ = _simulate(POINTS[label])
    assert answer == fixture["answers"][label]


@pytest.mark.parametrize("label", sorted(POINTS))
def test_event_streams_are_unchanged(label, fixture):
    stream, stream_set = _stream(POINTS[label])
    assert stream_set == fixture["stream_sets"][label]
    assert stream == fixture["streams"][label]


@pytest.mark.parametrize("label", sorted(POINTS))
def test_dispatch_sequences_are_unchanged(label, fixture):
    assert _dispatches(POINTS[label]) == fixture["dispatches"][label]


def test_alexnet_8gpu_nccl_dispatches_fewer_events(fixture):
    _, events = _simulate(POINTS[EVENTS_LABEL])
    recorded = fixture["events"][EVENTS_LABEL]
    assert 0 < events <= EVENTS_RATIO * recorded, (events, recorded)


def _record() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    # Pinned answers and stream sets are kept (for points still listed).
    answers, stream_sets = (
        {label: value for label, value in old.get(key, {}).items()
         if label in POINTS}
        for key in ("answers", "stream_sets"))
    events = old.get("events", {})
    streams, dispatches = {}, {}
    for label in sorted(POINTS):
        answer, count = _simulate(POINTS[label])
        answers.setdefault(label, answer)
        streams[label], stream_set = _stream(POINTS[label])
        stream_sets.setdefault(label, stream_set)
        dispatches[label] = _dispatches(POINTS[label])
        if label == EVENTS_LABEL:
            events.setdefault(label, count)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"answers": answers, "dispatches": dispatches, "events": events,
         "stream_sets": stream_sets, "streams": streams},
        indent=1, sort_keys=True) + "\n")
    print(f"{len(answers)} points recorded -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
