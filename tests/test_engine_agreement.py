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

Regenerate the answers only from a commit whose answers are the
reference.  The pinned event count is kept; lower it by hand, on
purpose, when a change removes events::

    PYTHONPATH=src python tests/test_engine_agreement.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.population import (  # noqa: E402
    fastpath_point, fault_point, grid_point, rail_point,
)
from repro.perf.spans import PERF  # noqa: E402
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


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_point(fixture):
    assert sorted(fixture["answers"]) == sorted(POINTS)


@pytest.mark.parametrize("label", sorted(POINTS))
def test_answers_are_unchanged(label, fixture):
    answer, _ = _simulate(POINTS[label])
    assert answer == fixture["answers"][label]


def test_alexnet_8gpu_nccl_dispatches_fewer_events(fixture):
    _, events = _simulate(POINTS[EVENTS_LABEL])
    recorded = fixture["events"][EVENTS_LABEL]
    assert 0 < events <= EVENTS_RATIO * recorded, (events, recorded)


def _record() -> None:
    events = json.loads(FIXTURE.read_text())["events"] if FIXTURE.exists() else {}
    answers = {}
    for label in sorted(POINTS):
        answers[label], count = _simulate(POINTS[label])
        if label == EVENTS_LABEL:
            events.setdefault(label, count)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"answers": answers, "events": events}, indent=1, sort_keys=True) + "\n")
    print(f"{len(answers)} points recorded -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
