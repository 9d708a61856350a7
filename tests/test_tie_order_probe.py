"""How much do the answers depend on the order of same-instant events?

The engine dispatches events due at one instant in insertion order, and
no rule of the model states that order.  This probe replaces the
environment's same-instant FIFO with one whose ``popleft`` takes a
seeded random entry, so every tie is broken by chance, and re-runs every
``tests/test_engine_agreement.py`` point under six seeds:

* a 1-GPU point has no same-instant contention that moves time, so its
  answer must stay bit-identical to the pinned one;
* a multi-GPU point must stay within ``SPREAD`` of its pinned
  ``iteration_time`` (``WIDER`` for the NCCL AllReduce points, which
  one of the six seeds moves by just over 5%).  Its spread is printed;
  run with ``-rP`` to see it.

The shuffle lives only here, by patching ``Environment.__init__``; the
engine has no option for it.
"""

from __future__ import annotations

import json
import random
from collections import deque

import pytest

from repro.sim.engine import Environment
from tests.test_engine_agreement import FIXTURE, POINTS, _simulate

SEEDS = range(6)
#: Largest allowed relative move of a multi-GPU point's iteration time.
SPREAD = 0.05
#: Points whose measured spread exceeds ``SPREAD``: over seeds 0-19 the
#: fused AllReduce points reach +5.38% (g2) and +5.28% (g8), each on one
#: seed of 20, both within seeds 0-5.
WIDER = {
    "grid/alexnet/b16/g2/nccl-allreduce/strong": 0.06,
    "grid/alexnet/b16/g8/nccl-allreduce/strong": 0.06,
}


class _ShuffledTies(deque):
    """A same-instant FIFO ordered by a seeded random key per entry.

    Each appended event draws a key; ``popleft`` takes the pending entry
    with the smallest key, insertion order breaking equal keys.  That is
    a heap ordered by ``(time, random key, eid)``.
    """

    def __init__(self, rng: random.Random) -> None:
        super().__init__()
        self.rng = rng

    def append(self, event) -> None:
        super().append((self.rng.random(), event))

    def popleft(self):
        entry = min(self, key=lambda e: e[0])
        self.remove(entry)
        return entry[1]


def _shuffled(point, seed, monkeypatch):
    rng = random.Random(seed)
    init = Environment.__init__

    def seeded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._fifo = _ShuffledTies(rng)

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "__init__", seeded_init)
        answer, _ = _simulate(point)
    return answer


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())["answers"]


@pytest.mark.parametrize("label", sorted(POINTS))
def test_tie_order_moves_answers_by_at_most_the_spread(label, pinned, monkeypatch):
    point = POINTS[label]
    answers = [_shuffled(point, seed, monkeypatch) for seed in SEEDS]
    reference = float(pinned[label]["iteration_time"])
    moves = [float(a["iteration_time"]) / reference - 1.0 for a in answers]
    print(f"{label}: iteration_time {reference:.6g} s, tie-order spread "
          f"{min(moves):+.2%} .. {max(moves):+.2%} over {len(moves)} seeds")
    if point.config.num_gpus == 1:
        assert all(a == pinned[label] for a in answers)
    else:
        bound = WIDER.get(label, SPREAD)
        assert all(abs(m) <= bound for m in moves), moves
