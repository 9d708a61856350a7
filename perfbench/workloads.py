"""The three benchmark workloads: seeded op sequences, set-up, timed phase.

``paper-cold``
    The paper's own use: a cold reproduction sweep.  The 24 paper-anchor
    cells plus one (batch, scaling) variant of each (network, GPUs, comm)
    stratum of the paper's single-node grid.  One
    ``SweepRunner(jobs=1, invariants="off")`` over an empty on-disk
    store, one point per op.
``strict-faults``
    The ``experiments.selfcheck`` point families under
    ``invariants="strict"``: grid points, NCCL-tuner points, single-node
    ``FaultPlan.random`` points, 2-node rail-fabric hierarchical points
    with a rail fault, and one 16-node analytic fast-path point.
``service-replay``
    An in-process ``SweepService(jobs=1)`` over a ``ShardedResultStore``.
    Two closed-loop clients, one connection each, send seeded overlapping
    requests: reads (disk hits), writes (new cheap points that simulate
    and journal) and over-budget requests that degrade to the analytic
    estimate.  An op is a request.

Host cost per point varies several-fold with batch size, fault draw or
NCCL knobs, and runs made with different seeds are compared, so
the sweep workloads run a fixed multiset of points -- each stratum's
variant is spread over the population, not drawn -- and the seed only
orders it.  The service seed draws the request contents (which warm
points, which fresh points, which anchor cells), whose cost is the same
for every draw.  ``--seconds`` sets how many rounds of the mix run,
``max(1, round(seconds / ROUND_SECONDS))``, so one seed always does
identical work.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import pathlib
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench import population as pop
from repro.analysis.validation import PAPER_ANCHORS, validate
from repro.core.config import SimulationConfig
from repro.core.constants import CALIBRATION
from repro.runner import SweepPoint, SweepRunner, SweepSpec
from repro.runner.fingerprint import point_fingerprint
from repro.runner.spec import FailurePolicy, OomPolicy
from repro.runner.store import ResultStore, ShardedResultStore
from repro.service import analytic, protocol
from repro.service.server import ServiceConfig, SweepService

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected.json"

#: Nominal host seconds of one round of a workload's mix (10-25 s on a
#: calm 2-core host); ``--seconds`` runs
#: ``max(1, round(seconds / ROUND_SECONDS))`` rounds.
ROUND_SECONDS = 15.0

#: Service-replay blocks per client per round, and the block of request
#: kinds each client cycles through (order shuffled per block).  Writes
#: are few and heavy, so the 10 slowest requests (``op_tail_s``) are
#: always writes that simulate, and not the noisiest of many light ones.
SERVICE_BLOCKS_PER_ROUND = 45
SERVICE_BLOCK = ("read",) * 27 + ("write",) + ("degrade",) * 4
POINTS_PER_REQUEST = 8
WINDOW_REQUESTS = len(SERVICE_BLOCK)

#: The sweep workloads' set-up simulates this (network, batch, GPUs, comm)
#: point once, untimed.
WARM_UP_POINT = ("lenet", 16, 2, "nccl")


#: Iterations of the host-speed probe, and the probe's duration on the
#: reference machine in a calm period.
PROBE_ITERATIONS = 60_000
PROBE_REFERENCE_S = 0.008


def probe() -> float:
    """Seconds a fixed pure-Python job takes right now.

    The job uses no simulator code, so no change to the repository moves
    it; only the host's speed does.  On shared 2-core hosts that speed
    swings by up to 1.8x over phases of a few seconds, and the simulator
    slows with it (correlation 0.8 op by op).
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Rescales host seconds to reference-machine seconds.

    Each stretch of timed work is bracketed by probes; its seconds are
    multiplied by ``PROBE_REFERENCE_S`` over the mean of the two probes.
    Probe time itself is never counted as work.
    """

    def __init__(self, samples: int = 1) -> None:
        self.samples = samples
        self._last = self._probe()
        self.factors: List[float] = []

    def _probe(self) -> float:
        return statistics.median(probe() for _ in range(self.samples))

    def scale(self) -> float:
        """Probe now; the factor for the stretch since the last probe."""
        now = self._probe()
        factor = PROBE_REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor


@dataclass
class RunResult:
    """What one timed phase measured and checked.

    ``latencies`` and ``wall`` are in reference-machine seconds (see
    :class:`HostClock`), ``raw_latencies`` and ``raw_wall`` in host
    seconds as measured; walls leave out the probes and collector runs
    between ops.
    """

    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    raw_latencies: List[float] = field(default_factory=list)
    raw_wall: float = 0.0
    host_factors: List[float] = field(default_factory=list)
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    #: Deterministic accuracy metrics (name -> (value, unit)).
    accuracy: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Layer facts that come from results, not from tracing.
    facts: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def load_expected() -> Dict[str, Tuple[float, float]]:
    return {k: (v[0], v[1]) for k, v in
            json.loads(EXPECTED_PATH.read_text()).items()}


def same_answer(iteration: float, epoch: float,
                expected: Tuple[float, float]) -> bool:
    """Equal at the precision ``results/*.txt`` prints."""
    return (f"{iteration * 1e3:.2f}" == f"{expected[0] * 1e3:.2f}"
            and f"{epoch:.2f}" == f"{expected[1]:.2f}")


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _spread(variants: List[Any], count: int, start: int) -> List[Any]:
    """``count`` variants of one stratum, starting at ``start`` and
    striding so neighbouring strata cover different variants."""
    n = len(variants)
    step = 5 if math.gcd(5, n) == 1 else 1
    return [variants[(start + i * step) % n] for i in range(count)]


# ----------------------------------------------------------------------
# Op sequences
# ----------------------------------------------------------------------
def paper_cold_ops(seed: int, seconds: float) -> List[Tuple[str, SweepPoint]]:
    anchors = list(pop.anchor_points())
    taken = {label for label, _ in anchors}
    ops = list(anchors)
    rounds = rounds_for(seconds)
    strata = [(net, gpus, comm) for net in pop.NETS for gpus in pop.GPUS
              for comm in pop.COMMS]
    for index, (net, gpus, comm) in enumerate(strata):
        variants = [(b, s) for b in pop.BATCHES for s in pop.SCALINGS
                    if pop.grid_label(net, b, gpus, comm, s) not in taken]
        for batch, scaling in _spread(variants, rounds, index):
            ops.append(pop.grid_point(net, batch, gpus, comm, scaling))
    random.Random(f"paper-cold:{seed}").shuffle(ops)
    return ops


def strict_faults_ops(seed: int, seconds: float) -> List[Tuple[str, SweepPoint]]:
    rounds = rounds_for(seconds)
    ops: List[Tuple[str, SweepPoint]] = []
    grid = [(net, gpus) for net in pop.NETS
            for gpus in ((1, 2, 4, 8) if net in ("lenet", "alexnet") else (1, 2, 4))]
    variants = [(b, c) for b in pop.BATCHES for c in pop.COMMS]
    for index, (net, gpus) in enumerate(grid):
        for batch, comm in _spread(variants, rounds, index):
            ops.append(pop.grid_point(net, batch, gpus, comm))
    for index, (net, gpus) in enumerate(pop.TUNER_STRATA):
        for alg, proto in _spread(list(pop.TUNER_KNOBS), 2 * rounds, 2 * index):
            ops.append(pop.tuner_point(net, gpus, alg, proto))
    for index, (net, comm, gpus) in enumerate(pop.FAULT_STRATA):
        for fault_seed in _spread(list(range(pop.FAULT_SEEDS)), 2 * rounds,
                                  index):
            ops.append(pop.fault_point(net, comm, gpus, fault_seed))
    for index, net in enumerate(pop.RAIL_NETS):
        for node, rail, scale in _spread(list(pop.RAIL_FAULTS), 2 * rounds,
                                         3 * index):
            ops.append(pop.rail_point(net, node, rail, scale))
    for batch in _spread(list(pop.BATCHES), rounds, 0):
        ops.append(pop.fastpath_point(batch))
    random.Random(f"strict-faults:{seed}").shuffle(ops)
    return ops


@dataclass(frozen=True)
class Request:
    """One service request: its points, labels and whether it degrades."""

    kind: str
    labels: Tuple[str, ...]
    points: Tuple[SweepPoint, ...]

    def message(self, client: str) -> Dict[str, Any]:
        msg: Dict[str, Any] = {
            "op": "sweep", "client": client,
            "points": [protocol.point_to_dict(p) for p in self.points],
        }
        if self.kind == "degrade":
            msg["budget"] = 0
        return msg


def service_plan(seed: int, seconds: float) -> Tuple[List[Request], List[Request]]:
    """Both clients' request lists.

    Reads draw 8 warm-set points.  A write carries 2 warm points and one
    fresh point of each of the 6 ``FRESH_BASES``, so every write costs
    the same; both clients walk the same fresh sequence, so every fresh
    point is asked for twice -- one simulates it, the other gets a dedup
    or disk hit.  A degrade request carries 6 warm points and 2 anchor
    cells with ``budget=0``, cycling through all 24 anchor cells.
    """
    rng = random.Random(f"service-replay:{seed}")
    blocks = SERVICE_BLOCKS_PER_ROUND * rounds_for(seconds)
    warm = [pop.warm_point(*w) for w in pop.WARM_SET]
    writes = blocks * SERVICE_BLOCK.count("write")
    if writes > len(pop.FRESH_DATASETS):
        raise ValueError("--seconds asks for more fresh points than "
                         "perfbench.population.FRESH_DATASETS holds")
    datasets = {base: rng.sample(pop.FRESH_DATASETS, writes)
                for base in pop.FRESH_BASES}
    fresh = [[pop.fresh_point(*base, datasets[base][n])
              for base in pop.FRESH_BASES] for n in range(writes)]
    anchors = list(pop.anchor_points())
    plans = []
    for client in range(2):
        crng = random.Random(f"service-replay:{seed}:client{client}")
        requests: List[Request] = []
        n_write = 0
        anchor_order: List[Tuple[str, SweepPoint]] = []
        for _ in range(blocks):
            kinds = list(SERVICE_BLOCK)
            crng.shuffle(kinds)
            for kind in kinds:
                chosen = crng.sample(warm, POINTS_PER_REQUEST)
                if kind == "write":
                    chosen[2:] = fresh[n_write]
                    n_write += 1
                elif kind == "degrade":
                    if len(anchor_order) < 2:
                        cycle = list(anchors)
                        crng.shuffle(cycle)
                        anchor_order.extend(cycle)
                    chosen[-2:] = anchor_order[:2]
                    del anchor_order[:2]
                crng.shuffle(chosen)
                requests.append(Request(
                    kind=kind,
                    labels=tuple(label for label, _ in chosen),
                    points=tuple(point for _, point in chosen),
                ))
        plans.append(requests)
    return plans[0], plans[1]


# ----------------------------------------------------------------------
# Accuracy against the paper and against simulation
# ----------------------------------------------------------------------
def _winner_pairs(values: Dict[str, float]) -> List[Tuple[str, str]]:
    """(p2p label, nccl label) anchor-cell pairs with both sides present."""
    pairs = []
    for label in sorted(values):
        if "/p2p/" in label:
            other = label.replace("/p2p/", "/nccl/")
            if other in values:
                pairs.append((label, other))
    return pairs


def analytic_accuracy(estimates: Dict[str, float],
                      simulated: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Median |error| of analytic vs simulated iteration time, and the
    share of P2P-vs-NCCL pairs where both pick the same winner."""
    errors = [abs(estimates[k] - simulated[k]) / simulated[k] for k in estimates]
    pairs = _winner_pairs(estimates)
    agree = sum(
        (estimates[p] < estimates[n]) == (simulated[p] < simulated[n])
        for p, n in pairs
    )
    return {
        "analytic_err_median": (statistics.median(errors), "ratio"),
        "analytic_winner_agree": (agree / len(pairs), "ratio"),
    }


def sim_error_median(runner: SweepRunner) -> float:
    """Median relative error against the paper's numeric anchors."""
    report = validate(runner, prewarm=False)
    errors = [abs(v.measured - v.anchor.expected) / abs(v.anchor.expected)
              for v in report.verdicts if v.anchor.expected is not None]
    assert len(errors) == sum(1 for a in PAPER_ANCHORS if a.expected is not None)
    return statistics.median(errors)


# ----------------------------------------------------------------------
# Sweep workloads (paper-cold, strict-faults)
# ----------------------------------------------------------------------
class SweepWorkload:
    """Points through one serial ``SweepRunner`` over an empty store."""

    setup_reps = 15

    def __init__(self, name: str, seed: int, seconds: float,
                 workdir: pathlib.Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.invariants = "strict" if name == "strict-faults" else "off"

    def setup(self, rep: int) -> Dict[str, Any]:
        """Fixtures (expected answers, the op sequence, an empty store) and
        one warm-up point on a throwaway runner, so lazy imports and
        first-use caches are paid here, not by the first timed op."""
        expected = load_expected()
        make = paper_cold_ops if self.name == "paper-cold" else strict_faults_ops
        ops = make(self.seed, self.seconds)
        SweepRunner(jobs=1, invariants=self.invariants).run(SweepSpec.explicit(
            "warm-up", [pop.grid_point(*WARM_UP_POINT)[1]]))
        root = self.workdir / f"store-{rep}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        runner = SweepRunner(jobs=1, invariants=self.invariants,
                             store=ResultStore(root))
        return {"expected": expected, "ops": ops, "runner": runner}

    def teardown(self, state: Dict[str, Any]) -> None:
        """Nothing to stop: the store is a directory the run removes."""

    def run(self, state: Dict[str, Any]) -> RunResult:
        runner: SweepRunner = state["runner"]
        expected = state["expected"]
        out = RunResult()
        results: Dict[str, Any] = {}
        clock = HostClock()
        try:
            for label, point in state["ops"]:
                # Start every op from an empty collector with everything
                # alive so far frozen, then collect inside the timed window:
                # each op pays for its own cyclic garbage, and neither for
                # what earlier ops (a seed-dependent order) left behind nor
                # for a walk over the whole heap.
                gc.collect()
                gc.freeze()
                t0 = time.perf_counter()
                outcome = runner.run(SweepSpec.explicit(
                    self.name, [point], oom_policy=OomPolicy.RECORD,
                    failure_policy=FailurePolicy.RECORD,
                )).outcomes[0]
                gc.collect()
                seconds = time.perf_counter() - t0
                out.raw_latencies.append(seconds)
                out.latencies.append(seconds * clock.scale())
                results[label] = outcome
        finally:
            gc.unfreeze()
        out.raw_wall = sum(out.raw_latencies)
        out.wall = sum(out.latencies)
        out.host_factors = clock.factors
        faulted = segments = 0
        for label, outcome in results.items():
            if not outcome.ok:
                out.failed += 1
                out.wrong.append(f"{label}: {outcome.failure or outcome.oom}")
                continue
            result = outcome.result
            if not same_answer(result.iteration_time, result.epoch_time,
                               expected[label]):
                out.failed += 1
                out.wrong.append(f"{label}: iteration {result.iteration_time!r}"
                                 f" epoch {result.epoch_time!r} != "
                                 f"{expected[label]!r}")
            summary = getattr(result, "faults", None)
            if summary is not None:
                faulted += 1
                segments += len(summary.segments)
        out.facts.update(faulted=faulted, segments=segments,
                         memo_hits=runner.stats.memory_hits,
                         lookups=runner.stats.total)
        anchors = dict(pop.anchor_points())
        # The accuracy figures need every anchor cell; a failed one is
        # already counted above.
        if self.name == "paper-cold" and all(results[k].ok for k in anchors):
            simulated = {k: results[k].result.iteration_time for k in anchors}
            estimates = {k: analytic.analytic_estimate(p)["iteration_time"]
                         for k, p in anchors.items()}
            out.accuracy["sim_err_median"] = (sim_error_median(runner), "ratio")
            out.accuracy.update(analytic_accuracy(estimates, simulated))
        return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class ServiceWorkload:
    """Two closed-loop clients against an in-process ``SweepService``."""

    name = "service-replay"
    setup_reps = 7
    #: Warm-set entries whose point file is deleted before the store is
    #: reopened, standing in for writes a crash cut off after the journal
    #: append: the reopen's journal replay restores them.
    lost_every = 3

    def __init__(self, seed: int, seconds: float,
                 workdir: pathlib.Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    async def setup(self, rep: int) -> Dict[str, Any]:
        """Warm a sharded store, lose some point files, reopen it (journal
        replay), start the service with its one worker, connect both
        clients."""
        expected = load_expected()
        plan = service_plan(self.seed, self.seconds)
        root = self.workdir / f"store-{rep}"
        shutil.rmtree(root, ignore_errors=True)
        store = ShardedResultStore(root)
        warm = [pop.warm_point(*w) for w in pop.WARM_SET]
        SweepRunner(store=store).run(
            SweepSpec.explicit("warm", [p for _, p in warm]))
        sim = SimulationConfig()
        for _, point in warm[::self.lost_every]:
            store.path_for(point_fingerprint(point, sim, CALIBRATION)).unlink()
        # Dropped without close(): the journal stays, as after a crash.
        del store
        reopened = ShardedResultStore(root)
        service = SweepService(ServiceConfig(jobs=1, cache_dir=None),
                               store=reopened)
        await service.start()
        # Fill the service's analytic-estimate cache for the anchor cells
        # the replay degrades, as a long-running service would have it.
        # Cleared first, so every set-up rep pays the same compile work.
        analytic._estimate.cache_clear()
        for _, point in pop.anchor_points():
            analytic.analytic_estimate(point)
        conns = [await asyncio.open_connection("127.0.0.1", service.port)
                 for _ in range(2)]
        for reader, writer in conns:
            writer.write(protocol.encode({"op": "ping"}))
            await writer.drain()
            if json.loads(await reader.readline()) != {"status": "ok",
                                                       "pong": True}:
                raise RuntimeError("service did not answer ping")
        return {"expected": expected, "plan": plan, "service": service,
                "conns": conns, "replayed": reopened.replayed}

    async def teardown(self, state: Dict[str, Any]) -> None:
        for _, writer in state["conns"]:
            writer.close()
            await writer.wait_closed()
        service: SweepService = state["service"]
        service.request_drain()
        # The service exposes no public wait for a requested drain.
        await service._stopped.wait()

    async def run(self, state: Dict[str, Any]) -> RunResult:
        expected = state["expected"]
        out = RunResult()
        degraded: Dict[str, float] = {}
        sourcing = {"executed": 0, "disk_hits": 0, "deduped": 0, "degraded": 0}

        # Both clients pause at a barrier every WINDOW_REQUESTS requests
        # while the host-speed probe runs with no request in flight; each
        # window's seconds are rescaled by the probes at its two edges.
        clock = HostClock(samples=3)
        barrier = asyncio.Barrier(2)
        windows = -(-max(map(len, state["plan"])) // WINDOW_REQUESTS)
        raw: List[List[float]] = [[] for _ in range(windows)]
        walls: List[float] = []
        window_start = [time.perf_counter()]

        async def client(index: int, requests: List[Request]) -> None:
            reader, writer = state["conns"][index]
            name = f"client{index}"
            for window in range(windows):
                for request in requests[window * WINDOW_REQUESTS:
                                        (window + 1) * WINDOW_REQUESTS]:
                    t0 = time.perf_counter()
                    writer.write(protocol.encode(request.message(name)))
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    raw[window].append(time.perf_counter() - t0)
                    problem = self._check(request, response, expected,
                                          degraded)
                    if problem is not None:
                        out.failed += 1
                        out.wrong.append(problem)
                    for key in sourcing:
                        sourcing[key] += response.get("sourcing", {}).get(key, 0)
                if await barrier.wait() == 0:
                    walls.append(time.perf_counter() - window_start[0])
                    clock.scale()
                    window_start[0] = time.perf_counter()
                await barrier.wait()

        gc.collect()
        await asyncio.gather(*(client(i, reqs)
                               for i, reqs in enumerate(state["plan"])))
        out.host_factors = clock.factors
        for window, factor in enumerate(clock.factors):
            out.raw_latencies += raw[window]
            out.latencies += [seconds * factor for seconds in raw[window]]
        out.raw_wall = sum(walls)
        out.wall = sum(w * f for w, f in zip(walls, clock.factors))
        points = sum(sourcing.values())
        out.facts.update(sourcing, points=points,
                         requests=len(out.latencies),
                         replayed=state["replayed"])
        if degraded:
            simulated = {k: expected[k][0] for k in degraded}
            out.accuracy.update(analytic_accuracy(degraded, simulated))
        return out

    @staticmethod
    def _check(request: Request, response: Dict[str, Any],
               expected: Dict[str, Tuple[float, float]],
               degraded: Dict[str, float]) -> Optional[str]:
        """Why the response is wrong, or ``None`` if it is right."""
        if response.get("status") != "ok":
            return f"{request.kind}: status {response.get('status')} " \
                   f"{response.get('reason', response.get('error', ''))}"
        results = response["results"]
        if len(results) != len(request.labels):
            return f"{request.kind}: {len(results)} results for " \
                   f"{len(request.labels)} points"
        for label, payload in zip(request.labels, results):
            truth = expected[label]
            if payload.get("degraded"):
                if payload["iteration_time"] > truth[0]:
                    return f"{label}: degraded answer above simulation"
                degraded[label] = payload["iteration_time"]
            elif payload.get("kind") != "training" or not same_answer(
                    payload["iteration_time"], payload["epoch_time"], truth):
                return f"{label}: {payload} != {truth!r}"
        return None
