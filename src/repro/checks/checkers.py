"""The shipped invariant checkers (25 of the 26 checkers, over 14 of the
15 checkpoints; the ``trainer.dag`` analytic-oracle checker lives in
:mod:`repro.checks.dag`).

Each checker guards one physically meaningful property of the simulation —
the quantities the paper's figures are built from.  The catalog, the
payload contract of every checkpoint, and instructions for adding a new
checker live in docs/INVARIANTS.md.

Checkpoints and the checkers attached to them (here):

====================  ====================================================
checkpoint            checkers
====================  ====================================================
``sim.event``         temporal.event-monotone
``fabric.dma``        capacity.link-bandwidth, temporal.link-serialization
``fabric.totals``     capacity.link-busy, conservation.link-accounting
``comm.ring``         structural.ring-permutation, structural.ring-links
``comm.tree``         structural.tree-spanning
``comm.p2p.plan``     structural.reduce-coverage
``comm.collective``   conservation.collective-wire,
                      capacity.collective-bandwidth
``comm.hierarchical`` conservation.hierarchical-wire,
                      capacity.hierarchical-floor,
                      temporal.hierarchical-agreement,
                      conservation.rail-rebalance,
                      capacity.degraded-rail-floor
``trainer.fastpath``  temporal.fallback-agreement
``trainer.periodic``  temporal.periodic
``trainer.stages``    temporal.spans-nested, temporal.iterations-monotone,
                      temporal.step-accounting, capacity.gpu-busy
``trainer.traffic``   conservation.gradient-traffic
``trainer.epoch``     conservation.epoch-accounting
``trainer.memory``    capacity.memory-budget
====================  ====================================================

All tolerances are relative ``1e-9`` with a tiny absolute floor — loose
enough for float accumulation over thousands of events, tight enough that
any real modeling regression (a 2x bandwidth bug, a lost chunk) fires.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.checks.registry import invariant

#: Relative tolerance for floating-point comparisons.
REL_TOL = 1e-9
#: Absolute tolerance floor (guards comparisons around zero).
ABS_TOL = 1e-12

Payload = Mapping[str, Any]


def _lt(a: float, b: float) -> bool:
    """True when ``a`` is less than ``b`` beyond float tolerance.

    ``a >= b`` answers ``False`` at once: the tolerance is never negative
    and rounding is monotone, so the full test could not pass either (a
    NaN fails both comparisons and takes the full test).
    """
    if a >= b:
        return False
    return a < b - (REL_TOL * max(abs(a), abs(b)) + ABS_TOL)


def _ne(a: float, b: float) -> bool:
    """True when ``a`` differs from ``b`` beyond float tolerance."""
    return _lt(a, b) or _lt(b, a)


# ----------------------------------------------------------------------
# sim.event — fired by the Environment's event loop for an event popped below
# the clock; the loop counts every event that passes in bulk
# ----------------------------------------------------------------------
@invariant("sim.event", name="event-monotone", category="temporal",
           description="sim-event timestamps never run backwards")
def check_event_monotone(p: Payload):
    """The popped event's timestamp must not precede the engine clock."""
    if _lt(p["when"], p["now"]):
        return (f"event scheduled at t={p['when']!r} while the clock "
                f"already reached t={p['now']!r}")


# ----------------------------------------------------------------------
# fabric.dma — fired by Fabric.dma() as each DMA releases its links
# ----------------------------------------------------------------------
@invariant("fabric.dma", name="link-bandwidth", category="capacity",
           description="achieved DMA bandwidth never exceeds link capacity")
def check_link_bandwidth(p: Payload):
    """``wire_time`` must cover latency plus ``nbytes`` at rated bandwidth."""
    minimum = p["latency"] + p["nbytes"] / p["bandwidth"]
    if _lt(p["wire_time"], minimum):
        achieved = p["nbytes"] / max(p["wire_time"] - p["latency"], ABS_TOL)
        return (f"{p['nbytes']} bytes crossed in {p['wire_time']:.3e}s "
                f"(>= {minimum:.3e}s required): achieved {achieved:.3e} B/s "
                f"exceeds link capacity {p['bandwidth']:.3e} B/s")


@invariant("fabric.dma", name="link-serialization", category="temporal",
           description="DMAs on one directed link are granted FIFO, never overlapping")
def check_link_serialization(p: Payload):
    """Each link grant must start at or after the previous DMA's release."""
    for key, prev_end in p["windows"]:
        if _lt(p["granted"], prev_end):
            yield (f"link {key}: DMA granted at t={p['granted']!r} overlaps "
                   f"the previous DMA still busy until t={prev_end!r}")


# ----------------------------------------------------------------------
# fabric.totals — fired by the trainer after each measured segment
# ----------------------------------------------------------------------
@invariant("fabric.totals", name="link-busy", category="capacity",
           description="per-link busy time never exceeds wall time (duplex)")
def check_link_busy(p: Payload):
    """Accumulated busy time per link name (two directions share one
    accumulator) is bounded by twice the elapsed simulated time."""
    ceiling = 2.0 * p["elapsed"]
    for link, busy in p["busy_time"].items():
        if _lt(ceiling, busy):
            yield (f"link {link}: busy {busy:.6e}s exceeds 2 x elapsed "
                   f"{p['elapsed']:.6e}s (duplex wall-time ceiling)")


@invariant("fabric.totals", name="link-accounting", category="conservation",
           description="link byte/busy/wait accumulators are consistent")
def check_link_accounting(p: Payload):
    """Bytes are non-negative integers; moved bytes imply busy time; wait
    and busy times are non-negative."""
    for link, nbytes in p["bytes_moved"].items():
        if not isinstance(nbytes, int) or nbytes < 0:
            yield f"link {link}: bytes_moved {nbytes!r} is not a non-negative int"
        elif nbytes > 0 and p["busy_time"].get(link, 0.0) <= 0.0:
            yield (f"link {link}: moved {nbytes} bytes but accumulated "
                   "zero busy time")
    for link, wait in p["wait_time"].items():
        if wait < -ABS_TOL:
            yield f"link {link}: negative wait time {wait!r}"
    for link, busy in p["busy_time"].items():
        if busy < -ABS_TOL:
            yield f"link {link}: negative busy time {busy!r}"


# ----------------------------------------------------------------------
# comm.ring — fired at NCCL communicator construction (and re-ring)
# ----------------------------------------------------------------------
@invariant("comm.ring", name="ring-permutation", category="structural",
           description="the NCCL ring order is a permutation of the participants")
def check_ring_permutation(p: Payload):
    """Every participant appears exactly once in the ring order."""
    order, participants = list(p["order"]), list(p["participants"])
    if len(set(order)) != len(order):
        return f"ring order {order} repeats a GPU"
    if sorted(order) != sorted(participants):
        return (f"ring order {sorted(order)} is not a permutation of "
                f"participants {sorted(participants)}")


@invariant("comm.ring", name="ring-links", category="structural",
           description="ring hops follow the ring order and match the PCIe-fallback flag")
def check_ring_links(p: Payload):
    """Hop ``i`` must connect ``order[i] -> order[i+1 mod n]``, and any hop
    over PCIe must be reflected in the plan's ``uses_pcie`` flag."""
    order = list(p["order"])
    hops = list(p["hops"])
    n = len(order)
    if n >= 2 and len(hops) != n:
        yield f"ring of {n} GPUs has {len(hops)} hops (expected {n})"
        return
    for i, (src, dst, _link, link_type) in enumerate(hops):
        if src != order[i] or dst != order[(i + 1) % n]:
            yield (f"hop {i} connects gpu{src}->gpu{dst} but the ring order "
                   f"requires gpu{order[i]}->gpu{order[(i + 1) % n]}")
        if link_type == "pcie" and not p["uses_pcie"]:
            yield (f"hop gpu{src}->gpu{dst} crosses PCIe but the plan claims "
                   "uses_pcie=False")


# ----------------------------------------------------------------------
# comm.tree — fired when a (non-compat) NCCL tree plan is built
# ----------------------------------------------------------------------
@invariant("comm.tree", name="tree-spanning", category="structural",
           description="the NCCL tree is a spanning tree rooted at the root")
def check_tree_spanning(p: Payload):
    """The parent map must span every participant exactly once, be acyclic,
    drain to the declared root, and agree with the declared depth."""
    root = p["root"]
    parent = dict()
    participants = set(p["participants"])
    for child, par in p["parent"]:
        if child in parent:
            yield f"gpu{child} has two parents (gpu{parent[child]}, gpu{par})"
        parent[child] = par
    if root in parent:
        yield f"root gpu{root} has a parent (gpu{parent[root]})"
    covered = set(parent) | {root}
    if covered != participants:
        missing = sorted(participants - covered)
        extra = sorted(covered - participants)
        yield (f"tree covers {sorted(covered)} but participants are "
               f"{sorted(participants)} (missing {missing}, extra {extra})")
        return
    max_depth = 0
    for node in participants:
        steps, cur = 0, node
        while cur != root:
            if cur not in parent or steps > len(participants):
                yield f"gpu{node} does not drain to root gpu{root} (cycle or gap)"
                return
            cur = parent[cur]
            steps += 1
        max_depth = max(max_depth, steps)
    if max_depth != p["depth"]:
        yield f"tree depth is {max_depth} but the plan declares {p['depth']}"


# ----------------------------------------------------------------------
# comm.p2p.plan — fired at P2P communicator construction
# ----------------------------------------------------------------------
@invariant("comm.p2p.plan", name="reduce-coverage", category="structural",
           description="the P2P reduction tree drains every GPU into the root exactly once")
def check_reduce_coverage(p: Payload):
    """Positions ``1..N-1`` each send exactly once, the root never sends,
    and every sender's payload reaches position 0."""
    n = p["num_gpus"]
    stages = list(p["stages"])
    sources = [src for stage in stages for src, _ in stage]
    if sorted(sources) != list(range(1, n)):
        yield (f"reduction sources {sorted(sources)} != positions "
               f"{list(range(1, n))}: some GPU never contributes (or "
               "contributes twice)")
        return
    if 0 in sources:
        yield "the root position 0 appears as a reduction source"
    # After all stages, every position must have merged (transitively) into 0.
    merged_into = {i: i for i in range(n)}
    for stage in stages:
        for src, dst in stage:
            if not (0 <= dst < n):
                yield f"reduction edge ({src}->{dst}) targets an invalid position"
                return
            merged_into[src] = dst
    for pos in range(1, n):
        cur, steps = pos, 0
        while cur != 0:
            nxt = merged_into[cur]
            if nxt == cur or steps > n:
                yield f"position {pos} never drains to the root (stuck at {cur})"
                return
            cur, steps = nxt, steps + 1


# ----------------------------------------------------------------------
# comm.collective — fired per NCCL collective after its cost is computed
# ----------------------------------------------------------------------
@invariant("comm.collective", name="collective-wire", category="conservation",
           description="the hop schedule moves exactly the closed-form wire total")
def check_collective_wire(p: Payload):
    """The integer hop-by-hop schedule must sum to the closed form:
    ``2(N-1) x S`` for AllReduce (segments conserve bytes exactly even for
    uneven integer splits), ``(N-1) x S`` for rooted reduce/broadcast."""
    size, nbytes = p["size"], p["nbytes"]
    if size < 2 or nbytes <= 0:
        expected = 0
    elif p["kind"] == "allreduce":
        expected = 2 * (size - 1) * nbytes
    else:
        expected = (size - 1) * nbytes
    if p["schedule_total"] != expected:
        return (f"{p['kind']} of {nbytes} bytes over {size} GPUs schedules "
                f"{p['schedule_total']} wire bytes, expected exactly {expected}")


@invariant("comm.collective", name="collective-bandwidth", category="capacity",
           description="collective duration covers its wire bytes at aggregate bandwidth")
def check_collective_bandwidth(p: Payload):
    """The modeled duration can never beat the serial-wire lower bound.

    The bound is algorithm-independent so every cost model (compat pinned
    ring, tuner ring/tree under any protocol) must respect it: at least
    one full payload (one ring segment, ``floor(S/N)``, for the
    reduce-scatter/all-gather AllReduce) has to cross a link at the best
    available aggregate bandwidth.  Pipelining can hide fill/drain and
    parallelize segments, but no schedule ships the collective faster
    than its largest mandatory serial transfer."""
    size, nbytes = p["size"], p["nbytes"]
    if size < 2 or nbytes <= 0:
        return None
    if p["kind"] == "allreduce":
        wire_floor = max(1, nbytes // size)
    else:
        wire_floor = nbytes
    lower = wire_floor / p["bound_bandwidth"]
    if _lt(p["duration"], lower):
        return (f"{p['kind']} of {nbytes} bytes over {size} GPUs took "
                f"{p['duration']:.3e}s < wire lower bound {lower:.3e}s at "
                f"aggregate bandwidth {p['bound_bandwidth']:.3e} B/s")


# ----------------------------------------------------------------------
# comm.hierarchical — fired per hierarchical cluster collective
# ----------------------------------------------------------------------
@invariant("comm.hierarchical", name="hierarchical-wire",
           category="conservation",
           description="the hierarchical phase schedule moves exactly the closed-form wire total")
def check_hierarchical_wire(p: Payload):
    """The enumerated per-phase schedule must sum to the closed form:
    ``M(g-1)S`` for each intra-node phase plus ``2(M-1)S`` for the
    inter-node exchange (identical for the ring and tree schedules), and
    the communicator's own ``wire_total`` must agree."""
    nodes, g, nbytes = p["nodes"], p["gpus_per_node"], p["nbytes"]
    if nbytes <= 0 or nodes * g < 2:
        expected = 0
    else:
        intra = nodes * (g - 1) * nbytes if g > 1 else 0
        inter = 2 * (nodes - 1) * nbytes if nodes > 1 else 0
        expected = 2 * intra + inter
    if p["schedule_total"] != expected:
        return (f"hierarchical {p['kind']} of {nbytes} bytes over {nodes} "
                f"node(s) x {g} GPUs schedules {p['schedule_total']} wire "
                f"bytes, expected exactly {expected}")
    if p["wire_total"] != expected:
        return (f"hierarchical {p['kind']}: closed-form wire_total "
                f"{p['wire_total']} disagrees with the expected {expected}")


@invariant("comm.hierarchical", name="hierarchical-floor",
           category="capacity",
           description="hierarchical collective duration covers its serial phase floors")
def check_hierarchical_floor(p: Payload):
    """The modeled duration can never beat the sum of the phases' serial
    wire floors: the phases are strictly ordered, each intra phase must
    move at least one ``S/g`` segment across the NVLink ring, and the
    inter phase at least one ``B_max/M`` segment over the fullest rail
    (sound for both the ring and tree exchanges)."""
    nodes, g, nbytes = p["nodes"], p["gpus_per_node"], p["nbytes"]
    if nbytes <= 0 or nodes * g < 2:
        return None
    floor = 0.0
    if g > 1:
        floor += 2.0 * max(1, nbytes // g) / p["intra_bound_bandwidth"]
    if nodes > 1:
        floor += (max(1, p["max_rail_bytes"] // nodes)
                  / p["rail_bound_bandwidth"])
    if _lt(p["duration"], floor):
        return (f"hierarchical {p['kind']} of {nbytes} bytes over {nodes} "
                f"node(s) took {p['duration']:.3e}s < serial phase floor "
                f"{floor:.3e}s")


@invariant("comm.hierarchical", name="hierarchical-agreement",
           category="temporal",
           description="the charged collective duration matches the analytic closed form")
def check_hierarchical_agreement(p: Payload):
    """Event mode charges one window per phase and analytic mode a single
    closed-form window; both must evaluate the same algebra, so the
    charged duration agrees with the analytic total within float
    tolerance on every topology -- the fast path's cross-validation."""
    if _ne(p["duration"], p["analytic"]):
        return (f"{p['mode']}-mode hierarchical {p['kind']} charges "
                f"{p['duration']!r}s but the analytic closed form gives "
                f"{p['analytic']!r}s")


@invariant("comm.hierarchical", name="rail-rebalance",
           category="conservation",
           description="re-railing conserves inter-node bytes and keeps failed rails empty")
def check_rail_rebalance(p: Payload):
    """A failed rail's traffic must re-rail *exactly*: the post-rebalance
    assignment sums to the payload (no bytes lost or invented), rails
    with scale 0 carry nothing, and a fully healthy rail set keeps the
    canonical :func:`~repro.comm.nccl.hierarchical.rail_bytes` split."""
    nodes, nbytes = p["nodes"], p["nbytes"]
    if nodes < 2 or nbytes <= 0:
        return None
    assignment = list(p["rail_assignment"])
    scales = list(p["rail_scales"])
    if sum(assignment) != nbytes:
        return (f"rail assignment {assignment} sums to {sum(assignment)} "
                f"bytes, expected exactly the {nbytes}-byte payload")
    for r, (b, s) in enumerate(zip(assignment, scales)):
        if s == 0.0 and b != 0:
            return (f"rail {r} is down (scale 0) but still carries "
                    f"{b} bytes instead of re-railing them")
    if all(s == 1.0 for s in scales):
        healthy = list(p["healthy_rail_bytes"])
        if assignment != healthy:
            return (f"healthy rails must keep the canonical split "
                    f"{healthy}, got {assignment}")


@invariant("comm.hierarchical", name="degraded-rail-floor",
           category="capacity",
           description="collective duration covers the slowest surviving rail's degraded floor")
def check_degraded_rail_floor(p: Payload):
    """The inter phase paces at its slowest loaded rail, so the charged
    duration can never beat any surviving rail's serial floor: one
    ``B_r/M`` segment of its assigned bytes at its *degraded* bandwidth
    (sound for ring and tree -- both move at least that much serially)."""
    nodes, nbytes = p["nodes"], p["nbytes"]
    if nodes < 2 or nbytes <= 0:
        return None
    floor = 0.0
    for b, s in zip(p["rail_assignment"], p["rail_scales"]):
        if b <= 0 or s <= 0.0:
            continue
        floor = max(floor,
                    max(1, b // nodes) / (p["rail_bound_bandwidth"] * s))
    if _lt(p["duration"], floor):
        return (f"hierarchical {p['kind']} of {nbytes} bytes took "
                f"{p['duration']:.3e}s < the slowest surviving rail's "
                f"degraded serial floor {floor:.3e}s")


# ----------------------------------------------------------------------
# trainer.fastpath — fired once per measured hierarchical segment
# ----------------------------------------------------------------------
@invariant("trainer.fastpath", name="fallback-agreement",
           category="temporal",
           description="the fast path never silently ignores faults and dominates the shared collective floor")
def check_fallback_agreement(p: Payload):
    """The fault-aware fast-path contract, observed from the trainer: a
    plan the analytic path cannot represent must have resolved to the
    event path (never silently simulating a healthy cluster), and the
    measured mean iteration must dominate the fault-aware closed-form
    collective time both paths share (the iteration serializes its
    collectives on one stream, so their algebraic sum is a floor --
    event-vs-fallback temporal agreement)."""
    if p["faulted"] and not p["analytic_ok"] and p["resolved"] != "event":
        return (f"fault plan unrepresentable on the analytic path "
                f"resolved to {p['resolved']!r} (requested "
                f"{p['requested']!r}) instead of falling back to the "
                f"event path")
    if p["iterations"] and _lt(p["mean_iteration"], p["analytic_wu"]):
        return (f"mean iteration {p['mean_iteration']:.3e}s beats the "
                f"closed-form collective floor {p['analytic_wu']:.3e}s "
                f"shared by the event and analytic paths")


# ----------------------------------------------------------------------
# trainer.periodic — fired after each measured segment, over its window
# ----------------------------------------------------------------------
@invariant("trainer.periodic", name="periodic", category="temporal",
           description="a window predicted periodic repeats iteration 0 bit for bit")
def check_periodic(p: Payload):
    """When boundaries 0 and 1 were both steady, every simulated
    iteration -- the warm-up included -- must equal iteration 0 exactly:
    the guarantee that lets an unchecked run stop after iteration 0."""
    if not p["periodic"]:
        return None
    times = p["times"]
    for index, t in enumerate(times[1:], start=1):
        if t != times[0]:
            return (f"iteration {index} took {t!r} s but iteration 0 took "
                    f"{times[0]!r} s, although both boundaries around "
                    "iteration 0 were steady")


# ----------------------------------------------------------------------
# trainer.stages — fired after each measured segment, over profiler spans
# ----------------------------------------------------------------------
def _spans_by(spans, name: str):
    """Iterate spans with the given stage name."""
    return (s for s in spans if s.name == name)


@invariant("trainer.stages", name="spans-nested", category="temporal",
           description="FP/BP/WU spans nest inside their iteration window in stage order")
def check_spans_nested(p: Payload) -> Iterator[str]:
    """Every stage span lies inside its iteration window; per GPU the FP
    span ends before the BP span starts, and WU starts after every BP."""
    spans = p["spans"]
    windows = {s.iteration: s for s in _spans_by(spans, "iteration")}
    bp_end = {}
    for s in spans:
        if s.name not in ("fp", "bp", "wu"):
            continue
        w = windows.get(s.iteration)
        if w is None:
            yield f"{s.name} span of iteration {s.iteration} has no iteration window"
            continue
        if _lt(s.start, w.start) or _lt(w.end, s.end):
            yield (f"{s.name} span [{s.start!r}, {s.end!r}] of iteration "
                   f"{s.iteration} escapes its window [{w.start!r}, {w.end!r}]")
        if s.name == "bp":
            bp_end[(s.gpu, s.iteration)] = s.end
    for s in _spans_by(spans, "fp"):
        end = bp_end.get((s.gpu, s.iteration))
        if end is not None and _lt(end, s.end):
            yield (f"gpu{s.gpu} iteration {s.iteration}: FP ends at {s.end!r} "
                   f"after BP already ended at {end!r}")
    for s in _spans_by(spans, "wu"):
        for (gpu, iteration), end in bp_end.items():
            if iteration == s.iteration and _lt(s.start, end):
                yield (f"iteration {s.iteration}: WU starts at {s.start!r} "
                       f"before gpu{gpu} finished BP at {end!r}")


@invariant("trainer.stages", name="iterations-monotone", category="temporal",
           description="iteration windows are ordered and non-overlapping")
def check_iterations_monotone(p: Payload) -> Iterator[str]:
    """Iteration windows must be well-formed and strictly sequential."""
    windows = sorted(_spans_by(p["spans"], "iteration"), key=lambda s: s.iteration)
    for s in windows:
        if _lt(s.end, s.start):
            yield f"iteration {s.iteration} window ends before it starts"
    for prev, cur in zip(windows, windows[1:]):
        if _lt(cur.start, prev.end):
            yield (f"iteration {cur.iteration} starts at {cur.start!r} before "
                   f"iteration {prev.iteration} ended at {prev.end!r}")


@invariant("trainer.stages", name="step-accounting", category="temporal",
           description="WU end plus the host barrier reconstructs iteration end")
def check_step_accounting(p: Payload) -> Iterator[str]:
    """``iteration.end == wu.end + host_overhead`` within tolerance — the
    FP+BP / WU / host-overhead decomposition must reconstruct step time."""
    spans = p["spans"]
    windows = {s.iteration: s for s in _spans_by(spans, "iteration")}
    for s in _spans_by(spans, "wu"):
        w = windows.get(s.iteration)
        if w is None:
            continue
        reconstructed = s.end + p["host_overhead"]
        if _ne(w.end, reconstructed):
            yield (f"iteration {s.iteration}: window ends at {w.end!r} but "
                   f"wu.end + host overhead reconstructs {reconstructed!r}")


@invariant("trainer.stages", name="gpu-busy", category="capacity",
           description="per-GPU kernel busy time never exceeds the measured window")
def check_gpu_busy(p: Payload) -> Iterator[str]:
    """Kernels on one GPU serialize, so their summed duration is bounded by
    the measured wall window."""
    for gpu, busy in p["busy"].items():
        if busy < -ABS_TOL:
            yield f"gpu{gpu}: negative kernel busy time {busy!r}"
        elif _lt(p["elapsed"], busy):
            yield (f"gpu{gpu}: kernels busy {busy:.6e}s exceed the measured "
                   f"window of {p['elapsed']:.6e}s")


# ----------------------------------------------------------------------
# trainer.traffic — fired after each measured segment, over transfers
# ----------------------------------------------------------------------
@invariant("trainer.traffic", name="gradient-traffic", category="conservation",
           description="measured gradient traffic equals the analytic per-iteration total")
def check_gradient_traffic(p: Payload):
    """Recorded p2p/nccl bytes must equal iterations x the exact analytic
    per-iteration wire total (gradient bytes == parameter bytes per GPU,
    scaled by the configured gradient compression)."""
    expected = p["expected"]
    if expected is None:
        return None
    measured = sum(p["measured"].values())
    want = expected * p["iterations"]
    if measured != want:
        return (f"{p['comm']} sync recorded {measured} bytes over "
                f"{p['iterations']} iteration(s), expected exactly {want} "
                f"({expected}/iteration)")


# ----------------------------------------------------------------------
# trainer.epoch — fired once per (healthy or faulted) run
# ----------------------------------------------------------------------
@invariant("trainer.epoch", name="epoch-accounting", category="conservation",
           description="epoch time equals iterations x mean step plus fixed overheads")
def check_epoch_accounting(p: Payload):
    """The reported epoch time must decompose exactly into the measured
    mean iteration times the iteration count plus fixed overheads."""
    reconstructed = p["iterations"] * p["mean_iteration"] + p["fixed"]
    if _ne(p["epoch_time"], reconstructed):
        return (f"epoch time {p['epoch_time']!r} != {p['iterations']} x "
                f"{p['mean_iteration']!r} + fixed {p['fixed']!r} "
                f"(= {reconstructed!r})")


# ----------------------------------------------------------------------
# trainer.memory — fired once per run, over sampled memory readings
# ----------------------------------------------------------------------
@invariant("trainer.memory", name="memory-budget", category="capacity",
           description="sampled per-GPU memory stays within HBM2 capacity when enforced")
def check_memory_budget(p: Payload) -> Iterator[str]:
    """With memory checking enabled the run must never have sampled a
    footprint above device capacity (16 GB HBM2 on the V100) — exceeding
    it should have raised OutOfMemoryError instead."""
    if not p["check_memory"]:
        return
    for gpu, total in p["totals"]:
        if total > p["capacity"]:
            yield (f"gpu{gpu}: sampled footprint {total} bytes exceeds "
                   f"device capacity {p['capacity']} bytes despite memory "
                   "checking being enabled")
