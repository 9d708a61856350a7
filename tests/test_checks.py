"""repro.checks: registry, engine modes, and every shipped checker.

Each checker gets a clean payload (no violation) and at least one
corrupted payload (fires); a completeness test asserts that *every*
registered checker is covered by a corrupted-payload case, so adding a
checker without proving it can fire fails the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.checks import (
    CheckEngine,
    CheckMode,
    all_checkers,
    checkers_at,
    get_checker,
    invariant,
    merge_stats,
)
from repro.core.errors import ConfigurationError, InvariantViolationError
from repro.obs.bus import EventBus
from repro.obs.events import InvariantViolationEvent


@dataclass(frozen=True)
class Span:
    """Minimal stand-in for a profiler stage span."""

    name: str
    iteration: int
    start: float
    end: float
    gpu: int = 0


def fire(invariant_name: str, payload: dict) -> list:
    """Run one checker directly; normalized list of violation messages."""
    checker = get_checker(invariant_name)
    assert checker is not None, f"unknown checker {invariant_name}"
    out = checker.fn(payload)
    if out is None:
        return []
    return [out] if isinstance(out, str) else list(out)


def _stage_spans(wu_end: float = 1.8, window_end: float = 2.0,
                 fp_end: float = 1.2, wu_start: float = 1.5):
    return [
        Span("iteration", 0, 1.0, window_end),
        Span("fp", 0, 1.0, fp_end),
        Span("bp", 0, fp_end, 1.5),
        Span("wu", 0, wu_start, wu_end),
    ]


#: (clean payload, corrupted payload) per invariant.  The corrupted
#: payload must make exactly that checker fire.
CASES = {
    "temporal.event-monotone": (
        {"when": 1.0, "now": 0.5},
        {"when": 0.4, "now": 0.5},
    ),
    "capacity.link-bandwidth": (
        {"nbytes": 10**6, "wire_time": 2e-3, "latency": 1e-6,
         "bandwidth": 1e9, "granted": 0.0, "windows": []},
        {"nbytes": 10**6, "wire_time": 5e-4, "latency": 1e-6,
         "bandwidth": 1e9, "granted": 0.0, "windows": []},
    ),
    "temporal.link-serialization": (
        {"granted": 2.0, "windows": [("nvlink:gpu0->", 2.0)]},
        {"granted": 1.0, "windows": [("nvlink:gpu0->", 2.0)]},
    ),
    "capacity.link-busy": (
        {"busy_time": {"l": 1.5}, "bytes_moved": {}, "wait_time": {},
         "elapsed": 1.0},
        {"busy_time": {"l": 2.5}, "bytes_moved": {}, "wait_time": {},
         "elapsed": 1.0},
    ),
    "conservation.link-accounting": (
        {"busy_time": {"l": 0.1}, "bytes_moved": {"l": 10},
         "wait_time": {"l": 0.0}, "elapsed": 1.0},
        {"busy_time": {}, "bytes_moved": {"l": 10}, "wait_time": {},
         "elapsed": 1.0},
    ),
    "structural.ring-permutation": (
        {"order": [0, 2, 1], "participants": [0, 1, 2], "hops": [],
         "uses_pcie": False},
        {"order": [0, 1, 1], "participants": [0, 1, 2], "hops": [],
         "uses_pcie": False},
    ),
    "structural.ring-links": (
        {"order": [0, 1, 2], "participants": [0, 1, 2], "uses_pcie": False,
         "hops": [(0, 1, "a", "nvlink"), (1, 2, "b", "nvlink"),
                  (2, 0, "c", "nvlink")]},
        {"order": [0, 1, 2], "participants": [0, 1, 2], "uses_pcie": False,
         "hops": [(0, 2, "a", "nvlink"), (1, 2, "b", "nvlink"),
                  (2, 0, "c", "pcie")]},
    ),
    "structural.tree-spanning": (
        {"root": 0, "parent": ((1, 0), (2, 0), (3, 1)),
         "participants": [0, 1, 2, 3], "depth": 2},
        {"root": 0, "parent": ((1, 0), (2, 0), (3, 1)),
         "participants": [0, 1, 2, 3], "depth": 3},
    ),
    "structural.reduce-coverage": (
        {"num_gpus": 4, "stages": [[(1, 0), (3, 2)], [(2, 0)]]},
        {"num_gpus": 4, "stages": [[(1, 0)]]},
    ),
    "conservation.collective-wire": (
        {"kind": "allreduce", "nbytes": 100, "size": 4,
         "schedule_total": 600, "duration": 1.0, "bound_bandwidth": 1e9},
        {"kind": "allreduce", "nbytes": 100, "size": 4,
         "schedule_total": 599, "duration": 1.0, "bound_bandwidth": 1e9},
    ),
    "capacity.collective-bandwidth": (
        {"kind": "allreduce", "nbytes": 4000, "size": 4,
         "schedule_total": 24000, "duration": 2e-6, "bound_bandwidth": 1e9},
        {"kind": "allreduce", "nbytes": 4000, "size": 4,
         "schedule_total": 24000, "duration": 5e-7, "bound_bandwidth": 1e9},
    ),
    "conservation.hierarchical-wire": (
        # 800 B over 2 nodes x 8 GPUs: intra 2*7*800 = 11200 per phase,
        # inter 2*1*800 = 1600 -> 2*11200 + 1600 = 24000.
        {"kind": "allreduce", "nodes": 2, "gpus_per_node": 8, "nbytes": 800,
         "schedule_total": 24000, "wire_total": 24000},
        {"kind": "allreduce", "nodes": 2, "gpus_per_node": 8, "nbytes": 800,
         "schedule_total": 23999, "wire_total": 24000},
    ),
    "capacity.hierarchical-floor": (
        # floor = 2*(800//8)/1e9 + (200//2)/1e10 = 2.1e-7 s.
        {"kind": "allreduce", "nodes": 2, "gpus_per_node": 8, "nbytes": 800,
         "duration": 1e-6, "max_rail_bytes": 200,
         "intra_bound_bandwidth": 1e9, "rail_bound_bandwidth": 1e10},
        {"kind": "allreduce", "nodes": 2, "gpus_per_node": 8, "nbytes": 800,
         "duration": 1e-8, "max_rail_bytes": 200,
         "intra_bound_bandwidth": 1e9, "rail_bound_bandwidth": 1e10},
    ),
    "temporal.hierarchical-agreement": (
        {"kind": "allreduce", "mode": "event",
         "duration": 1.25e-6, "analytic": 1.25e-6},
        {"kind": "allreduce", "mode": "analytic",
         "duration": 1.35e-6, "analytic": 1.25e-6},
    ),
    "conservation.rail-rebalance": (
        # Rail 1 down: its 26 bytes re-rail as 9/9/8 onto rails 0/2/3.
        {"kind": "allreduce", "nodes": 2, "nbytes": 100,
         "rail_scales": (1.0, 0.0, 1.0, 1.0),
         "healthy_rail_bytes": (26, 26, 24, 24),
         "rail_assignment": (35, 0, 33, 32)},
        {"kind": "allreduce", "nodes": 2, "nbytes": 100,
         "rail_scales": (1.0, 0.0, 1.0, 1.0),
         "healthy_rail_bytes": (26, 26, 24, 24),
         "rail_assignment": (35, 26, 33, 32)},  # down rail still loaded
    ),
    "capacity.degraded-rail-floor": (
        # Slowest surviving rail: 4000 B at 0.25 x 1e10 -> (4000//2)/2.5e9
        # = 8e-7 s.
        {"kind": "allreduce", "nodes": 2, "nbytes": 10000,
         "rail_assignment": (4000, 0, 3000, 3000),
         "rail_scales": (0.25, 0.0, 1.0, 1.0),
         "rail_bound_bandwidth": 1e10, "duration": 1e-6},
        {"kind": "allreduce", "nodes": 2, "nbytes": 10000,
         "rail_assignment": (4000, 0, 3000, 3000),
         "rail_scales": (0.25, 0.0, 1.0, 1.0),
         "rail_bound_bandwidth": 1e10, "duration": 1e-7},
    ),
    "temporal.fallback-agreement": (
        {"requested": "auto", "resolved": "event", "analytic_ok": False,
         "faulted": True, "mean_iteration": 2e-3, "analytic_wu": 1e-3,
         "iterations": 4},
        {"requested": "auto", "resolved": "analytic", "analytic_ok": False,
         "faulted": True, "mean_iteration": 2e-3, "analytic_wu": 1e-3,
         "iterations": 4},
    ),
    "temporal.periodic": (
        {"periodic": True, "times": (0.25, 0.25, 0.25)},
        {"periodic": True, "times": (0.25, 0.25, 0.25000000000000006)},
    ),
    "temporal.spans-nested": (
        {"spans": _stage_spans(), "host_overhead": 0.2, "busy": {},
         "elapsed": 1.0},
        {"spans": _stage_spans(fp_end=2.5), "host_overhead": 0.2,
         "busy": {}, "elapsed": 1.0},
    ),
    "temporal.iterations-monotone": (
        {"spans": [Span("iteration", 0, 0.0, 1.0),
                   Span("iteration", 1, 1.0, 2.0)],
         "host_overhead": 0.0, "busy": {}, "elapsed": 2.0},
        {"spans": [Span("iteration", 0, 0.0, 1.0),
                   Span("iteration", 1, 0.9, 2.0)],
         "host_overhead": 0.0, "busy": {}, "elapsed": 2.0},
    ),
    "temporal.step-accounting": (
        {"spans": _stage_spans(), "host_overhead": 0.2, "busy": {},
         "elapsed": 1.0},
        {"spans": _stage_spans(), "host_overhead": 0.1, "busy": {},
         "elapsed": 1.0},
    ),
    "capacity.gpu-busy": (
        {"spans": [], "host_overhead": 0.0, "busy": {0: 0.5}, "elapsed": 1.0},
        {"spans": [], "host_overhead": 0.0, "busy": {0: 2.0}, "elapsed": 1.0},
    ),
    "conservation.gradient-traffic": (
        {"comm": "nccl", "measured": {"nccl": 300}, "expected": 100,
         "iterations": 3},
        {"comm": "nccl", "measured": {"nccl": 299}, "expected": 100,
         "iterations": 3},
    ),
    "conservation.epoch-accounting": (
        {"epoch_time": 10.0, "iterations": 9, "mean_iteration": 1.0,
         "fixed": 1.0},
        {"epoch_time": 10.0, "iterations": 9, "mean_iteration": 1.0,
         "fixed": 0.5},
    ),
    "capacity.memory-budget": (
        {"check_memory": True, "totals": [(0, 500)], "capacity": 1000},
        {"check_memory": True, "totals": [(0, 2000)], "capacity": 1000},
    ),
    "temporal.dag-lower-bound": (
        {"mean_iteration": 1.0, "compute_floor": 0.4, "input_floor": 0.1,
         "wire_floor": 0.3, "host_floor": 0.2, "iterations": 8,
         "now": 8.0},
        {"mean_iteration": 0.6, "compute_floor": 0.4, "input_floor": 0.1,
         "wire_floor": 0.3, "host_floor": 0.2, "iterations": 8,
         "now": 8.0},
    ),
}


@pytest.mark.parametrize("invariant_name", sorted(CASES))
def test_clean_payload_passes(invariant_name):
    clean, _ = CASES[invariant_name]
    assert fire(invariant_name, clean) == []


@pytest.mark.parametrize("invariant_name", sorted(CASES))
def test_corrupted_payload_fires(invariant_name):
    _, corrupted = CASES[invariant_name]
    assert fire(invariant_name, corrupted)


def test_every_registered_checker_has_a_corruption_case():
    registered = {c.invariant for c in all_checkers()}
    assert registered == set(CASES)


# ----------------------------------------------------------------------
# Extra corruption shapes for the multi-branch structural checkers
# ----------------------------------------------------------------------
def test_ring_permutation_rejects_wrong_membership():
    assert fire("structural.ring-permutation",
                {"order": [0, 1, 3], "participants": [0, 1, 2]})


def test_tree_rejects_double_parent_and_cycle():
    base = {"root": 0, "participants": [0, 1, 2], "depth": 1}
    assert fire("structural.tree-spanning",
                dict(base, parent=((1, 0), (1, 2), (2, 0))))
    assert fire("structural.tree-spanning",
                dict(base, parent=((1, 2), (2, 1))))
    assert fire("structural.tree-spanning",
                dict(base, parent=((1, 0), (2, 0), (0, 1))))


def test_reduce_coverage_rejects_cycle():
    assert fire("structural.reduce-coverage",
                {"num_gpus": 4, "stages": [[(1, 0), (2, 3), (3, 2)]]})


def test_memory_budget_ignored_when_not_enforced():
    assert fire("capacity.memory-budget",
                {"check_memory": False, "totals": [(0, 2000)],
                 "capacity": 1000}) == []


def test_gradient_traffic_skips_unknown_comm():
    assert fire("conservation.gradient-traffic",
                {"comm": "other", "measured": {"nccl": 1}, "expected": None,
                 "iterations": 3}) == []


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------
BAD = CASES["temporal.event-monotone"][1]


def test_mode_parse():
    assert CheckMode.parse("off") is CheckMode.OFF
    assert CheckMode.parse("warn") is CheckMode.WARN
    assert CheckMode.parse("strict") is CheckMode.STRICT
    assert CheckMode.parse(CheckMode.WARN) is CheckMode.WARN
    with pytest.raises(ConfigurationError):
        CheckMode.parse("loud")


def test_off_mode_is_inert():
    engine = CheckEngine("off")
    assert not engine.enabled
    engine.check("sim.event", **BAD)
    assert engine.violation_records() == ()
    assert engine.stats_dict() == {}


def test_warn_mode_records_without_raising():
    engine = CheckEngine("warn")
    engine.check("sim.event", **BAD)
    engine.check("sim.event", when=2.0, now=1.0)
    records = engine.violation_records()
    assert len(records) == 1
    assert records[0].invariant == "temporal.event-monotone"
    assert records[0].checkpoint == "sim.event"
    assert records[0].at == BAD["now"]
    assert engine.stats_dict()["temporal.event-monotone"] == (2, 1)


def test_strict_mode_raises():
    engine = CheckEngine("strict")
    with pytest.raises(InvariantViolationError) as exc:
        engine.check("sim.event", **BAD)
    assert exc.value.invariant == "temporal.event-monotone"
    assert exc.value.checkpoint == "sim.event"
    assert engine.violation_records()  # recorded before raising


def test_violation_published_on_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(InvariantViolationEvent, seen.append)
    engine = CheckEngine("warn", bus=bus)
    engine.check("sim.event", **BAD)
    assert len(seen) == 1
    assert seen[0].invariant == "temporal.event-monotone"
    assert seen[0].mode == "warn"


def test_unknown_checkpoint_is_harmless():
    engine = CheckEngine("strict")
    engine.check("no.such.point", anything=1)
    assert engine.stats_dict() == {}


def test_merge_stats_accumulates():
    target = {}
    merge_stats(target, {"a.b": (2, 1)})
    merge_stats(target, {"a.b": [3, 0], "c.d": (1, 1)})
    assert target == {"a.b": [5, 1], "c.d": [1, 1]}


def test_registry_rejects_bad_category_and_duplicates():
    with pytest.raises(ValueError):
        invariant("x.point", name="x", category="vibes", description="d")(
            lambda p: None
        )
    existing = all_checkers()[0]
    with pytest.raises(ValueError):
        invariant(existing.checkpoint, name=existing.name,
                  category=existing.category, description="dup")(
            lambda p: None
        )


def test_checkers_at_unknown_point_empty():
    assert checkers_at("nope") == ()


# ----------------------------------------------------------------------
# Dispatch shortcuts
# ----------------------------------------------------------------------
def test_checkers_at_returns_the_stored_tuple():
    first = checkers_at("fabric.dma")
    assert isinstance(first, tuple) and len(first) == 2
    assert checkers_at("fabric.dma") is first
    for checker in all_checkers():
        assert checker.invariant == f"{checker.category}.{checker.name}"


def _old_lt(a, b):
    from repro.checks.checkers import ABS_TOL, REL_TOL

    return a < b - (REL_TOL * max(abs(a), abs(b)) + ABS_TOL)


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 5e-13, 1e300, -1e300,
            float("inf"), float("-inf"), float("nan"), 2.0 ** -1074)


def test_lt_shortcut_matches_the_full_formula_on_special_values():
    from repro.checks.checkers import _lt

    for a in _SPECIAL:
        for b in _SPECIAL:
            assert _lt(a, b) is _old_lt(a, b), (a, b)


def test_lt_shortcut_matches_near_equal_values():
    import math
    import random

    from repro.checks.checkers import _lt

    rng = random.Random(20261018)
    for _ in range(5000):
        b = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-15, 5)
        a = b
        for _ in range(rng.randint(0, 40)):
            a = math.nextafter(a, rng.choice((-math.inf, math.inf)))
        a *= 1.0 + rng.choice((0.0, 1e-9, -1e-9, 2e-9, -2e-9))
        assert _lt(a, b) is _old_lt(a, b)
        assert _lt(b, a) is _old_lt(b, a)


def test_event_monotone_evaluates_every_dispatched_event():
    from repro import CommMethodName, SimulationConfig, TrainingConfig
    from repro.perf.spans import PERF
    from repro.train import train

    PERF.reset()
    PERF.enable()
    try:
        engine = CheckEngine("strict")
        train(TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL),
              sim=SimulationConfig(warmup_iterations=1, measure_iterations=2),
              checks=engine)
        events = PERF.counters["sim.events"]
        payloads = PERF.counters["checks.payloads"]
        evaluations = PERF.counters["checks.evaluations"]
    finally:
        PERF.disable()
        PERF.reset()
    stats = engine.stats_dict()
    assert stats["temporal.event-monotone"] == (events, 0)
    assert evaluations == sum(checked for checked, _ in stats.values())
    assert payloads < evaluations


#: ``stats_dict()`` of strict runs, in order, as recorded when every
#: dispatched event still fired the ``sim.event`` checkpoint.  The event
#: loop's bulk count must reproduce them key for key.
_STRICT_STATS = [
    ("structural.ring-permutation", (1, 0)),
    ("structural.ring-links", (1, 0)),
    ("temporal.event-monotone", (1296, 0)),
    ("capacity.link-bandwidth", (6, 0)),
    ("temporal.link-serialization", (6, 0)),
    ("conservation.collective-wire", (60, 0)),
    ("capacity.collective-bandwidth", (60, 0)),
    ("temporal.periodic", (1, 0)),
    ("temporal.spans-nested", (1, 0)),
    ("temporal.iterations-monotone", (1, 0)),
    ("temporal.step-accounting", (1, 0)),
    ("capacity.gpu-busy", (1, 0)),
    ("conservation.gradient-traffic", (1, 0)),
    ("capacity.link-busy", (1, 0)),
    ("conservation.link-accounting", (1, 0)),
    ("temporal.dag-lower-bound", (1, 0)),
    ("conservation.epoch-accounting", (1, 0)),
    ("capacity.memory-budget", (1, 0)),
]
_STRICT_FAULTED_STATS = [
    ("structural.ring-permutation", (2, 0)),
    ("structural.ring-links", (2, 0)),
    ("temporal.event-monotone", (5464, 0)),
    ("capacity.link-bandwidth", (32, 0)),
    ("temporal.link-serialization", (32, 0)),
    ("conservation.collective-wire", (160, 0)),
    ("capacity.collective-bandwidth", (160, 0)),
    ("temporal.periodic", (2, 0)),
    ("temporal.spans-nested", (2, 0)),
    ("temporal.iterations-monotone", (2, 0)),
    ("temporal.step-accounting", (2, 0)),
    ("capacity.gpu-busy", (2, 0)),
    ("conservation.gradient-traffic", (2, 0)),
    ("capacity.link-busy", (2, 0)),
    ("conservation.link-accounting", (2, 0)),
    ("temporal.dag-lower-bound", (2, 0)),
    ("conservation.epoch-accounting", (1, 0)),
    ("capacity.memory-budget", (1, 0)),
]


def test_strict_train_stats_match_per_event_checkpoints():
    from repro import CommMethodName, SimulationConfig, TrainingConfig
    from repro.train import train

    engine = CheckEngine("strict")
    train(TrainingConfig("lenet", 16, 2, comm_method=CommMethodName.NCCL),
          sim=SimulationConfig(warmup_iterations=1, measure_iterations=2),
          checks=engine)
    assert list(engine.stats_dict().items()) == _STRICT_STATS


def test_strict_faulted_train_stats_match_per_event_checkpoints():
    from repro import CommMethodName, TrainingConfig
    from repro.faults import FaultPlan
    from repro.topology import build_dgx1v
    from repro.train import train

    engine = CheckEngine("strict")
    train(TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.NCCL),
          checks=engine,
          faults=FaultPlan.isolate_gpu(build_dgx1v(), 0, at=0.05))
    assert list(engine.stats_dict().items()) == _STRICT_FAULTED_STATS
