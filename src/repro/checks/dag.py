"""Analytic-DAG cross-check oracle for synchronous SGD (Shi et al.).

The DAG model of S-SGD decomposes one iteration into input staging,
per-GPU forward/backward compute, gradient communication, and host-side
synchronization stages.  Because the event-driven simulation schedules
exactly those stages -- just with contention, pipelining and overlap --
the closed-form critical path of the DAG is a *sound lower bound* on
every simulated iteration:

``iteration >= max(input + compute, wire) + host``

where, per measured system,

``compute``
    the per-GPU sum of scheduled FP+BP kernel durations times the
    slowest device's best-case speed factor (time-varying
    :class:`~repro.faults.plan.SlowdownProfile` stragglers contribute
    their *minimum* step factor; ECC retirement delays only add time and
    are ignored) -- contention and engine serialization only lengthen it;
``input``
    the fixed input-pipeline cost every GPU pays before FP
    (``input_pipeline_residual + input_cost_per_image x batch``);
``wire``
    the strategy's expected gradient bytes per iteration
    (:func:`~repro.checks.expect.expected_sync_bytes`) divided by the
    full-duplex aggregate peak bandwidth of the (possibly degraded)
    topology -- no schedule can move the bytes faster than every link
    flat out;
``host``
    the per-iteration barrier the trainer always pays (framework
    bookkeeping + per-GPU stream sync + communicator rendezvous).

The bound is deliberately loose (peak rather than effective bandwidth,
minimum straggler factor) so it holds for every strategy x communicator
x topology point of the paper grid; what it catches is structural
regressions -- a dropped kernel schedule, a transfer that bypasses the
fabric, a barrier that stopped being paid -- independently of the event
engine, because none of these floors are derived from simulated events.

The trainer fires the ``trainer.dag`` checkpoint after each measured
segment; the payload contract is documented in docs/INVARIANTS.md.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.checks.checkers import _lt
from repro.checks.expect import expected_sync_bytes
from repro.checks.registry import invariant

Payload = Mapping[str, Any]


def device_factor_floor(device) -> float:
    """The smallest kernel-duration multiplier ``device`` can exhibit.

    Scalar speed factors are exact; a time-varying slowdown profile
    contributes the minimum over its steps; an unknown profile object
    (anything with ``.at`` but no ``.steps``) degrades to ``0.0`` --
    no compute floor, never a false positive.
    """
    slowdown = getattr(device, "slowdown", None)
    if slowdown is None:
        return float(device.speed_factor)
    steps = getattr(slowdown, "steps", None)
    if not steps:
        return 0.0
    return min(factor for _, factor in steps)


def aggregate_peak_bandwidth(topology) -> float:
    """Full-duplex aggregate peak bandwidth of ``topology`` (bytes/s).

    Every link moves data in both directions at once, so the hard
    ceiling on total wire throughput is twice the sum of per-direction
    peak bandwidths.
    """
    return 2.0 * sum(link.peak_bandwidth() for link in topology.links)


def system_floors(trainer, fabric, devices, comm) -> Dict[str, float]:
    """The ``compute``/``input``/``wire``/``host`` floors of one built system.

    ``trainer`` is a compiled :class:`~repro.train.trainer.Trainer` and
    the rest is what its ``_build_system()`` returned (the fabric's
    topology may be fault-degraded).  Nothing here reads simulated
    events, so the trainer's ``trainer.dag`` checkpoint and the
    service's analytic fast path share the exact same numbers.
    """
    constants = trainer.constants
    compute = trainer._kernel_seconds * max(
        (device_factor_floor(dev) for dev in devices), default=1.0
    )
    wire = 0.0
    expected = expected_sync_bytes(
        comm.name, trainer._sync_arrays(), len(devices),
        gradient_bytes_scale=comm.gradient_bytes_scale,
    )
    if expected:
        agg = aggregate_peak_bandwidth(fabric.topology)
        if agg > 0.0:
            wire = expected / agg
    return {
        "compute": compute,
        "input": (
            constants.input_pipeline_residual
            + constants.input_cost_per_image * trainer.config.batch_size
        ),
        "wire": wire,
        "host": (
            constants.framework_iteration_overhead
            + len(devices) * constants.stream_sync_overhead
            + comm.per_iteration_overhead()
        ),
    }


def critical_path_floor(compute_floor: float, input_floor: float,
                        wire_floor: float, host_floor: float) -> float:
    """The DAG critical-path lower bound on one iteration (seconds)."""
    return max(input_floor + compute_floor, wire_floor) + host_floor


# ----------------------------------------------------------------------
# trainer.dag — fired by the trainer after each measured segment
# ----------------------------------------------------------------------
@invariant("trainer.dag", name="dag-lower-bound", category="temporal",
           description="the analytic S-SGD DAG critical path bounds every "
                       "measured iteration")
def check_dag_lower_bound(p: Payload):
    """The measured mean iteration must dominate the analytic floor."""
    floor = critical_path_floor(
        p["compute_floor"], p["input_floor"], p["wire_floor"],
        p["host_floor"],
    )
    if _lt(p["mean_iteration"], floor):
        return (
            f"measured mean iteration {p['mean_iteration']:.6e}s beats the "
            f"analytic DAG critical-path floor {floor:.6e}s "
            f"(compute={p['compute_floor']:.3e}s "
            f"input={p['input_floor']:.3e}s wire={p['wire_floor']:.3e}s "
            f"host={p['host_floor']:.3e}s over {p['iterations']} iterations)"
        )
