"""JSON serialization of training results.

Sweeps are cheap to re-run but expensive to re-plot; these helpers round-
trip :class:`~repro.train.results.TrainingResult` (minus the raw profiler,
which has its own Chrome-trace exporter) through plain dicts suitable
for ``json.dump``.  The persistent sweep cache
(:mod:`repro.runner.store`) stores exactly these dicts, so
``SCHEMA_VERSION`` doubles as the cache format version: bump it whenever
a field is added, removed or reinterpreted, and loads of mismatched data
are refused with :class:`SchemaMismatchError`.  Cache keys hash the
inputs of a point, not the model code, so any change to a modeled number
bumps ``SCHEMA_VERSION`` too.

Schema history
--------------
* 1 -- initial format (config missing ``cluster_nodes``,
  ``fp16_gradients``, ``optimizer``).
* 2 -- full :class:`TrainingConfig` coverage and a separate
  asynchronous-run result export.
* 3 -- optional ``faults`` block (the
  :class:`~repro.faults.recovery.FaultSummary` of a fault-injected run).
* 4 -- ``violations`` list (invariant-violation records from
  :mod:`repro.checks`) and full config coverage (``custom_network``,
  ``nccl_algorithm``, ``nccl_protocol`` -- the tuning fields were
  previously dropped on round-trip).
* 5 -- strategy-registry support: the config ``strategy`` field and the
  optional ``async_stats`` block (staleness accounting when a
  :class:`TrainingResult` came from the ``async-update`` strategy).
* 6 -- cluster-tier support: the config ``cluster_fabric``,
  ``cluster_collective`` and ``cluster_fast_path`` fields (rail-aware
  inter-node fabrics and hierarchical collectives; see
  ``docs/SCALING.md``).
* 7 -- cluster-tier faults: the ``faults`` block gained
  ``crashed_node`` and per-segment ``rails_degraded`` (node crashes
  and NIC/rail degradation; see ``docs/FAULTS.md``).
* 8 -- exact periodicity: a provably periodic run stores one
  ``iteration_times`` entry per measured system, and every simulated
  time moves by up to ~2.5e-11 relative under the translation-invariant
  clock (``docs/PERF.md``, "Exact periodicity").
* 9 -- the warm-up is the steady iteration: a periodic run measures
  iteration 0, so the ``apis`` totals lose the rounding that forming
  ``cudaLaunchKernel``'s end off the clock's grid gave them at a later
  window start (``docs/PERF.md``, "The warm-up is the steady
  iteration"); every other field is bit-equal.
* 10 -- one way to simulate asynchronous SGD: the separate
  asynchronous-run export and the store's ``"async"`` entry kind are
  gone, and sweep fingerprints no longer hash a point mode; an
  ``async-update`` run is a :class:`TrainingResult` with
  ``async_stats`` like any other strategy's.
* 11 -- the update cost of ``ps-cpu``, ``async-update`` and
  ``model-parallel`` follows the configured optimizer (entries written
  earlier hold stale non-default-optimizer answers), and the unread
  ``SimulationConfig.seed`` left the fingerprinted simulation settings.
* 12 -- ``TrainingConfig`` coerces ``scaling`` and ``comm_method``
  strings to their enums.  A config built with ``scaling="weak"`` used
  to run strong scaling under the same key as the enum weak config, so
  an earlier store may hold a strong-scaling answer under a weak key.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.checks.engine import Violation
from repro.core.config import CommMethodName, ScalingMode, TrainingConfig
from repro.faults.recovery import FaultSummary, SegmentReport
from repro.gpu.memory import MemoryUsage
from repro.profile.smi import MemoryReading
from repro.profile.summary import ApiSummary, StageBreakdown
from repro.train.results import AsyncStats, TrainingResult

#: Schema version stamped into every exported dict (and hashed into every
#: persistent-cache key).
SCHEMA_VERSION = 12


class SchemaMismatchError(ValueError):
    """An exported dict was written by an incompatible schema version."""

    def __init__(self, found: Any) -> None:
        self.found = found
        super().__init__(
            f"unsupported result schema {found!r}: this library reads and "
            f"writes schema {SCHEMA_VERSION}; re-export the result (or clear "
            f"the sweep cache) with the current library version"
        )


def _check_schema(data: Dict[str, Any]) -> None:
    if data.get("schema") != SCHEMA_VERSION:
        raise SchemaMismatchError(data.get("schema"))


def _config_to_dict(c: TrainingConfig) -> Dict[str, Any]:
    return {
        "network": c.network,
        "batch_size": c.batch_size,
        "num_gpus": c.num_gpus,
        "comm_method": c.comm_method.value,
        "scaling": c.scaling.value,
        "dataset_images": c.dataset_images,
        "overlap_bp_wu": c.overlap_bp_wu,
        "cluster_nodes": c.cluster_nodes,
        "fp16_gradients": c.fp16_gradients,
        "optimizer": c.optimizer,
        "nccl_algorithm": c.nccl_algorithm,
        "nccl_protocol": c.nccl_protocol,
        "custom_network": c.custom_network,
        "strategy": c.strategy,
        "cluster_fabric": c.cluster_fabric,
        "cluster_collective": c.cluster_collective,
        "cluster_fast_path": c.cluster_fast_path,
    }


def _config_from_dict(c: Dict[str, Any]) -> TrainingConfig:
    return TrainingConfig(
        network=c["network"],
        batch_size=c["batch_size"],
        num_gpus=c["num_gpus"],
        comm_method=CommMethodName(c["comm_method"]),
        scaling=ScalingMode(c["scaling"]),
        dataset_images=c["dataset_images"],
        overlap_bp_wu=c["overlap_bp_wu"],
        cluster_nodes=c["cluster_nodes"],
        fp16_gradients=c["fp16_gradients"],
        optimizer=c["optimizer"],
        nccl_algorithm=c["nccl_algorithm"],
        nccl_protocol=c["nccl_protocol"],
        custom_network=c["custom_network"],
        strategy=c["strategy"],
        cluster_fabric=c["cluster_fabric"],
        cluster_collective=c["cluster_collective"],
        cluster_fast_path=c["cluster_fast_path"],
    )


def _violations_to_list(violations: Tuple[Violation, ...]) -> List[Dict[str, Any]]:
    return [
        {
            "invariant": v.invariant,
            "checkpoint": v.checkpoint,
            "message": v.message,
            "at": v.at,
        }
        for v in violations
    ]


def _violations_from_list(data: List[Dict[str, Any]]) -> Tuple[Violation, ...]:
    return tuple(
        Violation(
            invariant=v["invariant"],
            checkpoint=v["checkpoint"],
            message=v["message"],
            at=v["at"],
        )
        for v in data
    )


def _faults_to_dict(summary: Optional[FaultSummary]) -> Optional[Dict[str, Any]]:
    if summary is None:
        return None
    return {
        "policy": summary.policy,
        "segments": [
            {
                "index": s.index,
                "start_time": s.start_time,
                "start_iteration": s.start_iteration,
                "iterations": s.iterations,
                "mean_iteration": s.mean_iteration,
                "active": list(s.active),
                "ring_bandwidth": s.ring_bandwidth,
                "ring_uses_pcie": s.ring_uses_pcie,
                "gpus": s.gpus,
                "rails_degraded": s.rails_degraded,
            }
            for s in summary.segments
        ],
        "transition_cost": summary.transition_cost,
        "recovery_cost": summary.recovery_cost,
        "checkpoint_cost": summary.checkpoint_cost,
        "healthy_iteration": summary.healthy_iteration,
        "crashed_gpu": summary.crashed_gpu,
        "crash_iteration": summary.crash_iteration,
        "replayed_iterations": summary.replayed_iterations,
        "survivors": summary.survivors,
        "crashed_node": summary.crashed_node,
    }


def _faults_from_dict(data: Optional[Dict[str, Any]]) -> Optional[FaultSummary]:
    if data is None:
        return None
    return FaultSummary(
        policy=data["policy"],
        segments=tuple(
            SegmentReport(
                index=s["index"],
                start_time=s["start_time"],
                start_iteration=s["start_iteration"],
                iterations=s["iterations"],
                mean_iteration=s["mean_iteration"],
                active=tuple(s["active"]),
                ring_bandwidth=s["ring_bandwidth"],
                ring_uses_pcie=s["ring_uses_pcie"],
                gpus=s["gpus"],
                rails_degraded=s["rails_degraded"],
            )
            for s in data["segments"]
        ),
        transition_cost=data["transition_cost"],
        recovery_cost=data["recovery_cost"],
        checkpoint_cost=data["checkpoint_cost"],
        healthy_iteration=data["healthy_iteration"],
        crashed_gpu=data["crashed_gpu"],
        crash_iteration=data["crash_iteration"],
        replayed_iterations=data["replayed_iterations"],
        survivors=data["survivors"],
        crashed_node=data["crashed_node"],
    )


def _async_stats_to_dict(stats: Optional[AsyncStats]) -> Optional[Dict[str, Any]]:
    if stats is None:
        return None
    return {
        "staleness_mean": stats.staleness_mean,
        "staleness_max": stats.staleness_max,
        "staleness_samples": list(stats.staleness_samples),
        "server_updates": stats.server_updates,
    }


def _async_stats_from_dict(data: Optional[Dict[str, Any]]) -> Optional[AsyncStats]:
    if data is None:
        return None
    return AsyncStats(
        staleness_mean=data["staleness_mean"],
        staleness_max=data["staleness_max"],
        staleness_samples=tuple(data["staleness_samples"]),
        server_updates=data["server_updates"],
    )


def result_to_dict(result: TrainingResult) -> Dict[str, Any]:
    """A JSON-serializable representation of ``result``."""
    return {
        "schema": SCHEMA_VERSION,
        "config": _config_to_dict(result.config),
        "iteration_time": result.iteration_time,
        "iteration_times": list(result.iteration_times),
        "epoch_time": result.epoch_time,
        "fixed_overhead": result.fixed_overhead,
        "stages": {
            "fp": result.stages.fp,
            "bp": result.stages.bp,
            "wu": result.stages.wu,
            "iteration": result.stages.iteration,
        },
        "apis": [[name, seconds] for name, seconds in result.apis.totals],
        "gpu_busy": {str(g): b for g, b in result.gpu_busy.items()},
        "compute_utilization": result.compute_utilization,
        "memory": [
            {
                "gpu": m.gpu,
                "phase": m.phase,
                "context": m.usage.context,
                "parameters": m.usage.parameters,
                "activations": m.usage.activations,
                "workspace": m.usage.workspace,
                "input_batch": m.usage.input_batch,
                "server_buffers": m.usage.server_buffers,
            }
            for m in result.memory
        ],
        "faults": _faults_to_dict(result.faults),
        "violations": _violations_to_list(result.violations),
        "async_stats": _async_stats_to_dict(result.async_stats),
    }


def result_from_dict(data: Dict[str, Any]) -> TrainingResult:
    """Rebuild a :class:`TrainingResult` exported by :func:`result_to_dict`.

    Raises :class:`SchemaMismatchError` for dicts written by any other
    schema version.
    """
    _check_schema(data)
    config = _config_from_dict(data["config"])
    stages = StageBreakdown(
        fp=data["stages"]["fp"],
        bp=data["stages"]["bp"],
        wu=data["stages"]["wu"],
        iteration=data["stages"]["iteration"],
    )
    apis = ApiSummary(totals=tuple((n, t) for n, t in data["apis"]))
    memory = tuple(
        MemoryReading(
            gpu=m["gpu"],
            phase=m["phase"],
            usage=MemoryUsage(
                context=m["context"],
                parameters=m["parameters"],
                activations=m["activations"],
                workspace=m["workspace"],
                input_batch=m["input_batch"],
                server_buffers=m["server_buffers"],
            ),
        )
        for m in data["memory"]
    )
    return TrainingResult(
        config=config,
        iteration_time=data["iteration_time"],
        iteration_times=tuple(data["iteration_times"]),
        epoch_time=data["epoch_time"],
        fixed_overhead=data["fixed_overhead"],
        stages=stages,
        apis=apis,
        gpu_busy={int(g): b for g, b in data["gpu_busy"].items()},
        compute_utilization=data["compute_utilization"],
        memory=memory,
        profiler=None,
        faults=_faults_from_dict(data.get("faults")),
        violations=_violations_from_list(data.get("violations", [])),
        async_stats=_async_stats_from_dict(data.get("async_stats")),
    )
