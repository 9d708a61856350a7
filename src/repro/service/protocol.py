"""Wire protocol of the sweep service: newline-delimited JSON over TCP.

One request per line, one response per line.  Requests are JSON objects
with an ``op`` field:

``{"op": "ping"}``
    Liveness probe; answered with ``{"status": "ok", "pong": true}``.
``{"op": "stats"}``
    Service counters, queue depth, breaker state and worker pids.
``{"op": "drain"}``
    Begin graceful shutdown (same path as SIGTERM).
``{"op": "sweep", "client": ..., "points": [...], ...}``
    Simulate (or answer from cache / analytically) a list of sweep
    points.  Optional fields: ``budget`` (max points this request may
    *simulate*; beyond it points degrade to the analytic fast path),
    ``deadline`` (wall-clock seconds for the whole request; once
    exceeded, remaining points degrade), ``degrade`` (default true;
    set false to forbid analytic answers and get hard errors instead).

Each point is a flat JSON object of :class:`TrainingConfig` fields (the
execution model is the ``strategy`` field); validation is eager, so a
malformed point is refused before anything simulates.  Responses carry
``status`` (``"ok"`` / ``"busy"`` / ``"rejected"`` / ``"error"``);
``busy`` and ``rejected`` add a machine-readable ``reason``
(``"quota"``, ``"budget"``, ``"backpressure"``, ``"draining"``).  See
``docs/SERVICE.md`` for the full grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import TrainingConfig
from repro.core.errors import ConfigurationError, ReproError
from repro.runner.spec import FailureInfo, OomInfo, SweepPoint

#: Hard cap on one request line (a malicious/broken client must not make
#: the server buffer unbounded input).
MAX_LINE_BYTES = 1 << 20

#: TrainingConfig fields a point object may carry, with their wire types
#: (``TrainingConfig`` coerces the enum fields' strings itself).
CONFIG_FIELDS: Dict[str, type] = {
    "network": str,
    "batch_size": int,
    "num_gpus": int,
    "comm_method": str,
    "scaling": str,
    "dataset_images": int,
    "overlap_bp_wu": bool,
    "cluster_nodes": int,
    "fp16_gradients": bool,
    "optimizer": str,
    "nccl_algorithm": str,
    "nccl_protocol": str,
    "strategy": str,
    "cluster_fabric": str,
    "cluster_collective": str,
    "cluster_fast_path": str,
}


class ProtocolError(ReproError, ValueError):
    """A request line the service cannot parse or admit structurally."""


@dataclass(frozen=True)
class SweepRequest:
    """One parsed ``sweep`` request."""

    client: str
    points: Tuple[SweepPoint, ...]
    budget: Optional[int] = None
    deadline: Optional[float] = None
    degrade: bool = True


#: A wire point after :func:`point_fields`: its validated fields, sorted
#: by name, with ``num_gpus`` filled in.
PointFields = Tuple[Tuple[str, Any], ...]


def point_from_dict(raw: Any) -> SweepPoint:
    """Build a :class:`SweepPoint` from one wire-format point object.

    Only whitelisted scalar :class:`TrainingConfig` fields are accepted
    (no overrides: clients cannot inject arbitrary trainer kwargs into
    the server process); enum fields coerce from their string values and
    the config's own eager validation rejects bad combinations.  The two
    steps are :func:`point_fields` and :func:`point_from_fields`.
    """
    return point_from_fields(point_fields(raw))


def point_fields(raw: Any) -> PointFields:
    """The whitelist and type checks of one wire point: its fields.

    The result is sorted by field name and carries ``num_gpus``
    (default 1), so two objects that differ only in key order or in an
    explicit ``num_gpus: 1`` give equal tuples.  Each value has passed
    its field's type check (a boolean is never an integer field), so
    equal tuples always build equal points: the tuple is a safe memo key
    for :func:`point_from_fields`.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(f"point must be an object, got {type(raw).__name__}")
    for name, value in raw.items():
        if name not in CONFIG_FIELDS:
            raise ProtocolError(f"unknown point field {name!r}")
        want = CONFIG_FIELDS[name]
        if want is bool:
            if not isinstance(value, bool):
                raise ProtocolError(f"point field {name!r} must be a boolean")
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"point field {name!r} must be an integer")
        elif not isinstance(value, want):
            raise ProtocolError(
                f"point field {name!r} must be a {want.__name__}")
    if "network" not in raw or "batch_size" not in raw:
        raise ProtocolError("a point needs at least 'network' and 'batch_size'")
    fields = dict(raw)
    fields.setdefault("num_gpus", 1)
    return tuple(sorted(fields.items()))


def point_from_fields(fields: PointFields) -> SweepPoint:
    """The point of :func:`point_fields`' output, through the config's
    own validation (a rejected config is a :class:`ProtocolError`)."""
    try:
        config = TrainingConfig(**dict(fields))
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid point: {exc}") from exc
    return SweepPoint(config=config)


def point_to_dict(point: SweepPoint) -> Dict[str, Any]:
    """The wire-format object for ``point`` (the client-side inverse)."""
    cfg = point.config
    out: Dict[str, Any] = {
        "network": cfg.network,
        "batch_size": cfg.batch_size,
        "num_gpus": cfg.num_gpus,
        "comm_method": cfg.comm_method.value,
        "scaling": cfg.scaling.value,
    }
    fields = TrainingConfig.__dataclass_fields__
    for name in CONFIG_FIELDS:
        if name in out:
            continue
        value = getattr(cfg, name)
        if value != fields[name].default:
            out[name] = value
    return out


def parse_request(line: str) -> Dict[str, Any]:
    """Decode one request line into its raw JSON object."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    op = data.get("op")
    if op not in ("ping", "stats", "drain", "sweep"):
        raise ProtocolError(f"unknown op {op!r}")
    return data


def parse_sweep(
    data: Dict[str, Any],
    point_of: Callable[[Any], SweepPoint] = point_from_dict,
) -> SweepRequest:
    """Validate a raw ``sweep`` request object into a :class:`SweepRequest`.

    ``point_of`` turns each wire point into a :class:`SweepPoint`; the
    service passes one that memoizes :func:`point_from_fields`.
    """
    client = data.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ProtocolError("'points' must be a non-empty list")
    points = tuple(point_of(p) for p in raw_points)
    budget = data.get("budget")
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
            raise ProtocolError("'budget' must be a non-negative integer")
    deadline = data.get("deadline")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ProtocolError("'deadline' must be a number of seconds")
        deadline = float(deadline)
        if deadline <= 0:
            raise ProtocolError("'deadline' must be positive")
    degrade = data.get("degrade", True)
    if not isinstance(degrade, bool):
        raise ProtocolError("'degrade' must be a boolean")
    return SweepRequest(
        client=client, points=points, budget=budget,
        deadline=deadline, degrade=degrade,
    )


def value_payload(label: str, value: Any) -> Dict[str, Any]:
    """The deterministic per-point result object for a simulated value.

    Carries only modeled quantities (no wall-clock, no sourcing), so a
    warm-cache replay of the same request is byte-identical to the run
    that populated the cache -- the property the service-smoke CI job
    diffs on.
    """
    if isinstance(value, OomInfo):
        return {
            "label": label, "kind": "oom", "degraded": False,
            "device": value.device, "message": value.message,
        }
    if isinstance(value, FailureInfo):
        return {
            "label": label, "kind": "failed", "degraded": False,
            "error_type": value.error_type, "message": value.message,
            "attempts": value.attempts, "timed_out": value.timed_out,
        }
    stats = value.async_stats
    payload: Dict[str, Any] = {
        "label": label,
        "kind": "training" if stats is None else "async",
        "degraded": False,
        "iteration_time": value.iteration_time,
        "epoch_time": value.epoch_time,
        "images_per_second": value.images_per_second,
    }
    if stats is not None:
        payload["staleness_mean"] = stats.staleness_mean
    return payload


def result_text(result: Dict[str, Any]) -> str:
    """One per-point result object as :func:`encode_results` joins it."""
    return json.dumps(result, sort_keys=True)


def encode(message: Dict[str, Any]) -> bytes:
    """One response/request line (sorted keys: deterministic output)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def error_response(status: str, reason: str = "", **extra: Any) -> Dict[str, Any]:
    """A non-``ok`` response object (``busy``/``rejected``/``error``)."""
    out: Dict[str, Any] = {"status": status}
    if reason:
        out["reason"] = reason
    out.update(extra)
    return out


def encode_results(texts: Sequence[str], sourcing: Dict[str, Any]) -> bytes:
    """The ``ok`` response line for a served sweep, from its results' texts.

    ``texts`` holds each per-point result object already encoded by
    :func:`result_text`; the line is exactly
    ``encode({"status": "ok", "results": results, "sourcing": sourcing})``
    (its keys sort as ``results``, ``sourcing``, ``status``), so a service
    that keeps each point's text encodes only ``sourcing`` per response.
    The results are deterministic (see :func:`value_payload`);
    ``sourcing`` carries the per-request service stats (executed / disk
    hits / deduped / degraded / derived / seconds) that legitimately
    differ between a cold and a warm run.
    """
    return (f'{{"results": [{", ".join(texts)}], "sourcing": '
            f'{json.dumps(sourcing, sort_keys=True)}, "status": "ok"}}\n'
            ).encode("utf-8")
