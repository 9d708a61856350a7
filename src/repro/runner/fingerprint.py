"""Content-hash keys for the persistent result cache.

A cached result is only reusable when *everything* that determines it is
identical: the training configuration, the simulation fidelity, every
calibration constant, any trainer overrides, and the serialization schema
version.  :func:`point_fingerprint` canonicalizes all of those into JSON
and hashes it -- so editing a constant in
:mod:`repro.core.constants` silently invalidates every affected cache
entry (the key changes; stale files are simply never read again).

Values the canonicalizer cannot prove stable (custom network objects,
lambdas, closures) make the point *uncacheable* rather than wrongly
cached: :func:`point_fingerprint` returns ``None`` and the runner
executes the point every time.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any, Mapping, Optional

from repro.core.config import SimulationConfig
from repro.core.constants import CalibrationConstants
from repro.runner.spec import SweepPoint


class Unfingerprintable(Exception):
    """A value has no stable content-addressable representation."""


def canonical(value: Any) -> Any:
    """A JSON-ready canonical form of ``value``.

    Raises :class:`Unfingerprintable` for anything whose identity cannot
    be captured by content (arbitrary objects, lambdas, closures).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__qualname__, **fields}
    if isinstance(value, functools.partial):
        return {
            "__partial__": canonical(value.func),
            "args": canonical(value.args),
            "kwargs": canonical(value.keywords or {}),
        }
    if callable(value):
        qualname = getattr(value, "__qualname__", "")
        module = getattr(value, "__module__", "")
        if not module or not qualname or "<" in qualname:
            raise Unfingerprintable(f"cannot fingerprint callable {value!r}")
        if getattr(value, "__closure__", None):
            raise Unfingerprintable(f"cannot fingerprint closure {qualname}")
        return f"__callable__:{module}:{qualname}"
    raise Unfingerprintable(f"cannot fingerprint {type(value).__qualname__} value")


def point_fingerprint(
    point: SweepPoint,
    sim: SimulationConfig,
    constants: CalibrationConstants,
    trainer_kwargs: Optional[Mapping[str, Any]] = None,
) -> Optional[str]:
    """The cache key for one sweep point, or ``None`` if uncacheable.

    The serialization schema version is folded in so a format change can
    never resurrect results written by an incompatible library version.
    """
    from repro.analysis.serialization import SCHEMA_VERSION

    try:
        payload = {
            "schema": SCHEMA_VERSION,
            "config": canonical(point.config),
            "sim": canonical(sim),
            "constants": canonical(constants),
            "overrides": canonical(point.override_dict()),
            "trainer_kwargs": canonical(dict(trainer_kwargs or {})),
        }
    except Unfingerprintable:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
