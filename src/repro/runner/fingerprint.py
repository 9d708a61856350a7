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
from typing import Any, Dict, Mapping, Optional, Tuple

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


def _encode(value: Any) -> str:
    """``value``'s canonical JSON, as the key's blob spells it."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


#: Encoded simulation settings and constants, by object identity:
#: ``id -> (object, text)``.  Holding the object keeps its id from being
#: reused; identity, not equality, keys the memo, because equal objects
#: can encode differently (``1`` and ``1.0`` compare equal).
_FIXED: Dict[int, Tuple[Any, str]] = {}
_FIXED_BOUND = 8


def _encode_fixed(value: Any) -> str:
    """:func:`_encode` of an immutable value that recurs on every call."""
    held = _FIXED.get(id(value))
    if held is not None and held[0] is value:
        return held[1]
    text = _encode(value)
    if len(_FIXED) >= _FIXED_BOUND:
        del _FIXED[next(iter(_FIXED))]
    _FIXED[id(value)] = (value, text)
    return text


def point_fingerprint(
    point: SweepPoint,
    sim: SimulationConfig,
    constants: CalibrationConstants,
    trainer_kwargs: Optional[Mapping[str, Any]] = None,
) -> Optional[str]:
    """The cache key for one sweep point, or ``None`` if uncacheable.

    The serialization schema version is folded in so a format change can
    never resurrect results written by an incompatible library version.
    The key hashes one sorted-key JSON object; the simulation settings
    and the constants, the same on every call of a sweep, are encoded
    once each and spliced in.
    """
    from repro.analysis.serialization import SCHEMA_VERSION

    try:
        parts = (                         # the payload's keys, sorted
            ("config", _encode(point.config)),
            ("constants", _encode_fixed(constants)),
            ("overrides", _encode(point.override_dict())),
            ("schema", _encode(SCHEMA_VERSION)),
            ("sim", _encode_fixed(sim)),
            ("trainer_kwargs", _encode(dict(trainer_kwargs or {}))),
        )
    except Unfingerprintable:
        return None
    blob = "{" + ",".join(f'"{name}":{text}' for name, text in parts) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
