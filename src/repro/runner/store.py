"""Persistent, crash-safe on-disk result cache.

One JSON file per sweep point, named by its content fingerprint (see
:mod:`repro.runner.fingerprint`), written atomically.  Because the key
hashes the config, simulation fidelity, calibration constants and schema
version, invalidation is automatic: change a constant and the old files
are simply never addressed again.  ``repro-experiments`` points a
:class:`ResultStore` at ``results/cache`` by default, making a repeat run
of the full paper suite near-instant; the sweep service shares one among
concurrent requests.

Layout::

    <root>/
        shard-XX/<sha256-fingerprint>.json  # {"schema": N, "kind": ..., "result": {...}}
        journal/wal-<pid>.jsonl             # write-ahead log of one writer

``XX`` is the CRC32 of the key modulo :data:`SHARDS`, in hex, which
bounds per-directory entry counts when a service writes tens of
thousands of points.  ``kind`` is ``"training"`` (a
:class:`TrainingResult`, whatever its strategy) or ``"oom"`` (a recorded
out-of-memory failure, so untrainable points are not re-attempted).

Every write is first appended to the writer's journal (flushed *and*
fsynced) and only then renamed into place; opening a store replays any
journaled entry whose point file is missing or unreadable.  A SIGKILL
at any instant loses at most the single entry whose journal line was
itself torn -- which by definition had not been acknowledged -- and
never corrupts or loses a committed one.  See ``docs/RUNNER.md`` and
``docs/SERVICE.md``.

Entries may additionally carry a ``"perf"`` object -- the wall-clock the
point originally cost to simulate and its invariant-check statistics
(see :meth:`ResultStore.load_entry`).  The field is additive: readers of
the original layout ignore unknown keys, so no schema bump is needed,
and files written before the field exist load fine with ``perf=None``.

Fault-injected training results additionally carry a ``"faults"`` object
-- a flat recovery breakdown (policy, resilience overheads, crashed
GPU/node, degraded rails) lifted out of the
:class:`~repro.faults.recovery.FaultSummary` so replays of cached
faulted points can report what the resilience layer did without
deserializing the full result.  Same additive contract as ``"perf"``:
healthy entries and pre-existing files simply load with ``faults=None``.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.runner.spec import OomInfo


class CacheSchemaError(ReproError, RuntimeError):
    """A cache file was written by an incompatible schema version."""


class CacheCorruptionWarning(UserWarning):
    """A cache file was unreadable/corrupted and treated as a miss.

    Truncated writes (a killed process, a full disk) or hand-edited files
    must not abort a long sweep mid-way: the point is simply re-simulated
    and the next :meth:`ResultStore.store` atomically replaces the bad
    file.  The warning keeps the corruption visible.
    """


StoredValue = Union["TrainingResult", OomInfo]  # noqa: F821


@dataclass(frozen=True)
class CacheEntry:
    """One loaded cache entry: the value plus its recorded cost.

    ``elapsed`` is the wall-clock seconds the point took when it was
    first simulated (0.0 for entries written before the ``perf`` field
    existed); ``check_stats`` is the invariant-statistics snapshot from
    that original execution.  ``faults`` is the recovery breakdown of a
    fault-injected training point (``None`` for healthy points and for
    entries written before the field existed).
    """

    value: StoredValue
    elapsed: float = 0.0
    check_stats: Optional[Dict[str, Tuple[int, int]]] = None
    faults: Optional[Dict[str, Any]] = None


def fault_breakdown(value: Any) -> Optional[Dict[str, Any]]:
    """The flat ``"faults"`` entry field for ``value``, or ``None``.

    Only fault-injected :class:`TrainingResult`\\ s (a non-``None``
    ``faults`` summary) produce a breakdown; everything else -- healthy
    results, OOM records -- maps to ``None`` so the field
    stays absent from their entries.
    """
    summary = getattr(value, "faults", None)
    if summary is None:
        return None
    return {
        "policy": summary.policy,
        "segments": len(summary.segments),
        "transition_cost": summary.transition_cost,
        "recovery_cost": summary.recovery_cost,
        "checkpoint_cost": summary.checkpoint_cost,
        "overhead": summary.overhead,
        "crashed_gpu": summary.crashed_gpu,
        "crashed_node": summary.crashed_node,
        "replayed_iterations": summary.replayed_iterations,
        "rails_degraded": max(
            (s.rails_degraded for s in summary.segments), default=0
        ),
    }


def _parse_faults(raw: Any) -> Optional[Dict[str, Any]]:
    """Best-effort decode of an entry's ``"faults"`` object.

    Like ``"perf"``, the breakdown is advisory (it only feeds the
    runner's fault-summary line), so a malformed shape degrades to
    ``None`` rather than poisoning an otherwise intact result.
    """
    if not isinstance(raw, dict):
        return None
    try:
        return {
            "policy": str(raw["policy"]),
            "segments": int(raw["segments"]),
            "transition_cost": float(raw["transition_cost"]),
            "recovery_cost": float(raw["recovery_cost"]),
            "checkpoint_cost": float(raw["checkpoint_cost"]),
            "overhead": float(raw["overhead"]),
            "crashed_gpu": (
                None if raw.get("crashed_gpu") is None
                else int(raw["crashed_gpu"])
            ),
            "crashed_node": (
                None if raw.get("crashed_node") is None
                else int(raw["crashed_node"])
            ),
            "replayed_iterations": int(raw["replayed_iterations"]),
            "rails_degraded": int(raw["rails_degraded"]),
        }
    except (TypeError, ValueError, KeyError):
        return None


def _parse_perf(
    raw: Any,
) -> Tuple[float, Optional[Dict[str, Tuple[int, int]]]]:
    """Best-effort decode of an entry's ``"perf"`` object.

    Perf metadata is advisory (it only feeds timing summaries), so any
    malformed shape degrades to ``(0.0, None)`` rather than poisoning an
    otherwise intact result.
    """
    if not isinstance(raw, dict):
        return 0.0, None
    try:
        elapsed = float(raw.get("elapsed", 0.0))
    except (TypeError, ValueError):
        elapsed = 0.0
    if elapsed < 0.0:
        elapsed = 0.0
    stats_raw = raw.get("check_stats")
    check_stats: Optional[Dict[str, Tuple[int, int]]] = None
    if isinstance(stats_raw, dict):
        try:
            check_stats = {
                str(name): (int(pair[0]), int(pair[1]))
                for name, pair in stats_raw.items()
            }
        except (TypeError, ValueError, IndexError, KeyError):
            check_stats = None
    return elapsed, check_stats


# Monotonic per-process suffix for atomic-write temp names.  Combined
# with the pid it makes temp paths unique across concurrent writers in
# the same directory (mkstemp would too, but a deterministic name keeps
# leftover temp files attributable to the process that crashed).
_TMP_COUNTER = itertools.count()


def _atomic_write_json(path: pathlib.Path, data: Any) -> None:
    """Write ``data`` as JSON to ``path`` via an O_EXCL temp + rename.

    The temp name embeds the writer's pid and a monotonic counter, so two
    concurrent writers in one directory can never race on the same temp
    path; ``O_EXCL`` turns any residual collision (pid reuse after a
    crash) into an explicit error instead of silent interleaving.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "w") as fp:
            # json.dumps runs the C encoder; json.dump streams through
            # the pure-Python one, ~4x slower on a typical entry.
            fp.write(json.dumps(data))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Shard directories the entries are spread over.
SHARDS = 16


class ResultStore:
    """Loads and saves simulation results keyed by content fingerprint.

    Entries live in ``shard-XX/`` directories and every :meth:`store` is
    journaled before its point file is renamed into place (see the
    module docstring).  Opening a store replays the journals earlier
    writers left behind; :attr:`replayed` counts the entries restored.
    The journal is bounded: it is truncated every ``checkpoint_every``
    writes (all prior entries have durable point files by then) and on
    :meth:`flush` / :meth:`close`.
    """

    #: Journal lines between automatic truncations.
    checkpoint_every = 256

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.journal_dir = self.root / "journal"
        self._wal_path = self.journal_dir / f"wal-{os.getpid()}.jsonl"
        self._wal_fp = None
        self._wal_entries = 0
        self.replayed = self.replay_journal()

    def shard_for(self, key: str) -> pathlib.Path:
        """The shard directory holding ``key``'s entry file."""
        index = zlib.crc32(key.encode("utf-8")) % SHARDS
        return self.root / f"shard-{index:02x}"

    def path_for(self, key: str) -> pathlib.Path:
        return self.shard_for(key) / f"{key}.json"

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("shard-*/*.json"))

    def _corrupt(self, path: pathlib.Path, why: str) -> None:
        warnings.warn(
            f"sweep cache file {path} is corrupted ({why}); treating as a "
            f"cache miss -- the point will be re-simulated and the file "
            f"overwritten",
            CacheCorruptionWarning,
            stacklevel=3,
        )

    def load(self, key: str) -> Optional[StoredValue]:
        """The stored value for ``key``, or ``None`` on a miss."""
        entry = self.load_entry(key)
        return entry.value if entry is not None else None

    def load_entry(self, key: str) -> Optional[CacheEntry]:
        """The stored value plus its recorded perf metadata, or ``None``.

        Corrupted or truncated files -- invalid JSON, a non-dict payload,
        a missing ``schema`` stamp, missing result fields -- count as
        misses with a :class:`CacheCorruptionWarning` (the next store
        atomically overwrites them), so one bad file cannot abort a sweep
        mid-way.  Only an explicit *different* schema version is refused
        loudly with :class:`CacheSchemaError`: those files are internally
        consistent data from another library version, and silently
        re-simulating would mask a whole directory of unusable entries.

        A malformed ``perf`` field never fails the load: the result data
        is intact, so the entry is returned with ``elapsed=0.0``.
        """
        # Imported lazily: repro.analysis's package __init__ pulls in
        # modules that import repro.runner back.
        from repro.analysis.serialization import (
            SCHEMA_VERSION,
            SchemaMismatchError,
            result_from_dict,
        )

        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss: the file does not exist (or is unreadable)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            self._corrupt(path, f"invalid JSON: {exc}")
            return None
        if not isinstance(data, dict) or "schema" not in data:
            self._corrupt(path, "not a schema-stamped result object")
            return None
        found = data["schema"]
        if found != SCHEMA_VERSION:
            raise CacheSchemaError(
                f"cache file {path} has schema {found!r} but this library "
                f"writes schema {SCHEMA_VERSION}; delete the cache directory "
                f"(or pass --no-cache) and re-run"
            )
        kind = data.get("kind")
        value: Optional[StoredValue] = None
        try:
            if kind == "training":
                value = result_from_dict(data["result"])
            elif kind == "oom":
                o = data["result"]
                value = OomInfo(
                    device=o["device"],
                    requested=o["requested"],
                    free=o["free"],
                    message=o["message"],
                )
        except SchemaMismatchError as exc:
            raise CacheSchemaError(f"cache file {path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            self._corrupt(path, f"missing/invalid result fields: {exc}")
            return None
        if value is None:
            self._corrupt(path, f"unknown result kind {kind!r}")
            return None
        elapsed, check_stats = _parse_perf(data.get("perf"))
        return CacheEntry(
            value=value, elapsed=elapsed, check_stats=check_stats,
            faults=_parse_faults(data.get("faults")),
        )

    def store(
        self,
        key: str,
        value: StoredValue,
        elapsed: Optional[float] = None,
        check_stats: Optional[Dict[str, Tuple[int, int]]] = None,
    ) -> pathlib.Path:
        """Persist ``value`` under ``key`` (journal, then atomic rename).

        ``elapsed`` (wall-clock seconds the point took to simulate) and
        ``check_stats`` (its invariant statistics) are recorded in the
        additive ``"perf"`` entry field when given.  Fault-injected
        training results additionally get the ``"faults"`` breakdown
        (see :func:`fault_breakdown`).
        """
        data = self._encode(value, elapsed=elapsed, check_stats=check_stats)
        return self._write(key, data)

    def _encode(
        self,
        value: StoredValue,
        elapsed: Optional[float] = None,
        check_stats: Optional[Dict[str, Tuple[int, int]]] = None,
    ) -> Dict[str, Any]:
        """The JSON-ready entry document for ``value`` (no I/O)."""
        from repro.analysis.serialization import (
            SCHEMA_VERSION,
            result_to_dict,
        )

        if isinstance(value, OomInfo):
            kind, payload = "oom", {
                "device": value.device,
                "requested": value.requested,
                "free": value.free,
                "message": value.message,
            }
        else:
            kind, payload = "training", result_to_dict(value)

        data: Dict[str, Any] = {
            "schema": SCHEMA_VERSION, "kind": kind, "result": payload,
        }
        breakdown = fault_breakdown(value)
        if breakdown is not None:
            data["faults"] = breakdown
        if elapsed is not None:
            perf: Dict[str, Any] = {"elapsed": float(elapsed)}
            if check_stats:
                perf["check_stats"] = {
                    name: [int(checked), int(violated)]
                    for name, (checked, violated) in sorted(check_stats.items())
                }
            data["perf"] = perf
        return data

    def _journal_entries(
        self, wal: pathlib.Path
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield the committed ``(key, data)`` records in one log.

        A torn trailing line (the writer was killed mid-append) or any
        non-decodable line is skipped: the corresponding write was never
        acknowledged, so dropping it is the correct recovery.
        """
        try:
            text = wal.read_text()
        except OSError:
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key, data = record["key"], record["data"]
            except (json.JSONDecodeError, TypeError, KeyError):
                continue  # torn or malformed append: uncommitted
            if isinstance(key, str) and isinstance(data, dict):
                yield key, data

    def _entry_intact(self, path: pathlib.Path) -> bool:
        """Whether the point file at ``path`` is structurally sound."""
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return isinstance(data, dict) and "schema" in data

    def replay_journal(self) -> int:
        """Re-apply journaled writes whose point files did not survive.

        Returns the number of entries restored.  Consumed logs are
        removed; the store's own (not-yet-opened) log is never touched by
        other processes because log names embed the writer pid.
        """
        if not self.journal_dir.is_dir():
            return 0
        restored = 0
        for wal in sorted(self.journal_dir.glob("wal-*.jsonl")):
            for key, data in self._journal_entries(wal):
                path = self.path_for(key)
                if not self._entry_intact(path):
                    path.parent.mkdir(parents=True, exist_ok=True)
                    _atomic_write_json(path, data)
                    restored += 1
            try:
                wal.unlink()
            except OSError:
                pass
        return restored

    def _append_journal(self, key: str, data: Dict[str, Any]) -> None:
        if self._wal_fp is None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            self._wal_fp = open(self._wal_path, "a")
        self._wal_fp.write(json.dumps({"key": key, "data": data}) + "\n")
        self._wal_fp.flush()
        os.fsync(self._wal_fp.fileno())
        self._wal_entries += 1

    def _write(self, key: str, data: Dict[str, Any]) -> pathlib.Path:
        """Journal an encoded entry document, then rename it into place."""
        self._append_journal(key, data)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, data)
        if self._wal_entries >= self.checkpoint_every:
            self.flush()
        return path

    def flush(self) -> None:
        """Truncate the write-ahead journal.

        Safe because :meth:`_write` only returns after the point file's
        rename, so every journaled entry already has a durable file.
        """
        if self._wal_fp is None:
            return
        self._wal_fp.truncate(0)
        self._wal_fp.seek(0)
        self._wal_fp.flush()
        os.fsync(self._wal_fp.fileno())
        self._wal_entries = 0

    def close(self) -> None:
        """Flush and remove this process's (now empty) journal file."""
        if self._wal_fp is None:
            return
        self.flush()
        self._wal_fp.close()
        self._wal_fp = None
        try:
            self._wal_path.unlink()
        except OSError:
            pass


# The old name of the one store class; perfbench/ still imports it.
ShardedResultStore = ResultStore
