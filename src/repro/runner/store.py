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
        journal/wal-<pid>-<n>.jsonl         # write-ahead log of one writer

``XX`` is the CRC32 of the key modulo :data:`SHARDS`, in hex, which
bounds per-directory entry counts when a service writes tens of
thousands of points.  ``kind`` is ``"training"`` (a
:class:`TrainingResult`, whatever its strategy) or ``"oom"`` (a recorded
out-of-memory failure, so untrainable points are not re-attempted).

Every write is first appended to the writer's journal (flushed *and*
fsynced) and only then renamed into place; a batch of writes
(:meth:`ResultStore.store_many`) appends all its lines with one write and
one fsync before its first rename.  Each writer holds an exclusive
``flock`` on its own log while the log is open, and opening a store
replays every log it can lock -- a dead or closed writer's, never a
live one's -- restoring any journaled entry whose point file is missing
or unreadable.  A SIGKILL at any instant therefore loses only entries
whose journal write had not completed (the torn lines of the batch being
written, which had not been acknowledged) and never corrupts or loses an
acknowledged one.

That guarantee is against a killed *process*: the kernel still holds
what it wrote.  Point files and their renames are never fsynced, and a
checkpoint (:meth:`ResultStore.flush`, every
:attr:`~ResultStore.checkpoint_every` lines and on close) truncates the
journal.  After a power loss or kernel crash, an acknowledged entry
whose journal line a checkpoint had already dropped, and whose point
file had not reached the disk, is lost; its point is simulated again on
the next request.  See ``docs/RUNNER.md`` and ``docs/SERVICE.md``.

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

import fcntl
import itertools
import json
import os
import pathlib
import warnings
import weakref
import zlib
from dataclasses import dataclass
from typing import (
    IO, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

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

#: One entry to store: ``(key, value, elapsed, check_stats)``, the
#: arguments of :meth:`ResultStore.store`.
StoreItem = Tuple[
    str, StoredValue, Optional[float], Optional[Dict[str, Tuple[int, int]]],
]


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
    """Write ``data`` as JSON to ``path`` (see :func:`_atomic_write`)."""
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one, ~4x slower on a typical entry.
    _atomic_write(path, json.dumps(data))


def _atomic_write(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` via an O_EXCL temp + rename.

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
            fp.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _journal_line(key: str, text: str) -> str:
    """The journal line of an entry whose document encodes to ``text``.

    Byte for byte ``json.dumps({"key": key, "data": data}) + "\\n"``,
    without encoding ``data`` a second time.
    """
    return f'{{"key": {json.dumps(key)}, "data": {text}}}\n'


def _names(fp: IO[Any], path: pathlib.Path) -> bool:
    """Whether ``path`` still names the file open as ``fp``."""
    try:
        return os.path.samestat(os.fstat(fp.fileno()), os.stat(path))
    except FileNotFoundError:
        return False


#: Per-process suffix of journal names, so that two stores in one
#: process never share a log (nor wait on each other's lock).
_WAL_COUNTER = itertools.count()

#: Stores whose journal is open, for :func:`_forget_journals`.
_OPEN_JOURNALS: "weakref.WeakSet[ResultStore]" = weakref.WeakSet()


def _forget_journals() -> None:
    """In a forked child, drop the journal handles it inherited.

    A child shares its parent's open log and with it the parent's
    ``flock``, which the kernel drops only once every process holding
    the log has closed it.  A pool worker that kept its copy would keep
    a killed parent's log locked, and so unreplayed, for as long as the
    worker lived.  The child closes its copy (the parent keeps its lock)
    and would journal under a name of its own.
    """
    for store in list(_OPEN_JOURNALS):
        if store._wal_fp is None:
            continue
        store._wal_fp.close()
        store._wal_fp = None
        store._wal_entries = 0
        store._wal_path = store._new_wal_path()
    _OPEN_JOURNALS.clear()


os.register_at_fork(after_in_child=_forget_journals)


#: Shard directories the entries are spread over.
SHARDS = 16


class ResultStore:
    """Loads and saves simulation results keyed by content fingerprint.

    Entries live in ``shard-XX/`` directories and every write
    (:meth:`store`, :meth:`store_many`) is journaled before its point
    files are renamed into place (see the module docstring).  Opening a
    store replays the journals dead writers left behind; :attr:`replayed`
    counts the entries restored.  The journal is bounded: it is
    truncated every ``checkpoint_every`` lines (every prior entry's point
    file has been renamed into place by then) and on :meth:`flush` /
    :meth:`close`.
    """

    #: Journal lines between automatic truncations.
    checkpoint_every = 256

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.journal_dir = self.root / "journal"
        self._wal_path = self._new_wal_path()
        self._wal_fp: Optional[IO[str]] = None
        self._wal_entries = 0
        self.replayed = self.replay_journal()

    def _new_wal_path(self) -> pathlib.Path:
        """A journal name no other store, in any process, writes under."""
        return self.journal_dir / (
            f"wal-{os.getpid()}-{next(_WAL_COUNTER)}.jsonl")

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
        (see :func:`fault_breakdown`).  The one-entry case of
        :meth:`store_many`.
        """
        return self.store_many([(key, value, elapsed, check_stats)])[0]

    def store_many(self, entries: Iterable[StoreItem]) -> List[pathlib.Path]:
        """Persist ``(key, value, elapsed, check_stats)`` entries together.

        Each entry is encoded once, as :meth:`store` would.  All their
        journal lines are appended with one write, one flush and one
        ``fsync``; only then is each point file renamed into place, in
        order.  So a kill before the fsync returns loses at most this
        batch, which no caller has acknowledged, and a kill during the
        renames leaves every entry of the batch to the journal replay.
        Returns the point files' paths.
        """
        encoded = [
            (key, json.dumps(self._encode(value, elapsed, check_stats)))
            for key, value, elapsed, check_stats in entries
        ]
        if not encoded:
            return []
        self._journal("".join(_journal_line(key, text)
                              for key, text in encoded), len(encoded))
        paths = []
        for key, text in encoded:
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(path, text)
            paths.append(path)
        if self._wal_entries >= self.checkpoint_every:
            self.flush()
        return paths

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
        self, text: str
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield the committed ``(key, data)`` records of one log's text.

        A torn trailing line (the writer was killed mid-append) or any
        non-decodable line is skipped: the corresponding write was never
        acknowledged, so dropping it is the correct recovery.
        """
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

        Returns the number of entries restored.  A writer holds an
        exclusive ``flock`` on its log for as long as the log is open, so
        a log that cannot be locked at once belongs to a live writer and
        is skipped.  Every other log -- a closed store's, or a dead
        writer's, whose lock the kernel dropped -- is replayed and then
        removed while still locked.
        """
        if not self.journal_dir.is_dir():
            return 0
        restored = 0
        for wal in sorted(self.journal_dir.glob("wal-*.jsonl")):
            try:
                fp = open(wal)
            except OSError:
                continue  # consumed by another store since the glob
            with fp:
                try:
                    fcntl.flock(fp.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    continue  # a live writer's log
                if not _names(fp, wal):
                    continue  # consumed by another store since the open
                for key, data in self._journal_entries(fp.read()):
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

    def _open_journal(self) -> IO[str]:
        """Open this store's log and take its exclusive ``flock``.

        The lock is taken once per log, before its first line.  A replay
        that opened the new, empty file before the lock was taken may
        have removed it; then the name no longer names the locked file,
        and the log is created again.
        """
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        while True:
            fp = open(self._wal_path, "a")
            fcntl.flock(fp.fileno(), fcntl.LOCK_EX)
            if _names(fp, self._wal_path):
                _OPEN_JOURNALS.add(self)
                return fp
            fp.close()

    def _journal(self, lines: str, count: int) -> None:
        """Append ``count`` journal lines with one write and one fsync."""
        if self._wal_fp is None:
            self._wal_fp = self._open_journal()
        self._wal_fp.write(lines)
        self._wal_fp.flush()
        os.fsync(self._wal_fp.fileno())
        self._wal_entries += count

    def _append_journal(self, key: str, data: Dict[str, Any]) -> None:
        """Journal one encoded entry without renaming it into place: the
        state a writer killed between the two leaves behind."""
        self._journal(_journal_line(key, json.dumps(data)), 1)

    def flush(self) -> None:
        """Truncate the write-ahead journal (a checkpoint).

        Every journaled entry's point file has been renamed into place
        by then (:meth:`store_many` renames before it returns), so a
        killed process loses nothing.  The point files are not fsynced,
        though: after a power loss or kernel crash, an entry whose file
        had not reached the disk is lost with its journal line, even
        though its write was acknowledged (see the module docstring).
        """
        if self._wal_fp is None:
            return
        self._wal_fp.truncate(0)
        self._wal_fp.seek(0)
        self._wal_fp.flush()
        os.fsync(self._wal_fp.fileno())
        self._wal_entries = 0

    def close(self) -> None:
        """Flush, then remove this store's (now empty) journal file and
        release its lock."""
        if self._wal_fp is None:
            return
        self.flush()
        try:
            self._wal_path.unlink()
        except OSError:
            pass
        self._wal_fp.close()
        self._wal_fp = None
        _OPEN_JOURNALS.discard(self)


# The old name of the one store class; perfbench/ still imports it.
ShardedResultStore = ResultStore
