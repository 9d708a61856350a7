"""Per-layer accounting for the traced run.

Two sources feed the per-layer metrics:

* the simulator's own ``repro.perf.spans.PERF`` spans and counters
  (``trainer.measure``, ``nccl.pipeline``, ``sim.events``, ...), switched
  on for the traced run only;
* timers this file wraps around public entry points of each layer
  (:data:`_ENTRY_POINTS`).  Frequent calls -- a profiler record per
  simulated kernel, an invariant check per simulated event -- only add to
  a per-name tally, so tracing keeps no per-call record of them.  Calls
  that happen a few times per op also open a ``PERF`` span, so they nest
  in the one Chrome trace written when the run ends.

A tallied call made directly inside an open ``PERF`` span is also booked
against that span's path, so the engine's own self time can be told apart
from the profiler and check work that runs inside ``trainer.measure``.

Spans stay in memory; :func:`write_trace` writes them out once.  Pool
workers are forked with the wrappers and the enabled profiler in place,
and :func:`worker_snapshot` (run on the worker) hands their totals back.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checks.engine import CheckEngine
from repro.perf.spans import PERF
from repro.perf.trace import perf_chrome_trace_events
from repro.profile.profiler import Profiler
from repro.runner import SweepRunner
from repro.runner.store import ResultStore, ShardedResultStore
from repro.service import server as service_server
from repro.service.admission import AdmissionController
from repro.service.executor import PoolExecutor
from repro.train.trainer import Trainer


class Tracer:
    """Tallies of wrapped calls: ``{name: [calls, seconds, hits, total]}``.

    ``hits`` counts calls whose result passed the entry's hit test (a
    store load that found its entry); ``total`` sums numeric results (the
    entries a journal replay restored).  ``direct`` books tallied seconds
    against the ``PERF`` span path they ran directly inside.
    """

    def __init__(self) -> None:
        self.tally: Dict[str, List[float]] = {}
        self.direct: Dict[str, float] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    def add(self, name: str, seconds: float, parent: Optional[str],
            result: Any, hit: Optional[Callable[[Any], bool]]) -> None:
        row = self.tally.setdefault(name, [0, 0.0, 0, 0])
        row[0] += 1
        row[1] += seconds
        if hit is not None and hit(result):
            row[2] += 1
        if isinstance(result, int) and not isinstance(result, bool):
            row[3] += result
        if parent is not None:
            self.direct[parent] = self.direct.get(parent, 0.0) + seconds

    def install(self) -> None:
        """Wrap every entry point and switch ``PERF`` on."""
        global _ACTIVE
        for owner, attr, name, kind, hit in _ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, hit))
        PERF.reset()
        PERF.enable()
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore the original entry points and switch ``PERF`` off."""
        global _ACTIVE
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        PERF.disable()
        _ACTIVE = None

    def _wrap(self, fn: Callable, name: str, kind: str,
              hit: Optional[Callable[[Any], bool]]) -> Callable:
        tracer = self
        span = kind == "span"
        if kind == "async":
            @functools.wraps(fn)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    # Coroutines interleave, so no PERF span and no parent.
                    tracer.add(name, time.perf_counter() - start, None,
                               result, hit)
            return timed_async

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            # PERF keeps its open-span stack private; reading the innermost
            # path is the only way to book this call against its parent.
            stack = PERF._stack
            parent = None if span else (stack[-1].path if stack else "")
            start = time.perf_counter()
            result = None
            try:
                if span:
                    with PERF.span(name):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
                return result
            finally:
                tracer.add(name, time.perf_counter() - start, parent,
                           result, hit)
        return timed

    def snapshot(self, records: bool = False) -> Dict[str, Any]:
        """Cumulative totals so far (JSON- and pickle-ready)."""
        snap: Dict[str, Any] = {
            "spans": {path: [agg.calls, agg.total, agg.self_time]
                      for path, agg in PERF.aggregate().items()},
            "counters": dict(PERF.counters),
            "tally": {name: list(row) for name, row in self.tally.items()},
            "direct": dict(self.direct),
        }
        if records:
            snap["records"] = [(r.name, r.path, r.start, r.end)
                               for r in PERF.records]
        return snap


def _found(entry: Any) -> bool:
    return entry is not None


#: (owner, attribute, tally name, kind, hit test).  ``kind`` is "span" for
#: calls made a few times per op (they also open a PERF span), "tally" for
#: per-kernel/per-event calls and "async" for coroutines (tally only).
_ENTRY_POINTS: Tuple[Tuple[Any, str, str, str, Any], ...] = (
    (Profiler, "record_kernel", "profile.record_kernel", "tally", None),
    (Profiler, "record_transfer", "profile.record_transfer", "tally", None),
    (Profiler, "record_api", "profile.record_api", "tally", None),
    (CheckEngine, "check", "checks.check", "tally", None),
    (ResultStore, "load_entry", "store.load_entry", "tally", _found),
    (ResultStore, "store", "store.store", "tally", None),
    (ShardedResultStore, "replay_journal", "store.replay_journal", "span", None),
    (PoolExecutor, "execute", "service.execute", "async", None),
    (AdmissionController, "admit", "service.admit", "tally", None),
    (service_server, "analytic_estimate", "service.analytic_estimate",
     "tally", None),
    (SweepRunner, "run", "SweepRunner.run", "span", None),
    (Trainer, "run", "Trainer.run", "span", None),
)

_ACTIVE: Optional[Tracer] = None


def worker_snapshot() -> Dict[str, Any]:
    """Run on a forked pool worker: its tracer's totals and span records."""
    if _ACTIVE is None:
        return {}
    return _ACTIVE.snapshot(records=True)


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two snapshots of one process."""
    def sub_rows(a: Dict[str, List[float]], b: Dict[str, List[float]]):
        return {k: [x - y for x, y in zip(row, b.get(k, [0] * len(row)))]
                for k, row in a.items()}

    def sub_flat(a: Dict[str, float], b: Dict[str, float]):
        return {k: v - b.get(k, 0) for k, v in a.items()}

    return {
        "spans": sub_rows(after.get("spans", {}), before.get("spans", {})),
        "counters": sub_flat(after.get("counters", {}),
                             before.get("counters", {})),
        "tally": sub_rows(after.get("tally", {}), before.get("tally", {})),
        "direct": sub_flat(after.get("direct", {}), before.get("direct", {})),
    }


def merge(*deltas: Dict[str, Any]) -> Dict[str, Any]:
    """Sum deltas from several processes (parent plus pool worker)."""
    out: Dict[str, Any] = {"spans": {}, "counters": {}, "tally": {},
                           "direct": {}}
    for d in deltas:
        for key in ("spans", "tally"):
            for name, row in d.get(key, {}).items():
                have = out[key].setdefault(name, [0] * len(row))
                out[key][name] = [x + y for x, y in zip(have, row)]
        for key in ("counters", "direct"):
            for name, value in d.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def span_totals(d: Dict[str, Any], name: str) -> Tuple[float, float, float, float]:
    """(calls, inclusive s, self s, tallied s made directly inside) summed
    over every span path ending in ``name``."""
    calls = total = self_time = direct = 0.0
    for path, (c, t, s) in d["spans"].items():
        if path.rsplit("/", 1)[-1] == name:
            calls += c
            total += t
            self_time += s
            direct += d["direct"].get(path, 0.0)
    return calls, total, self_time, direct


def tally(d: Dict[str, Any], name: str) -> List[float]:
    """``[calls, seconds, hits, total]`` of one wrapped entry point."""
    return d["tally"].get(name, [0, 0.0, 0, 0])


def write_trace(path, parent: Dict[str, Any], worker: Dict[str, Any],
                meta: Dict[str, Any]) -> None:
    """One Chrome trace: parent spans on tid 0, pool-worker spans on tid 1."""
    events = perf_chrome_trace_events(PERF)
    if worker.get("records"):
        epoch = min(r[2] for r in worker["records"])
        events.append({"name": "thread_name", "ph": "M", "pid": 4, "tid": 1,
                       "args": {"name": "pool worker"}})
        for name, span_path, start, end in worker["records"]:
            events.append({"name": name, "cat": "perf", "ph": "X",
                           "ts": (start - epoch) * 1e6,
                           "dur": (end - start) * 1e6, "pid": 4, "tid": 1,
                           "args": {"path": span_path}})
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": dict(meta, parent_tally=parent.get("tally", {}),
                         worker_tally=worker.get("tally", {})),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fp:
        json.dump(trace, fp)
