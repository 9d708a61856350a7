"""Runtime physical-invariant verification (the self-checking simulator).

Every figure in the paper rests on physically consistent simulated
quantities: link bytes that respect NVLink/PCIe capacity, FP+BP/WU
decompositions that sum to step time, memory curves bounded by the V100's
16 GB HBM2.  This package verifies those properties *while the simulator
runs*:

* :mod:`repro.checks.registry` — the checker registry and the
  :func:`invariant` registration decorator.
* :mod:`repro.checks.engine`   — :class:`CheckEngine` with its three
  enforcement modes (``off`` / ``warn`` / ``strict``), violation records,
  and per-invariant statistics.
* :mod:`repro.checks.checkers` — 25 of the 26 shipped checkers across the
  conservation / capacity / temporal / structural categories.
* :mod:`repro.checks.expect`   — closed-form expected gradient traffic,
  the independent oracle for the conservation audit.
* :mod:`repro.checks.dag`      — the analytic-DAG cross-check oracle:
  Shi et al.'s stage model of synchronous SGD as a lower bound on every
  measured iteration, independent of the event engine.

Usage: pass ``checks=CheckEngine("strict")`` to a
:class:`~repro.train.trainer.Trainer`, run sweeps with
``--invariants=warn`` / ``--strict-invariants``, or run the full paper
grid under ``repro-experiments selfcheck``.  See docs/INVARIANTS.md.
"""

from repro.checks.engine import CheckEngine, CheckMode, Violation, merge_stats
from repro.checks.expect import expected_sync_bytes
from repro.checks.registry import (
    Checker,
    all_checkers,
    checkers_at,
    get_checker,
    invariant,
)

# Importing the catalogs registers every shipped checker.
from repro.checks import checkers as _checkers  # noqa: F401  (side effect)
from repro.checks import dag as _dag  # noqa: F401  (side effect)

__all__ = [
    "CheckEngine",
    "CheckMode",
    "Checker",
    "Violation",
    "all_checkers",
    "checkers_at",
    "expected_sync_bytes",
    "get_checker",
    "invariant",
    "merge_stats",
]
