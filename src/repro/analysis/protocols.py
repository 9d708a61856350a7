"""NCCL algorithm/protocol selection analysis.

Thin, presentation-oriented wrappers over
:class:`~repro.comm.nccl.tuning.NcclTuner`: a per-size selection table
(every candidate's predicted time plus the winner) and a crossover
summary (the sizes at which the winning regime changes).  These are what
:mod:`repro.experiments.nccl_ablation` renders; they are exposed here so
notebooks and scripts can build the same tables without running a sweep.

>>> from repro.analysis.protocols import selection_table
>>> rows = selection_table(sizes=[4096, 64 * 1024 * 1024])
>>> [(r.nbytes, r.algorithm, r.protocol) for r in rows]
[(4096, 'tree', 'll'), (67108864, 'ring', 'simple')]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.nccl.tuning import NcclTuner, crossover_sizes


def default_sizes(lo_pow: int = 10, hi_pow: int = 28) -> List[int]:
    """Powers of two from ``2**lo_pow`` to ``2**hi_pow`` inclusive."""
    return [2 ** p for p in range(lo_pow, hi_pow + 1)]


@dataclass(frozen=True)
class SelectionRow:
    """One message size: the winning combo plus every candidate's cost."""

    nbytes: int
    algorithm: str
    protocol: str
    predicted: float
    #: predicted seconds per eligible ("algorithm", "protocol") combo
    candidates: Tuple[Tuple[str, str, float], ...]

    def candidate_time(self, algorithm: str, protocol: str) -> Optional[float]:
        """Predicted time of one combo, or ``None`` if ineligible."""
        for alg, proto, predicted in self.candidates:
            if (alg, proto) == (algorithm, protocol):
                return predicted
        return None


def selection_table(
    tuner: Optional[NcclTuner] = None,
    collective: str = "allreduce",
    sizes: Optional[Sequence[int]] = None,
) -> List[SelectionRow]:
    """The tuner's full decision table over ``sizes``.

    Defaults to an 8-GPU DGX-1V tuner in full-auto mode and the
    :func:`default_sizes` scan.
    """
    tuner = tuner if tuner is not None else NcclTuner.for_dgx1()
    sizes = list(sizes) if sizes is not None else default_sizes()
    rows: List[SelectionRow] = []
    for size in sizes:
        choice = tuner.select(collective, size)
        rows.append(SelectionRow(
            nbytes=size,
            algorithm=choice.algorithm.value,
            protocol=choice.protocol.value,
            predicted=choice.predicted,
            candidates=tuple(
                (alg.value, proto.value, predicted)
                for alg, proto, predicted in tuner.candidates(collective, size)
            ),
        ))
    return rows


@dataclass(frozen=True)
class CrossoverPoint:
    """First message size at which a new (algorithm, protocol) regime wins."""

    nbytes: int
    algorithm: str
    protocol: str
    predicted: float


def crossover_table(
    tuner: Optional[NcclTuner] = None,
    collective: str = "allreduce",
    sizes: Optional[Sequence[int]] = None,
) -> List[CrossoverPoint]:
    """The regime-change summary of :func:`selection_table`."""
    tuner = tuner if tuner is not None else NcclTuner.for_dgx1()
    return [
        CrossoverPoint(
            nbytes=size,
            algorithm=choice.algorithm.value,
            protocol=choice.protocol.value,
            predicted=choice.predicted,
        )
        for size, choice in crossover_sizes(tuner, collective, sizes)
    ]


def protocol_speedups(
    rows: Sequence[SelectionRow],
    baseline: Tuple[str, str] = ("ring", "simple"),
) -> Dict[int, float]:
    """Winner's speedup over a fixed baseline combo, per message size.

    Sizes where the baseline is ineligible are skipped.  With the default
    ring+Simple baseline this quantifies what the paper's fixed-algorithm
    NCCL measurement left on the table at small message sizes.
    """
    out: Dict[int, float] = {}
    for row in rows:
        base = row.candidate_time(*baseline)
        if base is not None and row.predicted > 0.0:
            out[row.nbytes] = base / row.predicted
    return out
