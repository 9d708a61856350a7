"""Post-processing analyses over training results.

:mod:`repro.analysis.scaling` fits and summarizes scaling behaviour
(speedup, efficiency, Amdahl/Karp-Flatt serial fractions);
:mod:`repro.analysis.crossover` locates the model-shape boundary where
NCCL overtakes P2P (generalizing the paper's five data points);
:mod:`repro.analysis.protocols` tabulates the NCCL algorithm/protocol
auto-tuner's per-message-size selections and regime crossovers;
:mod:`repro.analysis.serialization` persists results as JSON for external
plotting.
"""

from repro.analysis.batch_tuner import BatchTuneResult, tune_batch_size
from repro.analysis.crossover import CrossoverStudy, synthetic_conv_network
from repro.analysis.protocols import (
    CrossoverPoint,
    SelectionRow,
    crossover_table,
    protocol_speedups,
    selection_table,
)
from repro.analysis.scaling import (
    ScalingCurve,
    karp_flatt,
    scaling_curve,
)
from repro.analysis.serialization import (
    SCHEMA_VERSION,
    SchemaMismatchError,
    result_from_dict,
    result_to_dict,
)
from repro.analysis.validation import PAPER_ANCHORS, PaperAnchor, ValidationReport, validate

__all__ = [
    "BatchTuneResult",
    "CrossoverPoint",
    "CrossoverStudy",
    "PAPER_ANCHORS",
    "PaperAnchor",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "SelectionRow",
    "ValidationReport",
    "ScalingCurve",
    "crossover_table",
    "karp_flatt",
    "protocol_speedups",
    "result_from_dict",
    "result_to_dict",
    "scaling_curve",
    "selection_table",
    "synthetic_conv_network",
    "tune_batch_size",
    "validate",
]
