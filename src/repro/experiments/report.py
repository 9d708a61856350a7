"""One-shot markdown report: every artifact plus the anchor validation.

``repro-experiments report -o out/`` writes ``out/report.md`` -- a
self-contained record of a full regeneration run, suitable for committing
next to EXPERIMENTS.md after a model change.
"""

from __future__ import annotations

import datetime
from typing import List, Optional

from repro import __version__
from repro.analysis import validation
from repro.experiments import (
    fig2_topology,
    fig3_training_time,
    fig4_breakdown,
    fig5_weak_scaling,
    nccl_ablation,
    table1_networks,
    table2_nccl_overhead,
    table3_sync_overhead,
    table4_memory,
)
from repro.runner import SweepRunner

#: (section title, paper artifact reference) per block, in paper order.
_SECTIONS = (
    ("Networks", "Table I"),
    ("Interconnect", "Figure 2"),
    ("Training time per epoch", "Figure 3"),
    ("Single-GPU NCCL overhead", "Table II"),
    ("Computation vs communication", "Figure 4"),
    ("cudaStreamSynchronize overhead", "Table III"),
    ("Memory usage", "Table IV"),
    ("Weak scaling", "Figure 5"),
    ("NCCL algorithm/protocol ablation", "extension"),
)


def generate(
    cache: Optional[SweepRunner] = None,
    fast: bool = False,
    timestamp: Optional[str] = None,
) -> str:
    """Render the full report as markdown.

    ``fast`` restricts the sweeps to batch 16 and {1, 4} GPUs.  ``cache``
    is the :class:`~repro.runner.SweepRunner` every sweep executes
    through, so ``--jobs`` and the persistent result cache apply to the
    whole report.
    """
    cache = cache if cache is not None else SweepRunner()
    kwargs = dict(batch_sizes=(16,), gpu_counts=(1, 4)) if fast else {}
    t2_kwargs = dict(batch_sizes=(16,)) if fast else {}

    blocks: List[str] = []
    blocks.append(table1_networks.render(table1_networks.run()))
    blocks.append(fig2_topology.render(fig2_topology.run()))
    blocks.append(fig3_training_time.render(fig3_training_time.run(cache, **kwargs)))
    blocks.append(
        table2_nccl_overhead.render(table2_nccl_overhead.run(cache, **t2_kwargs))
    )
    blocks.append(fig4_breakdown.render(fig4_breakdown.run(cache, **kwargs)))
    blocks.append(
        table3_sync_overhead.render(table3_sync_overhead.run(cache, **kwargs))
    )
    blocks.append(table4_memory.render(table4_memory.run()))
    blocks.append(fig5_weak_scaling.render(fig5_weak_scaling.run(cache, **kwargs)))
    nccl_kwargs = dict(networks=("alexnet",)) if fast else {}
    blocks.append(nccl_ablation.render(nccl_ablation.run(runner=cache, **nccl_kwargs)))

    when = timestamp or datetime.datetime.now().isoformat(timespec="seconds")
    lines = [
        "# Reproduction report",
        "",
        f"- library: repro {__version__}",
        f"- generated: {when}",
        f"- mode: {'fast (batch 16, 1/4 GPUs)' if fast else 'full paper sweep'}",
        f"- simulations run: {len(cache)}",
        "",
    ]
    for (title, artifact), block in zip(_SECTIONS, blocks):
        lines.append(f"## {title} ({artifact})")
        lines.append("")
        lines.append("```")
        lines.append(block.rstrip("\n"))
        lines.append("```")
        lines.append("")

    if not fast:
        report = validation.validate(cache)
        lines.append("## Paper-anchor validation")
        lines.append("")
        lines.append("```")
        lines.append(validation.render(report).rstrip("\n"))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
