#!/usr/bin/env python3
"""Compare data-parallel strategies: synchronous vs asynchronous SGD.

The paper's background (Section II-B) contrasts synchronous SGD, whose
barrier the paper profiles, with asynchronous SGD, which trades gradient
staleness for throughput.  This example measures both on the simulated
DGX-1.

Run:  python examples/parallelism_strategies.py
"""

import dataclasses

from repro import CommMethodName, TrainingConfig
from repro.experiments.tables import render_table
from repro.train import train

NETWORKS = ("alexnet", "resnet")
GPUS = 4
BATCH = 32


def main() -> None:
    rows = []
    for network in NETWORKS:
        config = TrainingConfig(network, BATCH, GPUS, comm_method=CommMethodName.P2P)

        sync = train(config)
        asyn = train(dataclasses.replace(config, strategy="async-update"))

        rows.extend(
            [
                (network, "data-parallel sync (P2P)", f"{sync.epoch_time:.1f}",
                 f"{sync.images_per_second:.0f}", "-"),
                (network, "data-parallel async", f"{asyn.epoch_time:.1f}",
                 f"{asyn.images_per_second:.0f}",
                 f"staleness {asyn.async_stats.staleness_mean:.1f}"),
            ]
        )
    print(
        render_table(
            ["Network", "Strategy", "Epoch (s)", "img/s", "Notes"],
            rows,
            title=f"Parallelization strategies ({GPUS} GPUs, batch {BATCH})",
            align_right_from=2,
        )
    )
    print("Reading: async removes the barrier but pays whole-model pulls and")
    print("pushes (and staleness), so it only helps compute-bound models.")


if __name__ == "__main__":
    main()
