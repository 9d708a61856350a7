#!/usr/bin/env python3
"""Compare parallelization strategies: sync DP, async DP, model parallelism.

The paper's background (Sections I-II) argues data parallelism suits
convolutional networks while model parallelism suits FC-heavy ones, and
that asynchronous SGD trades gradient staleness for throughput.  This
example measures all three on the simulated DGX-1.

Run:  python examples/parallelism_strategies.py
"""

import dataclasses

from repro import CommMethodName, TrainingConfig
from repro.experiments.tables import render_table
from repro.train import ModelParallelEstimator, train

NETWORKS = ("alexnet", "resnet")
GPUS = 4
BATCH = 32


def main() -> None:
    rows = []
    for network in NETWORKS:
        config = TrainingConfig(network, BATCH, GPUS, comm_method=CommMethodName.P2P)

        sync = train(config)
        asyn = train(dataclasses.replace(config, strategy="async-update"))
        mp = ModelParallelEstimator(config).run()
        mp_piped = ModelParallelEstimator(config, pipeline_microbatches=4).run()

        rows.extend(
            [
                (network, "data-parallel sync (P2P)", f"{sync.epoch_time:.1f}",
                 f"{sync.images_per_second:.0f}", "-"),
                (network, "data-parallel async", f"{asyn.epoch_time:.1f}",
                 f"{asyn.images_per_second:.0f}",
                 f"staleness {asyn.async_stats.staleness_mean:.1f}"),
                (network, "model-parallel", f"{mp.epoch_time:.1f}",
                 f"{mp.images_per_second:.0f}",
                 f"boundary {mp.communication_bytes_per_iteration / 1e6:.0f} MB/iter"),
                (network, "model-parallel, 4 microbatches",
                 f"{mp_piped.epoch_time:.1f}",
                 f"{mp_piped.images_per_second:.0f}",
                 f"balance {mp_piped.plan.balance:.2f}"),
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
    print("Reading: synchronous data parallelism wins overall.  Async removes")
    print("the barrier but pays whole-model pulls/pushes (and staleness), so it")
    print("only helps compute-bound models; model parallelism loses badly for")
    print("the conv-heavy network and is closest to viable for the FC-heavy one")
    print("(small boundary traffic, no gradient synchronization).")


if __name__ == "__main__":
    main()
